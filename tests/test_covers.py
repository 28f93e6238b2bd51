import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatnet.covers import (
    Cover,
    InvalidCover,
    InvalidPath,
    PosetPath,
    Step,
    annulus_cover,
    approximate_curve,
    build_nerve,
    builtin_cover,
    circle_cover,
    disk_cover,
    empty_path,
    figure_eight_cover,
    generator_loop,
    loop_class,
    path_compose,
    path_reverse,
    pi1_presentation,
    torus_cover,
)
from flatnet.groups import MatrixUn, PhaseU1, inverse, transport_table
from homology import abelianization_rank, closed_triangle_cycles, free_h1_coordinates, relation_matrix

ALL_BUILTINS = ["circle", "annulus", "disk", "figure_eight", "torus"]


def make(name):
    return builtin_cover(name, 5 if name == "circle" else None)


# ---------------------------------------------------------------------------
# construction and validation


def test_cover_rejects_duplicate_regions():
    with pytest.raises(InvalidCover):
        Cover(regions=(0, 0, 1), overlaps=((0, 1, 0),))


def test_cover_rejects_unordered_overlap():
    with pytest.raises(InvalidCover):
        Cover(regions=(0, 1), overlaps=((1, 0, 0),))


def test_cover_rejects_unknown_region_in_overlap():
    with pytest.raises(InvalidCover):
        Cover(regions=(0, 1), overlaps=((0, 2, 0),))


def test_cover_rejects_triple_without_overlaps():
    with pytest.raises(InvalidCover):
        Cover(
            regions=(0, 1, 2),
            overlaps=((0, 1, 0), (1, 2, 0)),
            triples=((0, 1, 2, (0, 0, 0)),),
        )


def test_cover_rejects_disconnected():
    with pytest.raises(InvalidCover):
        Cover(regions=(0, 1, 2, 3), overlaps=((0, 1, 0), (2, 3, 0)))


def test_cover_rejects_bad_base():
    with pytest.raises(InvalidCover):
        Cover(regions=(0, 1), overlaps=((0, 1, 0),), base_region=7)


def test_multiple_overlap_components():
    # two regions glued along two separate components: a circle with 2 charts
    cov = Cover(regions=(0, 1), overlaps=((0, 1, 0), (0, 1, 1)))
    assert cov.overlap_components(0, 1) == (0, 1)
    nerve = build_nerve(cov)
    assert len(nerve.non_tree_edges) == 1  # one loop


# ---------------------------------------------------------------------------
# builtin covers: counts and first Betti numbers


def test_builtin_shapes():
    expected = {
        # regions, edges, triples, generators, relations, rank
        "circle": (5, 5, 0, 1, 0, 1),
        "annulus": (4, 4, 0, 1, 0, 1),
        "disk": (3, 3, 1, 1, 1, 0),
        "figure_eight": (5, 6, 0, 2, 0, 2),
        "torus": (7, 21, 14, 15, 14, 2),
    }
    for name, (r, e, t, g, rel, rank) in expected.items():
        cov = make(name)
        pres = pi1_presentation(build_nerve(cov))
        assert len(cov.regions) == r, name
        assert len(cov.overlaps) == e, name
        assert len(cov.triples) == t, name
        assert len(pres.generators) == g, name
        assert len(pres.relations) == rel, name
        assert abelianization_rank(pres) == rank, name


def test_torus_euler_characteristic():
    cov = torus_cover()
    assert len(cov.regions) - len(cov.overlaps) + len(cov.triples) == 0


def test_circle_size_parameter():
    assert len(circle_cover(3).regions) == 3
    assert len(circle_cover(8).overlaps) == 8
    with pytest.raises(InvalidCover):
        circle_cover(2)


def test_unknown_builtin():
    with pytest.raises(InvalidCover):
        builtin_cover("moebius")


def test_disjointness_declarations():
    ann = annulus_cover()
    assert ann.are_disjoint(0, 2) and ann.are_disjoint(1, 3)
    assert not ann.are_disjoint(0, 1)
    fig = figure_eight_cover()
    assert fig.are_disjoint(1, 3) and fig.are_disjoint(2, 4)
    assert not fig.are_disjoint(0, 1)
    # the rule, not a stored list: distinct regions of the cover with no overlap
    circ = circle_cover(40)
    assert circ.are_disjoint(0, 20) and circ.are_disjoint(39, 1)
    assert not circ.are_disjoint(0, 39) and not circ.are_disjoint(5, 5)
    assert not circ.are_disjoint(0, 40) and not circ.are_disjoint(-1, 7)


# ---------------------------------------------------------------------------
# nerve and spanning tree


def test_nerve_tree_counts():
    for name in ALL_BUILTINS:
        cov = make(name)
        nerve = build_nerve(cov)
        v, e = len(cov.regions), len(cov.overlaps)
        tree = set(cov.overlaps) - set(nerve.non_tree_edges)
        ups = {(min(s.src, s.dst), max(s.src, s.dst), s.comp) for s in nerve.parent.values() if s}
        assert len(tree) == v - 1 and tree == ups, name
        assert len(nerve.non_tree_edges) == e - (v - 1), name
        assert nerve.bfs_order[0] == cov.base_region


def test_nerve_deterministic():
    a = build_nerve(torus_cover())
    b = build_nerve(torus_cover())
    assert a.bfs_order == b.bfs_order
    assert a.non_tree_edges == b.non_tree_edges


def test_generator_loop_crosses_its_edge():
    cov = make("figure_eight")
    nerve = build_nerve(cov)
    for idx, (u, v, c) in enumerate(nerve.non_tree_edges):
        loop = generator_loop(nerve, idx)
        assert loop.is_loop and loop.start == cov.base_region
        crossings = [
            s for s in loop.steps if {s.src, s.dst} == {u, v} and s.comp == c
        ]
        assert len(crossings) == 1


# ---------------------------------------------------------------------------
# paths


def test_approximate_curve_basic():
    cov = annulus_cover()
    p = approximate_curve(cov, [0, 1, 2, 3, 0])
    assert p.start == 0 and p.end == 0 and p.is_loop
    assert len(p.steps) == 4


def test_approximate_curve_rejects_gap():
    cov = annulus_cover()
    with pytest.raises(InvalidPath):
        approximate_curve(cov, [0, 2])  # declared disjoint, no overlap
    with pytest.raises(InvalidPath):
        approximate_curve(cov, [])


def test_path_compose_and_reverse():
    cov = annulus_cover()
    p = approximate_curve(cov, [0, 1, 2])
    q = approximate_curve(cov, [2, 3, 0])
    pq = path_compose(p, q)
    assert pq.start == 0 and pq.end == 0 and len(pq.steps) == 4
    r = path_reverse(p)
    assert (r.start, r.end) == (2, 0)
    assert [s.dst for s in r.steps] == [1, 0]
    with pytest.raises(InvalidPath):
        path_compose(q, q)  # endpoints do not chain


def test_empty_path():
    p = empty_path(3)
    assert p.is_loop and p.steps == ()
    assert path_compose(p, p).steps == ()


def test_poset_path_validates_chaining():
    with pytest.raises(InvalidPath):
        PosetPath((Step(dst=1, src=0, comp=0), Step(dst=3, src=2, comp=0)), 0, 3)


# ---------------------------------------------------------------------------
# loop classes (the homotopy bookkeeping)


def test_loop_class_annulus_winding():
    cov = annulus_cover()
    pres = pi1_presentation(build_nerve(cov))
    wind1 = approximate_curve(cov, [0, 1, 2, 3, 0])
    assert loop_class(pres, wind1).letters == (1,)
    wind3 = approximate_curve(cov, [0, 1, 2, 3] * 3 + [0])
    assert loop_class(pres, wind3).letters == (1, 1, 1)
    back = approximate_curve(cov, [0, 3, 2, 1, 0])
    assert loop_class(pres, back).letters == (-1,)


def test_loop_class_invariant_under_decoration():
    # repeats and immediate backtracks do not change the class
    cov = annulus_cover()
    pres = pi1_presentation(build_nerve(cov))
    plain = approximate_curve(cov, [0, 1, 2, 3, 0])
    fancy = approximate_curve(cov, [0, 0, 1, 2, 1, 2, 2, 3, 0, 0])
    assert loop_class(pres, plain).letters == loop_class(pres, fancy).letters


def test_loop_class_figure_eight_commutator():
    cov = figure_eight_cover()
    pres = pi1_presentation(build_nerve(cov))
    seq = [0, 1, 2, 0, 3, 4, 0, 2, 1, 0, 4, 3, 0]
    word = loop_class(pres, approximate_curve(cov, seq))
    assert word.letters == (-2, -1, 2, 1)
    assert word.as_names() == "g1^-1.g0^-1.g1.g0"


def test_loop_class_tree_loop_is_trivial():
    cov = make("figure_eight")
    pres = pi1_presentation(build_nerve(cov))
    p = approximate_curve(cov, [0, 1, 0, 3, 0])  # out and back on tree edges
    assert loop_class(pres, p).letters == ()


def test_loop_class_open_path_uses_tree_closure():
    # an open tree path carries no surviving letters
    cov = annulus_cover()
    pres = pi1_presentation(build_nerve(cov))
    p = approximate_curve(cov, [0, 1, 2])
    assert loop_class(pres, p).letters == ()
    q = approximate_curve(cov, [0, 3, 2])
    assert loop_class(pres, q).letters == (-1,)


def test_generator_loop_class_is_single_letter():
    for name in ALL_BUILTINS:
        cov = make(name)
        nerve = build_nerve(cov)
        pres = pi1_presentation(nerve)
        for idx in range(len(nerve.non_tree_edges)):
            word = loop_class(pres, generator_loop(nerve, idx))
            assert word.letters == (idx + 1,), name


# ---------------------------------------------------------------------------
# homology helpers


def test_relation_matrix_disk():
    pres = pi1_presentation(build_nerve(disk_cover()))
    assert relation_matrix(pres) == [[1]] or relation_matrix(pres) == [[-1]]


def test_free_h1_kills_relations():
    pres = pi1_presentation(build_nerve(torus_cover()))
    rows = relation_matrix(pres)
    coords = free_h1_coordinates(pres)
    assert len(coords) == 2
    for rel in rows:
        for c in coords:
            assert sum(r * x for r, x in zip(rel, c)) == 0


def test_free_h1_free_cover_is_identity_basis():
    pres = pi1_presentation(build_nerve(figure_eight_cover()))
    assert free_h1_coordinates(pres) == [[1, 0], [0, 1]]


def test_torus_two_cycle_closes():
    cov = torus_cover()
    cycles = closed_triangle_cycles(cov)
    assert len(cycles) == 1
    cyc = cycles[0]
    assert set(cyc) == set(cov.triples)
    # boundary check: every edge appears with signed coefficient sum zero
    edge_sum = {e: 0 for e in cov.overlaps}
    for (r1, r2, r3, (c12, c13, c23)), coeff in cyc.items():
        edge_sum[(r1, r2, c12)] += coeff
        edge_sum[(r2, r3, c23)] += coeff
        edge_sum[(r1, r3, c13)] -= coeff
    assert all(v == 0 for v in edge_sum.values())


def test_disk_has_no_closed_two_cycle():
    assert closed_triangle_cycles(disk_cover()) == []


# ---------------------------------------------------------------------------
# neighbors


def test_neighbors_sorted():
    cov = torus_cover()
    for r in cov.regions:
        nbrs = cov.neighbors(r)
        assert list(nbrs) == sorted(nbrs)
        assert r not in nbrs


def test_overlap_components_symmetric():
    cov = Cover(regions=(0, 1), overlaps=((0, 1, 0), (0, 1, 1)))
    assert cov.overlap_components(0, 1) == cov.overlap_components(1, 0) == (0, 1)
    assert cov.overlap_components(0, 0) == ()


# ---------------------------------------------------------------------------
# lookup tables against linear scans of the cover data


def grid_torus_cover(k):
    """Explicit k x k grid torus: region i*k + j, three overlaps and two
    triangles per vertex."""
    rid = lambda i, j: (i % k) * k + (j % k)  # noqa: E731
    overlaps, faces = set(), set()
    for i in range(k):
        for j in range(k):
            a, right, down, diag = rid(i, j), rid(i, j + 1), rid(i + 1, j), rid(i + 1, j + 1)
            for b in (right, down, diag):
                overlaps.add((min(a, b), max(a, b), 0))
            faces.add(tuple(sorted((a, right, diag))))
            faces.add(tuple(sorted((a, down, diag))))
    return Cover(
        regions=tuple(range(k * k)),
        overlaps=tuple(sorted(overlaps)),
        triples=tuple((a, b, c, (0, 0, 0)) for (a, b, c) in sorted(faces)),
    )


def scan_components(cover, u, v):
    a, b = min(u, v), max(u, v)
    return tuple(c for (x, y, c) in cover.overlaps if (x, y) == (a, b))


def scan_neighbors(cover, r):
    out = {v for (u, v, _) in cover.overlaps if u == r}
    out |= {u for (u, v, _) in cover.overlaps if v == r}
    return tuple(sorted(out))


def scan_code(cover, step):
    """Signed overlap number of a step, by a scan of the overlaps: +k for
    crossing overlaps[k - 1] low to high, -k high to low, 0 in place."""
    if step.dst == step.src and step.comp is None and step.src in cover.regions:
        return 0
    for k, (u, v, c) in enumerate(cover.overlaps, 1):
        if c == step.comp and (step.src, step.dst) in ((u, v), (v, u)):
            return k if step.src == u else -k
    raise InvalidPath(f"step {step} crosses no overlap")


def scan_letter(nerve, step):
    k = scan_code(nerve.cover, step)
    if k == 0 or nerve.cover.overlaps[abs(k) - 1] not in nerve.non_tree_edges:
        return 0
    idx = nerve.non_tree_edges.index(nerve.cover.overlaps[abs(k) - 1]) + 1
    return idx if k > 0 else -idx


def assert_codes_match_scan(cover, steps):
    valid = []
    for step in steps:
        try:
            want = scan_code(cover, step)
        except InvalidPath:
            with pytest.raises(InvalidPath, match=re.escape(f"step {step} crosses no overlap")):
                cover.codes([step])
        else:
            assert cover.codes([step]) == [want]
            valid.append((step, want))
    assert cover.codes(s for s, _ in valid) == [want for _, want in valid]


covers = st.one_of(
    st.sampled_from(["annulus", "disk", "figure_eight", "torus"]).map(builtin_cover),
    st.integers(min_value=3, max_value=9).map(circle_cover),
    st.integers(min_value=3, max_value=6).map(grid_torus_cover),
    st.just(Cover(regions=(0, 1, 2), overlaps=((0, 1, 0), (0, 1, 2), (1, 2, 0)))),
)


@given(covers, st.data())
@settings(max_examples=80, deadline=None)
def test_lookup_tables_match_linear_scans(cover, data):
    for u in cover.regions:
        assert cover.neighbors(u) == scan_neighbors(cover, u)
        for v in cover.regions:
            assert cover.overlap_components(u, v) == scan_components(cover, u, v)
            assert cover.are_disjoint(u, v) == (u != v and not scan_components(cover, u, v))
        outside = max(cover.regions) + 1
        assert not cover.are_disjoint(u, outside) and not cover.are_disjoint(outside, u)

    nerve = build_nerve(cover)
    regions = st.sampled_from(cover.regions)
    crossing = st.sampled_from(cover.overlaps).flatmap(
        lambda e: st.sampled_from([Step(e[1], e[0], e[2]), Step(e[0], e[1], e[2])])
    )
    anything = st.builds(Step, regions, regions, st.none() | st.integers(0, 2))
    steps = data.draw(st.lists(crossing | anything, max_size=40))
    assert_codes_match_scan(cover, steps)
    # replace rebuilds the codes: one more component renumbers the overlaps
    (u, v, _) = cover.overlaps[0]
    extra = (u, v, 1 + max(c for (_, _, c) in cover.overlaps))
    grown = replace(cover, overlaps=cover.overlaps + (extra,))
    assert_codes_match_scan(grown, steps + [Step(v, u, extra[2]), Step(u, v, extra[2])])
    # slot -k of a transport table holds the bits ``inverse`` stores:
    # a phase table holds the angles, a matrix table the stacked matrices
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    phases = [PhaseU1(math.pi)] + [PhaseU1(a) for a in rng.uniform(-4, 4, len(cover.overlaps))]
    table = transport_table(PhaseU1(0.0), phases)
    assert table[-1] == math.pi  # -pi wraps back to pi
    gauss = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    mats = [MatrixUn(np.linalg.qr(z)[0]) for z in gauss]
    stack = transport_table(MatrixUn(np.eye(2)), mats)
    assert stack[-1].tobytes() == mats[0].mat.conj().T.tobytes()
    for k, g in enumerate(phases, 1):
        assert np.float64(table[k]).tobytes() == np.float64(g.angle).tobytes()
        assert np.float64(table[-k]).tobytes() == np.float64(inverse(g).angle).tobytes()
    for k, g in enumerate(mats, 1):
        assert stack[k].tobytes() == g.mat.tobytes()
        assert stack[-k].tobytes() == inverse(g).mat.tobytes()

    for step in steps:
        try:
            want = scan_letter(nerve, step)
        except InvalidPath:
            with pytest.raises(InvalidPath):
                cover.codes([step])
        else:
            assert nerve.letters[cover.codes([step])[0]] == want

    walk = [cover.base_region]
    for _ in range(data.draw(st.integers(0, 60))):
        walk.append(data.draw(st.sampled_from(scan_neighbors(cover, walk[-1]))))
    path = approximate_curve(cover, walk)
    for s, (u, v) in zip(path.steps, zip(walk, walk[1:])):
        assert s.comp == (None if u == v else min(scan_components(cover, u, v)))
    pres = pi1_presentation(nerve)
    letters = [scan_letter(nerve, s) for s in reversed(path.steps)]
    assert loop_class(pres, path).letters == pres.word([l for l in letters if l]).letters


@pytest.mark.parametrize("cover", [make(n) for n in ALL_BUILTINS] + [grid_torus_cover(4)])
def test_step_across_non_overlapping_pair_is_invalid(cover):
    nerve = build_nerve(cover)
    for u in cover.regions:
        for v in cover.regions:
            if u != v and not scan_components(cover, u, v):
                with pytest.raises(InvalidPath):
                    nerve.letters[cover.codes([Step(dst=v, src=u, comp=0)])[0]]
    missing = max(c for (_, _, c) in cover.overlaps) + 1
    (u, v, _) = cover.overlaps[0]
    with pytest.raises(InvalidPath):
        nerve.letters[cover.codes([Step(dst=v, src=u, comp=missing)])[0]]


def test_lookup_tables_ignored_by_equality_and_rebuilt_by_replace():
    ann = annulus_cover()
    assert ann == annulus_cover() == circle_cover(4)
    moved = replace(ann, base_region=2)
    assert moved.neighbors(2) == scan_neighbors(ann, 2)
    assert moved.overlap_components(3, 0) == (0,)
    assert moved.are_disjoint(2, 0)
    grown = replace(ann, overlaps=ann.overlaps + ((0, 2, 0),))
    assert grown.neighbors(0) == (1, 2, 3)
    assert grown.overlap_components(2, 0) == (0,)
    assert not grown.are_disjoint(0, 2) and grown.are_disjoint(1, 3)


# ---------------------------------------------------------------------------
# compact path storage


def stepwise_curve(cover, walk):
    """Steps of a visited-region walk, one Step per move."""
    return tuple(
        Step(dst=v, src=u, comp=None if u == v else min(scan_components(cover, u, v)))
        for u, v in zip(walk, walk[1:])
    )


def reference_generator_loop(nerve, index):
    """Tree out, cross, tree back, composed from checked Step chains."""
    (u, v, c) = nerve.non_tree_edges[index]
    out = PosetPath(nerve.tree_steps_from_base(u), nerve.base, u)
    cross = PosetPath((Step(dst=v, src=u, comp=c),), u, v)
    back = PosetPath(nerve.tree_steps_from_base(v), nerve.base, v)
    steps = out.steps + cross.steps
    steps += tuple(Step(dst=s.src, src=s.dst, comp=s.comp) for s in reversed(back.steps))
    return steps


@given(covers, st.data())
@settings(max_examples=80, deadline=None)
def test_compact_paths_behave_like_step_chains(cover, data):
    def walk(start):
        seq = [start]
        for _ in range(data.draw(st.integers(0, 30))):
            here = seq[-1]
            seq.append(data.draw(st.sampled_from((here,) + scan_neighbors(cover, here))))
        return seq

    w1 = walk(data.draw(st.sampled_from(cover.regions)))
    p = approximate_curve(cover, w1)
    steps = stepwise_curve(cover, w1)
    assert p.steps == steps and all(type(s) is Step for s in p.steps)
    assert p.regions == tuple(w1) and p.comps == tuple(s.comp for s in steps)
    assert (p.start, p.end, len(p), p.is_loop) == (w1[0], w1[-1], len(steps), w1[0] == w1[-1])
    assert PosetPath(steps, w1[0], w1[-1]) == p

    q = approximate_curve(cover, walk(w1[-1]))
    pq = path_compose(p, q)
    assert pq.steps == p.steps + q.steps
    assert (pq.start, pq.end, len(pq)) == (p.start, q.end, len(p) + len(q))
    r = path_reverse(p)
    assert r.steps == tuple(Step(dst=s.src, src=s.dst, comp=s.comp) for s in reversed(steps))
    assert (r.start, r.end) == (p.end, p.start)
    assert path_reverse(r) == p

    nerve = build_nerve(cover)
    for idx in range(len(nerve.non_tree_edges)):
        loop = generator_loop(nerve, idx)
        assert loop.steps == reference_generator_loop(nerve, idx)
        assert loop.is_loop and loop.start == nerve.base
        assert PosetPath(loop.steps, loop.start, loop.end) == loop


def test_generator_loops_keep_component_ids():
    # a ring whose overlaps carry distinct component ids, two of them doubled
    overlaps = ((0, 1, 3), (0, 1, 5), (1, 2, 2), (2, 3, 4), (3, 4, 1), (3, 4, 6), (0, 4, 7))
    nerve = build_nerve(Cover(regions=tuple(range(5)), overlaps=overlaps))
    assert len(nerve.non_tree_edges) == 3
    for idx in range(len(nerve.non_tree_edges)):
        loop = generator_loop(nerve, idx)
        assert loop.steps == reference_generator_loop(nerve, idx)
        assert len(set(loop.comps)) > 1


@pytest.mark.parametrize("cover", [make(n) for n in ALL_BUILTINS] + [grid_torus_cover(4)])
def test_compact_paths_still_reject_gaps_and_empty_walks(cover):
    with pytest.raises(InvalidPath, match="empty"):
        approximate_curve(cover, [])
    for u in cover.regions:
        for v in cover.regions:
            if u != v and not scan_components(cover, u, v):
                with pytest.raises(InvalidPath, match=f"regions {u} and {v} do not overlap"):
                    approximate_curve(cover, [u, u, v])
    with pytest.raises(InvalidPath, match="malformed"):
        PosetPath((Step(dst=1, src=1, comp=0),), 1, 1)
    with pytest.raises(InvalidPath, match="empty path"):
        PosetPath((), 0, 1)
