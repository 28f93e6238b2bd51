import numpy as np
import pytest

import flatnet.cocycles as cocycles_module
import flatnet.groups as groups_module
from flatnet.cocycles import (
    CocycleInconsistent,
    FlatPotentialU1,
    InvalidPotential,
    MissingGenerator,
    SigmaMorphism,
    TransitionCocycle,
    check_cocycle,
    dress_cocycle,
    holonomies,
    holonomy,
    identity_cocycle,
    lift_potential,
    lift_sum,
    transition_cocycle,
    trivialize,
    validate_sigma,
)
from flatnet.covers import (
    Cover,
    annulus_cover,
    approximate_curve,
    build_nerve,
    builtin_cover,
    circle_cover,
    disk_cover,
    figure_eight_cover,
    generator_loop,
    loop_class,
    path_compose,
    path_reverse,
    pi1_presentation,
    torus_cover,
)
from flatnet.groups import (
    FreeWord,
    MatrixUn,
    PhaseU1,
    VariantMismatch,
    compose,
    distance,
    inverse,
    is_identity,
    ordered_products,
    transport_table,
    _as_unitary_loose,
)
from homology import closed_triangle_cycles, free_h1_coordinates

NAN = float("nan")
ALL_BUILTINS = ["circle", "annulus", "disk", "figure_eight", "torus"]
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
I2 = np.eye(2)


def make(name):
    return builtin_cover(name, 5 if name == "circle" else None)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def tree_fold_lambdas(coc, nerve):
    """Independent lambdas: one ``ordered_products`` fold of every region's
    whole tree path from the base, in BFS order."""
    rows = [coc.cover.codes(nerve.tree_steps_from_base(r)) for r in nerve.bfs_order]
    return dict(zip(nerve.bfs_order, ordered_products(coc.identity, coc._table, rows)))


def assert_same_bits(got, want):
    assert list(got) == list(want)
    for r, g in got.items():
        w = want[r]
        if isinstance(g, MatrixUn):
            assert g.mat.tobytes() == w.mat.tobytes(), r
        else:
            assert np.float64(g.angle).tobytes() == np.float64(w.angle).tobytes(), r


def u1_sigma_from_h1(pres, alpha, beta=0.0):
    """Assignment factoring through free homology; always a valid morphism."""
    coords = free_h1_coordinates(pres)
    weights = ([alpha, beta] + [0.0] * len(coords))[: len(coords)]
    out = {}
    for i, name in enumerate(pres.generators):
        theta = sum(w * c[i] for w, c in zip(weights, coords))
        out[name] = PhaseU1(theta)
    return SigmaMorphism(out, PhaseU1(0.0))


# ---------------------------------------------------------------------------
# sigma validation


def test_validate_sigma_trivial_ok():
    for name in ALL_BUILTINS:
        pres = pi1_presentation(build_nerve(make(name)))
        sigma = SigmaMorphism(
            {g: PhaseU1(0.0) for g in pres.generators}, PhaseU1(0.0)
        )
        assert validate_sigma(pres, sigma) == []


def test_validate_sigma_torus_commuting_phases_ok():
    pres = pi1_presentation(build_nerve(torus_cover()))
    sigma = u1_sigma_from_h1(pres, 0.7, -1.3)
    assert validate_sigma(pres, sigma) == []


def test_validate_sigma_torus_noncommuting_matrices_fail():
    # factor the same homology classes through two non-commuting unitaries;
    # some triangle relation then sees the commutator and breaks loudly
    pres = pi1_presentation(build_nerve(torus_cover()))
    coords = free_h1_coordinates(pres)
    power = np.linalg.matrix_power  # exact here: the entries are 0, 1, -1, i and -i
    assignment = {
        name: MatrixUn(power(1j * SX, coords[0][i]) @ power(1j * SY, coords[1][i]))
        for i, name in enumerate(pres.generators)
    }
    sigma = SigmaMorphism(assignment, MatrixUn(I2))
    violations = validate_sigma(pres, sigma)
    assert violations
    assert max(r for _, r in violations) > 0.1


def test_validate_sigma_missing_generator():
    pres = pi1_presentation(build_nerve(annulus_cover()))
    with pytest.raises(MissingGenerator):
        validate_sigma(pres, SigmaMorphism({}, PhaseU1(0.0)))


def test_sigma_evaluate_word_order():
    # letters evaluate left to right: (-2,-1,2,1) -> s1^-1 s0^-1 s1 s0
    sigma = SigmaMorphism(
        {"g0": MatrixUn(1j * SX), "g1": MatrixUn(1j * SY)}, MatrixUn(I2)
    )
    word = FreeWord((-2, -1, 2, 1), ("g0", "g1"))
    got = sigma.evaluate(word)
    want = (
        np.conj(1j * SY).T @ np.conj(1j * SX).T @ (1j * SY) @ (1j * SX)
    )
    assert np.max(np.abs(got.mat - want)) < 1e-14
    assert np.max(np.abs(got.mat + I2)) < 1e-14  # the commutator is -1


# ---------------------------------------------------------------------------
# transition cocycles


def test_transition_cocycle_tree_identity_nontree_generator():
    cov = circle_cover(3)
    nerve = build_nerve(cov)
    sigma = SigmaMorphism({"g0": PhaseU1(0.9)}, PhaseU1(0.0))
    coc = transition_cocycle(sigma, nerve)
    for e in cov.overlaps:
        if e not in nerve.non_tree_edges:
            assert is_identity(coc.values[e])
        else:
            assert distance(coc.values[e], PhaseU1(0.9)) < 1e-15


def test_transition_cocycle_disk_forced_trivial():
    nerve = build_nerve(disk_cover())
    sigma = SigmaMorphism({"g0": PhaseU1(0.0)}, PhaseU1(0.0))
    coc = transition_cocycle(sigma, nerve)
    assert all(is_identity(v) for v in coc.values.values())


def test_cocycle_antisymmetry_accessor():
    cov = annulus_cover()
    nerve = build_nerve(cov)
    sigma = SigmaMorphism({"g0": PhaseU1(1.2)}, PhaseU1(0.0))
    coc = transition_cocycle(sigma, nerve)
    for (u, v, c) in cov.overlaps:
        assert is_identity(
            compose(coc.value(v, u, c), coc.value(u, v, c)), 1e-15
        )
    assert is_identity(coc.value(2, 2, None))


def test_check_cocycle_construction_is_lawful():
    for name in ALL_BUILTINS:
        cov = make(name)
        nerve = build_nerve(cov)
        pres = pi1_presentation(nerve)
        sigma = u1_sigma_from_h1(pres, 1.1, 0.4)
        chk = check_cocycle(transition_cocycle(sigma, nerve))
        assert chk.ok, name
        assert chk.max_residual <= 1e-12, name


def test_check_cocycle_locates_corruption():
    cov = torus_cover()
    nerve = build_nerve(cov)
    pres = pi1_presentation(nerve)
    sigma = u1_sigma_from_h1(pres, 0.8, 0.3)
    coc = transition_cocycle(sigma, nerve)
    bad_edge = cov.overlaps[0]
    values = dict(coc.values)
    values[bad_edge] = compose(values[bad_edge], PhaseU1(0.5))
    chk = check_cocycle(TransitionCocycle(cov, values, coc.identity))
    assert not chk.ok
    containing = {
        t
        for t in cov.triples
        if bad_edge
        in {(t[0], t[1], t[3][0]), (t[0], t[2], t[3][1]), (t[1], t[2], t[3][2])}
    }
    assert {t for t, _ in chk.failures} == containing


def test_check_cocycle_vacuous_without_triples():
    coc = identity_cocycle(annulus_cover(), PhaseU1(0.0))
    chk = check_cocycle(coc)
    assert chk.ok and chk.max_residual == 0.0


# ---------------------------------------------------------------------------
# trivialization


def test_trivialize_identity():
    cov = make("figure_eight")
    nerve = build_nerve(cov)
    res = trivialize(identity_cocycle(cov, PhaseU1(0.0)), nerve)
    assert res.success
    assert all(is_identity(v) for v in res.lambdas.values())


def test_trivialize_recovers_coboundary_u1():
    rng = np.random.default_rng(7)
    for name in ALL_BUILTINS:
        cov = make(name)
        nerve = build_nerve(cov)
        lam = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cov.regions}
        coc = dress_cocycle(identity_cocycle(cov, PhaseU1(0.0)), lam)
        res = trivialize(coc, nerve)
        assert res.success, name
        for (u, v, c) in cov.overlaps:
            want = coc.values[(u, v, c)]
            got = compose(res.lambdas[v], inverse(res.lambdas[u]))
            assert distance(got, want) <= 1e-10, name


def test_trivialize_recovers_coboundary_matrix():
    rng = np.random.default_rng(11)
    cov = torus_cover()
    nerve = build_nerve(cov)
    lam = {r: MatrixUn(random_unitary(rng, 2)) for r in cov.regions}
    coc = dress_cocycle(identity_cocycle(cov, MatrixUn(I2)), lam)
    res = trivialize(coc, nerve)
    assert res.success
    for (u, v, c) in cov.overlaps:
        got = compose(res.lambdas[v], inverse(res.lambdas[u]))
        assert distance(got, coc.values[(u, v, c)]) <= 1e-10


def test_trivialize_global_right_ambiguity():
    # recovered family differs from the seed family by one fixed right factor
    rng = np.random.default_rng(23)
    cov = annulus_cover()
    nerve = build_nerve(cov)
    lam = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cov.regions}
    coc = dress_cocycle(identity_cocycle(cov, PhaseU1(0.0)), lam)
    res = trivialize(coc, nerve)
    ks = [compose(inverse(lam[r]), res.lambdas[r]) for r in cov.regions]
    for k in ks[1:]:
        assert distance(k, ks[0]) <= 1e-10


def test_trivialize_witness_circle_pi():
    cov = circle_cover(3)
    nerve = build_nerve(cov)
    sigma = SigmaMorphism({"g0": PhaseU1(np.pi)}, PhaseU1(0.0))
    res = trivialize(transition_cocycle(sigma, nerve), nerve)
    assert not res.success
    w = res.witness
    assert w.edge in nerve.non_tree_edges
    assert distance(w.holonomy, PhaseU1(np.pi)) <= 1e-12
    assert w.loop.is_loop and w.residual > 1.0


@pytest.mark.parametrize("name", ["circle", "annulus", "figure_eight", "torus"])
def test_trivialize_witness_residual_is_the_compose_distance(name):
    # the non-tree edges are tested in one fold of two-slot rows; the
    # witness is the first edge whose distance to compose(lambda_v,
    # inverse(lambda_u)) passes the tolerance, with that distance's bits
    rng = np.random.default_rng(19)
    cov = make(name)
    nerve = build_nerve(cov)
    pres = pi1_presentation(nerve)
    phases = [u1_sigma_from_h1(pres, *rng.uniform(-3, 3, 2)).assignment for _ in range(3)]
    diagonal = {g: MatrixUn(np.diag([p[g].complex_value for p in phases])) for g in pres.generators}
    for sigma, gauge in [
        (SigmaMorphism(phases[0], PhaseU1(0.0)),
         {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cov.regions}),
        (SigmaMorphism(diagonal, MatrixUn(np.eye(3))),
         {r: MatrixUn(random_unitary(rng, 3)) for r in cov.regions}),
    ]:
        ident = sigma.identity
        coc = dress_cocycle(transition_cocycle(sigma, nerve), gauge)
        res = trivialize(coc, nerve)
        assert not res.success
        lam = {nerve.base: ident}
        for r in nerve.bfs_order[1:]:
            up = nerve.parent[r]
            lam[r] = compose(coc.value(up.dst, up.src, up.comp), lam[up.src])
        resid = [
            distance(coc.value(v, u, c), compose(lam[v], inverse(lam[u])))
            for u, v, c in nerve.non_tree_edges
        ]
        first = next(i for i, r in enumerate(resid) if not (r <= 1e-10))
        assert res.witness.edge == nerve.non_tree_edges[first]
        assert np.float64(res.witness.residual).tobytes() == np.float64(resid[first]).tobytes()


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_trivialize_lambdas_match_tree_walk_compose(name):
    # the walk lambda_r = g(r <- parent) lambda_parent, one compose per
    # tree edge, gives the bits of a fold over each whole tree path
    rng = np.random.default_rng(17)
    cov = make(name)
    nerve = build_nerve(cov)
    for ident, gauge in [
        (PhaseU1(0.0), {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cov.regions}),
        (MatrixUn(np.eye(3)), {r: MatrixUn(random_unitary(rng, 3)) for r in cov.regions}),
    ]:
        coc = dress_cocycle(identity_cocycle(cov, ident), gauge)
        res = trivialize(coc, nerve)
        assert res.success and list(res.lambdas) == list(nerve.bfs_order)
        assert_same_bits(res.lambdas, tree_fold_lambdas(coc, nerve))


class CountingFactors(np.ndarray):
    """A matrix transport table whose slots count the ``@`` products they
    take part in, on the list ``products``."""

    products: list = []

    def __matmul__(self, other):
        self.products.append(1)
        return np.asarray(self) @ other


class CountingAngle(float):
    """A phase transport table slot that counts the sums it takes part in,
    on the list ``products``."""

    products: list = []

    def __add__(self, other):
        self.products.append(1)
        return float(self) + other


@pytest.mark.parametrize("ident", [PhaseU1(0.0), MatrixUn(np.eye(2))], ids=["U1", "U2"])
def test_trivialize_takes_one_product_per_tree_edge(ident, monkeypatch):
    # a deep circle: folding each tree path from the base would take
    # about n^2 / 4 steps, the walk from each parent takes n - 1
    cov = circle_cover(400)
    nerve = build_nerve(cov)
    rng = np.random.default_rng(23)
    matrix = isinstance(ident, MatrixUn)
    if matrix:
        gauge = {r: MatrixUn(random_unitary(rng, 2)) for r in cov.regions}
    else:
        gauge = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cov.regions}
    coc = dress_cocycle(identity_cocycle(cov, ident), gauge)
    products, composes, folds, checks = [], [], [], []
    compose_any, fold = groups_module.compose, cocycles_module.products
    require = groups_module._require_unitary

    def any_step(a, b):
        composes.append(1)
        return compose_any(a, b)

    def fold_spy(identity, table, rows, later_left=True):
        folds.append(list(rows))
        return fold(identity, table, rows, later_left)

    def check_spy(mats):
        checks.append(mats.shape)
        return require(mats)

    # tree factors come from the cocycle's table; count the products they take
    if matrix:
        monkeypatch.setattr(CountingFactors, "products", products)
        monkeypatch.setitem(coc.__dict__, "_table", coc._table.view(CountingFactors))
    else:
        monkeypatch.setattr(CountingAngle, "products", products)
        monkeypatch.setitem(coc.__dict__, "_table", tuple(map(CountingAngle, coc._table)))
    monkeypatch.setattr(cocycles_module, "compose", any_step)
    monkeypatch.setattr(groups_module, "compose", any_step)
    monkeypatch.setattr(cocycles_module, "products", fold_spy)
    monkeypatch.setattr(groups_module, "_require_unitary", check_spy)
    res = trivialize(coc, nerve)
    monkeypatch.undo()
    assert res.success
    assert len(products) == len(cov.regions) - 1
    assert not composes  # no checked group value is composed on either layer
    # one stacked unitarity check per matrix fold: the triples (none here),
    # the lambdas and the edge products; none of the phases
    edges = len(nerve.non_tree_edges)
    assert checks == ([(0, 2, 2), (len(cov.regions), 2, 2), (edges, 2, 2)] if matrix else [])
    # no tree-path rows: the triples (none here) and the two-slot edge tests
    assert [len(rows) for rows in folds] == [0, edges]
    assert all(len(row) == 2 for row in folds[1])
    assert_same_bits(res.lambdas, tree_fold_lambdas(coc, nerve))


def test_trivialize_rejects_lawless_cocycle():
    cov = disk_cover()
    nerve = build_nerve(cov)
    values = {e: PhaseU1(0.0) for e in cov.overlaps}
    values[(0, 1, 0)] = PhaseU1(0.7)  # breaks the triple law
    with pytest.raises(CocycleInconsistent):
        trivialize(TransitionCocycle(cov, values, PhaseU1(0.0)), nerve)


def test_trivialize_succeeds_iff_sigma_trivial_on_generators():
    rng = np.random.default_rng(3)
    for name in ["circle", "annulus", "figure_eight", "torus"]:
        cov = make(name)
        nerve = build_nerve(cov)
        pres = pi1_presentation(nerve)
        trivial = u1_sigma_from_h1(pres, 0.0, 0.0)
        assert trivialize(transition_cocycle(trivial, nerve), nerve).success
        alpha = rng.uniform(0.3, np.pi - 0.3)
        twisted = u1_sigma_from_h1(pres, alpha, 0.0)
        assert not trivialize(transition_cocycle(twisted, nerve), nerve).success


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_generator_roundtrip():
    rng = np.random.default_rng(17)
    for name in ALL_BUILTINS:
        cov = make(name)
        nerve = build_nerve(cov)
        pres = pi1_presentation(nerve)
        sigma = u1_sigma_from_h1(pres, rng.uniform(-2, 2), rng.uniform(-2, 2))
        coc = transition_cocycle(sigma, nerve)
        for idx, gname in enumerate(pres.generators):
            loop = generator_loop(nerve, idx)
            assert (
                distance(holonomy(coc, loop), sigma.value(gname)) <= 1e-10
            ), name


def test_holonomy_annulus_winding_powers():
    cov = annulus_cover()
    nerve = build_nerve(cov)
    wind1 = approximate_curve(cov, [0, 1, 2, 3, 0])
    for theta in (np.pi / 7, np.pi / 2, 1.0):
        sigma = SigmaMorphism({"g0": PhaseU1(theta)}, PhaseU1(0.0))
        coc = transition_cocycle(sigma, nerve)
        loop = wind1
        for k in range(1, 4):
            assert distance(holonomy(coc, loop), PhaseU1(k * theta)) <= 1e-10
            back = path_reverse(loop)
            assert distance(holonomy(coc, back), PhaseU1(-k * theta)) <= 1e-10
            loop = path_compose(loop, wind1)


def test_holonomy_trivial_loop_identity():
    cov = annulus_cover()
    nerve = build_nerve(cov)
    sigma = SigmaMorphism({"g0": PhaseU1(2.2)}, PhaseU1(0.0))
    coc = transition_cocycle(sigma, nerve)
    p = approximate_curve(cov, [0, 1, 0])
    assert is_identity(holonomy(coc, p))


def test_holonomy_matches_word_evaluation_matrix():
    cov = figure_eight_cover()
    nerve = build_nerve(cov)
    pres = pi1_presentation(nerve)
    sigma = SigmaMorphism(
        {"g0": MatrixUn(1j * SX), "g1": MatrixUn(1j * SY)}, MatrixUn(I2)
    )
    coc = transition_cocycle(sigma, nerve)
    seq = [0, 1, 2, 0, 3, 4, 0, 2, 1, 0, 4, 3, 0]
    loop = approximate_curve(cov, seq)
    hol = holonomy(coc, loop)
    word = loop_class(pres, loop)
    assert distance(hol, sigma.evaluate(word)) <= 1e-12
    assert distance(hol, MatrixUn(I2)) > 0.1  # non-Abelian obstruction


def test_matrix_holonomy_and_evaluate_match_stepwise_compose():
    # the fold keeps each caller's association order: transport puts later
    # steps on the left, word evaluation folds letters left to right
    rng = np.random.default_rng(41)
    cov = torus_cover()
    nerve = build_nerve(cov)
    pres = pi1_presentation(nerve)
    ident = MatrixUn(np.eye(3))
    sigma = SigmaMorphism(
        {g: MatrixUn(random_unitary(rng, 3)) for g in pres.generators}, ident
    )
    coc = transition_cocycle(sigma, nerve)
    for _ in range(10):
        seq = [cov.base_region]
        for _ in range(40):
            nbrs = cov.neighbors(seq[-1])
            seq.append(seq[-1] if rng.random() < 0.2 else int(rng.choice(nbrs)))
        path = approximate_curve(cov, seq)
        acc = ident
        for st in path.steps:
            acc = compose(coc.value(st.dst, st.src, st.comp), acc)
        assert np.array_equal(holonomy(coc, path).mat, acc.mat)
        word = loop_class(pres, path)
        acc = ident
        for l in word.letters:
            v = sigma.value(word.alphabet[abs(l) - 1])
            acc = compose(acc, v if l > 0 else inverse(v))
        assert np.array_equal(sigma.evaluate(word).mat, acc.mat)


# ---------------------------------------------------------------------------
# potentials


def test_lift_potential_identity():
    cov = disk_cover()
    nerve = build_nerve(cov)
    pot = lift_potential(identity_cocycle(cov, PhaseU1(0.0)), nerve)
    assert all(a == 0.0 for a in pot.angles.values())
    assert all(n == 0 for n in pot.triangle_integers().values())
    assert pot.primitives is not None


def test_lift_principal_branch():
    cov = annulus_cover()
    nerve = build_nerve(cov)
    sigma = SigmaMorphism({"g0": PhaseU1(np.pi / 3)}, PhaseU1(0.0))
    pot = lift_potential(transition_cocycle(sigma, nerve), nerve)
    nongens = [a for a in pot.angles.values() if a != 0.0]
    assert nongens == [pytest.approx(np.pi / 3)]
    assert pot.primitives is None  # obstructed, no global primitives


def test_lift_antisymmetry():
    cov = annulus_cover()
    nerve = build_nerve(cov)
    sigma = SigmaMorphism({"g0": PhaseU1(0.8)}, PhaseU1(0.0))
    pot = lift_potential(transition_cocycle(sigma, nerve), nerve)
    for (u, v, c) in cov.overlaps:
        assert pot.lift(v, u, c) == -pot.lift(u, v, c)
    assert pot.lift(0, 0, None) == 0.0


def test_relifting_shifts_triangle_integers():
    cov = disk_cover()
    nerve = build_nerve(cov)
    pot = lift_potential(identity_cocycle(cov, PhaseU1(0.0)), nerve)
    shifted = dict(pot.angles)
    shifted[(0, 1, 0)] += 2 * np.pi
    pot2 = FlatPotentialU1(cover=cov, angles=shifted)
    n1 = pot.triangle_integers()
    n2 = pot2.triangle_integers()
    (t,) = cov.triples
    assert abs(n2[t] - n1[t]) == 1


def test_potential_rejects_non_integer_triangles():
    cov = disk_cover()
    angles = {e: 0.0 for e in cov.overlaps}
    angles[(0, 1, 0)] = 0.4
    with pytest.raises(InvalidPotential):
        FlatPotentialU1(cover=cov, angles=angles)


def test_potential_rejects_inconsistent_primitives():
    cov = annulus_cover()
    angles = {e: 0.0 for e in cov.overlaps}
    with pytest.raises(InvalidPotential):
        FlatPotentialU1(
            cover=cov, angles=angles, primitives={0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}
        )


def test_potential_holonomy_matches_cocycle():
    rng = np.random.default_rng(29)
    for name in ALL_BUILTINS:
        cov = make(name)
        nerve = build_nerve(cov)
        pres = pi1_presentation(nerve)
        sigma = u1_sigma_from_h1(pres, rng.uniform(-2, 2), rng.uniform(-2, 2))
        coc = transition_cocycle(sigma, nerve)
        pot = lift_potential(coc, nerve)
        for _ in range(100):
            cur = cov.base_region
            visited = [cur]
            for _ in range(int(rng.integers(2, 8))):
                nbrs = cov.neighbors(cur)
                cur = int(nbrs[int(rng.integers(0, len(nbrs)))])
                visited.append(cur)
            p = approximate_curve(cov, visited)
            assert distance(PhaseU1(lift_sum(pot, p)), holonomy(coc, p)) <= 1e-10, name


def test_lift_sum_winding():
    cov = annulus_cover()
    nerve = build_nerve(cov)
    sigma = SigmaMorphism({"g0": PhaseU1(np.pi / 2)}, PhaseU1(0.0))
    pot = lift_potential(transition_cocycle(sigma, nerve), nerve)
    wind1 = approximate_curve(cov, [0, 1, 2, 3, 0])
    wind3 = approximate_curve(cov, [0, 1, 2, 3] * 3 + [0])
    assert lift_sum(pot, wind3) == pytest.approx(3 * lift_sum(pot, wind1))
    assert lift_sum(pot, wind1) == pytest.approx(np.pi / 2)
    # the unwrapped sums differ even though wrapped holonomies may not
    assert lift_sum(pot, wind3) == pytest.approx(3 * np.pi / 2)


def test_lift_potential_rejects_matrices():
    cov = figure_eight_cover()
    nerve = build_nerve(cov)
    coc = identity_cocycle(cov, MatrixUn(I2))
    with pytest.raises(VariantMismatch):
        lift_potential(coc, nerve)


def test_two_cycle_integer_sum_is_dressing_invariant():
    # pair the triangle integers with the torus fundamental 2-cycle; the
    # pairing must not move under coboundary dressing of the same cocycle
    rng = np.random.default_rng(41)
    cov = torus_cover()
    nerve = build_nerve(cov)
    pres = pi1_presentation(nerve)
    sigma = u1_sigma_from_h1(pres, 2.0, -1.4)
    coc = transition_cocycle(sigma, nerve)
    (cycle,) = closed_triangle_cycles(cov)

    def pairing(c):
        pot = lift_potential(c, nerve)
        ints = pot.triangle_integers()
        return sum(cycle[t] * ints[t] for t in cov.triples)

    base = pairing(coc)
    for _ in range(5):
        lam = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cov.regions}
        assert pairing(dress_cocycle(coc, lam)) == base


def test_two_cycle_integer_sum_rerooting_invariant():
    cov = torus_cover()
    pres = pi1_presentation(build_nerve(cov))
    sigma = u1_sigma_from_h1(pres, 2.0, -1.4)
    (cycle,) = closed_triangle_cycles(cov)
    sums = []
    for base in cov.regions:
        cov2 = builtin_cover("torus")
        cov2 = type(cov2)(
            regions=cov2.regions,
            overlaps=cov2.overlaps,
            triples=cov2.triples,
            base_region=base,
        )
        nerve2 = build_nerve(cov2)
        pres2 = pi1_presentation(nerve2)
        sigma2 = u1_sigma_from_h1(pres2, 2.0, -1.4)
        pot = lift_potential(transition_cocycle(sigma2, nerve2), nerve2)
        ints = pot.triangle_integers()
        sums.append(sum(cycle[t] * ints[t] for t in cov.triples))
    assert len(set(sums)) == 1


# ---------------------------------------------------------------------------
# NaN residuals and tolerances fail closed


def test_validate_sigma_nan_fails_closed():
    pres = pi1_presentation(build_nerve(torus_cover()))
    sigma = u1_sigma_from_h1(pres, 0.7, -1.3)
    assert validate_sigma(pres, sigma) == []
    assert len(validate_sigma(pres, sigma, tol=NAN)) == len(pres.relations)
    bad = dict(sigma.assignment)
    bad[pres.generators[0]] = PhaseU1(NAN)
    assert validate_sigma(pres, SigmaMorphism(bad, PhaseU1(0.0)))


def test_check_cocycle_nan_fails_closed():
    cov = disk_cover()
    coc = identity_cocycle(cov, PhaseU1(0.0))
    assert check_cocycle(coc).ok
    assert not check_cocycle(coc, tol=NAN).ok
    values = dict(coc.values)
    values[(0, 1, 0)] = PhaseU1(NAN)
    assert not check_cocycle(TransitionCocycle(cov, values, PhaseU1(0.0))).ok


def test_trivialize_nan_fails_closed():
    cov = circle_cover(4)  # no triples, so the triple-law precheck is vacuous
    nerve = build_nerve(cov)
    coc = identity_cocycle(cov, PhaseU1(0.0))
    assert trivialize(coc, nerve).success
    assert not trivialize(coc, nerve, tol=NAN).success
    values = dict(coc.values)
    values[nerve.non_tree_edges[0]] = PhaseU1(NAN)
    res = trivialize(TransitionCocycle(cov, values, PhaseU1(0.0)), nerve)
    assert not res.success
    assert res.witness.edge == nerve.non_tree_edges[0]


def test_unitary_checks_nan_fail_closed():
    # the U(2) counterpart of the phase tests above: the stacked residuals
    # of relations, triples and non-tree edges keep NaN and fail it
    nerve = build_nerve(torus_cover())
    pres = pi1_presentation(nerve)
    ident = MatrixUn(I2)
    sigma = SigmaMorphism({g: MatrixUn(np.diag([p.complex_value, 1.0]))
                           for g, p in u1_sigma_from_h1(pres, 0.7, -1.3).assignment.items()},
                          ident)
    assert validate_sigma(pres, sigma) == []
    assert [w for w, _ in validate_sigma(pres, sigma, tol=NAN)] == list(pres.relations)
    coc = transition_cocycle(sigma, nerve)
    cov = coc.cover
    assert check_cocycle(coc).ok
    assert [t for t, _ in check_cocycle(coc, tol=NAN).failures] == list(cov.triples)
    # an overlap that is only ever the long edge r1 -> r3 of a triple
    # enters no product, so its NaN reaches the residual stack unchecked
    long_only = (0, 5, 0)
    assert long_only in cov.overlaps and all(long_only not in ((r1, r2, a), (r2, r3, b)) for r1, r2, r3, (a, _, b) in cov.triples)
    values = {**coc.values, long_only: _as_unitary_loose(np.full((2, 2), NAN))}
    chk = check_cocycle(TransitionCocycle(cov, values, ident))
    assert not chk.ok and np.isnan(chk.max_residual)
    assert [t[:3] for t, _ in chk.failures] == [t[:3] for t in cov.triples if (t[0], t[2]) == (0, 5)]
    ring = circle_cover(4)  # no triples: the edge test alone sees the NaN
    ring_nerve = build_nerve(ring)
    ring_values = {e: ident for e in ring.overlaps}
    ring_values[ring_nerve.non_tree_edges[0]] = _as_unitary_loose(np.full((2, 2), NAN))
    # the edge fails, and the witness holonomy through it is no unitary
    with pytest.raises(ValueError, match="not unitary: max .* = nan"):
        trivialize(TransitionCocycle(ring, ring_values, ident), ring_nerve)


def test_potential_rejects_non_finite_lifts_and_primitives():
    cov = disk_cover()
    angles = {e: 0.0 for e in cov.overlaps}
    FlatPotentialU1(cover=cov, angles=angles)
    for bad in (NAN, float("inf")):
        with pytest.raises(InvalidPotential, match="not finite"):
            FlatPotentialU1(cover=cov, angles={**angles, (0, 1, 0): bad})
    ann = annulus_cover()
    zero = {e: 0.0 for e in ann.overlaps}
    FlatPotentialU1(cover=ann, angles=zero, primitives={r: 0.0 for r in ann.regions})
    with pytest.raises(InvalidPotential, match="primitives"):
        FlatPotentialU1(
            cover=ann, angles=zero, primitives={0: 0.0, 1: NAN, 2: 0.0, 3: 0.0}
        )


def test_check_cocycle_max_residual_keeps_nan():
    cov = torus_cover()
    coc = identity_cocycle(cov, PhaseU1(0.0))
    last = cov.triples[-1]
    r1, r3, c13 = last[0], last[2], last[3][1]
    values = dict(coc.values)
    values[(min(r1, r3), max(r1, r3), c13)] = PhaseU1(NAN)
    chk = check_cocycle(TransitionCocycle(cov, values, PhaseU1(0.0)))
    assert not chk.ok
    assert np.isnan(chk.max_residual)


def test_variant_uniformity_builds_no_products(monkeypatch):
    cov = figure_eight_cover()
    nerve = build_nerve(cov)
    built = []
    check = MatrixUn.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    sx = MatrixUn(np.array([[0, 1], [1, 0]], dtype=complex))
    monkeypatch.setattr(MatrixUn, "__post_init__", counting)
    sigma = SigmaMorphism({"g0": sx, "g1": sx}, MatrixUn(I2))
    identity = built.pop()
    TransitionCocycle(cov, {e: sx for e in cov.overlaps}, identity)
    assert built == []  # no product was formed and unitarity-checked
    coc = transition_cocycle(sigma, nerve)
    assert coc.values
    for bad in (MatrixUn(np.eye(3)), PhaseU1(0.0)):
        with pytest.raises(VariantMismatch):
            SigmaMorphism({"g0": sx, "g1": bad}, MatrixUn(I2))
        with pytest.raises(VariantMismatch):
            TransitionCocycle(cov, {**coc.values, cov.overlaps[0]: bad}, MatrixUn(I2))
    with pytest.raises(VariantMismatch):
        SigmaMorphism({"g0": FreeWord((1,), ("a",))}, FreeWord((), ("b",)))


@pytest.mark.parametrize("ident", [PhaseU1(0.0), MatrixUn(np.eye(2))], ids=["U1", "U2"])
def test_construction_checks_each_value_once(ident, monkeypatch):
    # the transport table built at construction is the one variant check:
    # one _shape call per value (and one for the identity), none when the
    # table is read
    cov = grid_torus(3)
    nerve = build_nerve(cov)
    pres = pi1_presentation(nerve)
    rng = np.random.default_rng(31)
    if isinstance(ident, MatrixUn):
        draw = lambda: MatrixUn(random_unitary(rng, 2))  # noqa: E731
    else:
        draw = lambda: PhaseU1(rng.uniform(-np.pi, np.pi))  # noqa: E731
    assignment = {g: draw() for g in pres.generators}
    values = {e: draw() for e in cov.overlaps}
    shape, calls = groups_module._shape, []

    def spy(v):
        calls.append(v)
        return shape(v)

    monkeypatch.setattr(groups_module, "_shape", spy)
    sigma = SigmaMorphism(assignment, ident)
    assert len(calls) == len(assignment) + 1
    coc = TransitionCocycle(cov, values, ident)
    assert len(calls) == len(assignment) + len(values) + 2
    calls.clear()
    sigma.evaluate_all(pres.relations)
    validate_sigma(pres, sigma, tol=-1.0)
    holonomies(coc, [generator_loop(nerve, i) for i in range(len(pres.generators))])
    check_cocycle(coc)
    monkeypatch.undo()
    assert calls == []


def test_free_words_are_loop_classes_not_transport_values():
    # transport values are U(1) or U(n); a word identity is refused, by name, where
    # a word table or fold would have been built: morphisms and cocycles build
    # their tables at construction
    one, g = FreeWord((), ("g0",)), FreeWord((1,), ("g0",))
    named = r"U\(1\) or U\(n\), not FreeWord"
    with pytest.raises(VariantMismatch, match=named):
        transport_table(one, [g])
    with pytest.raises(VariantMismatch, match=named):
        ordered_products(one, (one, g, g), [[1, -1]])
    with pytest.raises(VariantMismatch, match=named):
        SigmaMorphism({"g0": g}, one)
    with pytest.raises(VariantMismatch, match=named):
        identity_cocycle(disk_cover(), one)


# ---------------------------------------------------------------------------
# batched folds over the transport table


def grid_torus(k):
    """Explicit k x k grid torus: region i*k + j, right, down and diagonal
    overlaps, two triangles per vertex."""
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


BATCH_COVERS = {f"{n}{len(make(n).regions)}": make(n) for n in ALL_BUILTINS}
BATCH_COVERS["custom16"] = grid_torus(4)


def random_walks(rng, cov, count):
    """Walks of uneven length from random regions, with reflexive steps,
    plus one single-region path."""
    walks = [[cov.regions[0]]]
    for _ in range(count):
        seq = [int(rng.choice(cov.regions))]
        for _ in range(int(rng.integers(0, 50))):
            nbrs = cov.neighbors(seq[-1])
            seq.append(seq[-1] if rng.random() < 0.2 else int(rng.choice(nbrs)))
        walks.append(seq)
    return [approximate_curve(cov, w) for w in walks]


@pytest.mark.parametrize("cov", BATCH_COVERS.values(), ids=list(BATCH_COVERS))
@pytest.mark.parametrize("dim", [None, 1, 3])
def test_holonomies_match_per_path_holonomy(cov, dim):
    rng = np.random.default_rng(len(cov.regions) * 10 + (dim or 0))
    if dim is None:
        ident = PhaseU1(0.0)
        values = {e: PhaseU1(float(rng.uniform(-4, 4))) for e in cov.overlaps}
    else:
        ident = MatrixUn(np.eye(dim))
        values = {e: MatrixUn(random_unitary(rng, dim)) for e in cov.overlaps}
    coc = TransitionCocycle(cov, values, ident)
    nerve = build_nerve(cov)
    paths = random_walks(rng, cov, 12)
    paths += [generator_loop(nerve, i) for i in range(len(nerve.non_tree_edges))]
    batch = holonomies(coc, paths)
    assert len(batch) == len(paths)
    for path, value in zip(paths, batch):
        single = holonomy(coc, path)
        acc = ident
        for st in path.steps:
            acc = compose(coc.value(st.dst, st.src, st.comp), acc)
        if dim is None:
            assert value.angle == single.angle == acc.angle
        else:
            assert np.array_equal(value.mat, single.mat)
            assert np.array_equal(value.mat, acc.mat)


@pytest.mark.parametrize("cov", BATCH_COVERS.values(), ids=list(BATCH_COVERS))
@pytest.mark.parametrize("dim", [None, 2, 3])
def test_batched_check_cocycle_residuals_match_per_triple_distance(cov, dim):
    rng = np.random.default_rng(len(cov.regions) + (dim or 0))
    if dim is None:
        ident = PhaseU1(0.0)
        values = {e: PhaseU1(float(rng.uniform(-4, 4))) for e in cov.overlaps}
    else:
        ident = MatrixUn(np.eye(dim))
        values = {e: MatrixUn(random_unitary(rng, dim)) for e in cov.overlaps}
    coc = TransitionCocycle(cov, values, ident)
    expected = [
        distance(compose(coc.value(r3, r2, c23), coc.value(r2, r1, c12)), coc.value(r3, r1, c13))
        for (r1, r2, r3, (c12, c13, c23)) in cov.triples
    ]
    chk = check_cocycle(coc, tol=-1.0)  # every triple fails, so every residual is listed
    assert [t for t, _ in chk.failures] == list(cov.triples)
    assert [r for _, r in chk.failures] == expected
    assert all(type(r) is float for _, r in chk.failures)
    assert chk.max_residual == max(expected, default=0.0)


@pytest.mark.parametrize("bad", ["drift", "nan"])
def test_batched_check_cocycle_raises_on_one_non_unitary_product(bad):
    cov = grid_torus(4)
    rng = np.random.default_rng(8)
    ident = MatrixUn(np.eye(3))
    values = {e: MatrixUn(random_unitary(rng, 3)) for e in cov.overlaps}
    assert check_cocycle(TransitionCocycle(cov, values, ident), tol=10.0).ok
    if bad == "nan":
        broken = _as_unitary_loose(np.full((3, 3), np.nan))
    else:
        broken = _as_unitary_loose(np.eye(3) * (1.0 + 1e-9))
    r1, r2, _, (c12, _, _) = cov.triples[len(cov.triples) // 2]
    values[(r1, r2, c12)] = broken
    with pytest.raises(ValueError, match="not unitary"):
        check_cocycle(TransitionCocycle(cov, values, ident), tol=10.0)


def test_holonomies_are_read_only_and_unshared():
    cov = grid_torus(4)
    rng = np.random.default_rng(12)
    ident = MatrixUn(np.eye(3))
    values = {e: MatrixUn(random_unitary(rng, 3)) for e in cov.overlaps}
    coc = TransitionCocycle(cov, values, ident)
    paths = random_walks(rng, cov, 8)
    paths += paths[:3]  # repeated paths have bit-equal holonomies
    mats = [v.mat for v in holonomies(coc, paths)]
    for i, m in enumerate(mats):
        assert not m.flags.writeable and not np.shares_memory(m, coc._table)
        assert not any(np.shares_memory(m, other) for other in mats[i + 1 :])


def test_check_then_trivialize_folds_the_triples_once(monkeypatch):
    cov = grid_torus(4)
    rng = np.random.default_rng(13)
    ident = MatrixUn(np.eye(2))
    gauge = {r: MatrixUn(random_unitary(rng, 2)) for r in cov.regions}
    coc = dress_cocycle(identity_cocycle(cov, ident), gauge)  # a coboundary
    fold = cocycles_module.products
    folds = []

    def spy(identity, table, rows, later_left=True):
        folds.append(list(rows))
        return fold(identity, table, rows, later_left)

    monkeypatch.setattr(cocycles_module, "products", spy)
    assert check_cocycle(coc).ok
    nerve = build_nerve(cov)
    res = trivialize(coc, nerve)
    monkeypatch.undo()
    assert res.success
    # one stacked fold of the triples (shared by both) and one of the
    # non-tree edge tests; the lambdas walk the tree one product per edge
    assert [len(rows) for rows in folds] == [len(cov.triples), len(nerve.non_tree_edges)]
    assert all(len(row) == 2 for row in folds[0] + folds[1])
    assert_same_bits(res.lambdas, tree_fold_lambdas(coc, nerve))
    # the shared residuals are tolerance-free: a loose check does not let
    # a broken triple law through a tight trivialize
    values = dict(coc.values)
    values[cov.overlaps[0]] = compose(values[cov.overlaps[0]], MatrixUn(np.diag([1j, 1.0])))
    broken = TransitionCocycle(cov, values, ident)
    assert check_cocycle(broken, tol=10.0).ok
    with pytest.raises(CocycleInconsistent):
        trivialize(broken, build_nerve(cov))


def pairwise_gaps(pres, sigmas, coc, nerve, dist=distance):
    """The residuals of the relation, triple-law and non-tree-edge checks
    as one ``dist`` call per pair, in the argument order each check uses:
    (value, identity), (g(r3<-r2) g(r2<-r1), g(r3<-r1)) and
    (g(v<-u), lambda_v lambda_u^-1), lambda composed down the tree."""
    ident = coc.identity
    rel = [[dist(val, ident) for val in s.evaluate_all(pres.relations)] for s in sigmas]
    triple = [
        dist(compose(coc.value(r3, r2, c23), coc.value(r2, r1, c12)), coc.value(r3, r1, c13))
        for (r1, r2, r3, (c12, c13, c23)) in coc.cover.triples
    ]
    lam = {nerve.base: ident}
    for r in nerve.bfs_order[1:]:
        up = nerve.parent[r]
        lam[r] = compose(coc.value(up.dst, up.src, up.comp), lam[up.src])
    edge = [
        dist(coc.value(v, u, c), compose(lam[v], inverse(lam[u])))
        for u, v, c in nerve.non_tree_edges
    ]
    return rel, triple, edge


def bits(xs):
    return np.array(xs, dtype=float).tobytes()


def assert_checks_match_pairwise_gaps(pres, sigmas, coc, nerve, tols, monkeypatch):
    """validate_sigma, check_cocycle and trivialize (at each of ``tols``)
    compare folds, not pairs: no ``distance``, ``inverse`` or checked
    ``MatrixUn`` construction runs, and every residual has the bits of
    ``pairwise_gaps``.  Returns the first failing edge at each tolerance."""
    rel_want, triple_want, edge_want = pairwise_gaps(pres, sigmas, coc, nerve)
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(groups_module, "distance", spy("distance", groups_module.distance))
    for module in (cocycles_module, groups_module):
        monkeypatch.setattr(module, "inverse", spy("inverse", module.inverse))
    monkeypatch.setattr(MatrixUn, "__post_init__", spy("MatrixUn", MatrixUn.__post_init__))
    rel_got = [[r for _, r in validate_sigma(pres, s, tol=-1.0)] for s in sigmas]
    chk = check_cocycle(coc, tol=-1.0)
    witnesses = [trivialize(coc, nerve, tol).witness for tol in tols]
    monkeypatch.undo()
    assert calls == []

    assert all(type(r) is float for rs in rel_got for r in rs)
    assert [bits(rs) for rs in rel_got] == [bits(rs) for rs in rel_want]
    assert [t for t, _ in chk.failures] == list(coc.cover.triples)
    assert bits([r for _, r in chk.failures]) == bits(triple_want)
    firsts = []
    for tol, w in zip(tols, witnesses):
        first = next(i for i, r in enumerate(edge_want) if not (r <= tol))
        assert w.edge == nerve.non_tree_edges[first]
        assert type(w.residual) is float and bits([w.residual]) == bits([edge_want[first]])
        firsts.append(first)
    return firsts


def edge_tolerances(triple_law, edges):
    """Every tolerance between the triple law's noise and the largest edge
    residual: each names a different first failing edge."""
    return sorted({r for r in edges if r >= max(triple_law)})[:-1]


def test_unitary_checks_compare_stacks_not_pairs(monkeypatch):
    # U(n) relations, triples and non-tree edges are compared as stacks:
    # no per-pair distance, inverse or checked MatrixUn construction, and
    # every residual has the bits of the per-pair distance
    rng = np.random.default_rng(29)
    cov = grid_torus(4)
    nerve = build_nerve(cov)
    pres = pi1_presentation(nerve)
    basis = random_unitary(rng, 3)
    phases = [u1_sigma_from_h1(pres, *rng.uniform(-3, 3, 2)).assignment for _ in range(3)]
    commuting = {  # a morphism with non-trivial holonomy
        g: MatrixUn((basis * [p[g].complex_value for p in phases]) @ basis.conj().T)
        for g in pres.generators
    }
    ident = MatrixUn(np.eye(3))
    gauge = {r: MatrixUn(random_unitary(rng, 3)) for r in cov.regions}
    coc = dress_cocycle(transition_cocycle(SigmaMorphism(commuting, ident), nerve), gauge)
    noisy = {g: MatrixUn(random_unitary(rng, 3)) for g in pres.generators}  # breaks relations
    sigmas = [SigmaMorphism(commuting, ident), SigmaMorphism(noisy, ident)]
    rel_want, triple_want, edge_want = pairwise_gaps(pres, sigmas, coc, nerve)
    tols = edge_tolerances(triple_want, edge_want)
    assert len(tols) > 3
    assert max(rel_want[0]) <= 1e-10 < min(rel_want[1])
    assert_checks_match_pairwise_gaps(pres, sigmas, coc, nerve, tols, monkeypatch)

    # U(1): the angle lists are compared the same way, and the argument order
    # of each check is kept, since |wrap(a - b)| and |wrap(b - a)| can differ
    # in the last bit once a - b leaves (-pi, pi] (the order of a relation
    # value and the identity 0.0 gives the same bits either way)
    rng = np.random.default_rng(0)
    ident = PhaseU1(0.0)
    valid = u1_sigma_from_h1(pres, *rng.uniform(-3, 3, 2))
    noisy = SigmaMorphism({g: PhaseU1(rng.uniform(-4, 4)) for g in pres.generators}, ident)
    # NaN and the pi tie: a relation through g0 is NaN, the others land on or near pi
    edge_cases = {g: PhaseU1(np.pi) for g in pres.generators}
    edge_cases["g0"] = PhaseU1(NAN)
    sigmas = [valid, noisy, SigmaMorphism(edge_cases, ident)]
    gauge = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cov.regions}
    coc = dress_cocycle(transition_cocycle(valid, nerve), gauge)
    want = pairwise_gaps(pres, sigmas, coc, nerve)
    swapped = pairwise_gaps(pres, sigmas, coc, nerve, dist=lambda a, b: distance(b, a))
    tols = edge_tolerances(want[1], want[2])
    assert len(tols) > 3
    assert np.isnan(want[0][2]).any() and np.pi in want[0][2]
    firsts = assert_checks_match_pairwise_gaps(pres, sigmas, coc, nerve, tols, monkeypatch)
    # the data tells the orders apart on the witnessed edges and on the triples below
    assert any(bits([want[2][i]]) != bits([swapped[2][i]]) for i in firsts)
    values = {e: PhaseU1(rng.uniform(-4, 4)) for e in cov.overlaps}
    values[cov.overlaps[0]], values[cov.overlaps[1]] = PhaseU1(NAN), PhaseU1(np.pi)
    lawless = TransitionCocycle(cov, values, ident)  # every triple is checked
    triple_want, triple_swapped = (
        pairwise_gaps(pres, [], lawless, nerve, dist)[1]
        for dist in (distance, lambda a, b: distance(b, a))
    )
    assert np.isnan(triple_want).any() and bits(triple_want) != bits(triple_swapped)
    assert_checks_match_pairwise_gaps(pres, [], lawless, nerve, [], monkeypatch)
    # a witness residual of NaN, and of pi (lambda_v lambda_u^-1 = pi, g(v<-u) = 1)
    ring = circle_cover(5)
    ring_nerve = build_nerve(ring)
    (edge,) = ring_nerve.non_tree_edges
    tree_edge = next(e for e in ring.overlaps if e != edge)
    ring_pres = pi1_presentation(ring_nerve)
    for key, value in ((edge, PhaseU1(NAN)), (tree_edge, PhaseU1(np.pi))):
        coc = TransitionCocycle(ring, {**identity_cocycle(ring, ident).values, key: value}, ident)
        (resid,) = pairwise_gaps(ring_pres, [], coc, ring_nerve)[2]
        assert np.isnan(resid) or resid == np.pi
        assert_checks_match_pairwise_gaps(ring_pres, [], coc, ring_nerve, [0.0], monkeypatch)


def test_cocycle_rejects_a_value_for_a_disjoint_pair():
    cov = annulus_cover()
    values = {e: PhaseU1(0.0) for e in cov.overlaps}
    with pytest.raises(CocycleInconsistent, match=r"\(0, 2, 0\)"):
        TransitionCocycle(cov, {**values, (0, 2, 0): PhaseU1(0.5)}, PhaseU1(0.0))
    angles = {e: 0.0 for e in cov.overlaps}
    with pytest.raises(InvalidPotential, match=r"\(0, 2, 0\)"):
        FlatPotentialU1(cover=cov, angles={**angles, (0, 2, 0): NAN, (3, 1, 0): 2.0})


@pytest.mark.parametrize("key", [(2, 0, 0), (2, 1, 0), (3, 1, 0)])
def test_cocycle_rejects_a_non_canonical_key(key):
    # (2, 0, 0) and (3, 1, 0) name the disjoint pairs high to low, (2, 1, 0)
    # an overlap; transition values and potential lifts reject each of them
    cov = annulus_cover()
    values = {e: PhaseU1(0.0) for e in cov.overlaps}
    with pytest.raises(CocycleInconsistent, match=r"\({}, {}, {}\)".format(*key)):
        TransitionCocycle(cov, {**values, key: PhaseU1(0.5)}, PhaseU1(0.0))
    angles = {e: 0.0 for e in cov.overlaps}
    with pytest.raises(InvalidPotential, match=r"\({}, {}, {}\)".format(*key)):
        FlatPotentialU1(cover=cov, angles={**angles, key: 2.0})
