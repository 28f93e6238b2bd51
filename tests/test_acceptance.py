"""Acceptance suite: one test per shipped guarantee, one report line each.

Each test prints "[PASS] criterion N: ..." (or FAIL) so a -s run reads as
a checklist; the assertions use the same tolerances the report lines cite.
"""

import numpy as np
import pytest

from flatnet.cocycles import (
    check_cocycle,
    dress_cocycle,
    holonomy,
    identity_cocycle,
    lift_potential,
    lift_sum,
    transition_cocycle,
    trivialize,
    SigmaMorphism,
)
from flatnet.cocycles import worst as sticky_max
from flatnet.covers import (
    annulus_cover,
    approximate_curve,
    build_nerve,
    builtin_cover,
    circle_cover,
    disk_cover,
    figure_eight_cover,
    free_h1_coordinates,
    generator_loop,
    loop_class,
    path_compose,
    path_reverse,
    pi1_presentation,
    torus_cover,
)
from flatnet.fock import (
    FockSpace,
    allocate_modes,
    anticommutator,
    glue_psi_A,
    nested_pair_residual,
    smeared_field,
)
from flatnet.groups import (
    AntiHermitianUn,
    MatrixUn,
    PhaseU1,
    distance,
    is_identity,
    inverse,
    compose,
    path_ordered_exp,
    path_ordered_exp_subdivided,
)
from flatnet.scenario import emit_report, parse_scenario, run_scenario
from flatnet.sectors import (
    classify,
    make_window,
    plain_transporter,
    rho_holonomy,
    rho_layer_transporter,
    telescope_residual,
    topological_component,
    transition_amplitude,
    triple_law_residual,
    twisted_transporter,
)

BUILTIN_NAMES = ("circle", "annulus", "disk", "figure_eight", "torus")
SX = np.array([[0, 1], [1, 0]], dtype=complex)
GOLDEN_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def report(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def make(name):
    return builtin_cover(name, 5 if name == "circle" else None)


def setup(name):
    cover = make(name)
    nerve = build_nerve(cover)
    return cover, nerve, pi1_presentation(nerve)


def u1_sigma(pres, alpha, beta=0.0):
    """Phase assignment factoring through free homology; always lawful."""
    coords = free_h1_coordinates(pres)
    weights = ([alpha, beta] + [0.0] * len(coords))[: len(coords)]
    out = {}
    for i, name in enumerate(pres.generators):
        out[name] = PhaseU1(sum(w * c[i] for w, c in zip(weights, coords)))
    return SigmaMorphism(out, PhaseU1(0.0))


def su2_sigma(pres, rng):
    """Unitary assignment: free presentations get independent random
    unitaries, related ones commute through a fixed axis."""
    if pres.relations:
        coords = free_h1_coordinates(pres)
        weights = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)][: len(coords)]
        out = {}
        for i, name in enumerate(pres.generators):
            theta = sum(w * c[i] for w, c in zip(weights, coords[: len(weights)]))
            mat = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * SX
            out[name] = MatrixUn(mat)
        return SigmaMorphism(out, MatrixUn(np.eye(2)))
    out = {}
    for name in pres.generators:
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        out[name] = MatrixUn(q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj())
    return SigmaMorphism(out, MatrixUn(np.eye(2)))


def random_mode_vector(rng, fock, region):
    f = np.zeros(fock.K, dtype=complex)
    idx = list(fock.space.region_modes(region))
    f[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    return f


def random_loop_visits(rng, nerve, pieces):
    """Closed visited list: a random composite of generator loops."""
    loop = None
    for _ in range(pieces):
        idx = int(rng.integers(0, len(nerve.non_tree_edges)))
        g = generator_loop(nerve, idx)
        if rng.random() < 0.5:
            g = path_reverse(g)
        loop = g if loop is None else path_compose(loop, g)
    return [loop.start] + [s.dst for s in loop.steps]


def decorate(rng, cover, visited, inserts):
    """Insert immediate backtracks; the homotopy class is unchanged."""
    out = list(visited)
    for _ in range(inserts):
        i = int(rng.integers(0, len(out)))
        w = int(rng.choice(cover.neighbors(out[i])))
        out[i + 1 : i + 1] = [w, out[i]]
    return out


def random_walk_path(rng, cover, length, start):
    visited = [start]
    for _ in range(length):
        visited.append(int(rng.choice(cover.neighbors(visited[-1]))))
    return approximate_curve(cover, visited)


def coboundary_potential(cover, nerve, rng):
    lam = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cover.regions}
    coc = dress_cocycle(identity_cocycle(cover, PhaseU1(0.0)), lam)
    return lift_potential(coc, nerve)


# ---------------------------------------------------------------------------


def test_criterion_01_cocycle_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    for name in BUILTIN_NAMES:
        cover, nerve, pres = setup(name)
        for _ in range(20):
            for sigma in (
                u1_sigma(pres, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)),
                su2_sigma(pres, rng),
            ):
                chk = check_cocycle(transition_cocycle(sigma, nerve), 1e-10)
                worst = sticky_max((worst, chk.max_residual))
                assert chk.ok
    report(1, f"cocycle law on all builtin covers (max residual {worst:.2e})",
           worst <= 1e-10)


def test_criterion_02_holonomy_round_trip():
    rng = np.random.default_rng(102)
    worst = 0.0
    for name in BUILTIN_NAMES:
        cover, nerve, pres = setup(name)
        for sigma in (
            u1_sigma(pres, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)),
            su2_sigma(pres, rng),
        ):
            coc = transition_cocycle(sigma, nerve)
            for idx, gname in enumerate(pres.generators):
                got = holonomy(coc, generator_loop(nerve, idx))
                worst = sticky_max((worst, distance(got, sigma.assignment[gname])))
    ann, ann_nerve, _ = setup("annulus")
    ring = [0, 1, 2, 3, 0]
    for theta in (np.pi / 7, np.pi / 2, 1.0):
        coc = transition_cocycle(
            SigmaMorphism({"g0": PhaseU1(theta)}, PhaseU1(0.0)), ann_nerve
        )
        for k in range(-3, 4):
            if k == 0:
                visited = [0]
            elif k > 0:
                visited = ring[:-1] * k + [0]
            else:
                visited = ring[::-1][:-1] * (-k) + [0]
            got = holonomy(coc, approximate_curve(ann, visited))
            worst = sticky_max((worst, distance(got, PhaseU1(k * theta))))
    report(2, f"holonomy round trip and annulus windings (max gap {worst:.2e})",
           worst <= 1e-10)



def test_nan_gap_fails_criterion_02(monkeypatch):
    # every gap after the first is NaN: the NaN-sticky aggregate must fail
    # the criterion, where max(0.0, nan) == 0.0 would pass it with 0.00e+00
    calls = []

    def nan_after_first(a, b):
        calls.append(1)
        return distance(a, b) if len(calls) == 1 else float("nan")

    monkeypatch.setitem(globals(), "distance", nan_after_first)
    with pytest.raises(AssertionError, match="criterion 2: .*max gap nan"):
        test_criterion_02_holonomy_round_trip()
    assert len(calls) > 1

def test_criterion_03_trivialization_dichotomy():
    rng = np.random.default_rng(103)
    worst_rebuild = 0.0
    count_cob = 0
    for name in BUILTIN_NAMES:
        cover, nerve, pres = setup(name)
        for _ in range(10):
            if count_cob % 2 == 0:
                lam = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cover.regions}
                ident = PhaseU1(0.0)
            else:
                lam = {}
                for r in cover.regions:
                    q, rr = np.linalg.qr(
                        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    )
                    lam[r] = MatrixUn(q * (np.diagonal(rr) / np.abs(np.diagonal(rr))).conj())
                ident = MatrixUn(np.eye(2))
            coc = dress_cocycle(identity_cocycle(cover, ident), lam)
            res = trivialize(coc, nerve)
            assert res.success
            for (u, v, c) in cover.overlaps:
                rebuilt = compose(res.lambdas[v], inverse(res.lambdas[u]))
                worst_rebuild = sticky_max((
                    worst_rebuild, distance(rebuilt, coc.value(v, u, c))
                ))
            count_cob += 1
    assert count_cob == 50

    worst_witness = 0.0
    count_non = 0
    loops_with_holes = [n for n in BUILTIN_NAMES if n != "disk"]
    for name in loops_with_holes:
        cover, nerve, pres = setup(name)
        for k in range(13 if name in ("circle", "annulus") else 12):
            if k % 2 == 0:
                alpha = rng.uniform(0.3, np.pi) * (1 if rng.random() < 0.5 else -1)
                sigma = u1_sigma(pres, alpha, rng.uniform(0.3, np.pi))
            else:
                while True:
                    sigma = su2_sigma(pres, rng)
                    if any(distance(v, MatrixUn(np.eye(2))) >= 0.1
                           for v in sigma.assignment.values()):
                        break
            coc = transition_cocycle(sigma, nerve)
            res = trivialize(coc, nerve)
            assert not res.success
            w = res.witness
            word = loop_class(pres, w.loop)
            assert len(word.letters) == 1  # witness is a generator loop
            worst_witness = sticky_max((
                worst_witness, distance(w.holonomy, sigma.evaluate(word))
            ))
            count_non += 1
    assert count_non == 50
    ok = worst_rebuild <= 1e-10 and worst_witness <= 1e-10
    report(3, "trivialization dichotomy: 50 coboundaries recovered "
              f"(max {worst_rebuild:.2e}), 50 obstructions witnessed "
              f"(max {worst_witness:.2e})", ok)


def test_criterion_04_homotopy_invariance():
    rng = np.random.default_rng(104)
    worst = 0.0
    for name in BUILTIN_NAMES:
        cover, nerve, pres = setup(name)
        fock = FockSpace(allocate_modes(cover, 1))
        window = make_window(fock, cover)
        sigma = u1_sigma(pres, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        t = twisted_transporter(window, transition_cocycle(sigma, nerve))
        for _ in range(30):
            base = random_loop_visits(rng, nerve, int(rng.integers(1, 4)))
            va = decorate(rng, cover, base, int(rng.integers(0, 4)))
            vb = decorate(rng, cover, base, int(rng.integers(0, 4)))
            pa = approximate_curve(cover, va)
            pb = approximate_curve(cover, vb)
            assert loop_class(pres, pa) == loop_class(pres, pb)
            ca = topological_component(t, pa)
            cb = topological_component(t, pb)
            worst = sticky_max((worst, abs(ca.value - cb.value), ca.residual, cb.residual))
    report(4, f"homotopy invariance of loop classes and components "
              f"(max gap {worst:.2e})", worst <= 1e-10)


def test_criterion_05_car_suite():
    rng = np.random.default_rng(105)
    configs = [(circle_cover(4), 1), (circle_cover(3), 2),
               (circle_cover(4), 2), (circle_cover(5), 2)]
    worst = 0.0
    squares_exact = True
    pairs = 0
    for cover, m in configs:
        fock = FockSpace(allocate_modes(cover, m))
        assert fock.K <= 10
        eye = np.eye(fock.dim)
        for _ in range(13 if fock.K == 10 else 12 if fock.K == 8 else 13 if fock.K == 6 else 12):
            f = rng.normal(size=fock.K) + 1j * rng.normal(size=fock.K)
            g = rng.normal(size=fock.K) + 1j * rng.normal(size=fock.K)
            pf, pg = smeared_field(fock, f), smeared_field(fock, g)
            first = anticommutator(pf.adjoint(), pg).matrix - fock.space.inner(f, g) * eye
            worst = sticky_max((worst, float(np.max(np.abs(first)))))
            worst = sticky_max((worst, anticommutator(pf, pg).norm_max()))
            squares_exact = squares_exact and (pf * pf).norm_max() == 0.0
            pairs += 1
    assert pairs == 50
    ok = worst <= 1e-12 and squares_exact
    report(5, f"CAR relations over 50 pairs (max residual {worst:.2e}; "
              f"squares exactly zero: {squares_exact})", ok)


def test_criterion_06_twisted_field_gluing():
    rng = np.random.default_rng(106)
    worst_nested = 0.0
    worst_chart = 0.0
    for cover, m in [(annulus_cover(), 2), (torus_cover(), 1)]:
        nerve = build_nerve(cover)
        fock = FockSpace(allocate_modes(cover, m))
        for _ in range(20):
            pot = coboundary_potential(cover, nerve, rng)
            for (u, v, c) in cover.overlaps:
                f = random_mode_vector(rng, fock, u)
                worst_nested = sticky_max((
                    worst_nested, nested_pair_residual(fock, pot, v, u, f, c)
                ))
            s0 = rng.normal(size=fock.K) + 1j * rng.normal(size=fock.K)
            section = {
                r: np.exp(1j * pot.primitives[r]) * s0 for r in cover.regions
            }
            glued = glue_psi_A(fock, pot, section)
            worst_chart = sticky_max((worst_chart, glued.chart_residual))
    ok = worst_nested <= 1e-12 and worst_chart <= 1e-10
    report(6, f"twisted-field gluing: nested pairs {worst_nested:.2e}, "
              f"chart independence {worst_chart:.2e}", ok)


def test_criterion_07_sector_cocycle_and_telescoping():
    rng = np.random.default_rng(107)
    worst = 0.0
    for name, m in [("annulus", 2), ("disk", 2), ("torus", 1)]:
        cover, nerve, pres = setup(name)
        fock = FockSpace(allocate_modes(cover, m))
        window = make_window(fock, cover)
        sigma = u1_sigma(pres, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        plain = plain_transporter(window, cover)
        twisted = twisted_transporter(window, transition_cocycle(sigma, nerve))
        for t in (plain, twisted):
            for triple in cover.triples:
                worst = sticky_max((worst, triple_law_residual(t, triple)))
            for _ in range(30):
                p = random_walk_path(
                    rng, cover, int(rng.integers(1, 8)), int(rng.choice(cover.regions))
                )
                worst = sticky_max((worst, telescope_residual(t, p)))
    report(7, f"sector cocycle and telescoping residuals (max {worst:.2e})",
           worst <= 1e-10)


def test_criterion_08_topological_component():
    rng = np.random.default_rng(108)
    worst_plain = 0.0
    worst_twisted = 0.0
    windows = {}
    for name in BUILTIN_NAMES:
        cover, nerve, pres = setup(name)
        fock = FockSpace(allocate_modes(cover, 1))
        window = make_window(fock, cover)
        windows[name] = (cover, nerve, pres, window)
        plain = plain_transporter(window, cover)
        sigma = u1_sigma(pres, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        coc = transition_cocycle(sigma, nerve)
        twisted = twisted_transporter(window, coc)
        for _ in range(6):
            visits = random_loop_visits(rng, nerve, int(rng.integers(1, 4)))
            loop = approximate_curve(cover, visits)
            cp = topological_component(plain, loop)
            worst_plain = sticky_max((worst_plain, abs(cp.value - 1.0), cp.residual))
            ct = topological_component(twisted, loop)
            want = sigma.evaluate(loop_class(pres, loop)).complex_value
            worst_twisted = sticky_max((worst_twisted, abs(ct.value - want), ct.residual))

    agreements = 0
    for k in range(40):
        name = BUILTIN_NAMES[k % len(BUILTIN_NAMES)]
        cover, nerve, pres, window = windows[name]
        alpha = 0.0 if rng.random() < 0.35 else rng.uniform(0.2, np.pi)
        beta = 0.0 if rng.random() < 0.35 else rng.uniform(0.2, np.pi)
        sigma = u1_sigma(pres, alpha, beta)
        coc = transition_cocycle(sigma, nerve)
        cls = classify(twisted_transporter(window, coc), nerve)
        triv = trivialize(coc, nerve)
        assert cls.kind == ("DHR" if triv.success else "topological")
        agreements += 1
    assert agreements == 40
    ok = worst_plain <= 1e-10 and worst_twisted <= 1e-10
    report(8, f"topological components: plain {worst_plain:.2e}, twisted "
              f"{worst_twisted:.2e}; classify/trivialize agree on 40 draws", ok)


def test_criterion_09_transition_amplitude():
    rng = np.random.default_rng(109)
    worst = 0.0
    pairs = 0
    for name, m in [("annulus", 2), ("torus", 1)]:
        cover, nerve, pres = setup(name)
        fock = FockSpace(allocate_modes(cover, m))
        window = make_window(fock, cover)
        sigma = u1_sigma(pres, 0.9, -1.3)
        coc = transition_cocycle(sigma, nerve)
        pot = lift_potential(coc, nerve)
        t = twisted_transporter(window, coc)
        while pairs < (25 if name == "annulus" else 50):
            a = int(rng.choice(cover.regions))
            p = random_walk_path(rng, cover, int(rng.integers(1, 7)), a)
            q = random_walk_path(rng, cover, int(rng.integers(1, 7)), a)
            if p.end != q.end:
                continue
            amp = transition_amplitude(t, p, q)
            loop = path_compose(p, path_reverse(q))
            want = np.exp(1j * lift_sum(pot, loop))  # exp of the loop integral
            worst = sticky_max((worst, abs(amp - want)))
            pairs += 1
    assert pairs == 50

    worst_trivial = 0.0
    cover, nerve, pres = setup("annulus")
    fock = FockSpace(allocate_modes(cover, 2))
    window = make_window(fock, cover)
    t0 = twisted_transporter(
        window, transition_cocycle(u1_sigma(pres, 0.0), nerve)
    )
    matched = 0
    while matched < 10:
        a = int(rng.choice(cover.regions))
        p = random_walk_path(rng, cover, int(rng.integers(1, 7)), a)
        q = random_walk_path(rng, cover, int(rng.integers(1, 7)), a)
        if p.end != q.end:
            continue
        worst_trivial = sticky_max((worst_trivial, abs(transition_amplitude(t0, p, q) - 1.0)))
        matched += 1
    ok = worst <= 1e-10 and worst_trivial <= 1e-10
    report(9, f"transition amplitudes equal loop-integral exponentials "
              f"(max gap {worst:.2e}; trivial case {worst_trivial:.2e})", ok)


def test_criterion_10_non_abelian_layer():
    cfg = parse_scenario(str(GOLDEN_DIR / "figure_eight_su2.yaml"))
    cover, nerve, pres = setup("figure_eight")
    coc = transition_cocycle(
        SigmaMorphism(dict(cfg.sigma), MatrixUn(np.eye(2))), nerve
    )
    t = rho_layer_transporter(coc)
    comm = approximate_curve(cover, [0, 1, 2, 0, 3, 4, 0, 2, 1, 0, 4, 3, 0])
    val = rho_holonomy(t, comm)
    sigma = SigmaMorphism(dict(cfg.sigma), MatrixUn(np.eye(2)))
    word_gap = distance(val, sigma.evaluate(loop_class(pres, comm)))
    ident_gap = distance(val, MatrixUn(np.eye(2)))

    rng = np.random.default_rng(42)
    steps = [
        AntiHermitianUn(h - h.conj().T)
        for h in (
            0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(6)
        )
    ]
    exact = path_ordered_exp(steps)
    err3 = distance(path_ordered_exp_subdivided(steps, 1000), exact)
    err4 = distance(path_ordered_exp_subdivided(steps, 10000), exact)
    ratio = err3 / err4
    ok = word_gap <= 1e-10 and ident_gap >= 0.1 and ratio >= 10.0
    report(10, f"non-abelian holonomy (word gap {word_gap:.2e}, identity gap "
               f"{ident_gap:.2f}) and subdivision convergence (x{ratio:.0f})", ok)


def test_criterion_11_determinism():
    ok = True
    for name in ("annulus_u1", "disk_dhr", "figure_eight_su2", "torus_u1"):
        cfg = parse_scenario(str(GOLDEN_DIR / f"{name}.yaml"))
        first = emit_report(run_scenario(cfg), "structured").encode()
        second = emit_report(run_scenario(cfg), "structured").encode()
        ok = ok and first == second
    report(11, "golden scenarios are byte-identical across reruns", ok)
