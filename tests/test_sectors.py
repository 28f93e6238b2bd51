import re
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import csr_oracle as oracle
import flatnet.sectors as sectors_module
from csr_oracle import oracle_block, oracle_step

from flatnet.cocycles import (
    SigmaMorphism,
    TransitionCocycle,
    holonomy,
    lift_potential,
    transition_cocycle,
    trivialize,
    worst,
)
from flatnet.covers import (
    InvalidPath,
    PosetPath,
    Step,
    annulus_cover,
    approximate_curve,
    build_nerve,
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
from flatnet.fock import (
    CapacityError,
    FieldOp,
    FockSpace,
    OneParticleSpace,
    SupportError,
    allocate_modes,
    anticommutator,
    identity_op,
    smeared_field,
)
from flatnet.groups import (
    AntiHermitianUn,
    MatrixUn,
    PhaseU1,
    VariantMismatch,
    compose,
    distance,
    inverse,
    path_ordered_exp,
)
from flatnet.sectors import (
    Implementer,
    MissingEntry,
    NotGaugeInvariant,
    SectorTransporter,
    charge_morphism,
    classify,
    coefficient_ratio_cocycle,
    dress_transporter,
    implementer,
    intertwining_residual,
    localization_residual,
    make_window,
    plain_transporter,
    rho_layer_transporter,
    telescope_residual,
    telescope_residuals,
    topological_component,
    transition_amplitude,
    triple_law_residual,
    twisted_transporter,
    window_chain,
    z1,
    z_path,
)
from homology import free_h1_coordinates

ANN = annulus_cover()
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def fock_for(cover, m=2):
    return FockSpace(allocate_modes(cover, m))


def u1_sigma_from_h1(pres, alpha, beta=0.0):
    coords = free_h1_coordinates(pres)
    weights = ([alpha, beta] + [0.0] * len(coords))[: len(coords)]
    out = {}
    for i, name in enumerate(pres.generators):
        theta = sum(w * c[i] for w, c in zip(weights, coords))
        out[name] = PhaseU1(theta)
    return SigmaMorphism(out, PhaseU1(0.0))


def annulus_setup(theta=0.7, m=2, kappa=1):
    nerve = build_nerve(ANN)
    sigma = SigmaMorphism({"g0": PhaseU1(theta)}, PhaseU1(0.0))
    coc = transition_cocycle(sigma, nerve)
    fock = fock_for(ANN, m)
    window = make_window(fock, ANN, kappa)
    return nerve, sigma, coc, fock, window


def assert_partial_permutation(op, fock):
    """One term, so at most one nonzero entry per row and per column."""
    assert len(op.terms) == 1
    m = op.matrix != 0
    assert m.sum() <= fock.dim
    assert m.sum(axis=1).max() <= 1 and m.sum(axis=0).max() <= 1


def random_walk(rng, cover, length, start=None):
    visited = [start if start is not None else int(rng.choice(cover.regions))]
    for _ in range(length):
        visited.append(int(rng.choice(cover.neighbors(visited[-1]))))
    return visited


def chain_block(t, chain):
    """The (n, n) window block of a ``window_chain`` triple: the identity
    for None, zero when ``end`` is None, else zero but for ``entry`` at
    (end, start), its real and imaginary parts written as they are."""
    n = len(t.window.columns)
    if chain is None:
        return np.eye(n, dtype=complex)
    start, end, entry = chain
    out = np.zeros((n, n), dtype=complex)
    if end is not None:
        at = (t.window.position(end), t.window.position(start))
        out.real[at], out.imag[at] = entry.real, entry.imag
    return out


def folded_block(t, crossings):
    return chain_block(t, window_chain(t, crossings))


def assert_matches_oracle(op, m):
    """The operator's entries equal the CSR oracle's."""
    assert np.array_equal(op.matrix, m.toarray())


# ---------------------------------------------------------------------------
# implementers and windows


def test_implementer_is_exact_basis_vector():
    fock = fock_for(ANN, 2)
    for r in ANN.regions:
        for kappa in (1, 2):
            imp = implementer(fock, r, kappa)
            v = imp.op.matrix[:, 0]  # the image of the vacuum
            bits = sum(1 << m for m in imp.modes)
            want = np.zeros(fock.dim)
            want[bits] = 1.0
            assert np.array_equal(v, want)  # + sign, no JW dust
            assert imp.charge == kappa
            assert imp.op.charge == kappa


def test_implementer_guards():
    fock = fock_for(ANN, 1)
    with pytest.raises(SupportError):
        implementer(fock, 0, kappa=2)
    with pytest.raises(ValueError):
        implementer(fock, 0, kappa=0)


def test_implementer_partial_isometry():
    fock = fock_for(ANN, 2)
    for kappa in (1, 2):
        imp = implementer(fock, 0, kappa)
        phi = imp.op
        assert (phi * phi).norm_max() == 0.0
        tr = np.trace(phi.adjoint().matrix @ phi.matrix)
        assert tr == pytest.approx(2 ** (fock.K - kappa))  # initial-space dim


def test_disjoint_implementers_anticommute_uniformly():
    # bare Jordan-Wigner gives graded (anti)commutation with one global
    # sign for all disjoint charged pairs, starred or not
    fock = fock_for(ANN, 2)
    a = implementer(fock, 0).op
    b = implementer(fock, 2).op
    assert anticommutator(a, b).norm_max() == 0.0
    assert anticommutator(a, b.adjoint()).norm_max() == 0.0


def dense_basis(w):
    """The window's columns as a dense matrix: the vacuum, then each
    region's implementer applied to the vacuum (column 0 of its matrix)."""
    vac = np.eye(w.fock.dim, 1, dtype=complex).ravel()
    return np.stack([vac] + [w.implementers[r].op.matrix[:, 0] for r in w.regions], axis=1)


def test_window_basis_orthonormal_and_projector():
    fock = fock_for(ANN, 2)
    w = make_window(fock, ANN)
    assert w.regions == (0, 1, 2, 3)
    b = dense_basis(w)
    assert b.shape == (fock.dim, 5) and len(w.columns) == 5
    assert np.array_equal(b, np.eye(fock.dim)[:, w.columns])  # + basis vectors
    p = b @ b.conj().T
    assert np.max(np.abs(p @ p - p)) <= 1e-14
    assert np.trace(p) == pytest.approx(5.0)
    assert w.position(2) == 3 and w.implementers[2].op.column(0) == {w.columns[3]: 1}
    ident = w.compress(identity_op(fock))
    assert np.max(np.abs(ident - np.eye(5))) <= 1e-14


def test_window_columns_stay_exact_past_64_modes():
    # 64 modes at charge two: region 31's charged vector is bits 62 and 63,
    # past int64, so the columns stay Python ints and compress reads them
    cover = circle_cover(32)
    fock = FockSpace(allocate_modes(cover, 2))
    w = make_window(fock, cover, 2)
    assert w.columns[32] == 3 << 62 and all(type(s) is int for s in w.columns)
    block = w.compress(z1(w, 31, 0))
    assert block[32, 1] == 1 and np.count_nonzero(block) == 1


def test_window_position_is_one_past_the_region_index():
    cover = circle_cover(1000)
    window = make_window(fock_for(cover, 1), cover)
    for r in cover.regions:
        assert window.position(r) == 1 + window.regions.index(r)
    with pytest.raises(ValueError, match="region 1000 is not in the window"):
        window.position(1000)


def test_implementer_signs_equal_the_csr_oracle():
    # the creator product applied to the vacuum, on the term layer and on
    # the CSR oracle: a mode created after a lower one, or over an occupied
    # lower one, carries the Jordan-Wigner sign -1; ascending modes give +1
    fock = fock_for(ANN, 2)
    for modes, sign in (((1, 0), -1.0), ((2, 0, 3), -1.0), ((0, 2), 1.0)):
        imp = Implementer(fock=fock, region=0, modes=modes)
        assert imp.charge == len(modes)
        bits = sum(1 << m for m in modes)
        v = imp.op.matrix[:, 0]
        assert v[bits] == sign and np.count_nonzero(v) == 1
        col = oracle.implementer(fock, modes)[:, 0].toarray().ravel()
        assert np.array_equal(col, v)


def test_window_is_read_from_the_mode_allocation():
    # owners interleaved across the modes: region 0 owns modes 1 and 4,
    # region 1 modes 0 and 3, region 2 modes 2 and 5.  The window takes
    # each region's first kappa modes, and its columns, compressed pairs
    # and chain folds equal the CSR oracle's bit for bit
    cover = circle_cover(3)
    fock = FockSpace(OneParticleSpace((1, 0, 2, 1, 0, 2)))
    nerve = build_nerve(cover)
    coc = transition_cocycle(SigmaMorphism({"g0": PhaseU1(0.7)}, PhaseU1(0.0)), nerve)
    want_columns = {1: (0, 1 << 1, 1 << 0, 1 << 2), 2: (0, 0b10010, 0b1001, 0b100100)}
    rng = np.random.default_rng(23)
    for kappa in (1, 2):
        w = make_window(fock, cover, kappa)
        assert w.regions == (0, 1, 2) and w.columns == want_columns[kappa]
        for i, r in enumerate(w.regions):
            col = oracle.implementer(fock, w.implementers[r].modes)[:, 0].toarray().ravel()
            assert col.tobytes() == np.eye(fock.dim, dtype=complex)[:, w.columns[1 + i]].tobytes()
        for u in cover.regions:
            for v in cover.regions:
                got = w.compress(z1(w, v, u))
                assert got.tobytes() == oracle.compress(w, oracle.z1(w, v, u)).tobytes()
        for t in (plain_transporter(w, cover), twisted_transporter(w, coc)):
            for _ in range(6):
                crossings = tuple(random_crossing_path(rng, cover, 8).crossings())
                assert folded_block(t, crossings).tobytes() == oracle_block(t, crossings).tobytes()
    # region 2 owns a single mode: charge 2 names it
    short = FockSpace(OneParticleSpace((1, 0, 2, 1, 0)))
    make_window(short, cover, 1)
    with pytest.raises(SupportError, match="region 2 owns 1 modes, fewer than charge 2"):
        make_window(short, cover, 2)
    with pytest.raises(ValueError, match="charge must be >= 1"):
        make_window(short, cover, 0)


def test_window_charge_two():
    fock = fock_for(ANN, 2)
    w = make_window(fock, ANN, kappa=2)
    b = dense_basis(w)
    assert b.shape == (fock.dim, 5)
    assert np.array_equal(b, np.eye(fock.dim)[:, w.columns])
    for i, r in enumerate(w.regions):
        assert w.implementers[r].charge == 2
        assert w.columns[1 + i] == sum(1 << m for m in w.implementers[r].modes)


COMPRESS_SETUP = annulus_setup(theta=0.9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compress_equals_dense_basis_product(seed):
    rng = np.random.default_rng(seed)
    _, _, coc, fock, w = COMPRESS_SETUP
    b = dense_basis(w)

    def signed_partial_permutation():
        pool = np.unique(np.concatenate([w.columns, rng.integers(0, fock.dim, 8)]))
        k = int(rng.integers(0, len(pool) + 1))
        rows = rng.choice(pool, k, replace=False)
        cols = rng.choice(pool, k, replace=False)
        vals = rng.choice(np.array([1, -1, 1j, -1j, np.exp(0.3j)]), k)
        return oracle.csr(sp.csr_matrix((vals, (rows, cols)), shape=(fock.dim, fock.dim)))

    def random_term():
        # one term on random masks: a signed partial permutation of its own
        one, zero, flip, sign = (int(x) for x in rng.integers(0, fock.dim, 4))
        zero &= ~one
        flip &= one | zero
        return {(one, zero, flip, sign & ~(one | zero)): complex(rng.choice([1, -1, 1j, np.exp(0.3j)]))}

    full = oracle.csr(sp.csr_matrix(
        (rng.choice([1.0, -1.0], fock.dim), (np.arange(fock.dim), rng.permutation(fock.dim))),
        shape=(fock.dim, fock.dim),
    ))
    a, c = signed_partial_permutation(), signed_partial_permutation()
    t = (plain_transporter(w, ANN), twisted_transporter(w, coc))[seed % 2]
    path = approximate_curve(ANN, random_walk(rng, ANN, int(rng.integers(1, 8))))
    terms = {**random_term(), **random_term()}
    pairs = [(oracle.as_field_op(m, fock), m, 0.0) for m in (a, oracle.csr(a + c), oracle.csr(a @ c), full)]
    pairs += [(FieldOp(terms, fock, frozenset()), oracle.terms_csr(fock, terms), 0.0),
              (z_path(t, path).op, oracle.oracle_product(t, path.crossings()), 1e-15)]
    for op, m, tol in pairs:
        assert np.max(np.abs(w.compress(op) - b.conj().T @ (m @ b))) <= tol


def test_reverse_entry_is_the_adjoint_of_the_forward_entry():
    _, _, coc, _, window = annulus_setup()
    for t in (plain_transporter(window, ANN), twisted_transporter(window, coc)):
        for (u, v, c), g in t.cocycle.values.items():
            op = t.op(v, u, c)
            assert t.entries[(u, v, c)].op.terms == op.terms and t.entries[(u, v, c)].coeff is g
            rev = t.op(u, v, c)
            assert len(op.terms) == 1 and rev.terms == op.adjoint().terms
            assert distance(t.cocycle.value(u, v, c), inverse(g)) == 0.0
            assert_matches_oracle(op, oracle_step(t, v, u, c))
            assert_matches_oracle(rev, oracle_step(t, u, v, c))


def test_charged_vector_gauge_covariance():
    fock = fock_for(ANN, 2)
    for kappa in (1, 2):
        w = make_window(fock, ANN, kappa)
        zeta = np.exp(0.61j)
        u = np.power(zeta, oracle.occupation_counts(fock))  # the gauge unitary zeta^N
        for r in ANN.regions:
            v = np.eye(fock.dim)[:, w.columns[w.position(r)]]
            assert np.max(np.abs(u * v - (zeta ** kappa) * v)) <= 1e-15


# ---------------------------------------------------------------------------
# window index folds

# (cover, modes per region, charge): every builtin cover within 12 modes
FOLD_COVERS = [
    (disk_cover(), 2, 1),
    (disk_cover(), 3, 2),
    (circle_cover(5), 2, 1),
    (annulus_cover(), 2, 2),
    (figure_eight_cover(), 2, 1),
    (torus_cover(), 1, 1),
]


@lru_cache(maxsize=None)
def fold_setup(index, seed):
    """Plain, twisted (generic phases, not necessarily a morphism),
    dressed and sign-flipped plain transporters on one builtin cover; the
    last has exact -1 window entries, whose products carry signed zeros."""
    cover, m, kappa = FOLD_COVERS[index]
    rng = np.random.default_rng(seed)
    nerve = build_nerve(cover)
    sigma = SigmaMorphism(
        {g: PhaseU1(rng.uniform(-np.pi, np.pi)) for g in nerve.generators}, PhaseU1(0.0)
    )
    window = make_window(fock_for(cover, m), cover, kappa)
    twisted = twisted_transporter(window, transition_cocycle(sigma, nerve))
    phases = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cover.regions}
    plain = plain_transporter(window, cover)
    flipped = SectorTransporter(plain.cocycle, window, {e: -1.0 + 0j for e in plain.weights})
    return cover, (plain, twisted, dress_transporter(twisted, phases), flipped)


def random_crossing_path(rng, cover, length, start=None):
    """Random path with reflexive steps and random overlap components."""
    at = int(rng.choice(cover.regions)) if start is None else start
    begin = at
    steps = []
    for _ in range(length):
        if rng.random() < 0.2:
            steps.append(Step(dst=at, src=at, comp=None))
            continue
        nxt = int(rng.choice(cover.neighbors(at)))
        comp = int(rng.choice(cover.overlap_components(at, nxt)))
        steps.append(Step(dst=nxt, src=at, comp=comp))
        at = nxt
    return PosetPath(steps, begin, at)


def assert_fold_matches_product(t, path):
    got = folded_block(t, path.crossings())
    want = oracle_block(t, path.crossings())
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(t.window.compress(z_path(t, path).op) - want)) <= 1e-15


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, len(FOLD_COVERS) - 1),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
)
def test_window_block_equals_compressed_product_bitwise(index, setup_seed, which, seed, length):
    cover, ts = fold_setup(index, setup_seed)
    path = random_crossing_path(np.random.default_rng(seed), cover, length)
    assert_fold_matches_product(ts[which], path)


def test_window_block_empty_and_reflexive_paths_are_identity():
    cover, ts = fold_setup(0, 0)
    for t in ts:
        n = len(t.window.columns)
        for path in (approximate_curve(cover, [1]), approximate_curve(cover, [2, 2, 2])):
            assert_fold_matches_product(t, path)
            assert window_chain(t, path.crossings()) is None
            assert folded_block(t, path.crossings()).tobytes() == np.eye(n, dtype=complex).tobytes()


def test_window_block_long_chains_bitwise():
    # long chains of generic phases (complex products whose rounding
    # depends on how the multiply is evaluated) and of exact -1 entries
    rng = np.random.default_rng(5)
    for index in range(len(FOLD_COVERS)):
        cover, ts = fold_setup(index, 1)
        for t in ts[1:]:
            for _ in range(4):
                assert_fold_matches_product(t, random_crossing_path(rng, cover, 40))


def test_one_step_blocks_equal_oracle_step_and_its_adjoint():
    # every canonical edge, forward and reverse: the one-step fold is the
    # compressed oracle step and its adjoint
    for index in range(len(FOLD_COVERS)):
        _, ts = fold_setup(index, 2)
        for t in ts:
            n = len(t.window.columns)
            eye = np.eye(n, dtype=complex).tobytes()
            assert window_chain(t, [(1, 1, None)]) is None
            assert folded_block(t, [(1, 1, None)]).tobytes() == eye
            for (u, v, c) in t.weights:
                op = oracle_step(t, v, u, c)
                for (dst, src), want in (((v, u), op), ((u, v), oracle.adjoint(op))):
                    chain = window_chain(t, [(dst, src, c)])
                    assert chain[:2] == (src, dst)
                    got = chain_block(t, chain)
                    assert got.tobytes() == oracle.compress(t.window, want).tobytes()


def test_window_block_non_chaining_crossings_are_zero_bitwise():
    # 1 <- 0 leaves the charge on v_1, which 3 <- 2 annihilates: the
    # scalar fold must give the oracle's zero block, signed zeros included
    for t in fold_setup(3, 4)[1] + (plain_transporter(make_window(fock_for(ANN), ANN), ANN),):
        crossings = [(1, 0, 0), (3, 2, 0)]
        chain = window_chain(t, crossings)
        assert chain[0] == 0 and chain[1] is None and chain[2] == 0
        got = chain_block(t, chain)
        assert not np.any(got)
        assert got.tobytes() == oracle_block(t, crossings).tobytes()


def test_z1_is_one_unit_term_equal_to_the_oracle_pair():
    _, _, coc, _, window = annulus_setup()
    plain, twisted = plain_transporter(window, ANN), twisted_transporter(window, coc)
    for (u, v, c) in ANN.overlaps:
        z = z1(window, v, u)
        assert list(z.terms.values()) == [1.0]
        assert z.terms == (window.implementers[v].op * window.implementers[u].star).terms
        assert_matches_oracle(z, oracle.z1(window, v, u))
        # both transporters' operators are the pair scaled by the window
        # entry, equal to the pair scaled by the coefficient
        for t in (plain, twisted):
            g = t.cocycle.values[(u, v, c)]
            assert t.op(v, u, c).terms == z.scaled(t.weights[(u, v, c)]).terms
            assert t.op(v, u, c).terms == z.scaled(g).terms


def test_window_entries_carry_the_csr_route_bits():
    # each entry is the window entry of the CSR route: the bare pair
    # scaled by the coefficient, and for a dressed transporter scaled
    # again by p_v p_u^-1
    rng = np.random.default_rng(11)
    for index in range(len(FOLD_COVERS)):
        cover, (plain, twisted, dressed, _) = fold_setup(index, 3)
        w = plain.window
        phases = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cover.regions}
        redressed = dress_transporter(twisted, phases)
        for (u, v, c), g in twisted.cocycle.values.items():
            pair = oracle.z1(w, v, u)
            op = oracle.csr(pair * g.complex_value)
            at = (w.position(v), w.position(u))
            for t, want in (
                (plain, oracle.csr(pair * PhaseU1(0.0).complex_value)),
                (twisted, op),
                (redressed, oracle.csr(op * compose(phases[v], inverse(phases[u])).complex_value)),
            ):
                block = oracle.compress(w, want)
                assert np.count_nonzero(block) == 1
                assert np.array(t.weights[(u, v, c)]).tobytes() == block[at].tobytes()


# ---------------------------------------------------------------------------
# transporters and the cocycle laws


def test_entry_reflexive_and_reverse():
    _, _, coc, fock, window = annulus_setup()
    t = twisted_transporter(window, coc)
    assert t.op(1, 1, None) is None
    same = z_path(t, approximate_curve(ANN, [1, 1]))
    assert distance(same.coeff, PhaseU1(0.0)) == 0.0
    assert np.array_equal(same.op.matrix, np.eye(fock.dim))
    fwd = t.op(1, 0, 0)
    rev = t.op(0, 1, 0)
    assert distance(t.cocycle.value(0, 1, 0), inverse(t.cocycle.value(1, 0, 0))) == 0.0
    assert np.array_equal(rev.matrix, fwd.matrix.conj().T)
    # a chain starts from its first step operator, not from an identity
    assert z_path(t, approximate_curve(ANN, [0, 1])).op.terms == fwd.terms
    assert z_path(t, approximate_curve(ANN, [1, 1, 0, 0])).op.terms == rev.terms


def test_missing_entry():
    # a crossing of no overlap is InvalidPath on both layers, naming the step
    _, _, _, _, window = annulus_setup()
    t = plain_transporter(window, ANN)
    with pytest.raises(InvalidPath, match=r"Step\(dst=2, src=0, comp=0\)"):
        t.op(2, 0, 0)  # disjoint pair, no overlap edge
    hop = PosetPath((Step(dst=2, src=0, comp=0),), 0, 2)
    with pytest.raises(InvalidPath, match=r"Step\(dst=2, src=0, comp=0\)"):
        z_path(t, hop)
    # the coefficient-only layer looks steps up in its cocycle's cover
    _, _, _, m = fig8_matrix_layer()
    loop = PosetPath((Step(dst=3, src=1, comp=0), Step(dst=1, src=3, comp=0)), 1, 1)
    with pytest.raises(InvalidPath, match=r"Step\(dst=3, src=1, comp=0\)"):
        holonomy(m, loop)

    # every reader says the same: a disjoint pair, a missing component of an
    # overlap, a step in place at a region outside the cover, and a malformed
    # step in place (which no PosetPath holds, so only crossing readers see it)
    nerve, _, coc, _, window = annulus_setup()
    t = twisted_transporter(window, coc)
    pot = lift_potential(coc, nerve)
    pres = pi1_presentation(nerve)
    for bad in (Step(2, 0, 0), Step(1, 0, 5), Step(9, 9, None), Step(1, 1, 0)):
        readers = [
            lambda: coc.value(*bad),
            lambda: pot.lift(*bad),
            lambda: nerve.letters[coc.cover.codes([bad])[0]],
            lambda: window_chain(t, [(1, 0, 0), bad]),
            lambda: t.op(*bad),
        ]
        if (bad.comp is None) == (bad.dst == bad.src):
            hop = PosetPath((bad,), bad.src, bad.dst)
            readers += [
                lambda: holonomy(coc, hop),
                lambda: loop_class(pres, hop),
                lambda: z_path(t, hop),
                lambda: holonomy(coc, path_compose(hop, path_reverse(hop))),
            ]
        for read in readers:
            with pytest.raises(InvalidPath, match=re.escape(f"step {bad} crosses no overlap")):
                read()

    # window entries are checked when the transporter is built
    with pytest.raises(MissingEntry, match=r"\(0, 2, 0\)"):
        SectorTransporter(coc, window, {**t.weights, (0, 2, 0): 1.0 + 0j})  # disjoint pair
    with pytest.raises(MissingEntry, match=r"\(0, 1, 0\)"):
        SectorTransporter(coc, window, {e: w for e, w in t.weights.items() if e != (0, 1, 0)})
    with pytest.raises(TypeError):
        SectorTransporter(coc)  # every transporter holds a window and its entries


def test_twisted_rejects_matrix_cocycle():
    fock = fock_for(figure_eight_cover(), 1)
    window = make_window(fock, figure_eight_cover())
    nerve = build_nerve(figure_eight_cover())
    sigma = SigmaMorphism(
        {"g0": MatrixUn(1j * SX), "g1": MatrixUn(1j * SY)}, MatrixUn(np.eye(2))
    )
    coc = transition_cocycle(sigma, nerve)
    with pytest.raises(VariantMismatch):
        twisted_transporter(window, coc)


def test_z_path_moves_charge_exactly():
    _, _, coc, fock, window = annulus_setup(theta=np.pi / 5)
    t = twisted_transporter(window, coc)
    p = approximate_curve(ANN, [0, 1, 2])
    chain = z_path(t, p)
    [(dst, got)] = chain.op.column(window.columns[window.position(0)]).items()
    assert dst == window.columns[window.position(2)]
    assert abs(got - chain.coeff.complex_value) <= 1e-14


def test_telescope_residual_plain_and_twisted():
    rng = np.random.default_rng(17)
    nerve, _, coc, fock, window = annulus_setup(theta=1.1)
    for t in (plain_transporter(window, ANN), twisted_transporter(window, coc)):
        for _ in range(15):
            p = approximate_curve(ANN, random_walk(rng, ANN, int(rng.integers(1, 7))))
            assert telescope_residual(t, p) <= 1e-10


def test_telescope_residual_equals_csr_route_bitwise():
    # the pair is the certified matrix unit carrying the scaled holonomy:
    # the residual keeps the bits of compress(z1(end, start).scaled(holonomy))
    rng = np.random.default_rng(61)
    for index in range(len(FOLD_COVERS)):
        cover, ts = fold_setup(index, 5)
        for t in ts:
            for _ in range(5):
                path = random_crossing_path(rng, cover, int(rng.integers(1, 10)))
                chain = oracle_block(t, path.crossings())
                folded = window_chain(t, path.crossings())
                if set(path.regions) == {path.start}:
                    # no step moves the charge: the chain is the identity
                    # and telescopes like the empty path
                    assert folded is None
                    assert chain.tobytes() == np.eye(len(chain), dtype=complex).tobytes()
                    assert telescope_residual(t, path) == 0.0
                    continue
                assert folded[:2] == (path.start, path.end)
                pair = oracle.z1(t.window, path.end, path.start) * holonomy(t.cocycle, path).complex_value
                want = float(np.max(np.abs(chain - oracle.compress(t.window, pair))))
                assert np.float64(telescope_residual(t, path)).tobytes() == np.float64(want).tobytes()


def test_telescope_residuals_equal_per_path_and_csr_route_bitwise(monkeypatch):
    # one holonomy fold per batch, over the batch's code rows; each
    # residual keeps the bits of the one-path call and of
    # compress(chain - z1(end, start).scaled(holonomy))
    real, folds = sectors_module.ordered_products, []

    def counting(identity, table, rows):
        folds.append(len(rows))
        return real(identity, table, rows)

    rng = np.random.default_rng(67)
    for index in range(len(FOLD_COVERS)):
        cover, ts = fold_setup(index, 2)
        paths = [random_crossing_path(rng, cover, int(rng.integers(0, 10))) for _ in range(8)]
        for t in ts:
            folds.clear()
            monkeypatch.setattr(sectors_module, "ordered_products", counting)
            got = telescope_residuals(t, [cover.codes(p.crossings()) for p in paths])
            monkeypatch.undo()
            assert folds == [len(paths)] and len(got) == len(paths)
            assert telescope_residuals(t, []) == []
            for path, r in zip(paths, got):
                assert np.float64(r).tobytes() == np.float64(telescope_residual(t, path)).tobytes()
                chain = oracle_block(t, path.crossings())
                if set(path.regions) == {path.start}:
                    assert r == 0.0
                    continue
                pair = oracle.z1(t.window, path.end, path.start) * holonomy(t.cocycle, path).complex_value
                want = float(np.max(np.abs(chain - oracle.compress(t.window, pair))))
                assert np.float64(r).tobytes() == np.float64(want).tobytes()


def test_telescope_residuals_nan_fails_closed():
    # a NaN phase on one overlap: every path crossing it has a NaN
    # residual, the others keep theirs, and the plain transporter is clean
    nerve, _, _, _, window = annulus_setup()
    values = {e: PhaseU1(0.4) for e in ANN.overlaps}
    values[ANN.overlaps[0]] = PhaseU1(float("nan"))
    coc = TransitionCocycle(ANN, values, PhaseU1(0.0))
    u, v, _ = ANN.overlaps[0]
    paths = [
        approximate_curve(ANN, [u, v]),
        approximate_curve(ANN, [v, u, v]),
        approximate_curve(ANN, [u]),
        generator_loop(nerve, 0),
    ]
    crosses = [any({step.src, step.dst} == {u, v} for step in p.steps) for p in paths]
    assert crosses[:3] == [True, True, False]
    rows = [ANN.codes(p.crossings()) for p in paths]
    got = telescope_residuals(twisted_transporter(window, coc), rows)
    assert [np.isnan(r) for r in got] == crosses
    assert np.isnan(worst(got))
    assert telescope_residuals(plain_transporter(window, ANN), rows) == [0.0] * len(paths)


def test_triple_law_disk_and_torus():
    for cover, m in [(disk_cover(), 2), (torus_cover(), 1)]:
        nerve = build_nerve(cover)
        pres = pi1_presentation(nerve)
        sigma = u1_sigma_from_h1(pres, 0.9, -0.4)
        coc = transition_cocycle(sigma, nerve)
        fock = fock_for(cover, m)
        window = make_window(fock, cover)
        for t in (plain_transporter(window, cover), twisted_transporter(window, coc)):
            for triple in cover.triples:
                assert triple_law_residual(t, triple) <= 1e-10


def test_dressing_preserves_laws_and_loop_values():
    rng = np.random.default_rng(23)
    nerve, _, coc, fock, window = annulus_setup(theta=0.9)
    t = twisted_transporter(window, coc)
    phases = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in ANN.regions}
    td = dress_transporter(t, phases)
    loop = generator_loop(nerve, 0)
    before = topological_component(t, loop)
    after = topological_component(td, loop)
    assert after.value == pytest.approx(before.value, abs=1e-12)
    p = approximate_curve(ANN, [0, 1, 2, 3, 0, 1])
    assert telescope_residual(td, p) <= 1e-10


def test_coefficient_ratio_trivializes_for_dressed_pair():
    rng = np.random.default_rng(29)
    nerve, _, coc, _, window = annulus_setup(theta=0.5)
    t = twisted_transporter(window, coc)
    phases = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in ANN.regions}
    td = dress_transporter(t, phases)
    ratio = coefficient_ratio_cocycle(td, t)
    res = trivialize(ratio, nerve)
    assert res.success
    # recovered lambdas match the dressing up to one global phase
    offset = compose(res.lambdas[0], inverse(phases[0]))
    for r in ANN.regions:
        assert distance(compose(res.lambdas[r], inverse(phases[r])), offset) <= 1e-10


# ---------------------------------------------------------------------------
# morphisms


def test_charge_morphism_guards_and_grading():
    rng = np.random.default_rng(31)
    fock = fock_for(ANN, 2)
    window = make_window(fock, ANN)
    f = np.zeros(fock.K, dtype=complex)
    f[list(fock.space.region_modes(2))] = rng.normal(size=2)
    psi = smeared_field(fock, f)
    obs = psi * psi.adjoint()
    out = charge_morphism(window, 2, obs)
    assert out.charge == 0
    assert out.support == frozenset({2})
    with pytest.raises(NotGaugeInvariant):
        charge_morphism(window, 2, psi)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_charge_morphism_rejects_non_finite_observable(bad):
    fock = fock_for(ANN, 2)
    window = make_window(fock, ANN)
    psi = smeared_field(fock, np.eye(fock.K)[4])
    with np.errstate(invalid="ignore"):  # complex 0 * inf is NaN
        obs = (psi * psi.adjoint()).scaled(bad)
    with pytest.raises(ValueError, match="non-finite"):
        charge_morphism(window, 2, obs)


def test_intertwining_residual_small():
    rng = np.random.default_rng(37)
    fock = fock_for(ANN, 2)
    window = make_window(fock, ANN)
    f = np.zeros(fock.K, dtype=complex)
    f[list(fock.space.region_modes(1))] = rng.normal(size=2) + 1j * rng.normal(size=2)
    obs = smeared_field(fock, f) * smeared_field(fock, f).adjoint()
    assert intertwining_residual(window, 0, 1, obs) <= 1e-10
    assert intertwining_residual(window, 2, 1, obs) <= 1e-10


def test_localization_residual_annulus():
    rng = np.random.default_rng(41)
    fock = fock_for(ANN, 2)
    window = make_window(fock, ANN)
    f = np.zeros(fock.K, dtype=complex)
    f[list(fock.space.region_modes(2))] = rng.normal(size=2) + 1j * rng.normal(size=2)
    obs = smeared_field(fock, f) * smeared_field(fock, f).adjoint()
    # charge in region 0, observable in disjoint region 2, ambient region 1
    assert localization_residual(window, ANN, 0, 1, 2, obs) <= 1e-12


def region_vector(rng, fock, region):
    """A random mode vector on the region's modes."""
    f = np.zeros(fock.K, dtype=complex)
    modes = list(fock.space.region_modes(region))
    f[modes] = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return f


def density(fock, f):
    """The gauge-invariant observable psi(f) psi(f)^*."""
    return smeared_field(fock, f) * smeared_field(fock, f).adjoint()


def oracle_morphism(window, region, mat):
    """phi_r m phi_r^* on the CSR route."""
    phi = oracle.implementer(window.fock, window.implementers[region].modes)
    return oracle.csr(phi @ mat @ oracle.adjoint(phi))


# (cover, modes per region, charge) within 12 modes; every pair of torus
# regions overlaps, so the torus has no disjoint pair to localize across
RESIDUAL_COVERS = [
    (annulus_cover(), 2, 1),
    (annulus_cover(), 2, 2),
    (figure_eight_cover(), 2, 1),
    (torus_cover(), 1, 1),
]


@pytest.mark.parametrize("index", range(len(RESIDUAL_COVERS)))
def test_morphism_residuals_equal_the_csr_oracle_bit_for_bit(index):
    # every (dst, src, e) and every admissible (o, ambient, e): the
    # library reads columns of term sums, the oracle multiplies CSR
    # matrices and reads the same window columns densely
    cover, m, kappa = RESIDUAL_COVERS[index]
    fock = fock_for(cover, m)
    window = make_window(fock, cover, kappa)
    rng = np.random.default_rng(71 + index)
    localized = 0
    for e in cover.regions:
        f, g = region_vector(rng, fock, e), region_vector(rng, fock, e)
        # psi(f)^* psi(g) + psi(g) psi(g)^*: charge zero, nonzero on the vacuum
        t = smeared_field(fock, f).adjoint() * smeared_field(fock, g) + density(fock, g)
        psi_f, psi_g = oracle.field(fock, f), oracle.field(fock, g)
        mat = oracle.csr(oracle.adjoint(psi_f) @ psi_g + psi_g @ oracle.adjoint(psi_g))
        for dst in cover.regions:
            for src in cover.regions:
                z = oracle.z1(window, dst, src)
                lhs = oracle_morphism(window, dst, mat)
                rhs = oracle.csr(z @ oracle_morphism(window, src, mat) @ oracle.adjoint(z))
                block = oracle.compress(window, lhs)
                got_block = window.compress(charge_morphism(window, dst, t))
                assert got_block.tobytes() == block.tobytes() and block.any()
                want = np.max(np.abs(block - oracle.compress(window, rhs)))
                got = intertwining_residual(window, dst, src, t)
                assert np.array(got).tobytes() == np.array(want).tobytes()
        for o in cover.regions:
            for ambient in cover.regions:
                if not (cover.are_disjoint(o, e) and cover.overlap_components(o, ambient)
                        and cover.overlap_components(e, ambient)):
                    with pytest.raises(SupportError):
                        localization_residual(window, cover, o, ambient, e, t)
                    continue
                z = oracle.z1(window, o, ambient)
                loc = oracle.csr(z @ oracle_morphism(window, ambient, mat) @ oracle.adjoint(z))
                s = window.columns[window.position(o)]
                col = np.zeros(fock.dim, dtype=complex)
                for r, v in t.column(s).items():
                    col[r] = v
                assert col.tobytes() == mat[:, [s]].toarray().ravel().tobytes() and col.any()
                want = np.max(np.abs(loc[:, [s]].toarray() - mat[:, [s]].toarray()))
                got = localization_residual(window, cover, o, ambient, e, t)
                assert np.array(got).tobytes() == np.array(want).tobytes()
                localized += 1
    assert (localized == 0) == (cover == torus_cover())


@pytest.mark.parametrize("cover, m, kappa", [(annulus_cover(), 4, 1), (circle_cover(24), 3, 2)],
                         ids=["annulus_16_modes", "circle24_72_modes"])
def test_localization_residual_past_the_envelope(cover, m, kappa):
    # 16 and 72 modes, past the 12-mode envelope of the dense matrix: the
    # residual reads one column per operator and is exactly zero
    fock = fock_for(cover, m)
    window = make_window(fock, cover, kappa)
    t = density(fock, region_vector(np.random.default_rng(5), fock, 2))
    with pytest.raises(CapacityError):
        t.matrix
    assert localization_residual(window, cover, 0, 1, 2, t) == 0.0
    assert intertwining_residual(window, 0, 1, t) == 0.0


def test_localization_preconditions():
    rng = np.random.default_rng(43)
    fock = fock_for(ANN, 2)
    window = make_window(fock, ANN)
    f = np.zeros(fock.K, dtype=complex)
    f[list(fock.space.region_modes(2))] = rng.normal(size=2)
    obs = smeared_field(fock, f) * smeared_field(fock, f).adjoint()
    with pytest.raises(SupportError):
        localization_residual(window, ANN, 1, 1, 2, obs)  # 1 and 2 overlap
    with pytest.raises(SupportError):
        localization_residual(window, ANN, 0, 1, 3, obs)  # obs not in region 3
    fig8 = figure_eight_cover()
    fock8 = fock_for(fig8, 1)
    w8 = make_window(fock8, fig8)
    g = np.zeros(fock8.K, dtype=complex)
    g[list(fock8.space.region_modes(3))] = 1.0
    far = smeared_field(fock8, g) * smeared_field(fock8, g).adjoint()
    with pytest.raises(SupportError):
        localization_residual(w8, fig8, 1, 4, 3, far)  # 1 does not meet 4


# ---------------------------------------------------------------------------
# loop invariants


def test_plain_loop_component_is_one():
    nerve, _, _, _, window = annulus_setup()
    t = plain_transporter(window, ANN)
    comp = topological_component(t, generator_loop(nerve, 0))
    assert comp.value == pytest.approx(1.0, abs=1e-12)
    assert comp.residual <= 1e-12


def test_twisted_loop_component_matches_holonomy():
    theta = 2 * np.pi / 7
    nerve, sigma, coc, fock, window = annulus_setup(theta=theta)
    t = twisted_transporter(window, coc)
    for e in t.entries.values():
        assert_partial_permutation(e.op, fock)
    loop = generator_loop(nerve, 0)
    assert_partial_permutation(z_path(t, loop).op, fock)
    comp = topological_component(t, loop)
    want = holonomy(coc, loop).complex_value
    assert comp.value == pytest.approx(want, abs=1e-12)
    assert comp.residual <= 1e-12
    assert comp.basepoint == loop.start


def test_topological_component_reads_the_chain_entry_bitwise():
    # a moving loop's value is the compressed CSR product's basepoint entry,
    # bit for bit, with residual 0; a loop that never moves is the
    # identity on the whole window, value 1 and residual 1.0
    rng = np.random.default_rng(67)
    for index in range(len(FOLD_COVERS)):
        cover, ts = fold_setup(index, 6)
        for t in ts:
            a = int(rng.choice(cover.regions))
            out = random_crossing_path(rng, cover, int(rng.integers(1, 6)), a)
            back = random_crossing_path(rng, cover, int(rng.integers(1, 6)), out.end)
            loop = path_compose(path_compose(out, back), path_reverse(back))
            loop = path_compose(loop, path_reverse(out))
            comp = topological_component(t, loop)
            ia = t.window.position(a)
            want = oracle_block(t, loop.crossings())[ia, ia]
            if window_chain(t, loop.crossings()) is None:
                assert want == 1.0 and comp.value == 1.0 and comp.residual == 1.0
                continue
            assert np.array(comp.value).tobytes() == want.tobytes()
            assert comp.residual == 0.0
        still = approximate_curve(cover, [cover.regions[0]] * 3)
        comp = topological_component(ts[1], still)
        assert (comp.value, comp.residual) == (1.0, 1.0)


def test_classify_nan_cocycle_fails_closed():
    # a NaN phase built through the library: the loop's entry is NaN, so
    # the residual must be NaN, never the 0.0 that max(0.0, nan) gives
    nerve, _, _, _, window = annulus_setup()
    sigma = SigmaMorphism({"g0": PhaseU1(float("nan"))}, PhaseU1(0.0))
    t = twisted_transporter(window, transition_cocycle(sigma, nerve))
    assert np.isnan(classify(t, nerve).residuals["g0"])


def test_topological_component_rejects_open_path():
    _, _, coc, _, window = annulus_setup()
    t = twisted_transporter(window, coc)
    with pytest.raises(InvalidPath):
        topological_component(t, approximate_curve(ANN, [0, 1, 2]))


def test_transition_amplitude_matches_holonomy():
    rng = np.random.default_rng(47)
    nerve, _, coc, _, window = annulus_setup(theta=0.8)
    t = twisted_transporter(window, coc)

    def check(p, q):
        amp = transition_amplitude(t, p, q)
        loop = path_compose(p, path_reverse(q))
        want = holonomy(coc, loop).complex_value
        assert amp == pytest.approx(want, abs=1e-12)

    # opposite ways around the ring, and a double winding
    check(approximate_curve(ANN, [0, 1]), approximate_curve(ANN, [0, 3, 2, 1]))
    check(approximate_curve(ANN, [0, 1, 2, 3, 0, 1, 2, 3, 0]),
          approximate_curve(ANN, [0]))
    checked = 0
    for _ in range(40):
        a = int(rng.choice(ANN.regions))
        p = approximate_curve(ANN, random_walk(rng, ANN, int(rng.integers(1, 7)), a))
        q = approximate_curve(ANN, random_walk(rng, ANN, int(rng.integers(1, 7)), a))
        if p.end != q.end:
            continue
        check(p, q)
        checked += 1
    assert checked >= 5


def test_transition_amplitude_equals_csr_apply_bitwise():
    # the window columns give the bits of the CSR route, np.vdot of the
    # two transported charged vectors, signed zeros included
    rng = np.random.default_rng(59)
    for index in range(len(FOLD_COVERS)):
        cover, ts = fold_setup(index, 4)
        for t in ts:
            for _ in range(6):
                a = int(rng.choice(cover.regions))
                p = random_crossing_path(rng, cover, int(rng.integers(0, 9)), a)
                back = random_crossing_path(rng, cover, int(rng.integers(0, 9)), p.end)
                q = path_compose(p, path_compose(back, path_reverse(back)))
                v = np.eye(t.window.fock.dim, dtype=complex)[:, t.window.columns[t.window.position(a)]]
                zq, zp = (oracle.oracle_product(t, r.crossings()) for r in (q, p))
                want = np.vdot(zq @ v, zp @ v)
                got = transition_amplitude(t, p, q)
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_transition_amplitude_trivial_sigma_is_one():
    nerve, _, _, _, window = annulus_setup(theta=0.0)
    coc = transition_cocycle(SigmaMorphism({"g0": PhaseU1(0.0)}, PhaseU1(0.0)),
                             build_nerve(ANN))
    t = twisted_transporter(window, coc)
    p = approximate_curve(ANN, [0, 1, 2, 3, 0, 1, 2])
    q = approximate_curve(ANN, [0, 3, 2])
    assert transition_amplitude(t, p, q) == pytest.approx(1.0, abs=1e-12)


def test_transition_amplitude_endpoint_mismatch():
    _, _, coc, _, window = annulus_setup()
    t = twisted_transporter(window, coc)
    with pytest.raises(InvalidPath):
        transition_amplitude(
            t, approximate_curve(ANN, [0, 1]), approximate_curve(ANN, [0, 3])
        )


# ---------------------------------------------------------------------------
# classification


def test_classify_plain_is_dhr():
    nerve, _, _, _, window = annulus_setup()
    t = plain_transporter(window, ANN)
    c = classify(t, nerve)
    assert c.kind == "DHR" and c.dimension == 1
    assert set(c.components) == {"g0"}
    assert max(c.residuals.values()) <= 1e-12


def test_classify_twisted_is_topological():
    nerve, sigma, coc, _, window = annulus_setup(theta=np.pi / 3)
    t = twisted_transporter(window, coc)
    c = classify(t, nerve)
    assert c.kind == "topological"
    assert distance(c.components["g0"], PhaseU1(np.pi / 3)) <= 1e-10


def test_classify_agrees_with_trivialize():
    rng = np.random.default_rng(53)
    for cover, m in [(ANN, 1), (disk_cover(), 2), (torus_cover(), 1)]:
        nerve = build_nerve(cover)
        pres = pi1_presentation(nerve)
        fock = fock_for(cover, m)
        window = make_window(fock, cover)
        for _ in range(5):
            sigma = u1_sigma_from_h1(
                pres, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
            )
            coc = transition_cocycle(sigma, nerve)
            t = twisted_transporter(window, coc)
            c = classify(t, nerve)
            assert c.kind == ("DHR" if trivialize(coc, nerve).success
                              else "topological")


# ---------------------------------------------------------------------------
# coefficient-only matrix layer


def fig8_matrix_layer():
    cover = figure_eight_cover()
    nerve = build_nerve(cover)
    sigma = SigmaMorphism(
        {"g0": MatrixUn(1j * SX), "g1": MatrixUn(1j * SY)}, MatrixUn(np.eye(2))
    )
    coc = transition_cocycle(sigma, nerve)
    return cover, nerve, sigma, rho_layer_transporter(coc)


def test_rho_layer_requires_matrix_identity():
    nerve = build_nerve(ANN)
    sigma = SigmaMorphism({"g0": PhaseU1(0.3)}, PhaseU1(0.0))
    coc = transition_cocycle(sigma, nerve)
    with pytest.raises(VariantMismatch):
        rho_layer_transporter(coc)


def test_default_rho_layer_wraps_the_cocycle_itself():
    # the coefficient-only layer is the cocycle: no copy of the values, no second table
    _, nerve, sigma, _ = fig8_matrix_layer()
    coc = transition_cocycle(sigma, nerve)
    assert rho_layer_transporter(coc) is coc


def test_fig8_commutator_holonomy():
    cover, nerve, sigma, t = fig8_matrix_layer()
    pres = pi1_presentation(nerve)
    comm = approximate_curve(cover, [0, 1, 2, 0, 3, 4, 0, 2, 1, 0, 4, 3, 0])
    val = holonomy(t, comm)
    assert distance(val, MatrixUn(-np.eye(2))) <= 1e-12
    # holonomy equals evaluating the loop class through sigma
    word = loop_class(pres, comm)
    assert distance(val, sigma.evaluate(word)) <= 1e-12
    assert distance(val, MatrixUn(np.eye(2))) >= 0.1


def test_rho_holonomy_and_matrix_z_path_match_stepwise_compose():
    cover, nerve, sigma, m = fig8_matrix_layer()
    coc = transition_cocycle(sigma, nerve)  # a second cocycle, with its own transport table
    # the second loop crosses g0 once, in reverse, so an orientation slip shows
    for visited in ([0, 1, 1, 2, 0, 3, 4, 0, 2, 1, 0, 4, 3, 3, 0], [0, 2, 1, 0, 3, 0]):
        loop = approximate_curve(cover, visited)
        acc = m.identity
        for st in loop.steps:
            acc = compose(m.value(st.dst, st.src, st.comp), acc)
        assert np.array_equal(holonomy(m, loop).mat, acc.mat)
        assert np.array_equal(holonomy(coc, loop).mat, acc.mat)


def test_fig8_classify_topological_dim2():
    cover, nerve, _, t = fig8_matrix_layer()
    c = classify(t, nerve)
    assert c.kind == "topological" and c.dimension == 2
    assert distance(c.components["g0"], MatrixUn(1j * SX)) <= 1e-12
    assert distance(c.components["g1"], MatrixUn(1j * SY)) <= 1e-12


def test_rho_holonomy_matches_path_ordered_exp():
    cover, nerve, _, t = fig8_matrix_layer()
    a_then_b = path_compose(generator_loop(nerve, 0), generator_loop(nerve, 1))
    val = holonomy(t, a_then_b)
    steps = [
        AntiHermitianUn(1j * (np.pi / 2) * SX),
        AntiHermitianUn(1j * (np.pi / 2) * SY),
    ]
    want = path_ordered_exp(steps)  # later steps multiply on the left
    assert distance(val, want) <= 1e-12

