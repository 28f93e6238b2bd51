import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csr_oracle as oracle

from flatnet.cocycles import (
    InvalidPotential,
    SigmaMorphism,
    dress_cocycle,
    identity_cocycle,
    lift_potential,
    transition_cocycle,
)
from flatnet.covers import annulus_cover, build_nerve, circle_cover, torus_cover
from flatnet.fock import (
    CAPACITY_MODES,
    CapacityError,
    FieldOp,
    FockSpace,
    MixedGrade,
    OneParticleSpace,
    SupportError,
    allocate_modes,
    anticommutator,
    commutator,
    field,
    gauge_action,
    glue_psi_A,
    grading,
    identity_op,
    nested_pair_residual,
    normal_commutation_check,
    smeared_field,
    twisted_local_field,
    twisted_product,
)
from flatnet.groups import PhaseU1
from flatnet.sectors import make_window, z1

ANN = annulus_cover()


def small_fock(modes_per_region=1, cover=ANN):
    return FockSpace(allocate_modes(cover, modes_per_region))


def random_mode_vector(rng, fock, region=None):
    f = rng.normal(size=fock.K) + 1j * rng.normal(size=fock.K)
    if region is not None:
        mask = np.zeros(fock.K)
        mask[list(fock.space.region_modes(region))] = 1.0
        f = f * mask
    return f


def coboundary_potential(cover, rng):
    nerve = build_nerve(cover)
    lam = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cover.regions}
    coc = dress_cocycle(identity_cocycle(cover, PhaseU1(0.0)), lam)
    return lift_potential(coc, nerve)


# ---------------------------------------------------------------------------
# spaces


def test_mode_allocation_and_owners():
    sp = allocate_modes(ANN, 2)
    assert sp.num_modes == 8
    assert sp.region_modes(0) == (0, 1)
    assert sp.region_modes(3) == (6, 7)
    f = np.zeros(8)
    f[2] = 1.0
    f[7] = 2.0
    assert sp.owners(f) == frozenset({1, 3})


def test_region_modes_index_matches_scan():
    owners = (2, 0, 2, 5, 0, 2)
    space = OneParticleSpace(owners)
    for region in (0, 2, 5, 1, -1, np.int64(2)):
        want = tuple(i for i, r in enumerate(owners) if r == region)
        assert space.region_modes(region) == want
        assert type(space.region_modes(region)) is tuple
    assert space.region_modes(2) is space.region_modes(2)  # indexed once
    assert space == OneParticleSpace(owners) and hash(space) == hash(OneParticleSpace(owners))


def test_inner_product_conjugate_first():
    sp = allocate_modes(ANN, 1)
    f = np.array([1j, 0, 0, 0], dtype=complex)
    g = np.array([2.0, 0, 0, 0], dtype=complex)
    assert sp.inner(f, g) == pytest.approx(-2j)
    assert sp.inner(g, f) == pytest.approx(2j)


def test_fock_dimensions_and_capacity():
    fock = small_fock(2)
    assert fock.K == 8 and fock.dim == 256
    # past the envelope (14 > 12 modes) creators, their products, their
    # columns and the window run; the dense matrix and norm_max, which read
    # all 2^K columns, raise CapacityError
    big = FockSpace(allocate_modes(torus_cover(), 2))
    a, b = big.creator(13), big.creator(0)
    assert len((a * b).terms) == 1 and (a * a).terms == {}
    assert anticommutator(a, b).terms == {}
    window = make_window(big, torus_cover())
    assert window.columns[7] == 1 << 12  # region 6 owns modes 12 and 13
    assert window.compress(z1(window, 6, 0))[7, 1] == 1
    assert a.column(0) == {1 << 13: 1} and a.column(1 << 13) == {}
    for refused in (
        lambda: big.dim,
        lambda: a.matrix,
        a.norm_max,
    ):
        with pytest.raises(CapacityError, match="14 modes"):
            refused()


def test_capacity_boundary():
    fock = FockSpace(allocate_modes(circle_cover(12), 1))  # exactly at the envelope
    assert CAPACITY_MODES == 12 and fock.dim == 4096
    with pytest.raises(CapacityError, match="13 modes"):
        FockSpace(allocate_modes(circle_cover(13), 1)).dim


def test_vacuum_and_number_operator():
    # the number operator sum_m c_m^+ c_m is diagonal in the occupation
    # basis: it keeps each bitset, scaled by its popcount, and sends the
    # vacuum (bitset 0) to zero
    fock = small_fock(1)
    number = FieldOp({}, fock, frozenset())
    for m in range(fock.K):
        number = number + fock.creator(m) * fock.creator(m).adjoint()
    assert number.column(0) == {}
    for s in range(1, fock.dim):
        assert number.column(s) == {s: bin(s).count("1")}
    assert np.array_equal(np.diag(number.matrix), oracle.occupation_counts(fock))


@pytest.mark.parametrize("K", range(1, CAPACITY_MODES + 1))
def test_creator_matches_loop_reference_bit_for_bit(K):
    # one term (0, 1<<m, 1<<m, (1<<m)-1) with coefficient 1, which acts on
    # every bitset as the reference creator does, entry for entry
    fock = FockSpace(OneParticleSpace(tuple(range(K))))
    for m in range(K):
        got, want = fock.creator(m), oracle.loop_creator(fock, m)
        bit = 1 << m
        assert got.terms == {(0, bit, bit, bit - 1): 1.0}
        assert np.array(got.terms[(0, bit, bit, bit - 1)]).tobytes() == np.array(1 + 0j).tobytes()
        assert got.support == frozenset({m}) and got.charge == 1
        got = oracle.terms_csr(fock, got.terms)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


# Dyadic coefficients with nonzero real and imaginary parts.  Their sums
# are exact in every order and hold no -0.0, so the term-order sum and the
# oracle's sum of duplicates agree in bits; and the oracle's sign, a
# complex product by +-1, has the bits of the library's negation on them
# (on a zero part the product gives +0.0 where negation gives -0.0).
DYADIC = (1.0 + 1.0j, -1.0 + 0.5j, 0.5 - 2.0j, -0.25 - 0.25j, 2.0 + 1.0j)


def random_terms(rng, K, count):
    """Terms on random masks, as ``FieldOp`` keys them: ``zero`` clear of
    ``one``, ``flip`` inside the conditioned modes, ``sign`` outside."""
    terms = {}
    for _ in range(count):
        one, zero, flip, sign = (int(x) for x in rng.integers(0, 1 << K, 4))
        zero &= ~one
        # low-weight conditions, so terms collide on shared bitsets
        one, zero = one & int(rng.integers(0, 1 << K)), zero & int(rng.integers(0, 1 << K))
        terms[(one, zero, flip & (one | zero), sign & ~(one | zero))] = complex(rng.choice(DYADIC))
    return terms


@pytest.mark.parametrize("K", [1, 3, 6, 9, CAPACITY_MODES])
def test_column_matches_terms_csr_bit_for_bit(K):
    # every column of random operators, against the oracle that evaluates
    # each term on each basis state: same rows, same entry bits
    fock = FockSpace(OneParticleSpace(tuple(range(K))))
    rng = np.random.default_rng(K)
    for count in (0, 1, 4, 12):
        op = FieldOp(random_terms(rng, K, count), fock, frozenset())
        want = oracle.terms_csr(fock, op.terms).tocsc()
        states = range(fock.dim) if K < CAPACITY_MODES else rng.integers(0, fock.dim, 256).tolist()
        for s in states:
            col = op.column(s)
            rows = want.indices[want.indptr[s]:want.indptr[s + 1]].tolist()
            data = want.data[want.indptr[s]:want.indptr[s + 1]]
            assert sorted(col) == sorted(rows)
            assert np.array([col[r] for r in rows], dtype=complex).tobytes() == data.tobytes()
    if K > 1:  # a lone entry is the coefficient or its negation, zero parts signed
        c = complex(-0.0, 0.5)
        lone = FieldOp({(0, 1, 1, 2): c}, fock, frozenset())
        assert np.array(lone.column(2)[3]).tobytes() == np.array(-c).tobytes()
        assert np.array(lone.column(0)[1]).tobytes() == np.array(c).tobytes()


def eager_grading(fock, m):
    """Charge and parity classified eagerly from the oracle's cutoff scan
    of a CSR matrix."""
    grades = oracle.scan_grades(fock, m)
    if not grades:
        return 0, "even"
    if len(grades) == 1:
        g = next(iter(grades))
        return g, "odd" if g % 2 else "even"
    parities = {g % 2 for g in grades}
    return None, ("odd" if parities == {1} else "even" if parities == {0} else "mixed")


GRADING_FOCK = small_fock(1)  # 4 modes, dimension 16


def unit_field(m, star, z):
    """A unit-mode field or its adjoint, scaled, with its CSR oracle."""
    f = np.eye(GRADING_FOCK.K)[m]
    op, mat = smeared_field(GRADING_FOCK, f), oracle.field(GRADING_FOCK, f)
    if star:
        op, mat = op.adjoint(), oracle.adjoint(mat)
    return op.scaled(z), oracle.csr(mat * complex(z))


def gauge_pair(pair, zeta):
    op, mat = pair
    return gauge_action(zeta, op), oracle.gauge(zeta, mat, GRADING_FOCK)


# (operator, CSR oracle) pairs: every leaf and combinator is built twice,
# once by the library's term algebra and once by scipy
leaf_ops = st.builds(
    unit_field,
    st.integers(0, GRADING_FOCK.K - 1),
    st.booleans(),
    st.sampled_from([1.0, -1.0, 0.5j, 2.0 - 1.0j]),
) | st.sampled_from([
    (identity_op(GRADING_FOCK), oracle.identity(GRADING_FOCK)),
    (FieldOp({}, GRADING_FOCK, frozenset()), oracle.csr((GRADING_FOCK.dim, GRADING_FOCK.dim))),
])

field_exprs = st.recursive(
    leaf_ops,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: (ab[0][0] * ab[1][0], oracle.csr(ab[0][1] @ ab[1][1]))),
        st.tuples(sub, sub).map(lambda ab: (ab[0][0] + ab[1][0], oracle.csr(ab[0][1] + ab[1][1]))),
        st.tuples(sub, sub).map(lambda ab: (ab[0][0] - ab[1][0], oracle.csr(ab[0][1] - ab[1][1]))),
        sub.map(lambda a: (a[0].adjoint(), oracle.adjoint(a[1]))),
        st.tuples(sub, st.sampled_from([1.0, -1.0, 1j, -1j])).map(lambda az: gauge_pair(*az)),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(field_exprs, st.booleans())
def test_lazy_grading_matches_eager_scan(pair, parity_first):
    op, mat = pair
    fresh = FieldOp(dict(op.terms), op.fock, op.support)
    want_charge, want_parity = eager_grading(op.fock, mat)
    if parity_first:
        assert fresh.parity == want_parity
        assert fresh.charge == want_charge
    else:
        assert fresh.charge == want_charge
        assert fresh.parity == want_parity
    assert fresh.charge == want_charge and fresh.parity == want_parity  # cached reads


@settings(max_examples=200, deadline=None)
@given(field_exprs)
def test_term_algebra_matches_csr_oracle(pair):
    # coefficients are small dyadic numbers, so products, sums, adjoints
    # and gauge actions by zeta in {1, -1, 1j, -1j} are exact on both routes
    op, mat = pair
    assert np.array_equal(op.matrix, mat.toarray())
    assert np.isclose(op.norm_max(), np.abs(mat.data).max(initial=0.0), rtol=1e-15, atol=1e-15)
    assert all(c != 0 for c in op.terms.values())  # no stored zeros


def test_creator_annihilator_adjoint():
    fock = small_fock(1)
    for m in range(fock.K):
        c = fock.creator(m).matrix
        a = fock.creator(m).adjoint().matrix
        assert np.array_equal(a, c.conj().T)
        assert np.max(np.abs(c @ c)) == 0.0


# ---------------------------------------------------------------------------
# CARs


def test_unit_mode_car_exact():
    fock = small_fock(1)
    f = np.zeros(fock.K)
    f[0] = 1.0
    psi = smeared_field(fock, f)
    acom = anticommutator(psi.adjoint(), psi)
    assert np.array_equal(acom.matrix, np.eye(fock.dim))  # exact, entrywise


def test_car_random_pairs():
    rng = np.random.default_rng(13)
    fock = small_fock(2)  # K = 8
    for _ in range(20):
        f = random_mode_vector(rng, fock)
        g = random_mode_vector(rng, fock)
        first = anticommutator(smeared_field(fock, f).adjoint(), smeared_field(fock, g))
        want = fock.space.inner(f, g) * np.eye(fock.dim)
        assert np.max(np.abs(first.matrix - want)) <= 1e-12
        second = anticommutator(smeared_field(fock, f), smeared_field(fock, g))
        assert second.terms == {}  # every c_i^+ c_j^+ cancels its partner exactly


def test_field_squares_to_zero_exactly():
    rng = np.random.default_rng(5)
    fock = small_fock(2)
    for _ in range(10):
        psi = smeared_field(fock, random_mode_vector(rng, fock))
        assert (psi * psi).norm_max() == 0.0
        assert (psi * psi).terms == {}  # cancellation leaves no term


def test_field_linearity_and_support():
    rng = np.random.default_rng(3)
    fock = small_fock(2)
    f = random_mode_vector(rng, fock, region=1)
    g = random_mode_vector(rng, fock, region=3)
    lhs = smeared_field(fock, 2.0 * f + 1j * g)
    rhs = smeared_field(fock, f).scaled(2.0) + smeared_field(fock, g).scaled(1j)
    assert (lhs - rhs).norm_max() <= 1e-14
    assert smeared_field(fock, f).support == frozenset({1})
    assert lhs.support == frozenset({1, 3})


def test_field_dimension_mismatch():
    fock = small_fock(1)
    with pytest.raises(ValueError):
        smeared_field(fock, np.ones(fock.K + 1))


def test_field_alias():
    assert field is smeared_field


# ---------------------------------------------------------------------------
# grading and gauge action


def test_field_grades():
    rng = np.random.default_rng(7)
    fock = small_fock(1)
    psi = smeared_field(fock, random_mode_vector(rng, fock))
    phi = smeared_field(fock, random_mode_vector(rng, fock))
    assert grading(psi) == 1 and psi.parity == "odd"
    assert grading(psi * phi.adjoint()) == 0
    assert grading(psi * phi) == 2
    assert (psi * phi).parity == "even"
    mixed = psi + psi.adjoint()
    assert mixed.parity == "odd" and mixed.charge is None
    with pytest.raises(MixedGrade):
        grading(mixed)
    assert FieldOp({}, fock, frozenset()).charge == 0
    assert grading(identity_op(fock)) == 0


def test_grades_add_under_products():
    rng = np.random.default_rng(11)
    fock = small_fock(1)
    a = smeared_field(fock, random_mode_vector(rng, fock))
    b = smeared_field(fock, random_mode_vector(rng, fock))
    prod = a * b * b.adjoint()
    assert grading(prod) == grading(a) + grading(b) - grading(b)


def test_gauge_action_phases():
    rng = np.random.default_rng(19)
    fock = small_fock(1)
    psi = smeared_field(fock, random_mode_vector(rng, fock))
    z = np.exp(0.77j)
    assert (gauge_action(z, psi) - psi.scaled(z)).norm_max() <= 1e-13
    even = psi * psi.adjoint()
    assert (gauge_action(-1.0, even) - even).norm_max() <= 1e-13
    two = psi * smeared_field(fock, random_mode_vector(rng, fock))
    assert (gauge_action(z, two) - two.scaled(z * z)).norm_max() <= 1e-13
    with pytest.raises(ValueError):
        gauge_action(2.0, psi)


def test_gauge_action_rejects_nan_parameter():
    rng = np.random.default_rng(19)
    fock = small_fock(1)
    psi = smeared_field(fock, random_mode_vector(rng, fock))
    with pytest.raises(ValueError, match="unit circle"):
        gauge_action(complex("nan"), psi)


NON_FINITE = [float("nan"), float("inf"), -float("inf"), complex(0.0, float("inf"))]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_field_rejects_non_finite_mode_vector(bad):
    fock = small_fock(1)
    f = np.zeros(fock.K, dtype=complex)
    f[0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        smeared_field(fock, f)


def non_finite_ops(fock, bad):
    """A scaled field, a scaled gauge-invariant product, and a field with
    one term's coefficient replaced: each holds a NaN or infinite
    coefficient."""
    psi = smeared_field(fock, np.eye(fock.K)[0] + np.eye(fock.K)[1])
    key = list(psi.terms)[-1]  # evaluated after the finite term
    return [
        psi.scaled(bad),
        (psi * psi.adjoint()).scaled(bad),
        FieldOp({**psi.terms, key: complex(bad)}, fock, psi.support),
    ]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_operator_has_no_grading(bad):
    fock = small_fock(1)
    for op in non_finite_ops(fock, bad):
        assert not np.isfinite(op.norm_max())  # a NaN entry is never dropped
        with pytest.raises(ValueError, match="non-finite"):
            op.charge
        with pytest.raises(ValueError, match="non-finite"):
            op.parity
        with pytest.raises(ValueError, match="non-finite"):
            grading(op)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_operator_fails_closed_in_twists_and_brackets(bad):
    fock = small_fock(2)
    s = smeared_field(fock, np.eye(fock.K)[4])  # region 2, disjoint from region 0
    for op in non_finite_ops(fock, bad):
        with pytest.raises(ValueError, match="non-finite"):
            twisted_product(op, s, PhaseU1(0.7))
        with pytest.raises(ValueError, match="non-finite"):
            normal_commutation_check(ANN, op, s)
        with pytest.raises(ValueError, match="non-finite"):
            normal_commutation_check(ANN, s, op)


# ---------------------------------------------------------------------------
# normal commutation


def test_normal_commutation_signs():
    rng = np.random.default_rng(23)
    fock = small_fock(2)
    # regions 0 and 2 are declared disjoint on the annulus
    a_odd = smeared_field(fock, random_mode_vector(rng, fock, region=0))
    b_odd = smeared_field(fock, random_mode_vector(rng, fock, region=2))
    assert normal_commutation_check(ANN, a_odd, b_odd) == 0.0  # CAR, exact
    a_even = a_odd * a_odd.adjoint()
    b_even = b_odd * b_odd.adjoint()
    assert normal_commutation_check(ANN, a_even, b_even) == 0.0
    assert normal_commutation_check(ANN, a_even, b_odd) == 0.0


def test_normal_commutation_guards():
    rng = np.random.default_rng(29)
    fock = small_fock(2)
    a = smeared_field(fock, random_mode_vector(rng, fock, region=0))
    b = smeared_field(fock, random_mode_vector(rng, fock, region=1))
    with pytest.raises(SupportError):
        normal_commutation_check(ANN, a, b)  # adjacent, not disjoint
    mixed = a + a * a.adjoint()  # odd plus even, parity undefined
    c = smeared_field(fock, random_mode_vector(rng, fock, region=2))
    assert mixed.parity == "mixed"
    with pytest.raises(MixedGrade):
        normal_commutation_check(ANN, mixed, c)


# ---------------------------------------------------------------------------
# twisted fields


def test_twisted_field_zero_potential():
    rng = np.random.default_rng(31)
    fock = small_fock(2)
    nerve = build_nerve(ANN)
    pot = lift_potential(identity_cocycle(ANN, PhaseU1(0.0)), nerve)
    f = random_mode_vector(rng, fock, region=1)
    tw = twisted_local_field(fock, pot, 1, f)
    assert (tw - smeared_field(fock, f)).norm_max() == 0.0


def test_twisted_field_quarter_turn():
    fock = small_fock(1)
    pot_angles = {e: 0.0 for e in ANN.overlaps}
    prim = {0: np.pi / 2, 1: np.pi / 2, 2: np.pi / 2, 3: np.pi / 2}
    from flatnet.cocycles import FlatPotentialU1

    pot = FlatPotentialU1(cover=ANN, angles=pot_angles, primitives=prim)
    f = np.zeros(fock.K)
    f[0] = 1.0
    tw = twisted_local_field(fock, pot, 0, f)
    want = smeared_field(fock, f).scaled(-1j)
    assert (tw - want).norm_max() <= 1e-15


def test_twisted_field_guards():
    rng = np.random.default_rng(37)
    fock = small_fock(2)
    nerve = build_nerve(ANN)
    sigma = SigmaMorphism({"g0": PhaseU1(1.0)}, PhaseU1(0.0))
    obstructed = lift_potential(transition_cocycle(sigma, nerve), nerve)
    f = random_mode_vector(rng, fock, region=0)
    with pytest.raises(InvalidPotential):
        twisted_local_field(fock, obstructed, 0, f)  # no primitives
    pot = coboundary_potential(ANN, rng)
    with pytest.raises(SupportError):
        twisted_local_field(fock, pot, 2, f)  # f lives in region 0
    with pytest.raises(SupportError):
        twisted_local_field(fock, pot, 9, f)


def test_nested_pair_relation():
    rng = np.random.default_rng(41)
    fock = small_fock(2)
    for _ in range(10):
        pot = coboundary_potential(ANN, rng)
        for (u, v, c) in ANN.overlaps:
            f = random_mode_vector(rng, fock, region=u)
            assert nested_pair_residual(fock, pot, v, u, f, c) <= 1e-12
            g = random_mode_vector(rng, fock, region=v)
            assert nested_pair_residual(fock, pot, u, v, g, c) <= 1e-12


def test_nested_pair_guards():
    rng = np.random.default_rng(43)
    fock = small_fock(2)
    pot = coboundary_potential(ANN, rng)
    f = random_mode_vector(rng, fock, region=0)
    with pytest.raises(SupportError):
        nested_pair_residual(fock, pot, 2, 0, f)  # no shared overlap


# ---------------------------------------------------------------------------
# gluing


def test_glue_single_region_matches_twisted_field():
    rng = np.random.default_rng(47)
    fock = small_fock(2)
    pot = coboundary_potential(ANN, rng)
    f = random_mode_vector(rng, fock, region=1)
    glued = glue_psi_A(fock, pot, {1: f})
    tw = twisted_local_field(fock, pot, 1, f)
    assert (glued.op - tw).norm_max() == 0.0
    assert glued.chart_residual == 0.0


def test_glue_transported_section_chart_independent():
    rng = np.random.default_rng(53)
    fock = small_fock(2)
    for _ in range(10):
        pot = coboundary_potential(ANN, rng)
        s0 = random_mode_vector(rng, fock)
        section = {0: s0}
        # transport around the ring: s_v = exp(i lift(v<-u)) s_u
        for (u, v) in [(0, 1), (1, 2), (2, 3)]:
            section[v] = np.exp(1j * pot.lift(v, u, 0)) * section[u]
        glued = glue_psi_A(fock, pot, section)
        assert glued.chart_residual <= 1e-12
        assert glued.charts == (0, 1, 2, 3)


def test_glue_rejects_nan_section():
    rng = np.random.default_rng(59)
    fock = small_fock(2)
    pot = coboundary_potential(ANN, rng)
    s0 = random_mode_vector(rng, fock)
    with pytest.raises(SupportError, match="inconsistent"):
        glue_psi_A(fock, pot, {0: s0, 1: np.full_like(s0, np.nan)})


def test_glue_rejects_inconsistent_section():
    rng = np.random.default_rng(59)
    fock = small_fock(2)
    pot = coboundary_potential(ANN, rng)
    s0 = random_mode_vector(rng, fock)
    bad = {0: s0, 1: 2.0 * s0}  # wrong transition factor
    with pytest.raises(SupportError):
        glue_psi_A(fock, pot, bad)


def test_glue_trivial_potential_is_plain_field():
    rng = np.random.default_rng(61)
    fock = small_fock(2)
    nerve = build_nerve(ANN)
    pot = lift_potential(identity_cocycle(ANN, PhaseU1(0.0)), nerve)
    f = random_mode_vector(rng, fock)
    glued = glue_psi_A(fock, pot, {r: f for r in ANN.regions})
    assert (glued.op - smeared_field(fock, f)).norm_max() == 0.0


# ---------------------------------------------------------------------------
# twisted products


def test_twisted_product_observable_invisible():
    rng = np.random.default_rng(67)
    fock = small_fock(1)
    psi = smeared_field(fock, random_mode_vector(rng, fock, region=0))
    obs = psi * psi.adjoint()
    s = smeared_field(fock, random_mode_vector(rng, fock, region=1))
    assert (twisted_product(obs, s, PhaseU1(1.3)) - obs * s).norm_max() <= 1e-14


def test_twisted_product_charge_one_phase():
    rng = np.random.default_rng(71)
    fock = small_fock(1)
    psi = smeared_field(fock, random_mode_vector(rng, fock, region=0))
    s = smeared_field(fock, random_mode_vector(rng, fock, region=1))
    theta = 0.9
    got = twisted_product(psi, s, PhaseU1(theta))
    want = (psi * s).scaled(np.exp(1j * theta))
    assert (got - want).norm_max() <= 1e-14


def test_twisted_product_two_steps_compose():
    rng = np.random.default_rng(73)
    fock = small_fock(1)
    psi2 = smeared_field(fock, random_mode_vector(rng, fock, region=0)) * \
        smeared_field(fock, random_mode_vector(rng, fock, region=2))
    s = smeared_field(fock, random_mode_vector(rng, fock, region=1))
    a, b = 0.4, 1.1
    once = twisted_product(psi2, s, PhaseU1(a + b))
    twice = twisted_product(twisted_product(psi2, identity_op(fock), PhaseU1(a)), s,
                            PhaseU1(b))
    assert (once - twice).norm_max() <= 1e-13


def test_twisted_product_mixed_grade_rejected():
    rng = np.random.default_rng(79)
    fock = small_fock(1)
    psi = smeared_field(fock, random_mode_vector(rng, fock))
    with pytest.raises(MixedGrade):
        twisted_product(psi + psi.adjoint(), psi, PhaseU1(0.2))
