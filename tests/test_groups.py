import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatnet.groups as groups_module
from flatnet.groups import (
    ANTIHERM_TOL,
    GROUP_EQ_TOL,
    UNITARY_TOL,
    AntiHermitianUn,
    FreeWord,
    MatrixUn,
    PhaseU1,
    ScalarU1,
    VariantMismatch,
    compose,
    distance,
    entries,
    gaps,
    inverse,
    is_identity,
    ordered_products,
    path_ordered_exp,
    path_ordered_exp_subdivided,
    transport_table,
    tree_products,
    unitary_defects,
    wrap_angle,
    _as_unitary_loose,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


# ---------------------------------------------------------------------------
# angle canonicalization


def numpy_wrap_angle(theta):
    """wrap_angle's branch rule on np.remainder, the form it replaced."""
    with np.errstate(invalid="ignore"):
        w = float(np.remainder(theta + np.pi, 2.0 * np.pi)) - np.pi
    return np.pi if w <= -np.pi else w


def test_wrap_angle_matches_numpy_remainder_bit_for_bit():
    edges = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3 * np.pi, np.nextafter(np.pi, 0),
             np.nextafter(-np.pi, 0), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
             np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan, 1e16, -1e300]
    patterns = np.random.default_rng(0).integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64)
    for theta in edges + patterns.tolist():
        got, want = wrap_angle(theta), numpy_wrap_angle(theta)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want), theta


def test_wrap_angle_branch():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi  # tie resolves to +pi
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert abs(wrap_angle(2 * np.pi)) < 1e-15
    assert -np.pi < wrap_angle(123.456) <= np.pi


def test_phase_canonical_angle():
    assert PhaseU1(3 * np.pi).angle == pytest.approx(np.pi)
    assert PhaseU1(-np.pi).angle == np.pi
    p = PhaseU1(2.5)
    assert p.complex_value == pytest.approx(np.exp(1j * 2.5))


def test_phase_group_ops():
    a, b = PhaseU1(1.0), PhaseU1(2.5)
    assert compose(a, b).angle == pytest.approx(wrap_angle(3.5))
    assert is_identity(compose(a, inverse(a)))
    assert compose(compose(a, a), a).angle == pytest.approx(3.0)
    assert compose(inverse(a), inverse(a)).angle == pytest.approx(-2.0)
    assert distance(PhaseU1(np.pi - 1e-13), PhaseU1(-np.pi + 1e-13)) < 1e-11


def test_group_values_unhashable():
    with pytest.raises(TypeError):
        hash(PhaseU1(0.3))
    with pytest.raises(TypeError):
        {PhaseU1(0.3)}


def test_equality_is_tolerance_based():
    assert PhaseU1(1.0) == PhaseU1(1.0 + 1e-12)
    assert PhaseU1(1.0) != PhaseU1(1.0 + 1e-8)
    assert PhaseU1(0.0) != FreeWord((), ("a",))


# ---------------------------------------------------------------------------
# matrices


def test_matrix_unitarity_enforced():
    MatrixUn(np.eye(3))
    MatrixUn(SX)
    with pytest.raises(ValueError):
        MatrixUn(np.eye(2) * 1.001)
    with pytest.raises(ValueError):
        MatrixUn(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not unitary"):
        MatrixUn(np.array([[np.nan]]))


def test_matrix_group_ops():
    rng = np.random.default_rng(5)
    u = MatrixUn(random_unitary(rng, 3))
    v = MatrixUn(random_unitary(rng, 3))
    assert np.allclose(compose(u, v).mat, u.mat @ v.mat)
    assert is_identity(compose(u, inverse(u)), 1e-12)
    with pytest.raises(VariantMismatch):
        compose(u, MatrixUn(np.eye(2)))
    with pytest.raises(VariantMismatch):
        compose(u, PhaseU1(0.1))


def test_matrix_storage_immutable():
    u = MatrixUn(np.eye(2))
    with pytest.raises(ValueError):
        u.mat[0, 0] = 5.0


# ---------------------------------------------------------------------------
# free words


def test_free_word_reduction():
    ab = ("a", "b")
    w = FreeWord((1, 2, -2, -1, 1), ab)
    assert w.letters == (1,)
    assert FreeWord((1, -1), ab).letters == ()
    assert len(FreeWord((2, 2, 1), ab)) == 3


def test_free_word_reduces_across_concatenation():
    ab = ("a", "b")
    left = FreeWord((1, 2), ab)
    right = FreeWord((-2, -1, 2), ab)
    assert FreeWord(left.letters + right.letters, ab).letters == (2,)


def test_free_word_inverse_and_names():
    # words are loop classes, not group values: no inverse, no identity test
    ab = ("a", "b")
    w = FreeWord((1, -2), ab)
    for op in (inverse, is_identity):
        with pytest.raises(VariantMismatch, match=r"U\(1\) or U\(n\), not FreeWord"):
            op(w)
    assert w == FreeWord((1, 2, -2, -2), ab) and w != FreeWord((1, -2), ("a", "c"))
    assert w.as_names() == "a.b^-1"
    assert FreeWord((), ab).as_names() == "1"


def test_free_word_alphabet_guard():
    with pytest.raises(ValueError):
        FreeWord((3,), ("a", "b"))
    with pytest.raises(ValueError):
        FreeWord((0,), ("a",))
    with pytest.raises(VariantMismatch):
        compose(FreeWord((1,), ("a",)), FreeWord((1,), ("b",)))
    with pytest.raises(VariantMismatch):
        compose(FreeWord((1,), ("a",)), FreeWord((1,), ("a",)))


def test_is_identity_is_distance_to_identity_without_building_it(monkeypatch):
    nan = float("nan")
    values = [
        PhaseU1(0.0), PhaseU1(3e-11), PhaseU1(-1e-9), PhaseU1(np.pi), PhaseU1(nan),
        MatrixUn(np.eye(3)), MatrixUn(np.diag([1.0, np.exp(3e-11j)])), MatrixUn(SX),
        _as_unitary_loose(np.full((2, 2), nan)),
    ]
    ones = [PhaseU1(0.0) if isinstance(v, PhaseU1) else MatrixUn(np.eye(len(v.mat))) for v in values]
    for tol in (GROUP_EQ_TOL, 1e-12, 2.0, nan):
        want = [distance(v, one) <= tol for v, one in zip(values, ones)]
        built = []
        monkeypatch.setattr(MatrixUn, "__post_init__", lambda self: built.append(self))
        got = [is_identity(v, tol) for v in values]
        monkeypatch.undo()
        assert got == want and built == []
    assert not any(is_identity(v, nan) for v in values)  # a NaN tolerance fails
    with pytest.raises(VariantMismatch):
        is_identity(object())


# ---------------------------------------------------------------------------
# hypothesis properties

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(angles, angles, angles)
@settings(max_examples=200, deadline=None)
def test_phase_associativity(x, y, z):
    a, b, c = PhaseU1(x), PhaseU1(y), PhaseU1(z)
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    assert distance(lhs, rhs) < 1e-9


@given(angles)
@settings(max_examples=200, deadline=None)
def test_phase_inverse_cancels(x):
    a = PhaseU1(x)
    assert is_identity(compose(inverse(a), a), 1e-12)


@given(st.lists(st.integers(min_value=-3, max_value=3).filter(lambda k: k != 0),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_free_word_reduction_is_idempotent_and_invertible(letters):
    ab = ("a", "b", "c")
    w = FreeWord(tuple(letters), ab)
    again = FreeWord(w.letters, ab)
    assert again.letters == w.letters
    backwards = tuple(-l for l in reversed(w.letters))
    assert FreeWord(w.letters + backwards, ab).letters == ()
    assert FreeWord(backwards + w.letters, ab).letters == ()


# ---------------------------------------------------------------------------
# Lie layer and ordered exponentials


def test_antihermitian_guard():
    AntiHermitianUn(1j * SX)
    AntiHermitianUn(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        AntiHermitianUn(SX)  # Hermitian, not anti
    bad = 1j * SX + 1e-10 * np.eye(2)
    assert ANTIHERM_TOL < 1e-10
    with pytest.raises(ValueError):
        AntiHermitianUn(bad)
    with pytest.raises(ValueError, match="not anti-Hermitian"):
        AntiHermitianUn(np.array([[np.nan]]))


def test_scalar_steps_sum_exactly():
    steps = [ScalarU1(0.3), ScalarU1(-1.2), ScalarU1(2.0)]
    out = path_ordered_exp(steps)
    assert isinstance(out, PhaseU1)
    assert out.angle == pytest.approx(wrap_angle(0.3 - 1.2 + 2.0), abs=1e-15)


def test_empty_steps_identity():
    assert is_identity(path_ordered_exp([]))
    out = path_ordered_exp([], dim=3)
    assert isinstance(out, MatrixUn) and out.dim == 3
    with pytest.raises(VariantMismatch):
        path_ordered_exp([ScalarU1(0.1), AntiHermitianUn(1j * SX)])


def pauli_exp(theta, s):
    """exp(i theta s) for a Pauli matrix s (s^2 = I), in closed form."""
    return np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * s


def test_matrix_order_later_steps_left():
    x = AntiHermitianUn(1j * 0.7 * SX)
    y = AntiHermitianUn(1j * 0.4 * SY)
    got = path_ordered_exp([x, y])
    want = pauli_exp(0.4, SY) @ pauli_exp(0.7, SX)
    assert np.max(np.abs(got.mat - want)) < 1e-14
    swapped = path_ordered_exp([y, x])
    assert distance(got, swapped) > 0.01  # non-commuting, order matters


def test_commuting_steps_collapse():
    x = AntiHermitianUn(1j * 0.3 * SZ)
    y = AntiHermitianUn(1j * 1.1 * SZ)
    got = path_ordered_exp([x, y])
    want = np.diag([np.exp(1.4j), np.exp(-1.4j)])
    assert np.max(np.abs(got.mat - want)) < 1e-13


def test_subdivision_oracle_agrees():
    rng = np.random.default_rng(42)
    steps = []
    for _ in range(6):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        steps.append(AntiHermitianUn(0.5 * (h - h.conj().T)))
    exact = path_ordered_exp(steps)
    approx = path_ordered_exp_subdivided(steps, 10_000)
    assert distance(exact, approx) < 1e-6


def test_subdivision_convergence_rate():
    # independent second-order factors: error must fall at least 10x
    # when substeps go 1000 -> 10000 (observed ~100x, quadratic)
    rng = np.random.default_rng(42)
    steps = []
    for _ in range(6):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        steps.append(AntiHermitianUn(0.5 * (h - h.conj().T)))
    exact = path_ordered_exp(steps)
    err3 = distance(exact, path_ordered_exp_subdivided(steps, 1_000))
    err4 = distance(exact, path_ordered_exp_subdivided(steps, 10_000))
    assert err3 > 0 and err4 > 0
    assert err3 / err4 >= 10.0


def test_subdivision_scalar_exact():
    steps = [ScalarU1(0.4), ScalarU1(1.8)]
    assert distance(
        path_ordered_exp(steps), path_ordered_exp_subdivided(steps, 3)
    ) == 0.0


# ---------------------------------------------------------------------------
# ordered-product fold


def entering(identity, values, k):
    """The value slot k of ``transport_table(identity, values)`` stands for,
    as it enters a product: the identity at 0, ``values[k - 1]`` at k > 0,
    its ``inverse`` at -k."""
    if k == 0:
        return identity
    return values[k - 1] if k > 0 else inverse(values[-k - 1])


def stepwise_product(identity, factors, later_left):
    """The per-step compose loop the fold replaces, over the factors as
    they enter the product, in path order."""
    acc = identity
    for f in factors:
        acc = compose(f, acc) if later_left else compose(acc, f)
    return acc


def one_row(identity, values, slots, later_left=True):
    """The one-row fold of signed ``slots`` into the table of ``values``."""
    table = transport_table(identity, values)
    return ordered_products(identity, table, [slots], later_left)[0]


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["forward", "reverse", "reflexive"]), max_size=40),
    seed=st.integers(0, 2**32 - 1),
    later_left=st.booleans(),
)
def test_fold_matches_stepwise_compose_bit_for_bit(kinds, seed, later_left):
    rng = np.random.default_rng(seed)
    pool = [MatrixUn(random_unitary(rng, 3)) for _ in range(4)]
    angles = [PhaseU1(float(a)) for a in rng.uniform(-4.0, 4.0, size=4)]
    for identity, values in ((MatrixUn(np.eye(3)), pool), (PhaseU1(0.0), angles)):
        slots = []
        for kind in kinds:
            k = int(rng.integers(1, 5))
            slots.append({"forward": k, "reverse": -k, "reflexive": 0}[kind])
        folded = one_row(identity, values, slots, later_left)
        expected = stepwise_product(
            identity, [entering(identity, values, k) for k in slots], later_left
        )
        if isinstance(identity, MatrixUn):
            assert np.array_equal(folded.mat, expected.mat)
        else:
            assert folded.angle == expected.angle


def test_fold_checks_the_product_for_unitarity():
    rng = np.random.default_rng(7)
    u = MatrixUn(random_unitary(rng, 3))
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    coarse = path_ordered_exp_subdivided([AntiHermitianUn(0.5 * (h - h.conj().T))], 2)
    drift = np.max(np.abs(coarse.mat.conj().T @ coarse.mat - np.eye(3)))
    assert drift > UNITARY_TOL  # built by _as_unitary_loose, unchecked
    for later_left in (True, False):
        for sign in (1, -1):
            with pytest.raises(ValueError, match="not unitary"):
                one_row(MatrixUn(np.eye(3)), [u, coarse], [1, 2 * sign, -1], later_left)
    loose = _as_unitary_loose(np.eye(3) * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="not unitary"):
        one_row(MatrixUn(np.eye(3)), [u, loose], [1] * 50 + [2])


def test_fold_rejects_mixed_variants():
    with pytest.raises(VariantMismatch):
        one_row(MatrixUn(np.eye(2)), [PhaseU1(0.3)], [1])
    with pytest.raises(VariantMismatch):
        one_row(MatrixUn(np.eye(2)), [MatrixUn(np.eye(3))], [-1])
    with pytest.raises(VariantMismatch):
        one_row(PhaseU1(0.0), [MatrixUn(np.eye(2))], [1])
    assert one_row(PhaseU1(0.0), [], []).angle == 0.0


def angle_bits(value):
    return np.float64(value.angle).tobytes()


def test_phase_table_holds_angles_and_reaches_the_tie_through_an_inverse_slot():
    # slot -k holds wrap_angle(-angle): the inverse of pi is pi, never -pi,
    # and -pi/2 - pi/2 lands on the tie and wraps back to pi
    values = [PhaseU1(np.pi), PhaseU1(np.pi / 2), PhaseU1(0.5)]
    table = transport_table(PhaseU1(0.0), values)
    assert all(type(a) is float for a in table)
    assert table[1] == table[-1] == np.pi
    assert table[-2] == -np.pi / 2 and table[-3] == -0.5
    rows = [[-1], [-2, -2], [-1, -1], [1, -1], [-3, -1, 2], []]
    for later_left in (True, False):
        folded = ordered_products(PhaseU1(0.0), table, rows, later_left)
        for row, value in zip(rows, folded):
            expected = stepwise_product(
                PhaseU1(0.0), [entering(PhaseU1(0.0), values, k) for k in row], later_left
            )
            assert angle_bits(value) == angle_bits(expected)
        assert folded[0].angle == folded[1].angle == np.pi


def test_phase_fold_keeps_nan_and_composes_no_value(monkeypatch):
    table = transport_table(PhaseU1(0.0), [PhaseU1(0.3), PhaseU1(float("nan"))])
    calls = []
    for name in ("compose", "same_variant"):
        monkeypatch.setattr(groups_module, name, lambda *a, name=name: calls.append(name))
    out = ordered_products(PhaseU1(0.0), table, [[1, 2, 1], [-2], [1, -1]])
    monkeypatch.undo()
    assert calls == []  # the table was checked when it was built
    assert np.isnan(out[0].angle) and np.isnan(out[1].angle) and out[2].angle == 0.0
    assert not is_identity(out[0]) and not is_identity(out[1])


def test_phase_fold_rejects_a_table_of_another_variant():
    with pytest.raises(VariantMismatch):
        transport_table(PhaseU1(0.0), [PhaseU1(0.3), MatrixUn(np.eye(1))])
    with pytest.raises(VariantMismatch):
        transport_table(PhaseU1(0.0), [FreeWord((1,), ("a",))])
    matrices = transport_table(MatrixUn(np.eye(2)), [MatrixUn(SX)])
    with pytest.raises(VariantMismatch):
        ordered_products(PhaseU1(0.0), matrices, [[1]])
    angles = transport_table(PhaseU1(0.0), [PhaseU1(0.3)])
    with pytest.raises(VariantMismatch):
        ordered_products(MatrixUn(np.eye(2)), angles, [[1]])


def test_gaps_are_distance_per_pair_in_the_given_order():
    # angles: |wrap_angle(a - b)| with a first, NaN kept and the tie at pi;
    # the other order differs in the last bit once a - b leaves (-pi, pi]
    rng, NAN = np.random.default_rng(41), float("nan")
    a = [wrap_angle(x) for x in rng.uniform(-4, 4, 2000)] + [NAN, 0.0, np.pi, 0.0]
    b = [wrap_angle(x) for x in rng.uniform(-4, 4, 2000)] + [0.0, NAN, 0.0, np.pi]
    got = gaps(a, b)
    want = [distance(PhaseU1(x), PhaseU1(y)) for x, y in zip(a, b)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert np.array(got).tobytes() != np.array(gaps(b, a)).tobytes()
    assert got[-2:] == [np.pi, np.pi] and np.isnan(got[-4]) and np.isnan(got[-3])
    # matrices: one reduction over two stacks, NaN kept
    x = np.stack([random_unitary(rng, 3) for _ in range(4)] + [np.full((3, 3), NAN)])
    y = np.stack([random_unitary(rng, 3) for _ in range(5)])
    got = gaps(x, y)
    want = [distance(_as_unitary_loose(p), _as_unitary_loose(q)) for p, q in zip(x, y)]
    assert all(type(g) is float for g in got) and np.isnan(got[-1])
    assert np.array(got).tobytes() == np.array(want).tobytes()
    # entries gather table slots in the form the folds return
    angles = transport_table(PhaseU1(0.0), [PhaseU1(0.3), PhaseU1(np.pi)])
    assert entries(angles, [2, -1, 0, -2]) == [np.pi, inverse(PhaseU1(0.3)).angle, 0.0, np.pi]
    stack = transport_table(MatrixUn(np.eye(2)), [MatrixUn(SX), MatrixUn(1j * SY)])
    assert np.array_equal(entries(stack, [-2, 0, 1]), [(1j * SY).conj().T, np.eye(2), SX])


@pytest.mark.parametrize("dim", [None, 2])
def test_tree_products_take_one_compose_step_per_edge(dim):
    rng = np.random.default_rng(43)
    if dim is None:
        identity, values = PhaseU1(0.0), [PhaseU1(a) for a in rng.uniform(-4, 4, 5)]
    else:
        identity = MatrixUn(np.eye(dim))
        values = [MatrixUn(random_unitary(rng, dim)) for _ in range(5)]
    table = transport_table(identity, values)
    codes, parents = [1, -2, 3, -4, 5, 0, -1], [0, 1, 1, 0, 2, 5, 3]
    want = [identity]
    for k, p in zip(codes, parents):
        want.append(compose(entering(identity, values, k), want[p]))
    # the two-sided table of the products: identity, entries, inverses
    got, want = tree_products(identity, table, codes, parents), transport_table(identity, want)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if dim is not None:
        assert got.shape == (2 * len(codes) + 3, dim, dim)
        with pytest.raises(ValueError, match="not unitary"):
            tree_products(identity, table * 1.1, codes, parents)


# ---------------------------------------------------------------------------
# stacked fold over many rows


@settings(max_examples=80, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 30), min_size=1, max_size=8),
    dim=st.sampled_from([1, 2, 3, None]),
    seed=st.integers(0, 2**32 - 1),
    later_left=st.booleans(),
)
def test_ordered_products_match_stepwise_compose_bit_for_bit(lengths, dim, seed, later_left):
    # rows of unequal length (empty ones too) over reflexive (0), forward
    # (+k) and reverse (-k) slots; dim None is the scalar U(1) fold
    rng = np.random.default_rng(seed)
    if dim is None:
        identity = PhaseU1(0.0)
        pool = [PhaseU1(float(a)) for a in rng.uniform(-4.0, 4.0, size=4)]
    else:
        identity = MatrixUn(np.eye(dim))
        pool = [MatrixUn(random_unitary(rng, dim)) for _ in range(4)]
    table = transport_table(identity, pool)
    rows = [rng.integers(-len(pool), len(pool) + 1, size=n).tolist() for n in lengths]
    folded = ordered_products(identity, table, rows, later_left=later_left)
    assert len(folded) == len(rows)
    for row, value in zip(rows, folded):
        expected = stepwise_product(
            identity, [entering(identity, pool, k) for k in row], later_left
        )
        if dim is None:
            assert value.angle == expected.angle
        else:
            assert np.array_equal(value.mat, expected.mat)


def test_ordered_products_empty_input_and_empty_rows():
    ident = MatrixUn(np.eye(2))
    table = transport_table(ident, [MatrixUn(SX)])
    assert ordered_products(ident, table, []) == []
    out = ordered_products(ident, table, [[], [1, 1], []])
    assert np.array_equal(out[0].mat, np.eye(2)) and np.array_equal(out[2].mat, np.eye(2))
    assert np.array_equal(out[1].mat, SX @ SX)


@pytest.mark.parametrize("bad", ["drift", "nan"])
@pytest.mark.parametrize("later_left", [True, False])
def test_ordered_products_one_bad_row_raises(bad, later_left):
    # the bad row is neither the longest nor the first, so neither the
    # sort nor the prefix of running rows hides it
    rng = np.random.default_rng(3)
    ident = MatrixUn(np.eye(3))
    good = [MatrixUn(random_unitary(rng, 3)) for _ in range(3)]
    if bad == "nan":
        broken = _as_unitary_loose(np.full((3, 3), np.nan))
    else:
        broken = _as_unitary_loose(np.eye(3) * (1.0 + 1e-9))
    table = transport_table(ident, good + [broken])
    rows = [[1, 2, 3] * 10, [1, 2], [2, 4, 1], [3] * 7]
    with pytest.raises(ValueError, match="not unitary"):
        ordered_products(ident, table, rows, later_left=later_left)
    assert len(ordered_products(ident, table, [rows[0], rows[1], rows[3]])) == 3


@pytest.mark.parametrize("later_left", [True, False])
def test_ordered_products_names_the_first_bad_row_in_row_order(later_left):
    # two bad rows with different defects; the first of them in row order is
    # the shortest row, so the longest-first fold meets it last
    rng = np.random.default_rng(11)
    ident = MatrixUn(np.eye(3))
    good = MatrixUn(random_unitary(rng, 3))
    small = _as_unitary_loose(np.eye(3) * (1.0 + 1e-9))
    large = _as_unitary_loose(np.eye(3) * (1.0 + 1e-6))
    table = transport_table(ident, [good, small, large])
    rows = [[1] * 5, [2], [1, 1, 3, 1]]
    first = unitary_defects(small.mat)
    assert first < unitary_defects(large.mat)
    with pytest.raises(ValueError, match=f"= {first:.3e}$"):
        ordered_products(ident, table, rows, later_left=later_left)


@pytest.mark.parametrize("dim", [1, 3])
def test_ordered_products_results_are_read_only_and_unshared(dim):
    # equal rows, empty rows and rows of one slot, whose products are
    # bit-equal to each other, to the identity or to a table entry
    rng = np.random.default_rng(dim)
    ident = MatrixUn(np.eye(dim))
    pool = [MatrixUn(random_unitary(rng, dim)) for _ in range(2)]
    table = transport_table(ident, pool)
    rows = [[1, -1, 2], [1, -1, 2], [], [], [-2], [0], [-1, -2, 1, 2]]
    for later_left in (True, False):
        mats = [v.mat for v in ordered_products(ident, table, rows, later_left)]
        for i, m in enumerate(mats):
            assert not m.flags.writeable
            assert not np.shares_memory(m, table) and not np.shares_memory(m, ident.mat)
            assert not any(np.shares_memory(m, other) for other in mats[i + 1 :])


def test_ordered_products_rejects_a_table_of_another_size():
    table = transport_table(MatrixUn(np.eye(2)), [MatrixUn(SX)])
    with pytest.raises(VariantMismatch):
        ordered_products(MatrixUn(np.eye(3)), table, [[1]])


def test_one_matrix_and_a_stack_share_the_unitarity_gate():
    rng = np.random.default_rng(6)
    stack = np.stack([random_unitary(rng, 2), np.eye(2) * 1.1, np.full((2, 2), np.nan)])
    assert unitary_defects(stack[0]) == unitary_defects(stack)[0]
    assert np.isnan(unitary_defects(stack[2]))
    MatrixUn(stack[0])
    for m in stack[1:]:
        with pytest.raises(ValueError, match="not unitary"):
            MatrixUn(m)
    assert not MatrixUn(stack[0]).mat.flags.writeable


def test_unitary_defects_match_the_matrix_check():
    rng = np.random.default_rng(5)
    stack = np.stack([random_unitary(rng, 3) for _ in range(4)] + [np.eye(3) * 1.1])
    defects = unitary_defects(stack)
    for m, d in zip(stack, defects):
        assert d == np.max(np.abs(m.conj().T @ m - np.eye(3)))
    assert defects[-1] > UNITARY_TOL and all(defects[:-1] <= UNITARY_TOL)


@pytest.mark.parametrize("entry", [1e308, -1e308, 1e200 + 1e200j, np.inf, np.nan])
def test_huge_and_non_finite_entries_fail_the_unitarity_gate_without_warnings(entry):
    m = np.eye(2, dtype=complex)
    m[0, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not unitary_defects(np.stack([np.eye(2), m]))[1] <= UNITARY_TOL
        with pytest.raises(ValueError, match="not unitary"):
            MatrixUn(m)
