"""Group and Lie-algebra values used for transport data.

Two transport groups carry every transition value: unit phases U(1)
(stored as canonical angles) and unitary matrices U(n).  They are the
only group values.  This module alone decides between them: a U(1)
transport table is a tuple of angles and a U(n) table an (n, d, d)
stack.  ``transport_table`` checks each value's variant once, when the
table is built, and ``products`` (folds), ``entries`` (gathers) and
``gaps`` (``distance`` per pair, one reduction) work on either form, so
the checks built on them hold no variant branch.  Reduced free-group
words (``FreeWord``) are loop classes, not group values: the output of
``loop_class``, presentation relations and the input of a morphism's
``evaluate_all``.  A small Lie layer (real scalars and anti-Hermitian
matrices) feeds ``path_ordered_exp``.

Conventions, fixed once here and relied on everywhere else:

* phase angles live in (-pi, pi], with the tie at -pi mapped to +pi;
* free words are tuples of signed 1-based letters and are always reduced;
* ordered products are written operator-style: in a list of steps
  ``[s1, ..., sn]`` the *later* steps multiply on the *left*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence, Union

import numpy as np

GROUP_EQ_TOL = 1e-10
UNITARY_TOL = 1e-10
ANTIHERM_TOL = 1e-12


class VariantMismatch(TypeError):
    """Raised when two values from different group variants are combined."""


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical branch (-pi, pi], ties at -pi -> +pi."""
    # float % rounds as np.remainder does, without a numpy scalar round trip
    w = (float(theta) + math.pi) % (2.0 * math.pi) - math.pi
    if w <= -math.pi:  # remainder can land exactly on the open end
        w = math.pi
    return w


class GroupValue:
    """Base class; the concrete variants are PhaseU1 and MatrixUn."""

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __eq__(self, other):
        if not isinstance(other, GroupValue):
            return NotImplemented
        if type(self) is not type(other):
            return False
        try:
            return distance(self, other) <= GROUP_EQ_TOL
        except VariantMismatch:
            return False


@dataclass(frozen=True, eq=False)
class PhaseU1(GroupValue):
    """A U(1) element exp(i*angle), stored by its canonical angle."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", wrap_angle(self.angle))

    @property
    def complex_value(self) -> complex:
        return complex(np.exp(1j * self.angle))


@dataclass(frozen=True, eq=False)
class MatrixUn(GroupValue):
    """A U(n) element as a read-only dense complex matrix.

    Construction checks it is unitary to UNITARY_TOL (``unitary_defects``)
    and raises ValueError otherwise, NaN included.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        _require_unitary(m)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def unitary_defects(mats: np.ndarray) -> np.ndarray:
    """max |U*U - I| of a (d, d) matrix, or of each matrix in an (n, d, d)
    stack: the one copy of the formula behind UNITARY_TOL.  Entries near
    the float limit overflow to inf or NaN, which fail the gate, so numpy
    is told not to warn about them."""
    eye = np.eye(mats.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(mats.conj().swapaxes(-1, -2) @ mats - eye).max(axis=(-2, -1))


def _require_unitary(mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix of ``mats`` ((d, d) or
    (n, d, d)) is unitary to UNITARY_TOL; the message gives the defect of
    the first failing matrix in input order.  NaN fails."""
    defects = unitary_defects(mats)
    if not (defects.max(initial=0.0) <= UNITARY_TOL):  # NaN propagates, so it fails
        first = next(d for d in np.ravel(defects) if not (d <= UNITARY_TOL))
        raise ValueError(f"matrix is not unitary: max |U*U - I| = {first:.3e}")


def _reduce_letters(letters: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(int(l))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A reduced word over a named generator alphabet: a loop class, not a
    group value.

    Letters are nonzero integers: +k is the k-th generator (1-based),
    -k its inverse.  Reduction happens at construction, so every stored
    word is reduced, and two words are equal when their letters and
    alphabets are.
    """

    letters: tuple[int, ...]
    alphabet: tuple[str, ...]

    def __post_init__(self):
        alpha = tuple(self.alphabet)
        lets = _reduce_letters(self.letters)
        for l in lets:
            if l == 0 or abs(l) > len(alpha):
                raise ValueError(f"letter {l} outside alphabet of size {len(alpha)}")
        object.__setattr__(self, "letters", lets)
        object.__setattr__(self, "alphabet", alpha)

    def __len__(self) -> int:
        return len(self.letters)

    def as_names(self) -> str:
        """Human form, e.g. 'a.b^-1' for letters (1, -2)."""
        if not self.letters:
            return "1"
        parts = []
        for l in self.letters:
            name = self.alphabet[abs(l) - 1]
            parts.append(name if l > 0 else f"{name}^-1")
        return ".".join(parts)


def _not_transport(v) -> VariantMismatch:
    return VariantMismatch(f"transport values are U(1) or U(n), not {type(v).__name__}")


def _shape(v: GroupValue):
    """None for a phase, the dimension of a matrix; VariantMismatch for
    anything else."""
    if isinstance(v, PhaseU1):
        return None
    if isinstance(v, MatrixUn):
        return v.dim
    raise _not_transport(v)


def same_variant(a: GroupValue, b: GroupValue) -> None:
    """Raise VariantMismatch unless a and b are one variant of one shape
    (matrix dimension)."""
    if type(a) is not type(b) or _shape(a) != _shape(b):
        raise VariantMismatch(
            f"cannot combine {type(a).__name__} (shape {_shape(a)}) "
            f"with {type(b).__name__} (shape {_shape(b)})"
        )


def compose(a: GroupValue, b: GroupValue) -> GroupValue:
    """Group product a*b (a acts after b in transport chains)."""
    same_variant(a, b)
    if isinstance(a, PhaseU1):
        return PhaseU1(a.angle + b.angle)
    return MatrixUn(a.mat @ b.mat)


def inverse(a: GroupValue) -> GroupValue:
    if _shape(a) is None:  # _shape raises for a value of neither group
        return PhaseU1(-a.angle)
    return MatrixUn(a.mat.conj().T)


def two_sided(zero, values: Iterable, inv) -> tuple:
    """Per-overlap table read by signed overlap code (``Cover.codes``):
    ``zero`` at slot 0, ``values[k - 1]`` at slot k and ``inv`` of it at
    slot -k, the tuple's negative index, for k = 1..len(values)."""
    values = tuple(values)
    return (zero, *values, *map(inv, values[::-1]))


# entries indexed by signed slot: a stacked (n, d, d) array for matrices,
# a tuple of canonical angles for phases
TransportTable = Union[np.ndarray, tuple[float, ...]]
# fold results and gathered slots: a checked (n, d, d) stack for matrices,
# a list of canonical angles for phases
Folded = Union[np.ndarray, list[float]]


def transport_table(identity: GroupValue, values: Iterable[GroupValue]) -> TransportTable:
    """``two_sided`` table of ``values`` as they enter a product: slot 0
    the identity, slot k the k-th value, slot -k its inverse.

    Every value's variant is checked here, once (VariantMismatch for a
    mixed table, or for anything but U(1) and U(n) values), so the folds
    over the table need not check each step.  Matrices stack into one
    (n, d, d) complex array whose reverse slots hold the conjugate
    transpose, the bits ``inverse`` stores.  Phases become a tuple of
    float angles: slot k the angle of value k, slot -k the angle of its
    ``inverse``, the wrapped negation (so the tie at -pi maps to +pi).
    """
    values = tuple(values)
    kind, shape = type(identity), _shape(identity)
    for v in values:
        if type(v) is not kind or _shape(v) != shape:
            same_variant(identity, v)  # raises, naming both variants
    if kind is MatrixUn:
        return np.stack(two_sided(identity.mat, [v.mat for v in values], lambda m: m.conj().T))
    return two_sided(identity.angle, [v.angle for v in values], lambda a: wrap_angle(-a))


def products(
    identity: GroupValue,
    table: TransportTable,
    rows: Sequence[Sequence[int]],
    later_left: bool = True,
) -> Folded:
    """Fold every row of signed slot indices into ``table`` into one
    product, in row order: a list of canonical angles for U(1) data, one
    checked (len(rows), d, d) stack for U(n) data.

    With ``later_left`` each factor multiplies the running product on the
    left (transport order); otherwise on the right (word order).  Each
    product starts from ``identity`` and equals the step-by-step
    ``compose`` loop over its row bit for bit.  Phase rows fold plain
    floats, ``acc = wrap_angle(angle + acc)`` per step, which is what
    ``compose`` stores (float addition commutes, so both orders give the
    same bits; NaN stays NaN).  Matrix rows fold step-major: they run
    longest first, so the rows still running are a prefix, and step i is
    one stacked ``matmul`` of the prefix against its gathered factors.
    The stack is checked against UNITARY_TOL once (the error gives the
    first failing row's defect, in row order).  An identity of neither
    group, or a table of another variant than ``identity``, raises
    VariantMismatch.
    """
    if isinstance(identity, PhaseU1):
        if isinstance(table, np.ndarray):
            raise VariantMismatch("phase products need a table of angles")
        out = []
        for row in rows:
            acc = identity.angle
            for i in row:
                acc = wrap_angle(table[i] + acc)
            out.append(acc)
        return out
    if not isinstance(identity, MatrixUn):
        raise _not_transport(identity)
    d = identity.dim
    if not isinstance(table, np.ndarray) or table.shape[1:] != (d, d):
        raise VariantMismatch(f"U({d}) products need a stacked table of {d} x {d} factors")
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    width = int(lens[0]) if len(lens) else 0
    running = np.searchsorted(-lens, -np.arange(width), side="left")
    starts = np.cumsum(running) - running
    # step p of sorted row r sits at starts[p] + r of the step-major slot list
    sorted_rows = chain.from_iterable(rows[r] for r in order.tolist())
    cat = np.fromiter(sorted_rows, dtype=np.intp, count=int(lens.sum()))
    step = np.arange(len(cat)) - np.repeat(np.cumsum(lens) - lens, lens)
    flat = np.empty_like(cat)
    flat[starts[step] + np.repeat(np.arange(len(lens)), lens)] = cat
    factors = table[flat]
    # two buffers in turn: step i reads bufs[i % 2], so a row of length L ends in bufs[L % 2]
    bufs = np.broadcast_to(identity.mat, (2, len(lens), d, d)).copy()
    for i, (s, m) in enumerate(zip(starts.tolist(), running.tolist())):
        acc, out, f = bufs[i % 2, :m], bufs[(i + 1) % 2, :m], factors[s : s + m]
        if later_left:
            np.matmul(f, acc, out=out)
        else:
            np.matmul(acc, f, out=out)
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    stack = bufs[lengths % 2, slot]  # row order
    _require_unitary(stack)
    return stack


def tree_products(
    identity: GroupValue, table: TransportTable, codes: Sequence[int], parents: Sequence[int]
) -> TransportTable:
    """Products down a tree, one per edge, as a two-sided table.  Entry 0
    is ``identity`` and entry i + 1 is ``table[codes[i]]`` times entry
    ``parents[i]`` (a parent's entry comes before its children's), so
    each entry is the transport from the root along its tree path.  Each
    edge takes one 2-D matrix product or one wrapped angle sum, as
    ``compose`` takes it.  Returns the table ``transport_table`` builds
    from the entries' values: ``identity`` at slot 0, entry i at slot
    i + 1 and its inverse at -(i + 1), the matrix entries checked for
    unitarity once, as one stack."""
    matrix = isinstance(identity, MatrixUn)
    out = [identity.mat if matrix else identity.angle]
    for k, p in zip(codes, parents):
        out.append(table[k] @ out[p] if matrix else wrap_angle(table[k] + out[p]))
    if not matrix:
        return two_sided(identity.angle, out, lambda a: wrap_angle(-a))
    _require_unitary(np.stack(out))
    return np.stack(two_sided(identity.mat, out, lambda m: m.conj().T))


def as_values(folded: Folded) -> list[GroupValue]:
    """The group values of a fold result: a ``PhaseU1`` per angle, and each
    matrix of a checked stack as its own read-only ``MatrixUn`` copy."""
    if isinstance(folded, np.ndarray):
        return [_as_unitary_loose(m) for m in folded]
    return [PhaseU1(a) for a in folded]


def ordered_products(
    identity: GroupValue,
    table: TransportTable,
    rows: Sequence[Sequence[int]],
    later_left: bool = True,
) -> list[GroupValue]:
    """``products`` handed out as group values (``as_values``)."""
    return as_values(products(identity, table, rows, later_left))


def entries(table: TransportTable, codes: Sequence[int]) -> Folded:
    """The table's entries at the signed slots ``codes``, in the form
    ``products`` returns, so ``gaps`` can compare them with a fold."""
    if isinstance(table, np.ndarray):
        return table[np.asarray(codes, dtype=np.intp)]
    return [table[k] for k in codes]


def gaps(got: Folded, want: Folded) -> list[float]:
    """``distance(got[i], want[i])`` of every pair, bit for bit: the
    angular gap |wrap_angle(a - b)| per pair of angles, or max |a - b| per
    pair of matrices in one reduction over the two stacks.  NaN when
    either side holds one.  The argument order is part of the result:
    wrap_angle(a - b) and wrap_angle(b - a) can differ in the last bit."""
    if isinstance(got, np.ndarray):
        return np.abs(got - want).max(axis=(1, 2)).tolist()
    return [abs(wrap_angle(a - b)) for a, b in zip(got, want)]


def distance(a: GroupValue, b: GroupValue) -> float:
    """Comparison metric: angular gap or max-norm gap."""
    same_variant(a, b)
    if isinstance(a, PhaseU1):
        return abs(wrap_angle(a.angle - b.angle))
    return float(np.max(np.abs(a.mat - b.mat)))


def is_identity(a: GroupValue, tol: float = GROUP_EQ_TOL) -> bool:
    """``distance`` from ``a`` to the identity of its group is at most
    ``tol``, without building the identity value; NaN fails."""
    if _shape(a) is None:  # _shape raises for a value of neither group
        gap = abs(wrap_angle(a.angle))
    else:
        gap = float(np.max(np.abs(a.mat - np.eye(a.dim))))
    return gap <= tol

# ---------------------------------------------------------------------------
# Lie layer


class LieValue:
    """Base class for exponent data consumed by path_ordered_exp."""


@dataclass(frozen=True)
class ScalarU1(LieValue):
    """Abelian step: a real angle increment theta, exponentiating to exp(i theta)."""

    theta: float


@dataclass(frozen=True, eq=False)
class AntiHermitianUn(LieValue):
    """Matrix step X with X + X^dagger = 0 (to ANTIHERM_TOL), exponentiating into U(n)."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        defect = np.max(np.abs(m + m.conj().T))
        if not (defect <= ANTIHERM_TOL):
            raise ValueError(f"matrix is not anti-Hermitian: max |X + X*| = {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _check_uniform_steps(steps: Sequence[LieValue]) -> type | None:
    kinds = {type(s) for s in steps}
    if len(kinds) > 1:
        names = sorted(k.__name__ for k in kinds)
        raise VariantMismatch(f"mixed step variants: {names}")
    return kinds.pop() if kinds else None


def path_ordered_exp(steps: Sequence[LieValue], dim: int | None = None) -> GroupValue:
    """Ordered product exp(X_n) ... exp(X_1) of the step exponents.

    Later steps multiply on the left.  Scalar steps collapse to a single
    phase exp(i sum theta_k); each matrix step X = iH exponentiates from
    the eigendecomposition H = V diag(w) V^H as V diag(exp(i w)) V^H.
    An empty step list returns the identity (PhaseU1 unless ``dim`` names
    a matrix size).
    """
    kind = _check_uniform_steps(steps)
    if kind is None:
        if dim is None:
            return PhaseU1(0.0)
        return MatrixUn(np.eye(dim))
    if kind is ScalarU1:
        return PhaseU1(sum(s.theta for s in steps))
    if kind is AntiHermitianUn:
        d = steps[0].dim
        for s in steps:
            if s.dim != d:
                raise VariantMismatch(f"matrix sizes differ: {d} vs {s.dim}")
        prod = np.eye(d, dtype=complex)
        for s in steps:
            w, v = np.linalg.eigh(-1j * s.mat)
            prod = ((v * np.exp(1j * w)) @ v.conj().T) @ prod
        return MatrixUn(prod)
    raise VariantMismatch(f"not a Lie value: {kind.__name__}")


def path_ordered_exp_subdivided(
    steps: Sequence[LieValue], substeps: int, dim: int | None = None
) -> GroupValue:
    """Brute-force check value: split each step into equal substeps.

    Each substep contributes a second-order factor I + H + H^2/2 with
    H = X/substeps, so the result approaches path_ordered_exp like
    1/substeps^2.  Kept deliberately independent of the eigendecomposition
    route of ``path_ordered_exp`` so the two can be compared.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    kind = _check_uniform_steps(steps)
    if kind is None or kind is ScalarU1:
        # the Abelian product is exact at any subdivision
        return path_ordered_exp(steps, dim=dim)
    d = steps[0].dim
    prod = np.eye(d, dtype=complex)
    for s in steps:
        h = s.mat / substeps
        factor = np.eye(d, dtype=complex) + h + (h @ h) / 2.0
        prod = np.linalg.matrix_power(factor, substeps) @ prod
    return _as_unitary_loose(prod)


def _as_unitary_loose(m: np.ndarray) -> MatrixUn:
    """Wrap a matrix as a read-only MatrixUn copy without the unitarity check.

    Used where the check is made elsewhere or must not apply:
    ``products`` and ``tree_products`` check their result stacks once, and subdivided
    products drift off the unitary manifold by O(1/substeps^2), which
    the constructor tolerance would reject for coarse subdivisions.
    """
    out = MatrixUn.__new__(MatrixUn)
    arr = np.array(m, dtype=complex)
    arr.setflags(write=False)
    object.__setattr__(out, "mat", arr)
    return out
