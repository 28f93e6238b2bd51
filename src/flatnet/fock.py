"""Finite fermionic Fock space with region-owned modes.

Modes are allocated to regions in blocks (sorted region order), the Fock
basis is indexed by occupation bitsets in little-endian mode order, and
smeared fields are Jordan-Wigner creators.  Every operator is one
complex CSR matrix: creators have 2^(K-1) entries, and implementers and
transporters are signed partial permutations, so products and sums stay
sparse and cancel paired monomials to exact zeros.  The supported
envelope is K <= 12 modes; beyond that construction fails with
CapacityError rather than degrading.

``scipy.sparse`` is imported where a CSR matrix is first built or
checked, not with this module.  The scenario path builds none, so a
report never loads scipy; the CSR oracle and observable layer load it
on first use.

Operators carry a support tag (the regions whose modes they were built
from) and a grading, computed on first read from which charge blocks
their matrix couples (an operator with a non-finite entry has no
grading, and reading it raises ValueError); the gauge unitary acts on a
grade-k operator as multiplication by zeta^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .cocycles import FlatPotentialU1, InvalidPotential
from .covers import Cover
from .groups import PhaseU1

if TYPE_CHECKING:
    import scipy.sparse as sp

CAPACITY_MODES = 12
GRADE_SCAN_CUTOFF = 1e-13


class CapacityError(RuntimeError):
    """Raised when a construction would exceed the K <= 12 mode envelope."""


class SupportError(ValueError):
    """Raised when an operand's region support violates a precondition."""


class MixedGrade(ValueError):
    """Raised where a definite-grade operand is required."""


@dataclass(frozen=True)
class OneParticleSpace:
    """Mode labels with owning regions; inner product is the Hermitian dot
    (conjugate-linear in the first slot)."""

    mode_owner: tuple[int, ...]

    @property
    def num_modes(self) -> int:
        return len(self.mode_owner)

    @cached_property
    def _modes_of(self) -> dict[int, tuple[int, ...]]:
        modes: dict[int, list[int]] = {}
        for i, r in enumerate(self.mode_owner):
            modes.setdefault(r, []).append(i)
        return {r: tuple(ms) for r, ms in modes.items()}

    def region_modes(self, region: int) -> tuple[int, ...]:
        return self._modes_of.get(region, ())

    def owners(self, f: np.ndarray) -> frozenset[int]:
        f = np.asarray(f)
        return frozenset(self.mode_owner[i] for i in np.nonzero(f)[0])

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(np.vdot(np.asarray(f), np.asarray(g)))


def allocate_modes(cover: Cover, modes_per_region: int = 2) -> OneParticleSpace:
    """Give every region a private block of modes, sorted region order."""
    if modes_per_region < 1:
        raise ValueError("modes_per_region must be >= 1")
    owner: list[int] = []
    for r in sorted(cover.regions):
        owner.extend([r] * modes_per_region)
    return OneParticleSpace(tuple(owner))


class FockSpace:
    """Antisymmetric Fock space over a OneParticleSpace (dimension 2^K)."""

    def __init__(self, space: OneParticleSpace):
        if space.num_modes > CAPACITY_MODES:
            raise CapacityError(
                f"{space.num_modes} modes exceeds the {CAPACITY_MODES}-mode envelope"
            )
        self.space = space
        self.K = space.num_modes
        self.dim = 1 << self.K
        self._creators: dict[int, sp.csr_matrix] = {}

    @cached_property
    def occupation_counts(self) -> np.ndarray:
        idx = np.arange(self.dim, dtype=np.uint64)
        counts = np.zeros(self.dim, dtype=np.int64)
        for i in range(self.K):
            counts += (idx >> np.uint64(i)).astype(np.int64) & 1
        return counts

    @property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def creator(self, mode: int) -> sp.csr_matrix:
        """Jordan-Wigner creation operator for one mode (sparse, exact entries).

        Row s | bit holds the one entry (-1)^(occupied modes below ``mode``)
        in column s, for every bitset s with ``mode`` empty.
        """
        if mode not in self._creators:
            if not 0 <= mode < self.K:
                raise ValueError(f"mode {mode} out of range")
            import scipy.sparse as sp

            bit = 1 << mode
            filled = (np.arange(self.dim) & bit) != 0
            cols = np.flatnonzero(filled) ^ bit
            signs = 1.0 - 2.0 * (self.occupation_counts[cols & (bit - 1)] & 1)
            indptr = np.concatenate(([0], np.cumsum(filled)))
            self._creators[mode] = sp.csr_matrix(
                (signs.astype(complex), cols, indptr), shape=(self.dim, self.dim)
            )
        return self._creators[mode]

    def annihilator(self, mode: int) -> sp.csr_matrix:
        return self.creator(mode).conj().T.tocsr()

    def gauge_diagonal(self, zeta: complex) -> np.ndarray:
        """Diagonal of the gauge unitary zeta^N."""
        return np.power(complex(zeta), self.occupation_counts)


def _scan_grades(fock: FockSpace, m: sp.csr_matrix) -> frozenset[int]:
    c = m.tocoo()
    mags = np.abs(c.data)
    scale = mags.max(initial=0.0)
    if not np.isfinite(scale):
        raise ValueError("operator has a non-finite entry, so it has no grading")
    if scale == 0.0:
        return frozenset()
    keep = mags > GRADE_SCAN_CUTOFF * scale
    counts = fock.occupation_counts
    return frozenset((counts[c.row[keep]] - counts[c.col[keep]]).tolist())


@dataclass(frozen=True, eq=False)
class FieldOp:
    """Sparse (CSR) operator with support and grading tags.

    ``matrix`` is a dense copy built on access, for inspection only.
    ``charge`` is the common charge transfer of all nonzero matrix blocks,
    or None when blocks of different transfer are mixed; ``parity`` is
    'even', 'odd', or 'mixed'.  Both are computed on first read and cached,
    and both raise ValueError when the matrix holds a NaN or infinite entry.
    """

    csr: sp.csr_matrix
    fock: FockSpace
    support: frozenset[int]

    def __post_init__(self):
        import scipy.sparse as sp

        m = self.csr
        if not (isinstance(m, sp.csr_matrix) and m.dtype == complex):
            m = sp.csr_matrix(m, dtype=complex)
        if m.shape != (self.fock.dim, self.fock.dim):
            raise ValueError(f"matrix shape {m.shape} does not fit the Fock space")
        m.sum_duplicates()  # sorted indices fix the summation order of products
        object.__setattr__(self, "csr", m)

    @cached_property
    def _grades(self) -> frozenset[int]:
        return _scan_grades(self.fock, self.csr)

    @property
    def charge(self) -> int | None:
        return None if len(self._grades) > 1 else next(iter(self._grades), 0)

    @property
    def parity(self) -> str:
        parities = {g % 2 for g in self._grades} or {0}
        return "mixed" if len(parities) > 1 else ("odd" if parities == {1} else "even")

    @property
    def matrix(self) -> np.ndarray:
        m = self.csr.toarray()
        m.setflags(write=False)
        return m

    def __mul__(self, other: "FieldOp") -> "FieldOp":
        if self.fock is not other.fock:
            raise ValueError("operators live on different Fock spaces")
        return FieldOp(self.csr @ other.csr, self.fock, self.support | other.support)

    def __add__(self, other: "FieldOp") -> "FieldOp":
        if self.fock is not other.fock:
            raise ValueError("operators live on different Fock spaces")
        return FieldOp(self.csr + other.csr, self.fock, self.support | other.support)

    def __sub__(self, other: "FieldOp") -> "FieldOp":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex | PhaseU1) -> "FieldOp":
        if isinstance(factor, PhaseU1):
            factor = factor.complex_value
        return FieldOp(self.csr * complex(factor), self.fock, self.support)

    def adjoint(self) -> "FieldOp":
        return FieldOp(self.csr.conj().T, self.fock, self.support)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.csr @ vec

    def norm_max(self) -> float:
        return float(np.abs(self.csr.data).max(initial=0.0))


def zero_op(fock: FockSpace) -> FieldOp:
    import scipy.sparse as sp

    return FieldOp(sp.csr_matrix((fock.dim, fock.dim), dtype=complex), fock, frozenset())


def identity_op(fock: FockSpace) -> FieldOp:
    import scipy.sparse as sp

    return FieldOp(sp.identity(fock.dim, dtype=complex, format="csr"), fock, frozenset())


def smeared_field(fock: FockSpace, f: np.ndarray) -> FieldOp:
    """Charge-one smeared field psi(f) = sum_i f_i c_i^dagger (linear in f)."""
    import scipy.sparse as sp

    f = np.asarray(f, dtype=complex)
    if f.shape != (fock.K,):
        raise ValueError(f"expected a length-{fock.K} mode vector")
    if not np.isfinite(f).all():
        raise ValueError("mode vector has a non-finite entry")
    acc = sp.csr_matrix((fock.dim, fock.dim), dtype=complex)
    for i in np.nonzero(f)[0]:
        acc = acc + f[i] * fock.creator(int(i))
    return FieldOp(acc, fock, fock.space.owners(f))


def anticommutator(a: FieldOp, b: FieldOp) -> FieldOp:
    return a * b + b * a


def commutator(a: FieldOp, b: FieldOp) -> FieldOp:
    return a * b - b * a


def gauge_action(zeta: complex | PhaseU1, t: FieldOp) -> FieldOp:
    """Conjugate by the gauge unitary zeta^N; grade-k operators pick up zeta^k."""
    import scipy.sparse as sp

    if isinstance(zeta, PhaseU1):
        zeta = zeta.complex_value
    zeta = complex(zeta)
    if not (abs(abs(zeta) - 1.0) <= 1e-12):
        raise ValueError("gauge parameter must lie on the unit circle")
    d = t.fock.gauge_diagonal(zeta)
    c = t.csr.tocoo()
    data = (d[c.row] * c.data) * d.conj()[c.col]
    return FieldOp(sp.coo_matrix((data, (c.row, c.col)), shape=c.shape), t.fock, t.support)


def grading(t: FieldOp) -> int:
    """Definite charge transfer of an operator; MixedGrade when there is none."""
    if t.charge is None:
        raise MixedGrade("operator mixes charge-transfer blocks")
    return t.charge


def normal_commutation_check(cover: Cover, t: FieldOp, s: FieldOp) -> float:
    """Max-norm of [t, s] (graded: anticommutator iff both odd).

    Requires every region pair across the two supports to be declared
    causally disjoint, and definite parities on both operands.
    """
    if t.parity == "mixed" or s.parity == "mixed":
        raise MixedGrade("normal commutation needs definite parities")
    for u in t.support:
        for v in s.support:
            if u == v or not cover.are_disjoint(u, v):
                raise SupportError(
                    f"regions {u} and {v} are not declared causally disjoint"
                )
    bracket = anticommutator(t, s) if (t.parity == "odd" and s.parity == "odd") \
        else commutator(t, s)
    return bracket.norm_max()


# ---------------------------------------------------------------------------
# Fields twisted by a flat potential


def twisted_local_field(
    fock: FockSpace, pot: FlatPotentialU1, region: int, f: np.ndarray
) -> FieldOp:
    """psi_o(f) = exp(-i phi_o) psi(f) for f supported in region o.

    Needs the potential's per-region primitives (present exactly when the
    underlying transition data trivializes).
    """
    if pot.primitives is None:
        raise InvalidPotential(
            "twisted fields need a trivializable potential (no primitives present)"
        )
    if region not in pot.cover.regions:
        raise SupportError(f"unknown region {region}")
    f = np.asarray(f, dtype=complex)
    owners = fock.space.owners(f)
    if not owners <= {region}:
        raise SupportError(
            f"mode vector is supported on {sorted(owners)}, not inside region {region}"
        )
    phase = PhaseU1(-pot.primitives[region])
    return smeared_field(fock, f).scaled(phase)


def nested_pair_residual(
    fock: FockSpace, pot: FlatPotentialU1, dst: int, src: int, f: np.ndarray,
    comp: int | None = None,
) -> float:
    """Gap in psi_dst(f) = exp(-i A(dst<-src)) psi_src(f) across one overlap.

    f lives in the src region's modes; the dst chart phase is applied
    support-blind (charts are global phases, only the owning region pins
    where f is localized).  Lowest shared component taken when comp is
    omitted.
    """
    if pot.primitives is None:
        raise InvalidPotential("chart comparison needs a trivializable potential")
    if comp is None:
        comps = pot.cover.overlap_components(src, dst)
        if not comps:
            raise SupportError(f"regions {src} and {dst} do not overlap")
        comp = comps[0]
    lhs = smeared_field(fock, f).scaled(PhaseU1(-pot.primitives[dst]))
    rhs = twisted_local_field(fock, pot, src, f).scaled(
        PhaseU1(-pot.lift(dst, src, comp))
    )
    return (lhs - rhs).norm_max()


@dataclass(frozen=True)
class GlueResult:
    op: FieldOp
    chart_residual: float
    charts: tuple[int, ...]


def glue_psi_A(
    fock: FockSpace, pot: FlatPotentialU1, section: Mapping[int, np.ndarray]
) -> GlueResult:
    """Evaluate a twisted section through per-region charts and glue.

    The section gives, per region, the same twisted spinor expressed in
    that region's chart; consistency demands s_v = exp(i lift(v<-u)) s_u on
    every overlap component of the section's regions.  Each chart then
    produces exp(-i phi_r) psi(s_r) and all agree; the returned operator is
    evaluated in the lowest-numbered chart, with the max cross-chart
    mismatch reported.
    """
    if pot.primitives is None:
        raise InvalidPotential("gluing needs a trivializable potential")
    if not section:
        raise ValueError("empty section")
    regions = tuple(sorted(section))
    vecs = {r: np.asarray(section[r], dtype=complex) for r in regions}
    for (u, v, c) in pot.cover.overlaps:
        if u in vecs and v in vecs:
            gap = np.max(np.abs(vecs[v] - np.exp(1j * pot.lift(v, u, c)) * vecs[u]))
            if not (gap <= 1e-8):
                raise SupportError(
                    f"section inconsistent across ({u},{v},{c}): gap {gap:.3e}"
                )
    ops = [
        smeared_field(fock, vecs[r]).scaled(PhaseU1(-pot.primitives[r]))
        for r in regions
    ]
    spread = 0.0
    for other in ops[1:]:
        spread = max(spread, (ops[0] - other).norm_max())
    return GlueResult(op=ops[0], chart_residual=float(spread), charts=regions)


def twisted_product(t: FieldOp, s: FieldOp, g: PhaseU1) -> FieldOp:
    """Product twisted by a unit phase: (g^grade(t) t) s."""
    if not isinstance(g, PhaseU1):
        raise TypeError("twisting value must be a unit phase")
    k = grading(t)  # raises MixedGrade for indefinite operands
    return t.scaled(PhaseU1(k * g.angle)) * s


# short name used throughout the demos; `smeared_field` stays the primary
field = smeared_field
