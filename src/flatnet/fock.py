"""Finite fermionic Fock space with region-owned modes.

Modes are allocated to regions in blocks (sorted region order), the Fock
basis is indexed by occupation bitsets in little-endian mode order, and
smeared fields are Jordan-Wigner creators.  Every mode has exactly one
owner, so a region's modes (``OneParticleSpace.region_modes``, ascending)
are private to it: the sector window is read from this allocation
alone (``sectors.make_window``), with no operator built.  ``FockSpace.dim`` (2^K) is
the one place that decides the envelope: every object of size 2^K (the
occupation counts, the vacuum, ``FieldOp.matrix``, ``apply`` and
``norm_max``, a window's ``charged_vector``) reads it, and past
CAPACITY_MODES (12) modes it raises CapacityError rather than degrading.
Creators, products, the window, ``compress`` and window chains never
read it, so they run at any K.

Every operator is a short sum of signed partial permutations of
occupation bitsets (``FieldOp.terms``).  A term is keyed by four mode
bitmasks ``(one, zero, flip, sign)``: it acts on the bitsets whose
``one`` modes are occupied and whose ``zero`` modes are empty, flips the
``flip`` modes and carries (-1)^popcount(state & sign).  The creator of
mode m is the single term (0, 1<<m, 1<<m, (1<<m)-1) with coefficient 1.
Products compose keys with integer bit operations, so Jordan-Wigner
signs are exact, paired monomials cancel to exact zeros, and
``field(f) * field(f)`` has no term at all.  Every flipped mode is
conditioned, and sign bits on conditioned modes are folded into the
coefficient, so equal keys are equal operators.  Only ``matrix``,
``apply`` and ``norm_max`` evaluate all 2^K bitsets.

Operators carry a support tag (the regions whose modes they were built
from) and a grading read from their keys: a term moves
popcount(flip & zero) - popcount(flip & one) units of charge, exactly
(an operator with a non-finite coefficient has no grading, and reading
it raises ValueError); the gauge unitary acts on a grade-k term as
multiplication by zeta^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .cocycles import FlatPotentialU1, InvalidPotential, worst
from .covers import Cover
from .groups import PhaseU1

CAPACITY_MODES = 12
Term = tuple[int, int, int, int]  # (one, zero, flip, sign) mode bitmasks


class CapacityError(RuntimeError):
    """Raised by ``FockSpace.dim``, and so by every object of size 2^K,
    past CAPACITY_MODES (12) modes."""


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
        self.space = space
        self.K = space.num_modes

    @property
    def dim(self) -> int:
        """2^K, read by every object of that size; CapacityError past
        CAPACITY_MODES modes."""
        if self.K > CAPACITY_MODES:
            raise CapacityError(
                f"{self.K} modes exceeds the {CAPACITY_MODES}-mode envelope of 2^K objects"
            )
        return 1 << self.K

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

    def creator(self, mode: int) -> "FieldOp":
        """Jordan-Wigner creation operator for one mode: the one term that
        fills an empty ``mode`` with sign (-1)^(occupied modes below it)."""
        if not 0 <= mode < self.K:
            raise ValueError(f"mode {mode} out of range")
        bit = 1 << mode
        return FieldOp({(0, bit, bit, bit - 1): 1 + 0j}, self,
                       frozenset({self.space.mode_owner[mode]}))


def _nonzero(terms: dict[Term, complex]) -> dict[Term, complex]:
    return {k: c for k, c in terms.items() if c != 0}


def _charge(term: Term) -> int:
    """Modes a term fills minus modes it empties."""
    one, zero, flip, _ = term
    return (flip & zero).bit_count() - (flip & one).bit_count()


@dataclass(frozen=True, eq=False)
class FieldOp:
    """Sum of signed partial permutations with support and grading tags.

    ``terms`` maps each ``(one, zero, flip, sign)`` key to its nonzero
    coefficient (see the module docstring).  ``matrix`` is a dense copy
    built on access, for inspection only.  ``charge`` is the common charge
    transfer of all terms, or None when terms of different transfer are
    mixed; ``parity`` is 'even', 'odd', or 'mixed'.  Both are read from
    the keys on first use and cached, and both raise ValueError when a
    coefficient is NaN or infinite.
    """

    terms: dict[Term, complex]
    fock: FockSpace
    support: frozenset[int]

    @cached_property
    def _grades(self) -> frozenset[int]:
        if not np.isfinite(list(self.terms.values())).all():
            raise ValueError("operator has a non-finite entry, so it has no grading")
        return frozenset(map(_charge, self.terms))

    @property
    def charge(self) -> int | None:
        return None if len(self._grades) > 1 else next(iter(self._grades), 0)

    @property
    def parity(self) -> str:
        parities = {g % 2 for g in self._grades} or {0}
        return "mixed" if len(parities) > 1 else ("odd" if parities == {1} else "even")

    def _bands(self) -> dict[int, np.ndarray]:
        """Entry (s ^ flip, s) for every bitset s, one array per flip mask."""
        states = np.arange(self.fock.dim)
        odd = (self.fock.occupation_counts & 1).astype(bool)
        bands: dict[int, np.ndarray] = {}
        for (one, zero, flip, sign), c in self.terms.items():
            band = np.where((states & (one | zero)) == one, np.where(odd[states & sign], -c, c), 0)
            bands[flip] = bands[flip] + band if flip in bands else band
        return bands

    @property
    def matrix(self) -> np.ndarray:
        states = np.arange(self.fock.dim)
        m = np.zeros((self.fock.dim, self.fock.dim), dtype=complex)
        for flip, band in self._bands().items():
            m[states ^ flip, states] = band
        m.setflags(write=False)
        return m

    def __mul__(self, other: "FieldOp") -> "FieldOp":
        """Composition, ``other`` applied first: one pass over term pairs."""
        if self.fock is not other.fock:
            raise ValueError("operators live on different Fock spaces")
        out: dict[Term, complex] = {}
        for (o2, z2, f2, a2), c2 in self.terms.items():
            for (o1, z1, f1, a1), c1 in other.terms.items():
                one, zero = o1 | (o2 & ~f1) | (z2 & f1), z1 | (z2 & ~f1) | (o2 & f1)
                if one & zero:
                    continue
                sign, c = a1 ^ a2, c2 * c1
                key = (one, zero, f1 ^ f2, sign & ~(one | zero))
                out[key] = out.get(key, 0) + (-c if ((a2 & f1) ^ (sign & one)).bit_count() & 1 else c)
        return FieldOp(_nonzero(out), self.fock, self.support | other.support)

    def __add__(self, other: "FieldOp") -> "FieldOp":
        if self.fock is not other.fock:
            raise ValueError("operators live on different Fock spaces")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return FieldOp(_nonzero(out), self.fock, self.support | other.support)

    def __sub__(self, other: "FieldOp") -> "FieldOp":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex | PhaseU1) -> "FieldOp":
        if isinstance(factor, PhaseU1):
            factor = factor.complex_value
        factor = complex(factor)
        return FieldOp(_nonzero({k: c * factor for k, c in self.terms.items()}),
                       self.fock, self.support)

    def adjoint(self) -> "FieldOp":
        """Swap ``one`` and ``zero`` on the flipped modes and conjugate; every
        flipped mode is conditioned, so the sign mask is unchanged."""
        return FieldOp({((o & ~f) | (z & f), (z & ~f) | (o & f), f, a): c.conjugate()
                        for (o, z, f, a), c in self.terms.items()}, self.fock, self.support)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        states = np.arange(self.fock.dim)
        out = np.zeros(self.fock.dim, dtype=complex)
        for flip, band in self._bands().items():
            out += (band * vec)[states ^ flip]
        return out

    def norm_max(self) -> float:
        return worst(np.abs(b).max() for b in self._bands().values())


def identity_op(fock: FockSpace) -> FieldOp:
    return FieldOp({(0, 0, 0, 0): 1 + 0j}, fock, frozenset())


def smeared_field(fock: FockSpace, f: np.ndarray) -> FieldOp:
    """Charge-one smeared field psi(f) = sum_i f_i c_i^dagger (linear in f)."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (fock.K,):
        raise ValueError(f"expected a length-{fock.K} mode vector")
    if not np.isfinite(f).all():
        raise ValueError("mode vector has a non-finite entry")
    terms = {(0, 1 << i, 1 << i, (1 << i) - 1): complex(f[i]) for i in np.flatnonzero(f).tolist()}
    return FieldOp(terms, fock, fock.space.owners(f))


def anticommutator(a: FieldOp, b: FieldOp) -> FieldOp:
    return a * b + b * a


def commutator(a: FieldOp, b: FieldOp) -> FieldOp:
    return a * b - b * a


def gauge_action(zeta: complex | PhaseU1, t: FieldOp) -> FieldOp:
    """Conjugate by the gauge unitary zeta^N: a term of charge k picks up
    zeta^k (conj(zeta)^-k for k < 0); charge-0 terms are kept as they are."""
    if isinstance(zeta, PhaseU1):
        zeta = zeta.complex_value
    zeta = complex(zeta)
    if not (abs(abs(zeta) - 1.0) <= 1e-12):
        raise ValueError("gauge parameter must lie on the unit circle")
    terms = {key: c if (k := _charge(key)) == 0 else c * (zeta if k > 0 else zeta.conjugate()) ** abs(k)
             for key, c in t.terms.items()}
    return FieldOp(_nonzero(terms), t.fock, t.support)


def grading(t: FieldOp) -> int:
    """Definite charge transfer of an operator; MixedGrade when there is none."""
    if t.charge is None:
        raise MixedGrade("operator mixes charge-transfer blocks")
    return t.charge


def normal_commutation_check(cover: Cover, t: FieldOp, s: FieldOp) -> float:
    """Max-norm of [t, s] (graded: anticommutator iff both odd).

    Requires every region pair across the two supports to be causally
    disjoint (``Cover.are_disjoint``), and definite parities on both
    operands.
    """
    if t.parity == "mixed" or s.parity == "mixed":
        raise MixedGrade("normal commutation needs definite parities")
    for u in t.support:
        for v in s.support:
            if not cover.are_disjoint(u, v):
                raise SupportError(
                    f"regions {u} and {v} are not causally disjoint "
                    "(distinct regions of the cover sharing no overlap)"
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
    spread = worst((ops[0] - other).norm_max() for other in ops[1:])
    return GlueResult(op=ops[0], chart_residual=float(spread), charts=regions)


def twisted_product(t: FieldOp, s: FieldOp, g: PhaseU1) -> FieldOp:
    """Product twisted by a unit phase: (g^grade(t) t) s."""
    if not isinstance(g, PhaseU1):
        raise TypeError("twisting value must be a unit phase")
    k = grading(t)  # raises MixedGrade for indefinite operands
    return t.scaled(PhaseU1(k * g.angle)) * s


# short name used throughout the demos; `smeared_field` stays the primary
field = smeared_field
