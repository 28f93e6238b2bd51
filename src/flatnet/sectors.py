"""Charged-sector transport on the Fock window.

Each region gets an implementer: the ordered product of creators of its
first kappa private modes.  These are partial isometries, not unitaries
(a finite Fock space admits no unitary charge raiser), so every sector
identity here is asserted after compression to the window subspace
spanned by the vacuum and the charged vectors v_o, the subspace on
which the implementer chains act isometrically.

Two transport groups, one transporter.  A ``SectorTransporter`` always
holds a Fock window and carries U(1) coefficients.  U(n) data has no
faithful realization on the finite window, so its coefficient-only
layer is the transition cocycle itself (``rho_layer_transporter``):
``holonomy`` and ``classify`` read its transport table.

What the finite model checks on the window.  The window is a fact
about the mode allocation: region o's implementer is its first kappa
modes, ``fock.space.region_modes(o)[:kappa]``, which are ascending, in
range and private to o (a mode has exactly one owner), so each
v_o = phi_o|0> is the + occupation-basis vector of those modes and
every bare pair phi_v phi_u^* is the window matrix unit E_(v, u): it
sends v_u to +v_v and annihilates the vacuum and every other v_w.
``make_window`` only checks that kappa >= 1 and that every region owns
at least kappa modes (``implementer``'s guards); it builds no operator
and no bitset.  Each transported step is then one complex entry times
E_(v, u) in the 1 + #regions window, so a transporter is its transition
cocycle plus one step ``(src, dst, entry)`` per canonical edge, held
two-sided by signed overlap number (``Cover.codes``: the step at +k,
its reverse with the conjugate entry at -k), and a chain of steps is
one entry times one matrix unit E_(end, start), or zero where
consecutive steps do not meet.  ``window_chain`` folds a chain to
``(start, end, entry)``, in region ids, and the sector checks
(``telescope_residuals``, ``triple_law_residual``,
``topological_component``, ``transition_amplitude``, ``classify``)
compute from that triple: they build no 2^K object and no window block.
A transporter's entries, and the telescope pairs of all probe paths,
are scaled by one numpy complex multiply over the whole array (the
holonomies behind the pairs come from one ``ordered_products`` fold of
float angles over the same code rows as the chains), and chain entries
are multiplied in a sparse matrix product's real arithmetic, so the
folds carry the bits of the tests' CSR oracle (``tests/csr_oracle.py``:
a sparse product of Jordan-Wigner step matrices, compressed to the
window), which the tests check bit for bit.

The operator layer is the observable layer: ``Implementer.op``, ``z1``,
``SectorTransporter.op`` and ``z_path``'s operator are term sums
(``FieldOp``), built when called, and ``compress`` (the window rows
of the 1 + #regions window columns), ``charge_morphism``,
``intertwining_residual`` and ``localization_residual`` (one column, at
the charge's window bitset) act on them.  Each reads an operator
through ``FieldOp.column``, one occupation bitset at a time, so this
layer builds no 2^K object and runs at any mode count.  The window's
``implementers`` and ``columns`` are derived on first read, for this
layer only.

Sign bookkeeping: with bare Jordan-Wigner implementers, odd-charge
implementers of disjoint regions anticommute both with and without
stars (uniform graded signs).  The mixed sign pattern that continuum
dressing produces (starred pairs anticommuting, unstarred commuting) is
not reproducible in this finite model; tests pin the uniform signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .cocycles import (
    TransitionCocycle,
    dress_cocycle,
    holonomies,
    holonomy,
    identity_cocycle,
    worst,
)
from .covers import (
    Cover,
    Edge,
    InvalidPath,
    NerveGraph,
    PosetPath,
    generator_loop,
)
from .groups import (
    GroupValue,
    MatrixUn,
    PhaseU1,
    VariantMismatch,
    compose,
    inverse,
    is_identity,
    ordered_products,
    two_sided,
)
from .fock import FieldOp, FockSpace, SupportError, identity_op

SECTOR_TOL = 1e-10


class NotGaugeInvariant(ValueError):
    """Raised when a morphism argument carries net charge."""


class MissingEntry(KeyError):
    """Raised when a transporter's window entries are not exactly one per
    overlap of its cover."""


@dataclass(frozen=True)
class Implementer:
    """Charge-kappa partial isometry private to one region: the ordered
    product of the creators of ``modes`` (matrix factors in tuple order,
    so the last mode is created first)."""

    fock: FockSpace
    region: int
    modes: tuple[int, ...]

    @property
    def charge(self) -> int:
        return len(self.modes)

    @cached_property
    def op(self) -> FieldOp:
        """phi, built on first read: one term, or none when a mode repeats
        (the identity for no modes)."""
        op = self.fock.creator(self.modes[0]) if self.modes else identity_op(self.fock)
        for m in self.modes[1:]:
            op = op * self.fock.creator(m)
        return FieldOp(op.terms, self.fock, frozenset({self.region}))

    @cached_property
    def star(self) -> FieldOp:
        """The adjoint phi^*, built once."""
        return self.op.adjoint()


def implementer(fock: FockSpace, region: int, kappa: int = 1) -> Implementer:
    """Ordered product of the region's first kappa creators.

    Creators are applied in descending mode order so the charged vector
    op |vacuum> is the plain occupation basis vector with + sign.
    """
    return Implementer(fock=fock, region=region, modes=_charge_modes(fock, region, kappa))


def _charge_modes(fock: FockSpace, region: int, kappa: int) -> tuple[int, ...]:
    """The region's first kappa modes; ValueError for kappa < 1, and
    SupportError naming a region that owns fewer than kappa modes."""
    if kappa < 1:
        raise ValueError("charge must be >= 1")
    modes = fock.space.region_modes(region)
    if len(modes) < kappa:
        raise SupportError(
            f"region {region} owns {len(modes)} modes, fewer than charge {kappa}"
        )
    return modes[:kappa]


@dataclass(frozen=True)
class WindowSubspace:
    """Coordinate subspace spanned by the vacuum and the charged vectors
    of ``regions`` at charge ``charge``.

    Construction applies ``implementer``'s guards (``_charge_modes``) to
    every region (ValueError for a charge below 1, SupportError naming a
    region that owns fewer modes than the charge) and builds nothing
    else: region
    r's implementer is its first ``charge`` modes, private to r, so its
    charged vector is a + occupation-basis vector and phi_v phi_u^* is
    the window matrix unit E_(v, u) for every pair of regions.
    ``implementers`` and ``columns`` are derived on first read, for the
    observable layer.  ``columns`` holds the basis index of each window
    column, a Python int (an occupation bitset, of any width):
    ``columns[0]`` is the vacuum, ``columns[1 + i]`` the charged vector
    of ``regions[i]``, at window position 1 + i (``position``, read from
    a map derived on first read).
    """

    fock: FockSpace
    regions: tuple[int, ...]
    charge: int = 1

    def __post_init__(self):
        for r in self.regions:
            _charge_modes(self.fock, r, self.charge)

    @cached_property
    def implementers(self) -> dict[int, Implementer]:
        return {r: implementer(self.fock, r, self.charge) for r in self.regions}

    @cached_property
    def columns(self) -> tuple[int, ...]:
        return (0, *(sum(1 << m for m in imp.modes) for imp in self.implementers.values()))

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {r: i for i, r in enumerate(self.regions, 1)}

    def position(self, region: int) -> int:
        """Window position of a region's charged vector; ValueError naming
        a region outside the window."""
        try:
            return self._positions[region]
        except KeyError:
            raise ValueError(f"region {region} is not in the window") from None

    def compress(self, op: FieldOp) -> np.ndarray:
        """The window block of ``op``: column j holds the window rows of
        ``op.column(columns[j])``."""
        position = {s: i for i, s in enumerate(self.columns)}
        out = np.zeros((len(self.columns), len(self.columns)), dtype=complex)
        for j, s in enumerate(self.columns):
            for t, v in op.column(s).items():
                if (i := position.get(t)) is not None:
                    out[i, j] += v  # summed from zero, as a sparse product sums
        return out


def make_window(fock: FockSpace, cover: Cover, kappa: int = 1) -> WindowSubspace:
    """The charge-kappa window of the cover's regions, in ascending order."""
    return WindowSubspace(fock, tuple(sorted(cover.regions)), kappa)


def _scaled(entries: complex | list[complex], factors: Iterable[PhaseU1]) -> list[complex]:
    """``entries * factors`` elementwise (``entries`` may be one number for
    all): each factor's ``complex_value``, exp(1j * angle), taken as one
    array, times the entries by one numpy complex multiply, the ufunc a
    sparse matrix scaled by a factor applies to its stored data.  So each
    window entry carries the bits of the tests' CSR oracle
    (``oracle_step`` in ``tests/csr_oracle.py``), NaN angles included."""
    phases = np.exp(1j * np.array([g.angle for g in factors], dtype=float))
    return (np.asarray(entries, dtype=complex) * phases).tolist()


# ---------------------------------------------------------------------------
# Transporters


@dataclass(frozen=True)
class TransportEntry:
    """A transport coefficient and its Fock operator."""

    coeff: GroupValue
    op: FieldOp


@dataclass(frozen=True)
class SectorTransporter:
    """Transition cocycle plus one window entry per canonical edge.

    ``cocycle`` holds every transport coefficient.  ``weights[(u, v, c)]``
    is the window entry of the u -> v step, which on the window is that
    entry times the matrix unit E_(v, u) of the window; the
    reverse step carries its conjugate times E_(u, v).  Construction
    checks that ``weights`` holds one entry per overlap of the cover and
    no other key (MissingEntry otherwise), and stores them as the
    two-sided table ``_steps`` read by overlap code (``Cover.codes``):
    ``(u, v, entry)`` for overlap (u, v, c) at slot k,
    ``(v, u, entry.conjugate())`` at -k, and slot 0 unused, since a step
    in place is skipped.
    """

    cocycle: TransitionCocycle
    window: WindowSubspace
    weights: dict[Edge, complex]
    _steps: tuple = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cover = self.cocycle.cover
        cover.check_overlap_keys(self.weights, MissingEntry, "transporter entry")
        forward = ((u, v, self.weights[(u, v, c)]) for u, v, c in cover.overlaps)
        steps = two_sided(None, forward, lambda s: (s[1], s[0], s[2].conjugate()))
        object.__setattr__(self, "_steps", steps)

    def op(self, dst: int, src: int, comp: int | None) -> FieldOp | None:
        """Operator of the step src -> dst, for the observable layer: None
        for a reflexive step, ``z1(window, v, u).scaled(entry)`` forward
        and its adjoint in reverse; InvalidPath for a step that crosses
        no overlap."""
        (k,) = self.cocycle.cover.codes([(dst, src, comp)])
        if k == 0:
            return None
        u, v, entry = self._steps[abs(k)]
        step = z1(self.window, v, u).scaled(entry)
        return step if k > 0 else step.adjoint()

    @cached_property
    def entries(self) -> dict[Edge, TransportEntry]:
        """Read-only view: the u -> v coefficient and operator per
        canonical edge."""
        return {
            (u, v, c): TransportEntry(g, self.op(v, u, c))
            for (u, v, c), g in self.cocycle.values.items()
        }


def z1(window: WindowSubspace, dst: int, src: int) -> FieldOp:
    """Bare charge transporter phi_dst phi_src^*: one term."""
    return window.implementers[dst].op * window.implementers[src].star


def plain_transporter(window: WindowSubspace, cover: Cover) -> SectorTransporter:
    return twisted_transporter(window, identity_cocycle(cover, PhaseU1(0.0)))


def twisted_transporter(
    window: WindowSubspace, cocycle: TransitionCocycle
) -> SectorTransporter:
    """Cocycle-weighted transporter: op(v<-u) = g(v<-u) phi_v phi_u^*, held
    as the window entry g(v<-u) of each canonical edge.

    Only unit-phase transition data acts on the Fock layer; matrix-valued
    data is its own coefficient layer (rho_layer_transporter).
    """
    if not isinstance(cocycle.identity, PhaseU1):
        raise VariantMismatch(
            "Fock-layer twisting needs unit phases; use rho_layer_transporter"
        )
    weights = dict(zip(cocycle.values, _scaled(1.0, cocycle.values.values())))
    return SectorTransporter(cocycle, window, weights)


def dress_transporter(
    t: SectorTransporter, phases: dict[int, GroupValue]
) -> SectorTransporter:
    """Conjugate by per-region phases: op'(v<-u) = p_v op(v<-u) p_u^{-1}."""
    factors = [compose(phases[v], inverse(phases[u])) for u, v, _ in t.weights]
    weights = dict(zip(t.weights, _scaled(list(t.weights.values()), factors)))
    return SectorTransporter(dress_cocycle(t.cocycle, phases), t.window, weights)


def z_path(t: SectorTransporter, path: PosetPath) -> TransportEntry:
    """Coefficient and operator transported along a path (later steps left).

    The coefficient is ``holonomy`` of the transporter's cocycle; the
    operator is the product of the step operators
    (``SectorTransporter.op``), reflexive steps skipped, and the identity
    only when no step carries an operator: one term, or none where the
    chain breaks.  It serves the observable layer; the sector checks fold
    each chain to ``(start, end, entry)`` (``window_chain``) and build no
    operator.
    """
    op: FieldOp | None = None
    for dst, src, comp in path.crossings():
        step = t.op(dst, src, comp)
        if step is not None:
            op = step if op is None else step * op
    if op is None:
        op = identity_op(t.window.fock)
    return TransportEntry(holonomy(t.cocycle, path), op)


def window_chain(
    t: SectorTransporter, crossings: Iterable[tuple[int, int, int | None]]
) -> tuple[int, int | None, complex] | None:
    """The chain of steps (later steps left) as ``(start, end, entry)``:
    on the window it is ``entry`` times the matrix unit E_(end, start),
    bit for bit the tests' CSR oracle block (``oracle_block`` in
    ``tests/csr_oracle.py``: the window rows and columns of the sparse
    product of the step matrices), with no Fock-space object and no
    array.

    ``start`` and ``end`` are region ids.  None when no step moves (the
    chain is the identity); ``end`` is None, and ``entry`` 0, when a step
    does not start where the chain stands (the chain is zero).
    Reflexive steps are skipped, and a step that crosses no overlap
    raises InvalidPath.  The crossings are mapped to overlap codes once
    and folded by ``_fold``.
    """
    return _fold(t, t.cocycle.cover.codes(crossings))


def _fold(t: SectorTransporter, row: Iterable[int]) -> tuple[int, int | None, complex] | None:
    """``window_chain`` of a row of overlap codes.  Each step is read from
    the transporter's two-sided table ``_steps`` by code, so the first
    step's entry is taken as stored (conjugated in reverse); each later
    step s multiplies the carried entry v in real arithmetic,
    re = 0.0 + (sr*vr - si*vi), im = 0.0 + (sr*vi + si*vr), which is the
    sparse product's complex multiply and its sum from zero.  numpy's
    complex ``s * v`` may round differently (fused multiply-add)."""
    steps = t._steps
    start = at = None  # region ids; ``at`` is None once the chain is zero
    for k in row:
        if k == 0:
            continue
        src, dst, s = steps[k]
        if start is None:
            start, at, re, im = src, dst, s.real, s.imag
        elif at == src:
            sr, si = s.real, s.imag
            re, im, at = 0.0 + (sr * re - si * im), 0.0 + (sr * im + si * re), dst
        else:
            at, re, im = None, 0.0, 0.0
    return None if start is None else (start, at, complex(re, im))


def telescope_residuals(t: SectorTransporter, rows: Sequence[Sequence[int]]) -> list[float]:
    """Window gap between each transported chain and its telescoped pair,
    one chain per row of overlap codes (``Cover.codes`` of a path's
    crossings), so one set of rows serves every transporter on a cover.

    Each row is folded as ``(start, end, entry)`` (``_fold``); its pair
    is the window matrix unit E_(end, start) carrying the path's
    holonomy, an independent fold of the cocycle's transport table over
    the same rows (one ``ordered_products`` call for all of them),
    scaled as ``FieldOp.scaled`` scales, so the gap is
    |entry - scaled holonomy|, NaN when either is.  A path that never
    moves (empty, or reflexive steps only) telescopes to the reflexive
    identity entry, not to the degenerate pair phi phi^*, so its
    residual is zero by construction.
    """
    chains = [_fold(t, row) for row in rows]
    pairs = _scaled(1.0, ordered_products(t.cocycle.identity, t.cocycle._table, rows))
    gaps = [0j if c is None else c[2] - z for c, z in zip(chains, pairs)]
    return np.abs(np.array(gaps, dtype=complex)).tolist()


def telescope_residual(t: SectorTransporter, path: PosetPath) -> float:
    """``telescope_residuals`` of one path."""
    return telescope_residuals(t, [t.cocycle.cover.codes(path.crossings())])[0]


def triple_law_residual(
    t: SectorTransporter, triple: tuple[int, int, int, tuple[int, int, int]]
) -> float:
    """Window gap of op(r3<-r2) op(r2<-r1) = op(r3<-r1) on a triple of
    distinct regions: both sides fold (``window_chain``) to an entry times
    E_(r3, r1), so the gap is |lhs entry - rhs entry|."""
    r1, r2, r3, (c12, c13, c23) = triple
    lhs, rhs = window_chain(t, [(r2, r1, c12), (r3, r2, c23)]), window_chain(t, [(r3, r1, c13)])
    return float(np.abs(lhs[2] - rhs[2]))


# ---------------------------------------------------------------------------
# Morphisms and invariant extraction


def charge_morphism(window: WindowSubspace, region: int, t: FieldOp) -> FieldOp:
    """Localized morphism pi_o(t) = phi_o t phi_o^* for gauge-invariant t."""
    if t.charge != 0:
        raise NotGaugeInvariant(
            f"morphism argument must be gauge invariant, got charge {t.charge}"
        )
    phi = window.implementers[region]
    return phi.op * t * phi.star


def intertwining_residual(
    window: WindowSubspace, dst: int, src: int, t: FieldOp
) -> float:
    """Window gap of pi_dst(t) = z(dst<-src) pi_src(t) z(src<-dst)."""
    z = z1(window, dst, src)
    lhs = charge_morphism(window, dst, t)
    rhs = z * charge_morphism(window, src, t) * z.adjoint()
    return float(np.max(np.abs(window.compress(lhs) - window.compress(rhs))))


def localization_residual(
    window: WindowSubspace, cover: Cover, o: int, ambient: int, e: int, t: FieldOp
) -> float:
    """How far pi^ambient_o(t) is from t on the charge's own window vector.

    Preconditions: t is gauge invariant and supported in region e, with e
    causally disjoint from o; both o and e overlap the ambient region.
    With partial-isometry implementers the identity holds exactly on v_o
    (not on the whole window; the vacuum column and foreign charged
    vectors see the support projector of the chain).  The residual is
    the largest modulus of the difference of the two operators'
    columns (``FieldOp.column``) at v_o's window bitset.
    """
    if not cover.are_disjoint(o, e):
        raise SupportError(
            f"regions {o} and {e} are not causally disjoint "
            "(distinct regions of the cover sharing no overlap)"
        )
    if not t.support <= {e}:
        raise SupportError(f"observable must be supported in region {e}")
    for r in (o, e):
        if not cover.overlap_components(r, ambient):
            raise SupportError(f"region {r} does not meet the ambient region {ambient}")
    z_oa = z1(window, o, ambient)
    localized = z_oa * charge_morphism(window, ambient, t) * z_oa.adjoint()
    s = window.columns[window.position(o)]
    got, want = localized.column(s), t.column(s)
    gap = [got.get(r, 0) - want.get(r, 0) for r in got.keys() | want.keys()]
    return worst(np.abs(np.array(gap, dtype=complex)))


@dataclass(frozen=True)
class TopologicalComponent:
    value: complex
    residual: float
    basepoint: int


def topological_component(
    t: SectorTransporter, loop: PosetPath
) -> TopologicalComponent:
    """Scalar the transported loop acts by on its basepoint's charged vector.

    A loop that moves folds (``window_chain``) to its entry times the
    basepoint matrix unit, so the entry is the value and the residual is
    zero by construction.  A loop that never moves is the identity on
    the whole window, not a scalar times the basepoint unit: value 1,
    residual 1.0, so it is never certified.
    """
    if not loop.is_loop:
        raise InvalidPath("topological components are defined for loops")
    chain = window_chain(t, loop.crossings())
    value, residual = (1 + 0j, 1.0) if chain is None else (chain[2], 0.0)
    return TopologicalComponent(value=value, residual=residual, basepoint=loop.start)


def transition_amplitude(
    t: SectorTransporter, p: PosetPath, q: PosetPath
) -> complex:
    """Overlap <Z_q v_a, Z_p v_a> of two transported charges.

    Both paths must share start and end regions; the value depends only on
    the loop class of reverse(q) then p.  Each chain (``window_chain``)
    sends v_a to its entry times v_end (1 when it never moves), so the
    overlap is ``np.vdot`` of the two entries, which keeps the bits of
    ``np.vdot`` of the transported vectors, signed zeros included.
    """
    if p.start != q.start or p.end != q.end:
        raise InvalidPath(
            f"paths must share endpoints: ({p.start}->{p.end}) vs ({q.start}->{q.end})"
        )
    zp, zq = window_chain(t, p.crossings()), window_chain(t, q.crossings())
    ep, eq = (1 + 0j if z is None else z[2] for z in (zp, zq))
    return complex(np.vdot([eq], [ep]))


@dataclass(frozen=True)
class Classification:
    kind: str  # "DHR" or "topological"
    components: dict[str, GroupValue]
    residuals: dict[str, float]
    dimension: int


def classify(
    t: TransitionCocycle | SectorTransporter, nerve: NerveGraph, tol: float = SECTOR_TOL
) -> Classification:
    """Evaluate the transported loop value on every presentation generator.

    ``t`` is a TransitionCocycle for the coefficient layer, whose
    components are the generator loops' holonomies (one ``holonomies``
    fold, residuals zero), or a SectorTransporter for the Fock window,
    whose components are read from ``topological_component``.  All
    components identity => the sector data is equivalent to an
    untwisted (DHR-type) sector; any non-identity component is a
    topological obstruction.  Phase-layer dimension is 1; the matrix
    layer reports its fiber dimension.
    """
    names = nerve.generators
    loops = [generator_loop(nerve, idx) for idx in range(len(names))]
    if isinstance(t, TransitionCocycle):
        ident = t.identity
        components = dict(zip(names, holonomies(t, loops)))
        residuals = dict.fromkeys(names, 0.0)
    else:
        ident = t.cocycle.identity
        components, residuals = {}, {}
        for name, loop in zip(names, loops):
            comp = topological_component(t, loop)
            components[name] = PhaseU1(float(np.angle(comp.value)))
            residuals[name] = worst((comp.residual, abs(abs(comp.value) - 1.0)))
    trivial = all(is_identity(v, tol) for v in components.values())
    dim = ident.dim if isinstance(ident, MatrixUn) else 1
    return Classification(
        kind="DHR" if trivial else "topological",
        components=components,
        residuals=residuals,
        dimension=dim,
    )


def coefficient_ratio_cocycle(
    a: SectorTransporter, b: SectorTransporter
) -> TransitionCocycle:
    """Entrywise coeff_a coeff_b^{-1}; trivializing it exhibits per-region
    phases conjugating one transporter into the other on the window."""
    ca, cb = a.cocycle, b.cocycle
    values = {e: compose(g, inverse(cb.values[e])) for e, g in ca.values.items()}
    return TransitionCocycle(cover=ca.cover, values=values, identity=ca.identity)


# ---------------------------------------------------------------------------
# Coefficient-only matrix layer


def rho_layer_transporter(cocycle: TransitionCocycle) -> TransitionCocycle:
    """The coefficient-only matrix layer: ``cocycle`` itself, once it is
    checked to carry U(n) data (VariantMismatch otherwise).

    Higher-dimensional transport has no faithful realization on the
    finite Fock window, so this layer carries coefficients only, read
    from the cocycle's own transport table by ``holonomy`` and
    ``classify``.
    """
    if not isinstance(cocycle.identity, MatrixUn):
        raise VariantMismatch("the coefficient-only layer needs matrix transition data")
    return cocycle
