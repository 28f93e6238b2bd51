"""Charged-sector transport on the Fock window.

Each region gets an implementer: the ordered product of creators of its
first kappa private modes.  These are partial isometries, not unitaries
(a finite Fock space admits no unitary charge raiser), so every sector
identity here is asserted after compression to the window subspace
spanned by the vacuum and the charged vectors v_o, the subspace on
which the implementer chains act isometrically.  Each v_o is an
occupation-basis vector, so the window is a coordinate subspace and a
compression reads the operator's entries at the window's basis indices.
A transporter is a transition cocycle (its coefficients) plus one sparse
operator per canonical edge (a signed partial permutation of the Fock
basis, times that edge's phase); coefficients are looked up, folded and
dressed by ``cocycles``.  On the window a transported chain telescopes
to its end/start pair times the path's holonomy.

Two routes carry a chain.  ``z_path`` forms the full sparse product of
the step operators (later steps on the left); ``transition_amplitude``
applies it to a charged vector.  The residual checks
(``telescope_residual``, ``triple_law_residual``,
``topological_component``) only read the chain's window block, so they
fold index trajectories instead (``window_block``): each step is a
column map (where each basis column goes, and the entry it carries),
and only the 1 + #regions window columns are followed, one basis index
each.  The fold multiplies in real arithmetic exactly as the sparse
product does, so both routes give the same bits.

Sign bookkeeping: with bare Jordan-Wigner implementers, odd-charge
implementers of disjoint regions anticommute both with and without
stars (uniform graded signs).  The mixed sign pattern that continuum
dressing produces (starred pairs anticommuting, unstarred commuting) is
not reproducible in this finite model; tests pin the uniform signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .cocycles import (
    TransitionCocycle,
    dress_cocycle,
    holonomies,
    holonomy,
    identity_cocycle,
)
from .covers import (
    Cover,
    Edge,
    InvalidPath,
    NerveGraph,
    PosetPath,
    generator_loop,
    oriented,
)
from .groups import (
    GroupValue,
    MatrixUn,
    PhaseU1,
    VariantMismatch,
    compose,
    inverse,
    is_identity,
)
from .fock import FieldOp, FockSpace, SupportError, identity_op

SECTOR_TOL = 1e-10


class NotGaugeInvariant(ValueError):
    """Raised when a morphism argument carries net charge."""


class MissingEntry(KeyError):
    """Raised when a path step has no transporter entry."""


@dataclass(frozen=True)
class Implementer:
    """Charge-kappa partial isometry private to one region."""

    region: int
    charge: int
    modes: tuple[int, ...]
    op: FieldOp

    @cached_property
    def star(self) -> FieldOp:
        """The adjoint phi^*, built once."""
        return self.op.adjoint()


def implementer(fock: FockSpace, region: int, kappa: int = 1) -> Implementer:
    """Ordered product of the region's first kappa creators.

    Creators are applied in descending mode order so the charged vector
    op |vacuum> is the plain occupation basis vector with + sign.
    """
    if kappa < 1:
        raise ValueError("charge must be >= 1")
    modes = fock.space.region_modes(region)
    if len(modes) < kappa:
        raise SupportError(
            f"region {region} owns {len(modes)} modes, fewer than charge {kappa}"
        )
    chosen = modes[:kappa]
    mat = fock.creator(chosen[0])
    for m in chosen[1:]:  # ascending matrix factors => descending application order
        mat = mat @ fock.creator(m)
    return Implementer(
        region=region,
        charge=kappa,
        modes=chosen,
        op=FieldOp(mat, fock, frozenset({region})),
    )


@dataclass(frozen=True)
class WindowSubspace:
    """Coordinate subspace spanned by the vacuum and the charged vectors.

    Every column is an occupation-basis vector with + sign, so the window
    is stored as the basis index of each column: ``columns[0]`` is the
    vacuum, ``columns[1 + i]`` the charged vector of ``regions[i]``.
    Bare transporters ``z1`` are built once per region pair and kept here.
    """

    fock: FockSpace
    implementers: dict[int, Implementer]
    regions: tuple[int, ...] = dc_field(init=False)
    columns: np.ndarray = dc_field(init=False)
    _position: np.ndarray = dc_field(init=False, repr=False, compare=False)
    _z1: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        regions = tuple(sorted(self.implementers))
        columns = [0]
        for r in regions:
            v = self.implementers[r].op.apply(self.fock.vacuum)
            k = int(np.argmax(v != 0))
            if v[k] != 1.0 or np.count_nonzero(v) != 1 or k in columns:
                raise ValueError(
                    f"window basis failed to come out orthonormal at region {r}: "
                    "charged vectors must be distinct + occupation-basis vectors"
                )
            columns.append(k)
        columns = np.array(columns)
        position = np.full(self.fock.dim + 1, -1)  # slot -1: off the basis
        position[columns] = np.arange(len(columns))
        columns.setflags(write=False)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_position", position)

    def charged_vector(self, region: int) -> np.ndarray:
        v = np.zeros(self.fock.dim, dtype=complex)
        v[self.columns[1 + self.regions.index(region)]] = 1.0
        return v

    def compress(self, op: FieldOp) -> np.ndarray:
        """The window block of ``op``: entry (i, j) is op[columns[i], columns[j]],
        read straight from the stored CSR rows."""
        m, n = op.csr, len(self.columns)
        starts, ends = m.indptr[self.columns], m.indptr[self.columns + 1]
        at = np.concatenate([np.arange(a, b) for a, b in zip(starts.tolist(), ends.tolist())])
        rows = np.repeat(np.arange(n), ends - starts)
        cols = self._position[m.indices[at]]
        hit = cols >= 0
        out = np.zeros((n, n), dtype=complex)
        out[rows[hit], cols[hit]] = m.data[at[hit]]
        return out


def make_window(fock: FockSpace, cover: Cover, kappa: int = 1) -> WindowSubspace:
    imps = {r: implementer(fock, r, kappa) for r in cover.regions}
    return WindowSubspace(fock=fock, implementers=imps)


# ---------------------------------------------------------------------------
# Transporters


# target[j] is the row basis column j goes to and value[j] the entry it
# carries; slot -1 (one past the basis) is the annihilated column, which
# maps to itself with entry 0, so a column once annihilated stays there
StepMap = tuple[np.ndarray, np.ndarray]


def column_map(csr) -> StepMap:
    """Column map of a CSR operator holding at most one entry per column.

    Raises ValueError when a column holds two entries: such an operator
    does not move one basis index to one basis index.
    """
    rows, cols = csr.shape
    if np.bincount(csr.indices, minlength=1).max() > 1:
        raise ValueError("operator holds two entries in one column; no column map")
    target = np.full(cols + 1, -1)
    value = np.zeros(cols + 1, dtype=complex)
    target[csr.indices] = np.repeat(np.arange(rows), np.diff(csr.indptr))
    value[csr.indices] = csr.data
    return target, value


def reverse_map(step: StepMap) -> StepMap:
    """Column map of the adjoint: the inverse index map, entries conjugated.

    Raises ValueError when two columns go to one row (the adjoint would
    hold two entries in one column).
    """
    target, value = step
    live = np.flatnonzero(target >= 0)
    rows = target[live]
    if np.bincount(rows, minlength=1).max() > 1:
        raise ValueError("operator holds two entries in one row; no reverse column map")
    back = np.full_like(target, -1)
    back_value = np.zeros_like(value)
    back[rows] = live
    back_value[rows] = np.conj(value[live])
    return back, back_value


@dataclass(frozen=True)
class TransportEntry:
    """A transport coefficient and its Fock operator (None off the Fock layer)."""

    coeff: GroupValue
    op: FieldOp | None


@dataclass(frozen=True)
class SectorTransporter:
    """Transition cocycle plus one Fock operator per canonical edge.

    ``cocycle`` holds every transport coefficient; ``ops[(u, v, c)]`` is
    the u -> v operator (a cocycle-weighted pair phi_v phi_u^*), and
    ``ops`` is empty on the coefficient-only matrix layer, which has no
    ``window``.
    """

    cocycle: TransitionCocycle
    window: WindowSubspace | None = None
    ops: dict[Edge, FieldOp] = dc_field(default_factory=dict)
    _adjoints: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _maps: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def op(self, dst: int, src: int, comp: int | None) -> FieldOp | None:
        """Operator of the step src -> dst: None for a reflexive step, the
        stored operator forward, its adjoint (built once per edge) in
        reverse; MissingEntry when the pair has no stored edge."""
        if dst == src:
            return None
        edge, forward = oriented(dst, src, comp)
        if forward:
            return self._stored(edge)
        if edge not in self._adjoints:
            self._adjoints[edge] = self._stored(edge).adjoint()
        return self._adjoints[edge]

    def step_map(self, dst: int, src: int, comp: int | None) -> StepMap | None:
        """Column map of the step src -> dst (``column_map``): None for a
        reflexive step, read once from the stored operator forward, and in
        reverse derived from the forward map (``reverse_map``), so no
        adjoint is built; MissingEntry when the pair has no stored edge."""
        if dst == src:
            return None
        key = oriented(dst, src, comp)
        if key not in self._maps:
            (u, v, c), forward = key
            self._maps[key] = (
                column_map(self._stored((u, v, c)).csr) if forward
                else reverse_map(self.step_map(v, u, c))
            )
        return self._maps[key]

    def _stored(self, edge: Edge) -> FieldOp:
        if edge not in self.ops:
            raise MissingEntry("no transporter entry for ({},{},{})".format(*edge))
        return self.ops[edge]

    @cached_property
    def entries(self) -> dict[Edge, TransportEntry]:
        """Read-only view: the u -> v coefficient and operator per canonical edge."""
        values = self.cocycle.values
        return {e: TransportEntry(g, self.ops.get(e)) for e, g in values.items()}


def z1(window: WindowSubspace, dst: int, src: int) -> FieldOp:
    """Bare charge transporter phi_dst phi_src^* between two regions, built
    once per window and region pair."""
    if (dst, src) not in window._z1:
        imps = window.implementers
        window._z1[(dst, src)] = imps[dst].op * imps[src].star
    return window._z1[(dst, src)]


def plain_transporter(window: WindowSubspace, cover: Cover) -> SectorTransporter:
    return twisted_transporter(window, identity_cocycle(cover, PhaseU1(0.0)))


def twisted_transporter(
    window: WindowSubspace, cocycle: TransitionCocycle
) -> SectorTransporter:
    """Cocycle-weighted transporter: op(v<-u) = g(v<-u) phi_v phi_u^*.

    Only unit-phase transition data acts on the Fock layer; matrix-valued
    data goes through rho_layer_transporter instead.
    """
    if not isinstance(cocycle.identity, PhaseU1):
        raise VariantMismatch(
            "Fock-layer twisting needs unit phases; use rho_layer_transporter"
        )
    ops = {
        (u, v, c): z1(window, v, u).scaled(g) for (u, v, c), g in cocycle.values.items()
    }
    return SectorTransporter(cocycle, window, ops)


def dress_transporter(
    t: SectorTransporter, phases: dict[int, GroupValue]
) -> SectorTransporter:
    """Conjugate by per-region phases: op'(v<-u) = p_v op(v<-u) p_u^{-1}."""
    ops = {
        (u, v, c): op.scaled(compose(phases[v], inverse(phases[u])))
        for (u, v, c), op in t.ops.items()
    }
    return SectorTransporter(dress_cocycle(t.cocycle, phases), t.window, ops)


def z_path(t: SectorTransporter, path: PosetPath) -> TransportEntry:
    """Coefficient and operator transported along a path (later steps left).

    The coefficient is ``holonomy`` of the transporter's cocycle; the
    operator is the full sparse product of the step operators, reflexive
    steps skipped, and the identity only when no step carries an operator.
    Callers that read only the window block use ``window_block`` instead.
    """
    op: FieldOp | None = None
    if t.window is not None:
        for dst, src, comp in path.crossings():
            step = t.op(dst, src, comp)
            if step is not None:
                op = step if op is None else step * op
        if op is None:
            op = identity_op(t.window.fock)
    return TransportEntry(holonomy(t.cocycle, path), op)


def window_block(
    t: SectorTransporter, crossings: Iterable[tuple[int, int, int | None]]
) -> np.ndarray:
    """Window block of the chain of step operators (later steps left),
    bit for bit ``t.window.compress(z_path(...).op)``, without the product.

    Each window column is followed as one basis index through the steps'
    column maps (``SectorTransporter.step_map``), reflexive steps skipped.
    The first step's entry is taken as stored; each later step s
    multiplies the carried entry v in real arithmetic,
    re = 0.0 + (sr*vr - si*vi), im = 0.0 + (sr*vi + si*vr), which is the
    sparse product's complex multiply and its sum from zero.  numpy's
    complex ``s * v`` may round differently (fused multiply-add).
    """
    w = t.window
    pos, re, im = w.columns, None, None
    for dst, src, comp in crossings:
        step = t.step_map(dst, src, comp)
        if step is None:
            continue
        target, value = step
        s = value[pos]
        pos = target[pos]
        if re is None:
            re, im = s.real, s.imag
        else:
            sr, si = s.real, s.imag
            re, im = 0.0 + (sr * re - si * im), 0.0 + (sr * im + si * re)
    n = len(w.columns)
    if re is None:
        return np.eye(n, dtype=complex)
    rows = w._position[pos]
    cols = np.flatnonzero(rows >= 0)
    out = np.zeros((n, n), dtype=complex)
    out.real[rows[cols], cols] = re[cols]
    out.imag[rows[cols], cols] = im[cols]
    return out


def telescope_residual(t: SectorTransporter, path: PosetPath) -> float:
    """Window gap between transported chain and its telescoped pair.

    The chain's window block is folded over window indices
    (``window_block``); the pair is the shared ``z1`` scaled by the
    path's holonomy.  An empty path telescopes to the reflexive identity
    entry, not to the degenerate pair phi phi^*, so its residual is zero
    by construction.
    """
    if t.window is None:
        raise ValueError("telescoping residuals need a Fock window")
    if not len(path):
        return 0.0
    chain = window_block(t, path.crossings())
    coeff = holonomy(t.cocycle, path)
    pair = z1(t.window, path.end, path.start).scaled(coeff)
    return float(np.max(np.abs(chain - t.window.compress(pair))))


def triple_law_residual(
    t: SectorTransporter, triple: tuple[int, int, int, tuple[int, int, int]]
) -> float:
    """Window gap of op(r3<-r2) op(r2<-r1) = op(r3<-r1), both sides
    folded over window indices (``window_block``)."""
    if t.window is None:
        raise ValueError("triple-law residuals need a Fock window")
    r1, r2, r3, (c12, c13, c23) = triple
    lhs = window_block(t, [(r2, r1, c12), (r3, r2, c23)])
    rhs = window_block(t, [(r3, r1, c13)])
    return float(np.max(np.abs(lhs - rhs)))


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
    vectors see the support projector of the chain).
    """
    if not cover.are_disjoint(o, e):
        raise SupportError(f"regions {o} and {e} are not declared causally disjoint")
    if not t.support <= {e}:
        raise SupportError(f"observable must be supported in region {e}")
    for r in (o, e):
        if not cover.overlap_components(r, ambient):
            raise SupportError(f"region {r} does not meet the ambient region {ambient}")
    z_oa = z1(window, o, ambient)
    localized = z_oa * charge_morphism(window, ambient, t) * z_oa.adjoint()
    v = window.charged_vector(o)
    return float(np.max(np.abs(localized.apply(v) - t.apply(v))))


@dataclass(frozen=True)
class TopologicalComponent:
    value: complex
    residual: float
    basepoint: int


def topological_component(
    t: SectorTransporter, loop: PosetPath
) -> TopologicalComponent:
    """Scalar the transported loop acts by on its basepoint's charged vector.

    The loop's window block is folded over window indices
    (``window_block``).  The residual measures how far it is from that
    scalar times the basepoint matrix unit; a large residual means the
    block is not scalar and the value should not be trusted.
    """
    if not loop.is_loop:
        raise InvalidPath("topological components are defined for loops")
    if t.window is None:
        raise ValueError("use rho_holonomy for the coefficient-only layer")
    m = window_block(t, loop.crossings())
    ia = 1 + t.window.regions.index(loop.start)
    value = complex(m[ia, ia])
    expected = np.zeros_like(m)
    expected[ia, ia] = value
    residual = float(np.max(np.abs(m - expected)))
    return TopologicalComponent(value=value, residual=residual, basepoint=loop.start)


def transition_amplitude(
    t: SectorTransporter, p: PosetPath, q: PosetPath
) -> complex:
    """Overlap <Z_q v_a, Z_p v_a> of two transported charges.

    Both paths must share start and end regions; the value depends only on
    the loop class of reverse(q) then p.
    """
    if t.window is None:
        raise ValueError("transition amplitudes need a Fock window")
    if p.start != q.start or p.end != q.end:
        raise InvalidPath(
            f"paths must share endpoints: ({p.start}->{p.end}) vs ({q.start}->{q.end})"
        )
    v = t.window.charged_vector(p.start)
    zp = z_path(t, p).op.apply(v)
    zq = z_path(t, q).op.apply(v)
    return complex(np.vdot(zq, zp))


@dataclass(frozen=True)
class Classification:
    kind: str  # "DHR" or "topological"
    components: dict[str, GroupValue]
    residuals: dict[str, float]
    dimension: int


def classify(
    t: SectorTransporter, nerve: NerveGraph, tol: float = SECTOR_TOL
) -> Classification:
    """Evaluate the transported loop value on every presentation generator.

    All components identity => the sector data is equivalent to an
    untwisted (DHR-type) sector; any non-identity component is a
    topological obstruction.  Phase-layer dimension is 1; the matrix
    layer reports its fiber dimension.
    """
    names = nerve.generators
    loops = [generator_loop(nerve, idx) for idx in range(len(names))]
    if t.window is None:
        components = dict(zip(names, holonomies(t.cocycle, loops)))
        residuals = dict.fromkeys(names, 0.0)
    else:
        components, residuals = {}, {}
        for name, loop in zip(names, loops):
            comp = topological_component(t, loop)
            components[name] = PhaseU1(float(np.angle(comp.value)))
            residuals[name] = max(comp.residual, abs(abs(comp.value) - 1.0))
    trivial = all(is_identity(v, tol) for v in components.values())
    ident = t.cocycle.identity
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


def rho_layer_transporter(
    cocycle: TransitionCocycle,
    rho: Callable[[GroupValue], MatrixUn] | None = None,
) -> SectorTransporter:
    """Matrix-coefficient transporter: the cocycle pushed through rho; no Fock ops.

    Higher-dimensional transport has no faithful realization on the
    finite Fock window, so this layer carries coefficients only.  By
    default rho is the identity on already-matrix transition data.
    """
    if rho is None:
        if not isinstance(cocycle.identity, MatrixUn):
            raise VariantMismatch(
                "default rho needs matrix transition data; pass an explicit rho"
            )
        rho = lambda g: g  # noqa: E731
    ident = rho(cocycle.identity)
    if not isinstance(ident, MatrixUn):
        raise VariantMismatch("rho must produce unitary matrices")
    values = {e: rho(g) for e, g in cocycle.values.items()}
    return SectorTransporter(TransitionCocycle(cocycle.cover, values, ident))


def rho_holonomy(t: SectorTransporter, loop: PosetPath) -> GroupValue:
    """Ordered coefficient product around a loop (later steps left): the
    ``holonomy`` of the transporter's cocycle."""
    if not loop.is_loop:
        raise InvalidPath("holonomy is defined for loops")
    return holonomy(t.cocycle, loop)
