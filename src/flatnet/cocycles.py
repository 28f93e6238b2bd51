"""Transition data on a nerve: morphism-built cocycles, trivialization,
potential lifts, and holonomy.

A morphism from the loop group assigns a group value to each presentation
generator.  Pushing it onto the nerve gives one transition value per
overlap component; tree edges carry the identity, the non-tree edge
crossed low-to-high carries its generator's value, and the crossing the
other way its inverse.  The triple law g(r3<-r2) g(r2<-r1) = g(r3<-r1)
then holds whenever the morphism respects the triangle relations.
Every fold reads a two-sided table (``groups.transport_table``) by the
signed overlap numbers of ``Cover.codes``: slot k holds the value of
overlap k, slot -k its inverse.  Morphisms and cocycles build that table
at construction, which is their one check of every value's variant.
The relation, triple-law and non-tree-edge checks each compare a fold
(``groups.products``) with gathered table entries (``groups.entries``)
in one ``groups.gaps`` call, so none of them branches on U(1) or U(n).

Trivialization walks the spanning tree assigning per-region values
lambda with g(v<-u) = lambda_v lambda_u^{-1}; the first non-tree edge
that breaks this produces a witness loop whose holonomy is the
obstruction.  For unit phases the transition angles can be lifted to
real numbers; triangle sums of the lifts are integer multiples of 2 pi,
and those integers are the discrete curvature bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from operator import neg
from typing import Iterable, Sequence

import numpy as np

from .covers import (
    Cover,
    Edge,
    NerveGraph,
    Pi1Presentation,
    PosetPath,
    Triple,
    generator_loop,
)
from .groups import (
    GROUP_EQ_TOL,
    FreeWord,
    GroupValue,
    PhaseU1,
    TransportTable,
    VariantMismatch,
    as_values,
    compose,
    entries,
    gaps,
    inverse,
    ordered_products,
    products,
    transport_table,
    tree_products,
    two_sided,
    wrap_angle,
)

COCYCLE_TOL = 1e-10
TRIANGLE_INT_TOL = 1e-9


class CocycleInconsistent(ValueError):
    """Raised when transition data fails the triple law."""


class InvalidPotential(ValueError):
    """Raised when potential lifts break the integer triangle condition."""


class MissingGenerator(KeyError):
    """Raised when a morphism assignment does not cover every generator."""


@dataclass(frozen=True)
class SigmaMorphism:
    """Generator assignment defining a morphism from the loop group.

    ``identity`` fixes the target group (and matrix size); every assigned
    value must live in the same one.  Construction builds the transport
    table ``_table`` (the k-th assigned generator's value at slot k, its
    inverse at -k), which checks each value's variant once
    (VariantMismatch otherwise), so ``assignment`` is read-only once the
    morphism exists.
    """

    assignment: dict[str, GroupValue]
    identity: GroupValue
    _table: TransportTable = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_table", transport_table(self.identity, self.assignment.values()))

    def value(self, generator: str) -> GroupValue:
        if generator not in self.assignment:
            raise MissingGenerator(generator)
        return self.assignment[generator]

    def _rows(self, words: Sequence[FreeWord]) -> list[list[int]]:
        """Signed transport-table slots of each word's letters."""
        slots = {n: k for k, n in enumerate(self.assignment, 1)}
        rows = []
        for word in words:
            names = word.alphabet
            try:
                rows.append(
                    [slots[names[abs(l) - 1]] * (1 if l > 0 else -1) for l in word.letters]
                )
            except KeyError:
                for l in word.letters:
                    self.value(names[abs(l) - 1])  # raises MissingGenerator
                raise
        return rows

    def evaluate_all(self, words: Sequence[FreeWord]) -> list[GroupValue]:
        """Evaluate reduced words, letters composed left to right.

        One ``ordered_products`` fold over every word: matrix words are
        multiplied step-major across words and each result is checked
        for unitarity once.
        """
        return ordered_products(self.identity, self._table, self._rows(words), later_left=False)

    def evaluate(self, word: FreeWord) -> GroupValue:
        """``evaluate_all`` of one word."""
        return self.evaluate_all([word])[0]


def validate_sigma(
    presentation: Pi1Presentation,
    sigma: SigmaMorphism,
    tol: float = GROUP_EQ_TOL,
) -> list[tuple[FreeWord, float]]:
    """Return the relations the assignment violates, with residuals.

    Every presentation generator must be assigned (MissingGenerator
    otherwise).  An empty return value means sigma is a morphism within
    ``tol``.  The relations are one ``products`` fold, compared with the
    identity (slot 0 of the table) in one ``gaps`` call: each residual is
    ``distance(value, identity)``.
    """
    for name in presentation.generators:
        if name not in sigma.assignment:
            raise MissingGenerator(name)
    rels, table = presentation.relations, sigma._table
    folded = products(sigma.identity, table, sigma._rows(rels), later_left=False)
    residuals = gaps(folded, entries(table, [0] * len(rels)))
    return [(rel, r) for rel, r in zip(rels, residuals) if not (r <= tol)]


@dataclass(frozen=True)
class TransitionCocycle:
    """One group value per overlap component.

    ``values`` is keyed by the canonical edge (u, v, c) with u < v and
    holds the value for crossing u -> v; the reverse crossing is the
    inverse.  Same-region steps carry the identity.  Every key must be a
    canonical overlap of the cover.  Construction builds the two-sided
    transport table ``_table`` (the value of overlap k at slot k, its
    inverse at -k), which checks each value's variant once
    (VariantMismatch otherwise); holonomies and the checks read it by
    overlap code (``Cover.codes``), so ``values`` is read-only once the
    cocycle exists.
    """

    cover: Cover
    values: dict[Edge, GroupValue]
    identity: GroupValue
    _table: TransportTable = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.cover.check_overlap_keys(self.values, CocycleInconsistent, "transition value")
        table = transport_table(self.identity, map(self.values.__getitem__, self.cover.overlaps))
        object.__setattr__(self, "_table", table)

    def value(self, dst: int, src: int, comp: int | None) -> GroupValue:
        """Transition value of the crossing src -> dst: the stored value low
        to high, its inverse high to low, the identity for a reflexive step;
        InvalidPath for a step that crosses no overlap."""
        (k,) = self.cover.codes([(dst, src, comp)])
        if k == 0:
            return self.identity
        g = self.values[self.cover.overlaps[abs(k) - 1]]
        return g if k > 0 else inverse(g)

    @cached_property
    def _triple_residuals(self) -> tuple[float, ...]:
        """distance(g(r3<-r2) g(r2<-r1), g(r3<-r1)) of every triple of the
        cover, in order: one ``products`` fold of the two-slot rows (the
        codes of r1 -> r2 and r2 -> r3), compared in one ``gaps`` call
        with the table's entries at the codes of r1 -> r3."""
        triples, codes, table = self.cover.triples, self.cover.codes, self._table
        rows = [codes([(r2, r1, c12), (r3, r2, c23)]) for r1, r2, r3, (c12, _, c23) in triples]
        wants = codes([(r3, r1, c13) for r1, _, r3, (_, c13, _) in triples])
        return tuple(gaps(products(self.identity, table, rows), entries(table, wants)))


def identity_cocycle(cover: Cover, identity: GroupValue) -> TransitionCocycle:
    return TransitionCocycle(
        cover=cover,
        values={e: identity for e in cover.overlaps},
        identity=identity,
    )


def transition_cocycle(sigma: SigmaMorphism, nerve: NerveGraph) -> TransitionCocycle:
    """Push a morphism onto the nerve: tree edges identity, non-tree edges
    their generator's value (crossing low-to-high is the positive direction)."""
    values: dict[Edge, GroupValue] = {}
    for e, letter in zip(nerve.cover.overlaps, nerve.letters[1:]):
        values[e] = sigma.value(nerve.generators[letter - 1]) if letter else sigma.identity
    return TransitionCocycle(cover=nerve.cover, values=values, identity=sigma.identity)


def dress_cocycle(
    cocycle: TransitionCocycle, phases: dict[int, GroupValue]
) -> TransitionCocycle:
    """Multiply by the coboundary of per-region values:
    g'(v<-u) = phase_v g(v<-u) phase_u^{-1}.  Preserves the triple law."""
    values = {}
    for (u, v, c), g in cocycle.values.items():
        values[(u, v, c)] = compose(compose(phases[v], g), inverse(phases[u]))
    return TransitionCocycle(cocycle.cover, values, cocycle.identity)


@dataclass(frozen=True)
class CocycleCheck:
    max_residual: float
    failures: tuple[tuple[Triple, float], ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.failures


def worst(residuals: Iterable[float]) -> float:
    """Largest residual (0.0 for none); NaN once any residual is NaN, so an
    aggregate never hides a comparison that failed."""
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


def check_cocycle(cocycle: TransitionCocycle, tol: float = COCYCLE_TOL) -> CocycleCheck:
    """Test g(r3<-r2) g(r2<-r1) = g(r3<-r1) on every triple of the cover.

    Reads the cocycle's triple residuals, folded once per cocycle by
    ``ordered_products`` (so a non-unitary matrix product raises
    ValueError there), and applies ``tol``; the worst residual is NaN
    once any residual is.
    """
    residuals = cocycle._triple_residuals
    triples = cocycle.cover.triples
    failures = tuple((t, r) for t, r in zip(triples, residuals) if not (r <= tol))
    return CocycleCheck(worst(residuals), failures, tol)


@dataclass(frozen=True)
class WitnessLoop:
    """Obstruction to trivializing: a loop with non-identity holonomy."""

    loop: PosetPath
    holonomy: GroupValue
    edge: Edge
    residual: float


@dataclass(frozen=True)
class TrivializationResult:
    success: bool
    lambdas: dict[int, GroupValue] | None = None
    witness: WitnessLoop | None = None


def trivialize(
    cocycle: TransitionCocycle,
    nerve: NerveGraph,
    tol: float = COCYCLE_TOL,
) -> TrivializationResult:
    """Solve g(v<-u) = lambda_v lambda_u^{-1} along the spanning tree.

    The base region gets the identity, and every other region, in BFS
    order, lambda_r = g(r <- parent) lambda_parent, the factor read from
    the cocycle's transport table by overlap code: one ``tree_products``
    walk, one product per tree edge, so each lambda is the transport
    along its tree path from the base (matrix lambdas checked for
    unitarity once, as one stack).  Each non-tree edge u -> v is then
    tested against lambda_v lambda_u^{-1}, the two-slot row
    [-slot(u), slot(v)] of one ``products`` fold over a transport table
    of the lambdas, compared in one ``gaps`` call with the cocycle's
    table at the edges' codes, and the first failure is returned as a
    witness loop through that edge (its holonomy is the transported
    obstruction).
    """
    chk = check_cocycle(cocycle, tol)
    if not chk.ok:
        raise CocycleInconsistent(
            f"cocycle fails the triple law, max residual {chk.max_residual:.3e}"
        )
    ident, table, codes = cocycle.identity, cocycle._table, cocycle.cover.codes
    order = nerve.bfs_order
    at = {r: i for i, r in enumerate(order)}
    ups = [nerve.parent[r] for r in order[1:]]
    lam = as_values(tree_products(ident, table, codes(ups), [at[up.src] for up in ups]))
    edges = nerve.non_tree_edges
    pairs = [[-1 - at[u], 1 + at[v]] for u, v, _ in edges]
    wants = products(ident, transport_table(ident, lam), pairs)
    residuals = gaps(entries(table, codes([(v, u, c) for u, v, c in edges])), wants)
    for idx, ((u, v, c), resid) in enumerate(zip(edges, residuals)):
        if not (resid <= tol):
            loop = generator_loop(nerve, idx)
            return TrivializationResult(
                success=False,
                witness=WitnessLoop(
                    loop=loop,
                    holonomy=holonomy(cocycle, loop),
                    edge=(u, v, c),
                    residual=resid,
                ),
            )
    return TrivializationResult(success=True, lambdas=dict(zip(order, lam)))


def holonomies(source, paths: Sequence[PosetPath]) -> list[GroupValue]:
    """Ordered product of transition values along each path (later steps left).

    ``source`` may be a TransitionCocycle or a FlatPotentialU1.  Loops give
    the transported loop-group value; open paths are allowed but their
    value is chart-dependent bookkeeping, not an invariant.  All paths go
    through one ``ordered_products`` fold over the cocycle's transport
    table: phase rows fold float angles, matrix products are folded
    step-major across the paths, one stacked product per step, and each
    returned holonomy is checked for unitarity once.
    """
    if isinstance(source, FlatPotentialU1):
        return [PhaseU1(lift_sum(source, p)) for p in paths]
    rows = [source.cover.codes(p.crossings()) for p in paths]
    return ordered_products(source.identity, source._table, rows)


def holonomy(source, path: PosetPath) -> GroupValue:
    """``holonomies`` of one path: the one-row fold, a matrix result
    checked for unitarity once."""
    return holonomies(source, [path])[0]


# ---------------------------------------------------------------------------
# Abelian potential lifts


@dataclass(frozen=True)
class FlatPotentialU1:
    """Real lifts of unit-phase transition data.

    ``angles`` holds one real number per canonical edge (u, v, c), the lift
    for crossing u -> v; every key must be a canonical overlap of the
    cover.  Lifts are read from the two-sided table ``_lifts`` by overlap
    code (``Cover.codes``): the lift at slot k, its negative at -k, and
    0.0 for a step in place.  Triangle sums must land on 2 pi Z within
    TRIANGLE_INT_TOL; the rounded integers are exposed by
    ``triangle_integers``.  When the underlying cocycle trivializes, the
    per-region primitives phi satisfy angle(v<-u) == phi_v - phi_u mod 2 pi.
    """

    cover: Cover
    angles: dict[Edge, float]
    primitives: dict[int, float] | None = None

    def __post_init__(self):
        self.cover.check_overlap_keys(self.angles, InvalidPotential, "lift")
        for e in self.cover.overlaps:
            if not np.isfinite(self.angles[e]):
                raise InvalidPotential(f"lift for overlap {e} is not finite")
        for t, (n, defect) in self._triangle_data().items():
            if not (defect <= TRIANGLE_INT_TOL):
                raise InvalidPotential(
                    f"triangle {t}: lift sum off 2 pi Z by {defect:.3e}"
                )
        if self.primitives is not None:
            for (u, v, c) in self.cover.overlaps:
                gap = abs(
                    wrap_angle(
                        self.angles[(u, v, c)]
                        - (self.primitives[v] - self.primitives[u])
                    )
                )
                if not (gap <= TRIANGLE_INT_TOL):
                    raise InvalidPotential(
                        f"primitives fail on ({u},{v},{c}): gap {gap:.3e}"
                    )

    @cached_property
    def _lifts(self) -> tuple[float, ...]:
        return two_sided(0.0, map(self.angles.__getitem__, self.cover.overlaps), neg)

    def lift(self, dst: int, src: int, comp: int | None) -> float:
        return self._lifts[self.cover.codes([(dst, src, comp)])[0]]

    def _triangle_data(self) -> dict[Triple, tuple[int, float]]:
        out = {}
        lifts = self._lifts
        for t in self.cover.triples:
            r1, r2, r3, (c12, c13, c23) = t
            a, b, c = self.cover.codes([(r2, r1, c12), (r3, r2, c23), (r3, r1, c13)])
            s = lifts[a] + lifts[b] - lifts[c]
            n = int(round(s / (2.0 * np.pi)))
            out[t] = (n, abs(s - 2.0 * np.pi * n))
        return out

    def triangle_integers(self) -> dict[Triple, int]:
        return {t: n for t, (n, _) in self._triangle_data().items()}


def lift_sum(pot: FlatPotentialU1, path: PosetPath) -> float:
    """Unwrapped sum of lifts along a path (winding-sensitive)."""
    return float(sum(map(pot._lifts.__getitem__, pot.cover.codes(path.crossings()))))


def lift_potential(
    cocycle: TransitionCocycle,
    nerve: NerveGraph,
    tol: float = COCYCLE_TOL,
) -> FlatPotentialU1:
    """Principal-branch lift of a unit-phase cocycle.

    Every stored angle lands in (-pi, pi] (ties at -pi resolve to +pi by
    the phase container itself).  If the cocycle trivializes, the
    spanning-tree solution provides per-region primitives.
    """
    if not isinstance(cocycle.identity, PhaseU1):
        raise VariantMismatch("potential lifts exist for unit-phase data only")
    angles = {e: cocycle.values[e].angle for e in cocycle.cover.overlaps}
    triv = trivialize(cocycle, nerve, tol)
    primitives = None
    if triv.success:
        primitives = {r: lam.angle for r, lam in triv.lambdas.items()}
    return FlatPotentialU1(cover=cocycle.cover, angles=angles, primitives=primitives)
