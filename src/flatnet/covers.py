"""Region covers, their nerve graphs, and fundamental-group presentations.

A cover is purely combinatorial: region ids, overlap components (one
entry per connected component of a pairwise overlap, as declared by the
caller) and triple-overlap records.  Two regions are causally disjoint
exactly when they are distinct and share no overlap component, so
disjointness is read off the overlaps and never stored.

The nerve turns overlap components into edges and triples into
triangles; a breadth-first spanning tree rooted at the base region then
yields a presentation of the fundamental group with one generator per
non-tree edge and one relation per triangle.

Paths are chains of elementary steps, each step crossing one overlap
component (or resting in place), stored as their visited regions and
crossed components.  A cover numbers its sorted overlaps 1..E, and
``Cover.codes`` names each crossing by a signed overlap number, the one
map from a crossing to an overlap: every per-overlap table is keyed by
exactly the overlaps (``Cover.check_overlap_keys``), held two-sided
(``groups.two_sided``) and read by those codes.  Words read
operator-style: the first step of a path sits rightmost in its word.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import neg
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .groups import FreeWord, two_sided

Edge = tuple[int, int, int]  # (u, v, component) with u < v
Triple = tuple[int, int, int, tuple[int, int, int]]
Crossing = tuple[int, int, int | None]  # (dst, src, component)


class InvalidCover(ValueError):
    """Raised when cover data violates its structural invariants."""


class InvalidPath(ValueError):
    """Raised for malformed or non-chaining path steps."""


class Step(NamedTuple):
    """One elementary move: from ``src`` into ``dst`` across overlap ``comp``.

    ``comp`` is None for a reflexive step (dst == src).
    """

    dst: int
    src: int
    comp: int | None


@dataclass(frozen=True)
class Cover:
    """Combinatorial cover data; immutable after construction.

    ``overlaps`` is stored sorted, and ``overlaps[k - 1]`` is overlap k.
    Construction also derives the lookup tables behind the queries:
    ``_components`` maps a pair (u, v) with u < v to its overlap component
    ids in ascending order (so ``are_disjoint`` reads the pairs it
    lacks), ``_neighbors`` maps a region to its sorted overlapping
    regions, and ``_codes`` maps each crossing to its signed overlap number
    (``codes``).  They take no part in equality and are rebuilt by
    ``dataclasses.replace``.
    """

    regions: tuple[int, ...]
    overlaps: tuple[Edge, ...]
    triples: tuple[Triple, ...] = ()
    base_region: int = 0
    _components: dict[tuple[int, int], tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )
    _neighbors: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)
    _codes: dict[Crossing, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        regions = tuple(self.regions)
        if len(set(regions)) != len(regions):
            raise InvalidCover("duplicate region ids")
        rset = set(regions)
        object.__setattr__(self, "regions", tuple(sorted(regions)))

        seen: set[Edge] = set()
        for (u, v, c) in self.overlaps:
            if u not in rset or v not in rset:
                raise InvalidCover(f"overlap ({u},{v}) uses unknown region")
            if not u < v:
                raise InvalidCover(f"overlap ({u},{v},{c}) must be stored with u < v")
            if (u, v, c) in seen:
                raise InvalidCover(f"duplicate overlap component ({u},{v},{c})")
            seen.add((u, v, c))
        object.__setattr__(self, "overlaps", tuple(sorted(self.overlaps)))

        for t in self.triples:
            r1, r2, r3, comps = t
            if not (r1 < r2 < r3):
                raise InvalidCover(f"triple {t} must be sorted")
            c12, c13, c23 = comps
            for pair, c in (((r1, r2), c12), ((r1, r3), c13), ((r2, r3), c23)):
                if (pair[0], pair[1], c) not in seen:
                    raise InvalidCover(
                        f"triple {t} cites missing overlap ({pair[0]},{pair[1]},{c})"
                    )
        object.__setattr__(self, "triples", tuple(sorted(self.triples)))

        components: dict[tuple[int, int], tuple[int, ...]] = {}
        for (u, v, c) in self.overlaps:  # sorted, so component ids ascend
            components[(u, v)] = components.get((u, v), ()) + (c,)

        if self.base_region not in rset:
            raise InvalidCover(f"base region {self.base_region} not in cover")

        # connectivity of the overlap graph
        adj: dict[int, set[int]] = {r: set() for r in regions}
        for (u, v, _) in self.overlaps:
            adj[u].add(v)
            adj[v].add(u)
        seen_r = {self.base_region}
        queue = deque([self.base_region])
        while queue:
            r = queue.popleft()
            for s in adj[r]:
                if s not in seen_r:
                    seen_r.add(s)
                    queue.append(s)
        if seen_r != rset:
            raise InvalidCover("overlap graph is not connected")

        object.__setattr__(self, "_components", components)
        object.__setattr__(self, "_neighbors", {r: tuple(sorted(adj[r])) for r in regions})
        codes: dict[Crossing, int] = {(r, r, None): 0 for r in regions}
        for k, (u, v, c) in enumerate(self.overlaps, 1):
            codes[(v, u, c)], codes[(u, v, c)] = k, -k
        object.__setattr__(self, "_codes", codes)

    def codes(self, crossings: Iterable[Crossing]) -> list[int]:
        """Signed overlap number of each crossing ``(dst, src, comp)``: +k
        for crossing ``overlaps[k - 1]`` low to high, -k high to low, 0 for
        a step in place (comp None) at a region of the cover.  InvalidPath
        names the first step that crosses no overlap."""
        try:
            return list(map(self._codes.__getitem__, crossings))
        except KeyError as err:
            step = Step._make(err.args[0])
            raise InvalidPath(f"step {step} crosses no overlap of the cover") from None

    def check_overlap_keys(self, table: Collection, error: type[Exception], noun: str) -> None:
        """The one rule for a per-overlap table: its keys are exactly the
        canonical overlaps.  Raises ``error`` naming the first key that is
        no overlap, then the first overlap with no key."""
        overlaps = set(self.overlaps)
        for e in table:
            if e not in overlaps:
                raise error(f"{noun} keyed by {e}, not a canonical overlap of the cover")
        for e in self.overlaps:
            if e not in table:
                raise error(f"no {noun} for overlap {e}")

    def overlap_components(self, u: int, v: int) -> tuple[int, ...]:
        return self._components.get((min(u, v), max(u, v)), ())

    def are_disjoint(self, u: int, v: int) -> bool:
        """Causally disjoint: u and v are distinct regions of the cover that
        share no overlap component."""
        return (
            u != v
            and u in self._neighbors
            and v in self._neighbors
            and (min(u, v), max(u, v)) not in self._components
        )

    def neighbors(self, r: int) -> tuple[int, ...]:
        return self._neighbors.get(r, ())


@dataclass(frozen=True)
class NerveGraph:
    """Nerve of a cover plus a deterministic BFS spanning tree.

    ``letters`` is the two-sided table (``groups.two_sided``) of signed
    generator letters read by overlap code (``Cover.codes``): slot k holds
    the letter of overlap k crossed low to high, 0 for a tree edge and
    i + 1 for non-tree edge i (``non_tree_edges[i]``); slot -k holds its
    negative, and slot 0 the empty letter of a step in place.
    """

    cover: Cover
    non_tree_edges: tuple[Edge, ...]
    parent: dict[int, Step | None] = field(compare=False)
    letters: tuple[int, ...] = field(compare=False)
    bfs_order: tuple[int, ...] = ()

    @property
    def base(self) -> int:
        return self.cover.base_region

    @cached_property
    def generators(self) -> tuple[str, ...]:
        """Presentation generator names: ``g{i}`` for ``non_tree_edges[i]``."""
        return tuple(f"g{i}" for i in range(len(self.non_tree_edges)))

    def tree_steps_from_base(self, r: int) -> tuple[Step, ...]:
        """Steps walking the spanning tree from the base region out to r."""
        chain: list[Step] = []
        cur = r
        while True:
            up = self.parent[cur]
            if up is None:
                break
            chain.append(up)
            cur = up.src
        return tuple(reversed(chain))


def build_nerve(cover: Cover) -> NerveGraph:
    """Construct the nerve with a BFS tree rooted at the base region.

    BFS visits neighbors in (region id, component id) order, so the tree,
    the non-tree edge list, and everything derived from them are
    deterministic functions of the cover data.
    """
    adj: dict[int, list[tuple[int, int, Edge]]] = {r: [] for r in cover.regions}
    for e in cover.overlaps:  # sorted with u < v: each list comes out in (region, comp) order
        u, v, c = e
        adj[u].append((v, c, e))
        adj[v].append((u, c, e))

    parent: dict[int, Step | None] = {cover.base_region: None}
    tree: set[Edge] = set()
    order = [cover.base_region]
    queue = deque([cover.base_region])
    while queue:
        r = queue.popleft()
        for (s, c, e) in adj[r]:
            if s not in parent:
                parent[s] = Step(dst=s, src=r, comp=c)
                tree.add(e)
                order.append(s)
                queue.append(s)
    non_tree = tuple(e for e in cover.overlaps if e not in tree)
    number = {e: i + 1 for i, e in enumerate(non_tree)}
    letters = two_sided(0, [number.get(e, 0) for e in cover.overlaps], neg)
    return NerveGraph(
        cover=cover,
        non_tree_edges=non_tree,
        parent=parent,
        letters=letters,
        bfs_order=tuple(order),
    )


@dataclass(frozen=True)
class Pi1Presentation:
    """Generators (one per non-tree edge) and triangle relations."""

    generators: tuple[str, ...]
    relations: tuple[FreeWord, ...]
    nerve: NerveGraph = field(compare=False)

    def word(self, letters: Iterable[int]) -> FreeWord:
        return FreeWord(tuple(letters), self.generators)


def pi1_presentation(nerve: NerveGraph) -> Pi1Presentation:
    """Presentation of the fundamental group read off the nerve.

    Each triangle (r1 < r2 < r3) is walked r1 -> r2 -> r3 -> r1; tree
    edges contribute nothing, so a fully tree-supported triangle drops
    out.  Empty relation words are omitted.
    """
    relations: list[FreeWord] = []
    for (r1, r2, r3, (c12, c13, c23)) in nerve.cover.triples:
        boundary = (
            Step(dst=r2, src=r1, comp=c12),
            Step(dst=r3, src=r2, comp=c23),
            Step(dst=r1, src=r3, comp=c13),
        )
        letters = map(nerve.letters.__getitem__, nerve.cover.codes(reversed(boundary)))
        word = FreeWord(tuple(l for l in letters if l != 0), nerve.generators)
        if len(word) > 0:
            relations.append(word)
    return Pi1Presentation(nerve.generators, tuple(relations), nerve)


# ---------------------------------------------------------------------------
# Paths


@dataclass(frozen=True, init=False)
class PosetPath:
    """An ordered chain of elementary steps between regions.

    Stored compactly as two tuples: ``regions`` is the visited sequence,
    start first and end last, and ``comps[i]`` is the overlap component
    crossed from ``regions[i]`` into ``regions[i + 1]`` (None for a
    reflexive step).  ``PosetPath(steps, start, end)`` builds one from a
    chain of ``Step``s and checks it; ``steps`` is a derived read-only
    view.  Holonomies of many paths fold step-major across the paths, one
    stacked matrix product per step (``cocycles.holonomies``).
    """

    regions: tuple[int, ...]
    comps: tuple[int | None, ...]

    def __init__(self, steps: Sequence[Step], start: int, end: int):
        steps = tuple(steps)
        if steps:
            if steps[0].src != start:
                raise InvalidPath("start region does not match first step")
            if steps[-1].dst != end:
                raise InvalidPath("end region does not match last step")
            for a, b in zip(steps, steps[1:]):
                if a.dst != b.src:
                    raise InvalidPath(f"steps do not chain: {a} then {b}")
        elif start != end:
            raise InvalidPath("empty path must start and end at the same region")
        for s in steps:
            if (s.comp is None) != (s.dst == s.src):
                raise InvalidPath(f"malformed step {s}")
        object.__setattr__(self, "regions", (start,) + tuple(s.dst for s in steps))
        object.__setattr__(self, "comps", tuple(s.comp for s in steps))

    @property
    def start(self) -> int:
        return self.regions[0]

    @property
    def end(self) -> int:
        return self.regions[-1]

    def crossings(self) -> Iterator[tuple[int, int, int | None]]:
        """``(dst, src, comp)`` of every step, in path order."""
        return zip(self.regions[1:], self.regions[:-1], self.comps)

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(map(Step._make, self.crossings()))

    @property
    def is_loop(self) -> bool:
        return self.start == self.end

    def __len__(self) -> int:
        return len(self.comps)


def _chain(regions: tuple[int, ...], comps: tuple[int | None, ...]) -> PosetPath:
    """A path from tuples already known to chain, without re-checking them."""
    p = object.__new__(PosetPath)
    object.__setattr__(p, "regions", regions)
    object.__setattr__(p, "comps", comps)
    return p


def empty_path(at: int) -> PosetPath:
    return _chain((at,), ())


def path_compose(p: PosetPath, q: PosetPath) -> PosetPath:
    """p followed by q (requires p.end == q.start)."""
    if p.end != q.start:
        raise InvalidPath(f"cannot compose: path ends at {p.end}, next starts at {q.start}")
    return _chain(p.regions + q.regions[1:], p.comps + q.comps)


def path_reverse(p: PosetPath) -> PosetPath:
    return _chain(p.regions[::-1], p.comps[::-1])


def approximate_curve(cover: Cover, visited: Sequence[int]) -> PosetPath:
    """Elementary-step path through a visited-region sequence.

    Consecutive distinct regions must overlap; the crossing always uses the
    lowest-numbered overlap component, so the result is deterministic.
    Repeated regions yield reflexive steps.
    """
    regions = tuple(visited)
    if not regions:
        raise InvalidPath("visited-region sequence is empty")
    components = cover._components  # ascending, so [0] is the lowest
    try:
        comps = tuple(
            None if u == v else components[(u, v) if u < v else (v, u)][0]
            for u, v in zip(regions, regions[1:])
        )
    except KeyError:
        u, v = next(
            (u, v)
            for u, v in zip(regions, regions[1:])
            if u != v and not cover.overlap_components(u, v)
        )
        raise InvalidPath(f"regions {u} and {v} do not overlap") from None
    return _chain(regions, comps)


def loop_class(presentation: Pi1Presentation, p: PosetPath) -> FreeWord:
    """Reduced generator word of a path, first step rightmost.

    Open paths are implicitly closed up through the spanning tree; tree
    segments contribute empty letters, so the class only depends on the
    non-tree crossings actually present in ``p``.
    """
    nerve = presentation.nerve
    codes = nerve.cover.codes(p.crossings())
    return presentation.word([l for l in map(nerve.letters.__getitem__, reversed(codes)) if l])


def generator_loop(nerve: NerveGraph, index: int) -> PosetPath:
    """The representative loop of one generator: tree out, cross, tree back."""
    (u, v, c) = nerve.non_tree_edges[index]
    out = nerve.tree_steps_from_base(u)
    back = nerve.tree_steps_from_base(v)[::-1]
    return _chain(
        (nerve.base, *(s.dst for s in out), v, *(s.src for s in back)),
        (*(s.comp for s in out), c, *(s.comp for s in back)),
    )


# ---------------------------------------------------------------------------
# Built-in covers


def circle_cover(n: int) -> Cover:
    """Cyclic chain of n >= 3 regions; one winding generator."""
    if n < 3:
        raise InvalidCover("circle covers need at least 3 regions")
    overlaps = tuple(sorted((min(k, (k + 1) % n), max(k, (k + 1) % n), 0) for k in range(n)))
    return Cover(regions=tuple(range(n)), overlaps=overlaps, base_region=0)


def annulus_cover() -> Cover:
    """Four sector regions around a ring, ``circle_cover(4)``; opposite
    sectors are disjoint."""
    return circle_cover(4)


def disk_cover() -> Cover:
    """Three mutually overlapping regions with a common triple: trivial loop group."""
    return Cover(
        regions=(0, 1, 2),
        overlaps=((0, 1, 0), (0, 2, 0), (1, 2, 0)),
        triples=((0, 1, 2, (0, 0, 0)),),
        base_region=0,
    )


def figure_eight_cover() -> Cover:
    """Two three-region lobes sharing a hub; free group on two generators."""
    overlaps = ((0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0), (1, 2, 0), (3, 4, 0))
    return Cover(regions=(0, 1, 2, 3, 4), overlaps=overlaps, base_region=0)


def torus_cover() -> Cover:
    """Seven-region torus cover (minimal triangulation; every pair overlaps).

    Faces are the orbits of {0,1,3} and {0,2,3} under the cyclic shift,
    giving 21 edges and 14 triangles with Euler characteristic zero and
    abelianized loop group of rank two.
    """
    n = 7
    overlaps = tuple(sorted((u, v, 0) for u in range(n) for v in range(u + 1, n)))
    faces = []
    for i in range(n):
        faces.append(tuple(sorted(((i) % n, (i + 1) % n, (i + 3) % n))))
        faces.append(tuple(sorted(((i) % n, (i + 2) % n, (i + 3) % n))))
    triples = tuple(sorted((r1, r2, r3, (0, 0, 0)) for (r1, r2, r3) in faces))
    return Cover(
        regions=tuple(range(n)),
        overlaps=overlaps,
        triples=triples,
        base_region=0,
    )


_BUILTIN_NAMES = ("circle", "annulus", "disk", "figure_eight", "torus")


def builtin_cover(name: str, n: int | None = None) -> Cover:
    """Look up a built-in cover by name; circle takes its region count."""
    if name == "circle":
        return circle_cover(3 if n is None else n)
    if name == "annulus":
        return annulus_cover()
    if name == "disk":
        return disk_cover()
    if name == "figure_eight":
        return figure_eight_cover()
    if name == "torus":
        return torus_cover()
    raise InvalidCover(f"unknown builtin cover {name!r}; choose from {_BUILTIN_NAMES}")
