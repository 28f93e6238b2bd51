"""Seeded inputs for the benchmark workloads and the verdicts each report must carry.

Every workload is a list of items.  An item is scenario YAML text, an
optional CLI ``--seed`` override, and the expected verdict fields of its
report.  The program only ever sees the text and the override.

Expected fields for the generated workloads come from ``Oracle``, a
small reimplementation of the documented nerve contract (BFS spanning
tree in (region, component) order, one generator per non-tree edge,
positive direction low-to-high id).  It does not import flatnet, so a
report that drifts from the contract fails the gate instead of agreeing
with itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fock-transport", "coeff-cover")

# input size of each generated workload
SIZES = {
    "fock-transport": {"n": 9, "random_paths": 6},
    "coeff-cover": {"k": 8, "loops": 16, "steps": 300},
}


@dataclass(frozen=True)
class Item:
    name: str
    text: str
    seed: int | None
    expect: tuple  # ((field path tuple, value), ...) checked by gate.check_report


def make_items(workload: str, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "fock-transport":
        return [fock_transport(rng, **SIZES[workload])]
    if workload == "coeff-cover":
        return [coeff_cover(rng, **SIZES[workload])]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Independent nerve oracle


def wrap(theta: float) -> float:
    """Angle on flatnet's canonical branch (-pi, pi]."""
    w = math.remainder(theta, 2.0 * math.pi)
    return math.pi if w <= -math.pi else w


class Oracle:
    """Spanning tree, generator letters and generator loops of a cover whose
    overlaps all have component 0."""

    def __init__(self, regions, overlaps, base: int = 0):
        adj = {r: [] for r in regions}
        for (u, v, _) in overlaps:
            adj[u].append(v)
            adj[v].append(u)
        self.parent = {base: None}
        self.base = base
        tree = set()
        queue = deque([base])
        while queue:
            r = queue.popleft()
            for s in sorted(adj[r]):
                if s not in self.parent:
                    self.parent[s] = r
                    tree.add((min(r, s), max(r, s)))
                    queue.append(s)
        self.generators = [(u, v) for (u, v, _) in sorted(overlaps) if (u, v) not in tree]
        self._index = {e: i for i, e in enumerate(self.generators)}

    def letter(self, src: int, dst: int) -> int:
        i = self._index.get((min(src, dst), max(src, dst)))
        if i is None:
            return 0
        return i + 1 if src < dst else -(i + 1)

    def letters(self, regions) -> list[int]:
        """Reduced letters of a visited-region sequence, first step rightmost."""
        out: list[int] = []
        for src, dst in reversed(list(zip(regions, regions[1:]))):
            l = self.letter(src, dst) if src != dst else 0
            if l == 0:
                continue
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
        return out

    def word(self, regions) -> str:
        names = [f"g{abs(l) - 1}" + ("" if l > 0 else "^-1") for l in self.letters(regions)]
        return ".".join(names) if names else "1"

    def exponent(self, regions, phi) -> np.ndarray:
        """Sum of generator exponents along the crossings (commuting values)."""
        total = np.zeros_like(phi[0])
        for src, dst in zip(regions, regions[1:]):
            l = self.letter(src, dst) if src != dst else 0
            if l:
                total = total + np.sign(l) * phi[abs(l) - 1]
        return total

    def tree_path(self, r: int) -> list[int]:
        chain = [r]
        while self.parent[chain[-1]] is not None:
            chain.append(self.parent[chain[-1]])
        return chain[::-1]

    def generator_loop(self, i: int) -> list[int]:
        u, v = self.generators[i]
        return self.tree_path(u) + self.tree_path(v)[::-1]


def walk_seed(rng, count: int) -> int:
    """A scenario seed whose sampled sector walks total 4 * count steps.

    flatnet draws each sampled walk's length uniformly from 2..6 with
    ``default_rng([seed, 1])``, then one neighbour per step.  On covers
    where every region has a neighbour, the total transported length then
    depends on the seed alone; fixing it at its mean keeps the work of a
    report the same for every benchmark seed.
    """
    while True:
        seed = int(rng.integers(0, 2**31))
        draws = np.random.default_rng([seed, 1])
        total = 0
        for _ in range(count):
            length = int(draws.integers(2, 7))
            total += length
            for _ in range(length):
                draws.integers(0, 2)  # the neighbour pick: one 32-bit draw for any small range
        if total == 4 * count:
            return seed


def _num(x: float) -> str:
    """Float literal PyYAML reads back as the same float."""
    s = repr(float(x))
    if "e" in s and "." not in s:
        s = s.replace("e", ".0e")
    return s


def _flow(seq) -> str:
    return "[" + ", ".join(_flow(x) if isinstance(x, (list, tuple)) else str(x) for x in seq) + "]"


# ---------------------------------------------------------------------------
# fock-transport: one large Fock window, every sector task


def fock_transport(rng, n: int, random_paths: int) -> Item:
    """circle(n), one mode per region, sigma(g0) = pi/3, charge 1.

    The seed picks the winding direction, where the top/bottom pair meets,
    and the scenario seed of the sampled paths.  top + bottom always has n
    steps and the winding path n, so the transported work barely moves
    with the seed.
    """
    overlaps = sorted((min(k, (k + 1) % n), max(k, (k + 1) % n), 0) for k in range(n))
    oracle = Oracle(range(n), overlaps)
    theta = math.pi / 3
    direction = 1 if rng.integers(0, 2) else -1
    meet = int(rng.integers(1, n))
    paths = {
        "wind": [(direction * k) % n for k in range(n + 1)],
        "top": list(range(0, meet + 1)),
        "bottom": [0] + list(range(n - 1, meet - 1, -1)),
        "stay": [0],
    }
    amplitudes = [("top", "bottom"), ("wind", "stay")]
    scenario_seed = walk_seed(rng, random_paths)
    text = "\n".join(
        [
            "schema_version: 1",
            f"topology: {{builtin: circle, n: {n}}}",
            "group: {variant: PhaseU1}",
            "sigma: {g0: pi/3}",
            "modes_per_region: 1",
            "charge: 1",
            f"seed: {scenario_seed}",
            f"random_paths: {random_paths}",
            "paths:",
            *(f"  {name}: {_flow(seq)}" for name, seq in paths.items()),
            "amplitudes:",
            *(f"  - [{p}, {q}]" for p, q in amplitudes),
            "tasks: [check, trivialize, holonomy, sector, amplitude, classify]",
            "",
        ]
    )
    phi = [np.array(theta)]

    def angle(regions):
        return wrap(float(oracle.exponent(regions, phi)))

    witness = oracle.generator_loop(0)
    expect = [
        (("summary", "status"), "pass"),
        (("summary", "exit_code"), 0),
        (("tasks", "check", "relation_violations"), []),
        (("tasks", "trivialize", "trivial"), False),
        (("tasks", "trivialize", "witness", "regions"), witness),
        (("tasks", "trivialize", "witness", "holonomy", "angle"), angle(witness)),
        (("tasks", "sector", "paths_checked"), len(paths) + random_paths),
        (("tasks", "classify", "kind"), "topological"),
        (("tasks", "classify", "dimension"), 1),
        (("tasks", "classify", "components", "g0", "angle"), wrap(theta)),
    ]
    for name, seq in paths.items():
        expect.append((("tasks", "holonomy", "paths", name, "word"), oracle.word(seq)))
        expect.append((("tasks", "holonomy", "paths", name, "value", "angle"), angle(seq)))
    for i, (p, q) in enumerate(amplitudes):
        gap = angle(paths[p]) - angle(paths[q])
        expect.append((("tasks", "amplitude", "pairs", i, "value"), [math.cos(gap), math.sin(gap)]))
    return Item("fock-transport", text, None, tuple(expect))


# ---------------------------------------------------------------------------
# coeff-cover: a large explicit cover with U(3) data, no Fock layer


def grid_torus(k: int):
    """Triangulated k x k grid torus: region i*k + j, three edges and two
    triangles per vertex."""
    rid = lambda i, j: (i % k) * k + (j % k)  # noqa: E731
    overlaps, triples = set(), set()
    for i in range(k):
        for j in range(k):
            a, right, down, diag = rid(i, j), rid(i, j + 1), rid(i + 1, j), rid(i + 1, j + 1)
            for b in (right, down, diag):
                overlaps.add((min(a, b), max(a, b), 0))
            triples.add(tuple(sorted((a, right, diag))))
            triples.add(tuple(sorted((a, down, diag))))
    return sorted(overlaps), sorted(triples)


def winding(k: int, regions) -> np.ndarray:
    """Homology class (times around each cycle) of a closed region walk."""
    total = np.zeros(2)
    for src, dst in zip(regions, regions[1:]):
        for axis, (a, b) in enumerate(((src // k, dst // k), (src % k, dst % k))):
            total[axis] += (b - a + 1) % k - 1
    return np.rint(total / k)


def random_loop(rng, overlaps, oracle: Oracle, steps: int) -> list[int]:
    """Random walk from the base that heads home once its length plus the
    way back reaches ``steps``; the way back is the spanning-tree path."""
    nbrs: dict[int, list[int]] = {}
    for (u, v, _) in overlaps:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    walk = [oracle.base]
    while len(walk) - 1 + len(oracle.tree_path(walk[-1])) - 1 < steps:
        options = sorted(nbrs[walk[-1]])
        walk.append(options[int(rng.integers(0, len(options)))])
    return walk + oracle.tree_path(walk[-1])[::-1][1:]


def _random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def coeff_cover(rng, k: int, loops: int, steps: int) -> Item:
    """Grid torus with a U(3) morphism from a random homology class.

    sigma(g) = U diag(exp(i A h_g)) U^*, with h_g the homology class of
    generator g's loop, so every triangle relation holds and every value
    commutes.  A is redrawn until each generator with h_g != 0 is far from
    the identity, which makes the trivialize witness unambiguous.
    """
    overlaps, triples = grid_torus(k)
    oracle = Oracle(range(k * k), overlaps)
    classes = [winding(k, oracle.generator_loop(i)) for i in range(len(oracle.generators))]
    unitary = _random_unitary(rng, 3)

    def matrix(exponent):
        return (unitary * np.exp(1j * exponent)) @ unitary.conj().T

    while True:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(3, 2))
        phi = [angles @ h for h in classes]
        gaps = [np.max(np.abs(matrix(p) - np.eye(3))) for p, h in zip(phi, classes) if h.any()]
        if min(gaps, default=1.0) > 1e-3:
            break
    paths = {f"loop{i:02d}": random_loop(rng, overlaps, oracle, steps) for i in range(loops)}

    def rows(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]

    def flow_rows(m):
        return "[" + ", ".join(
            "[" + ", ".join(f"[{_num(re)}, {_num(im)}]" for re, im in row) + "]" for row in rows(m)
        ) + "]"

    lines = [
        "schema_version: 1",
        "topology:",
        f"  regions: {_flow(range(k * k))}",
        f"  overlaps: {_flow(overlaps)}",
        f"  triples: {_flow([(a, b, c, (0, 0, 0)) for (a, b, c) in triples])}",
        "  base: 0",
        "group: {variant: MatrixUn, dimension: 3}",
        "sigma:",
        *(f"  g{i}: {flow_rows(matrix(p))}" for i, p in enumerate(phi)),
        "paths:",
        *(f"  {name}: {_flow(seq)}" for name, seq in paths.items()),
        "tasks: [check, trivialize, holonomy, classify]",
        "",
    ]
    first = next(i for i, h in enumerate(classes) if h.any())
    witness = oracle.generator_loop(first)
    expect = [
        (("summary", "status"), "pass"),
        (("summary", "exit_code"), 0),
        (("tasks", "check", "relation_violations"), []),
        (("tasks", "trivialize", "trivial"), False),
        (("tasks", "trivialize", "witness", "regions"), witness),
        (("tasks", "trivialize", "witness", "holonomy", "rows"), rows(matrix(phi[first]))),
        (("tasks", "classify", "kind"), "topological"),
        (("tasks", "classify", "dimension"), 3),
    ]
    for i, p in enumerate(phi):
        expect.append((("tasks", "classify", "components", f"g{i}", "rows"), rows(matrix(p))))
    for name, seq in paths.items():
        expect.append((("tasks", "holonomy", "paths", name, "word"), oracle.word(seq)))
        expect.append(
            (("tasks", "holonomy", "paths", name, "value", "rows"),
             rows(matrix(oracle.exponent(seq, phi))))
        )
    return Item("coeff-cover", "\n".join(lines), None, tuple(expect))
