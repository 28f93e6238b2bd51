"""Declarative scenario files and deterministic report emission.

A scenario is a YAML document (schema_version 1) selecting a cover, a
target group, a generator assignment, and a task list.  Schema:

    schema_version: 1            # required, must be 1
    topology:                    # builtin...
      builtin: annulus           #   circle | annulus | disk
      n: 6                       #   | figure_eight | torus; circle takes n
    # ...or an explicit cover block:
    # topology:
    #   regions: [0, 1, 2]
    #   overlaps: [[0, 1, 0], [1, 2, 0]]    # [low, high, component]
    #   triples: [[0, 1, 2, [0, 0, 0]]]     # optional
    #   base: 0                             # optional
    #   (regions sharing no overlap are causally disjoint)
    group:
      variant: PhaseU1           # or MatrixUn
      dimension: 2               # MatrixUn only
    sigma:                       # one entry per presentation generator
      g0: pi/2                   # U(1): radians, or 'pi', '2pi/3', '-pi/4'
      # g0: [[[0.0,0.0],[1.0,0.0]], [[1.0,0.0],[0.0,0.0]]]
      #                            # U(n): rows of [re, im] entries
    modes_per_region: 2          # default 2
    charge: 1                    # default 1, at most modes_per_region
    seed: 7                      # required when random_paths > 0
    random_paths: 8              # extra sampled paths in the sector task
    tolerance: 1.0e-10           # default 1e-10; per-task override:
    # tolerances: {check: 1.0e-12}
    paths:                       # named visited-region sequences
      wind1: [0, 1, 2, 3, 0]
    amplitudes:                  # named path pairs sharing endpoints
      - [wind1, wind1]
    tasks: [check, trivialize, holonomy, sector, amplitude, classify]

Angles are radians (YAML numbers) or strings of the form 'p*pi/q' with
integer p, q ('pi', '-pi/3', '2pi/3', '3*pi/4').  Matrix values must be
unitary within UNITARY_TOL (1e-10), the bound every MatrixUn meets.
Explicit covers take integers only; floats and booleans are rejected,
not rounded, and so is any key outside the four above.  The sector and
amplitude tasks act on the Fock window and are unit-phase only; MatrixUn
scenarios may run check, trivialize, holonomy and classify (coefficient
layer).

Loading (``flatnet.loader``): one pass over PyYAML's event stream, with
PyYAML's YAML 1.1 meaning.  A scenario is a tree: an anchor, an alias, a
merge key or a container tagged as anything but a mapping or a sequence
is rejected where it appears, and so is nesting past MAX_DEPTH (100), so
a loaded value grows linearly with its text and its repr is safe.  Every
ScenarioError from ``load_scenario`` names its field path and ends with
the line and column of the offending node, e.g. ``sigma.g0: must be a
finite number (line 9:7)``; malformed YAML reads ``not valid YAML:
... (line 3:1)``, on one line.

Reports carry no timestamps and serialize with sorted keys; identical
config and seed give byte-identical output.  Complex values appear as
[re, im] pairs rendered by shortest round-trip (at most 17 significant
digits, exact value recovery).  Exit-code contract, used by the CLI:
0 all requested tasks pass, 1 task failure, 2 parse/config error.  No
task builds an object of size 2^K, so a scenario takes any mode count.
The Fock tasks read the window from the mode allocation and build no
Fock operator: a circle cover at charge 2 with all six tasks ran in
0.10 s at 10,000 regions and 0.51 s at 40,000, peaking at 55 MB and
113 MB RSS (in process, 2-vCPU Xeon host).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
# numpy loads its random module lazily; _sample_paths needs it, so load it
# with this module rather than inside the first report
import numpy.random  # noqa: F401

from .cocycles import (
    SigmaMorphism,
    check_cocycle,
    holonomies,
    transition_cocycle,
    trivialize,
    validate_sigma,
    worst,
)
from .covers import (
    Cover,
    InvalidCover,
    InvalidPath,
    NerveGraph,
    PosetPath,
    approximate_curve,
    builtin_cover,
    build_nerve,
    loop_class,
    pi1_presentation,
)
from .fock import FockSpace, allocate_modes
from .groups import (
    UNITARY_TOL,
    GroupValue,
    MatrixUn,
    PhaseU1,
    _as_unitary_loose,
    _require_unitary,
    compose,
    distance,
    inverse,
    unitary_defects,
)
from .loader import ScenarioError, _Loader, _mark_of, mark_after
from .sectors import (
    classify,
    make_window,
    plain_transporter,
    telescope_residuals,
    transition_amplitude,
    triple_law_residual,
    twisted_transporter,
)

SCHEMA_VERSION = 1
TASK_ORDER = ("check", "trivialize", "holonomy", "sector", "amplitude", "classify")
DEFAULT_TOLERANCE = 1e-10


# ---------------------------------------------------------------------------
# Parsing

_PI_FORM = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<num>\d+)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+)\s*)?$",
    re.IGNORECASE,
)


def _finite(value, where: str) -> float:
    """A finite int or float as float; booleans and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("must be a finite number", where)
    try:
        x = float(value)
    except OverflowError:  # an integer beyond float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError("must be a finite number", where)
    return x


def _int(value, where: str, minimum: int | None = None) -> int:
    """A non-boolean int, at least ``minimum`` when given; floats, booleans
    and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError("must be an integer", where)
    if minimum is not None and value < minimum:
        raise ScenarioError(f"must be an integer >= {minimum}", where)
    return value


def _ints(value, where: str, length: int | None = None) -> tuple[int, ...]:
    """A list of non-boolean ints, of ``length`` entries when given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = "" if length is None else f" {length}"
        raise ScenarioError(f"must be a list of{size} integers", where)
    if not all(type(x) is int for x in value):  # name the first bad entry
        for i, x in enumerate(value):
            _int(x, f"{where}[{i}]")
    return tuple(value)


def _rows(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError("must be a list", where)
    return value


def parse_tolerance(value, where: str) -> float:
    """A finite number > 0; booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not _finite(value, where) > 0:
        raise ScenarioError("must be a positive number", where)
    return float(value)


def parse_angle(value, where: str = "angle") -> float:
    """Radians from a finite YAML number or a rational-multiple-of-pi string."""
    if isinstance(value, bool):
        raise ScenarioError("angle must be a number or a pi fraction", where)
    if isinstance(value, (int, float)):
        return _finite(value, where)
    if isinstance(value, str):
        m = _PI_FORM.match(value)
        if m:
            # float() of the digits rounds as int * float and float / int
            # do, but gives inf past float range where those raise
            num, den = (float(m.group(k) or 1) for k in ("num", "den"))
            if den == 0:
                raise ScenarioError("zero denominator", where)
            sign = -1.0 if m.group("sign") == "-" else 1.0
            angle = sign * num * np.pi / den
            if not all(map(math.isfinite, (num, den, angle))):
                raise ScenarioError("pi fraction is out of float range", where)
            return angle
        raise ScenarioError(
            f"cannot read angle {value!r} (want a number or 'p*pi/q')", where
        )
    raise ScenarioError(f"cannot read angle of type {type(value).__name__}", where)


def _parse_matrices(raw: dict, names: list[str], dim: int) -> list[MatrixUn]:
    """The ``sigma`` matrices of generators ``names`` as MatrixUn values.

    Entries must be finite non-boolean numbers; an error names the first
    bad one.  The matrices are checked unitary at UNITARY_TOL as one
    stack, and the error names the first generator that fails."""
    flat: list = []
    for g in names:
        where, rows = f"sigma.{g}", raw[g]
        if not isinstance(rows, list) or len(rows) != dim:
            raise ScenarioError(f"expected {dim} matrix rows", where)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ScenarioError(f"row {i} must have {dim} [re, im] entries", where)
            for j, ent in enumerate(row):
                if not (isinstance(ent, list) and len(ent) == 2):
                    raise ScenarioError(f"entry ({i},{j}) must be [re, im]", where)
                for k, x in enumerate(ent):
                    if type(x) is not float or x - x != 0.0:  # not a finite float
                        _finite(x, f"{where}[{i}][{j}][{k}]")
                flat += ent
    # [re, im] float pairs read as complex128 keep every bit, signed zeros too
    stack = np.array(flat, dtype=float).view(complex).reshape(len(names), dim, dim)
    try:
        _require_unitary(stack)
    except ValueError as e:
        first = next(g for g, d in zip(names, unitary_defects(stack)) if not d <= UNITARY_TOL)
        raise ScenarioError(str(e), f"sigma.{first}") from None
    return [_as_unitary_loose(m) for m in stack]


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario.

    Construction, and so ``dataclasses.replace``, decides two rules:
    ``seed`` is None or an integer >= 0, and only PhaseU1 scenarios run
    the Fock-window tasks (sector, amplitude); either failure is a
    ScenarioError.  ``curves`` holds each named path as built by
    ``approximate_curve``.  It is derived on construction too and takes no
    part in equality; every task reads its paths from it.  ``nerve`` is
    the cover's ``build_nerve``, derived on first read (``load_scenario``
    hands over the one it read the generator names from); every task
    reads the nerve from it.
    """

    cover: Cover
    topology_name: str
    group_variant: str
    dimension: int | None
    sigma: dict[str, GroupValue]
    modes_per_region: int = 2
    charge: int = 1
    paths: dict[str, tuple[int, ...]] = dc_field(default_factory=dict)
    amplitudes: tuple[tuple[str, str], ...] = ()
    tasks: tuple[str, ...] = TASK_ORDER
    tolerance: float = DEFAULT_TOLERANCE
    tolerances: dict[str, float] = dc_field(default_factory=dict)
    seed: int | None = None
    random_paths: int = 0
    curves: dict[str, PosetPath] = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.seed is not None:
            _int(self.seed, "seed", 0)
        if self.group_variant != "PhaseU1":
            unsupported = sorted(set(self.tasks) & {"sector", "amplitude"})
            if unsupported:
                raise ScenarioError(
                    f"{unsupported} act on the Fock window and need PhaseU1", "tasks"
                )
        curves = {}
        for name, seq in self.paths.items():
            try:
                curves[name] = approximate_curve(self.cover, seq)
            except InvalidPath as e:
                raise ScenarioError(str(e), f"paths.{name}") from None
        object.__setattr__(self, "curves", curves)

    @cached_property
    def nerve(self) -> NerveGraph:
        return build_nerve(self.cover)

    def task_tolerance(self, task: str) -> float:
        return float(self.tolerances.get(task, self.tolerance))


def _parse_topology(raw) -> tuple[Cover, str]:
    if not isinstance(raw, dict):
        raise ScenarioError("must be a mapping", "topology")
    if "builtin" in raw:
        name = raw["builtin"]
        if not isinstance(name, str):
            raise ScenarioError("must be a builtin cover name", "topology.builtin")
        extra = set(raw) - {"builtin", "n"}
        if extra:
            raise ScenarioError(f"unknown keys {sorted(extra, key=str)}", "topology")
        n = raw.get("n")
        if n is not None:
            _int(n, "topology.n")
        try:
            cover = builtin_cover(name, n)
        except InvalidCover as e:  # an unknown name, or a circle too small
            where = "topology.n" if name == "circle" else "topology.builtin"
            raise ScenarioError(str(e), where) from None
        if n is not None and name != "circle":
            raise ScenarioError("applies to circle only", "topology.n")
        label = name if name != "circle" else f"circle({len(cover.regions)})"
        return cover, label
    needed = {"regions", "overlaps"}
    if not needed <= set(raw):
        raise ScenarioError(
            "needs either 'builtin' or explicit 'regions' + 'overlaps'", "topology"
        )
    extra = set(raw) - needed - {"triples", "base"}
    if extra:
        raise ScenarioError(f"unknown keys {sorted(extra, key=str)}", "topology")
    regions = _ints(raw["regions"], "topology.regions")
    overlaps = tuple(
        _ints(e, f"topology.overlaps[{i}]", 3)
        for i, e in enumerate(_rows(raw["overlaps"], "topology.overlaps"))
    )
    triples = []
    for i, t in enumerate(_rows(raw.get("triples", []), "topology.triples")):
        where = f"topology.triples[{i}]"
        if not (isinstance(t, list) and len(t) == 4):
            raise ScenarioError("must be [r1, r2, r3, [c12, c13, c23]]", where)
        triples.append(_ints(t[:3], where) + (_ints(t[3], f"{where}[3]", 3),))
    if "base" in raw:
        base = _int(raw["base"], "topology.base")
    else:
        base = regions[0] if regions else 0
    try:
        cover = Cover(
            regions=regions,
            overlaps=overlaps,
            triples=tuple(triples),
            base_region=base,
        )
    except (InvalidCover, TypeError, ValueError) as e:
        raise ScenarioError(str(e), "topology") from None
    return cover, "explicit"


def load_scenario(text: str, source: str = "<scenario>") -> ScenarioConfig:
    """Parse and validate scenario text; raises ScenarioError with the
    line and column of the offending YAML node."""
    doc = _Loader.read(text, source)
    try:
        return _parse_config(doc, source)
    except ScenarioError as e:
        raise ScenarioError(e.message, e.where, _mark_of(_Loader(text), e.where, source)) from None


def _parse_config(doc, source: str) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be a mapping", source)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version must be {SCHEMA_VERSION}", "schema_version"
        )

    known = {
        "schema_version", "topology", "group", "sigma", "modes_per_region",
        "charge", "seed", "random_paths", "tolerance", "tolerances",
        "paths", "amplitudes", "tasks",
    }
    extra = set(doc) - known
    if extra:
        raise ScenarioError(f"unknown keys {sorted(extra, key=str)}", source)

    cover, topo_name = _parse_topology(doc.get("topology", {}))

    graw = doc.get("group", {"variant": "PhaseU1"})
    if not isinstance(graw, dict) or "variant" not in graw:
        raise ScenarioError("needs a 'variant'", "group")
    extra = set(graw) - {"variant", "dimension"}
    if extra:
        raise ScenarioError(f"unknown keys {sorted(extra, key=str)}", "group")
    variant = graw["variant"]
    dim = graw.get("dimension")
    if variant == "PhaseU1":
        if dim not in (None, 1):
            raise ScenarioError("dimension applies to MatrixUn only", "group")
        dim = None
    elif variant == "MatrixUn":
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ScenarioError("MatrixUn needs an integer dimension >= 1", "group")
    else:
        raise ScenarioError(f"unknown variant {variant!r}", "group.variant")

    nerve = build_nerve(cover)
    gen_names = nerve.generators
    sraw = doc.get("sigma", {}) or {}
    if not isinstance(sraw, dict):
        raise ScenarioError("must map generator names to values", "sigma")
    missing = [g for g in gen_names if g not in sraw]
    if missing:
        raise ScenarioError(f"missing generators {missing}", "sigma")
    unknown = [g for g in sraw if g not in gen_names]
    if unknown:
        raise ScenarioError(f"unknown generators {sorted(unknown, key=str)}", "sigma")
    if variant == "PhaseU1":
        values = [PhaseU1(parse_angle(sraw[g], f"sigma.{g}")) for g in gen_names]
    else:
        values = _parse_matrices(sraw, gen_names, dim)
    sigma: dict[str, GroupValue] = dict(zip(gen_names, values))

    m = _int(doc.get("modes_per_region", 2), "modes_per_region", 1)
    kappa = _int(doc.get("charge", 1), "charge", 1)
    if kappa > m:
        raise ScenarioError(
            f"charge {kappa} exceeds modes_per_region {m}", "charge"
        )

    praw = doc.get("paths", {}) or {}
    if not isinstance(praw, dict):
        raise ScenarioError("must map names to visited-region lists", "paths")
    paths: dict[str, tuple[int, ...]] = {}
    rset = set(cover.regions)
    for name in praw:
        seq = praw[name]
        where = f"paths.{name}"
        if not isinstance(seq, list) or not seq:
            raise ScenarioError("must be a non-empty region list", where)
        visited = _ints(seq, where)
        for r in visited:
            if r not in rset:
                raise ScenarioError(f"region {r} is not in the cover", where)
        paths[str(name)] = visited

    araw = doc.get("amplitudes", []) or []
    if not isinstance(araw, list):
        raise ScenarioError("must be a list of [path, path] name pairs", "amplitudes")
    amplitudes = []
    for i, pair in enumerate(araw):
        where = f"amplitudes[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError("must be a [path, path] name pair", where)
        for nm in pair:
            if not (isinstance(nm, str) and nm in paths):
                raise ScenarioError(f"unknown path name {nm!r}", where)
        amplitudes.append((pair[0], pair[1]))

    traw = doc.get("tasks", list(TASK_ORDER))
    if not isinstance(traw, list) or not traw:
        raise ScenarioError("must be a non-empty task list", "tasks")
    bad = [t for t in traw if t not in TASK_ORDER]
    if bad:
        raise ScenarioError(f"unknown tasks {bad!r}", "tasks")
    tasks = tuple(t for t in TASK_ORDER if t in set(traw))

    tol = parse_tolerance(doc.get("tolerance", DEFAULT_TOLERANCE), "tolerance")
    traw2 = doc.get("tolerances", {}) or {}
    if not isinstance(traw2, dict):
        raise ScenarioError("must map task names to positive numbers", "tolerances")
    tolerances = {}
    for t in traw2:
        if t not in TASK_ORDER:
            raise ScenarioError(f"unknown task {t!r}", "tolerances")
        tolerances[t] = parse_tolerance(traw2[t], f"tolerances.{t}")

    seed = doc.get("seed")
    random_paths = _int(doc.get("random_paths", 0), "random_paths", 0)
    if random_paths > 0 and seed is None:
        raise ScenarioError("randomized checks need a seed", "seed")

    config = ScenarioConfig(
        cover=cover,
        topology_name=topo_name,
        group_variant=variant,
        dimension=dim,
        sigma=sigma,
        modes_per_region=m,
        charge=kappa,
        paths=paths,
        amplitudes=tuple(amplitudes),
        tasks=tasks,
        tolerance=tol,
        tolerances=tolerances,
        seed=seed,
        random_paths=random_paths,
    )
    config.__dict__["nerve"] = nerve  # the nerve of this cover, built once per load
    return config


def parse_scenario(path: str) -> ScenarioConfig:
    """Read and load a scenario file.  Its bytes are decoded here in one
    piece, so a byte that is not UTF-8 is named at its line and column in
    the file.  Line ends are left to YAML, which reads CR LF and CR as a
    text-mode read would."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ScenarioError(str(e), str(path)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"byte 0x{data[e.start]:02x} is not UTF-8 ({e.reason})", str(path),
                            mark_after(data[: e.start].decode("utf-8"), str(path))) from None
    return load_scenario(text, source=str(path))


# ---------------------------------------------------------------------------
# Value rendering (deterministic, JSON-safe)


def _render_value(v: GroupValue):
    if isinstance(v, PhaseU1):
        z = v.complex_value
        return {"angle": float(v.angle), "value": [float(z.real), float(z.imag)]}
    return {"rows": [[[float(x.real), float(x.imag)] for x in row] for row in v.mat]}


def _render_complex(z: complex):
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# Running


def _sample_paths(config: ScenarioConfig, count: int):
    """Deterministic random walks on the overlap graph, from the base region."""
    cover = config.cover
    rng = np.random.default_rng([0 if config.seed is None else config.seed, 1])
    out = []
    for _ in range(count):
        cur = cover.base_region
        visited = [cur]
        length = int(rng.integers(2, 7))
        for _ in range(length):
            nbrs = cover.neighbors(cur)
            if not nbrs:
                break
            cur = int(nbrs[int(rng.integers(0, len(nbrs)))])
            visited.append(cur)
        out.append(approximate_curve(cover, visited))
    return out


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute the requested tasks in fixed order and build the report.

    Task-level errors are folded into the report (status fail), never
    raised.  The Fock tasks read the window from the mode allocation and
    fold one entry per step, so they run at any mode count; the sector
    task maps each probe path to overlap codes once, for both
    transporters.
    """
    cover, nerve = config.cover, config.nerve
    presentation = pi1_presentation(nerve)
    identity = (
        PhaseU1(0.0)
        if config.group_variant == "PhaseU1"
        else MatrixUn(np.eye(config.dimension))
    )
    sigma = SigmaMorphism(dict(config.sigma), identity)
    cocycle = transition_cocycle(sigma, nerve)

    # lazily built Fock context shared by sector/amplitude/classify
    ctx: dict = {}

    def fock_context():
        if "window" not in ctx:
            space = allocate_modes(cover, config.modes_per_region)
            fock = FockSpace(space)
            window = make_window(fock, cover, config.charge)
            ctx["window"] = window
            ctx["plain"] = plain_transporter(window, cover)
            ctx["twisted"] = twisted_transporter(window, cocycle)
        return ctx["window"], ctx["plain"], ctx["twisted"]

    tasks_doc: dict[str, dict] = {}
    failed: list[str] = []
    skipped: list[str] = []

    def record(name: str, body: dict, ok: bool):
        body["status"] = "pass" if ok else "fail"
        tasks_doc[name] = body
        if not ok:
            failed.append(name)

    def run_check() -> dict:
        tol = config.task_tolerance("check")
        violations = validate_sigma(presentation, sigma, tol)
        chk = check_cocycle(cocycle, tol)
        body = {
            "tolerance": tol,
            "relations_checked": len(presentation.relations),
            "relation_violations": [
                {"word": w.as_names(), "residual": float(r)} for (w, r) in violations
            ],
            "triples_checked": len(cover.triples),
            "max_triple_residual": float(chk.max_residual),
        }
        record("check", body, ok=(not violations) and chk.ok)
        return body

    def run_trivialize():
        tol = config.task_tolerance("trivialize")
        res = trivialize(cocycle, nerve, tol)
        body: dict = {"tolerance": tol, "trivial": bool(res.success)}
        if res.success:
            body["lambdas"] = {
                str(r): _render_value(v) for r, v in sorted(res.lambdas.items())
            }
        else:
            w = res.witness
            body["witness"] = {
                "regions": list(w.loop.regions),
                "edge": list(w.edge),
                "holonomy": _render_value(w.holonomy),
                "residual": float(w.residual),
            }
        record("trivialize", body, ok=True)

    def run_holonomy():
        tol = config.task_tolerance("holonomy")
        entries = {}
        ok = True
        names = sorted(config.paths)
        paths = [config.curves[name] for name in names]
        words = [loop_class(presentation, p) for p in paths]
        evaluated = iter(sigma.evaluate_all([w for p, w in zip(paths, words) if p.is_loop]))
        for name, p, val, word in zip(names, paths, holonomies(cocycle, paths), words):
            entry = {
                "regions": list(config.paths[name]),
                "is_loop": bool(p.is_loop),
                "value": _render_value(val),
                "word": word.as_names(),
            }
            if p.is_loop:
                resid = float(distance(val, next(evaluated)))
                entry["sigma_match_residual"] = resid
                ok = ok and resid <= tol
            else:
                entry["path_dependent"] = True
            entries[name] = entry
        record("holonomy", {"tolerance": tol, "paths": entries}, ok=ok)

    def run_sector():
        tol = config.task_tolerance("sector")
        window, plain, twisted = fock_context()
        triple_max = worst(
            triple_law_residual(t, tr) for tr in cover.triples for t in (plain, twisted)
        )
        probe = list(config.curves.values())
        probe += _sample_paths(config, config.random_paths)
        rows = [cover.codes(p.crossings()) for p in probe]  # one code row per path, both transporters
        tele_max = worst(telescope_residuals(plain, rows) + telescope_residuals(twisted, rows))
        body = {
            "tolerance": tol,
            "modes": window.fock.K,
            "charge": config.charge,
            "triples_checked": len(cover.triples),
            "max_triple_residual": float(triple_max),
            "paths_checked": len(probe),
            "max_telescope_residual": float(tele_max),
        }
        record("sector", body, ok=(triple_max <= tol and tele_max <= tol))

    def run_amplitude():
        tol = config.task_tolerance("amplitude")
        window, plain, twisted = fock_context()
        entries = []
        ok = True
        for (pn, qn) in config.amplitudes:
            p, q = config.curves[pn], config.curves[qn]
            entry: dict = {"p": pn, "q": qn}
            try:
                amp = transition_amplitude(twisted, p, q)
            except InvalidPath as e:
                entry["error"] = str(e)
                ok = False
            else:
                entry["value"] = _render_complex(amp)
                hp, hq = holonomies(twisted.cocycle, [p, q])
                coeff = compose(hp, inverse(hq))
                resid = abs(amp - coeff.complex_value)
                entry["loop_phase_residual"] = float(resid)
                ok = ok and resid <= tol
            entries.append(entry)
        record("amplitude", {"tolerance": tol, "pairs": entries}, ok=ok)

    def run_classify():
        tol = config.task_tolerance("classify")
        if config.group_variant == "PhaseU1":
            _, _, twisted = fock_context()
            cls = classify(twisted, nerve, tol)
        else:
            cls = classify(cocycle, nerve, tol)
        res_max = worst(cls.residuals.values())
        body = {
            "tolerance": tol,
            "kind": cls.kind,
            "dimension": cls.dimension,
            "components": {
                g: _render_value(v) for g, v in sorted(cls.components.items())
            },
            "max_residual": float(res_max),
        }
        record("classify", body, ok=res_max <= tol)

    runners = {
        "check": run_check,
        "trivialize": run_trivialize,
        "holonomy": run_holonomy,
        "sector": run_sector,
        "amplitude": run_amplitude,
        "classify": run_classify,
    }

    for task in config.tasks:
        if task != "check" and "check" in failed:
            tasks_doc[task] = {"status": "skipped", "reason": "check failed"}
            skipped.append(task)
            continue
        try:
            runners[task]()
        except Exception as e:  # fold into the report, never panic
            record(task, {"error": f"{type(e).__name__}: {e}"}, ok=False)

    status = "pass" if not failed else "fail"
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "topology": config.topology_name,
            "regions": len(cover.regions),
            "group": config.group_variant
            if config.dimension is None
            else f"{config.group_variant}({config.dimension})",
            "generators": len(nerve.non_tree_edges),
            "modes_per_region": config.modes_per_region,
            "charge": config.charge,
            "seed": config.seed,
            "tasks": list(config.tasks),
        },
        "tasks": tasks_doc,
        "summary": {
            "status": status,
            "failed": sorted(failed),
            "skipped": sorted(skipped),
            "exit_code": 0 if status == "pass" else 1,
        },
    }


# ---------------------------------------------------------------------------
# Emission

# json's own ASCII string encoder (C when available), as json.dumps uses it
_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, out: list, indent: str) -> None:
    """Append the JSON text of ``value`` to ``out`` as ``json.dumps`` with
    ``sort_keys=True, indent=2`` writes it; ``indent`` is the newline and
    indentation of ``value``'s own line."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append("NaN" if value != value else "Infinity" if value == math.inf else
                   "-Infinity" if value == -math.inf else float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            out.append(f"{sep}{inner}{_encode_str(key)}: ")
            _write_json(value[key], out, inner)
            sep = ","
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def emit_report(report: dict, fmt: str = "text") -> str:
    if fmt == "structured":
        out: list[str] = []
        _write_json(report, out, "\n")
        out.append("\n")
        return "".join(out)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; choose text or structured")
    lines = []
    sc = report["scenario"]
    lines.append(
        f"scenario: {sc['topology']} | group {sc['group']} | "
        f"{sc['regions']} regions, {sc['generators']} generators | seed {sc['seed']}"
    )
    for task in TASK_ORDER:
        if task not in report["tasks"]:
            continue
        body = report["tasks"][task]
        status = body["status"].upper()
        detail = ""
        if body["status"] == "skipped":
            detail = f"({body['reason']})"
        elif "error" in body:
            detail = body["error"]
        elif task == "check":
            detail = (
                f"max triple residual {body['max_triple_residual']:.3e} "
                f"(tolerance {body['tolerance']:.1e}, "
                f"{body['triples_checked']} triples, "
                f"{body['relations_checked']} relations)"
            )
        elif task == "trivialize":
            if body["trivial"]:
                detail = "coboundary; per-region values recovered"
            else:
                w = body["witness"]
                detail = (
                    f"obstructed; witness loop {w['regions']} "
                    f"holonomy angle {w['holonomy'].get('angle', 'matrix')}"
                )
        elif task == "holonomy":
            parts = []
            for name in sorted(body["paths"]):
                e = body["paths"][name]
                v = e["value"]
                shown = f"angle {v['angle']:.12g}" if "angle" in v else "matrix"
                parts.append(f"{name}: {shown} [{e['word']}]")
            detail = "; ".join(parts) if parts else "no paths configured"
        elif task == "sector":
            detail = (
                f"max triple {body['max_triple_residual']:.3e}, "
                f"max telescope {body['max_telescope_residual']:.3e} "
                f"over {body['paths_checked']} paths "
                f"(tolerance {body['tolerance']:.1e})"
            )
        elif task == "amplitude":
            parts = []
            for e in body["pairs"]:
                if "error" in e:
                    parts.append(f"({e['p']},{e['q']}): {e['error']}")
                else:
                    re_, im_ = e["value"]
                    parts.append(f"({e['p']},{e['q']}): {re_:.12g}{im_:+.12g}i")
            detail = "; ".join(parts) if parts else "no pairs configured"
        elif task == "classify":
            detail = f"{body['kind']} (dimension {body['dimension']})"
        lines.append(f"  {task:<10} {status:<7} {detail}".rstrip())
    s = report["summary"]
    lines.append(
        f"summary: {s['status']}"
        + (f" | failed {s['failed']}" if s["failed"] else "")
        + (f" | skipped {s['skipped']}" if s["skipped"] else "")
    )
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Round-trip reader for the structured format."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError("not a structured report (schema_version mismatch)")
    for key in ("scenario", "tasks", "summary"):
        if key not in doc:
            raise ScenarioError(f"structured report is missing {key!r}")
    return doc
