"""Traced replay of one report through flatnet's public functions.

``replay`` takes the steps ``scenario.run_scenario`` takes, in the same
order, and wraps each call into a layer in a span.  It returns the
residuals and verdicts the real report carries (``facts``), so the caller
can check that the replay computed the same thing as the program; if it
did not, the spans describe a different program.  Spans live in memory
(``Tracer.spans``) until the benchmark writes them out.

Probes (``probe``) time single calls on the replay's objects, outside any
span, and read the stored size of one transporter-entry operator.
"""

from __future__ import annotations

import time
from dataclasses import replace
from statistics import median

import numpy as np

from flatnet import (
    FockSpace,
    MatrixUn,
    PhaseU1,
    SigmaMorphism,
    allocate_modes,
    approximate_curve,
    build_nerve,
    check_cocycle,
    classify,
    compose,
    distance,
    generator_loop,
    holonomy,
    inverse,
    load_scenario,
    loop_class,
    make_window,
    pi1_presentation,
    plain_transporter,
    rho_layer_transporter,
    telescope_residual,
    transition_amplitude,
    transition_cocycle,
    triple_law_residual,
    trivialize,
    twisted_transporter,
    validate_sigma,
    z_path,
)


class Tracer:
    """Spans as [name, start, end, parent index, report id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.report_id = 0
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._open[-1] if tr._open else -1
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.report_id])
        tr._open.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


def sample_paths(config, tr: Tracer):
    """Seeded random walks from the base region, as the sector task draws them."""
    cover = config.cover
    rng = np.random.default_rng([0 if config.seed is None else config.seed, 1])
    out = []
    for _ in range(config.random_paths):
        cur = cover.base_region
        visited = [cur]
        for _ in range(int(rng.integers(2, 7))):
            nbrs = cover.neighbors(cur)
            if not nbrs:
                break
            cur = int(nbrs[int(rng.integers(0, len(nbrs)))])
            visited.append(cur)
        with tr.span("covers.approximate_curve"):
            out.append(approximate_curve(cover, visited))
    return out


def replay(text: str, seed: int | None, tr: Tracer) -> tuple[dict, dict, dict]:
    """Load and run one scenario under spans.

    Returns (facts, counts, objects): the report's residuals and verdicts,
    work counts, and the objects the probes reuse.
    """
    with tr.span("scenario.load"):
        config = load_scenario(text)
        if seed is not None:
            config = replace(config, seed=seed)
    with tr.span("scenario.run"):
        return _run(config, tr)


def _run(config, tr: Tracer):
    cover = config.cover
    with tr.span("covers.build_nerve"):
        nerve = build_nerve(cover)
    with tr.span("covers.pi1_presentation"):
        presentation = pi1_presentation(nerve)
    identity = (
        PhaseU1(0.0) if config.group_variant == "PhaseU1" else MatrixUn(np.eye(config.dimension))
    )
    with tr.span("cocycles.transition_cocycle"):
        sigma = SigmaMorphism(dict(config.sigma), identity)
        cocycle = transition_cocycle(sigma, nerve)

    counts = {
        "covers.overlaps": len(cover.overlaps),
        "covers.generators": len(nerve.non_tree_edges),
        "covers.relations": len(presentation.relations),
        "cocycles.steps_folded": 0,
        "sectors.paths": 0,
        "sectors.steps": 0,
    }
    objects = {"config": config, "sigma": sigma, "nerve": nerve}
    ctx: dict = {}

    def fock_context():
        if "window" not in ctx:
            with tr.span("sectors.window"):
                fock = FockSpace(allocate_modes(cover, config.modes_per_region))
                ctx["window"] = make_window(fock, cover, config.charge)
            with tr.span("sectors.transporters"):
                ctx["plain"] = plain_transporter(ctx["window"], cover)
                ctx["twisted"] = twisted_transporter(ctx["window"], cocycle)
            objects.update(ctx)
        return ctx["window"], ctx["plain"], ctx["twisted"]

    def transported(paths):
        counts["sectors.paths"] += len(paths)
        counts["sectors.steps"] += sum(len(p.steps) for p in paths)

    facts: dict = {}
    failed: list[str] = []

    def record(name, body, ok):
        body["status"] = "pass" if ok else "fail"
        facts[name] = body
        if not ok:
            failed.append(name)

    def run_check():
        tol = config.task_tolerance("check")
        with tr.span("cocycles.validate_sigma"):
            violations = validate_sigma(presentation, sigma, tol)
        with tr.span("cocycles.check_cocycle"):
            chk = check_cocycle(cocycle, tol)
        body = {
            "relation_violations": [
                {"word": w.as_names(), "residual": float(r)} for (w, r) in violations
            ],
            "max_triple_residual": float(chk.max_residual),
        }
        record("check", body, ok=(not violations) and chk.ok)

    def run_trivialize():
        tol = config.task_tolerance("trivialize")
        with tr.span("cocycles.trivialize"):
            res = trivialize(cocycle, nerve, tol)
        body = {"trivial": bool(res.success)}
        if not res.success:
            w = res.witness
            body["witness"] = {
                "regions": [w.loop.start] + [s.dst for s in w.loop.steps],
                "residual": float(w.residual),
            }
        record("trivialize", body, ok=True)

    def run_holonomy():
        tol = config.task_tolerance("holonomy")
        entries = {}
        ok = True
        for name in sorted(config.paths):
            with tr.span("covers.approximate_curve"):
                p = approximate_curve(cover, config.paths[name])
            with tr.span("cocycles.holonomy"):
                val = holonomy(cocycle, p)
            counts["cocycles.steps_folded"] += len(p.steps)
            with tr.span("covers.loop_class"):
                word = loop_class(presentation, p)
            entry = {"word": word.as_names()}
            if p.is_loop:
                with tr.span("cocycles.evaluate"):
                    resid = float(distance(val, sigma.evaluate(word)))
                entry["sigma_match_residual"] = resid
                ok = ok and resid <= tol
            entries[name] = entry
        record("holonomy", {"paths": entries}, ok=ok)

    def run_sector():
        tol = config.task_tolerance("sector")
        window, plain, twisted = fock_context()
        triple_max = 0.0
        with tr.span("sectors.triple_law"):
            for t in cover.triples:
                triple_max = max(triple_max, triple_law_residual(plain, t))
                triple_max = max(triple_max, triple_law_residual(twisted, t))
        probe = []
        for seq in config.paths.values():
            with tr.span("covers.approximate_curve"):
                probe.append(approximate_curve(cover, seq))
        with tr.span("scenario.sample_paths"):
            probe += sample_paths(config, tr)
        tele_max = 0.0
        with tr.span("sectors.telescope"):
            for p in probe:
                tele_max = max(tele_max, telescope_residual(plain, p))
                tele_max = max(tele_max, telescope_residual(twisted, p))
        transported([p for p in probe if p.steps] * 2)
        body = {
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
            with tr.span("covers.approximate_curve"):
                p = approximate_curve(cover, config.paths[pn])
                q = approximate_curve(cover, config.paths[qn])
            with tr.span("sectors.amplitude"):
                amp = transition_amplitude(twisted, p, q)
                coeff = compose(z_path(twisted, p).coeff, inverse(z_path(twisted, q).coeff))
            transported([p, q, p, q])
            resid = abs(amp - coeff.complex_value)
            entries.append(
                {"value": [float(amp.real), float(amp.imag)], "loop_phase_residual": float(resid)}
            )
            ok = ok and resid <= tol
        record("amplitude", {"pairs": entries}, ok=ok)

    def run_classify():
        tol = config.task_tolerance("classify")
        if config.group_variant == "PhaseU1":
            _, _, twisted = fock_context()
            with tr.span("sectors.classify"):
                cls = classify(twisted, nerve, tol)
        else:
            with tr.span("sectors.classify"):
                cls = classify(rho_layer_transporter(cocycle), nerve, tol)
        transported([generator_loop(nerve, i) for i in range(len(nerve.non_tree_edges))])
        res_max = max(cls.residuals.values(), default=0.0)
        body = {"kind": cls.kind, "dimension": cls.dimension, "max_residual": float(res_max)}
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
            facts[task] = {"status": "skipped"}
            continue
        try:
            runners[task]()
        except Exception as e:  # the program folds task errors into the report
            record(task, {"error": f"{type(e).__name__}: {e}"}, ok=False)
    facts["summary"] = {"status": "fail" if failed else "pass", "failed": sorted(failed)}
    return facts, counts, objects


def report_facts(doc: dict) -> dict:
    """The fields of a real structured report that ``replay`` recomputes."""
    facts: dict = {}
    for name, body in doc["tasks"].items():
        if body["status"] == "skipped":
            facts[name] = {"status": "skipped"}
            continue
        if "error" in body:
            facts[name] = {"error": body["error"], "status": body["status"]}
            continue
        keep: dict = {"status": body["status"]}
        if name == "check":
            keep["relation_violations"] = body["relation_violations"]
            keep["max_triple_residual"] = body["max_triple_residual"]
        elif name == "trivialize":
            keep["trivial"] = body["trivial"]
            if "witness" in body:
                keep["witness"] = {k: body["witness"][k] for k in ("regions", "residual")}
        elif name == "holonomy":
            keep["paths"] = {
                p: {k: e[k] for k in ("word", "sigma_match_residual") if k in e}
                for p, e in body["paths"].items()
            }
        elif name == "sector":
            for k in ("max_triple_residual", "paths_checked", "max_telescope_residual"):
                keep[k] = body[k]
        elif name == "amplitude":
            keep["pairs"] = [
                {k: e[k] for k in ("value", "loop_phase_residual")} for e in body["pairs"]
            ]
        elif name == "classify":
            for k in ("kind", "dimension", "max_residual"):
                keep[k] = body[k]
        facts[name] = keep
    facts["summary"] = {k: doc["summary"][k] for k in ("status", "failed")}
    return facts


def _per_call(fn, calls: int, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return median(samples)


def probe(objects: dict) -> dict:
    """Per-call timings and stored sizes on one replay's objects.

    Layers the scenario never reaches are left out, so a workload without
    a Fock window reports no fock/sectors probes.
    """
    config, sigma = objects["config"], objects["sigma"]
    values = list(sigma.assignment.values()) or [sigma.identity]
    a, b = values[0], values[-1]
    out = {"groups.compose_s": _per_call(lambda: compose(a, b), 200)}
    if "twisted" not in objects:
        return out
    window, twisted, nerve = objects["window"], objects["twisted"], objects["nerve"]
    entries = list(twisted.entries.values())
    e1, e2 = entries[0], entries[-1]

    def creators():
        fock = FockSpace(allocate_modes(config.cover, config.modes_per_region))
        for m in range(fock.K):
            fock.creator(m)

    loop = generator_loop(nerve, 0) if nerve.non_tree_edges else None
    matrix = e1.op.matrix
    out.update({
        "fock.creators_s": _per_call(creators, 1),
        "fock.product_s": _per_call(lambda: e1.op * e2.op, 1),
        "sectors.compress_s": _per_call(lambda: window.compress(e1.op), 5),
        "fock.op_bytes": float(matrix.nbytes),
        "fock.nnz_frac": float(np.count_nonzero(matrix)) / matrix.size,
        "fock.dim": float(window.fock.dim),
    })
    if loop is not None:
        out["sectors.z_path_step_s"] = _per_call(lambda: z_path(twisted, loop), 1) / len(loop.steps)
    return out
