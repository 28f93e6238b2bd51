"""Workload process: import flatnet, then produce reports until time is up.

Run by ``run.py`` with a job on stdin (items, seconds, trace); prints one
JSON result on stdout: import time, the first report's time, then the
warm reports (untraced, or each followed by a traced replay).

A report is what ``flatnet report --format structured`` produces:
``load_scenario``, the CLI's ``--seed`` override, ``run_scenario``,
``emit_report``.  Items run round-robin in whole cycles.
"""

import hashlib
import json
import resource
import sys
import time


def _import_flatnet() -> float:
    t0 = time.perf_counter()
    import flatnet  # noqa: F401  (numpy, scipy and yaml come with it)

    return time.perf_counter() - t0


def host_facts() -> dict:
    import os
    import platform

    import numpy
    import scipy
    import yaml

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                caches[f"L{level}"] = fh.read().strip()
    except OSError:
        pass
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "blas_threads": {k: os.environ.get(k) for k in threads},
    }


def main() -> int:
    job = json.load(sys.stdin)
    setup_s = _import_flatnet()

    from dataclasses import replace

    from flatnet import emit_report, load_scenario, run_scenario

    items, seconds, trace = job["items"], job["seconds"], job["trace"]
    texts: dict[str, str] = {}
    errors: list[str] = []

    def report(index: int):
        """One timed report; returns (seconds, digest or None, report dict)."""
        item = items[index]
        t0 = time.perf_counter()
        try:
            config = load_scenario(item["text"])
            if item["seed"] is not None:
                config = replace(config, seed=item["seed"])
            doc = run_scenario(config)
            text = emit_report(doc, "structured")
        except Exception as e:  # counted as a failed report, never dropped
            errors.append(f"{item['name']}: {type(e).__name__}: {e}")
            return time.perf_counter() - t0, None, None
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256(text.encode()).hexdigest()
        texts.setdefault(digest, text)
        return elapsed, digest, doc

    out = {"setup_s": setup_s, "errors": errors}
    first_s, digest, _ = report(0)
    out["first_report_s"] = first_s
    records = [[0, first_s, digest]]
    if trace:
        import replay

        tracer = replay.Tracer()
        traced = []
        start = time.perf_counter()
        while True:
            for index in range(len(items)):
                elapsed, digest, doc = report(index)
                records.append([index, elapsed, digest])
                traced.append(_traced(replay, tracer, items[index], index, doc, elapsed))
            if time.perf_counter() - start >= seconds:
                break
        out["spans"] = tracer.spans
        out["traced"] = traced
    else:
        start = time.perf_counter()
        while True:
            for index in range(len(items)):
                elapsed, digest, _ = report(index)
                records.append([index, elapsed, digest])
            if time.perf_counter() - start >= seconds:
                break
        out["timed_s"] = time.perf_counter() - start
    out["records"] = records
    out["texts"] = texts
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["host"] = host_facts()
    print(json.dumps(out))
    return 0


def _traced(replay, tracer, item, index, doc, untraced_s) -> dict:
    """Replay one report under spans, then emit the real report under a span.

    The report id of the spans is the position in the returned list.
    """
    from flatnet import emit_report

    t0 = time.perf_counter()
    try:
        facts, counts, objects = replay.replay(item["text"], item["seed"], tracer)
        if doc is not None:
            with tracer.span("scenario.emit"):
                emit_report(doc, "structured")
    except Exception as e:
        problem = f"replay raised {type(e).__name__}: {e}"
    else:
        problem = None
        if doc is None or facts != replay.report_facts(doc):
            problem = "replay residuals or verdicts differ from the report"
    seconds = time.perf_counter() - t0
    entry = {"item": index, "seconds": seconds, "untraced_s": untraced_s, "problem": problem,
             "report_id": tracer.report_id}
    if problem is None:
        entry["counts"] = counts
        entry["probes"] = replay.probe(objects)
    tracer.report_id += 1
    return entry


if __name__ == "__main__":
    sys.exit(main())
