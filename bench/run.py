"""flatnet benchmark: one report end to end, on seeded workloads.

    python3 bench/run.py --workload fock-transport --seed 1 --seconds 55 --trace 0

Run from the repository root.  This process generates the workload's
scenario text from the seed and starts the workload processes
(``worker.py``) one after another, never two at once.  Untraced, it
starts fresh processes until ``--seconds`` have passed (at least
MIN_PROCESSES); each imports flatnet, makes a first report and then warm
reports for WARM_S seconds.  Set-up and first-report times are medians
over the processes, so their samples spread over the whole run.  Every
report goes through the correctness gate (``gate.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
process for ``--seconds`` that interleaves untraced reports with traced
replays, and prints the per-layer metrics.  Human-readable lines, host
facts included, go to stdout first; the last line is the JSON result.
Traced runs also write their spans and per-layer self times to
``.bench_out/`` in the repository root.

BLAS/OpenMP thread counts are pinned to 1 in the workload processes' own
environment; no machine setting is touched.  Each workload process gets
its own fixed hash seed, so the byte-identity check of the reports sees
several string-hash orders and a run stays reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gate
import workloads

BENCH_DIR = Path(__file__).resolve().parent
# set-up and first-report medians need several fresh processes even in short runs
MIN_PROCESSES = 5
# warm-report time of each untraced workload process
WARM_S = 2.0
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# unit of every metric this benchmark prints
UNITS = {
    "setup_s": "s",
    "first_report_s": "s",
    "report_s.p50": "s",
    "report_s.p90": "s",
    "reports_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "fock.op_bytes": "bytes",
    "fock.nnz_frac": "ratio",
    "fock.dim": "count",
}
COUNTS = ("covers.overlaps", "covers.generators", "covers.relations",
          "cocycles.steps_folded", "sectors.paths", "sectors.steps")
# spans reported as their self time per report, as "<span>_s"
LAYER_SPANS = (
    "scenario.load", "scenario.emit",
    "covers.build_nerve", "covers.pi1_presentation", "covers.approximate_curve",
    "covers.loop_class",
    "cocycles.transition_cocycle", "cocycles.validate_sigma", "cocycles.check_cocycle",
    "cocycles.trivialize", "cocycles.holonomy", "cocycles.evaluate",
    "sectors.window", "sectors.transporters", "sectors.triple_law", "sectors.telescope",
    "sectors.amplitude", "sectors.classify",
)
PROBES = ("groups.compose_s", "fock.creators_s", "fock.product_s", "sectors.z_path_step_s",
          "sectors.compress_s", "fock.op_bytes", "fock.nnz_frac", "fock.dim")
END_TO_END = ("setup_s", "first_report_s", "report_s.p50", "reports_per_s", "peak_rss_mb")
PER_LAYER = (("scenario.run_s",) + tuple(f"{s}_s" for s in LAYER_SPANS) + PROBES + COUNTS
             + ("trace.overhead_frac", "failed_frac"))
# a p90 needs at least ten reports beyond it
P90_MIN_REPORTS = 100


def unit(name: str) -> str:
    return UNITS.get(name, "count" if name in COUNTS else "s")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    env.update({k: "1" for k in THREAD_VARS})
    return env


def run_child(env: dict, job: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=job, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(runs: list[dict]) -> tuple[dict, int]:
    """The end-to-end metrics, and the number of warm reports report_s.p50
    is the median of."""
    warm = [rec[1] for r in runs for rec in r["records"][1:]]
    metrics = {
        "setup_s": median(r["setup_s"] for r in runs),
        "first_report_s": median(r["first_report_s"] for r in runs),
        "report_s.p50": median(warm),
        "reports_per_s": len(warm) / sum(r["timed_s"] for r in runs),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
    }
    if len(warm) >= P90_MIN_REPORTS:
        metrics["report_s.p90"] = quantile(warm, 0.9)
    return metrics, len(warm)


def self_times(spans: list) -> dict[int, dict[str, float]]:
    """Per report id: each span name's self time, plus scenario.run inclusive."""
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[int, dict[str, float]] = {}
    for i, (name, start, end, _, rid) in enumerate(spans):
        row = out.setdefault(rid, {})
        row[name] = row.get(name, 0.0) + (end - start) - child_total[i]
        if name == "scenario.run":
            row["scenario.run_inclusive"] = row.get("scenario.run_inclusive", 0.0) + end - start
    return out


def per_layer(result: dict) -> tuple[dict, dict]:
    """Layer metrics: span self times and counts as means per traced report,
    probes as medians over the reports that reach their layer."""
    traced = [t for t in result["traced"] if t["problem"] is None]
    selfs = self_times(result["spans"])
    n = max(len(traced), 1)
    metrics = {"scenario.run_s": sum(selfs[t["report_id"]].get("scenario.run_inclusive", 0.0)
                                     for t in traced) / n}
    for span in LAYER_SPANS:
        metrics[f"{span}_s"] = sum(selfs[t["report_id"]].get(span, 0.0) for t in traced) / n
    for name in PROBES:
        values = [t["probes"][name] for t in traced if name in t["probes"]]
        metrics[name] = median(values) if values else 0.0
    for name in COUNTS:
        metrics[name] = sum(t["counts"][name] for t in traced) / n
    untraced = sum(t["untraced_s"] for t in traced)
    metrics["trace.overhead_frac"] = (
        (sum(t["seconds"] for t in traced) - untraced) / untraced if untraced else 0.0
    )
    summary: dict[str, dict[str, float]] = {}
    for t in traced:
        for name, value in selfs[t["report_id"]].items():
            summary[name] = summary.get(name, 0.0) + value / n
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flatnet" / "__init__.py").is_file():
        print(f"bench: no flatnet source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    items = workloads.make_items(args.workload, args.seed)
    env = child_env(root)
    job = {"items": [{"name": i.name, "text": i.text, "seed": i.seed} for i in items],
           "trace": bool(args.trace)}
    if args.trace:
        runs = [run_child({**env, "PYTHONHASHSEED": "1"},
                          json.dumps({**job, "seconds": args.seconds}))]
    else:
        runs = []
        start = time.perf_counter()
        while len(runs) < MIN_PROCESSES or time.perf_counter() - start < args.seconds:
            runs.append(run_child({**env, "PYTHONHASHSEED": str(len(runs) + 1)},
                                  json.dumps({**job, "seconds": WARM_S})))
    result = runs[-1]

    records = [r for run in runs for r in run["records"]]
    texts = {d: t for run in runs for d, t in run["texts"].items()}
    failed, notes = gate.tally(records, texts, items)
    notes += [e for run in runs for e in run["errors"]]
    attempted = len(records)
    if args.trace:
        bad = [t for t in result["traced"] if t["problem"] is not None]
        failed += len(bad)
        attempted += len(result["traced"])
        notes += [f"{items[t['item']].name}: {t['problem']}" for t in bad]
        metrics, summary = per_layer(result)
    else:
        metrics, p50_samples = end_to_end(runs)
    metrics["failed_frac"] = failed / attempted

    print(json.dumps({"host": result["host"], "workload": args.workload, "seed": args.seed,
                      "items": [i.name for i in items], "reports": attempted}))
    for name, value in metrics.items():
        print(f"{name:<32} {value:.6g} {unit(name)}")
    if not args.trace:
        print(f"report_s.p50 is the median of {p50_samples} warm reports; setup_s and "
              f"first_report_s of {len(runs)} fresh processes")
        if "report_s.p90" not in metrics:
            print(f"report_s.p90 omitted: fewer than {P90_MIN_REPORTS} warm reports")
    for note in notes[:20]:
        print(f"bench: FAILED {note}", file=sys.stderr)

    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        out = out_dir / f"{args.workload}-seed{args.seed}-trace.json"
        out.write_text(json.dumps({
            "host": result["host"], "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "report"],
            "spans": result["spans"], "self_s_per_report": summary, "metrics": metrics,
        }), encoding="utf-8")
        print(f"spans and self times written to {out}")

    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
