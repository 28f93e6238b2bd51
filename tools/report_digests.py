"""Print the SHA-256 of every reference structured report.

The references are each ``demos/scenarios/*.yaml`` and both benchmark
workloads (``bench/workloads.py``) at a fixed list of seeds.  A report is
made the way ``flatnet report --format structured`` makes it:
``load_scenario``, the ``--seed`` override when the item has one,
``run_scenario``, ``emit_report``.  Run it on two commits and diff the
output to see whether a change kept the reports byte-identical; CI
runs it under two ``PYTHONHASHSEED`` values and compares the outputs.
The digests depend on the host (numpy picks its SIMD kernels at run
time), so no golden list is kept.  Standard library and flatnet only.
Usage::

    python3 tools/report_digests.py

Run from anywhere; paths resolve against the repository this script
sits in.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from flatnet import emit_report, load_scenario, run_scenario  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3, 7, 23, 37, 61, 97)


def digest(text: str, seed: int | None = None) -> str:
    config = load_scenario(text)
    if seed is not None:
        config = replace(config, seed=seed)
    report = emit_report(run_scenario(config), "structured")
    return hashlib.sha256(report.encode()).hexdigest()


def main() -> int:
    for path in sorted((ROOT / "demos" / "scenarios").glob("*.yaml")):
        print(f"{digest(path.read_text(encoding='utf-8'))}  demos/scenarios/{path.name}")
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for item in workloads.make_items(workload, seed):
                print(f"{digest(item.text, item.seed)}  {workload} seed {seed} {item.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
