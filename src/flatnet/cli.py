"""Command-line driver: one scenario in, one report out.

Subcommands name a single task (check, trivialize, holonomy, sector,
amplitude, classify) or run every task the scenario requests (report).
Reports go to stdout or --out; diagnostics go to stderr.  Exit codes:
0 all tasks passed, 1 some task failed, 2 parse or config error (or an
--out path that cannot be written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .scenario import (
    TASK_ORDER,
    ScenarioError,
    emit_report,
    parse_scenario,
    parse_tolerance,
    run_scenario,
)

_HELP = {
    "check": "morphism relations and the cocycle triple law",
    "trivialize": "coboundary split or witness loop",
    "holonomy": "transported values of the named paths",
    "sector": "window-compressed transporter residuals",
    "amplitude": "charge transition amplitudes for named path pairs",
    "classify": "DHR / topological verdict from generator loops",
    "report": "every task the scenario requests, in fixed order",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatnet",
        description="run flat-transition-data scenarios and emit reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASK_ORDER + ("report",):
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report rendering (default text)",
        )
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--tolerance", type=float, default=None, help="override config tolerance"
        )
        p.add_argument("--out", default=None, help="write the report to this path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_scenario(args.scenario)
    except ScenarioError as e:
        print(f"flatnet: {e}", file=sys.stderr)
        return 2

    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            print("flatnet: --seed must be non-negative", file=sys.stderr)
            return 2
        updates["seed"] = args.seed
    if args.tolerance is not None:
        try:
            updates["tolerance"] = parse_tolerance(args.tolerance, "--tolerance")
        except ScenarioError as e:
            print(f"flatnet: {e}", file=sys.stderr)
            return 2
        updates["tolerances"] = {}
    if args.command != "report":
        if args.command in ("sector", "amplitude") and config.group_variant != "PhaseU1":
            print(
                f"flatnet: task {args.command} acts on the Fock window and needs "
                "a PhaseU1 scenario",
                file=sys.stderr,
            )
            return 2
        updates["tasks"] = (args.command,)
    if updates:
        config = replace(config, **updates)

    report = run_scenario(config)
    rendered = emit_report(report, args.format)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            print(f"flatnet: {e}", file=sys.stderr)
            return 2
    return int(report["summary"]["exit_code"])


if __name__ == "__main__":
    sys.exit(main())
