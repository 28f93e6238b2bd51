"""Print each ``src/flatnet`` function that no caller reaches.

The callers are what a user or the benchmark runs:

* every reference report: each ``demos/scenarios/*.yaml``, and both
  benchmark workloads (``bench/workloads.py``) at the seeds of
  ``tools/report_digests.py``, made as ``flatnet report`` makes them and
  emitted in both formats;
* every one-task subcommand (``flatnet check``, ``trivialize``, ...) on
  each scenario file, through ``flatnet.cli.main``;
* both workloads through ``bench/replay.py``'s ``replay`` and ``probe``;
* the four demos.

A ``sys.settrace`` hook records the code object of every Python call
into ``src/flatnet``, and every ``def`` in the package (methods and
nested functions included) that none of them entered is printed as
``module.py:line qualified.name``, then a count.  The tier-1 tests are
not a caller: a function only they reach is printed.  Standard library
only; it writes no file (no bytecode either) and imports the benchmark
modules without changing them.  Not a gate: it exits 0.  Usage::

    python3 tools/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flatnet"


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module.py:line qualified.name`` of every
    ``def`` in the package.  The first line is the first decorator's, as
    in the function's code object."""
    out = {}

    def walk(path: Path, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), line)] = f"{path.name}:{child.lineno} {prefix}{child.name}"
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(path, child, f"{prefix}{child.name}." if scope else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def run_callers() -> None:
    """Run every caller once, with its output discarded."""
    from flatnet import emit_report, load_scenario, run_scenario
    from flatnet.cli import main as cli_main
    from flatnet.scenario import TASK_ORDER

    import replay
    import report_digests
    import workloads

    scenarios = sorted((ROOT / "demos" / "scenarios").glob("*.yaml"))
    items = [(p.read_text(encoding="utf-8"), None) for p in scenarios]
    for workload in workloads.WORKLOADS:
        for seed in report_digests.SEEDS:
            items += [(item.text, item.seed) for item in workloads.make_items(workload, seed)]
    for text, seed in items:
        config = load_scenario(text)
        if seed is not None:
            config = replace(config, seed=seed)
        doc = run_scenario(config)
        for fmt in ("structured", "text"):
            emit_report(doc, fmt)
    for path in scenarios:
        for task in TASK_ORDER:
            cli_main([task, "--scenario", str(path)])
    for workload in workloads.WORKLOADS:
        for item in workloads.make_items(workload, 1):
            _, _, objects = replay.replay(item.text, item.seed, replay.Tracer())
            replay.probe(objects)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]
    prefix = str(PACKAGE) + "/"
    reached: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            reached.add((code.co_filename, code.co_firstlineno))
        return None  # calls only; no line events

    sink = io.StringIO()
    sys.settrace(hook)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            run_callers()
    finally:
        sys.settrace(None)
    missing = [name for key, name in definitions().items() if key not in reached]
    for name in missing:
        print(name)
    print(f"{len(missing)} functions of src/flatnet reached by no caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
