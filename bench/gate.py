"""Correctness gate: every benchmark report must carry its expected verdict.

A report passes when it parses, no task carries an error, every residual
is within its task's tolerance (fail-closed: NaN fails), and every
expected field matches.  Numbers match within ``FIELD_TOL``; angles match
on the circle.  Failures are counted, never dropped.
"""

from __future__ import annotations

import json
import math

FIELD_TOL = 1e-9


def _close(got, want, angle: bool) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        gap = math.remainder(got - want, 2.0 * math.pi) if angle else got - want
        return abs(gap) <= FIELD_TOL
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_close(g, w, angle) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(
            _close(got[k], w, angle or k == "angle") for k, w in want.items()
        )
    return got == want


def _residual_problems(task: str, body, tol: float, where: str) -> list[str]:
    out = []
    if isinstance(body, dict):
        for key, value in body.items():
            # the trivialize witness residual is the obstruction, not an error
            if key.endswith("residual") and not (task == "trivialize" and key == "residual"):
                if not (isinstance(value, (int, float)) and value <= tol):
                    out.append(f"{where}.{key} = {value} exceeds tolerance {tol}")
            else:
                out += _residual_problems(task, value, tol, f"{where}.{key}")
    elif isinstance(body, list):
        for i, value in enumerate(body):
            out += _residual_problems(task, value, tol, f"{where}[{i}]")
    return out


def check_report(text: str, expect) -> list[str]:
    """Problems with one structured report; an empty list means it passes."""
    try:
        doc = json.loads(text)
        tasks = doc["tasks"]
        summary = doc["summary"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable report: {e}"]
    problems = []
    if summary.get("exit_code") != (0 if summary.get("status") == "pass" else 1):
        problems.append(f"summary {summary} has an inconsistent exit code")
    for name, body in tasks.items():
        if "error" in body:
            problems.append(f"task {name} raised: {body['error']}")
        if "tolerance" in body:
            problems += _residual_problems(name, body, body["tolerance"], f"tasks.{name}")
    for path, want in expect:
        node = doc
        try:
            for key in path:
                node = node[key]
        except (KeyError, IndexError, TypeError):
            problems.append(f"missing field {'.'.join(map(str, path))}")
            continue
        if not _close(node, want, angle=path[-1] == "angle"):
            problems.append(f"{'.'.join(map(str, path))} = {node!r}, expected {want!r}")
    return problems


def tally(records, texts, items) -> tuple[int, list[str]]:
    """Failed report count over ``records`` (item index, seconds, digest).

    A report fails when it raised (digest None), when its text fails
    ``check_report``, or when it differs from the first report of the same
    input in this run (structured reports are byte-identical per input).
    """
    verdict: dict[str, list[str]] = {}
    first: dict[int, str] = {}
    failed, notes = 0, []
    for index, _, digest in records:
        if digest is None:
            failed += 1
            notes.append(f"{items[index].name}: report raised")
            continue
        if digest not in verdict:
            verdict[digest] = check_report(texts[digest], items[index].expect)
            notes += [f"{items[index].name}: {p}" for p in verdict[digest]]
        first.setdefault(index, digest)
        if digest != first[index]:
            failed += 1
            notes.append(f"{items[index].name}: report differs from the first one of the run")
        elif verdict[digest]:
            failed += 1
    return failed, notes
