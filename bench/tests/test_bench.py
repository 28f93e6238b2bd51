"""Fast checks of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q bench/tests

Run from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from flatnet import emit_report, load_scenario, run_scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "fock-transport": {"n": 5, "random_paths": 2},
    "coeff-cover": {"k": 3, "loops": 2, "steps": 20},
}


@pytest.fixture
def tiny(monkeypatch):
    """Generated workloads at tiny sizes, and the repository root as cwd."""
    monkeypatch.setattr(workloads, "SIZES", TINY)
    monkeypatch.chdir(ROOT)


def _main(capsys, workload: str, trace: int = 0) -> list[str]:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    return capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(tiny, capsys, workload, trace):
    lines = _main(capsys, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), m["name"]
    if not trace:
        assert any(line.startswith("failed_frac ") and line.endswith(" ratio") for line in lines)
        assert any(line.startswith("report_s.p50 is the median of ") for line in lines)


def test_names_follow_the_contract():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("sizes", [workloads.SIZES, TINY], ids=["full", "tiny"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(monkeypatch, workload, sizes):
    monkeypatch.setattr(workloads, "SIZES", sizes)
    first = workloads.make_items(workload, 5)
    assert first == workloads.make_items(workload, 5)
    other = workloads.make_items(workload, 6)
    assert [(i.text, i.seed) for i in first] != [(i.text, i.seed) for i in other]


def _report(item) -> str:
    config = load_scenario(item.text)
    return emit_report(run_scenario(config), "structured")


def test_tampered_verdict_is_counted_as_failed(tiny):
    (item,) = workloads.make_items("fock-transport", 2)
    good = _report(item)
    doc = json.loads(good)
    assert doc["tasks"]["classify"]["kind"] == "topological"
    doc["tasks"]["classify"]["kind"] = "DHR"
    bad = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert gate.check_report(good, item.expect) == []
    assert gate.check_report(bad, item.expect)
    # the same input reported twice, the second time tampered: one of two fails
    failed, notes = gate.tally([[0, 1.0, "good"], [0, 1.0, "bad"]],
                               {"good": good, "bad": bad}, [item])
    assert failed == 1 and notes
    failed, _ = gate.tally([[0, 1.0, "bad"]], {"bad": bad}, [item])
    assert failed == 1


def test_tampered_report_counts_in_failed_frac(tiny, monkeypatch, capsys):
    real = run.run_child

    def tampered(env, job):
        out = real(env, job)
        out["texts"] = {d: t.replace('"kind": "topological"', '"kind": "DHR"')
                        for d, t in out["texts"].items()}
        return out

    monkeypatch.setattr(run, "run_child", tampered)
    lines = _main(capsys, "fock-transport")
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "failed_frac                      1 ratio" in lines


def test_residual_over_tolerance_fails_closed(tiny):
    (item,) = workloads.make_items("coeff-cover", 2)
    doc = json.loads(_report(item))
    for value in (1.0, float("nan")):
        doc["tasks"]["check"]["max_triple_residual"] = value
        assert gate.check_report(json.dumps(doc), item.expect)


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "coeff-cover", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
