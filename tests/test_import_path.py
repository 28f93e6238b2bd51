"""Neither the report path nor the operator layer loads scipy.

pytest has already imported scipy by the time these tests run, so each
check starts a fresh interpreter and reads its ``sys.modules``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
"""

# Reads [name, text, seed] items on stdin and makes both report formats of
# each; nothing may be imported after flatnet itself, and never scipy.
REPORTS = PRELUDE + """
import json
from dataclasses import replace
import flatnet
from flatnet import emit_report, load_scenario, run_scenario

loaded = set(sys.modules)
assert "scipy" not in loaded, "import flatnet loaded scipy"
items = json.load(sys.stdin)
for name, text, seed in items:
    for fmt in ("structured", "text"):
        config = load_scenario(text)
        if seed is not None:
            config = replace(config, seed=seed)
        assert emit_report(run_scenario(config), fmt)
        assert "scipy" not in sys.modules, f"{name} ({fmt}) loaded scipy"
        assert set(sys.modules) <= loaded, (name, fmt, sorted(set(sys.modules) - loaded))
print(len(items))
"""


def run_fresh(code: str, stdin: str = "") -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT)],
        input=stdin, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def bench_items() -> list:
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [[w, item.text, item.seed] for w in workloads.WORKLOADS
            for item in workloads.make_items(w, 1)]


def test_reports_never_load_scipy():
    items = [[p.name, p.read_text(encoding="utf-8"), None]
             for p in sorted(ROOT.glob("demos/scenarios/*.yaml"))]
    assert len(items) >= 4
    items += bench_items()
    assert run_fresh(REPORTS, json.dumps(items)).split() == [str(len(items))]


OPERATOR_SITES = {
    "creator": ("fock.creator(0)", "op.terms == {(0, 1, 1, 0): 1}"),
    "smeared_field": ("smeared_field(fock, np.eye(fock.K)[0])", "op.terms == {(0, 1, 1, 0): 1}"),
    "identity_op": ("identity_op(fock)", "np.array_equal(op.matrix, np.eye(fock.dim))"),
    "charge_morphism": (
        "charge_morphism(make_window(fock, cover), 0, "
        "smeared_field(fock, np.eye(fock.K)[2]) * smeared_field(fock, np.eye(fock.K)[2]).adjoint())",
        # phi_0 n_2 phi_0^* is n_2 on the states with mode 0 filled
        "np.diag(op.matrix).tolist() == [float(s & 5 == 5) for s in range(fock.dim)]",
    ),
    "algebra": (
        "(fock.creator(1) + fock.creator(2).adjoint()).adjoint() * gauge_action(1j, fock.creator(0))",
        "op.charge is None and op.parity == 'even' and op.norm_max() == 1.0 "
        "and op.apply(fock.vacuum)[0] == 0",
    ),
    "sector": (
        "z_path(twisted_transporter(make_window(fock, cover), identity_cocycle(cover, PhaseU1(0.3))), "
        "approximate_curve(cover, [0, 1, 2])).op",
        "abs(make_window(fock, cover).compress(op)[3, 1] - np.exp(0.6j)) <= 1e-15 and len(op.terms) == 1",
    ),
}


@pytest.mark.parametrize("site", sorted(OPERATOR_SITES))
def test_operator_layer_never_loads_scipy(site):
    build, check = OPERATOR_SITES[site]
    code = PRELUDE + f"""
import numpy as np
from flatnet import (FockSpace, PhaseU1, allocate_modes, annulus_cover, approximate_curve,
                     charge_morphism, gauge_action, identity_cocycle, identity_op, make_window,
                     smeared_field, twisted_transporter, z_path)

cover = annulus_cover()
fock = FockSpace(allocate_modes(cover, 1))
op = {build}
assert {check}, op.terms
assert "scipy" not in sys.modules, "the operator layer loaded scipy"
print("ok")
"""
    assert run_fresh(code).split() == ["ok"]
