"""The report path runs without scipy; the CSR layer loads it on first use.

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


ON_DEMAND = {
    "creator": ("fock.creator(0)", "m.nnz == fock.dim // 2"),
    "smeared_field": ("smeared_field(fock, np.eye(fock.K)[0]).csr", "m.nnz == fock.dim // 2"),
    "identity_op": ("identity_op(fock).csr", "m.nnz == fock.dim"),
    "charge_morphism": (
        "charge_morphism(make_window(fock, cover), 0, "
        "FieldOp(np.diag(np.arange(fock.dim, dtype=complex)), fock, frozenset({2}))).csr",
        # phi_0 t phi_0^* carries t's entry s - 1 to each state s with mode 0 filled
        "m.diagonal().tolist() == [s - 1 if s & 1 else 0 for s in range(fock.dim)]",
    ),
}


@pytest.mark.parametrize("site", sorted(ON_DEMAND))
def test_csr_layer_loads_scipy_on_demand(site):
    build, check = ON_DEMAND[site]
    code = PRELUDE + f"""
import numpy as np
from flatnet import (FieldOp, FockSpace, allocate_modes, annulus_cover, charge_morphism,
                     identity_op, make_window, smeared_field)

cover = annulus_cover()
fock = FockSpace(allocate_modes(cover, 1))
assert "scipy" not in sys.modules
m = {build}
import scipy.sparse as sp
assert isinstance(m, sp.csr_matrix) and m.dtype == complex, type(m)
assert {check}
print("ok")
"""
    assert run_fresh(code).split() == ["ok"]
