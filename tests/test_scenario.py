import copy
import importlib.util
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flatnet.loader as loader_module
import flatnet.scenario as scenario_module
from flatnet.cli import main as cli_main
from flatnet.covers import Cover, approximate_curve, build_nerve, builtin_cover, pi1_presentation
from flatnet.fock import FieldOp, FockSpace
from flatnet.sectors import SectorTransporter, WindowSubspace
from flatnet.groups import MatrixUn, _as_unitary_loose, inverse
from flatnet.scenario import (
    SCHEMA_VERSION,
    _render_value,
    TASK_ORDER,
    ScenarioError,
    emit_report,
    load_scenario,
    parse_angle,
    parse_report,
    parse_scenario,
    run_scenario,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
ANNULUS_YAML = GOLDEN_DIR / "annulus_u1.yaml"
DISK_YAML = GOLDEN_DIR / "disk_dhr.yaml"
FIG8_YAML = GOLDEN_DIR / "figure_eight_su2.yaml"
TORUS_YAML = GOLDEN_DIR / "torus_u1.yaml"

MINIMAL = """
schema_version: 1
topology: {builtin: annulus}
sigma: {g0: pi/2}
"""


def loads(text):
    return load_scenario(text)


def expect_error(text, fragment):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(text)
    assert fragment in str(exc.value)


# ---------------------------------------------------------------------------
# angle grammar


def test_parse_angle_numbers_and_pi_fractions():
    assert parse_angle(0.5) == 0.5
    assert parse_angle(2) == 2.0
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("-pi/3") == pytest.approx(-np.pi / 3)
    assert parse_angle("2pi/3") == pytest.approx(2 * np.pi / 3)
    assert parse_angle("3*pi/4") == pytest.approx(3 * np.pi / 4)
    assert parse_angle("+pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle(" PI / 2 ") == pytest.approx(np.pi / 2)


def test_parse_angle_rejections():
    for bad in ("tau", "pi*2", "2*pi/0", "pi/", "", "1.5pi"):
        with pytest.raises(ScenarioError):
            parse_angle(bad)
    with pytest.raises(ScenarioError):
        parse_angle(True)
    with pytest.raises(ScenarioError):
        parse_angle([1])


# ---------------------------------------------------------------------------
# config validation


def test_minimal_scenario_defaults():
    cfg = loads(MINIMAL)
    assert cfg.topology_name == "annulus"
    assert cfg.group_variant == "PhaseU1" and cfg.dimension is None
    assert cfg.tasks == TASK_ORDER
    assert cfg.modes_per_region == 2 and cfg.charge == 1
    assert cfg.tolerance == 1e-10 and cfg.tolerances == {}
    assert cfg.seed is None and cfg.random_paths == 0
    assert cfg.task_tolerance("check") == 1e-10


def test_golden_annulus_parses_as_documented():
    cfg = parse_scenario(str(ANNULUS_YAML))
    assert cfg.topology_name == "annulus"
    assert set(cfg.paths) == {"wind1", "wind3", "top", "bottom", "stay"}
    assert cfg.amplitudes == (("top", "bottom"), ("wind3", "stay"))
    assert cfg.seed == 7 and cfg.random_paths == 6
    assert cfg.sigma["g0"].angle == pytest.approx(np.pi / 2)


def test_explicit_topology():
    cfg = loads(
        """
schema_version: 1
topology:
  regions: [0, 1, 2]
  overlaps: [[0, 1, 0], [1, 2, 0], [0, 2, 0]]
  triples: [[0, 1, 2, [0, 0, 0]]]
  base: 0
sigma: {g0: 0.0}
"""
    )
    assert cfg.topology_name == "explicit"
    assert len(cfg.cover.regions) == 3


def test_schema_version_required():
    expect_error("topology: {builtin: annulus}\nsigma: {g0: 0}", "schema_version")
    expect_error(
        "schema_version: 2\ntopology: {builtin: annulus}\nsigma: {g0: 0}",
        "schema_version",
    )


def test_unknown_keys_rejected():
    expect_error(MINIMAL + "\nextra_knob: 1\n", "unknown keys")
    expect_error(
        "schema_version: 1\ntopology: {builtin: annulus, radius: 2}\nsigma: {g0: 0}",
        "unknown keys",
    )


def test_topology_rejections():
    expect_error(
        "schema_version: 1\ntopology: {builtin: klein_bottle}\nsigma: {}",
        "topology.builtin",
    )
    expect_error("schema_version: 1\ntopology: {}\nsigma: {}", "topology")
    expect_error(
        "schema_version: 1\ntopology: {regions: [0, 1]}\nsigma: {}", "topology"
    )


def test_group_rejections():
    expect_error(
        "schema_version: 1\ntopology: {builtin: annulus}\n"
        "group: {variant: SU2}\nsigma: {g0: 0}",
        "variant",
    )
    expect_error(
        "schema_version: 1\ntopology: {builtin: annulus}\n"
        "group: {variant: MatrixUn}\nsigma: {g0: 0}",
        "dimension",
    )
    expect_error(
        "schema_version: 1\ntopology: {builtin: annulus}\n"
        "group: {variant: PhaseU1, dimension: 3}\nsigma: {g0: 0}",
        "dimension",
    )


@pytest.mark.parametrize(
    "group, message",
    [
        ("{variant: PhaseU1, dimesion: 2}", "unknown keys ['dimesion']"),
        ("{variant: MatrixUn, dimension: 2, extra: 1, 0: x}", "unknown keys [0, 'extra']"),
    ],
    ids=["typo", "two_keys"],
)
def test_group_rejects_unknown_keys(tmp_path, capsys, group, message):
    text = f"schema_version: 1\ntopology: {{builtin: annulus}}\ngroup: {group}\nsigma: {{g0: 0}}\n"
    want = f"group: {message} (line 3:8)"
    with pytest.raises(ScenarioError) as exc:
        load_scenario(text)
    assert str(exc.value) == want
    bad = tmp_path / "group.yaml"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["report", "--scenario", str(bad)], capsys)
    assert code == 2 and out == "" and want in err


@pytest.mark.parametrize(
    "topology, message",
    [
        ("{builtin: annulus, n: 5}", "topology.n: applies to circle only (line 2:33)"),
        ("{builtin: torus, n: -3}", "topology.n: applies to circle only (line 2:31)"),
        ("{builtin: circle, n: 2}",
         "topology.n: circle covers need at least 3 regions (line 2:32)"),
        ("{builtin: moebius, n: 5}", "topology.builtin: unknown builtin cover 'moebius'"),
    ],
    ids=["annulus", "torus", "small_circle", "unknown_builtin"],
)
def test_topology_n_applies_to_circle_only(tmp_path, capsys, topology, message):
    text = f"schema_version: 1\ntopology: {topology}\nsigma: {{g0: 0}}\n"
    with pytest.raises(ScenarioError) as exc:
        load_scenario(text)
    assert str(exc.value).startswith(message)
    bad = tmp_path / "topology.yaml"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run_cli(["report", "--scenario", str(bad)], capsys)
    assert code == 2 and message in err


def test_sigma_coverage_both_directions():
    expect_error(
        "schema_version: 1\ntopology: {builtin: annulus}\nsigma: {}",
        "missing generators",
    )
    expect_error(MINIMAL + "\nsigma: {g0: 0, g7: 0}\n", "unknown generators")


@pytest.mark.parametrize("name", ["circle", "annulus", "disk", "figure_eight", "torus"])
def test_generator_names_agree_across_layers(name):
    nerve = build_nerve(builtin_cover(name))
    names = nerve.generators
    assert names is nerve.generators  # built once per nerve
    assert names == pi1_presentation(nerve).generators
    entries = [f"{g}: 0.25" for g in names]

    def text(items):
        return f"schema_version: 1\ntopology: {{builtin: {name}}}\nsigma: {{{', '.join(items)}}}\n"

    assert tuple(loads(text(entries)).sigma) == names
    expect_error(text(entries + [f"g{len(names)}: 0.25"]), "unknown generators")


def test_matrix_sigma_validation():
    head = (
        "schema_version: 1\n"
        "topology: {builtin: figure_eight}\n"
        "group: {variant: MatrixUn, dimension: 2}\n"
        "tasks: [check]\n"
    )
    ok = head + (
        "sigma:\n"
        "  g0: [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]\n"
        "  g1: [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]\n"
    )
    cfg = loads(ok)
    assert cfg.dimension == 2
    expect_error(
        head
        + "sigma:\n"
        "  g0: [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]\n"
        "  g1: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]\n",
        "not unitary",
    )
    expect_error(head + "sigma: {g0: [[1, 0]], g1: [[1, 0]]}\n", "matrix rows")


def test_path_validation():
    expect_error(MINIMAL + "paths: {bad: [0, 9]}\n", "region 9")
    expect_error(MINIMAL + "paths: {gap: [0, 2]}\n", "paths.gap")
    expect_error(MINIMAL + "paths: {empty: []}\n", "non-empty")


def test_amplitude_validation():
    expect_error(
        MINIMAL + "paths: {a: [0, 1]}\namplitudes: [[a, ghost]]\n", "ghost"
    )
    expect_error(
        MINIMAL + "paths: {a: [0, 1]}\namplitudes: [[a]]\n", "name pair"
    )


@pytest.mark.parametrize(
    "value, where",
    [("true", "amplitudes: must be a list"),
     ("5", "amplitudes: must be a list"),
     ("[[[0, 1], a]]", "amplitudes[0]: unknown path name [0, 1]")],
)
def test_malformed_amplitudes_exit_2_with_field_path(tmp_path, capsys, value, where):
    text = MINIMAL + f"paths: {{a: [0, 1]}}\namplitudes: {value}\n"
    expect_error(text, where)
    f = tmp_path / "bad.yaml"
    f.write_text(text)
    code, out, err = run_cli(["report", "--scenario", str(f)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"flatnet: {where}") and "Traceback" not in err


HUGE = "9" * 400


@pytest.mark.parametrize(
    "angle", [f"{HUGE}pi", f"pi/{HUGE}", f"{HUGE}pi/{HUGE}"],
    ids=["numerator", "denominator", "both"],
)
def test_pi_fraction_beyond_float_range_exits_2_with_field_path(tmp_path, capsys, angle):
    # digits past float range must not escape as an OverflowError
    text = MINIMAL + f"sigma: {{g0: '{angle}'}}\n"
    expect_error(text, "sigma.g0: pi fraction is out of float range")
    f = tmp_path / "bad.yaml"
    f.write_text(text)
    code, out, err = run_cli(["report", "--scenario", str(f)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("flatnet: sigma.g0") and "Traceback" not in err


def test_charge_and_modes_validation():
    expect_error(MINIMAL + "modes_per_region: 0\n", "modes_per_region")
    expect_error(MINIMAL + "charge: 3\n", "charge 3 exceeds")


def test_task_validation():
    expect_error(MINIMAL + "tasks: [transmogrify]\n", "unknown tasks")
    expect_error(MINIMAL + "tasks: []\n", "non-empty")
    expect_error(
        "schema_version: 1\ntopology: {builtin: figure_eight}\n"
        "group: {variant: MatrixUn, dimension: 2}\n"
        "sigma:\n"
        "  g0: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]\n"
        "  g1: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]\n"
        "tasks: [sector]\n",
        "PhaseU1",
    )


def test_tolerance_validation():
    expect_error(MINIMAL + "tolerance: 0\n", "positive")
    expect_error(MINIMAL + "tolerances: {transmogrify: 1.0e-9}\n", "unknown task")
    expect_error(MINIMAL + "tolerances: {check: -1.0e-9}\n", "positive")
    cfg = loads(MINIMAL + "tolerance: 1.0e-8\ntolerances: {sector: 1.0e-6}\n")
    assert cfg.task_tolerance("sector") == 1e-6
    assert cfg.task_tolerance("check") == 1e-8


def test_tolerance_nan_rejected():
    # a NaN tolerance made trivialize call the pi/2 annulus a coboundary
    expect_error(MINIMAL + "tolerance: .nan\n", "tolerance: must be a finite number")
    expect_error(MINIMAL + "tolerances: {trivialize: .nan}\n", "tolerances.trivialize")


def test_tolerance_inf_rejected():
    # an infinite tolerance classified the pi/2 annulus as DHR, exit 0
    expect_error(MINIMAL + "tolerance: .inf\n", "tolerance: must be a finite number")
    expect_error(MINIMAL + "tolerances: {classify: -.inf}\n", "tolerances.classify")


def test_tolerance_bool_rejected():
    expect_error(MINIMAL + "tolerance: true\n", "tolerance: must be a positive number")
    expect_error(MINIMAL + "tolerances: {check: true}\n", "tolerances.check")


def test_sigma_nan_rejected():
    expect_error(MINIMAL + "sigma: {g0: .nan}\n", "sigma.g0: must be a finite number")
    expect_error(MINIMAL + "sigma: {g0: -.inf}\n", "sigma.g0")
    with pytest.raises(ScenarioError):
        parse_angle(float("inf"))
    with pytest.raises(ScenarioError):
        parse_angle(10**400)


def test_matrix_sigma_non_finite_rejected():
    head = (
        "schema_version: 1\n"
        "topology: {builtin: figure_eight}\n"
        "group: {variant: MatrixUn, dimension: 1}\n"
        "tasks: [check]\n"
    )
    expect_error(
        head + "sigma: {g0: [[[.nan, 0.0]]], g1: [[[1.0, 0.0]]]}\n",
        "sigma.g0[0][0][0]: must be a finite number",
    )
    expect_error(
        head + "sigma: {g0: [[[1.0, 0.0]]], g1: [[[1.0, -.inf]]]}\n",
        "sigma.g1[0][0][1]: must be a finite number",
    )
    expect_error(
        head + "sigma: {g0: [[[abc, 0.0]]], g1: [[[1.0, 0.0]]]}\n",
        "sigma.g0[0][0][0]: must be a finite number",
    )


def test_topology_n_non_integer_rejected():
    expect_error(
        "schema_version: 1\ntopology: {builtin: circle, n: abc}\nsigma: {g0: 0}\n",
        "topology.n: must be an integer",
    )


def test_topology_n_boolean_rejected():
    expect_error(
        "schema_version: 1\ntopology: {builtin: circle, n: true}\nsigma: {g0: 0}\n",
        "topology.n: must be an integer",
    )


EXPLICIT = """
schema_version: 1
topology:
  regions: {regions}
  overlaps: {overlaps}
  triples: {triples}
  base: {base}
sigma: {{g0: 0.0}}
tasks: [check]
"""
EXPLICIT_OK = dict(
    regions="[0, 1, 2, 3]",
    overlaps="[[0, 1, 0], [1, 2, 0], [0, 2, 0], [2, 3, 0]]",
    triples="[[0, 1, 2, [0, 0, 0]]]",
    base="0",
)


def explicit(**fields):
    return EXPLICIT.format(**{**EXPLICIT_OK, **fields})


def test_explicit_cover_integers_accepted():
    cfg = loads(explicit())
    assert cfg.cover.regions == (0, 1, 2, 3) and cfg.cover.base_region == 0


def test_explicit_regions_must_be_integers():
    expect_error(explicit(regions="[0, 1.7, 2, 3]"), "topology.regions[1]: must be an int")
    expect_error(explicit(regions="[0, 1, true, 3]"), "topology.regions[2]: must be an int")
    expect_error(explicit(regions="7"), "topology.regions: must be a list")


def test_explicit_overlaps_must_be_integers():
    expect_error(
        explicit(overlaps="[[0, 1, 0], [1, 2.0, 0], [0, 2, 0], [2, 3, 0]]"),
        "topology.overlaps[1][1]: must be an integer",
    )
    expect_error(
        explicit(overlaps="[[0, 1, 0], [1, 2], [0, 2, 0], [2, 3, 0]]"),
        "topology.overlaps[1]: must be a list of 3 integers",
    )


def test_explicit_triples_must_be_integers():
    expect_error(
        explicit(triples="[[0, 1, 2, [0, 0.5, 0]]]"),
        "topology.triples[0][3][1]: must be an integer",
    )
    expect_error(
        explicit(triples="[[0, '1', 2, [0, 0, 0]]]"),
        "topology.triples[0][1]: must be an integer",
    )
    expect_error(explicit(triples="[[0, 1, 2]]"), "topology.triples[0]")


def test_explicit_base_must_be_an_integer():
    expect_error(explicit(base="true"), "topology.base: must be an integer")
    expect_error(explicit(base="1.0"), "topology.base: must be an integer")


def test_explicit_topology_rejects_unknown_keys(tmp_path, capsys):
    # a misspelled 'triples' would leave the disk cover without its
    # triple, and classify would call the contractible disk topological
    disk = explicit(
        regions="[0, 1, 2]", overlaps="[[0, 1, 0], [0, 2, 0], [1, 2, 0]]"
    ).replace("triples:", "tripels:")
    expect_error(disk, "topology: unknown keys ['tripels'] (line 4:3)")
    target = tmp_path / "typo.yaml"
    target.write_text(disk, encoding="utf-8")
    code, out, err = run_cli(["classify", "--scenario", str(target)], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "flatnet: topology: unknown keys ['tripels'] (line 4:3)\n"
    # disjointness is read off the overlaps, so a 'disjoint' list is unknown too
    old = explicit().replace("  base: 0\n", "  disjoint: [[0, 3], [1, 3]]\n  base: 0\n")
    expect_error(old, "topology: unknown keys ['disjoint'] (line 4:3)")
    expect_error(explicit().replace("base:", "bsae:"), "topology: unknown keys ['bsae']")


def test_explicit_cover_disjointness_is_the_overlap_complement():
    cover = loads(explicit()).cover
    assert cover.are_disjoint(0, 3) and cover.are_disjoint(3, 1)
    assert not cover.are_disjoint(0, 1) and not cover.are_disjoint(2, 3)
    assert not cover.are_disjoint(2, 2) and not cover.are_disjoint(0, 4)


def test_explicit_empty_regions_rejected(tmp_path, capsys):
    text = explicit(regions="[]", overlaps="[]", triples="[]", base="0")
    expect_error(text.replace("  base: 0\n", ""), "topology")
    target = tmp_path / "empty.yaml"
    target.write_text(text.replace("  base: 0\n", ""), encoding="utf-8")
    code, out, err = run_cli(["check", "--scenario", str(target)], capsys)
    assert code == 2 and err.startswith("flatnet: topology") and "Traceback" not in err


def test_matrix_sigma_between_old_and_new_unitarity_bounds(tmp_path, capsys):
    # a defect of 2e-9 once passed the parse gate (1e-8) and then crashed
    # the MatrixUn constructor (UNITARY_TOL = 1e-10) with a traceback
    text = (
        "schema_version: 1\n"
        "topology: {builtin: circle, n: 3}\n"
        "group: {variant: MatrixUn, dimension: 1}\n"
        "sigma: {g0: [[[1.000000001, 0.0]]]}\n"
    )
    expect_error(text, "sigma.g0: matrix is not unitary")
    target = tmp_path / "drift.yaml"
    target.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["report", "--scenario", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("flatnet: sigma.g0: matrix is not unitary")
    assert "Traceback" not in err


def test_named_paths_built_once_per_report(monkeypatch):
    text = ANNULUS_YAML.read_text(encoding="utf-8")
    text = text.replace("random_paths: 6", "random_paths: 0")
    calls = []

    def counting(cover, visited):
        calls.append(tuple(visited))
        return approximate_curve(cover, visited)

    monkeypatch.setattr(scenario_module, "approximate_curve", counting)
    cfg = loads(text)
    assert cfg.amplitudes and "amplitude" in cfg.tasks and "sector" in cfg.tasks
    assert sorted(calls) == sorted(cfg.paths.values())
    built = {n: approximate_curve(cfg.cover, p) for n, p in cfg.paths.items()}
    assert cfg.curves == built
    run_scenario(cfg)
    assert len(calls) == len(cfg.paths)
    other = replace(cfg, seed=11)
    assert other == replace(cfg, seed=11) and other.seed == 11
    assert other.curves == cfg.curves


def test_one_nerve_per_load_and_report(monkeypatch):
    # the nerve the parser reads the generator names from is the one every
    # task reads; a replaced config derives its own from its cover
    calls = []

    def counting(cover):
        calls.append(cover)
        return build_nerve(cover)

    monkeypatch.setattr(scenario_module, "build_nerve", counting)
    cfg = loads(ANNULUS_YAML.read_text(encoding="utf-8"))
    report = run_scenario(cfg)
    assert len(calls) == 1 and report["summary"]["status"] == "pass"
    assert cfg.nerve == build_nerve(cfg.cover)
    disk = replace(cfg, cover=builtin_cover("disk"), paths={}, amplitudes=())
    assert disk.nerve == build_nerve(disk.cover) and len(calls) == 2
    run_scenario(replace(cfg, seed=11))
    assert len(calls) == 3


def test_random_paths_need_seed():
    expect_error(MINIMAL + "random_paths: 3\n", "seed")
    cfg = loads(MINIMAL + "random_paths: 3\nseed: 1\n")
    assert cfg.random_paths == 3


def test_not_yaml_and_missing_file(tmp_path):
    expect_error("{:::", "not valid YAML")
    expect_error("- just\n- a list\n", "mapping")
    with pytest.raises(ScenarioError):
        parse_scenario(str(tmp_path / "nope.yaml"))


@pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml"
)
def test_libyaml_and_python_loaders_agree():
    for path in sorted(GOLDEN_DIR.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(
            text, Loader=yaml.SafeLoader
        ), path.name
    for bad in ("{:::", "schema_version: 1\ntopology: {builtin: annulus\nsigma: {}\n"):
        lines = set()
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            with pytest.raises(yaml.YAMLError) as exc:
                yaml.load(bad, Loader=loader)
            lines.add(exc.value.problem_mark.line + 1)
        assert len(lines) == 1
        error = error_of(bad)
        assert str(error).startswith("<scenario>: not valid YAML: ") and error.line == lines.pop()
        assert str(error).endswith(f" (line {error.line}:{error.column})") and "\n" not in str(error)


# ---------------------------------------------------------------------------
# running the golden scenarios


def test_golden_annulus_report_values():
    report = run_scenario(parse_scenario(str(ANNULUS_YAML)))
    assert report["summary"] == {
        "status": "pass", "failed": [], "skipped": [], "exit_code": 0,
    }
    tasks = report["tasks"]
    assert tasks["check"]["status"] == "pass"
    assert tasks["trivialize"]["trivial"] is False  # quarter turn obstructs
    wind3 = tasks["holonomy"]["paths"]["wind3"]
    assert wind3["word"] == "g0.g0.g0"
    assert wind3["value"]["value"] == pytest.approx([0.0, -1.0], abs=1e-12)
    pairs = {(e["p"], e["q"]): e["value"] for e in tasks["amplitude"]["pairs"]}
    assert pairs[("top", "bottom")] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert pairs[("wind3", "stay")] == pytest.approx([0.0, -1.0], abs=1e-12)
    assert tasks["classify"]["kind"] == "topological"
    assert tasks["sector"]["paths_checked"] == 5 + 6


def test_golden_disk_is_dhr():
    report = run_scenario(parse_scenario(str(DISK_YAML)))
    assert report["summary"]["status"] == "pass"
    assert report["tasks"]["trivialize"]["trivial"] is True
    assert report["tasks"]["classify"]["kind"] == "DHR"


def test_golden_fig8_matrix_layer():
    report = run_scenario(parse_scenario(str(FIG8_YAML)))
    assert report["summary"]["status"] == "pass"
    cls = report["tasks"]["classify"]
    assert cls["kind"] == "topological" and cls["dimension"] == 2
    hol = report["tasks"]["holonomy"]["paths"]["commutator"]
    assert hol["word"] == "g1^-1.g0^-1.g1.g0"
    rows = np.array(hol["value"]["rows"])
    want = np.array([[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]])
    assert np.max(np.abs(rows - want)) <= 1e-12


def test_golden_torus_passes():
    report = run_scenario(parse_scenario(str(TORUS_YAML)))
    assert report["summary"]["status"] == "pass"
    assert report["tasks"]["check"]["triples_checked"] == 14


def test_run_scenario_deterministic():
    cfg = parse_scenario(str(ANNULUS_YAML))
    a = emit_report(run_scenario(cfg), "structured")
    b = emit_report(run_scenario(cfg), "structured")
    assert a == b


def test_skip_dependents_when_check_fails():
    # a quarter turn on the disk violates the contractibility relation
    text = """
schema_version: 1
topology: {builtin: disk}
sigma: {g0: pi/3}
seed: 2
paths: {edge: [0, 1]}
"""
    report = run_scenario(load_scenario(text))
    assert report["tasks"]["check"]["status"] == "fail"
    assert report["tasks"]["check"]["relation_violations"]
    for t in ("trivialize", "holonomy", "sector", "classify"):
        assert report["tasks"][t] == {"status": "skipped", "reason": "check failed"}
    assert report["summary"]["status"] == "fail"
    assert report["summary"]["exit_code"] == 1
    assert report["summary"]["skipped"] == sorted(
        ["trivialize", "holonomy", "sector", "amplitude", "classify"]
    )


def test_reference_scenarios_build_no_fock_operator(monkeypatch):
    # the Fock tasks read the window from the mode allocation and fold one
    # entry per edge: no creator, no operator product, no window column
    # and no implementer is built, nothing is evaluated on the 2^K
    # bitsets, and no transporter operator is built
    def refuse(what):
        def fail(*args):
            raise AssertionError(f"the scenario path {what}")
        return fail

    windows, make = [], scenario_module.make_window

    def counted_window(fock, cover, kappa):
        windows.append(make(fock, cover, kappa))
        return windows[-1]

    monkeypatch.setattr(scenario_module, "make_window", counted_window)
    monkeypatch.setattr(FockSpace, "creator", refuse("built a creator"))
    monkeypatch.setattr(FieldOp, "__mul__", refuse("multiplied operators"))
    monkeypatch.setattr(FieldOp, "_bands", refuse("evaluated an operator on every bitset"))
    monkeypatch.setattr(FockSpace, "occupation_counts", property(refuse("counted 2^K occupations")))
    monkeypatch.setattr(SectorTransporter, "op", refuse("built a transporter operator"))
    monkeypatch.setattr(WindowSubspace, "columns", property(refuse("read the window columns")), raising=False)
    monkeypatch.setattr(WindowSubspace, "implementers", property(refuse("built the implementers")), raising=False)
    scenarios = sorted(GOLDEN_DIR.glob("*.yaml"))
    assert len(scenarios) == 5
    for path in scenarios:
        config = parse_scenario(str(path))
        report = run_scenario(config)
        assert report["summary"]["status"] == "pass", (path.name, report["tasks"])
    assert len(windows) >= 2


def test_sector_task_maps_each_probe_path_to_codes_once(monkeypatch):
    # one code row per probe path serves both transporters' chain and
    # holonomy folds; each triple folds two chains per transporter.  Calls
    # are counted once the sector task builds its window
    calls, windows = [], []
    real, make = Cover.codes, scenario_module.make_window

    def counted(self, crossings):
        calls.extend(windows[:1])
        return real(self, crossings)

    def counted_window(*args):
        windows.append(1)
        return make(*args)

    text = TORUS_YAML.read_text(encoding="utf-8")
    config = load_scenario(re.sub(r"(?m)^tasks:.*$", "tasks: [sector]", text))
    monkeypatch.setattr(Cover, "codes", counted)
    monkeypatch.setattr(scenario_module, "make_window", counted_window)
    body = run_scenario(config)["tasks"]["sector"]
    assert body["status"] == "pass" and body["paths_checked"] > 2 and body["triples_checked"] > 2
    assert len(calls) == body["paths_checked"] + 4 * body["triples_checked"]


# ---------------------------------------------------------------------------
# report formats


def test_structured_report_round_trip():
    report = run_scenario(parse_scenario(str(DISK_YAML)))
    text = emit_report(report, "structured")
    assert parse_report(text) == report
    assert json.loads(text) == report


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_structured_reports_match_json_dumps():
    reports = [run_scenario(parse_scenario(str(p))) for p in sorted(GOLDEN_DIR.glob("*.yaml"))]
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for item in workloads.make_items(name, seed):
                config = load_scenario(item.text)
                if item.seed is not None:
                    config = replace(config, seed=item.seed)
                reports.append(run_scenario(config))
    assert len(reports) >= 10
    for report in reports:
        assert emit_report(report, "structured") == dumps(report)


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**30)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
    | st.text(),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_structured_writer_matches_json_dumps_on_json_trees(tree):
    assert emit_report(tree, "structured") == dumps(tree)


def test_structured_writer_matches_json_dumps_on_edge_values():
    tree = {"é☃\n\"": [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 10**40, -(10**40)],
            "b": (True, False, None, (), [], {}, ""), "a": {"": "\x00\u2028\U0001f600"}}
    assert emit_report(tree, "structured") == dumps(tree)
    assert emit_report(np.float64(0.1), "structured") == dumps(np.float64(0.1))
    # number lists written as one join of reprs, and lists beside them
    # that must fall back to the per-item path: bools, numpy scalars,
    # nan and inf, tuples, nested lists
    lists = [[True, 1], [1, np.float64(0.5)], [0.5, math.nan], [-math.inf, 1e300],
             [-0.0, 0.0, 5e-324], [10**40, 2.5], (1, 2.0), [[1, 2], [3.0]], [1, 2, 3], [0.1]]
    for value in lists:
        assert emit_report(value, "structured") == dumps(value), value
    assert emit_report({"x": lists}, "structured") == dumps({"x": lists})


def test_render_value_reads_each_entry_bits():
    # one tolist of the float view keeps every entry's bits: signed zeros,
    # subnormals, and matrices stored in Fortran order
    m = np.array([[-0.0 + 5e-324j, 1.0 - 0.0j], [complex(-5e-324, -0.0), 0.1 + 0.2j]])
    flip = MatrixUn(np.array([[complex(-0.0, 1e-300), 1.0], [1.0, complex(0.0, -0.0)]]))
    rot = inverse(MatrixUn([[0.6, 0.8j], [0.8j, 0.6]]))
    values = [_as_unitary_loose(m), _as_unitary_loose(m.T), rot, flip]
    for v in values:
        want = [[[float(x.real), float(x.imag)] for x in row] for row in v.mat]
        assert repr(_render_value(v)["rows"]) == repr(want)
    # transposed input stays transposed in the value
    assert not values[1].mat.flags.c_contiguous and not values[2].mat.flags.c_contiguous


@pytest.mark.parametrize("bad", [{1: "a"}, {None: 1}, {"a": {2.5: 1}}, [object()], {"a": {1, 2}},
                                 {"a": np.int64(3)}, b"x"])
def test_structured_writer_raises_type_error(bad):
    with pytest.raises(TypeError):
        emit_report(bad, "structured")


def test_parse_report_rejects_non_reports():
    with pytest.raises(ValueError):
        parse_report("scenario: annulus | plain text\n")
    with pytest.raises(ScenarioError):
        parse_report(json.dumps({"schema_version": 99}))
    with pytest.raises(ScenarioError):
        parse_report(json.dumps({"schema_version": SCHEMA_VERSION}))


def test_text_report_rendering():
    report = run_scenario(parse_scenario(str(ANNULUS_YAML)))
    text = emit_report(report, "text")
    assert text.startswith("scenario: annulus | group PhaseU1 |")
    assert re.search(r"check\s+PASS", text)
    assert "tolerance 1.0e-10" in text
    assert "[g0.g0.g0]" in text
    assert text.rstrip().endswith("summary: pass")
    with pytest.raises(ValueError):
        emit_report(report, "sideways")


def test_text_report_shows_skips():
    text = """
schema_version: 1
topology: {builtin: disk}
sigma: {g0: pi/3}
"""
    report = run_scenario(load_scenario(text))
    rendered = emit_report(report, "text")
    assert re.search(r"check\s+FAIL", rendered)
    assert "(check failed)" in rendered
    assert "summary: fail" in rendered


# ---------------------------------------------------------------------------
# command line


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_report_pass(capsys):
    code, out, err = run_cli(
        ["report", "--scenario", str(ANNULUS_YAML), "--format", "structured"], capsys
    )
    assert code == 0 and err == ""
    doc = parse_report(out)
    assert doc["summary"]["status"] == "pass"


def test_cli_byte_identical_across_runs(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(
            ["report", "--scenario", str(ANNULUS_YAML),
             "--format", "structured", "--out", str(out)], capsys,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_single_task_matches_full_run(capsys):
    full = run_scenario(parse_scenario(str(ANNULUS_YAML)))
    for task in TASK_ORDER:
        code, out, _ = run_cli(
            [task, "--scenario", str(ANNULUS_YAML), "--format", "structured"], capsys
        )
        assert code == 0
        doc = parse_report(out)
        assert doc["tasks"][task] == full["tasks"][task]  # salted rng, same draws


def test_cli_exit_code_failure(tmp_path, capsys):
    bad = tmp_path / "disk_bad.yaml"
    bad.write_text(
        "schema_version: 1\ntopology: {builtin: disk}\nsigma: {g0: pi/3}\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(["report", "--scenario", str(bad)], capsys)
    assert code == 1
    assert "summary: fail" in out


def test_cli_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("schema_version: 1\ntopology: {builtin: moebius}\n", encoding="utf-8")
    code, _, err = run_cli(["report", "--scenario", str(bad)], capsys)
    assert code == 2 and "flatnet:" in err
    code, _, err = run_cli(["report", "--scenario", str(tmp_path / "gone.yaml")], capsys)
    assert code == 2


def test_cli_exit_code_matrix_fock_task(capsys):
    for task in ("sector", "amplitude"):
        code, out, err = run_cli([task, "--scenario", str(FIG8_YAML)], capsys)
        assert code == 2 and out == ""
        assert err == f"flatnet: tasks: ['{task}'] act on the Fock window and need PhaseU1\n"


def test_config_decides_seed_and_fock_task_rules_on_replace():
    # the CLI's overrides go through replace, which re-runs these checks
    u1, su2 = parse_scenario(str(ANNULUS_YAML)), parse_scenario(str(FIG8_YAML))
    for bad in (-1, True, 1.0):
        with pytest.raises(ScenarioError, match="^seed: must be an integer"):
            replace(u1, seed=bad)
    assert replace(u1, seed=0).seed == 0 and replace(su2, seed=None).seed is None
    with pytest.raises(ScenarioError, match=r"^tasks: \['amplitude', 'sector'\] act on"):
        replace(su2, tasks=("check", "sector", "amplitude"))
    assert replace(su2, tasks=("classify",)).tasks == ("classify",)
    assert replace(u1, tasks=("sector",)).tasks == ("sector",)
    # loading applies the same rules, placed at their YAML nodes
    text = FIG8_YAML.read_text(encoding="utf-8")
    expect_error(
        text.replace("holonomy, classify]", "holonomy, sector, classify]"),
        "tasks: ['sector'] act on the Fock window and need PhaseU1 (line 14:8)",
    )
    expect_error(text + "seed: -3\n", "seed: must be an integer >= 0 (line 15:7)")


def test_cli_exit_code_capacity(tmp_path, capsys):
    # 14 modes, past the 12-mode envelope of 2^K objects: the sector task
    # builds none, so it runs and passes
    big = tmp_path / "torus_big.yaml"
    text = TORUS_YAML.read_text(encoding="utf-8").replace(
        "modes_per_region: 1", "modes_per_region: 2"
    )
    big.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["sector", "--scenario", str(big), "--format", "structured"], capsys)
    assert code == 0 and err == ""
    body = parse_report(out)["tasks"]["sector"]
    assert body["modes"] == 14 and body["status"] == "pass"
    assert body["max_triple_residual"] <= body["tolerance"]
    assert body["max_telescope_residual"] <= body["tolerance"]


def test_cli_seed_and_tolerance_overrides(capsys):
    code, out, _ = run_cli(
        ["sector", "--scenario", str(ANNULUS_YAML),
         "--seed", "99", "--tolerance", "1e-6", "--format", "structured"], capsys
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["scenario"]["seed"] == 99
    assert doc["tasks"]["sector"]["tolerance"] == 1e-6
    code, _, err = run_cli(
        ["check", "--scenario", str(ANNULUS_YAML), "--seed", "-1"], capsys
    )
    assert code == 2 and err == "flatnet: seed: must be an integer >= 0\n"
    code, _, err = run_cli(
        ["check", "--scenario", str(ANNULUS_YAML), "--tolerance", "0"], capsys
    )
    assert code == 2
    for bad in ("nan", "inf"):
        code, _, err = run_cli(
            ["classify", "--scenario", str(ANNULUS_YAML), "--tolerance", bad], capsys
        )
        assert code == 2 and "--tolerance: must be a finite number" in err


def test_cli_out_writes_file_only(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        ["check", "--scenario", str(DISK_YAML), "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert re.search(r"check\s+PASS", target.read_text(encoding="utf-8"))


def test_cli_out_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.txt"
    code, out, err = run_cli(
        ["check", "--scenario", str(DISK_YAML), "--out", str(target)], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("flatnet: ") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("regions", ["[0]", "[0, 0]", "[2, 2, 2]"])
def test_reflexive_only_path_telescopes_like_empty_path(regions):
    # a path that never leaves its region carries the identity, not the
    # projector-like pair phi phi^*, which would leave a residual of 1.0
    report = run_scenario(loads(MINIMAL + f"tasks: [sector]\npaths: {{p: {regions}}}\n"))
    body = report["tasks"]["sector"]
    assert body["paths_checked"] == 1
    assert body["max_telescope_residual"] == 0.0 and body["status"] == "pass"


# ---------------------------------------------------------------------------
# NaN residuals stay NaN through every aggregation


def test_sector_triple_nan_fails_closed(monkeypatch):
    real = scenario_module.triple_law_residual
    calls = []

    def nan_on_second(t, triple):
        calls.append(triple)
        return float("nan") if len(calls) == 2 else real(t, triple)

    monkeypatch.setattr(scenario_module, "triple_law_residual", nan_on_second)
    report = run_scenario(loads(DISK_YAML.read_text(encoding="utf-8")))
    body = report["tasks"]["sector"]
    assert len(calls) >= 2
    assert np.isnan(body["max_triple_residual"]) and body["status"] == "fail"
    assert report["summary"]["status"] == "fail"


def test_sector_telescope_nan_fails_closed(monkeypatch):
    real = scenario_module.telescope_residuals
    batches = []

    def nan_at_third(t, paths):
        # one batch per transporter; a NaN in the middle of the first one
        out = real(t, paths)
        if not batches:
            out[2] = float("nan")
        batches.append(out)
        return out

    monkeypatch.setattr(scenario_module, "telescope_residuals", nan_at_third)
    report = run_scenario(loads(ANNULUS_YAML.read_text(encoding="utf-8")))
    body = report["tasks"]["sector"]
    assert len(batches) == 2 and len(batches[0]) > 3
    assert np.isnan(body["max_telescope_residual"]) and body["status"] == "fail"


def test_classify_nan_fails_closed(monkeypatch):
    real = scenario_module.classify

    def nan_last(t, nerve, tol):
        cls = real(t, nerve, tol)
        last = sorted(cls.residuals, key=lambda g: int(g[1:]))[-1]
        return replace(cls, residuals={**cls.residuals, last: float("nan")})

    monkeypatch.setattr(scenario_module, "classify", nan_last)
    report = run_scenario(loads(TORUS_YAML.read_text(encoding="utf-8")))
    body = report["tasks"]["classify"]
    assert len(body["components"]) > 1
    assert np.isnan(body["max_residual"]) and body["status"] == "fail"


# ---------------------------------------------------------------------------
# integer-only fields outside the explicit cover


def test_path_entries_must_be_integers():
    cfg = loads(MINIMAL + "paths: {p: [0, 1, 2]}\n")
    assert cfg.paths["p"] == (0, 1, 2)
    expect_error(MINIMAL + "paths: {p: [0, 1.0, true]}\n", "paths.p[1]: must be an integer")
    expect_error(MINIMAL + "paths: {p: [0, 1, true]}\n", "paths.p[2]: must be an integer")
    expect_error(MINIMAL + "paths: {p: [0, '1']}\n", "paths.p[1]: must be an integer")


@pytest.mark.parametrize(
    "field, extra",
    [
        ("seed", ""),
        ("modes_per_region", ""),
        ("charge", ""),
        ("random_paths", "seed: 1\n"),
    ],
)
def test_integer_scalar_fields_reject_booleans_and_floats(field, extra):
    for bad in ("true", "false", "1.0", "'1'"):
        expect_error(MINIMAL + extra + f"{field}: {bad}\n", f"{field}: must be an integer")


def test_matrix_dimension_rejects_boolean():
    expect_error(
        "schema_version: 1\ntopology: {builtin: annulus}\n"
        "group: {variant: MatrixUn, dimension: true}\nsigma: {g0: [[[1, 0]]]}\n",
        "MatrixUn needs an integer dimension",
    )


def test_cli_exit_code_boolean_seed(tmp_path, capsys):
    target = tmp_path / "bool_seed.yaml"
    target.write_text(MINIMAL + "seed: true\n", encoding="utf-8")
    code, out, err = run_cli(["report", "--scenario", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("flatnet: seed: must be an integer")


def test_cli_random_paths_without_seed(tmp_path, capsys):
    target = tmp_path / "unseeded.yaml"
    target.write_text(MINIMAL + "random_paths: 3\n", encoding="utf-8")
    code, out, err = run_cli(["report", "--scenario", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("flatnet:") and "seed" in err


# ---------------------------------------------------------------------------
# loader fuzz: mutated reference scenarios

FUZZ_EXTRA = [
    """
schema_version: 1
topology: {builtin: circle, n: 6}
sigma: {g0: pi/3}
seed: 5
random_paths: 3
paths: {loop: [0, 1, 2, 3, 4, 5, 0], stay: [0]}
amplitudes: [[loop, stay]]
""",
    """
schema_version: 1
topology:
  regions: [0, 1, 2, 3]
  overlaps: [[0, 1, 0], [1, 2, 0], [2, 3, 0], [0, 3, 0]]
  triples: []
  base: 0
sigma: {g0: 0.5}
paths: {p: [0, 1, 2], q: [0, 3, 2]}
amplitudes: [[p, q]]
""",
]
FUZZ_DOCS = [yaml.safe_load(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN_DIR.glob("*.yaml"))]
FUZZ_DOCS += [yaml.safe_load(text) for text in FUZZ_EXTRA]
DROP = object()
FUZZ_VALUES = [DROP, None, True, False, 10**30, float("nan"), "x", [], [[0, [1]]], {}, {"k": {"j": []}}]
# counts that set the amount of work: a huge value is capped here, since
# the loader rightly accepts any count and the run would take that long
WORK_FIELDS = {("random_paths",), ("topology", "n")}
WORK_CAP = 40


def node_paths(node, prefix=()):
    """Key path of every value nested in a document of maps and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from node_paths(v, prefix + (k,))


@st.composite
def mutated_scenarios(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(node_paths(doc))
        if not paths:
            break
        at = draw(st.sampled_from(paths))
        value = draw(st.sampled_from(FUZZ_VALUES))
        if at in WORK_FIELDS and type(value) is int and value > WORK_CAP:
            value = WORK_CAP
        parent = doc
        for k in at[:-1]:
            parent = parent[k]
        if value is DROP:
            del parent[at[-1]]
        else:
            parent[at[-1]] = copy.deepcopy(value)
    return yaml.safe_dump(doc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenarios())
def test_mutated_reference_scenarios_load_or_raise_scenario_error(text):
    try:
        config = load_scenario(text)
    except ScenarioError:
        return
    report = run_scenario(config)
    emit_report(report, "structured")
    emit_report(report, "text")


# ---------------------------------------------------------------------------
# the node-walk loader against yaml.load

LOADER_BASES = [
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml", marks=pytest.mark.skipif(
        not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")),
    pytest.param(yaml.SafeLoader, id="python"),
]


def _bench_workloads():
    path = GOLDEN_DIR.parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def walk_loader(base):
    return type(f"Walk{base.__name__}", (loader_module._EventWalk, base), {})


def walk(base, text):
    return walk_loader(base).read(text, "<test>")


def same(a, b) -> bool:
    """Equal structure, types and values; NaN equals NaN and the sign of
    zero counts.  Iterative, so deep and self-containing values compare."""
    todo, seen = [(a, b)], set()
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (list, tuple, dict)):
            if (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
            if len(x) != len(y):
                return False
            if isinstance(x, dict):
                for (kx, vx), (ky, vy) in zip(x.items(), y.items()):
                    todo += [(kx, ky), (vx, vy)]
            else:
                todo += zip(x, y)
        elif isinstance(x, float):
            if not (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
                    or x != x and y != y):
                return False
        elif x != y:
            return False
    return True


def assert_walk_matches_yaml_load(base, text):
    try:
        expected = yaml.load(text, Loader=base)
    except Exception:  # YAMLError, RecursionError, or a constructor's own error
        with pytest.raises(ScenarioError):
            walk(base, text)
        return
    assert same(walk(base, text), expected)


def nested(depth):
    return "a: " + "[" * depth + "0" + "]" * depth + "\n"


HAND_CORPUS = {
    "anchors": "a: &x [1, 2]\nb: *x\nc: &m {k: v}\nd: *m\ne: [*x, *m]\n",
    "recursive_alias": "a: &x [*x]\n",
    "recursive_mapping": "a: &x {self: *x, n: [*x]}\n",
    "merge": "topology: {<<: {builtin: circle, n: 4}}\n",
    "merge_override": "base: &b {builtin: circle, n: 4}\ntopology: {<<: *b, n: 5}\n",
    "merge_list": "x: &a {p: 1, q: 0}\ny: &b {q: 2}\nz: {<<: [*a, *b], r: 3}\n",
    "merge_not_mapping": "a: {<<: 5}\n",
    "value_key": "a: {=: 1, b: 2}\n",
    "unhashable_sequence_key": "? [1, 2]\n: x\n",
    "unhashable_mapping_key": "a: {? {b: 1} : x}\n",
    "duplicate_keys": "a: 1\na: [2]\nb: {c: 1, c: 2, d: 3}\n",
    "multi_document": "a: 1\n---\nb: 2\n",
    "empty": "",
    "comment_only": "# nothing here\n",
    "empty_document": "---\n...\n",
    "set": "s: !!set {a, b, 1}\n",
    "omap": "o: !!omap [{a: 1}, {b: [2, 3]}]\n",
    "pairs": "p: !!pairs [{a: 1}, {a: 2}]\n",
    "binary": "b: !!binary aGVsbG8=\n",
    "timestamps": "t: [2001-12-14t21:59:43.10-05:00, 2002-12-14, !!timestamp 2001-12-14]\n",
    "bad_date": "d: 2001-02-30\n",
    "explicit_scalars": "s: !!str 5\nn: !!int '7'\nf: !!float '1'\nz: !!null ''\n",
    "explicit_bad_bool": "b: !!bool maybe\n",
    "explicit_bad_int": "i: !!int abc\n",
    "explicit_empty_float": "f: !!float ''\n",
    "explicit_bad_timestamp": "t: !!timestamp abc\n",
    "bad_utc_offset": "t: 2001-01-01 10:00:00 +25\n",
    "explicit_scalar_tags_on_containers": "n: !!null [1]\n",
    "explicit_container_tag_on_scalar": "s: !!seq x\n",
    "unknown_tag": "x: !foo bar\n",
    "python_tag": "x: !!python/tuple [1, 2]\n",
    "yaml11_scalars": (
        "a: [017, 0x1F, 0b101, 1_000, +12, 1:30, 190:20:30.15, 1_0.5, .inf, -.inf, .NaN,"
        " ~, null, '', yes, off, On, NO, 1e-10, 1.0e-10, -0.0, 0.0, '5', \"0x1F\", 1.5]\n"
    ),
    "scalar_keys": "1: a\n1.5: b\ntrue: c\n~: d\n2001-01-01: e\n0x10: f\n",
    "mixed": "- {a: [1, {b: 2}]}\n- [[], {}]\n- plain\n",
    "huge_int": "seed: " + "9" * 5000 + "\n",
    "syntax_error": "{:::",
    "unclosed": "schema_version: 1\ntopology: {builtin: annulus\n",
    "merge_self": "a: &x {<<: *x}\n",
    "merge_self_after_keys": "a: &x {k: 1, <<: *x}\n",
    "merge_into_ancestor": "a: &x {b: &y {<<: *x}}\n",
    "merge_unknown_tag": "<<: !foo {b: 1}\n",
    "merge_set_as_mapping": "<<: !!set {b}\n",
    "merge_set_alias": "s: &s !!set {b, a}\nm: {<<: *s, c: 1}\n",
    "merge_list_alias": "a: &a {x: 1}\nb: &b {x: 2, y: 3}\nl: &l [*a, *b]\nm: {<<: *l}\n",
    "merge_two_keys": "a: &a {x: 1}\nb: &b {x: 2, y: 3}\nm: {<<: *a, <<: *b, z: 0}\n",
    "merge_own_key_first": "m: {a: 1, <<: {a: 2, b: 3}}\n",
    "merge_omap": "m: {<<: !!omap [{a: 1}, {b: 2}]}\n",
    "merge_scalar_alias": "s: &s 5\nm: {<<: *s}\n",
    "merge_list_of_scalar": "m: {<<: [{a: 1}, 5]}\n",
    "merge_anchored_value": "m: {<<: &v {a: 1}}\nn: *v\n",
    "merge_key_explicit": "m: {!!merge x: {a: 1}}\n",
    "value_key_explicit": "m: {!!value foo: 1}\n",
    "merge_and_value_as_values": "l: [<<, =]\n",
    "set_with_merge": "s: !!set {<<: {a: 1}, b}\n",
    "set_alias": "s: &s !!set {a}\nl: [*s, *s]\n",
    "set_unhashable": "s: !!set {? [a]}\n",
    "omap_merge_key": "o: !!omap [{<<: {a: 1}}]\n",
    "omap_value_key": "o: !!omap [{=: 1}]\n",
    "omap_self": "x: &x !!omap [{k: *x}]\n",
    "omap_alias_entry": "m: &m {a: 1}\no: !!omap [*m]\n",
    "omap_anchored_entry": "o: !!omap [&e {a: 1}]\nx: *e\n",
    "omap_two_items": "o: !!omap [{a: 1, b: 2}]\n",
    "omap_scalar_entry": "o: !!omap [a]\n",
    "pairs_sequence_entry": "p: !!pairs [[a]]\n",
    "pairs_list_key": "p: !!pairs [{[a]: 1}]\n",
    "container_tags": "a: !!seq {k: 1}\n",
    "unknown_container_tag": "x: !foo [1]\n",
    "duplicate_anchor": "a: &x 1\nb: &x 2\n",
    "undefined_alias": "a: *nope\n",
    "alias_key": "k: &k key\n? *k\n: 1\n",
    "alias_unhashable_key": "l: &l [1]\n? *l\n: 1\n",
    "colliding_keys": "{1: a, true: b, 1.0: c}\n",
    "root_scalar": "5\n",
    "second_document_after_empty": "---\n---\na: 1\n",
    "explicit_default_tags": "a: !!map {k: !!seq [1]}\n",
    "merge_anchored_set": "m: {<<: &v !!set {a}}\nn: *v\n",
}
# a container tagged other than a mapping or sequence: yaml.load builds it,
# the walk rejects it where it starts
TAGGED = {
    "set": "set", "omap": "omap", "pairs": "pairs", "set_with_merge": "set",
    "omap_anchored_entry": "omap", "pairs_list_key": "pairs",
}

# an anchor, an alias or a merge key: yaml.load shares or merges, the walk
# rejects the first one where it appears, as (field path, token, line, column)
NOT_A_TREE = {
    "anchors": ("a", "anchor &x", 1, 4),
    "recursive_alias": ("a", "anchor &x", 1, 4),
    "recursive_mapping": ("a", "anchor &x", 1, 4),
    "merge": ("topology", "merge key", 1, 12),
    "merge_override": ("base", "anchor &b", 1, 7),
    "merge_list": ("x", "anchor &a", 1, 4),
    "merge_self": ("a", "anchor &x", 1, 4),
    "merge_self_after_keys": ("a", "anchor &x", 1, 4),
    "merge_into_ancestor": ("a", "anchor &x", 1, 4),
    "merge_unknown_tag": ("<test>", "merge key", 1, 1),
    "merge_set_as_mapping": ("<test>", "merge key", 1, 1),
    "merge_set_alias": ("s", "anchor &s", 1, 4),
    "merge_list_alias": ("a", "anchor &a", 1, 4),
    "merge_two_keys": ("a", "anchor &a", 1, 4),
    "merge_own_key_first": ("m", "merge key", 1, 11),
    "merge_omap": ("m", "merge key", 1, 5),
    "merge_anchored_value": ("m", "merge key", 1, 5),
    "merge_key_explicit": ("m", "merge key", 1, 5),
    "merge_anchored_set": ("m", "merge key", 1, 5),
    "set_alias": ("s", "anchor &s", 1, 4),
    "omap_self": ("x", "anchor &x", 1, 4),
    "omap_alias_entry": ("m", "anchor &m", 1, 4),
    "alias_key": ("k", "anchor &k", 1, 4),
}
NOT_A_TREE_MESSAGE = "{}: found {}; a scenario has no anchors, aliases or merge keys (line {}:{})"


def assert_not_a_tree(base, text, where, token, line, column):
    """The walk rejects ``text`` at the anchor, alias or merge key that
    starts at ``line``:``column``."""
    assert text.splitlines()[line - 1][column - 1:].startswith(("&", "*", "<<", "!!merge"))
    with pytest.raises(ScenarioError) as exc:
        walk(base, text)
    assert str(exc.value) == NOT_A_TREE_MESSAGE.format(where, token, line, column)


@pytest.mark.parametrize("base", LOADER_BASES)
@pytest.mark.parametrize("name", sorted(HAND_CORPUS))
def test_walk_matches_yaml_load_on_hand_corpus(base, name):
    if name in TAGGED:
        yaml.load(HAND_CORPUS[name], Loader=base)
        with pytest.raises(ScenarioError, match=rf"tag tag:yaml.org,2002:{TAGGED[name]} is not "
                           r"a scenario mapping or sequence \(line \d+:\d+\)$"):
            walk(base, HAND_CORPUS[name])
    elif name in NOT_A_TREE:
        yaml.load(HAND_CORPUS[name], Loader=base)
        assert_not_a_tree(base, HAND_CORPUS[name], *NOT_A_TREE[name])
    else:
        assert_walk_matches_yaml_load(base, HAND_CORPUS[name])


@pytest.mark.parametrize("base", LOADER_BASES)
def test_walk_matches_yaml_load_on_scenarios_and_workloads(base):
    texts = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN_DIR.glob("*.yaml"))]
    texts += FUZZ_EXTRA
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            texts += [item.text for item in workloads.make_items(name, seed)]
    for text in texts:
        assert_walk_matches_yaml_load(base, text)


@pytest.mark.parametrize("base", LOADER_BASES)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_scenarios())
def test_walk_matches_yaml_load_on_mutated_scenarios(base, text):
    assert_walk_matches_yaml_load(base, text)


@pytest.mark.parametrize("base", LOADER_BASES)
def test_walk_rejects_anchors_and_aliases(base):
    # what yaml.load shares, and a list that contains itself
    assert_not_a_tree(base, HAND_CORPUS["anchors"], "a", "anchor &x", 1, 4)
    assert_not_a_tree(base, HAND_CORPUS["recursive_alias"], "a", "anchor &x", 1, 4)
    # an alias, whether or not its anchor exists; an anchor on a key or a scalar
    assert_not_a_tree(base, "a: [1, *x]\n", "a[1]", "alias *x", 1, 8)
    assert_not_a_tree(base, "a:\n  b: *nope\n", "a.b", "alias *nope", 2, 6)
    assert_not_a_tree(base, "a: {&k k: 1}\n", "a", "anchor &k", 1, 5)
    assert_not_a_tree(base, "a: {k: [0, &s 1]}\n", "a.k[1]", "anchor &s", 1, 12)
    assert_not_a_tree(base, "- {b: 1, <<: {c: 2}}\n", "[0]", "merge key", 1, 10)


@pytest.fixture(params=LOADER_BASES)
def loader_base(request, monkeypatch):
    monkeypatch.setattr(scenario_module, "_Loader", walk_loader(request.param))
    return request.param


def error_of(text):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(text)
    return exc.value


@pytest.mark.parametrize(
    "text, where, line, column",
    [
        (MINIMAL + "seed: true\n", "seed", 5, 7),
        (MINIMAL + "extra_knob: 1\n", "<scenario>", 2, 1),
        (explicit(overlaps="[[0, 1, 0],\n    [1, 2], [0, 2, 0], [2, 3, 0]]"),
         "topology.overlaps[1]", 6, 5),
        ("schema_version: 1\ntopology: {builtin: figure_eight}\n"
         "group: {variant: MatrixUn, dimension: 1}\n"
         "sigma:\n  g0: [[[1.0, 0.0]]]\n  g1: [[[1.0, .nan]]]\n",
         "sigma.g1[0][0][1]", 6, 15),
        (MINIMAL.replace("pi/2", "pi/0"), "sigma.g0", 4, 13),
        (MINIMAL + "paths: {p: [0, 2]}\n", "paths.p", 5, 12),
        (MINIMAL + "random_paths: 2\n", "seed", 2, 1),  # no seed node: the document
        (MINIMAL + "tolerances: !!set {}\n", "tolerances", 5, 13),  # empty, yet tagged
        # a value key is named '=' on the error path too, as the walk reads it
        (MINIMAL + "paths: {=: [0, 1], p: [0, 9]}\n", "paths.p", 5, 23),
        (MINIMAL + "tolerances: {!!value check: .nan}\n", "tolerances.check", 5, 29),
    ],
)
def test_scenario_errors_carry_line_and_column(loader_base, text, where, line, column):
    e = error_of(text)
    assert (e.where, e.line, e.column) == (where, line, column)
    assert str(e).startswith(f"{where}: ") and str(e).endswith(f" (line {line}:{column})")


def test_first_non_unitary_generator_is_named(loader_base):
    head = (
        "schema_version: 1\ntopology: {builtin: figure_eight}\n"
        "group: {variant: MatrixUn, dimension: 2}\ntasks: [check]\nsigma:\n"
    )
    ok = "[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]"
    bad = "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.001]]]"
    e = error_of(head + f"  g0: {ok}\n  g1: {bad}\n")
    assert str(e).startswith("sigma.g1: matrix is not unitary: max |U*U - I| = 1.000e-06")
    assert (e.line, e.column) == (7, 7)
    assert error_of(head + f"  g0: {bad}\n  g1: {bad}\n").where == "sigma.g0"
    assert error_of(head + f"  g0: {ok}\n  g1: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], "
                    "[true, 0.0]]]\n").where == "sigma.g1[1][1][0]"


def test_matrix_sigma_keeps_signed_zeros(loader_base):
    cfg = loads(
        "schema_version: 1\ntopology: {builtin: figure_eight}\n"
        "group: {variant: MatrixUn, dimension: 2}\ntasks: [check]\nsigma:\n"
        "  g0: [[[-0.0, -0.0], [1, 0.0]], [[1.0, -0.0], [0.0, 0]]]\n"
        "  g1: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]\n"
    )
    m = cfg.sigma["g0"].mat
    assert np.signbit(m.real).tolist() == [[True, False], [False, False]]
    assert np.signbit(m.imag).tolist() == [[True, False], [True, False]]
    assert not m.flags.writeable and cfg.sigma["g1"].mat.tolist() == np.eye(2).tolist()


@pytest.mark.parametrize(
    "text, where",
    [
        (MINIMAL + "seed: " + "9" * 5000 + "\n", "seed"),
        (MINIMAL + "modes_per_region: " + "9" * 5000 + "\n", "modes_per_region"),
        (MINIMAL.replace("pi/2", "9" * 5000), "sigma.g0"),
        (MINIMAL + "paths: {p: [0, " + "9" * 5000 + "]}\n", "paths.p[1]"),
        (MINIMAL + "seed: 2001-02-30\n", "seed"),
        (MINIMAL + "seed: !!bool maybe\n", "seed"),
        (MINIMAL + "seed: !!int ''\n", "seed"),
        (MINIMAL + "tolerances: {check: !!timestamp abc}\n", "tolerances.check"),
    ],
    ids=["seed", "modes", "sigma", "path_entry", "bad_date", "explicit_bool",
         "explicit_empty_int", "explicit_bad_timestamp"],
)
def test_unreadable_scalars_exit_2_with_field_path(loader_base, tmp_path, capsys, text, where):
    e = error_of(text)
    assert e.where == where and e.line is not None
    f = tmp_path / "bad.yaml"
    f.write_text(text)
    code, out, err = run_cli(["report", "--scenario", str(f)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"flatnet: {where}: cannot read") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("a: &x [*x]\nschema_version: 1\n", "a: found anchor &x; a scenario has no anchors, "
         "aliases or merge keys (line 1:4)"),
        ("? [1, 2]\n: x\nschema_version: 1\n", "<scenario>: found unhashable key (line 1:3)"),
        (MINIMAL + "tolerances: {? [check] : 1.0}\n", "tolerances: found unhashable key"),
        (MINIMAL + "1: a\nfoo: b\n", "unknown keys [1, 'foo']"),
        ("", "<scenario>: top level must be a mapping (line 1:1)"),
    ],
    ids=["recursive_alias", "unhashable_key", "unhashable_nested_key", "mixed_key_types", "empty"],
)
def test_malformed_documents_raise_scenario_error(loader_base, text, fragment):
    assert fragment in str(error_of(text))


# far past MAX_DEPTH: the walk stops at the first container past it
DEEP = "[" * 3000 + "]" * 3000


def too_deep(where, levels, line, column):
    """The error for a value at ``where`` whose ``levels``-th nested
    container is the first past MAX_DEPTH."""
    return f"{where}{'[0]' * (levels - 1)}: nested too deeply (line {line}:{column})"


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL + f"tasks: [{DEEP}]\n", too_deep("tasks[0]", 99, 5, 107)),
        (MINIMAL.replace("{builtin: annulus}", f"{{builtin: {DEEP}}}"),
         too_deep("topology.builtin", 99, 3, 119)),
        (MINIMAL + f"group: {{variant: {DEEP}}}\n", too_deep("group.variant", 99, 5, 116)),
        (MINIMAL + f"paths: {{a: [0, 1]}}\namplitudes: [[a, {DEEP}]]\n",
         too_deep("amplitudes[0][1]", 98, 6, 115)),
        (MINIMAL + f"seed: {DEEP}\n", too_deep("seed", 100, 5, 106)),
    ],
    ids=["task", "builtin", "variant", "path_name", "seed"],
)
def test_deep_nesting_raises_scenario_error(monkeypatch, text, message):
    for base in [p.values[0] for p in LOADER_BASES if p.values[0] is not None]:
        monkeypatch.setattr(scenario_module, "_Loader", walk_loader(base))
        assert str(error_of(text)) == message


@pytest.mark.parametrize("base", LOADER_BASES)
def test_deep_nesting_stops_at_max_depth(base):
    # the root mapping plus ``depth`` lists: MAX_DEPTH containers read, one more does not
    limit = loader_module.MAX_DEPTH
    assert walk(base, nested(limit - 1)) == yaml.load(nested(limit - 1), Loader=base)
    for depth in (limit, 20_000):
        with pytest.raises(ScenarioError) as exc:
            walk(base, nested(depth))
        assert str(exc.value) == too_deep("a", limit, 1, 3 + limit)


def alias_chain(n, first="[]", link="[*a{}]"):
    """A flow list of ``n + 1`` anchored values, each holding an alias to
    the one before: the text nests 2 deep, the last value ``n + 1`` deep."""
    return f"[&a0 {first}" + "".join(f", &a{i} {link.format(i - 1)}" for i in range(1, n + 1)) + "]"


@pytest.mark.parametrize(
    "text, where, line, column",
    [
        (MINIMAL + f"tasks: {alias_chain(5000)}\n", "tasks[0]", 5, 9),
        (MINIMAL + f"group: {{variant: {alias_chain(5000)}}}\n", "group.variant[0]", 5, 19),
        (MINIMAL + f"paths: {{a: [0, 1]}}\namplitudes: [[a, {alias_chain(5000)}]]\n",
         "amplitudes[0][1][0]", 6, 19),
        # the last ``sigma`` would win, merged through 5,000 aliases
        (MINIMAL.replace("sigma: {g0: pi/2}", "sigma: "
                         + alias_chain(5000, "{g0: [1]}", "{{<<: *a{}}}") + "\nsigma: {<<: *a5000}"),
         "sigma[0]", 4, 9),
    ],
    ids=["tasks", "variant", "path_name", "merge"],
)
def test_alias_chains_past_the_recursion_limit_exit_2(loader_base, tmp_path, capsys, text,
                                                       where, line, column):
    # the walk stops at the chain's first anchor, so nothing nests past the text
    f = tmp_path / "chain.yaml"
    f.write_text(text)
    message = NOT_A_TREE_MESSAGE.format(where, "anchor &a0", line, column)
    assert run_cli(["report", "--scenario", str(f)], capsys) == (2, "", f"flatnet: {message}\n")


def alias_bomb(levels):
    """A task list holding ``levels + 1`` anchored lists of ten entries,
    each entry of one an alias to the one before: ``yaml.load`` builds
    10 ** (levels + 1) leaves from text that grows by about 56 bytes a level."""
    lists = ["&a0 [" + ", ".join(["x"] * 10) + "]"]
    lists += [f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, levels + 1)]
    return MINIMAL + "tasks: [check, " + ", ".join(lists) + "]\n"


def test_alias_bomb_exits_2_with_a_short_message(loader_base, tmp_path, capsys):
    # 6 levels: a loader that expands the aliases still answers within a second
    text = alias_bomb(6)
    f = tmp_path / "bomb.yaml"
    f.write_text(text)
    code, out, err = run_cli(["report", "--scenario", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err == "flatnet: " + NOT_A_TREE_MESSAGE.format("tasks[1]", "anchor &a0", 5, 16) + "\n"
    assert len(err) < len(text) + 200


@pytest.mark.parametrize("base", LOADER_BASES)
def test_loading_composes_no_node_tree(base, monkeypatch):
    def no_tree(*args):
        raise AssertionError("the loader composed a node tree")

    loader = walk_loader(base)
    for name in ("get_single_node", "get_node", "compose_document", "compose_node"):
        monkeypatch.setattr(loader, name, no_tree, raising=False)  # libyaml has no compose_*
    monkeypatch.setattr(yaml, "load", no_tree)
    monkeypatch.setattr(scenario_module, "_Loader", loader)
    texts = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN_DIR.glob("*.yaml"))]
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        texts += [item.text for item in workloads.make_items(name, 1)]
    assert len(texts) >= 6
    for text in texts:
        load_scenario(text)


def test_yaml_syntax_errors_give_line_and_column():
    error = error_of(HAND_CORPUS["unclosed"])
    assert (error.line, error.column) == (3, 1)
    assert str(error).startswith("<scenario>: not valid YAML: ") and str(error).endswith(" (line 3:1)")


@pytest.mark.parametrize(
    "tail, where",
    [
        ("seed: 1\x00\n", "line 5:8"),
        ("# é ü\nseed: \x07\n", "line 6:7"),  # past multi-byte characters
        ("paths: {p: [0, 1]}\n# é\nseed: [1, \x1b]\n", "line 7:11"),
    ],
    ids=["nul", "after_non_ascii", "escape"],
)
def test_control_characters_give_line_and_column(loader_base, tail, where):
    # a reader error carries an offset, counted in characters by PyYAML's
    # reader and in UTF-8 bytes by libyaml: both name the same character
    message = str(error_of(MINIMAL + tail))
    assert "not valid YAML: unacceptable character #x" in message and message.endswith(f"({where})")
    assert "\n" not in message


@pytest.mark.parametrize(
    "text, where",
    [
        (MINIMAL.replace("pi/2", '"\udcff"'), "line 4:14"),
        (MINIMAL + "# é\npaths: {\ud800: [0]}\n", "line 6:9"),  # past a multi-byte character
    ],
    ids=["value", "key"],
)
def test_lone_surrogate_gives_line_and_column(loader_base, text, where):
    # a str need not be valid UTF-8: libyaml fails to encode a lone surrogate
    # before it reads any text, and PyYAML's reader rejects it as a character
    error = error_of(text)
    assert str(error).startswith("<scenario>: not valid YAML: unacceptable character #x")
    assert str(error).endswith(f"({where})") and "\n" not in str(error)
    assert f"line {error.line}:{error.column}" == where


@pytest.mark.parametrize(
    "tail, where",
    [
        ("tasks: [check, sector\n", (6, 1)),  # an unclosed flow list
        ("sigma2:\n\t x: 1\n", (6, 1)),  # a tab that cannot start a token
        ("paths: {a: [0, 1]}\n  b: : x\n", (6, 3)),  # a key where none is expected
        ('seed: "\udcff"\n', (5, 8)),  # a lone surrogate
        ("seed: 1\x00\n", (5, 8)),  # a control character
    ],
    ids=["unclosed_flow_list", "tab", "stray_key", "lone_surrogate", "control_character"],
)
def test_not_valid_yaml_is_one_line_with_line_and_column(loader_base, tail, where):
    # PyYAML's own text spans lines and quotes the source, and differs by
    # base; the error keeps its parts on one line, ending at the position
    error = error_of(MINIMAL + tail)
    message = str(error)
    assert (error.line, error.column) == where
    assert message.startswith("<scenario>: not valid YAML: ") and "\n" not in message
    assert message.endswith(f" (line {where[0]}:{where[1]})")
    assert "<unicode string>" not in message


def test_bytes_that_are_not_utf8_exit_2_with_line_and_column(tmp_path, capsys):
    head = MINIMAL.encode()
    # the last one sits past the first 8 KiB, where a buffered text-mode read
    # would count the offset from the start of its chunk
    for body, where in (
        (b'sigma: {g0: "\xff\xfe"}\n', (5, 14)),
        ("paths: {p: [0, 1]}  # é\n".encode() + b"seed: \xc3\n", (6, 7)),
        (b"# pad\n" * 2000 + b'tasks: ["\xe9"]\n', (2005, 10)),
    ):
        f = tmp_path / "latin1.yaml"
        f.write_bytes(head + body)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(str(f))
        assert (exc.value.line, exc.value.column) == where
        code, out, err = run_cli(["report", "--scenario", str(f)], capsys)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"flatnet: {f}: byte 0x") and "is not UTF-8" in err
        assert err.endswith(f"(line {where[0]}:{where[1]})\n")


def test_parse_scenario_reads_line_ends_as_text_mode(tmp_path):
    text = ANNULUS_YAML.read_text(encoding="utf-8")
    for newline in ("\r\n", "\r"):
        f = tmp_path / "annulus.yaml"
        f.write_bytes(text.replace("\n", newline).encode())
        assert parse_scenario(str(f)) == parse_scenario(str(ANNULUS_YAML))
