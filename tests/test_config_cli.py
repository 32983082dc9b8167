"""Config parsing and the command-line surface."""

import csv
import io
import json
import os
import platform
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from envcert import config_from_dict, config_to_system, parse_system_config, two_cycle_oracle
from envcert import cli as cli_mod, envelopes as envelopes_mod, numerics
from envcert.cli import _STATUS_EXIT, _bundled_names, _load_config, build_parser, run_command
from references import outside_leg_masked, scan_roots_refiltered, sign_check_cells_by_five

BUNDLED = [
    "bh_counterexample",
    "bh_pair",
    "exponential_rational",
    "harvest_pair",
    "mixing_ricker_bh",
    "piecewise_pair",
    "quadratic_pair",
    "ricker_pair_transfer",
    "ricker_triple",
]

UNSTABLE_QUADRATIC = """\
models:
  - family: quadratic
    params: {mu: 3.0}
envelopes:
  - kind: mobius
    alpha: 0.75
"""

ABS_RICKER = """\
models:
  - family: custom
    pieces:
      - {from: 0.0, expr: "x*exp(1.5*(1 - x))*(1 + 0.1*Abs(x - 1))"}
"""


def test_config_round_trip():
    cfg = config_from_dict({
        "models": [
            {"family": "ricker", "params": {"r": 1.8}},
            {"family": "beverton-holt", "params": {"mu": 3.0, "c": 1.0}},
        ],
        "envelopes": [{"kind": "mobius", "alpha": 0.5}],
        "grid": {"seed_cells": 512},
    })
    assert [m.family for m in cfg.models] == ["ricker", "beverton-holt"]
    assert cfg.envelopes[0].label == "mobius(alpha=0.5)"
    assert cfg.grid.seed_cells == 512
    assert cfg.grid.abs_tol == 1e-9
    system = config_to_system(cfg)
    assert system.period == 2


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="config: unknown key"):
        config_from_dict({"models": [{"family": "ricker", "params": {"r": 1.0}}],
                          "modles": []})
    with pytest.raises(ValueError, match=r"models\[0\]"):
        config_from_dict({"models": [{"family": "ricker", "parms": {"r": 1.0}}]})
    with pytest.raises(ValueError, match=r"envelopes\[1\]"):
        config_from_dict({
            "models": [{"family": "ricker", "params": {"r": 1.0}}],
            "envelopes": [{"kind": "reciprocal"}, {"kind": "mobius", "beta": 2}],
        })
    with pytest.raises(ValueError, match="grid: unknown key"):
        config_from_dict({"models": [{"family": "ricker", "params": {"r": 1.0}}],
                          "grid": {"cells": 64}})


@pytest.mark.parametrize("field, value, shown", [
    ("seed_cells", 4096.0, "4096.0"),
    ("seed_cells", True, "True"),
    ("max_refinement_depth", 12.0, "12.0"),
    ("max_refinement_depth", False, "False"),
])
def test_grid_counts_must_be_integers(tmp_path, capsys, field, value, shown):
    # a float or bool count once passed validation and crashed np.linspace
    # or range with a TypeError traceback
    base = {"models": [{"family": "ricker", "params": {"r": 1.0}}]}
    with pytest.raises(ValueError, match=f"grid: {field} must be an integer"):
        config_from_dict({**base, "grid": {field: value}})
    cfg = tmp_path / "grid.yaml"
    cfg.write_text(f"models:\n  - {{family: ricker, params: {{r: 1.0}}}}\n"
                   f"grid: {{{field}: {shown.lower()}}}\n")
    for command in ("certify", "cycles"):
        assert run_command([command, str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: grid: {field} must be an integer (got {shown})" in err


@pytest.mark.parametrize("field, text, shown", [
    ("abs_tol", "yes", "True"),
    ("exclusion_radius", "false", "False"),
    ("abs_tol", '"1e-12"', "'1e-12'"),
    ("exclusion_radius", "'0.001'", "'0.001'"),
])
def test_grid_tolerances_must_be_numbers(tmp_path, capsys, field, text, shown):
    # abs_tol: yes once ran as 1.0 (certify said LocalOnly with
    # "abs_tol": true), and a string failed on a comparison that named
    # no key
    cfg = tmp_path / "grid.yaml"
    cfg.write_text(f"models:\n  - {{family: ricker, params: {{r: 1.0}}}}\n"
                   f"grid: {{{field}: {text}}}\n")
    assert run_command(["certify", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: grid: {field} must be a number (got {shown})" in err


def test_exponent_numbers_without_a_dot_are_floats(tmp_path, capsys):
    # YAML 1.1 reads 1e-12 and 2e-1 as strings, and JSON writes 1e-05
    # for 0.00001, so these configs once exited 3
    path = tmp_path / "exp.yaml"
    path.write_text("models:\n  - {family: ricker, params: {r: 2e-1}}\n"
                    "grid: {abs_tol: 1e-12, exclusion_radius: 1E-3}\n")
    cfg = parse_system_config(path)
    assert cfg.raw["models"][0]["params"]["r"] == 0.2
    assert (cfg.grid.abs_tol, cfg.grid.exclusion_radius) == (1e-12, 1e-3)
    data = {"models": [{"family": "ricker", "params": {"r": 1.8}}],
            "grid": {"abs_tol": 0.00001, "seed_cells": 1024}}
    path = tmp_path / "written.json"
    path.write_text(json.dumps(data))
    assert '"abs_tol": 1e-05' in path.read_text()
    assert run_command(["certify", str(path)]) == 0
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert doc["config"] == data
    assert doc["tolerances"]["abs_tol"] == 1e-05


_RICKER = "models:\n  - {family: ricker, params: {r: 1.0}}\n"


_TYPE = " must be a "
_CUSTOM = "models:\n  - family: custom\n    pieces: [[0.0, x]]\n"


@pytest.mark.parametrize("text, where, says", [
    pytest.param("models:\n  - {family: ricker, params: {r: 1.0}, x_max: [3]}\n",
                 "models[0]", _TYPE, id="x_max"),
    pytest.param("models:\n  - {family: ricker, params: 3}\n", "models[0]", _TYPE, id="params"),
    pytest.param("models:\n  - {family: custom, pieces: 5}\n", "models[0]", _TYPE, id="pieces"),
    pytest.param("models:\n  - family: custom\n    pieces:\n      - {from: 0.0, expr: x}\n"
                 "      - {from: [1], expr: x}\n", "models[0]", _TYPE, id="from"),
    pytest.param(_RICKER + "envelopes:\n  - {kind: mobius, alpha: [0.5]}\n",
                 "envelopes[0]", _TYPE, id="alpha"),
    pytest.param(_RICKER + "envelopes:\n  - {kind: piecewise-bh, c: {a: 1}}\n",
                 "envelopes[0]", _TYPE, id="c"),
    pytest.param(_RICKER + "envelopes:\n  - {kind: custom, expr: 2 - x, x_h: [2]}\n",
                 "envelopes[0]", _TYPE, id="x_h"),
    pytest.param(_RICKER + "envelopes:\n  - {kind: mobius, alpha: \"0.5\"}\n",
                 "envelopes[0]", _TYPE, id="alpha-string"),
    pytest.param(_RICKER + "envelopes:\n  - {kind: reciprocal}\n  - {kind: mobius, alpha: true}\n",
                 "envelopes[1]", _TYPE, id="alpha-bool"),
    pytest.param(_RICKER + "envelopes:\n  - {kind: custom, expr: 3}\n",
                 "envelopes[0]", _TYPE, id="expr-envelope"),
    pytest.param("models:\n  - family: custom\n    pieces:\n      - {from: 0.0, expr: 5}\n",
                 "models[0]", _TYPE, id="expr-piece"),
    pytest.param("models:\n  - family: custom\n    pieces:\n      - [0.0, x*exp(1 - x)]\n"
                 "      - [2.0, true]\n", "models[0]", _TYPE, id="expr-second-piece"),
    # a falsy section or key of the wrong type once passed as absent
    *[pytest.param(_RICKER + f"envelopes: {v}\n", "envelopes", " must be a list ",
                   id=f"envelopes-{v}") for v in ("{}", "0", "false")],
    *[pytest.param(_RICKER + f"grid: {v}\n", "grid", " must be a mapping ",
                   id=f"grid-{v}") for v in ("[]", "0", "false")],
    *[pytest.param(f"models:\n  - {{family: ricker, params: {{r: 1.0}}, pieces: {v}}}\n",
                   "models[0]", "ricker takes params, not pieces", id=f"ricker-pieces-{v}")
      for v in ("[]", "0", "false")],
    *[pytest.param(_CUSTOM + f"    params: {v}\n", "models[0]",
                   "custom models take pieces, not params", id=f"custom-params-{v}")
      for v in ("{}", "0")],
])
def test_config_numbers_must_be_numbers(tmp_path, capsys, text, where, says):
    # each of these once crashed with a TypeError traceback (exit 1, the
    # code of a definite negative), coerced a string or bool to a float,
    # or read a falsy value of the wrong type as a missing key; an expr
    # that was a number was read as the constant it spells, so the
    # envelope "3" ran the whole Moebius fit and exited 0
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    assert run_command(["certify", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {where}: " in err
    assert says in err


def test_empty_and_null_sections_are_absent(tmp_path, capsys):
    # only a missing key or null is absent; an empty list of envelopes
    # and an empty grid mapping are valid too
    for text in ("envelopes: []\ngrid: {}\n", "envelopes: null\ngrid: null\n",
                 "envelopes:\ngrid:\n"):
        cfg = config_from_dict(yaml.safe_load(_RICKER + text))
        assert (cfg.envelopes, cfg.grid) == ((), numerics.GridConfig())
    for text in (_RICKER.replace("}}", "}, pieces: null}"),
                 _CUSTOM.replace("]]\n", "]]\n    params: null\n")):
        cfg = config_from_dict(yaml.safe_load(text))
        assert len(cfg.models) == 1


def test_grid_cells_are_bounded(tmp_path, capsys):
    # rejected when the grid is built, before any check samples it
    assert run_command(["certify", "bh_pair", "--grid-cells", str(2**20 + 1)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"seed_cells must be at most {2**20} (got {2**20 + 1})" in err
    cfg = tmp_path / "big.yaml"
    cfg.write_text(_RICKER + f"grid: {{seed_cells: {2**40}}}\n")
    assert run_command(["cycles", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: grid: seed_cells must be at most {2**20} (got {2**40})" in err


_RICKER_1_OVER_X = ("models:\n  - {family: ricker, params: {r: 1.8}}\n"
                    "envelopes:\n  - {kind: custom, expr: 1/x, x_h: %s}\n")


def test_custom_envelope_x_h_must_be_its_first_root(tmp_path, capsys):
    # 1/x does not envelop Ricker r = 1.8 past 1; an x_h of 0.5, below
    # 1, once made the outside leg vacuous and certified the system
    cfg = tmp_path / "ricker.yaml"
    cfg.write_text(_RICKER_1_OVER_X % "0.5")
    assert run_command(["certify", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: envelopes[0]: x_h = 0.5 is not the first root of h past 1" in err
    cfg.write_text(_RICKER_1_OVER_X % ".inf")
    _, check = _report(capsys, "envelope-check", str(cfg))
    custom = check["candidates"][0]
    assert (custom["envelope_label"], custom["failure"]) == ("custom(1/x)", "violation")
    assert custom["verdicts"][0]["outside"]["witness"] == pytest.approx(1.2309, abs=1e-3)


def test_config_requires_models():
    with pytest.raises(ValueError, match="root must be a mapping"):
        config_from_dict([1, 2])
    with pytest.raises(ValueError, match="nonempty 'models'"):
        config_from_dict({})
    with pytest.raises(ValueError, match="nonempty 'models'"):
        config_from_dict({"models": []})


def test_config_envelope_kinds():
    base = {"models": [{"family": "ricker", "params": {"r": 1.0}}]}
    cfg = config_from_dict({**base, "envelopes": [
        {"kind": "mobius", "alpha": 0.75},
        {"kind": "reciprocal"},
        {"kind": "piecewise-bh", "c": 3.0},
        {"kind": "custom", "expr": "2 - x"},
        {"kind": "custom", "expr": "2 - x", "x_h": 2},
        {"kind": "custom", "expr": "1/x", "x_h": float("inf")},
    ]})
    assert [(h.label, h.param) for h in cfg.envelopes] == [
        ("mobius(alpha=0.75)", 0.75), ("reciprocal(1/x)", 0.0), ("piecewise-bh(c=3)", 0.5),
        ("custom(2 - x)", None), ("custom(2 - x)", None), ("custom(1/x)", None),
    ]
    assert cfg.envelopes[-2].x_h == 2.0
    assert cfg.envelopes[-1].x_h == float("inf")
    with pytest.raises(ValueError, match="unknown envelope kind"):
        config_from_dict({**base, "envelopes": [{"kind": "affine"}]})
    with pytest.raises(ValueError, match="needs 'alpha'"):
        config_from_dict({**base, "envelopes": [{"kind": "mobius"}]})


def test_yaml_and_json_files_parse_alike(tmp_path):
    doc = {"models": [{"family": "ricker", "params": {"r": 1.3}}]}
    ypath = tmp_path / "sys.yaml"
    ypath.write_text("models:\n  - family: ricker\n    params: {r: 1.3}\n")
    jpath = tmp_path / "sys.json"
    jpath.write_text(json.dumps(doc))
    a = parse_system_config(ypath)
    b = parse_system_config(jpath)
    assert a.models[0].params == b.models[0].params == {"r": 1.3}


def test_malformed_yaml_names_its_source(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("models: [\n")
    assert run_command(["certify", str(bad)]) == 3
    assert f"error: config parse error in {bad}: " in capsys.readouterr().err
    # a bundled name goes through the same parser, and says it is bundled
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "broken.yaml").write_text("models: [\n")
    monkeypatch.setattr(cli_mod.resources, "files", lambda package: tmp_path)
    monkeypatch.chdir(tmp_path / "configs")
    assert run_command(["certify", "broken"]) == 3
    assert "error: config parse error in bundled broken: " in capsys.readouterr().err


def test_bundled_configs_all_build():
    assert _bundled_names() == BUNDLED
    for name in BUNDLED:
        cfg = _load_config(name)
        system = config_to_system(cfg)
        assert system.period == len(cfg.models)
    # the .yaml suffix is accepted too
    assert _load_config("ricker_triple.yaml").models[0].family == "ricker"


def test_certify_command_stdout(capsys, monkeypatch):
    code = run_command(["certify", "ricker_triple"])
    out, err = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"]["name"] == "envcert"
    assert doc["command"] == "certify"
    assert doc["result"]["status"] == "CertifiedGlobal"
    assert doc["result"]["envelope"] == "mobius(alpha=0.5)"
    assert "status: CertifiedGlobal" in err
    # wall time, then this command's system time and minor page faults
    # where getrusage exists; only stderr carries them
    usage = r" \(system \d+\.\d\ds, \d+ minor faults\)" if cli_mod.resource else ""
    assert re.search(rf"^certify: done in \d+\.\d\ds{usage}$", err, re.M)
    monkeypatch.setattr(cli_mod, "resource", None)
    assert run_command(["certify", "ricker_triple"]) == 0
    again, err = capsys.readouterr()
    assert again == out
    assert re.search(r"^certify: done in \d+\.\d\ds$", err, re.M)


def test_certify_command_negative_exit(tmp_path):
    out = tmp_path / "counter.json"
    code = run_command(["certify", "bh_counterexample", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["result"]["status"] == "NotPopulationModel"


def test_axioms_exit_codes(tmp_path, capsys):
    assert run_command(["axioms", "ricker_triple", "--out", str(tmp_path / "a.json")]) == 0
    code = run_command(["axioms", "piecewise_pair"])
    out, _ = capsys.readouterr()
    assert code == 1
    doc = json.loads(out)
    kinds = [v["kind"] for v in doc["result"]["composition"]["violations"]]
    assert "violation" in kinds


def test_schwarzian_command_rejects_non_smooth(capsys):
    code = run_command(["schwarzian", "piecewise_pair"])
    _, err = capsys.readouterr()
    assert code == 3
    assert "error:" in err and "not C^3" in err


def test_certify_custom_abs_map(tmp_path, capsys):
    cfg = tmp_path / "abs.yaml"
    cfg.write_text(ABS_RICKER)
    code = run_command(["certify", str(cfg)])
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert code == _STATUS_EXIT[doc["result"]["status"]]


def test_schwarzian_reports_uncompilable_derivative(tmp_path, capsys):
    cfg = tmp_path / "abs.yaml"
    cfg.write_text(ABS_RICKER)
    code = run_command(["schwarzian", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "error: cannot compile derivative of order 2" in err
    assert "Abs(x - 1)" in err


def test_conditions_exit_codes(tmp_path):
    assert run_command(["conditions", "ricker_triple",
                        "--out", str(tmp_path / "c.json")]) == 0
    bad = tmp_path / "quad3.yaml"
    bad.write_text(UNSTABLE_QUADRATIC)
    assert run_command(["conditions", str(bad),
                        "--out", str(tmp_path / "q.json")]) == 1


def test_envelope_check_definite_failure(tmp_path):
    bad = tmp_path / "quad3.yaml"
    bad.write_text(UNSTABLE_QUADRATIC)
    out = tmp_path / "env.json"
    assert run_command(["envelope-check", str(bad), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    entry = doc["result"]["candidates"][0]
    assert entry["envelope_label"] == "mobius(alpha=0.75)"
    assert entry["structural_passed"] is True
    assert entry["passed"] is False
    assert run_command(["envelope-check", "ricker_triple",
                        "--out", str(tmp_path / "ok.json")]) == 0


def test_mobius_fit_counterexample_is_infeasible(tmp_path):
    out = tmp_path / "fit.json"
    code = run_command(["mobius-fit", "bh_counterexample",
                        "--alpha-cells", "150", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["result"]["feasible"] == []
    assert doc["result"]["alpha_step"] == pytest.approx(1.0 / 150)


def test_cycles_command_lists_counterexample_equilibria(tmp_path):
    out = tmp_path / "cyc.json"
    assert run_command(["cycles", "bh_counterexample", "--r-max", "2",
                        "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cycles = doc["result"]["cycles"]
    assert len(cycles) == 3
    points = [c["points"] for c in cycles]
    assert points[0] == [1.0]
    assert points[1][0] == pytest.approx(1.4365330719819296, abs=1e-8)
    assert points[2][0] == pytest.approx(1.6150111940487619, abs=1e-8)
    for c in cycles:
        assert len(c["complete"]) == 2


def test_orbit_command(capsys):
    code = run_command(["orbit", "ricker_triple", "--x0", "0.1", "--periods", "60"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["distance_to_one"] < 1e-8

    # a start outside the working interval is an input error, not a
    # definite negative, and leaves stdout empty
    for name, x0 in [("quadratic_pair", "1.4"), ("ricker_triple", "nan"),
                     ("ricker_triple", "inf"), ("ricker_triple", "-1")]:
        code = run_command(["orbit", name, f"--x0={x0}"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert f"--x0 {float(x0):g} outside working interval [0, " in err


def test_orbit_escape_after_start_is_reported(capsys, monkeypatch):
    # a start inside the working interval whose orbit later fails a
    # domain check keeps its report and exit code 1
    def escaped(system, x0, num_periods):
        raise ValueError("orbit escaped at step 3: x outside domain")

    monkeypatch.setattr("envcert.cli.iterate_orbit", escaped)
    code = run_command(["orbit", "quadratic_pair", "--x0", "0.5"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["result"]["error"].startswith("orbit escaped at step 3")


def test_plot_data_writes_csv_and_svg(tmp_path):
    out = tmp_path / "curves.csv"
    assert run_command(["plot-data", "ricker_pair_transfer", "--samples", "64",
                        "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "x"
    assert "composition" in rows[0] and "diagonal" in rows[0]
    assert len(rows) == 65
    svg = (tmp_path / "curves.svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def test_csv_report_format(capsys):
    code = run_command(["conditions", "ricker_triple", "--format", "csv"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    keys = [r[0] for r in rows]
    assert "command" in keys
    assert any(k.startswith("result.rows[0]") for k in keys)


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_command(["certify", "ricker_triple", "--out", str(a)]) == 0
    assert run_command(["certify", "ricker_triple", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_dir_env_prefixes_bare_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ENVCERT_OUT_DIR", str(tmp_path / "reports"))
    assert run_command(["conditions", "ricker_triple", "--out", "r.json"]) == 0
    assert (tmp_path / "reports" / "r.json").exists()
    # an explicit directory component escapes the prefix
    assert run_command(["conditions", "ricker_triple", "--out", "./r2.json"]) == 0
    assert (tmp_path / "r2.json").exists()
    assert not (tmp_path / "reports" / "r2.json").exists()
    assert run_command(["conditions", "ricker_triple", "--out", "sub/r3.json"]) == 0
    assert (tmp_path / "sub" / "r3.json").exists()


def test_usage_and_input_errors_exit_3(capsys):
    assert run_command([]) == 3
    assert run_command(["certify"]) == 3
    assert run_command(["certify", "ricker_triple", "--format", "xml"]) == 3
    capsys.readouterr()
    assert run_command(["certify", "no_such_bundle"]) == 3
    _, err = capsys.readouterr()
    assert "bundled configs:" in err
    assert "ricker_triple" in err
    assert run_command(["--help"]) == 0


def test_grid_overrides_reach_the_report(capsys):
    code = run_command(["axioms", "ricker_triple",
                        "--grid-cells", "512", "--tol", "1e-06"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["tolerances"]["seed_cells"] == 512
    assert doc["tolerances"]["abs_tol"] == 1e-06


def test_zero_overrides_are_applied(capsys):
    code = run_command(["axioms", "ricker_triple", "--grid-cells", "512", "--tol", "0"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["tolerances"]["abs_tol"] == 0.0
    assert run_command(["certify", "bh_pair", "--grid-cells", "0"]) == 3
    _, err = capsys.readouterr()
    assert "seed_cells must be at least 1" in err


@pytest.mark.parametrize("tol, yaml_tol", [("nan", ".nan"), ("inf", ".inf"), ("-inf", "-.inf")])
def test_non_finite_tolerance_exits_3(tol, yaml_tol, tmp_path, capsys):
    assert run_command(["certify", "bh_pair", f"--tol={tol}"]) == 3
    _, err = capsys.readouterr()
    assert "tolerances must be finite" in err
    path = tmp_path / "grid.yaml"
    path.write_text("models:\n  - family: ricker\n    params: {r: 1.8}\n"
                    f"grid:\n  abs_tol: {yaml_tol}\n")
    assert run_command(["certify", str(path)]) == 3
    _, err = capsys.readouterr()
    assert "grid: tolerances must be finite" in err


@pytest.mark.parametrize("cells", ["0", "-5"])
def test_mobius_fit_rejects_empty_alpha_grid(cells, capsys):
    assert run_command(["mobius-fit", "bh_pair", "--alpha-cells", cells]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "alpha_cells must be at least 1" in err


# every integer flag is checked while parsing, before any config is read
_COUNT_FLAGS = [("mobius-fit", "--alpha-cells", 1, 100_000), ("cycles", "--r-max", 1, 16),
                ("orbit", "--periods", 1, 100_000), ("plot-data", "--samples", 2, 100_000)]


@pytest.mark.parametrize("cmd, flag, lo, hi", _COUNT_FLAGS)
def test_count_flags_take_their_bounds(cmd, flag, lo, hi):
    dest = flag[2:].replace("-", "_")
    for n in (lo, hi):
        assert getattr(build_parser().parse_args([cmd, "ricker_triple", flag, str(n)]), dest) == n


@pytest.mark.parametrize("cmd, flag, lo, hi", _COUNT_FLAGS)
def test_count_flags_out_of_range_exit_3(cmd, flag, lo, hi, capsys):
    for n in (lo - 1, hi + 1, -3):
        assert run_command([cmd, "ricker_triple", flag, str(n)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: argument {flag}: ")
        assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__import__("envcert").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "envcert.cli", "certify", "ricker_triple"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["status"] == "CertifiedGlobal"


_FAULTS_PER_CHECK = """\
import resource
import envcert.cli
from envcert import envelops, make_mobius, make_model

f = make_model("exponential-rational", {"a": 0.32, "b": 2.48})
envelops(make_mobius(0.5), f)
kept = []
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(300):
    envelops(make_mobius(0.5 + i / 1000), f)
    kept.append(f"{i:>7500}")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 300)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_cli_keeps_the_heap_top_between_sign_checks():
    # a process whose heap grows between sign checks (here by a kept
    # string per check, as a scan keeping its reports does) once gave the
    # checks' freed temporaries back to the kernel each time: about 100
    # minor faults per check without the thresholds the CLI sets, 1.4 with
    src = str(Path(__import__("envcert").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_CHECK],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10


def _raises(exc):
    def cdll(name):
        raise exc("no handle for the running process")
    return cdll


@pytest.mark.parametrize("cdll", [lambda name: object(), _raises(OSError), _raises(TypeError)],
                         ids=["no-mallopt", "oserror", "typeerror"])
def test_allocator_setup_is_a_no_op_without_mallopt(monkeypatch, cdll):
    # a C library without mallopt (macOS), or a platform that cannot open
    # the running process as a library: the CLI runs with the allocator
    # as it is
    monkeypatch.setattr(cli_mod.ctypes, "CDLL", cdll)
    assert cli_mod._pin_malloc_thresholds() is None


QUADRATIC_TANGENCY = """\
models:
  - family: quadratic
    params: {mu: 2.0}
"""


def _report(capsys, *argv):
    code = run_command(list(argv))
    out, _ = capsys.readouterr()
    return code, json.loads(out)["result"]


def _alpha(kind, param):
    """The Moebius parameter of a certified envelope, None for a custom one."""
    return param if kind == "mobius" else None


# Period-1 and period-2 systems where the axiom gate once had copies
# that disagreed, keyed by a name for the test id.
GATE_SYSTEMS = {
    "quadratic_tangency": QUADRATIC_TANGENCY,
    # not C^1: certify stopped at the gate while axioms exited 0
    "lone_piecewise": """\
models:
  - family: piecewise-linear-recip
    params: {slope: 3.0, brk: 0.5}
""",
    # Phi'(1) = 1 and Phi(x) - x ~ -2 (x - 1)^3: the composition needs a
    # wider radius, and the scan brackets roundoff within 4e-6 of 1
    "ricker_bh_tangency": """\
models:
  - family: ricker
    params: {r: 2.0}
  - family: beverton-holt
    params: {mu: 3.0, c: 3.0}
""",
    # f(x) - x ~ x (1 - x)^3: the map itself needs a wider radius
    "cubic_tangency": """\
models:
  - family: custom
    x_max: 3.0
    pieces:
      - {from: 0.0, expr: "x*exp((1 - x)**3)"}
""",
}


def _config(name, tmp_path):
    if name not in GATE_SYSTEMS:
        return name
    path = tmp_path / f"{name}.yaml"
    path.write_text(GATE_SYSTEMS[name])
    return str(path)


@pytest.mark.parametrize("name", BUNDLED + list(GATE_SYSTEMS))
def test_subcommands_agree(name, tmp_path, capsys):
    # certify, axioms, envelope-check and mobius-fit decide the same axioms
    # and envelopes on the same tangency ladder
    name = _config(name, tmp_path)
    code, cert = _report(capsys, "certify", name)
    axioms_code, axioms = _report(capsys, "axioms", name)
    # axioms exits 1, 0 or 2 as certify's gate is definite, clear or undecided
    clear = all(r["passed"] for r in cert["map_axioms"]) and cert["composition_passed"]
    stopped = cert["status"] == "NotPopulationModel"
    assert axioms_code == (1 if stopped else 0 if clear else 2)
    if len(axioms["maps"]) == 1:
        # one function checked twice, as the map and as the period map
        (m,), phi = axioms["maps"], axioms["composition"]
        signs = lambda vs: [(v["axiom"], v["kind"]) for v in vs
                            if v["axiom"] not in ("c1", "below_diagonal_tail")]
        assert (m["delta_used"], signs(m["violations"])) == (
            phi["delta_used"], signs(phi["violations"]))
    if cert["status"] != "CertifiedGlobal":
        return
    assert axioms_code == 0
    chosen = cert["candidates"][-1]
    assert chosen["passed"] and chosen["envelope_label"] == cert["envelope"]
    code, check = _report(capsys, "envelope-check", name)
    assert code == 0
    assert chosen in check["candidates"]
    alpha = _alpha(cert["envelope_kind"], cert["envelope_param"])
    if alpha is not None:
        code, fit = _report(capsys, "mobius-fit", name)
        assert code == 0
        assert any(lo <= alpha <= hi for lo, hi in fit["feasible"]), (alpha, fit)


RICKER_TWO_CYCLE = "models:\n  - {family: ricker, params: {r: 2.3}}\n"


@pytest.mark.parametrize("name", BUNDLED + ["ricker_two_cycle"])
def test_subcommands_agree_on_the_period_map(name, tmp_path, capsys):
    # the cycles report's fixed points and the oracle's fixed points and
    # two-cycles come from one search, so they are equal floats
    if name == "ricker_two_cycle":
        name = tmp_path / f"{name}.yaml"
        name.write_text(RICKER_TWO_CYCLE)
        name = str(name)
    code, report = _report(capsys, "cycles", name, "--r-max", "2")
    assert code == 0
    phase0 = [c["points"] for c in report["cycles"] if c["start_phase"] == 0]
    ones = [pts[0] for pts in phase0 if len(pts) == 1]
    assert report["fixed_points"] == [0.0] + ones
    cfg = _load_config(name)
    oracle = two_cycle_oracle(config_to_system(cfg), cfg.grid)
    assert list(oracle.extra_fixed_points) == [x for x in ones if x != 1.0]
    assert [list(pair) for pair in oracle.two_cycles] == sorted(
        sorted(pts) for pts in phase0 if len(pts) == 2
    )


@pytest.mark.parametrize("name, status, axioms_code", [
    ("lone_piecewise", "NotPopulationModel", 1),
    ("ricker_bh_tangency", "CertifiedGlobal", 0),
    ("cubic_tangency", "CertifiedGlobal", 0),
])
def test_axiom_gate_decides_once(name, status, axioms_code, tmp_path, capsys):
    name = _config(name, tmp_path)
    code, cert = _report(capsys, "certify", name)
    assert (code, cert["status"]) == (_STATUS_EXIT[status], status)
    code, _ = _report(capsys, "axioms", name)
    assert code == axioms_code


def test_cycles_report_roots_near_1_as_1(tmp_path, capsys):
    name = _config("ricker_bh_tangency", tmp_path)
    code, cycles = _report(capsys, "cycles", name)
    assert code == 0
    assert cycles["fixed_points"] == [0.0, 1.0]
    assert [c["points"] for c in cycles["cycles"]] == [[1.0]]
    # extra fixed points well outside the exclusion radius stay
    code, cycles = _report(capsys, "cycles", "bh_counterexample")
    assert cycles["fixed_points"][1:] == pytest.approx(
        [1.0, 1.4365330719819296, 1.6150111940487619], abs=1e-9
    )


def test_mobius_fit_exits_2_on_an_unresolved_empty_fit(monkeypatch, capsys):
    # every probe comes back undecided at x = 0.5, which no wider
    # exclusion radius can resolve
    real = envelopes_mod._inside_leg

    def undecided(h, model, cfg):
        return replace(real(h, model, cfg), status="unresolved", unresolved=((0.49, 0.51),))

    monkeypatch.setattr(envelopes_mod, "_inside_leg", undecided)
    code, fit = _report(capsys, "mobius-fit", "ricker_triple", "--alpha-cells", "20")
    assert code == 2
    assert fit["feasible"] == []
    assert (fit["failure"], fit["delta_used"]) == ("unresolved", 1e-4)


# the commands whose reports every sign check or root scan feeds;
# mobius-fit on one config whose fit finds a run of alphas and on one
# whose fit is empty
_REFERENCE_RUNS = [[cmd, name] for cmd in ("certify", "axioms", "envelope-check")
                   for name in BUNDLED] + [["mobius-fit", "ricker_triple"],
                                           ["mobius-fit", "bh_counterexample"]] + [
                  ["cycles", name, "--r-max", "3"] for name in BUNDLED]


def _reports(runs, capsys):
    out = []
    for argv in runs:
        code = run_command(argv)
        out.append((argv, code, capsys.readouterr().out))
    return out


def _importers(name, fn):
    """The envcert modules other than numerics that import fn by name."""
    return [mod_name for mod_name, mod in sys.modules.items()
            if mod_name.split(".")[0] == "envcert" and mod is not numerics
            and getattr(mod, name, None) is fn]


def test_reports_match_the_reference_sign_checks(monkeypatch, capsys):
    # every report byte and exit code must come out the same when each
    # sign check, the envelope's outside leg and each root scan run as
    # their references
    fast = _reports(_REFERENCE_RUNS, capsys)
    feasible = [json.loads(report)["result"]["feasible"] for argv, _, report in fast
                if argv[0] == "mobius-fit"]
    assert feasible[0] and not feasible[1]
    checks = _importers("adaptive_sign_check", numerics.adaptive_sign_check)
    assert {"envcert", "envcert.certify", "envcert.envelopes", "envcert.models"} <= set(checks)
    for name in checks:
        monkeypatch.setattr(sys.modules[name], "adaptive_sign_check", sign_check_cells_by_five)
    scans = _importers("scan_roots", numerics.scan_roots)
    assert {"envcert", "envcert.certify", "envcert.envelopes", "envcert.periodic"} <= set(scans)
    for name in scans:
        monkeypatch.setattr(sys.modules[name], "scan_roots", scan_roots_refiltered)
    monkeypatch.setattr(envelopes_mod, "_outside_leg", outside_leg_masked)
    assert _reports(_REFERENCE_RUNS, capsys) == fast
