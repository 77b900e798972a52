import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holelab
from holelab import continuation as cont
from holelab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_STRICT_INCONCLUSIVE,
    main,
)


def base_config(n=4):
    return {
        "dimension": n,
        "geometry": {"kind": "spheres", "r_i": 1.0, "r_o": 1.0},
        "data": {"zonal": {"inner": {"0": ["1"]}, "outer": {}}},
        "grid": {"eps_min": 0.05, "eps_max": 0.3, "count": 11, "signs": "both"},
        "targets": {"frame": "macroscopic", "radii": [0.75]},
        "fit": {"degree": 8, "basis": "auto"},
    }


def run_cli(tmp_path, command, config, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out-dir", str(out), *extra])
    report = None
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return code, report, out


def test_continuation_even_dimension(tmp_path):
    code, report, out = run_cli(tmp_path, "continuation", base_config(4))
    assert code == EXIT_OK
    assert report["verdict"] == "CONTINUES"
    assert (out / "sweep.csv").exists()
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "eps,frame,target_index,value,cond_estimate"


def test_continuation_odd_dimension_breaks_is_a_finding(tmp_path):
    code, report, _ = run_cli(tmp_path, "continuation", base_config(3))
    assert code == EXIT_OK
    assert report["verdict"] == "BREAKS"


def test_continuation_strict_inconclusive_exit(tmp_path):
    cfg = base_config(3)
    cfg["thresholds"] = {"rtol_break": 10.0}
    code, report, _ = run_cli(tmp_path, "continuation", cfg)
    assert code == EXIT_OK and report["verdict"] == "INCONCLUSIVE"
    code, report, _ = run_cli(tmp_path, "continuation", cfg, "--strict")
    assert code == EXIT_STRICT_INCONCLUSIVE


def test_grid_with_zero_rejected(tmp_path):
    cfg = base_config(4)
    cfg["grid"]["eps_min"] = 0.0
    code, report, _ = run_cli(tmp_path, "continuation", cfg)
    assert code == EXIT_CONFIG and report is None


def test_inadmissible_grid_rejected(tmp_path):
    cfg = base_config(4)
    cfg["grid"]["eps_max"] = 1.5
    code, _, _ = run_cli(tmp_path, "continuation", cfg)
    assert code == EXIT_CONFIG


def bem_sweep_config():
    return {
        "dimension": 3,
        "run_id": "bem-reference-run",
        "geometry": {"kind": "meshes",
                     "inner": {"builtin": "icosphere", "radius": 1.0},
                     "outer": {"builtin": "icosphere", "radius": 1.0},
                     "subdivisions": 2},
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["0", "1"]}],
                               "outer": [{"exponents": [0, 0, 1], "coeffs": ["1"]}]}},
        "grid": {"eps_min": 0.1, "eps_max": 0.3, "count": 3, "signs": "both"},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
    }


def run_cli_process(tmp_path, command, config):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    src = str(Path(holelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-m", "holelab.cli", command, "--config", str(cfg_path),
         "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == EXIT_OK, done.stderr
    return out


def test_determinism(tmp_path):
    cfg = base_config(4)
    cfg["run_id"] = "reference-run"
    code1, _, out1 = run_cli(tmp_path / "a", "continuation", cfg)
    code2, _, out2 = run_cli(tmp_path / "b", "continuation", cfg)
    assert code1 == code2 == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    # BEM: the dense-LU condition estimate is written with fixed digits, so
    # separate processes give identical files
    out1 = run_cli_process(tmp_path / "bem_a", "sweep", bem_sweep_config())
    out2 = run_cli_process(tmp_path / "bem_b", "sweep", bem_sweep_config())
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    for cond in report["positive"]["cond_estimates"]:
        assert cond == float(f"{cond:.6g}")


def test_solve_command(tmp_path):
    cfg = base_config(3)
    cfg["eps"] = 0.25
    code, report, out = run_cli(tmp_path, "solve", cfg)
    assert code == EXIT_OK
    assert report["values"][0] == pytest.approx(1 / 9, rel=1e-10)
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2  # header + one value


def test_solve_requires_nonzero_eps(tmp_path):
    cfg = base_config(3)
    cfg["eps"] = 0.0
    code, _, _ = run_cli(tmp_path, "solve", cfg)
    assert code == EXIT_CONFIG


def test_sweep_command_writes_both_signs(tmp_path):
    cfg = base_config(4)
    cfg["grid"]["count"] = 5
    code, report, out = run_cli(tmp_path, "sweep", cfg)
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    eps = [float(r.split(",")[0]) for r in rows]
    assert len(eps) == 10 and eps == sorted(eps)
    assert "positive" in report and "negative" in report


def test_fit_command_reports_coefficients(tmp_path):
    cfg = base_config(4)
    code, report, _ = run_cli(tmp_path, "fit", cfg)
    assert code == EXIT_OK
    assert len(report["coefficients"][0]) == 9
    assert report["basis"] == ["even"]
    assert report["residuals"][0] < 1e-7


def test_symmetry_command(tmp_path):
    cfg = base_config(4)
    cfg["zeta"] = 1
    cfg["grid"] = {"eps_min": 0.01, "eps_max": 0.04, "count": 11, "signs": "positive"}
    code, report, _ = run_cli(tmp_path, "symmetry", cfg)
    assert code == EXIT_OK
    assert report["hypothesis_checked"] is True
    assert report["max_forbidden_relative"] <= 1e-8


def test_convergence_rejects_spectral_geometry(tmp_path):
    cfg = base_config(3)
    cfg["eps"] = 0.25
    code, _, _ = run_cli(tmp_path, "convergence", cfg)
    assert code == EXIT_CONFIG


def test_convergence_icospheres_spectral_oracle(tmp_path):
    cfg = {
        "dimension": 3,
        "geometry": {
            "kind": "meshes",
            "inner": {"builtin": "icosphere", "radius": 1.0},
            "outer": {"builtin": "icosphere", "radius": 1.0},
            "subdivisions": 1,
        },
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["0", "1"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
        "eps": 0.25,
        "subdivision_levels": [1, 2],
    }
    code, report, _ = run_cli(tmp_path, "convergence", cfg)
    assert code == EXIT_OK
    assert report["oracle"] == "spectral"
    assert report["observed_order"] >= 1.0
    assert report["undefined"] == []


def test_convergence_oracle_sums_split_constant_terms(tmp_path):
    cfg = {
        "dimension": 3,
        "geometry": {
            "kind": "meshes",
            "inner": {"builtin": "icosphere", "radius": 1.0},
            "outer": {"builtin": "icosphere", "radius": 1.0},
            "subdivisions": 1,
        },
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["0", "1"]}],
                               "outer": [{"exponents": [0, 0, 0], "coeffs": ["0.25"]}]}},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
        "eps": 0.25,
        "subdivision_levels": [1, 2],
    }
    code, single, _ = run_cli(tmp_path / "single", "convergence", cfg)
    assert code == EXIT_OK
    split = json.loads(json.dumps(cfg))
    split["data"]["cartesian"] = {
        "inner": [{"exponents": [0, 0, 0], "coeffs": ["0", "0.5"]},
                  {"exponents": [0, 0, 0], "coeffs": ["0", "0.5"]}],
        "outer": [{"exponents": [0, 0, 0], "coeffs": ["0.125"]},
                  {"exponents": [0, 0, 0], "coeffs": ["0.125"]}],
    }
    code, report, _ = run_cli(tmp_path / "split", "convergence", split)
    assert code == EXIT_OK
    assert report["oracle"] == "spectral"
    assert report["oracle_values"] == pytest.approx(single["oracle_values"], rel=1e-12)
    assert report["relative_errors"] == pytest.approx(single["relative_errors"], rel=1e-9)


def test_convergence_richardson_for_ellipsoid(tmp_path):
    cfg = {
        "dimension": 3,
        "geometry": {
            "kind": "meshes",
            "inner": {"builtin": "ellipsoid", "semi_axes": [1.0, 0.7, 0.7]},
            "outer": {"builtin": "icosphere", "radius": 1.0},
            "subdivisions": 1,
        },
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["0", "1"]},
                                          {"exponents": [1, 0, 0], "coeffs": ["0.2"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.5, 0.6]},
        "eps": 0.25,
        "subdivision_levels": [1, 2, 3],
    }
    code, report, _ = run_cli(tmp_path, "convergence", cfg)
    assert code == EXIT_OK
    assert report["oracle"] == "richardson"
    assert report["observed_order"] >= 1.0
    assert report["order_uncertainty"] >= 0.0
    assert report["undefined"] == []


def test_mesh_geometry_requires_dimension_three(tmp_path):
    cfg = {
        "dimension": 4,
        "geometry": {"kind": "meshes",
                     "inner": {"builtin": "icosphere"}, "outer": {"builtin": "icosphere"}},
        "data": {"cartesian": {"inner": [], "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
        "eps": 0.25,
    }
    code, _, _ = run_cli(tmp_path, "solve", cfg)
    assert code == EXIT_CONFIG


def test_command_mismatch_rejected(tmp_path):
    cfg = base_config(4)
    cfg["command"] = "sweep"
    code, _, _ = run_cli(tmp_path, "continuation", cfg)
    assert code == EXIT_CONFIG


def test_off_file_geometry(tmp_path):
    from holelab.mesh import icosphere, save_off
    mesh_path = tmp_path / "inner.off"
    save_off(icosphere(1.0, 1), mesh_path)
    cfg = {
        "dimension": 3,
        "geometry": {"kind": "meshes",
                     "inner": {"path": str(mesh_path)},
                     "outer": {"builtin": "icosphere", "radius": 1.0},
                     "subdivisions": 1},
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["0", "1"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
        "eps": 0.25,
    }
    code, report, _ = run_cli(tmp_path, "solve", cfg)
    assert code == EXIT_OK
    assert report["provenance"]["geometry"]["inner_mesh"]["triangles"] == 80


def test_solver_failure_exit_code(tmp_path):
    # admissible per config validation, but the mesh clearance check refuses
    cfg = {
        "dimension": 3,
        "geometry": {"kind": "meshes",
                     "inner": {"builtin": "icosphere"}, "outer": {"builtin": "icosphere"},
                     "subdivisions": 1},
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["1"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.5]},
        "eps": 0.999,
    }
    code, _, _ = run_cli(tmp_path, "solve", cfg)
    assert code == EXIT_SOLVER


@pytest.mark.parametrize("command, fit", [
    ("continuation", {"degree": 10, "basis": "auto"}),
    ("fit", {"degree": 10, "basis": "full"}),
    ("symmetry", {"degree": 10}),
    ("continuation", {"degree": 4, "basis": "cubic"}),
    ("fit", {"degree": "4"}),
    ("fit", {"degree": -1}),
    ("fit", ["degree", 4]),
])
def test_fit_parameters_checked_before_any_solve(tmp_path, monkeypatch, capsys, command, fit):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before the fit parameters were checked")

    monkeypatch.setattr(cont, "sweep", no_sweep)
    cfg = base_config(4)
    cfg["zeta"] = 1
    cfg["fit"] = fit
    code, report, _ = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and report is None
    assert "fit" in err and "Traceback" not in err


def test_config_errors_exit_2_naming_the_field(tmp_path, capsys):
    mesh_cfg = {
        "dimension": 3,
        "geometry": {"kind": "meshes",
                     "inner": {"builtin": "icosphere"}, "outer": {"builtin": "icosphere"},
                     "subdivisions": 1},
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["1"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
        "eps": 0.25,
    }
    missing_off = json.loads(json.dumps(mesh_cfg))
    missing_off["geometry"]["inner"] = {"path": str(tmp_path / "missing.off")}
    bad_term = json.loads(json.dumps(mesh_cfg))
    bad_term["data"]["cartesian"]["outer"] = ["z"]
    bool_dimension = base_config(4)
    bool_dimension["dimension"] = True
    bool_dimension["eps"] = 0.25
    text_subdivisions = json.loads(json.dumps(mesh_cfg))
    text_subdivisions["geometry"]["subdivisions"] = "x"
    nan_coeff = json.loads(json.dumps(mesh_cfg))
    nan_coeff["data"]["cartesian"]["inner"][0]["coeffs"] = ["nan"]
    text_threshold = base_config(4)
    text_threshold["thresholds"] = {"atol": "small"}

    def edited(cfg, path, value):
        out = json.loads(json.dumps(cfg))
        *keys, last = path
        node = out
        for key in keys:
            node = node[key]
        node[last] = value
        return out

    sphere_cfg = base_config(4)
    sphere_cfg["eps"] = 0.25
    levels_cfg = edited(mesh_cfg, ("command",), "convergence")
    rows = (
        (missing_off, "geometry.inner.path"),
        (bad_term, "data.cartesian.outer[0]"),
        (bool_dimension, "'dimension'"),
        (text_subdivisions, "'subdivisions'"),
        (nan_coeff, "data.cartesian.inner[0].coeffs[0]"),
        (text_threshold, "'atol'"),
        (edited(mesh_cfg, ("geometry", "inner", "radius"), "x"), "'geometry.inner.radius'"),
        (edited(mesh_cfg, ("geometry", "outer"),
                {"builtin": "ellipsoid", "semi_axes": [1.0, "x", 1.0]}),
         "'geometry.outer.semi_axes[1]'"),
        (edited(sphere_cfg, ("geometry", "r_i"), "x"), "'geometry.r_i'"),
        (edited(sphere_cfg, ("geometry", "r_o"), None), "'geometry.r_o'"),
        (edited(mesh_cfg, ("targets",), {"frame": "macroscopic", "points": [[0.6, "x", 0]]}),
         "'targets.points[0][1]'"),
        (edited(mesh_cfg, ("targets",), {"frame": "macroscopic", "points": [[0.6, 0]]}),
         "'targets.points'"),
        (edited(mesh_cfg, ("targets", "radii"), [0.6, "x"]), "'targets.radii[1]'"),
        (edited(levels_cfg, ("subdivision_levels",), [1, "x"]), "'subdivision_levels[1]'"),
        (edited(mesh_cfg, ("data", "cartesian", "inner", 0, "exponents"), [0, "x", 0]),
         "'data.cartesian.inner[0].exponents[1]'"),
        (edited(mesh_cfg, ("eval_clearance_factor",), "x"), "'eval_clearance_factor'"),
        (edited(sphere_cfg, ("eps",), float("nan")), "'eps'"),
        (edited(sphere_cfg, ("eps",), float("inf")), "'eps'"),
        (edited(edited(base_config(4), ("command",), "continuation"), ("grid", "eps_max"),
                float("inf")), "'eps_max'"),
        (edited(base_config(4), ("thresholds",), {"atol": float("nan")}), "'atol'"),
        (edited(mesh_cfg, ("geometry", "inner", "radius"), -1), "'geometry.inner.radius'"),
        (edited(mesh_cfg, ("geometry", "outer"),
                {"builtin": "ellipsoid", "semi_axes": [1.0, 0.0, 1.0]}),
         "'geometry.outer.semi_axes'"),
        (edited(mesh_cfg, ("geometry", "subdivisions"), 7), "'geometry.subdivisions'"),
        (edited(levels_cfg, ("subdivision_levels",), [1, 7]), "'subdivision_levels[1]'"),
    )
    for i, (cfg, field) in enumerate(rows):
        command = cfg.get("command") or ("continuation" if "thresholds" in cfg else "solve")
        code, report, _ = run_cli(tmp_path / str(i), command, cfg)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and report is None, field
        assert field in err and "Traceback" not in err, err


@pytest.mark.parametrize("levels, oracle", [([1, 2], "spectral"), ([1, 2, 3], "richardson")])
def test_convergence_zero_oracle_writes_null(tmp_path, levels, oracle):
    # zero data: every value and the oracle are 0, so relative errors and
    # orders are 0/0; the report marks them undefined instead of NaN
    cfg = {
        "dimension": 3,
        "geometry": {
            "kind": "meshes",
            "inner": {"builtin": "icosphere", "radius": 1.0},
            "outer": ({"builtin": "icosphere", "radius": 1.0} if oracle == "spectral"
                      else {"builtin": "ellipsoid", "semi_axes": [0.9, 1.0, 1.0]}),
        },
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["0"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
        "eps": 0.25,
        "subdivision_levels": levels,
    }
    code, report, out = run_cli(tmp_path, "convergence", cfg)
    assert code == EXIT_OK
    text = (out / "report.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert report["oracle"] == oracle
    assert report["observed_order"] is None
    if oracle == "spectral":
        assert report["oracle_values"] == [0.0]
        assert report["relative_errors"] == [None, None]
        assert report["undefined"] == ["relative_errors", "observed_orders", "observed_order"]
    else:
        assert report["observed_orders"] == [[None]]
        assert report["undefined"] == ["observed_orders", "observed_order",
                                       "order_uncertainty"]

