import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holelab
from holelab import continuation as cont
from holelab.bem import expansion_degree
from holelab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_STRICT_INCONCLUSIVE,
    ConfigError,
    main,
    run,
)
from holelab.mesh import AdmissibilityError, GeometryPair, icosphere


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the auto basis reports BREAKS for "
                   "data whose family continues (even n always continues)")
def test_even_dimension_hole_data_continues(tmp_path):
    # op 444 of the seed-1 spectral-lab benchmark workload
    cfg = base_config(6)
    cfg["geometry"]["r_o"] = 1.094
    cfg["data"]["zonal"]["inner"] = {"1": ["0", "-0.4641"], "0": ["0", "0", "0.7733"]}
    cfg["targets"]["radii"] = [0.537, 0.614, 0.742]
    code, report, _ = run_cli(tmp_path, "continuation", cfg)
    assert code == EXIT_OK
    assert report["verdict"] == "CONTINUES"


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


def bem_convergence_config():
    cfg = bem_sweep_config()
    del cfg["grid"]
    cfg["data"]["cartesian"]["outer"] = []  # constant data: the spectral oracle applies
    cfg.update(eps=0.3, subdivision_levels=[2, 3])
    return cfg


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
    # BEM signed sweep at subdivision 3: every eps is certified, so all six
    # are solved in lockstep, as the benchmark's sweep is
    cfg = bem_sweep_config()
    cfg["geometry"]["subdivisions"] = 3
    pair = GeometryPair(icosphere(1.0, 3), icosphere(1.0, 3))
    grid = cont.make_grid(0.1, 0.3, 3)
    assert all(expansion_degree(pair, eps) is not None for eps in [*-grid, *grid])
    out1 = run_cli_process(tmp_path / "lockstep_a", "sweep", cfg)
    out2 = run_cli_process(tmp_path / "lockstep_b", "sweep", cfg)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    # BEM convergence: level 2 is assembled, level 3 expanded in eps
    out1 = run_cli_process(tmp_path / "levels_a", "convergence", bem_convergence_config())
    out2 = run_cli_process(tmp_path / "levels_b", "convergence", bem_convergence_config())
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


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


@pytest.mark.parametrize("signs", ["both", "positive", "negative"])
@pytest.mark.parametrize("geometry", ["spheres", "meshes"])
def test_sweep_command_writes_both_signs(tmp_path, geometry, signs):
    sides = {"positive", "negative"} if signs == "both" else {signs}
    cfg = base_config(4) if geometry == "spheres" else bem_sweep_config()
    cfg["grid"].update(count=3, signs=signs)
    code, report, out = run_cli(tmp_path, "sweep", cfg)
    assert code == EXIT_OK
    assert {"positive", "negative"} & set(report) == sides
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    eps = [float(r.split(",")[0]) for r in rows]
    assert len(eps) == 3 * len(sides) and eps == sorted(eps)
    assert {"positive" if e > 0 else "negative" for e in eps} == sides
    for side in sides:
        grid = report[side]["grid"]
        assert len(grid) == 3 and all((e > 0) == (side == "positive") for e in grid)


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


def test_solver_failure_exit_code(tmp_path, capsys):
    # admissible, since |eps| r_i < r_o, and a valid target, but the hole all
    # but fills the outer sphere: mode 0 is singular to working precision
    cfg = base_config(3)
    cfg.update(eps=0.99999999999999, targets={"frame": "microscopic", "radii": [1.0]})
    code, report, _ = run_cli(tmp_path, "solve", cfg)
    err = capsys.readouterr().err
    assert code == EXIT_SOLVER and report is None
    assert "solver failure" in err and "Traceback" not in err


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


class SweepReached(Exception):
    """Raised by a patched step after sweep's eps check: the check let the run through."""


def shifted_icosphere_off(path, z):
    from holelab.mesh import TriMesh, icosphere, save_off
    mesh = icosphere(1.0, 1)
    save_off(TriMesh(mesh.vertices + [0.0, 0.0, z], mesh.triangles), path)
    return {"path": str(path)}


@pytest.mark.parametrize("geometry, command, signs, refused", [
    ("touching", "sweep", "both", True),
    ("touching", "sweep", "positive", True),
    ("touching", "fit", "both", True),
    ("touching", "symmetry", "both", True),
    # only the negative points are inadmissible on this off-centre pair
    ("shifted", "sweep", "both", True),
    ("shifted", "sweep", "negative", True),
    ("shifted", "continuation", "positive", True),
    ("shifted", "sweep", "positive", False),
    ("shifted", "fit", "both", False),
])
def test_mesh_grid_checked_before_any_solve(tmp_path, monkeypatch, capsys, geometry, command,
                                            signs, refused):
    def no_solve(*args, **kwargs):
        raise SweepReached

    monkeypatch.setattr(cont, "validate_targets", no_solve)
    monkeypatch.setattr(cont.bem_mod, "GridField", no_solve)
    cfg = bem_sweep_config()
    cfg["geometry"]["subdivisions"] = 1
    cfg["zeta"] = 1
    # unit spheres: at |eps| = 0.999 the hole all but touches the outer sphere
    cfg["grid"] = {"eps_min": 0.3, "eps_max": 0.999, "count": 6, "signs": signs}
    if geometry == "shifted":
        # hole centre at 0.5 eps, outer centre at 0.3: the clearance is
        # 0.009 at eps = -0.46 and 0.44 at +0.46 (clearance_min 0.026)
        tmp_path.mkdir(parents=True, exist_ok=True)
        cfg["geometry"]["inner"] = shifted_icosphere_off(tmp_path / "inner.off", 0.5)
        cfg["geometry"]["outer"] = shifted_icosphere_off(tmp_path / "outer.off", 0.3)
        cfg["grid"]["eps_max"] = 0.46
        cfg["targets"] = {"frame": "macroscopic", "points": [[0.6, 0.0, 0.0]]}
    if not refused:
        with pytest.raises(SweepReached):
            run_cli(tmp_path, command, cfg)
        return
    code, report, _ = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and report is None
    assert "'grid'" in err and "clearance" in err and "Traceback" not in err


def mesh_solve_config(eps):
    cfg = bem_sweep_config()
    del cfg["grid"]
    cfg["geometry"]["subdivisions"] = 1
    cfg["eps"] = eps
    return cfg


@pytest.mark.parametrize("command, geometry, eps", [
    ("solve", "spheres", 0.0),
    ("solve", "spheres", 1.5),
    ("solve", "meshes", 0.0),
    # unit spheres: at eps = 0.999 the hole all but touches the outer sphere
    ("solve", "meshes", 0.999),
    ("convergence", "meshes", 0.0),
    ("convergence", "meshes", 0.999),
])
def test_eps_checked_before_any_solve(tmp_path, monkeypatch, capsys, command, geometry, eps):
    def no_solve(*args, **kwargs):
        raise SweepReached

    monkeypatch.setattr(cont, "validate_targets", no_solve)
    monkeypatch.setattr(cont.bem_mod, "GridField", no_solve)
    if geometry == "spheres":
        cfg = base_config(3)
        cfg["eps"] = eps
    else:
        cfg = mesh_solve_config(eps)
    if command == "convergence":
        cfg["subdivision_levels"] = [1, 2]
    code, report, _ = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and report is None
    assert "'eps'" in err and "Traceback" not in err


def test_convergence_checks_every_level_before_solving_one(tmp_path, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise SweepReached

    original = GeometryPair.require_admissible

    def refuse_level_2(pair, eps):
        if pair.inner.n_triangles == 320:
            raise AdmissibilityError(f"refused at eps={eps:g}")
        original(pair, eps)

    monkeypatch.setattr(cont, "sweep", no_sweep)
    monkeypatch.setattr(GeometryPair, "require_admissible", refuse_level_2)
    cfg = mesh_solve_config(0.3)
    cfg["subdivision_levels"] = [1, 2]
    code, report, _ = run_cli(tmp_path, "convergence", cfg)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and report is None
    assert "'eps'" in err and "refused at eps=0.3" in err


def test_convergence_refuses_two_richardson_levels_before_solving(tmp_path, monkeypatch, capsys):
    sweeps = []
    sweep = cont.sweep

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cont, "sweep", counted)
    cfg = mesh_solve_config(0.3)
    cfg["subdivision_levels"] = [1, 2]  # the outer datum is not constant: no oracle
    code, report, _ = run_cli(tmp_path, "convergence", cfg)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and report is None
    assert "field 'subdivision_levels': Richardson estimate needs 3 levels" in err
    assert sweeps == []


def test_convergence_refuses_a_repeated_level_before_solving(tmp_path, monkeypatch, capsys):
    sweeps = []
    sweep = cont.sweep

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cont, "sweep", counted)
    cfg = bem_convergence_config()  # constant data: two levels would be enough
    cfg["subdivision_levels"] = [1, 1]
    code, report, _ = run_cli(tmp_path, "convergence", cfg)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and report is None
    assert "field 'subdivision_levels': a level may appear only once" in err
    assert sweeps == []


def _with_radii(cfg, command, radii):
    cfg = json.loads(json.dumps(cfg))
    cfg["command"] = command
    cfg["targets"]["radii"] = radii
    return cfg


@pytest.mark.parametrize("config, refusal", [
    # |eps| r_i reaches 0.3 on the grid, so the hole covers radius 0.1
    (_with_radii(base_config(4), "sweep", [0.1]), "not admissible"),
    (_with_radii(bem_sweep_config(), "sweep", [0.2]), "is inside the hole"),
    (_with_radii(mesh_solve_config(0.3), "solve", [0.97]), "from a surface"),
    (_with_radii(dict(mesh_solve_config(0.3), subdivision_levels=[1, 2, 3]), "convergence",
                 [0.97]), "from a surface"),
])
def test_refused_targets_exit_2_naming_targets(tmp_path, capsys, config, refusal):
    code, report, _ = run_cli(tmp_path, config["command"], config)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and report is None
    assert "'targets'" in err and refusal in err and "Traceback" not in err


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
        (text_subdivisions, "'geometry.subdivisions'"),
        (nan_coeff, "data.cartesian.inner[0].coeffs[0]"),
        (text_threshold, "'thresholds.atol'"),
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
                float("inf")), "'grid.eps_max'"),
        (edited(base_config(4), ("thresholds",), {"atol": float("nan")}), "'thresholds.atol'"),
        (edited(mesh_cfg, ("geometry", "inner", "radius"), -1), "'geometry.inner.radius'"),
        (edited(mesh_cfg, ("geometry", "outer"),
                {"builtin": "ellipsoid", "semi_axes": [1.0, 0.0, 1.0]}),
         "'geometry.outer.semi_axes'"),
        (edited(mesh_cfg, ("geometry", "subdivisions"), 7), "'geometry.subdivisions'"),
        (edited(levels_cfg, ("subdivision_levels",), [1, 7]), "'subdivision_levels[1]'"),
        (edited(edited(base_config(4), ("command",), "continuation"), ("targets", "radii"), []),
         "'targets'"),
        (edited(sphere_cfg, ("data", "zonal", "inner", "0"), "1"), "'data.zonal.inner.0'"),
        (edited(sphere_cfg, ("dimension",), 2), "'dimension'"),
        (edited(sphere_cfg, ("dimension",), 400), "'dimension'"),
        (edited(sphere_cfg, ("geometry", "r_i"), 0), "'geometry.r_i'"),
        (edited(sphere_cfg, ("geometry", "r_o"), "-1.5"), "'geometry.r_o'"),
        (edited(sphere_cfg, ("data", "zonal", "outer"), {"-1": ["1"]}),
         "'data.zonal.outer.-1'"),
        (edited(sphere_cfg, ("data", "zonal", "inner", "70"), ["1"]), "'data.zonal.inner.70'"),
        (edited(sphere_cfg, ("data", "zonal", "inner", "0"), []), "field 'data.zonal.inner.0': "),
        (edited(mesh_cfg, ("data", "cartesian", "inner", 0, "coeffs"), "1"),
         "'data.cartesian.inner[0].coeffs'"),
        (edited(mesh_cfg, ("data", "cartesian", "inner", 0, "coeffs"), []),
         "field 'data.cartesian.inner[0].coeffs': "),
        (edited(mesh_cfg, ("data", "cartesian", "inner", 0, "exponents"), [-1, 0, 0]),
         "field 'data.cartesian.inner[0].exponents[0]': "),
        # a key the block does not read, or both ways of giving targets
        (edited(edited(base_config(4), ("command",), "fit"), ("fit",), {"degre": 4}), "'fit'"),
        (edited(edited(base_config(4), ("command",), "sweep"), ("grid", "sign"), "positive"),
         "'grid'"),
        (edited(sphere_cfg, ("targets", "radius"), 0.75), "'targets'"),
        (edited(sphere_cfg, ("targets", "points"), [[0, 0, 0, 0.75]]), "'targets'"),
        # a negative guard or threshold
        (edited(mesh_cfg, ("eval_clearance_factor",), -1), "'eval_clearance_factor'"),
        (edited(base_config(4), ("thresholds",), {"atol": -1}), "'thresholds.atol'"),
        (edited(base_config(4), ("thresholds",), {"continue_factor": -10}),
         "'thresholds.continue_factor'"),
        # geometry and data
        ({k: v for k, v in sphere_cfg.items() if k != "geometry"}, "field 'geometry': missing"),
        (edited(levels_cfg, ("subdivision_levels",), "x"), "'subdivision_levels'"),
        (edited(sphere_cfg, ("data", "zonal", "inner"), ["1"]), "'data.zonal.inner'"),
        (edited(sphere_cfg, ("data", "zonal", "inner"), {"a": ["1"]}), "'data.zonal.inner'"),
        (edited(mesh_cfg, ("data", "cartesian", "outer"), {}), "'data.cartesian.outer'"),
        (edited(mesh_cfg, ("data", "cartesian", "inner", 0, "exponents"), [0, 0]),
         "'data.cartesian.inner[0].exponents'"),
        (edited(mesh_cfg, ("geometry", "outer"), {"builtin": "ellipsoid", "semi_axes": [1, 1]}),
         "'geometry.outer.semi_axes'"),
        (edited(mesh_cfg, ("geometry", "outer"), {"builtin": "torus"}),
         "'geometry.outer.builtin'"),
        (edited(mesh_cfg, ("geometry", "outer"), {"radius": 1.0}), "'geometry.outer'"),
        (edited(sphere_cfg, ("data",), mesh_cfg["data"]), "field 'data': sphere geometry"),
        (edited(mesh_cfg, ("data",), sphere_cfg["data"]), "field 'data': mesh geometry"),
        (edited(sphere_cfg, ("geometry", "kind"), "torus"), "'geometry.kind'"),
        # grid and targets
        (edited(edited(base_config(4), ("command",), "sweep"), ("grid", "signs"), "all"),
         "'grid.signs'"),
        (edited(sphere_cfg, ("targets", "frame"), "sideways"),
         "field 'targets': unknown frame 'sideways'"),
        (edited(mesh_cfg, ("targets",), {"frame": "macroscopic", "points": "x"}),
         "'targets.points'"),
        (edited(mesh_cfg, ("targets",), {"frame": "macroscopic"}), "field 'targets': needs"),
        # a shared block's keys are checked whatever the command
        (edited(sphere_cfg, ("grid",), {"bogus": 1}), "field 'grid': unknown keys"),
        (edited(edited(sphere_cfg, ("command",), "solve"), ("thresholds",), {"atl": 1}),
         "field 'thresholds': unknown keys"),
        # symmetry
        (dict(base_config(4), command="symmetry", zeta=2), "'zeta'"),
        (dict(bem_sweep_config(), command="symmetry", zeta=1, fit={"degree": 1},
              hypothesis_checked="no"),
         "'hypothesis_checked'"),
        # convergence
        (edited(levels_cfg, ("geometry", "inner"), {"path": str(tmp_path / "inner.off")}),
         "field 'geometry': convergence study needs builtin"),
        (edited(levels_cfg, ("subdivision_levels",), [1]), "'subdivision_levels'"),
        (edited(levels_cfg, ("subdivision_levels",), [1, 2, 1]),
         "field 'subdivision_levels': a level may appear only once"),
        (edited(edited(levels_cfg, ("subdivision_levels",), [1, 2]),
                ("data", "cartesian", "inner", 0, "exponents"), [0, 0, 1]),
         "field 'subdivision_levels': Richardson"),
    )
    for i, (cfg, field) in enumerate(rows):
        command = cfg.get("command") or ("continuation" if "thresholds" in cfg else "solve")
        code, report, _ = run_cli(tmp_path / str(i), command, cfg)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and report is None, field
        assert field in err and "Traceback" not in err, err


@pytest.mark.parametrize("text, refusal", [
    (None, "No such file"),
    ("{", "Expecting property name"),
    ("[]", "top level must be a JSON object"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, text, refusal):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    code = main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and not (tmp_path / "out").exists()
    assert "config error" in err and refusal in err and "Traceback" not in err


def test_run_refuses_an_unknown_command(tmp_path):
    with pytest.raises(ConfigError, match="field 'command': unknown command 'bogus'"):
        run(dict(base_config(4), command="bogus"), str(tmp_path))


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



def test_sweep_checks_admissibility_once_per_eps(tmp_path, monkeypatch):
    # the ball bound fails on this pair from |eps| = 0.7, so the exact test
    # decides; the grid pre-check and the solves share its report
    from holelab import mesh

    calls = []
    original = mesh.mesh_to_mesh_distance

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(mesh, "mesh_to_mesh_distance", counting)
    cfg = {
        "dimension": 3,
        "geometry": {"kind": "meshes",
                     "inner": {"builtin": "ellipsoid", "semi_axes": [0.5, 1.5, 1.5]},
                     "outer": {"builtin": "ellipsoid", "semi_axes": [1.0, 2.0, 2.0]},
                     "subdivisions": 1},
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["1"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "points": [[0.0, 0.0, 1.6]]},
        "grid": {"eps_min": 0.7, "eps_max": 0.8, "count": 2, "signs": "both"},
        "eval_clearance_factor": 0,
    }
    code, report, _ = run_cli(tmp_path, "sweep", cfg)
    assert code == EXIT_OK
    assert len(calls) == 4


def test_convergence_provenance_describes_the_solved_levels(tmp_path, monkeypatch):
    from holelab import cli

    built = []
    original = cli.icosphere

    def recording(radius, subdivisions):
        built.append(subdivisions)
        return original(radius, subdivisions)

    monkeypatch.setattr(cli, "icosphere", recording)
    cfg = {
        "dimension": 3,
        "geometry": {"kind": "meshes",
                     "inner": {"builtin": "icosphere", "radius": 1.0},
                     "outer": {"builtin": "icosphere", "radius": 1.0}},
        "data": {"cartesian": {"inner": [{"exponents": [0, 0, 0], "coeffs": ["0", "1"]}],
                               "outer": []}},
        "targets": {"frame": "macroscopic", "radii": [0.6]},
        "eps": 0.25,
        "subdivision_levels": [1, 2],
    }
    code, report, _ = run_cli(tmp_path, "convergence", cfg)
    assert code == EXIT_OK
    levels = report["provenance"]["geometry"]["levels"]
    assert [level["subdivisions"] for level in levels] == [1, 2]
    for side in ("inner_mesh", "outer_mesh"):
        assert [level[side]["triangles"] for level in levels] == [80, 320]
    assert sorted(built) == [1, 1, 2, 2]
