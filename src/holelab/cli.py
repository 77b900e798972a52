"""Batch front-end: JSON run configurations in, CSV sweeps and JSON reports out.

Usage: ``holelab <command> --config <path> [--strict] [--out-dir <path>]``
with command one of solve, sweep, fit, continuation, symmetry, convergence.
Outputs are deterministic for identical configurations: no timestamps, sorted
JSON keys, and an optional caller-supplied run id for provenance.  Files are
written atomically (temp file then rename).

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 INCONCLUSIVE continuation verdict under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import partial

import numpy as np

from . import bem as bem_mod
from . import continuation as cont
from .annulus import (
    MACROSCOPIC,
    MICROSCOPIC,
    InadmissibleEpsError,
    SphereProblem,
    ZonalDataFamily,
    eval_solution,
    solve_densities,
)
from .bem import CartesianDataFamily, SolverError
from .kernels import QuadratureError
from .mesh import GeometryPair, MeshError, TriMesh, check_subdivisions, ellipsoid, icosphere, load_off

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_STRICT_INCONCLUSIVE = 4

COMMANDS = ("solve", "sweep", "fit", "continuation", "symmetry", "convergence")

DEFAULT_EVAL_CLEARANCE = 0.5  # cross-level comparable; see convergence notes


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _require(cfg: dict, field: str, kind=None):
    if field not in cfg:
        raise ConfigError(f"missing required field {field!r}")
    value = cfg[field]
    # bool is an int subclass, but no field takes true/false
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ConfigError(f"field {field!r} has wrong type {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):  # JSON NaN, Infinity
        raise ConfigError(f"field {field!r}: {value!r} is not finite")
    return value


@contextmanager
def _refused_as(field: str, *errors):
    """A library refusal (one of ``errors``) in the block exits 2 naming ``field``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"field {field!r}: {exc}") from None


def _optional(cfg: dict, field: str, default, kind):
    """cfg[field] checked as in _require when present, else default."""
    return _require(cfg, field, kind) if field in cfg else default


def _parse_decimal(value, field: str) -> float:
    # eps-polynomial coefficients are exact decimal strings (or numbers),
    # parsed to binary floats exactly once; the config echo keeps the source.
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"field {field!r}: {value!r} is not a decimal number") from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
    else:
        raise ConfigError(f"field {field!r}: expected a decimal string or number")
    if not math.isfinite(number):
        raise ConfigError(f"field {field!r}: {value!r} is not finite")
    return number


def _decimals(value, field: str) -> list[float]:
    """A list of numbers, each parsed as in _parse_decimal."""
    if not isinstance(value, list):
        raise ConfigError(f"field {field!r}: expected a list of numbers")
    return [_parse_decimal(x, f"{field}[{i}]") for i, x in enumerate(value)]


def _integers(value, field: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"field {field!r}: expected a list of integers")
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, int):
            name = f"{field}[{i}]"
            raise ConfigError(f"field {name!r}: {x!r} is not an integer")
    return list(value)


def _clearance_factor(cfg: dict) -> float:
    return _parse_decimal(cfg.get("eval_clearance_factor", DEFAULT_EVAL_CLEARANCE),
                          "eval_clearance_factor")


def _parse_zonal(data_cfg: dict) -> ZonalDataFamily:
    def side(name: str) -> dict:
        raw = data_cfg.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"field data.zonal.{name} must be an object")
        out = {}
        for key, coeffs in raw.items():
            try:
                l = int(key)
            except ValueError:
                raise ConfigError(f"field data.zonal.{name}: mode key {key!r} not an integer") from None
            if not isinstance(coeffs, list):
                raise ConfigError(f"field data.zonal.{name}.{key} must be a coefficient list")
            out[l] = tuple(
                _parse_decimal(c, f"data.zonal.{name}.{key}[{i}]") for i, c in enumerate(coeffs)
            )
        return out

    return ZonalDataFamily(inner=side("inner"), outer=side("outer"))


def _parse_cartesian(data_cfg: dict) -> CartesianDataFamily:
    def side(name: str) -> tuple:
        raw = data_cfg.get(name, [])
        if not isinstance(raw, list):
            raise ConfigError(f"field data.cartesian.{name} must be a list of terms")
        terms = []
        for i, term in enumerate(raw):
            if not isinstance(term, dict):
                raise ConfigError(f"field data.cartesian.{name}[{i}] must be an object")
            exps = term.get("exponents")
            coeffs = term.get("coeffs")
            if not (isinstance(exps, list) and len(exps) == 3):
                raise ConfigError(f"field data.cartesian.{name}[{i}].exponents must have 3 entries")
            if not isinstance(coeffs, list):
                raise ConfigError(f"field data.cartesian.{name}[{i}].coeffs must be a list")
            terms.append(
                (
                    tuple(_integers(exps, f"data.cartesian.{name}[{i}].exponents")),
                    tuple(
                        _parse_decimal(c, f"data.cartesian.{name}[{i}].coeffs[{j}]")
                        for j, c in enumerate(coeffs)
                    ),
                )
            )
        return tuple(terms)

    return CartesianDataFamily(inner=side("inner"), outer=side("outer"))


def _build_mesh(spec, subdivisions: int, field: str) -> TriMesh:
    if isinstance(spec, dict) and "path" in spec:
        with _refused_as(f"{field}.path", OSError, MeshError):
            return load_off(spec["path"])
    # subdivisions are checked where parsed, so a generator refusal names the size
    if isinstance(spec, dict) and "builtin" in spec:
        kind = spec["builtin"]
        if kind == "icosphere":
            radius = _parse_decimal(spec.get("radius", 1.0), f"{field}.radius")
            with _refused_as(f"{field}.radius", MeshError):
                return icosphere(radius, subdivisions)
        if kind == "ellipsoid":
            axes = spec.get("semi_axes")
            if not (isinstance(axes, list) and len(axes) == 3):
                raise ConfigError(f"field {field}.semi_axes must have 3 entries")
            axes = _decimals(axes, f"{field}.semi_axes")
            with _refused_as(f"{field}.semi_axes", MeshError):
                return ellipsoid(*axes, subdivisions)
        raise ConfigError(f"field {field}.builtin: unknown generator {kind!r}")
    raise ConfigError(f"field {field} must specify 'builtin' or 'path'")


def _parse_problem(cfg: dict):
    geom = _require(cfg, "geometry", dict)
    kind = _require(geom, "kind", str)
    n = int(_require(cfg, "dimension", (int,)))
    data_cfg = _require(cfg, "data", dict)
    if kind == "spheres":
        if "zonal" not in data_cfg:
            raise ConfigError("field data: sphere geometry requires zonal data")
        problem = SphereProblem(
            n,
            _parse_decimal(geom.get("r_i", 1.0), "geometry.r_i"),
            _parse_decimal(geom.get("r_o", 1.0), "geometry.r_o"),
        )
        return problem, _parse_zonal(data_cfg["zonal"])
    if kind == "meshes":
        if n != 3:
            raise ConfigError("field dimension: mesh geometry requires n = 3")
        if "cartesian" not in data_cfg:
            raise ConfigError("field data: mesh geometry requires cartesian data")
        subdivisions = _optional(geom, "subdivisions", 3, int)
        with _refused_as("geometry.subdivisions", MeshError):
            check_subdivisions(subdivisions)
        pair = GeometryPair(
            _build_mesh(_require(geom, "inner"), subdivisions, "geometry.inner"),
            _build_mesh(_require(geom, "outer"), subdivisions, "geometry.outer"),
        )
        return pair, _parse_cartesian(data_cfg["cartesian"])
    raise ConfigError(f"field geometry.kind: unknown kind {kind!r}")


def _parse_grid(cfg: dict) -> tuple[np.ndarray, str]:
    grid_cfg = _require(cfg, "grid", dict)
    eps_min = float(_require(grid_cfg, "eps_min", (int, float)))
    eps_max = float(_require(grid_cfg, "eps_max", (int, float)))
    count = int(_require(grid_cfg, "count", int))
    signs = grid_cfg.get("signs", "both")
    if signs not in ("both", "positive", "negative"):
        raise ConfigError(f"field grid.signs: unknown value {signs!r}")
    with _refused_as("grid", cont.GridError):
        return cont.make_grid(eps_min, eps_max, count), signs


def _parse_targets(cfg: dict, problem) -> cont.TargetSet:
    tcfg = _require(cfg, "targets", dict)
    frame = _require(tcfg, "frame", str)
    if frame not in (MACROSCOPIC, MICROSCOPIC):
        raise ConfigError(f"field targets.frame: unknown frame {frame!r}")
    if "points" in tcfg:
        rows = tcfg["points"]
        if not isinstance(rows, list):
            raise ConfigError("field 'targets.points': expected a list of points")
        dim = cfg["dimension"]
        pts = [_decimals(row, f"targets.points[{i}]") for i, row in enumerate(rows)]
        if not pts or any(len(p) != dim for p in pts):
            raise ConfigError(f"field 'targets.points': expected points of {dim} coordinates")
        pts = np.array(pts)
    elif "radii" in tcfg:
        axis = problem.axis if isinstance(problem, SphereProblem) else (0.0, 0.0, 1.0)
        pts = np.outer(_decimals(tcfg["radii"], "targets.radii"), axis)
    else:
        raise ConfigError("field targets: needs 'points' or 'radii'")
    with _refused_as("targets", ValueError):
        return cont.TargetSet(frame, pts)


def _thresholds(cfg: dict) -> dict:
    raw = _optional(cfg, "thresholds", {}, dict)
    out = {
        "atol": cont.DEFAULT_ATOL_SPECTRAL,
        "rtol_break": cont.DEFAULT_RTOL_BREAK,
        "continue_factor": cont.CONTINUE_FACTOR,
        "break_factor": cont.BREAK_FACTOR,
    }
    for key in out:
        if key in raw:
            out[key] = float(_require(raw, key, (int, float)))
    unknown = set(raw) - set(out)
    if unknown:
        raise ConfigError(f"field thresholds: unknown keys {sorted(unknown)}")
    return out


def _fit_params(cfg: dict, problem, grid: np.ndarray) -> tuple[int, str]:
    """Fit degree and basis, checked against the positive grid before any solve."""
    fcfg = _optional(cfg, "fit", {}, dict)
    default_degree = (
        cont.DEFAULT_DEGREE_SPECTRAL
        if isinstance(problem, SphereProblem)
        else cont.DEFAULT_DEGREE_BEM
    )
    degree = fcfg.get("degree", default_degree)
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ConfigError(f"field fit.degree: {degree!r} is not an integer")
    basis = fcfg.get("basis", "auto")
    with _refused_as("fit", cont.FitError):
        cont.check_fit(grid, degree, basis)
    return degree, basis


def _check_grid_admissible(problem, grid: np.ndarray) -> None:
    if isinstance(problem, SphereProblem):
        with _refused_as("grid", InadmissibleEpsError):
            for eps in grid:
                problem.check_eps(float(eps))


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, rows) -> None:
    lines = ["eps,frame,target_index,value,cond_estimate"]
    for eps, frame, idx, value, cond in rows:
        lines.append(f"{eps!r},{frame},{idx},{value!r},{cond!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


COND_DIGITS = 6


def _conds(conds) -> list[float]:
    """Condition estimates rounded to COND_DIGITS significant digits.

    The estimate can differ between processes in its last digits, so
    sweep.csv and report.json carry only the digits that repeat.
    """
    return [float(f"{c:.{COND_DIGITS}g}") for c in conds]


def _sweep_rows(result: cont.SweepResult):
    conds = _conds(result.conds)
    for i, eps in enumerate(result.grid):
        for j in range(result.values.shape[1]):
            yield float(eps), result.frame, j, float(result.values[i, j]), conds[i]


def _provenance(cfg: dict, problem) -> dict:
    prov = {"config": cfg, "package": "holelab"}
    if isinstance(problem, SphereProblem):
        prov["solver"] = "spectral-modal"
        prov["geometry"] = {"kind": "spheres", "n": problem.n,
                            "r_i": problem.r_i, "r_o": problem.r_o}
    else:
        prov["solver"] = "bem-collocation"
        prov["geometry"] = {
            "kind": "meshes",
            "inner_mesh": problem.inner.stats(),
            "outer_mesh": problem.outer.stats(),
        }
    if "run_id" in cfg:
        prov["run_id"] = cfg["run_id"]
    return prov


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_report(out_dir: str, report: dict) -> None:
    try:
        text = json.dumps(_json_ready(report), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"report.json would hold a non-finite number: {exc}") from None
    _atomic_write(os.path.join(out_dir, "report.json"), text + "\n")


def _mark_undefined(payload: dict, keys) -> list[str]:
    """Replace non-finite numbers under ``keys`` by None (JSON null).

    Returns the keys that held one: an error relative to a zero oracle, or an
    order from repeated values, is undefined rather than a number.
    """
    undefined = []
    for key in keys:
        values = np.asarray(payload[key], dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            undefined.append(key)
            payload[key] = np.where(finite, values, None).tolist()
    return undefined


def _solve_command(cfg, problem, data, targets, out_dir):
    eps = float(_require(cfg, "eps", (int, float)))
    if eps == 0.0:
        raise ConfigError("field eps: must be nonzero")
    grid = np.array([eps])
    result = cont.sweep(problem, data, grid, targets,
                        eval_clearance_factor=_clearance_factor(cfg))
    _write_csv(os.path.join(out_dir, "sweep.csv"), _sweep_rows(result))
    return {
        "command": "solve",
        "eps": eps,
        "values": result.values[0],
        "cond_estimate": _conds(result.conds)[0],
        "provenance": _provenance(cfg, problem),
    }, EXIT_OK


def _run_sweeps(cfg, problem, data, targets, signs):
    grid, _ = _parse_grid(cfg)
    _check_grid_admissible(problem, grid)
    clearance = _clearance_factor(cfg)
    if signs == "positive":
        return cont.sweep(problem, data, grid, targets, eval_clearance_factor=clearance), None
    if signs == "negative":
        return None, cont.sweep(problem, data, -grid[::-1], targets,
                                eval_clearance_factor=clearance)
    # one signed sweep, so a mesh pair's self blocks are built once
    signed = cont.sweep(problem, data, np.concatenate([-grid[::-1], grid]), targets,
                        eval_clearance_factor=clearance)
    return signed.subset(signed.grid > 0), signed.subset(signed.grid < 0)


def _sweep_command(cfg, problem, data, targets, out_dir):
    _, signs = _parse_grid(cfg)
    pos, neg = _run_sweeps(cfg, problem, data, targets, signs)
    rows = []
    if neg is not None:
        rows.extend(_sweep_rows(neg))
    if pos is not None:
        rows.extend(_sweep_rows(pos))
    _write_csv(os.path.join(out_dir, "sweep.csv"), rows)
    report = {"command": "sweep", "provenance": _provenance(cfg, problem)}
    for name, res in (("positive", pos), ("negative", neg)):
        if res is not None:
            report[name] = {"grid": res.grid, "cond_estimates": _conds(res.conds)}
    return report, EXIT_OK


def _fit_command(cfg, problem, data, targets, out_dir):
    degree, basis = _fit_params(cfg, problem, _parse_grid(cfg)[0])
    pos, _ = _run_sweeps(cfg, problem, data, targets, "positive")
    fit = cont.fit_series(pos, degree, basis)
    _write_csv(os.path.join(out_dir, "sweep.csv"), _sweep_rows(pos))
    return {
        "command": "fit",
        "eps_scale": fit.eps_scale,
        "degree": fit.degree,
        "basis": list(fit.basis_labels),
        "coefficients": fit.coeffs,
        "residuals": fit.residuals,
        "full_basis_residuals": fit.full_residuals,
        "design_condition": fit.cond,
        "provenance": _provenance(cfg, problem),
    }, EXIT_OK


def _continuation_command(cfg, problem, data, targets, out_dir, strict):
    degree, basis = _fit_params(cfg, problem, _parse_grid(cfg)[0])
    thresholds = _thresholds(cfg)
    if "atol" not in cfg.get("thresholds", {}) and not isinstance(problem, SphereProblem):
        thresholds["atol"] = cont.DEFAULT_ATOL_BEM
    pos, neg = _run_sweeps(cfg, problem, data, targets, "both")
    fit = cont.fit_series(pos, degree, basis)
    report = cont.test_continuation(fit, neg, **thresholds)
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        list(_sweep_rows(neg)) + list(_sweep_rows(pos)),
    )
    payload = {
        "command": "continuation",
        "verdict": report.verdict,
        "target_verdicts": list(report.target_verdicts),
        "fit_residuals": report.fit_residuals,
        "full_basis_residuals": report.full_fit_residuals,
        "extrapolation_errors": report.extrapolation_errors,
        "value_scales": report.value_scales,
        "fit_basis": list(report.basis_labels),
        "fit_coefficients": fit.coeffs,
        "eps_scale": fit.eps_scale,
        "thresholds": report.thresholds,
        "provenance": _provenance(cfg, problem),
    }
    code = EXIT_OK
    if strict and report.verdict == cont.INCONCLUSIVE:
        code = EXIT_STRICT_INCONCLUSIVE
    return payload, code


def _symmetry_command(cfg, problem, data, targets, out_dir):
    zeta = int(_require(cfg, "zeta", int))
    if zeta not in (-1, 1):
        raise ConfigError("field zeta: must be +1 or -1")
    degree, _ = _fit_params(cfg, problem, _parse_grid(cfg)[0])
    pos, _ = _run_sweeps(cfg, problem, data, targets, "positive")
    fit = cont.fit_series(pos, degree, basis="full")
    if isinstance(problem, SphereProblem):
        hypothesis = cont.zonal_symmetry_hypothesis(data, zeta)
        checked = hypothesis["inner_reflected"] or hypothesis["outer_reflected"]
    else:
        hypothesis = {}
        checked = bool(cfg.get("hypothesis_checked", False))
    report = cont.test_symmetry(fit, zeta, hypothesis_checked=checked)
    _write_csv(os.path.join(out_dir, "sweep.csv"), _sweep_rows(pos))
    return {
        "command": "symmetry",
        "zeta": zeta,
        "forbidden_relative": report.forbidden_relative,
        "max_forbidden_relative": report.max_forbidden_relative,
        "forbidden_indices": list(report.forbidden_indices),
        "hypothesis_checked": report.hypothesis_checked,
        "hypothesis_detail": hypothesis,
        "note": report.note,
        "coefficients": fit.coeffs,
        "provenance": _provenance(cfg, problem),
    }, EXIT_OK


def _summed_coeffs(terms) -> tuple:
    """The eps-polynomial of a sum of constant terms: their coefficients added."""
    total = np.zeros(max(len(coeffs) for _, coeffs in terms))
    for _, coeffs in terms:
        total[: len(coeffs)] += coeffs
    return tuple(float(c) for c in total)


def _convergence_command(cfg, problem, data, targets, out_dir):
    if isinstance(problem, SphereProblem):
        raise ConfigError("field geometry: convergence study needs mesh geometry")
    geom = cfg["geometry"]
    inner_spec = geom["inner"]
    outer_spec = geom["outer"]
    if "path" in inner_spec or "path" in outer_spec:
        raise ConfigError("field geometry: convergence study needs builtin generators")
    eps = float(_require(cfg, "eps", (int, float)))
    base = _optional(geom, "subdivisions", 2, int)
    levels = _integers(cfg.get("subdivision_levels", [base, base + 1, base + 2]),
                       "subdivision_levels")
    for i, s in enumerate(levels):
        with _refused_as(f"subdivision_levels[{i}]", MeshError):
            check_subdivisions(s)
    if len(levels) < 2:
        raise ConfigError("field subdivision_levels: need at least two levels")
    clearance = _clearance_factor(cfg)

    spheres = (
        inner_spec.get("builtin") == "icosphere" and outer_spec.get("builtin") == "icosphere"
    )
    constant_data = all(exp == (0, 0, 0) for exp, _ in data.inner) and all(
        exp == (0, 0, 0) for exp, _ in data.outer
    )
    use_oracle = spheres and constant_data

    values = []
    edges = []
    for s in levels:
        pair = GeometryPair(
            _build_mesh(inner_spec, s, "geometry.inner"),
            _build_mesh(outer_spec, s, "geometry.outer"),
        )
        dens = bem_mod.solve(bem_mod.assemble(pair, data, eps))
        vals = bem_mod.eval_field(
            pair, dens, eps, targets.points, targets.frame, clearance_factor=clearance
        )
        values.append(np.atleast_1d(vals))
        edges.append(pair.outer.mean_edge_length)
    values = np.array(values)
    edges = np.array(edges)

    payload = {
        "command": "convergence",
        "eps": eps,
        "levels": levels,
        "mean_edge_lengths": edges,
        "values": values,
        "provenance": _provenance(cfg, problem),
    }
    if use_oracle:
        n = 3
        prob = SphereProblem(
            n,
            _parse_decimal(inner_spec.get("radius", 1.0), "geometry.inner.radius"),
            _parse_decimal(outer_spec.get("radius", 1.0), "geometry.outer.radius"),
        )
        zonal = ZonalDataFamily(
            inner={0: _summed_coeffs(data.inner)} if data.inner else {},
            outer={0: _summed_coeffs(data.outer)} if data.outer else {},
        )
        sol = solve_densities(prob, zonal, eps)
        oracle = np.array(
            [eval_solution(sol, p, targets.frame) for p in targets.points]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            errors = np.max(np.abs(values - oracle[None, :]) / np.abs(oracle[None, :]), axis=1)
            orders = np.log(errors[:-1] / errors[1:]) / np.log(edges[:-1] / edges[1:])
        payload.update({
            "oracle": "spectral",
            "oracle_values": oracle,
            "relative_errors": errors,
            "observed_orders": orders,
            "observed_order": float(np.min(orders)),
        })
        derived = ("relative_errors", "observed_orders", "observed_order")
    else:
        if len(levels) < 3:
            raise ConfigError("field subdivision_levels: Richardson estimate needs 3 levels")
        # per-target successive differences stand in for the unknown errors;
        # the spread of the per-target order estimates is the uncertainty
        diffs = np.abs(np.diff(values, axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            orders = np.log(diffs[:-1] / diffs[1:]) / np.log(
                (edges[:-2] / edges[1:-1])[:, None]
            )
            spread = float(np.ptp(orders))
        payload.update({
            "oracle": "richardson",
            "successive_differences": diffs,
            "observed_orders": orders,
            "observed_order": float(np.min(orders)),
            "order_uncertainty": spread,
        })
        derived = ("observed_orders", "observed_order", "order_uncertainty")
    payload["undefined"] = _mark_undefined(payload, derived)
    return payload, EXIT_OK


def run(config: dict, out_dir: str = ".", strict: bool = False) -> int:
    """Execute one command; returns the process exit code."""
    command = _require(config, "command", str)
    if command not in COMMANDS:
        raise ConfigError(f"field command: unknown command {command!r}")
    problem, data = _parse_problem(config)
    targets = _parse_targets(config, problem)
    os.makedirs(out_dir, exist_ok=True)
    handler = {"solve": _solve_command, "sweep": _sweep_command, "fit": _fit_command,
               "continuation": partial(_continuation_command, strict=strict),
               "symmetry": _symmetry_command, "convergence": _convergence_command}[command]
    payload, code = handler(config, problem, data, targets, out_dir)
    _write_report(out_dir, payload)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holelab",
        description="Perforated-domain Dirichlet solvers and continuation lab",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero on an INCONCLUSIVE continuation verdict")
    parser.add_argument("--out-dir", default=".", help="directory for sweep.csv and report.json")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"holelab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(config, dict):
        print("holelab: config error: top level must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    config.setdefault("command", args.command)
    if config["command"] != args.command:
        print(
            f"holelab: config error: field command {config['command']!r} "
            f"conflicts with CLI command {args.command!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    try:
        return run(config, out_dir=args.out_dir, strict=args.strict)
    except ConfigError as exc:
        print(f"holelab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, MeshError, InadmissibleEpsError, QuadratureError,
            cont.GridError, cont.FitError, RuntimeError, ValueError) as exc:
        print(f"holelab: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
