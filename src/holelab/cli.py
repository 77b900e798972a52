"""Batch front-end: JSON run configurations in, CSV sweeps and JSON reports out.

Usage: ``holelab <command> --config <path> [--strict] [--out-dir <path>]``
with command one of solve, sweep, fit, continuation, symmetry, convergence.
Outputs are deterministic for identical configurations: no timestamps, sorted
JSON keys, and an optional caller-supplied run id for provenance.  Files are
written atomically (temp file then rename).  A command handler returns its
own payload; ``run`` adds the command and the provenance and picks the exit code.

Exit codes: 0 success, 2 configuration error (a target outside the domain,
inside the hole or too close to a surface included), 3 solver failure,
4 INCONCLUSIVE continuation verdict under --strict.  A configuration error
reads ``field '<path>': <reason>``.  A config may hold a shared block that its
command does not read, but ``_known_keys`` checks the keys of every one present.
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

from . import CartesianDataFamily
from . import continuation as cont
from .annulus import (
    DomainError,
    InadmissibleEpsError,
    SphereProblem,
    ZonalDataFamily,
    eps_polynomial,
    eval_points,
    solve_densities,
)
from .kernels import MAX_GEGENBAUER_DEGREE, check_dimension
from .mesh import GeometryPair, MeshError, TriMesh, check_subdivisions, ellipsoid, icosphere, load_off

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_STRICT_INCONCLUSIVE = 4

COMMANDS = ("solve", "sweep", "fit", "continuation", "symmetry", "convergence")

DEFAULT_EVAL_CLEARANCE = 0.5  # cross-level comparable; see convergence notes


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _require(cfg: dict, path: str, kind=None):
    """The entry of ``cfg`` under the last key of the dotted ``path``; a refusal names ``path``."""
    key = path.rpartition(".")[2]
    if key not in cfg:
        raise ConfigError(f"field {path!r}: missing")
    value = cfg[key]
    # bool is an int subclass, but no field takes true/false
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ConfigError(f"field {path!r}: wrong type {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):  # JSON NaN, Infinity
        raise ConfigError(f"field {path!r}: {value!r} is not finite")
    return value


@contextmanager
def _refused_as(field: str, *errors):
    """A library refusal (one of ``errors``) in the block exits 2 naming ``field``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"field {field!r}: {exc}") from None


def _optional(cfg: dict, path: str, default, kind):
    """The entry under ``path`` checked as in _require when present, else default."""
    return _require(cfg, path, kind) if path.rpartition(".")[2] in cfg else default


def _known_keys(cfg: dict) -> None:
    """Refuse a shared block that holds a key it does not define, whatever the command."""
    for block, keys in (("fit", ("degree", "basis")),
                        ("grid", ("eps_min", "eps_max", "count", "signs")),
                        ("targets", ("frame", "points", "radii")),
                        ("thresholds", ("atol", "rtol_break", "continue_factor", "break_factor"))):
        unknown = set(_optional(cfg, block, {}, dict)) - set(keys)
        if unknown:
            raise ConfigError(f"field {block!r}: unknown keys {sorted(unknown)}")


def _non_negative(value: float, field: str) -> float:
    if value < 0:
        raise ConfigError(f"field {field!r}: must be >= 0, got {value!r}")
    return value


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
        name = f"{field}[{i}]"
        if isinstance(x, bool) or not isinstance(x, int):
            raise ConfigError(f"field {name!r}: {x!r} is not an integer")
        _non_negative(x, name)
    return list(value)


def _clearance_factor(cfg: dict) -> float:
    field = "eval_clearance_factor"
    return _non_negative(_parse_decimal(cfg.get(field, DEFAULT_EVAL_CLEARANCE), field), field)


def _parse_zonal(data_cfg: dict) -> ZonalDataFamily:
    def side(name: str) -> dict:
        raw = data_cfg.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"field 'data.zonal.{name}': must be an object")
        out = {}
        for key, coeffs in raw.items():
            try:
                l = int(key)
            except ValueError:
                raise ConfigError(f"field 'data.zonal.{name}': mode {key!r} not an integer") from None
            if not 0 <= l <= MAX_GEGENBAUER_DEGREE:
                raise ConfigError(f"field 'data.zonal.{name}.{key}': mode degree must be in "
                                  f"[0, {MAX_GEGENBAUER_DEGREE}], got {l}")
            path = f"data.zonal.{name}.{key}"
            numbers = _decimals(coeffs, path)
            with _refused_as(path, ValueError):
                out[l] = eps_polynomial(numbers)
        return out

    return ZonalDataFamily(inner=side("inner"), outer=side("outer"))


def _parse_cartesian(data_cfg: dict) -> CartesianDataFamily:
    def side(name: str) -> tuple:
        raw = data_cfg.get(name, [])
        if not isinstance(raw, list):
            raise ConfigError(f"field 'data.cartesian.{name}': must be a list of terms")
        terms = []
        for i, term in enumerate(raw):
            path = f"data.cartesian.{name}[{i}]"
            if not isinstance(term, dict):
                raise ConfigError(f"field {path!r}: must be an object")
            exps = term.get("exponents")
            if not (isinstance(exps, list) and len(exps) == 3):
                raise ConfigError(f"field '{path}.exponents': must have 3 entries")
            exps = _integers(exps, f"{path}.exponents")
            coeffs = _decimals(term.get("coeffs"), f"{path}.coeffs")
            with _refused_as(f"{path}.coeffs", ValueError):
                terms.append((exps, eps_polynomial(coeffs)))
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
                raise ConfigError(f"field '{field}.semi_axes': must have 3 entries")
            axes = _decimals(axes, f"{field}.semi_axes")
            with _refused_as(f"{field}.semi_axes", MeshError):
                return ellipsoid(*axes, subdivisions)
        raise ConfigError(f"field '{field}.builtin': unknown generator {kind!r}")
    raise ConfigError(f"field {field!r}: must specify 'builtin' or 'path'")


def _sphere_radius(geom: dict, key: str) -> float:
    value = _parse_decimal(geom.get(key, 1.0), f"geometry.{key}")
    if value <= 0:
        raise ConfigError(f"field 'geometry.{key}': sphere radius must be positive, got {value!r}")
    return value


def _parse_problem(cfg: dict, subdivisions: int | None = None):
    """The problem and its data; a mesh pair is built at ``subdivisions``,
    by default the config's ``geometry.subdivisions`` (3 if absent)."""
    geom = _require(cfg, "geometry", dict)
    kind = _require(geom, "geometry.kind", str)
    n = int(_require(cfg, "dimension", (int,)))
    data_cfg = _require(cfg, "data", dict)
    if kind == "spheres":
        if "zonal" not in data_cfg:
            raise ConfigError("field 'data': sphere geometry requires zonal data")
        with _refused_as("dimension", ValueError):
            check_dimension(n)
        problem = SphereProblem(n, _sphere_radius(geom, "r_i"), _sphere_radius(geom, "r_o"))
        return problem, _parse_zonal(data_cfg["zonal"])
    if kind == "meshes":
        if n != 3:
            raise ConfigError("field 'dimension': mesh geometry requires n = 3")
        if "cartesian" not in data_cfg:
            raise ConfigError("field 'data': mesh geometry requires cartesian data")
        if subdivisions is None:
            subdivisions = _optional(geom, "geometry.subdivisions", 3, int)
            with _refused_as("geometry.subdivisions", MeshError):
                check_subdivisions(subdivisions)
        pair = GeometryPair(
            _build_mesh(_require(geom, "geometry.inner"), subdivisions, "geometry.inner"),
            _build_mesh(_require(geom, "geometry.outer"), subdivisions, "geometry.outer"),
        )
        return pair, _parse_cartesian(data_cfg["cartesian"])
    raise ConfigError(f"field 'geometry.kind': unknown kind {kind!r}")


def _parse_grid(cfg: dict, signs: str | None = None) -> np.ndarray:
    """The configured grid on ``signs`` (default: the config's), ascending."""
    grid_cfg = _require(cfg, "grid", dict)
    eps_min = float(_require(grid_cfg, "grid.eps_min", (int, float)))
    eps_max = float(_require(grid_cfg, "grid.eps_max", (int, float)))
    count = int(_require(grid_cfg, "grid.count", int))
    config_signs = grid_cfg.get("signs", "both")
    if config_signs not in ("both", "positive", "negative"):
        raise ConfigError(f"field 'grid.signs': unknown value {config_signs!r}")
    with _refused_as("grid", cont.GridError):
        grid = cont.make_grid(eps_min, eps_max, count)
    halves = {"positive": [grid], "negative": [-grid[::-1]], "both": [-grid[::-1], grid]}
    return np.concatenate(halves[signs or config_signs])


def _parse_targets(cfg: dict, solver: cont.Solver) -> cont.TargetSet:
    tcfg = _require(cfg, "targets", dict)
    frame = _require(tcfg, "targets.frame", str)
    if "points" in tcfg and "radii" in tcfg:
        raise ConfigError("field 'targets': give 'points' or 'radii', not both")
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
        pts = np.outer(_decimals(tcfg["radii"], "targets.radii"), solver.axis)
    else:
        raise ConfigError("field 'targets': needs 'points' or 'radii'")
    with _refused_as("targets", ValueError):
        return cont.TargetSet(frame, pts)


def _thresholds(cfg: dict, solver: cont.Solver) -> dict:
    out = {
        "atol": solver.default_atol,
        "rtol_break": cont.DEFAULT_RTOL_BREAK,
        "continue_factor": cont.CONTINUE_FACTOR,
        "break_factor": cont.BREAK_FACTOR,
    }
    raw = cfg.get("thresholds", {})
    for key in out:
        if key in raw:
            path = f"thresholds.{key}"
            out[key] = _non_negative(float(_require(raw, path, (int, float))), path)
    return out


def _fit_params(cfg: dict, solver: cont.Solver) -> tuple[int, str]:
    """Fit degree and basis, checked against the positive grid before any solve."""
    fcfg = cfg.get("fit", {})
    degree = fcfg.get("degree", solver.default_degree)
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ConfigError(f"field 'fit.degree': {degree!r} is not an integer")
    basis = fcfg.get("basis", "auto")
    with _refused_as("fit", cont.FitError):
        cont.check_fit(_parse_grid(cfg, "positive"), degree, basis)
    return degree, basis


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, result: cont.SweepResult) -> None:
    lines = ["eps,frame,target_index,value,cond_estimate"]
    for eps, cond, row in zip(result.grid, _conds(result.conds), result.values):
        for j, value in enumerate(row):
            lines.append(f"{float(eps)!r},{result.frame},{j},{float(value)!r},{cond!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


COND_DIGITS = 6


def _conds(conds) -> list[float]:
    """Condition estimates rounded to COND_DIGITS significant digits.

    The estimate repeats bit for bit across processes at one BLAS thread
    count, but its last digits differ across thread counts, so sweep.csv
    and report.json carry only the digits that agree.
    """
    return [float(f"{c:.{COND_DIGITS}g}") for c in conds]


def _provenance(cfg: dict, solver: cont.Solver) -> dict:
    prov = {"config": cfg, "package": "holelab", "solver": solver.name,
            "geometry": solver.geometry}
    if "run_id" in cfg:
        prov["run_id"] = cfg["run_id"]
    return prov


def _write_report(out_dir: str, report: dict) -> None:
    # the hook gets numpy arrays and non-float scalars; np.float64 is a float
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                          default=lambda obj: obj.tolist())
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


def _swept(cfg, solver, data, targets, out_dir, grid, field: str) -> cont.SweepResult:
    """Sweep ``grid`` and write sweep.csv; ``sweep`` refuses an eps (naming ``field``) first."""
    with _refused_as(field, InadmissibleEpsError, MeshError), _refused_as("targets", DomainError):
        result = cont.sweep(solver.problem, data, grid, targets,
                            eval_clearance_factor=_clearance_factor(cfg))
    _write_csv(os.path.join(out_dir, "sweep.csv"), result)
    return result


def _solve_command(cfg, solver, data, targets, out_dir):
    eps = float(_require(cfg, "eps", (int, float)))
    result = _swept(cfg, solver, data, targets, out_dir, np.array([eps]), "eps")
    return {
        "eps": eps,
        "values": result.values[0],
        "cond_estimate": _conds(result.conds)[0],
    }


def _sweep_command(cfg, solver, data, targets, out_dir):
    result = _swept(cfg, solver, data, targets, out_dir, _parse_grid(cfg), "grid")
    report = {}
    for name, side in (("positive", result.grid > 0), ("negative", result.grid < 0)):
        if side.any():
            report[name] = {"grid": result.grid[side], "cond_estimates": _conds(result.conds[side])}
    return report


def _fit_command(cfg, solver, data, targets, out_dir):
    degree, basis = _fit_params(cfg, solver)
    pos = _swept(cfg, solver, data, targets, out_dir, _parse_grid(cfg, "positive"), "grid")
    fit = cont.fit_series(pos, degree, basis)
    return {
        "eps_scale": fit.eps_scale,
        "degree": fit.degree,
        "basis": fit.basis_labels,
        "coefficients": fit.coeffs,
        "residuals": fit.residuals,
        "full_basis_residuals": fit.full_residuals,
        "design_condition": fit.cond,
    }


def _continuation_command(cfg, solver, data, targets, out_dir):
    degree, basis = _fit_params(cfg, solver)
    thresholds = _thresholds(cfg, solver)
    signed = _swept(cfg, solver, data, targets, out_dir, _parse_grid(cfg, "both"), "grid")
    fit = cont.fit_series(signed.subset(signed.grid > 0), degree, basis)
    report = cont.test_continuation(fit, signed.subset(signed.grid < 0), **thresholds)
    return {
        "verdict": report.verdict,
        "target_verdicts": report.target_verdicts,
        "fit_residuals": report.fit_residuals,
        "full_basis_residuals": fit.full_residuals,
        "extrapolation_errors": report.extrapolation_errors,
        "value_scales": report.value_scales,
        "fit_basis": fit.basis_labels,
        "fit_coefficients": fit.coeffs,
        "eps_scale": fit.eps_scale,
        "thresholds": thresholds,
    }


def _symmetry_command(cfg, solver, data, targets, out_dir):
    zeta = int(_require(cfg, "zeta", int))
    if zeta not in (-1, 1):
        raise ConfigError("field 'zeta': must be +1 or -1")
    claimed = cfg.get("hypothesis_checked", False)
    if not isinstance(claimed, bool):
        raise ConfigError(f"field 'hypothesis_checked': {claimed!r} is not true or false")
    degree, _ = _fit_params(cfg, solver)
    pos = _swept(cfg, solver, data, targets, out_dir, _parse_grid(cfg, "positive"), "grid")
    fit = cont.fit_series(pos, degree, basis="full")
    hypothesis, checked = solver.symmetry_hypothesis(data, zeta, claimed)
    report = cont.test_symmetry(fit, zeta, hypothesis_checked=checked)
    return {
        "zeta": zeta,
        "forbidden_relative": report.forbidden_relative,
        "max_forbidden_relative": report.max_forbidden_relative,
        "forbidden_indices": report.forbidden_indices,
        "hypothesis_checked": report.hypothesis_checked,
        "hypothesis_detail": hypothesis,
        "note": report.note,
        "coefficients": fit.coeffs,
    }


def _summed_coeffs(terms) -> tuple:
    """The eps-polynomial of a sum of constant terms: their coefficients added."""
    total = [0.0] * max(len(coeffs) for _, coeffs in terms)
    for _, coeffs in terms:
        for k, c in enumerate(coeffs):
            total[k] += c
    return tuple(total)


def _observed_orders(errors: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """log(e_k / e_k+1) / log(h_k / h_k+1) for successive rows of ``errors`` and ``edges``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(errors[:-1] / errors[1:]) / np.log(edges[:-1] / edges[1:])


def _convergence_levels(cfg: dict) -> list[int]:
    """The checked subdivision levels of a convergence study.

    The study builds its own meshes, one pair per level, so it needs mesh
    geometry from builtin generators.
    """
    geom = _require(cfg, "geometry", dict)
    if _require(geom, "geometry.kind", str) != "meshes":
        raise ConfigError("field 'geometry': convergence study needs mesh geometry")
    inner, outer = _require(geom, "geometry.inner", dict), _require(geom, "geometry.outer", dict)
    if "path" in inner or "path" in outer:
        raise ConfigError("field 'geometry': convergence study needs builtin generators")
    base = _optional(geom, "geometry.subdivisions", 2, int)
    with _refused_as("geometry.subdivisions", MeshError):
        check_subdivisions(base)
    levels = _integers(cfg.get("subdivision_levels", [base, base + 1, base + 2]),
                       "subdivision_levels")
    for i, s in enumerate(levels):
        with _refused_as(f"subdivision_levels[{i}]", MeshError):
            check_subdivisions(s)
    if len(levels) < 2:
        raise ConfigError("field 'subdivision_levels': need at least two levels")
    if len(set(levels)) < len(levels):
        raise ConfigError("field 'subdivision_levels': a level may appear only once")
    return levels


def _convergence_command(cfg, solver, data, targets, out_dir, levels):
    """One solve per level, every level's pair checked at eps before any solve.

    ``solver.problem`` is the pair of the first level.
    """
    geom = cfg["geometry"]
    inner_spec = geom["inner"]
    outer_spec = geom["outer"]
    eps = float(_require(cfg, "eps", (int, float)))
    clearance = _clearance_factor(cfg)
    pairs = [solver.problem] + [_parse_problem(cfg, s)[0] for s in levels[1:]]
    with _refused_as("eps", MeshError):
        for pair in pairs:
            pair.require_admissible(eps)

    spheres = (
        inner_spec.get("builtin") == "icosphere" and outer_spec.get("builtin") == "icosphere"
    )
    constant_data = all(exp == (0, 0, 0) for exp, _ in data.inner + data.outer)
    use_oracle = spheres and constant_data
    if not use_oracle and len(levels) < 3:
        raise ConfigError("field 'subdivision_levels': Richardson estimate needs 3 levels")

    values = []
    edges = []
    meshes = []
    for s, pair in zip(levels, pairs):
        with _refused_as("targets", DomainError):
            values.append(cont.sweep(pair, data, np.array([eps]), targets,
                                     eval_clearance_factor=clearance).values[0])
        edges.append(pair.outer.mean_edge_length)
        meshes.append({"subdivisions": s, "inner_mesh": pair.inner.stats(),
                       "outer_mesh": pair.outer.stats()})
    values = np.array(values)
    edges = np.array(edges)

    provenance = _provenance(cfg, solver)
    provenance["geometry"] = {"kind": "meshes", "levels": meshes}
    payload = {
        "eps": eps,
        "levels": levels,
        "mean_edge_lengths": edges,
        "values": values,
        "provenance": provenance,
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
        oracle = eval_points(sol, targets.points, targets.frame, {})
        with np.errstate(divide="ignore", invalid="ignore"):
            errors = np.max(np.abs(values - oracle[None, :]) / np.abs(oracle[None, :]), axis=1)
        orders = _observed_orders(errors, edges)
        payload.update({
            "oracle": "spectral",
            "oracle_values": oracle,
            "relative_errors": errors,
            "observed_orders": orders,
            "observed_order": float(np.min(orders)),
        })
        derived = ("relative_errors", "observed_orders", "observed_order")
    else:
        # per-target successive differences stand in for the unknown errors;
        # the spread of the per-target order estimates is the uncertainty
        diffs = np.abs(np.diff(values, axis=0))
        orders = _observed_orders(diffs, edges[:-1, None])
        with np.errstate(invalid="ignore"):  # inf - inf between two undefined orders
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
    return payload


def run(config: dict, out_dir: str = ".", strict: bool = False) -> int:
    """Execute one command and write its report; returns the process exit code."""
    command = _require(config, "command", str)
    if command not in COMMANDS:
        raise ConfigError(f"field 'command': unknown command {command!r}")
    _known_keys(config)
    # a convergence study solves no pair at geometry.subdivisions: its
    # problem is the pair of its first level
    levels = _convergence_levels(config) if command == "convergence" else None
    problem, data = _parse_problem(config, levels[0] if levels else None)
    solver = cont.solver_for(problem)
    targets = _parse_targets(config, solver)
    os.makedirs(out_dir, exist_ok=True)
    handler = {"solve": _solve_command, "sweep": _sweep_command, "fit": _fit_command,
               "continuation": _continuation_command,
               "symmetry": _symmetry_command,
               "convergence": partial(_convergence_command, levels=levels)}[command]
    payload = handler(config, solver, data, targets, out_dir)
    payload["command"] = command
    payload.setdefault("provenance", _provenance(config, solver))
    _write_report(out_dir, payload)
    if strict and payload.get("verdict") == cont.INCONCLUSIVE:
        return EXIT_STRICT_INCONCLUSIVE
    return EXIT_OK


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
            f"holelab: config error: field 'command': {config['command']!r} "
            f"conflicts with CLI command {args.command!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    try:
        return run(config, out_dir=args.out_dir, strict=args.strict)
    except ConfigError as exc:
        print(f"holelab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ValueError) as exc:  # every library refusal derives from one
        print(f"holelab: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
