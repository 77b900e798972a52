"""Tests of the benchmark's own code: spans, names, checks and wrappers.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import csv
import json
import re
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import Span, Tracer, self_times

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.run", "cli.self", 0.0, 10.0, None, 0),
        Span("continuation.sweep", "continuation.sweep", 1.0, 4.0, 0, 0),
        Span("annulus.solve_densities", "annulus.solve", 2.0, 3.0, 1, 0),
        Span("annulus.solve_densities", "annulus.solve", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx(
        {"cli.self": 3.0, "continuation.sweep": 2.0, "annulus.solve": 5.0}
    )
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_absorbing_stage_takes_children_and_counters_skip_eval_blocks():
    tracer = Tracer()
    inner = tracer.wrap("bem.single_layer_matrix", tracing._block_stage,
                        tracing._count_block, lambda targets, mesh, self_mesh=False: 1)

    class Mesh:
        n_triangles = 5

    def evaluate():
        return inner([[0.0, 0.0, 0.0]] * 3, Mesh())

    outer = tracer.wrap("bem.eval_field", "bem.eval", None, evaluate)
    tracer.begin_op(0)
    outer()
    inner([[0.0, 0.0, 0.0]] * 4, Mesh(), self_mesh=True)
    tracer.end_op()
    assert [s.stage for s in tracer.first_op_spans] == ["bem.eval", "bem.eval", "bem.self_block"]
    assert tracer.count_totals == {"bem.self_blocks": 1, "bem.block_entries": 20}


def _declared(section):
    return [(m["name"], m["unit"]) for m in json.loads(BENCHMARK_JSON.read_text())[section]]


def test_metric_names_are_valid_and_match_the_benchmark_file():
    records = [{"seconds": 1.0, "ok": True, "rel_err": 0.1, "solves": 2}]
    e2e = run.end_to_end(records, 0.5)
    layers = run.per_layer(Tracer(), records, records)
    for name in [*e2e, *layers]:
        assert NAME.fullmatch(name), name
    assert [(k, unit) for k, (_, unit) in e2e.items()] == _declared("end_to_end")
    assert [(k, unit) for k, (_, unit) in layers.items()] == _declared("per_layer")


def _spectral_op(command):
    return next(op for op in workloads.make_ops(workloads.SPECTRAL, 0)
                if op.config["command"] == command)


def _write_outputs(out_dir: Path, op, verdict=None, bump=0.0):
    """Outputs a correct run would write, optionally with a wrong verdict or value."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = workloads.SpectralReference(op.config)
    with open(out_dir / "sweep.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["eps", "frame", "target_index", "value", "cond_estimate"])
        for k, eps in enumerate(workloads._expected_grid(op.config)):
            for j, v in enumerate(ref.values(eps)):
                w.writerow([eps, ref.frame, j, v + (bump if k == 0 and j == 0 else 0.0), 1.0])
    report = {"command": op.config["command"], **op.expect}
    if verdict is not None:
        report["verdict"] = verdict
    (out_dir / "report.json").write_text(json.dumps(report))


def test_correct_outputs_pass_the_check(tmp_path):
    op = _spectral_op("continuation")
    _write_outputs(tmp_path, op)
    result = workloads.check(op, 0, str(tmp_path))
    assert result.ok and result.rel_err < 1e-15


@pytest.mark.parametrize("fault", ["verdict", "value", "exit"])
def test_forced_fault_fails_the_op(tmp_path, fault):
    op = _spectral_op("continuation")
    wrong = {"CONTINUES": "BREAKS", "BREAKS": "CONTINUES"}[op.expect["verdict"]]
    _write_outputs(tmp_path, op, verdict=wrong if fault == "verdict" else None,
                   bump=1e-3 if fault == "value" else 0.0)
    result = workloads.check(op, 3 if fault == "exit" else 0, str(tmp_path))
    assert not result.ok, result


def test_failed_op_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    from holelab import cli, kernels

    op = _spectral_op("continuation")
    outcomes = iter([RuntimeError("solver blew up"), "INCONCLUSIVE"])

    def faulty_run(config, out_dir="."):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        _write_outputs(Path(out_dir), op, verdict=outcome)
        return 0

    clock = iter(range(100))
    monkeypatch.setattr(cli, "run", faulty_run)
    monkeypatch.setattr(run, "perf_counter", lambda: float(next(clock)))
    # the fake clock ticks once per reading: two ops fit in 5.5 ticks
    records = run.run_ops([op], 5.5, tmp_path, kernels.sphere_single_layer_eigenvalue)
    assert [r["ok"] for r in records] == [False, False]
    assert "solver blew up" in records[0]["reason"]
    assert "verdict" in records[1]["reason"]


def test_reference_matches_solve_modes_where_it_is_well_conditioned():
    from holelab.annulus import SphereProblem, ZonalDataFamily, eval_solution, solve_modes
    from holelab.continuation import axis_targets

    checked = 0
    for op in workloads.make_ops(workloads.SPECTRAL, 1)[:80]:
        cfg = op.config
        if cfg["grid"]["eps_max"] < 0.3:
            continue  # the unscaled 2x2 systems of solve_modes trip its guard there
        ref = workloads.SpectralReference(cfg)
        prob = SphereProblem(cfg["dimension"], 1.0, cfg["geometry"]["r_o"])
        targets = axis_targets(prob, ref.radii, ref.frame)
        data = ZonalDataFamily(
            inner={l: tuple(c) for l, c in ref.inner.items()},
            outer={l: tuple(c) for l, c in ref.outer.items()},
        )
        eps = -cfg["grid"]["eps_max"]
        sol = solve_modes(prob, data, eps)
        want = [eval_solution(sol, p, ref.frame) for p in targets.points]
        got = ref.values(eps)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(map(abs, want))
        checked += 1
    assert checked >= 40


def test_wrappers_are_installed_everywhere_and_removed_after_the_traced_run(tmp_path):
    import holelab
    from holelab import annulus, bem, cli, continuation, kernels, mesh

    bindings = [
        (annulus, "solve_densities"), (continuation, "solve_densities"),
        (cli, "solve_densities"), (holelab, "solve_densities"),
        (mesh, "scale_signed"), (bem, "scale_signed"),
        (kernels, "sphere_single_layer_eigenvalue"), (annulus, "sphere_single_layer_eigenvalue"),
        (mesh.GeometryPair, "admissibility"), (cli, "run"),
    ]
    originals = [getattr(owner, name) for owner, name in bindings]
    eigenvalue = kernels.sphere_single_layer_eigenvalue
    tracer = Tracer()
    patched = tracing.install(tracer)
    try:
        for (owner, name), original in zip(bindings, originals):
            assert getattr(owner, name) is not original, name
        records = run.run_ops([_spectral_op("continuation")], 0.0, tmp_path, eigenvalue, tracer)
    finally:
        tracing.uninstall(patched)
    for (owner, name), original in zip(bindings, originals):
        assert getattr(owner, name) is original, name
    assert records[0]["ok"], records[0]["reason"]
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    assert metrics["annulus.solve_calls"] == 2 * workloads.SPECTRAL_GRID["count"]
    assert metrics["kernels.eigenvalue_misses"] >= 1
    stage_sum = sum(metrics[f"{s}_s"] for s in tracing.STAGES)
    assert stage_sum == pytest.approx(records[0]["seconds"], rel=0.05)
