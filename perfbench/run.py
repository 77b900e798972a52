"""holelab benchmark: drives ``holelab.cli.run`` on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {bem-sweep,bem-refine,spectral-lab}
                             --seed N --seconds S --trace {0,1}

Runs ops for S seconds (at least one), checks every op's outputs against
references computed here, prints the environment and each metric with its
unit, and ends with one JSON line: correct, attempted, failed, metrics.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
ops untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    threads = usable_cpus()
    for var in BLAS_ENV:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_holelab():
    """Import holelab from this checkout's src/, never from anywhere else."""
    if not (SRC / "holelab" / "__init__.py").is_file():
        raise SystemExit(f"holelab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import holelab

    if Path(holelab.__file__).resolve().parent != SRC / "holelab":
        raise SystemExit(f"imported holelab from {holelab.__file__}, not {SRC}")
    return holelab


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time a cold holelab import plus input generation."""
    start = perf_counter()
    import_holelab()
    workloads.make_ops(workload, seed)
    print(json.dumps({"setup_s": perf_counter() - start}))


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters, so every import is a cold one."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def blas_info() -> dict:
    """BLAS vendor, version and live thread count of numpy's and scipy's OpenBLAS."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    info = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy_blas"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["numpy_blas"] = "unknown"
    for pkg in (np, scipy):
        libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                                      f"{pkg.__name__}.libs", "libscipy_openblas*.so"))
        key = f"{pkg.__name__}_blas_threads"
        info[key] = "unknown"
        for lib in libs:
            try:
                handle = ctypes.CDLL(lib)
                for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                    if hasattr(handle, sym):
                        getter = getattr(handle, sym)
                        getter.restype = ctypes.c_int
                        info[key] = getter()
                        break
            except OSError:
                continue
    return info


def environment(threads: int, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": usable_cpus(),
        "blas_threads_pinned": threads,
        **blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_ops(ops, seconds: float, out_root: Path, eigenvalue, tracer=None) -> list[dict]:
    """Closed loop, one op at a time, until ``seconds`` have passed (at least one op).

    ``eigenvalue`` is the unwrapped, cached ``sphere_single_layer_eigenvalue``.
    """
    import shutil

    from holelab import cli

    records = []
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        i = len(records)
        op = ops[i % len(ops)]
        out_dir = out_root / f"op{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        eigenvalue.cache_clear()  # a fresh holelab process starts cold
        if tracer is not None:
            tracer.begin_op(i)
        error = None
        t0 = perf_counter()
        try:
            code = cli.run(op.config, str(out_dir))
        except Exception as exc:  # a failed op is counted, and the run goes on
            code, error = None, repr(exc)
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_op({"kernels.eigenvalue_misses": eigenvalue.cache_info().misses})
        result = workloads.check(op, code, str(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append({
            "seconds": elapsed, "ok": result.ok, "rel_err": result.rel_err,
            "solves": op.solves, "command": op.config["command"],
            "reason": error or result.reason,
        })
    return records


def end_to_end(records: list[dict], setup_s: float) -> dict:
    import resource

    times = sorted(r["seconds"] for r in records)
    errs = [r["rel_err"] for r in records if r["rel_err"] == r["rel_err"]]
    solved = sum(r["solves"] for r in records if r["ok"])
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p99": (percentile(times, 99), "s"),
        "solves_per_s": (solved / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # 1.0 stands for "no op produced values"; such a run is not correct anyway
        "max_rel_err": (max([workloads.ERR_RESOLUTION, *errs]) if errs else 1.0, "1"),
    }


def per_layer(tracer, untraced: list[dict], traced: list[dict]) -> dict:
    out = tracer.metrics()
    overhead = (statistics.median(r["seconds"] for r in traced)
                - statistics.median(r["seconds"] for r in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    holelab = import_holelab()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment(threads, args.seed)
    for key, value in env.items():
        print(f"env {key} = {value}")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, args.seed)
    out_root = OUT / f"{args.workload}-seed{args.seed}"
    eigenvalue = holelab.kernels.sphere_single_layer_eigenvalue
    records = run_ops(ops, args.seconds, out_root / "untraced", eigenvalue)
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        patched = tracing.install(tracer)
        try:
            traced = run_ops(ops, args.seconds, out_root / "traced", eigenvalue, tracer)
        finally:
            tracing.uninstall(patched)
        metrics = per_layer(tracer, records, traced)
    else:
        metrics = end_to_end(records, setup_s)

    everything = records + traced
    failed = [r for r in everything if not r["ok"]]
    undecided = sum(r["ok"] and r["reason"] == workloads.UNDECIDED for r in everything)
    print(f"ops {len(records)} untraced, {len(traced)} traced; failed {len(failed)} "
          f"(failed_ratio {len(failed) / len(everything):.6g}); "
          f"allowed INCONCLUSIVE verdicts {undecided}")
    for r in failed[:5]:
        print(f"failed op ({r['command']}): {r['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    OUT.mkdir(parents=True, exist_ok=True)
    summary = {"environment": env, "workload": args.workload, "trace": args.trace,
               "metrics": {k: v for k, (v, _) in metrics.items()}, "ops": everything}
    if args.trace:
        summary["first_op_spans"] = [vars(s) for s in tracer.first_op_spans]
    (out_root.parent / f"{out_root.name}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, default=str))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
