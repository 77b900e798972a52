"""In-memory spans around holelab's public functions, for the traced run.

``install`` replaces each traced function with a wrapper in every holelab
module namespace that binds it (``from .annulus import solve_densities``
makes a second binding in ``holelab.cli`` and ``holelab.continuation``), and
methods on their class.  ``uninstall`` puts every original back.  Spans hold
name, stage, start, end, parent and op id.  A span's self time is its
duration minus the durations of its direct children; per-stage sums of self
time add up to the traced op time.

A span opened under an *absorbing* stage (admissibility, mesh construction,
field evaluation) takes that stage, so e.g. the containment tests and the
distance sweep inside ``GeometryPair.admissibility`` count as admissibility.
Counters are kept at the same boundaries; the four marked computed below are
derived from call arguments, not measured.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter

MODULES = (
    "holelab", "holelab.kernels", "holelab.annulus", "holelab.mesh",
    "holelab.bem", "holelab.continuation", "holelab.cli",
)

ABSORBING = frozenset({"mesh.admissibility", "mesh.build", "bem.eval"})

# Per-layer time metrics: the stages, reported as self seconds per op.
STAGES = (
    "mesh.admissibility", "mesh.build",
    "bem.self_block", "bem.coupling_block", "bem.assemble", "bem.solve", "bem.eval",
    "kernels.eigenvalue", "kernels.zonal",
    "annulus.solve", "annulus.eval",
    "continuation.sweep", "continuation.fit", "continuation.verdict",
    "cli.self",
)

# Counters reported as a mean per op, with their units.
SUM_COUNTERS = {
    "mesh.admissibility_calls": "count",
    "mesh.contains_calls": "count",
    "mesh.distance_pairs": "count",   # computed: points x triangles
    "bem.self_blocks": "count",
    "bem.coupling_blocks": "count",
    "bem.block_entries": "count",     # computed: targets x triangles
    "bem.lu_flops": "flop",           # computed: 2/3 N^3 per solve
    "kernels.eigenvalue_calls": "count",
    "kernels.eigenvalue_misses": "count",
    "annulus.solve_calls": "count",
}
# Counters reported as their extreme over the run.
EXTREME_COUNTERS = {
    "bem.matrix_bytes": "B",          # computed: 8 N^2, largest
    "bem.solve_residual_max": "1",
    "bem.rcond_min": "1",
}


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return 1 if len(shape) == 1 else int(shape[0])


def _count_distance(tracer, stage, args, kwargs, result):
    points, corners = args[0], args[1]
    tracer.add("mesh.distance_pairs", _rows(points) * len(corners))


def _count_block(tracer, stage, args, kwargs, result):
    if stage == "bem.eval":
        return
    targets, mesh = args[0], args[1]
    kind = "bem.self_blocks" if kwargs.get("self_mesh") else "bem.coupling_blocks"
    tracer.add(kind, 1)
    tracer.add("bem.block_entries", _rows(targets) * mesh.n_triangles)


def _count_solve(tracer, stage, args, kwargs, result):
    n = args[0].matrix.shape[0]
    tracer.add("bem.lu_flops", 2.0 / 3.0 * n**3)
    tracer.extreme("bem.matrix_bytes", 8 * n * n, max)
    tracer.extreme("bem.solve_residual_max", float(result.residual), max)
    tracer.extreme("bem.rcond_min", 1.0 / float(result.cond), min)


def _block_stage(args, kwargs):
    return "bem.self_block" if kwargs.get("self_mesh") else "bem.coupling_block"


def _counter(name):
    def count(tracer, stage, args, kwargs, result):
        tracer.add(name, 1)
    return count


# (module, attribute, stage or None for count-only, counter or None);
# "Class.method" attributes are patched on the class.
TARGETS = (
    ("holelab.cli", "run", "cli.self", None),
    ("holelab.continuation", "sweep", "continuation.sweep", None),
    ("holelab.continuation", "fit_series", "continuation.fit", None),
    ("holelab.continuation", "test_continuation", "continuation.verdict", None),
    ("holelab.continuation", "test_symmetry", "continuation.verdict", None),
    ("holelab.continuation", "zonal_symmetry_hypothesis", "continuation.verdict", None),
    ("holelab.annulus", "solve_densities", "annulus.solve", _counter("annulus.solve_calls")),
    ("holelab.annulus", "eval_solution", "annulus.eval", None),
    ("holelab.kernels", "sphere_single_layer_eigenvalue", "kernels.eigenvalue",
     _counter("kernels.eigenvalue_calls")),
    ("holelab.kernels", "zonal", "kernels.zonal", None),
    ("holelab.mesh", "icosphere", "mesh.build", None),
    ("holelab.mesh", "ellipsoid", "mesh.build", None),
    ("holelab.mesh", "load_off", "mesh.build", None),
    ("holelab.mesh", "scale_signed", "mesh.build", None),
    ("holelab.mesh", "GeometryPair.__init__", "mesh.build", None),
    ("holelab.mesh", "GeometryPair.admissibility", "mesh.admissibility",
     _counter("mesh.admissibility_calls")),
    ("holelab.mesh", "TriMesh.contains", None, _counter("mesh.contains_calls")),
    ("holelab.mesh", "points_to_triangles_distance", None, _count_distance),
    ("holelab.bem", "assemble", "bem.assemble", None),
    ("holelab.bem", "single_layer_matrix", _block_stage, _count_block),
    ("holelab.bem", "solve", "bem.solve", _count_solve),
    ("holelab.bem", "eval_field", "bem.eval", None),
)


@dataclass
class Span:
    name: str
    stage: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Tracer:
    """Spans and counters of the current op, folded into run totals at op end."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    op: int = -1
    op_counts: dict = field(default_factory=dict)
    stage_totals: dict = field(default_factory=dict)
    count_totals: dict = field(default_factory=dict)
    extremes: dict = field(default_factory=dict)
    ops: int = 0
    first_op_spans: list = field(default_factory=list)

    def add(self, name: str, amount: float) -> None:
        self.op_counts[name] = self.op_counts.get(name, 0) + amount

    def extreme(self, name: str, value: float, pick) -> None:
        self.extremes[name] = pick(self.extremes.get(name, value), value)

    def begin_op(self, op: int) -> None:
        self.op, self.spans, self.stack, self.op_counts = op, [], [], {}

    def end_op(self, extra_counts: dict | None = None) -> None:
        for stage, seconds in self_times(self.spans).items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + seconds
        for name, amount in {**self.op_counts, **(extra_counts or {})}.items():
            self.count_totals[name] = self.count_totals.get(name, 0) + amount
        if self.ops == 0:
            self.first_op_spans = list(self.spans)
        self.ops += 1

    def metrics(self) -> dict:
        """Per-layer (value, unit): stage self seconds and counters per op, extremes."""
        ops = max(self.ops, 1)
        out = {f"{stage}_s": (self.stage_totals.get(stage, 0.0) / ops, "s") for stage in STAGES}
        out.update({name: (self.count_totals.get(name, 0) / ops, unit)
                    for name, unit in SUM_COUNTERS.items()})
        out.update({name: (self.extremes.get(name, 0.0), unit)
                    for name, unit in EXTREME_COUNTERS.items()})
        return out

    def wrap(self, name: str, stage, counter, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            if stage is None:
                result = fn(*args, **kwargs)
                counter(self, None, args, kwargs, result)
                return result
            parent = self.stack[-1] if self.stack else None
            outer = self.spans[parent].stage if parent is not None else None
            own = stage(args, kwargs) if callable(stage) else stage
            span = Span(name, outer if outer in ABSORBING else own, perf_counter(), 0.0,
                        parent, self.op)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(self, span.stage, args, kwargs, result)
            return result

        return traced


def self_times(spans: list) -> dict:
    """Sum of self time per stage: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    totals: dict = {}
    for i, s in enumerate(spans):
        totals[s.stage] = totals.get(s.stage, 0.0) + (s.end - s.start) - child[i]
    return totals


def install(tracer: Tracer) -> list:
    """Wrap every binding of every target; returns the list that ``uninstall`` takes."""
    modules = [importlib.import_module(m) for m in MODULES]
    patched = []
    try:
        for mod_name, attr, stage, counter in TARGETS:
            home = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, tracer.wrap(attr, stage, counter, original))
                patched.append((owner, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(f"{mod_name.split('.')[-1]}.{attr}", stage, counter, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        patched.append((mod, name, original))
    except BaseException:
        uninstall(patched)
        raise
    return patched


def uninstall(patched: list) -> None:
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)
    patched.clear()
