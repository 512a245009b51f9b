"""Outside-in span recorder for the coneflow benchmark.

The package itself carries no instrumentation, so the traced run wraps the
public entry points of each module from here.  ``from .x import f`` copies
the binding into the importing module at import time, so wrapping only the
defining module would miss most call sites: :func:`install` rebinds every
module-level name, in every loaded coneflow module, that refers to a wrapped
function.  Spans (name, start, end, parent) stay in memory until
:meth:`Recorder.dump` writes them after the timed body; the benchmark's
parent process loads them and derives the per-layer metrics.

Untraced runs never call :func:`install`, so they run the program
unmodified.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("flow.step.calls", "count"),
    ("flow.step.accepted", "count"),
    ("flow.step.rejected", "count"),
    ("flow.step.self_s", "s"),
    ("flow.step.ms_p50", "ms"),
    ("flow.step.ms_p99", "ms"),
    ("flow.step.ms_p50.N201", "ms"),
    ("flow.step.ms_p99.N201", "ms"),
    ("flow.step.ms_p50.N401", "ms"),
    ("flow.step.ms_p99.N401", "ms"),
    ("flow.steps_per_s", "1/s"),
    ("flow.newton_iters", "count"),
    ("flow.newton_iters_per_step", "1"),
    ("flow.evolve.calls", "count"),
    ("flow.evolve.self_s", "s"),
    ("flow.solve_banded.calls", "count"),
    ("flow.solve_banded.s", "s"),
    ("flow.splu.calls", "count"),
    ("flow.splu.s", "s"),
    ("flow.lu_fill_nnz", "count"),
    ("geometry.rhs.calls", "count"),
    ("geometry.rhs.self_s", "s"),
    ("geometry.rhs.node_evals", "count"),
    ("geometry.rhs_per_newton_iter", "1"),
    ("geometry.mean_curvature.calls", "count"),
    ("geometry.mean_curvature.s", "s"),
    ("geometry.gridfunction.constructions", "count"),
    ("cones.on_grid.calls", "count"),
    ("cones.on_grid.s", "s"),
    ("expander.solve.calls", "count"),
    ("expander.solve.s", "s"),
    ("expander.shots", "count"),
    ("expander.shots_per_profile", "1"),
    ("expander.shots_blown_up", "count"),
    ("expander.shot.ms_p50", "ms"),
    ("expander.shots_per_s", "1/s"),
    ("expander.evaluate_U.calls", "count"),
    ("expander.evaluate_U.s", "s"),
    ("expander.relax.s", "s"),
    ("barriers.lemma_barrier_flow.s", "s"),
    ("barriers.lemma_barrier_flow.self_s", "s"),
    ("barriers.psi_identity_residual.s", "s"),
    ("barriers.psi_identity_residual.self_s", "s"),
    ("barriers.evolution_equation_residuals.s", "s"),
    ("barriers.evolution_equation_residuals.self_s", "s"),
    ("barriers.half_space_experiment.s", "s"),
    ("barriers.half_space_experiment.self_s", "s"),
    ("analysis.graph_area_bound_check.s", "s"),
    ("analysis.graph_area_bound_check.self_s", "s"),
    ("analysis.clearing_out_scaling.s", "s"),
    ("analysis.clearing_out_scaling.self_s", "s"),
    ("experiments.run_main_theorem.s", "s"),
    ("experiments.run_main_theorem.self_s", "s"),
    ("experiments.run_family_uniform.s", "s"),
    ("experiments.run_family_uniform.self_s", "s"),
    ("experiments.subsolution_dominance_experiment.s", "s"),
    ("experiments.subsolution_dominance_experiment.self_s", "s"),
] + [(f"acceptance.criterion.{name}.s", "s") for name in (
    "expander-self-similarity", "cone-dominance", "profile-monotonicity",
    "sup-decay-rate", "two-sided-convergence", "hyperplane-stability",
    "static-barrier", "lemma-barrier-flow", "evolution-equations",
    "psi-identity", "subsolution-dominance", "area-bv-bound",
    "clearing-out-scaling", "family-uniformity")] + [
    ("cli.artifact_bytes", "bytes"),
    ("cli.write_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "1"),
]

# Grid sizes that get their own step-latency metrics (the two grids of the
# refinement study in radial-fixed-dt and criterion 10).
STEP_GRIDS = (201, 401)

# Functions timed as whole phases: (module, attribute).
_PHASES = (
    ("barriers", "lemma_barrier_flow"),
    ("barriers", "psi_identity_residual"),
    ("barriers", "evolution_equation_residuals"),
    ("barriers", "half_space_experiment"),
    ("analysis", "graph_area_bound_check"),
    ("analysis", "clearing_out_scaling"),
    ("experiments", "run_main_theorem"),
    ("experiments", "run_family_uniform"),
    ("experiments", "subsolution_dominance_experiment"),
)


class Recorder:
    """In-memory spans plus the GridFunction construction count."""

    def __init__(self):
        self.name: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.error: dict = {}   # span index -> exception class name
        self.note: dict = {}    # span index -> dict of numbers
        self.gridfunctions = 0
        self._stack: list = []

    def wrap(self, name: str, fn, note=None, prepare=None):
        """Return ``fn`` recording one span per call.

        ``prepare(args, kwargs)`` may edit the keyword arguments before the
        call; ``note(args, kwargs, result)`` returns numbers kept with the
        span.  An exception is recorded on the span and re-raised.
        """
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                prepare(args, kwargs)
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(math.nan)
            self.start.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[idx] = type(exc).__name__
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if note is not None:
                self.note[idx] = note(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.name, "parent": self.parent,
                       "start": self.start, "end": self.end,
                       "error": self.error, "note": self.note,
                       "gridfunctions": self.gridfunctions}, fh)

    @classmethod
    def load(cls, path: str) -> "Recorder":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        rec = cls()
        rec.name, rec.parent = data["name"], data["parent"]
        rec.start, rec.end = data["start"], data["end"]
        rec.error = {int(k): v for k, v in data["error"].items()}
        rec.note = {int(k): v for k, v in data["note"].items()}
        rec.gridfunctions = data["gridfunctions"]
        return rec


# ---------------------------------------------------------------------------
# installing the wrappers


def _rebind(modules, original, wrapper) -> int:
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def _step_stats(args, kwargs):
    # evolve passes a stats dict; relax_angular_expander does not, so give
    # those steps one to report their Newton iteration count.
    if len(args) < 6 and kwargs.get("stats") is None:
        kwargs["stats"] = {}


def _step_note(args, kwargs, result):
    stats = args[5] if len(args) > 5 else kwargs["stats"]
    return {"iters": stats.get("iters", 0), "nodes": args[0].values.size}


def install(rec: Recorder) -> None:
    """Wrap every traced entry point of the loaded coneflow package."""
    import coneflow
    from coneflow import (acceptance, analysis, barriers, cli, cones,
                          expander, experiments, flow, geometry)

    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "coneflow" or k.startswith("coneflow."))]

    def span(mod, attr, name, note=None, prepare=None):
        original = getattr(mod, attr)
        wrapper = rec.wrap(name, original, note, prepare)
        if _rebind(modules, original, wrapper) == 0:
            raise RuntimeError(f"{mod.__name__}.{attr} is bound nowhere")

    span(flow, "step", "flow.step", note=_step_note, prepare=_step_stats)
    span(flow, "evolve", "flow.evolve")
    span(flow, "solve_banded", "flow.solve_banded")
    span(flow, "splu", "flow.splu",
         note=lambda a, k, lu: {"nnz": lu.L.nnz + lu.U.nnz})
    span(geometry, "radial_rhs", "geometry.rhs",
         note=lambda a, k, r: {"nodes": a[0].values.size})
    span(geometry, "graph_rhs", "geometry.rhs",
         note=lambda a, k, r: {"nodes": a[0].values.size})
    span(geometry, "mean_curvature", "geometry.mean_curvature")
    span(expander, "solve_expander_profile", "expander.solve")
    span(expander, "solve_ivp", "expander.shot",
         note=lambda a, k, sol: {"blown_up": int(sol.status == 1)})
    span(expander, "evaluate_U", "expander.evaluate_U")
    span(expander, "relax_angular_expander", "expander.relax")
    for mod_name, attr in _PHASES:
        mod = getattr(coneflow, mod_name)
        span(mod, attr, f"{mod_name}.{attr}")
    span(cli, "_atomic_write", "cli.write",
         note=lambda a, k, r: {"bytes": len(a[1].encode("utf-8"))})

    # methods are looked up on the class at call time
    cones.ConeProfile.on_grid = rec.wrap("cones.on_grid",
                                         cones.ConeProfile.on_grid)
    post_init = geometry.GridFunction.__post_init__

    def counted_post_init(self):
        rec.gridfunctions += 1
        post_init(self)

    geometry.GridFunction.__post_init__ = counted_post_init

    # run_acceptance iterates this tuple, which holds the criterion objects
    acceptance.CRITERIA = tuple(
        (number, name, rec.wrap(f"acceptance.criterion.{name}", fn))
        for number, name, fn in acceptance.CRITERIA)


# ---------------------------------------------------------------------------
# per-layer metrics


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def span_table(rec: Recorder):
    """Per-span duration and self time; self = duration - children."""
    n = len(rec.name)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    self_t = list(dur)
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            self_t[p] -= dur[i]
    return dur, self_t


def layer_metrics(rec: Recorder) -> dict:
    """Every per-layer metric except trace.overhead_ratio, which needs an
    untraced run to compare with."""
    dur, self_t = span_table(rec)
    names, parents = rec.name, rec.parent
    by_name: dict = {}
    for i, nm in enumerate(names):
        by_name.setdefault(nm, []).append(i)

    def outer(nm):
        # spans not nested inside a span of the same name (graph_rhs calls
        # radial_rhs on radial grids)
        return [i for i in by_name.get(nm, ())
                if parents[i] < 0 or names[parents[i]] != nm]

    def total(nm):
        return sum(dur[i] for i in outer(nm))

    def self_total(nm):
        return sum(self_t[i] for i in by_name.get(nm, ()))

    def calls(nm):
        return len(outer(nm))

    def notes(nm, key):
        return [rec.note[i][key] for i in outer(nm) if i in rec.note]

    m: dict = {}
    steps = by_name.get("flow.step", [])
    accepted = [i for i in steps if i not in rec.error]
    step_ms = [1e3 * dur[i] for i in steps]
    iters = sum(rec.note[i]["iters"] for i in accepted)
    m["flow.step.calls"] = len(steps)
    m["flow.step.accepted"] = len(accepted)
    m["flow.step.rejected"] = sum(rec.error.get(i) == "NewtonError" for i in steps)
    m["flow.step.self_s"] = self_total("flow.step")
    m["flow.step.ms_p50"] = _percentile(step_ms, 0.50)
    m["flow.step.ms_p99"] = _percentile(step_ms, 0.99)
    for size in STEP_GRIDS:
        sized = [1e3 * dur[i] for i in accepted if rec.note[i]["nodes"] == size]
        m[f"flow.step.ms_p50.N{size}"] = _percentile(sized, 0.50)
        m[f"flow.step.ms_p99.N{size}"] = _percentile(sized, 0.99)
    step_time = sum(dur[i] for i in steps)
    m["flow.steps_per_s"] = len(accepted) / step_time if step_time > 0 else 0.0
    m["flow.newton_iters"] = iters
    m["flow.newton_iters_per_step"] = iters / len(accepted) if accepted else 0.0
    m["flow.evolve.calls"] = calls("flow.evolve")
    m["flow.evolve.self_s"] = self_total("flow.evolve")
    m["flow.solve_banded.calls"] = calls("flow.solve_banded")
    m["flow.solve_banded.s"] = total("flow.solve_banded")
    m["flow.splu.calls"] = calls("flow.splu")
    m["flow.splu.s"] = total("flow.splu")
    nnz = notes("flow.splu", "nnz")
    m["flow.lu_fill_nnz"] = sum(nnz) / len(nnz) if nnz else 0.0
    m["geometry.rhs.calls"] = calls("geometry.rhs")
    m["geometry.rhs.self_s"] = self_total("geometry.rhs")
    m["geometry.rhs.node_evals"] = sum(notes("geometry.rhs", "nodes"))
    m["geometry.rhs_per_newton_iter"] = (calls("geometry.rhs") / iters
                                         if iters else 0.0)
    m["geometry.mean_curvature.calls"] = calls("geometry.mean_curvature")
    m["geometry.mean_curvature.s"] = total("geometry.mean_curvature")
    m["geometry.gridfunction.constructions"] = rec.gridfunctions
    m["cones.on_grid.calls"] = calls("cones.on_grid")
    m["cones.on_grid.s"] = total("cones.on_grid")
    profiles = calls("expander.solve")
    shots = calls("expander.shot")
    shot_time = total("expander.shot")
    m["expander.solve.calls"] = profiles
    m["expander.solve.s"] = total("expander.solve")
    m["expander.shots"] = shots
    m["expander.shots_per_profile"] = shots / profiles if profiles else 0.0
    m["expander.shots_blown_up"] = sum(notes("expander.shot", "blown_up"))
    m["expander.shot.ms_p50"] = _percentile(
        [1e3 * dur[i] for i in outer("expander.shot")], 0.50)
    m["expander.shots_per_s"] = shots / shot_time if shot_time > 0 else 0.0
    m["expander.evaluate_U.calls"] = calls("expander.evaluate_U")
    m["expander.evaluate_U.s"] = total("expander.evaluate_U")
    m["expander.relax.s"] = total("expander.relax")
    for mod_name, attr in _PHASES:
        m[f"{mod_name}.{attr}.s"] = total(f"{mod_name}.{attr}")
        m[f"{mod_name}.{attr}.self_s"] = self_total(f"{mod_name}.{attr}")
    for name, _unit in PER_LAYER:
        if name.startswith("acceptance.criterion."):
            m[name] = total(name[:-len(".s")])
    m["cli.artifact_bytes"] = sum(notes("cli.write", "bytes"))
    m["cli.write_s"] = total("cli.write")
    m["trace.spans"] = len(names)
    missing = {n for n, _ in PER_LAYER} - set(m) - {"trace.overhead_ratio"}
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return m


def check_tree(rec: Recorder, slack: float = 1e-9) -> list:
    """Inconsistencies in the span tree: open spans, children outside their
    parent, or negative self time.  Empty when the tree is sound."""
    dur, self_t = span_table(rec)
    problems = []
    for i, p in enumerate(rec.parent):
        if not dur[i] >= 0:
            problems.append(f"span {i} ({rec.name[i]}) has duration {dur[i]}")
        if p >= 0 and (rec.start[i] < rec.start[p] or rec.end[i] > rec.end[p]):
            problems.append(f"span {i} ({rec.name[i]}) lies outside parent {p}")
        if self_t[i] < -slack:
            problems.append(f"span {i} ({rec.name[i]}) has self time {self_t[i]}")
    return problems
