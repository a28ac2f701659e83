"""Per-layer tracing of utm_sim, installed from outside the program.

`install` replaces every public function of the traced modules with one
wrapper object, in every utm_sim namespace that holds the original (callers
such as `scenario_cli` import `plan_paths` or `run_planned` by name, so
wrapping only the defining module would miss their calls). Mid-level
functions get spans (count, inclusive time, self time); hot leaf functions
get a bare call counter, because a span on each of their millions of calls
would swamp the time being measured. Their time lands in the caller's self
time.

Metric names are `<module>.<function>.<calls|s|self_s>`, using the module that
defines the function, plus the derived counts and ratios in `metrics()`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter_ns

MODULES = ("scenario_cli", "rrt_planner", "sim_engine", "vo_core", "apf_core",
           "obstacle_field", "metrics", "geom2d")

# Functions that get spans; every other public function of MODULES is counted only.
SPANNED = {
    "scenario_cli": ("main", "load_scenario", "save_scenario", "export_result"),
    "rrt_planner": ("plan_path",),
    "sim_engine": ("assign_waypoint", "gather_threats", "detect_collisions", "step",
                   "plan_paths", "build_world", "run_planned", "run"),
    "vo_core": ("avoid", "search_feasible", "prune_feasible", "select_velocity"),
    "apf_core": ("apf_step",),
    "obstacle_field": ("discretize_rectangle",),
    "metrics": ("build_report", "pairwise_distances", "path_length"),
}

ROOT_SPAN = "scenario_cli.main"


class Tracer:
    """Spans and counters for one process. Spans stay in memory until `write_spans`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []  # name, start, end, parent, op
        self.calls: dict[str, list[int]] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {
            "vo_core.candidates_seeded": 0, "vo_core.prune_in": 0, "vo_core.prune_out": 0,
            "vo_core.engaged": 0, "vo_core.empty_set": 0, "sim_engine.threats": 0,
            "obstacle_field.circles": 0, "scenario_cli.export_result.bytes": 0,
        }
        self.rows: list[dict] = []
        self.op = 0
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._plan: tuple[int, float] = (0, 0.0)  # seed and ms of the last plan_paths
        self._row_of_result: dict[int, dict] = {}

    # -- wrappers ---------------------------------------------------------

    def counter(self, name: str, fn):
        cell = self.calls.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def span(self, name: str, fn, after=None):
        cell = self.calls.setdefault(name, [0])
        self.total_ns[name] = 0
        self.self_ns[name] = 0
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, total, own = self.spans, self._stack, self.total_ns, self.self_ns

        def spanned(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1] if stack else None
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                total[name] += dur
                own[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans[frame[0]] = (name_id, t0, t1, -1 if parent is None else parent[0], self.op)
            if after is not None:
                after(args, result, dur)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- observations on return values ------------------------------------

    def _after_search(self, args, fset, dur):
        self.counts["vo_core.candidates_seeded"] += len(fset.candidates)

    def _after_prune(self, args, fset, dur):
        self.counts["vo_core.prune_in"] += len(args[0].candidates)
        self.counts["vo_core.prune_out"] += len(fset.candidates)

    def _after_avoid(self, args, res, dur):
        self.counts["vo_core.engaged"] += res.engaged
        self.counts["vo_core.empty_set"] += res.empty_set

    def _after_gather(self, args, threats, dur):
        self.counts["sim_engine.threats"] += len(threats)

    def _after_discretize(self, args, circles, dur):
        self.counts["obstacle_field.circles"] += len(circles)

    def _after_plan_paths(self, args, paths, dur):
        self._plan = (args[1], dur / 1e6)

    def _after_run_planned(self, args, result, dur):
        scenario, params, paths = args
        row = {"scenario": scenario.name, "algo": params.algorithm, "seed": self._plan[0],
               "plan_ms": self._plan[1], "sim_ms": dur / 1e6, "export_ms": 0.0,
               "steps": result.steps, "uavs": len(paths)}
        self.rows.append(row)
        self._row_of_result[id(result)] = row

    def _after_export(self, args, _, dur):
        out = Path(args[2])
        self.counts["scenario_cli.export_result.bytes"] += sum(
            (out / f).stat().st_size
            for f in ("trajectories.csv", "distances.csv", "events.json", "report.json"))
        row = self._row_of_result.pop(id(args[0]), None)
        if row is not None:
            row["export_ms"] = dur / 1e6

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of MODULES, and the per-object counters."""
        after = {
            "vo_core.search_feasible": self._after_search,
            "vo_core.prune_feasible": self._after_prune,
            "vo_core.avoid": self._after_avoid,
            "sim_engine.gather_threats": self._after_gather,
            "obstacle_field.discretize_rectangle": self._after_discretize,
            "sim_engine.plan_paths": self._after_plan_paths,
            "sim_engine.run_planned": self._after_run_planned,
            "scenario_cli.export_result": self._after_export,
        }
        mods = {m: importlib.import_module(f"utm_sim.{m}") for m in MODULES}
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "utm_sim" or name.startswith("utm_sim.")]
        wrappers = {}
        for m, mod in mods.items():
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{m}.{fname}"
                if fname in SPANNED.get(m, ()):
                    wrappers[fn] = self.span(name, fn, after.get(name))
                else:
                    wrappers[fn] = self.counter(name, fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])

        vec2 = mods["geom2d"].Vec2
        vec2.__post_init__ = self.counter("geom2d.vec2_new", vec2.__post_init__)
        tree = mods["rrt_planner"].RrtTree
        tree.nearest = self.counter("rrt_planner.iterations", tree.nearest)
        tree.add = self.counter("rrt_planner.vertices", tree.add)

    # -- results ----------------------------------------------------------

    def toplevel_ns(self) -> int:
        root = self.names.index(ROOT_SPAN)
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[0] == root)

    def metrics(self) -> dict[str, float]:
        """Counts, inclusive and self times of every wrapped name, plus derived ones."""
        out: dict[str, float] = {}
        for name, cell in self.calls.items():
            out[f"{name}.calls"] = cell[0]
        for name in self.total_ns:
            out[f"{name}.s"] = self.total_ns[name] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        c = self.counts
        for key in ("vo_core.candidates_seeded", "vo_core.empty_set", "sim_engine.threats",
                    "obstacle_field.circles", "scenario_cli.export_result.bytes"):
            out[key] = c[key]
        out["geom2d.vec2_new"] = out.pop("geom2d.vec2_new.calls")
        out["rrt_planner.iterations"] = out.pop("rrt_planner.iterations.calls")
        out["rrt_planner.vertices"] = out.pop("rrt_planner.vertices.calls")
        out["rrt_planner.edge_checks"] = out["geom2d.segment_intersects_rect.calls"]
        out["rrt_planner.accept_ratio"] = _ratio(out["rrt_planner.vertices"],
                                                 out["rrt_planner.iterations"])
        out["vo_core.prune_survival_ratio"] = _ratio(c["vo_core.prune_out"], c["vo_core.prune_in"])
        out["vo_core.engaged_ratio"] = _ratio(c["vo_core.engaged"], out["vo_core.avoid.calls"])
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; `op` is the CLI command the span belongs to."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, op = s
                f.write(json.dumps({"id": i, "parent": parent, "op": op, "name": self.names[name],
                                    "start_ns": t0, "end_ns": t1}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def is_count(name: str) -> bool:
    """Counts and ratios repeat exactly for a given seed; times do not."""
    return not (name.endswith(".s") or name.endswith("_s"))


def unit_of(name: str) -> str:
    if not is_count(name):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"

