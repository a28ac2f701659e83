"""Scenario files, result export, and the `utm-sim` command line.

A scenario is a single JSON document: workspace bounds, rectangle obstacles,
UAV missions, and one flat `params` table. The `params` keys, their defaults
and their checks are the fields of `utm_sim.params.Params`; the loaded
scenario carries one `Params` that every component reads. `_KEYS` declares
each object's file keys once, for the loader and the saver. Unknown or
repeated keys anywhere are rejected. `load_scenario` only parses: each rule
belongs to the type it protects, and `Scenario` checks the rules that link its
parts, for a scenario built in code as for one read from a file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .geom2d import Bounds, Vec2, distance, finite_float
from .metrics import COLLISION_MARKER, RunReport, build_report, path_length
from .obstacle_field import MAX_CIRCLES, MAX_UAV_STEPS, RectObstacle, circle_count
from .params import ALGORITHMS, DEFAULT_BOUNDS, Params
from .rrt_planner import PlanningError, check_endpoints
from .sim_engine import SimResult, UavState, plan_paths, run, run_planned


class ScenarioError(Exception):
    """Scenario file is malformed or semantically invalid."""


_ID_RE = re.compile(r"[A-Za-z0-9_-]+")

_TOP_KEYS = ("name", "bounds", "rectangles", "uavs", "params")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


@dataclass(frozen=True)
class UavSpec:
    id: str
    start: Vec2
    goal: Vec2


# The file format: each entity's keys, in the order a file is written. A file
# gives every key of the first three; each `params` key may be left out. The
# `params` keys are `Params`' fields in order, less the algorithm (it comes
# from the command line) and the bounds (from the top-level `bounds` object).
_KEYS: dict[type, tuple[str, ...]] = {
    Bounds: ("min_x", "min_y", "max_x", "max_y"),
    RectObstacle: ("id", "center", "width", "height"),
    UavSpec: ("id", "start", "goal"),
    Params: tuple(f.name for f in fields(Params) if f.name not in ("algorithm", "bounds")),
}
_VECTORS = ("center", "start", "goal")  # keys stored as [x, y]


@dataclass(frozen=True)
class Scenario:
    """Obstacles, missions and the one parameter table `sim`.

    The workspace bounds, the body radius and every planner and controller
    setting are read from `sim` (`sim.bounds`, `sim.uav_radius`, ...). Every
    rule that links the parts is checked here, for a file and for code alike
    (`dataclasses.replace` too): a broken one raises `ScenarioError`.
    """

    name: str
    rectangles: tuple[RectObstacle, ...]
    uavs: tuple[UavSpec, ...]
    sim: Params

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and self.name != "", "name must be a non-empty string")
        sim, bounds = self.sim, self.sim.bounds
        for kind, items in (("rectangles", self.rectangles), ("uavs", self.uavs)):
            ids = [item.id for item in items]
            for i, id_ in enumerate(ids):
                _require(isinstance(id_, str) and _ID_RE.fullmatch(id_) is not None,
                         f"{kind}[{i}].id must be a non-empty string of [A-Za-z0-9_-], got {id_!r}")
                # "a-b" labels the pair (a, b) in distances.csv and report.json
                _require(kind == "rectangles" or "-" not in id_,
                         f"uavs[{i}].id {id_!r} must not contain '-', the separator of pair labels")
            _require(len(set(ids)) == len(ids), f"{kind[:-1]} ids must be unique")
        for r in self.rectangles:
            _require(bounds.min_x <= r.min_x and r.max_x <= bounds.max_x
                     and bounds.min_y <= r.min_y and r.max_y <= bounds.max_y,
                     f"rectangle '{r.id}' is not fully inside the workspace bounds")
        _require(len(self.uavs) > 0, "uavs must be a non-empty list")
        _require(sum(circle_count(r, sim) for r in self.rectangles) <= MAX_CIRCLES,
                 f"params: circle_spacing {sim.circle_spacing} is too small for the "
                 f"rectangles: they would need more than {MAX_CIRCLES} boundary circles")
        _require(sim.max_steps * len(self.uavs) <= MAX_UAV_STEPS,
                 f"params: max_steps * len(uavs) = {sim.max_steps} * {len(self.uavs)} is more "
                 f"than {MAX_UAV_STEPS}, the UAV-steps one run may record")
        try:
            check_endpoints([(f"uav '{u.id}': {label}", p) for u in self.uavs
                             for label, p in (("start", u.start), ("goal", u.goal))],
                            self.rectangles, sim)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        # strict <, as in the engine's collision scan: touching bodies do not overlap
        gap = 2.0 * sim.uav_radius
        for i, a in enumerate(self.uavs):
            for b in self.uavs[i + 1:]:
                for label, pa, pb in (("starts", a.start, b.start), ("goals", a.goal, b.goal)):
                    _require(distance(pa, pb) >= gap,
                             f"uavs '{a.id}' and '{b.id}' {label} are closer than "
                             f"2 * uav_radius ({gap}); the bodies overlap")


def _check_keys(obj: dict, allowed: Iterable[str], ctx: str) -> None:
    unknown = set(obj).difference(allowed)
    _require(not unknown, f"{ctx}: unknown fields {sorted(unknown)}")


def _vec(value: Any, ctx: str) -> Vec2:
    _require(isinstance(value, list) and len(value) == 2,
             f"{ctx} must be a two-element [x, y] list")
    try:
        return Vec2(finite_float(value[0], f"{ctx}[0]"), finite_float(value[1], f"{ctx}[1]"))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _build(cls: type, ctx: str, kwargs: dict[str, Any]) -> Any:
    """`cls(**kwargs)`; its ValueError becomes a ScenarioError that says where it arose."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _load(cls: type, value: Any, ctx: str) -> Any:
    """`cls` built from `value`, a JSON object with exactly the keys `_KEYS[cls]`."""
    keys = _KEYS[cls]
    _require(isinstance(value, dict), f"{ctx} must be an object")
    _check_keys(value, keys, ctx)
    _require(len(value) == len(keys), f"{ctx} needs {', '.join(keys)}")
    return _build(cls, ctx, {k: _vec(value[k], f"{ctx}.{k}") if k in _VECTORS else value[k]
                             for k in keys})


def _dump(obj: Any) -> dict:
    """`obj`'s file keys and values as a JSON object, each vector as `[x, y]`."""
    values = {k: getattr(obj, k) for k in _KEYS[type(obj)]}
    return {k: [v.x, v.y] if k in _VECTORS else v for k, v in values.items()}


def _unique_keys(pairs: list[tuple[str, Any]], path: Path) -> dict:
    """One JSON object's dict; a key given twice is an error, not its last value."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        _require(key not in obj, f"{path}: repeated key {key!r}")
        obj[key] = value
    return obj


def load_scenario(path: str | Path) -> Scenario:
    """Parse one scenario file: check the document's shape, and leave every other
    rule to the types built from it, `Bounds`, `RectObstacle`, `Params` and `Scenario`.

    Raises ScenarioError for malformed JSON, a repeated key or any broken
    rule; raises OSError when the file cannot be read.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"),
                         object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
    except ValueError as exc:  # also non-UTF-8 bytes and over-long integer literals
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), f"{path}: top level must be a JSON object")
    _check_keys(doc, _TOP_KEYS, str(path))

    bounds = _load(Bounds, doc.get("bounds", _dump(DEFAULT_BOUNDS)), "bounds")
    entities = {}
    for key, cls in (("rectangles", RectObstacle), ("uavs", UavSpec)):
        docs = doc.get(key, [])
        _require(isinstance(docs, list), f"{key} must be a list")
        entities[key] = tuple(_load(cls, item, f"{key}[{i}]") for i, item in enumerate(docs))

    pdoc = doc.get("params", {})
    _require(isinstance(pdoc, dict), "params must be an object")
    _check_keys(pdoc, _KEYS[Params], "params")
    for key, raw in pdoc.items():
        # `Params` reads `inflation=None` as "take uav_radius"; a file gives a number
        _require(raw is not None, f"params.{key} must be a number, got null")
    params = _build(Params, "params", {**pdoc, "bounds": bounds})

    return Scenario(doc.get("name", path.stem), sim=params, **entities)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario as JSON with every parameter explicit.

    Loading the written file reproduces the scenario exactly (round-trip).
    """
    doc = {
        "name": scenario.name,
        "bounds": _dump(scenario.sim.bounds),
        "rectangles": [_dump(r) for r in scenario.rectangles],
        "uavs": [_dump(u) for u in scenario.uavs],
        "params": _dump(scenario.sim),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _trajectory_lines(states: list[tuple[UavState, ...]], dt: float) -> Iterator[str]:
    """trajectories.csv's data lines, time-major: every UAV's sample at one step, then the next.

    Same object, same text: a UAV's `id,x,y,vx,vy` is formatted again only
    when its `UavState` object changes (a parked UAV's never does). `is`, not
    `==`: -0.0 == 0.0, but the two format differently.
    """
    cells: list[UavState | None] = [None] * len(states[0])
    texts = [""] * len(cells)
    for k, row in enumerate(states):
        t_text = "%.6f," % (k * dt)
        for i, u in enumerate(row):
            if u is not cells[i]:
                cells[i] = u
                texts[i] = "%s,%.6f,%.6f,%.6f,%.6f\n" % (
                    u.id, u.position.x, u.position.y, u.velocity.x, u.velocity.y)
            yield t_text + texts[i]


def export_result(result: SimResult, report: RunReport, out_dir: str | Path) -> None:
    """Write trajectories.csv, distances.csv, events.json, and report.json.

    Output is byte-deterministic for identical results: fixed 6-decimal CSV
    formatting (`%.6f`), sorted JSON keys. distances.csv writes
    `report.pair_distances`, so `report` must be `build_report(result)`. Both
    CSV files are streamed line by line rather than joined first, so their
    full text is never held next to that series. Both write `t` as
    `k * params.dt` for the `k`th state. In trajectories.csv a UAV's text is
    formatted once per run of the same `UavState` object (see
    `_trajectory_lines`), which gives the bytes of formatting it on every
    line. distances.csv formats each row in one `%`: one call on a row of
    floats costs less than checking each cell for a repeat.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dt = result.params.dt
    with open(out / "trajectories.csv", "w", encoding="utf-8") as f:
        f.write("t,uav_id,x,y,vx,vy\n")
        f.writelines(_trajectory_lines(result.states, dt))

    series = report.pair_distances
    times = [k * dt for k in range(len(result.states))]
    row_fmt = ",".join(["%.6f"] * (1 + len(series))) + "\n"
    with open(out / "distances.csv", "w", encoding="utf-8") as f:
        f.write(",".join(["t"] + [f"{a}-{b}" for (a, b) in series]) + "\n")
        for row in zip(times, *series.values()):
            f.write(row_fmt % row)

    events = [
        {"t": ev.t, "kind": ev.kind, "details": ev.details} for ev in result.events
    ]
    (out / "events.json").write_text(
        json.dumps(events, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    counts = report.event_counts
    rep = {
        "algorithm": result.params.algorithm,
        "completed": result.completed,
        "steps": result.steps,
        "path_lengths": {
            uid: ("collision" if length is None else length)
            for uid, length in report.path_lengths.items()
        },
        "pair_min_distances": {
            f"{a}-{b}": d for (a, b), d in report.pair_min_distances.items()
        },
        "collision_counts": {kind: counts[kind]
                             for kind in ("uav_uav_collision", "uav_obstacle_collision")},
        "empty_feasible_set_events": counts["empty_feasible_set"],
        "event_counts": counts,
    }
    (out / "report.json").write_text(
        json.dumps(rep, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _parse_seed_range(text: str) -> range:
    m = re.fullmatch(r"(-?\d+)(?:\.\.(-?\d+))?", text)
    if m is None:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}; expected N or N0..N1")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}: end below start")
    return range(lo, hi + 1)


def _path_cell(length: float | None) -> str:
    return COLLISION_MARKER if length is None else f"{length:.2f}"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    sim = replace(scenario.sim, algorithm=args.algo,
                  max_steps=args.max_steps or scenario.sim.max_steps)
    result = run(scenario, sim, args.seed)
    report = build_report(result)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out / "scenario.json")
    export_result(result, report, out)

    status = "completed" if result.completed else "max-steps cutoff"
    print(f"scenario '{scenario.name}' algo={args.algo} seed={args.seed}: "
          f"{status} after {result.steps} steps (t={result.steps * sim.dt:.1f} s)")
    counts = report.event_counts
    print(f"collisions: uav-uav {counts['uav_uav_collision']}, "
          f"uav-obstacle {counts['uav_obstacle_collision']}; "
          f"empty feasible sets: {counts['empty_feasible_set']}")
    for uid, length in report.path_lengths.items():
        print(f"  {uid}: path {_path_cell(length)} m")
    print(f"wrote {out}/{{trajectories.csv,distances.csv,events.json,report.json,scenario.json}}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    paths = plan_paths(scenario, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["uav_id,waypoint_index,x,y"]
    for uid, path in paths.items():
        for i, wp in enumerate(path):
            lines.append("%s,%d,%.6f,%.6f" % (uid, i, wp.x, wp.y))
    (out / "waypoints.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for uid, path in paths.items():
        print(f"{uid}: {len(path)} waypoints, {path_length(path):.2f} m")
    print(f"wrote {out}/waypoints.csv")
    return 0


def _compare_seed(runs: Sequence[Scenario], paths: dict[str, tuple[Vec2, ...]], out: Path) -> dict:
    """Run one seed's plans under each scenario of `runs` into `out / algo`; return path lengths."""
    lengths = {}
    for sc in runs:
        result = run_planned(sc, sc.sim, paths)
        report = build_report(result)
        export_result(result, report, out / sc.sim.algorithm)
        lengths[sc.sim.algorithm] = report.path_lengths
    return lengths


def _compare_batch(runs: Sequence[Scenario], seeds: range, out: Path, staging: Path) -> list:
    """Each seed's path-length table, or the exception that ended it, in seed order.

    Every plan is made here, before any fork; a seed whose planning fails ends
    the list. Planning each seed in the process that runs it instead cut
    `bench/run.py`'s `compare_7uav` `wall_s` by about 12% on 2 vCPUs, but
    raised its `plan_ms_p90` from 0.22-0.25 ms to 0.57-0.66 ms, past that
    metric's bound; probably because after `os.fork` the first write to a page
    that a child still shares copies the page, and planning writes to many
    (new tree objects, reference counts). The first seed runs here, into
    `out`. Each later one runs in a forked child, which exports under
    `staging`, sends its outcome back over a pipe and leaves by `os._exit`, so
    it never returns into this stack. A child that ends without sending one
    (say, killed) gives a `ChildProcessError`, an `OSError`.
    """
    import pickle

    outcomes: list = []  # a seed's plan until it has run
    for seed in seeds:
        try:
            outcomes.append(plan_paths(runs[0], seed))  # reads no controller setting
        except Exception as exc:  # reported after the seeds planned before it
            outcomes.append(exc)
            break
    planned = len(outcomes) - isinstance(outcomes[-1], Exception)
    children = []  # (index, pid, read end of its pipe)
    try:
        for k in range(1, planned):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(r)
                    try:
                        outcome = _compare_seed(runs, outcomes[k], staging / f"seed_{seeds[k]}")
                    except BaseException as exc:
                        outcome = exc
                    with open(w, "wb") as f:
                        f.write(pickle.dumps(outcome))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((k, pid, r))
        if planned:
            outcomes[0] = _compare_seed(runs, outcomes[0], out / f"seed_{seeds[0]}")
    finally:
        for k, pid, r in children:
            with open(r, "rb") as f:
                sent = f.read()
            status = os.waitpid(pid, 0)[1]
            outcomes[k] = pickle.loads(sent) if sent else ChildProcessError(
                f"seed {seeds[k]}: its worker ended with status {status} and no outcome")
    return outcomes


def _publish(staged: Path, out: Path) -> None:
    """Move every file under `staged` to the same place under `out`."""
    for dirpath, _, files in os.walk(staged):
        target = out / os.path.relpath(dirpath, staged)
        target.mkdir(parents=True, exist_ok=True)
        for name in files:
            os.replace(os.path.join(dirpath, name), target / name)


def _cmd_compare(args: argparse.Namespace) -> int:
    import shutil

    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    jobs = min(args.jobs or cores, cores) if hasattr(os, "fork") else 1
    # the loaded scenario, already checked, runs its own controller
    runs = [scenario if a == scenario.sim.algorithm
            else replace(scenario, sim=replace(scenario.sim, algorithm=a)) for a in ALGORITHMS]
    staging = out / f".staging-{os.getpid()}"
    csv_lines = ["seed,uav_id,vo_path_length,apf_path_length"]
    try:
        seeds = args.seeds  # may be longer than sys.maxsize: no len()
        for start in range(seeds.start, seeds.stop, jobs):
            batch = range(start, min(start + jobs, seeds.stop))
            for seed, outcome in zip(batch, _compare_batch(runs, batch, out, staging)):
                _publish(staging / f"seed_{seed}", out / f"seed_{seed}")
                if isinstance(outcome, BaseException):
                    raise outcome
                print(f"seed {seed}:")
                print(f"  {'uav':<12}{'vo_path_m':>12}{'apf_path_m':>12}")
                for u in scenario.uavs:
                    vo_len, apf_len = outcome["vo"][u.id], outcome["apf"][u.id]
                    print(f"  {u.id:<12}{_path_cell(vo_len):>12}{_path_cell(apf_len):>12}")
                    csv_lines.append(f"{seed},{u.id},{_path_cell(vo_len)},{_path_cell(apf_len)}")
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    (out / "compare.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    print(f"wrote {out}/compare.csv")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utm-sim",
        description="Plan, simulate, and compare multi-UAV collision avoidance runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="plan paths and simulate one algorithm")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_run.add_argument("--seed", required=True, type=int)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--max-steps", type=_positive_int, default=None,
                       help="override the scenario step budget")
    p_run.set_defaults(func=_cmd_run)

    p_plan = sub.add_parser("plan", help="plan waypoint paths only")
    p_plan.add_argument("--scenario", required=True)
    p_plan.add_argument("--seed", required=True, type=int)
    p_plan.add_argument("--out", required=True)
    p_plan.set_defaults(func=_cmd_plan)

    p_cmp = sub.add_parser("compare",
                           help="run both algorithms over shared plans and seeds")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--seeds", required=True, type=_parse_seed_range,
                       help="seed range N0..N1 (inclusive) or a single seed")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--jobs", type=_positive_int, default=None,
                       help="seeds run at once, at most the usable cores (default: all of them)")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
