"""utm-sim benchmark: times the `utm-sim` commands users run, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload vo_corner --seed 1 --seconds 30 --trace 0

Each pass runs one unit of the workload (see workloads.py) in a fresh
interpreter, so every pass pays and reports its own import time and peak
memory, as a `utm-sim` invocation does. Passes repeat until `--seconds` is
used up.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes of the workload seed's first unit and reports the per-layer
metrics, the tracing overhead and per-run rows; it writes its spans to
.bench_out/. Every operation's outputs are checked against bench/digests.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines before it restate every metric with its unit and
sample count, and .bench_out/ keeps the full result with the commit, core
count and Python and numpy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PASS_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))
from tracer import is_count, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "uav_steps_per_s": "1/s", "step_ms_p50": "ms",
    "step_ms_p99": "ms", "plan_ms_p50": "ms", "plan_ms_p90": "ms", "peak_rss_mb": "MB",
}

# Per-layer metrics reported on the last line with --trace 1 (all are kept in .bench_out/).
PER_LAYER = (
    "vo_core.avoid.calls", "vo_core.avoid.self_s",
    "vo_core.search_feasible.calls", "vo_core.search_feasible.self_s",
    "vo_core.prune_feasible.calls", "vo_core.prune_feasible.self_s",
    "vo_core.select_velocity.self_s", "vo_core.collision_cone.calls", "vo_core.in_cone.calls",
    "vo_core.candidates_seeded", "vo_core.prune_survival_ratio", "vo_core.engaged_ratio",
    "vo_core.empty_set",
    "geom2d.vec2_new", "geom2d.point_rect_distance.calls", "geom2d.distance.calls",
    "sim_engine.step.calls", "sim_engine.step.self_s",
    "sim_engine.gather_threats.calls", "sim_engine.gather_threats.self_s", "sim_engine.threats",
    "sim_engine.detect_collisions.self_s", "sim_engine.assign_waypoint.self_s",
    "sim_engine.build_world.s", "sim_engine.run_planned.s", "sim_engine.plan_paths.s",
    "apf_core.apf_step.calls", "apf_core.apf_step.self_s",
    "scenario_cli.main.self_s", "scenario_cli.load_scenario.s", "scenario_cli.save_scenario.s",
    "scenario_cli.export_result.self_s", "scenario_cli.export_result.bytes",
    "metrics.build_report.self_s", "metrics.pairwise_distances.calls",
    "metrics.pairwise_distances.s", "metrics.path_length.s",
    "rrt_planner.plan_path.calls", "rrt_planner.plan_path.self_s", "rrt_planner.iterations",
    "rrt_planner.vertices", "rrt_planner.accept_ratio", "rrt_planner.edge_checks",
    "obstacle_field.discretize_rectangle.calls", "obstacle_field.discretize_rectangle.s",
    "obstacle_field.circles",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.toplevel_s",
    "trace.unattributed_s",
)


@dataclass
class Metric:
    value: float
    unit: str
    n: int  # samples
    note: str = ""


def percentile(values: list[float], p: float) -> Metric:
    """Nearest-rank percentile; falls back to the highest one with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(p / 100.0 * n))
    note = ""
    if p > 50 and n - rank < 10:
        rank = max(1, n - 10)
        note = f"p{100.0 * rank / n:.1f}: fewer than ten samples beyond p{p:g}"
    return Metric(xs[rank - 1], "ms", n, note)


def run_pass(workload: str, unit: int, traced: bool, tag: str, spans: Path | None = None) -> dict:
    spec = {"workload": workload, "unit": unit, "trace": traced, "out": str(OUT / f"work-{tag}"),
            "spans": str(spans) if spans else None}
    started = time.monotonic()
    spec["spawned"] = started
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"pass {tag}: {exc!r}", file=sys.stderr)
        result = None
    if result is None:
        ops = sum(len(op.checks()) for op in WORKLOADS[workload].ops(unit))
        result = {"attempted": ops, "failed": ops, "unverified": 0, "digests": {},
                  "failures": [f"pass {tag}: worker failed"]}
    result["elapsed"] = time.monotonic() - started
    result["unit"] = unit
    return result


def run_passes(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list, list]:
    """Untraced and traced passes until the time is up (at least one of each asked for)."""
    order = WORKLOADS[workload].unit_order(seed)
    deadline = time.monotonic() + seconds
    plain: list[dict] = []
    traced_passes: list[dict] = []
    k = 0
    while True:
        t0 = time.monotonic()
        if traced:
            plain.append(run_pass(workload, order[0], False, f"{os.getpid()}-{k}p"))
            spans = OUT / f"{workload}-seed{seed}-spans.jsonl" if k == 0 else None
            traced_passes.append(run_pass(workload, order[0], True, f"{os.getpid()}-{k}t", spans))
        else:
            plain.append(run_pass(workload, order[k % len(order)], False, f"{os.getpid()}-{k}"))
        k += 1
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            return plain, traced_passes


def check_outputs(passes: list[dict]) -> tuple[int, int, int, list[str]]:
    """Totals of attempted, failed and unverified operations; repeats must agree too."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    unverified = sum(p["unverified"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    first: dict[str, dict] = {}
    for p in passes:
        for key, got in p["digests"].items():
            if first.setdefault(key, got) != got:
                failed += 1
                failures.append(f"{key}: output differs between passes")
    return attempted, failed, unverified, failures


def end_to_end(passes: list[dict]) -> dict[str, Metric]:
    ok = [p for p in passes if "wall_s" in p]
    if not ok:
        return {}
    n = len(ok)
    med = statistics.median
    steps = [x for p in ok for x in p["step_ms"]]
    plans = [x for p in ok for x in p["plan_ms"]]
    out = {
        "setup_s": Metric(med(p["setup_s"] for p in ok), "s", n),
        "wall_s": Metric(med(p["wall_s"] for p in ok), "s", n),
        "uav_steps_per_s": Metric(med(p["uav_steps"] / p["wall_s"] for p in ok), "1/s", n),
        "peak_rss_mb": Metric(med(p["peak_rss_mb"] for p in ok), "MB", n),
    }
    if steps:
        out["step_ms_p50"] = percentile(steps, 50)
        out["step_ms_p99"] = percentile(steps, 99)
    if plans:
        out["plan_ms_p50"] = percentile(plans, 50)
        out["plan_ms_p90"] = percentile(plans, 90)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, Metric], list[str]]:
    """Counts from the first traced pass, times as medians; counts must repeat exactly."""
    ok = [p for p in traced if "layers" in p]
    plain_ok = [p for p in plain if "wall_s" in p]
    if not ok or not plain_ok:
        return {}, ["no traced pass completed"]
    first = ok[0]["layers"]
    problems = [f"{name}: {first[name]} then {p['layers'][name]} on a repeat"
                for p in ok[1:] for name in first
                if is_count(name) and p["layers"][name] != first[name]]
    med = statistics.median
    n = len(ok)
    out = {name: Metric(first[name] if is_count(name) else med(p["layers"][name] for p in ok),
                        unit_of(name), n)
           for name in sorted(first)}
    wall = med(p["wall_s"] for p in ok)
    plain_wall = med(p["wall_s"] for p in plain_ok)
    out["trace.wall_s"] = Metric(wall, "s", n)
    out["trace.untraced_wall_s"] = Metric(plain_wall, "s", len(plain_ok))
    out["trace.overhead_s"] = Metric(wall - plain_wall, "s", n, "traced minus untraced wall_s")
    out["trace.toplevel_s"] = Metric(med(p["toplevel_s"] for p in ok), "s", n,
                                     "time inside scenario_cli.main spans")
    out["trace.unattributed_s"] = Metric(med(p["wall_s"] - p["toplevel_s"] for p in ok), "s", n,
                                         "pass wall time outside any top-level span")
    return out, problems


def run_rows(traced: list[dict]) -> list[dict]:
    """One row per scenario x algo x seed, medians over the traced repeats."""
    groups: dict[tuple, list[dict]] = {}
    for p in traced:
        for row in p.get("rows", []):
            groups.setdefault((row["scenario"], row["algo"], row["seed"]), []).append(row)
    rows = []
    for (scenario, algo, seed), rs in groups.items():
        sim_ms = statistics.median(r["sim_ms"] for r in rs)
        uav_steps = rs[0]["steps"] * rs[0]["uavs"]
        rows.append({
            "scenario": scenario, "algo": algo, "seed": seed, "repeats": len(rs),
            "plan_ms": statistics.median(r["plan_ms"] for r in rs), "sim_ms": sim_ms,
            "export_ms": statistics.median(r["export_ms"] for r in rs),
            "steps": rs[0]["steps"], "us_per_uav_step": 1000.0 * sim_ms / max(uav_steps, 1),
        })
    return rows


def environment(passes: list[dict]) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "utm_sim").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "commit": commit, "src_sha256": src.hexdigest(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": next((p["numpy"] for p in passes if "numpy" in p), "unknown"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "utm_sim" / "__init__.py", ROOT / "scenarios",
                           BENCH / "digests.json") if not p.exists()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, unverified, failures = check_outputs(plain + traced)
    problems: list[str] = []
    if args.trace:
        metrics, problems = per_layer(plain, traced)
        names = PER_LAYER
    else:
        metrics = end_to_end(plain)
        names = tuple(END_TO_END_UNITS)
    absent = [n for n in names if n not in metrics]
    problems += [f"metric {n} has no samples" for n in absent]
    correct = failed == 0 and unverified == 0 and not problems

    env = environment(plain + traced)
    rows = run_rows(traced)
    print(f"# utm-sim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# passes={len(plain)} untraced, {len(traced)} traced; operations attempted={attempted} "
          f"failed={failed} unverified={unverified} "
          f"ops_failed_frac={failed / max(attempted, 1):.4f}")
    for msg in failures + problems:
        print(f"# FAIL {msg}")
    for name, m in metrics.items():
        print(f"{name} {m.value:.6g} {m.unit} n={m.n}" + (f" ({m.note})" if m.note else ""))
    for r in rows:
        print(f"row {r['scenario']} {r['algo']} seed={r['seed']} plan_ms={r['plan_ms']:.2f} "
              f"sim_ms={r['sim_ms']:.1f} export_ms={r['export_ms']:.1f} steps={r['steps']} "
              f"us_per_uav_step={r['us_per_uav_step']:.1f} repeats={r['repeats']}")

    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": attempted, "failed": failed, "unverified": unverified,
        "failures": failures + problems,
        "metrics": {k: {"value": m.value, "unit": m.unit, "samples": m.n, "note": m.note}
                    for k, m in metrics.items()},
        "rows": rows,
        "passes": [{k: p.get(k) for k in ("unit", "elapsed", "setup_s", "wall_s", "peak_rss_mb",
                                          "uav_steps", "attempted", "failed")}
                   for p in plain + traced],
    }, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n].value, "unit": metrics[n].unit}
                    for n in names if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
