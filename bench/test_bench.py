"""Tests of the benchmark itself: run with `PYTHONPATH=src python3 -m pytest -q bench`.

The workload tests run each workload at its smallest size (`--seconds 0`:
one pass, or one untraced and one traced pass).
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import is_count  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# For each workload, layers that must do work on it, and layers it must bypass.
MAIN_LAYERS = {
    "compare_7uav": (("vo_core.search_feasible.calls", "sim_engine.gather_threats.calls",
                      "sim_engine.detect_collisions.calls", "obstacle_field.discretize_rectangle.calls",
                      "obstacle_field.circles", "apf_core.apf_step.calls"), ()),
    "vo_corner": (("vo_core.avoid.calls", "vo_core.search_feasible.calls", "vo_core.in_cone.calls",
                   "vo_core.candidates_seeded", "geom2d.vec2_new",
                   "geom2d.point_rect_distance.calls"), ("apf_core.apf_step.calls",)),
    "apf_corner": (("apf_core.apf_step.calls", "sim_engine.step.calls",
                    "sim_engine.gather_threats.calls", "sim_engine.threats",
                    "scenario_cli.export_result.bytes", "metrics.pairwise_distances.calls"),
                   ("vo_core.avoid.calls",)),
    "plan_sweep": (("rrt_planner.plan_path.calls", "rrt_planner.iterations",
                    "rrt_planner.vertices", "rrt_planner.edge_checks"), ()),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_file(workload: str, trace: int) -> dict:
    path = ROOT / ".bench_out" / f"{workload}-seed1-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_report(proc: subprocess.CompletedProcess, names) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == list(names)
    for name, m in last["metrics"].items():
        assert NAME.fullmatch(name)
        assert m["unit"] and isinstance(m["value"], (int, float))
        assert re.search(rf"^{re.escape(name)} \S+ {re.escape(m['unit'])} n=\d+",
                         proc.stdout, re.M), name
    return last


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_smoke(workload):
    last = check_report(bench(workload, 0), run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert last["metrics"][name]["unit"] == unit
        assert last["metrics"][name]["value"] > 0, name
    env = result_file(workload, 0)["environment"]
    assert {"commit", "nproc", "python", "numpy", "src_sha256"} <= set(env)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        check_report(bench(workload, 1), run.PER_LAYER)
        runs.append(result_file(workload, 1))
    first, second = ({k: m["value"] for k, m in r["metrics"].items()} for r in runs)
    counts = [k for k in first if is_count(k)]
    assert counts and all(NAME.fullmatch(k) for k in first)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    busy, bypassed = MAIN_LAYERS[workload]
    for name in busy:
        assert first[name] > 0, name
    for name in bypassed:
        assert first[name] == 0, name
    assert first["trace.toplevel_s"] > 0.9 * first["trace.wall_s"]
    row = runs[0]["rows"][0]
    assert {"plan_ms", "sim_ms", "export_ms", "steps", "us_per_uav_step"} <= set(row)


def test_every_reachable_operation_has_a_digest():
    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    keys = {key for w in WORKLOADS.values() for op in w.all_ops() for key, _, _ in op.checks()}
    assert keys == set(digests)


def test_digest_check_fails_mismatch_and_never_passes_unverified(tmp_path):
    from utm_sim import scenario_cli
    op = Op("plan", "paper_like_5uav", (1,))
    with contextlib.redirect_stdout(io.StringIO()):
        code = scenario_cli.main(op.argv(ROOT, tmp_path / "0"))
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    key = op.checks()[0][0]
    tampered = {key: {"waypoints.csv": "0" * 64}}
    ok = worker.verify([op], [code], tmp_path, recorded)
    bad = worker.verify([op], [code], tmp_path, tampered)
    unknown = worker.verify([op], [code], tmp_path, {})
    crashed = worker.verify([op], [3], tmp_path, recorded)
    assert (ok["attempted"], ok["failed"], ok["unverified"]) == (1, 0, 0)
    assert (bad["failed"], bad["unverified"]) == (1, 0)
    assert (unknown["failed"], unknown["unverified"]) == (0, 1)
    assert (crashed["failed"], crashed["unverified"]) == (1, 0)


def test_outputs_that_differ_between_passes_fail():
    a = {"attempted": 1, "failed": 0, "unverified": 0, "failures": [], "digests": {"k": {"f": "1"}}}
    b = dict(a, digests={"k": {"f": "2"}})
    assert run.check_outputs([a, a])[1] == 0
    assert run.check_outputs([a, b])[1] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.percentile(list(range(1, 1001)), 99).value == 990
    short = run.percentile(list(range(1, 51)), 90)
    assert short.value == 40 and short.note


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("vo_corner", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
