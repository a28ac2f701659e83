"""Behaviour gate: `utm-sim run` and `compare` must keep writing the same bytes.

tests/golden_check.py lists what tests/golden_digests.json holds, computes
the digests and re-records them; the tests below check each group of them.
A change that moves any of them changes what the simulator does and must say
why. The benchmark's own record, bench/digests.json, is read (never written)
for two more gates: its waypoints.csv digests of `plan` on paper_like_5uav and
paper_like_7uav at seeds 1-32, and its trajectories.csv and report.json
digests of `run` on corner_corridor under both controllers at seeds 1-16.
"""

import json

import pytest

from golden_check import (ALGOS, BENCH_DIGESTS, BENCH_SEEDS, COMPARE_PREFIX, GOLDEN,
                          PLAN_SEEDS, SCENARIOS, bench_mismatches, compare_digests, golden_key,
                          plan_digest, run_digests)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """One `run` per scenario and controller, shared by the tests below."""
    cache: dict[tuple[str, str], dict[str, str]] = {}

    def get(scenario: str, algo: str) -> dict[str, str]:
        if (scenario, algo) not in cache:
            cache[scenario, algo] = run_digests(
                scenario, algo, tmp_path_factory.mktemp(f"{scenario}-{algo}"))
        return cache[scenario, algo]

    return get


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_trajectories_match_golden_digest(run_outputs, golden, scenario, algo):
    key = golden_key(scenario, algo)
    assert run_outputs(scenario, algo)[key] == golden[key]


@pytest.mark.parametrize("name", ("distances.csv", "events.json", "report.json", "scenario.json",
                                  "stdout"))
@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_outputs_match_golden_digest(run_outputs, golden, scenario, algo, name):
    key = golden_key(scenario, algo, name)
    assert run_outputs(scenario, algo)[key] == golden[key]


@pytest.mark.parametrize("seed", PLAN_SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_plan_waypoints_match_golden_digest(tmp_path, golden, scenario, seed):
    keys = [f"plan/{scenario}/seed={seed}/{name}" for name in ("waypoints.csv", "stdout")]
    assert plan_digest(scenario, seed, tmp_path) == {key: golden[key] for key in keys}


def test_compare_outputs_match_golden_digests(tmp_path, golden):
    expected = {k: v for k, v in golden.items() if k.startswith(COMPARE_PREFIX + "/")}
    # stdout, compare.csv, and four files per seed and controller
    assert len(expected) == 2 + 2 * 2 * 4
    assert compare_digests(tmp_path) == expected


def test_plan_waypoints_match_bench_digests(tmp_path):
    bench = json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))
    plans = {key: files["waypoints.csv"] for key, files in bench.items()
             if key.startswith("plan/")}
    assert len(plans) == 64  # two scenarios at seeds 1-32
    mismatched = []
    for key, want in sorted(plans.items()):
        _, scenario, seed = key.split("/")
        seed = int(seed.removeprefix("seed="))
        got = plan_digest(scenario, seed, tmp_path / scenario / str(seed))
        if got[f"{key}/waypoints.csv"] != want:
            mismatched.append(key)
    assert mismatched == []


def test_vo_corner_runs_match_bench_digests(tmp_path):
    assert list(BENCH_SEEDS) == list(range(1, 17))
    assert bench_mismatches(tmp_path, "vo") == []


def test_apf_corner_runs_match_bench_digests(tmp_path):
    # APF along the corridor wall leans on gather_threats' ring scan the most
    assert bench_mismatches(tmp_path, "apf") == []
