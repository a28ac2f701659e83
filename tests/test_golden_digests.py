"""Behaviour gate: `utm-sim run` and `compare` must keep writing the same bytes.

tests/golden_check.py lists what tests/golden_digests.json holds, computes
the digests and re-records them; the tests below check each group of them.
A change that moves any of them changes what the simulator does and must say
why. The benchmark's own record, bench/digests.json, is read (never written)
for more gates, one per group of its entries, which together check every
entry: `plan` on paper_like_5uav and paper_like_7uav at seeds 1-32, `run` on
corner_corridor under VO at seeds 1-16 and APF at seeds 1-32, each seed of
`compare` on paper_like_7uav at seeds 1-16, and the 40-step VO runs of
paper_like_7uav at seeds 1-32.
"""

import json

import pytest

from golden_check import (ALGOS, COMPARE_PREFIX, GOLDEN, PLAN_SEEDS, SCENARIOS, bench_mismatches,
                          bench_record, compare_digests, golden_key, plan_digest, run_digests)

# Each group of bench/digests.json, by key prefix, and its number of entries.
BENCH_GROUPS = {"plan/": 64, "run/corner_corridor/vo/": 16, "run/corner_corridor/apf/": 32,
                "compare/paper_like_7uav/": 32, "run/paper_like_7uav/vo/max_steps=40/": 32}


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


def test_bench_groups_are_the_whole_record():
    # the prefixes are disjoint, so equal sizes mean every entry is in a group
    assert {prefix: len(bench_record(prefix)) for prefix in BENCH_GROUPS} == BENCH_GROUPS
    assert sum(BENCH_GROUPS.values()) == len(bench_record()) == 176


def test_plan_waypoints_match_bench_digests(tmp_path):
    assert bench_mismatches(tmp_path, "plan/") == []


def test_vo_corner_runs_match_bench_digests(tmp_path):
    assert bench_mismatches(tmp_path, "run/corner_corridor/vo/") == []


def test_apf_corner_runs_match_bench_digests(tmp_path):
    # APF along the corridor wall leans on gather_threats' ring scan the most
    assert bench_mismatches(tmp_path, "run/corner_corridor/apf/") == []


def test_compare_seeds_match_bench_digests(tmp_path):
    assert bench_mismatches(tmp_path, "compare/paper_like_7uav/") == []


def test_short_vo_runs_match_bench_digests(tmp_path):
    assert bench_mismatches(tmp_path, "run/paper_like_7uav/vo/max_steps=40/") == []
