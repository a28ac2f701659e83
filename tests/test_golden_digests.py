"""Behaviour gate: `utm-sim run` must keep writing byte-identical trajectories.

tests/golden_digests.json holds the sha256 of trajectories.csv for every
shipped scenario under both controllers at seed 1. A change that moves any of
them changes what the simulator does and must say why.

Re-record (only when a trajectory change is intended):
    PYTHONPATH=src python3 tests/test_golden_digests.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from utm_sim.scenario_cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SCENARIOS = ("head_on_duel", "paper_like_5uav", "paper_like_7uav", "corner_corridor")
ALGOS = ("vo", "apf")
SEED = 1


def trajectory_digest(scenario: str, algo: str, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
                     "--algo", algo, "--seed", str(SEED), "--out", str(out)])
    assert code == 0
    return hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest()


def _key(scenario: str, algo: str) -> str:
    return f"{scenario}/{algo}/seed={SEED}"


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_trajectories_match_golden_digest(tmp_path, scenario, algo):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert trajectory_digest(scenario, algo, tmp_path) == golden[_key(scenario, algo)]


if __name__ == "__main__":
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            for algo in ALGOS:
                digests[_key(scenario, algo)] = trajectory_digest(
                    scenario, algo, Path(tmp) / scenario / algo)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
