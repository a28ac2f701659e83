"""Behaviour gate: `utm-sim run` and `compare` must keep writing the same bytes.

tests/golden_digests.json holds sha256 digests of:
- trajectories.csv (key `<scenario>/<algo>/seed=1`), distances.csv,
  events.json, report.json and the echoed scenario.json (the same key plus
  `/<file>`) for every shipped scenario under both controllers at seed 1;
- waypoints.csv written by `plan` for every shipped scenario at seeds 1-3
  (key `plan/<scenario>/seed=<n>/waypoints.csv`);
- every file `compare --seeds 1..2` writes on paper_like_7uav (key
  `compare/paper_like_7uav/seeds=1..2/<relative path>`);
- the stdout of each of those commands, with its output directory replaced by
  `<out>` (the command's key plus `/stdout`).
A change that moves any of them changes what the simulator does and must say
why. The benchmark's own record, bench/digests.json, is read (never written)
for one more gate: its waypoints.csv digests of `plan` on paper_like_5uav and
paper_like_7uav at seeds 1-32.

Re-record (only when an output change is intended):
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
BENCH_DIGESTS = ROOT / "bench" / "digests.json"
SCENARIOS = ("head_on_duel", "paper_like_5uav", "paper_like_7uav", "corner_corridor")
ALGOS = ("vo", "apf")
SEED = 1
RUN_FILES = ("trajectories.csv", "distances.csv", "events.json", "report.json",
             "scenario.json")
PLAN_SEEDS = (1, 2, 3)
COMPARE_SCENARIO = "paper_like_7uav"
COMPARE_SEEDS = "1..2"
COMPARE_PREFIX = f"compare/{COMPARE_SCENARIO}/seeds={COMPARE_SEEDS}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _main(argv: list[str], out: Path) -> str:
    """Run one command writing under `out`; digest of its stdout, `out` as `<out>`."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main([*argv, "--out", str(out)])
    assert code == 0
    text = buf.getvalue().replace(str(out), "<out>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key(scenario: str, algo: str, name: str = "trajectories.csv") -> str:
    key = f"{scenario}/{algo}/seed={SEED}"
    return key if name == "trajectories.csv" else f"{key}/{name}"


def run_digests(scenario: str, algo: str, out: Path) -> dict[str, str]:
    """Golden key -> digest of each file in RUN_FILES written by one `run`, and of its stdout."""
    stdout = _main(["run", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
                    "--algo", algo, "--seed", str(SEED)], out)
    digests = {_key(scenario, algo, name): _sha256(out / name) for name in RUN_FILES}
    digests[_key(scenario, algo, "stdout")] = stdout
    return digests


def plan_digest(scenario: str, seed: int, out: Path) -> dict[str, str]:
    """Golden key -> digest of the waypoints.csv one `plan` writes, and of its stdout."""
    stdout = _main(["plan", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
                    "--seed", str(seed)], out)
    return {f"plan/{scenario}/seed={seed}/waypoints.csv": _sha256(out / "waypoints.csv"),
            f"plan/{scenario}/seed={seed}/stdout": stdout}


def compare_digests(out: Path) -> dict[str, str]:
    """Golden key -> digest of every file the golden `compare` writes, and of its stdout."""
    stdout = _main(["compare", "--scenario", str(ROOT / "scenarios" / f"{COMPARE_SCENARIO}.json"),
                    "--seeds", COMPARE_SEEDS], out)
    digests = {f"{COMPARE_PREFIX}/{p.relative_to(out).as_posix()}": _sha256(p)
               for p in sorted(out.rglob("*")) if p.is_file()}
    digests[f"{COMPARE_PREFIX}/stdout"] = stdout
    return digests


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
    key = _key(scenario, algo)
    assert run_outputs(scenario, algo)[key] == golden[key]


@pytest.mark.parametrize("name", ("distances.csv", "events.json", "report.json", "scenario.json",
                                  "stdout"))
@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_outputs_match_golden_digest(run_outputs, golden, scenario, algo, name):
    key = _key(scenario, algo, name)
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


if __name__ == "__main__":
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            for algo in ALGOS:
                digests.update(run_digests(scenario, algo, Path(tmp) / scenario / algo))
            for seed in PLAN_SEEDS:
                digests.update(plan_digest(scenario, seed, Path(tmp) / "plan" / scenario / str(seed)))
        digests.update(compare_digests(Path(tmp) / "compare"))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
