"""The golden digests of `utm-sim run`, `plan` and `compare`, without pytest.

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

It also checks every entry of the benchmark's own record, bench/digests.json,
which it reads and never writes: the trajectories.csv and report.json digests
of each `run` and of each seed of each `compare`, and the waypoints.csv digest
of each `plan`, for every operation of every workload in bench/workloads.py.
Each operation runs as the benchmark runs it, except that a `compare` runs its
seeds in this process (`--jobs 1`), which writes the same bytes.

This module uses the standard library alone, so any interpreter can recheck
the digests; tests/test_golden_digests.py runs the same checks under pytest.

Check every digest (exit 0 when all match, 1 otherwise):
    PYTHONPATH=src python3 tests/golden_check.py
Re-record tests/golden_digests.json (only when an output change is intended):
    PYTHONPATH=src python3 tests/golden_check.py --record
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from utm_sim.scenario_cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))
from workloads import WORKLOADS, sha256_files  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SCENARIOS = ("head_on_duel", "paper_like_5uav", "paper_like_7uav", "corner_corridor")
ALGOS = ("vo", "apf")
SEED = 1
RUN_FILES = ("trajectories.csv", "distances.csv", "events.json", "report.json",
             "scenario.json")
PLAN_SEEDS = (1, 2, 3)
COMPARE_SCENARIO = "paper_like_7uav"
COMPARE_SEEDS = "1..2"
COMPARE_PREFIX = f"compare/{COMPARE_SCENARIO}/seeds={COMPARE_SEEDS}"
BENCH_DIGESTS = ROOT / "bench" / "digests.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quiet(argv: list[str]) -> str:
    """Run one command; its stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return buf.getvalue()


def _main(argv: list[str], out: Path) -> str:
    """Run one command writing under `out`; digest of its stdout, `out` as `<out>`."""
    text = _quiet([*argv, "--out", str(out)]).replace(str(out), "<out>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_key(scenario: str, algo: str, name: str = "trajectories.csv") -> str:
    key = f"{scenario}/{algo}/seed={SEED}"
    return key if name == "trajectories.csv" else f"{key}/{name}"


def run_digests(scenario: str, algo: str, out: Path) -> dict[str, str]:
    """Golden key -> digest of each file in RUN_FILES written by one `run`, and of its stdout."""
    stdout = _main(["run", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
                    "--algo", algo, "--seed", str(SEED)], out)
    digests = {golden_key(scenario, algo, name): _sha256(out / name) for name in RUN_FILES}
    digests[golden_key(scenario, algo, "stdout")] = stdout
    return digests


def plan_digest(scenario: str, seed: int, out: Path) -> dict[str, str]:
    """Golden key -> digest of the waypoints.csv one `plan` writes, and of its stdout."""
    stdout = _main(["plan", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
                    "--seed", str(seed)], out)
    return {f"plan/{scenario}/seed={seed}/waypoints.csv": _sha256(out / "waypoints.csv"),
            f"plan/{scenario}/seed={seed}/stdout": stdout}


def bench_record(prefix: str = "") -> dict[str, dict[str, str]]:
    """The entries of bench/digests.json whose key starts with `prefix`."""
    bench = json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))
    return {key: files for key, files in bench.items() if key.startswith(prefix)}


def bench_mismatches(out: Path, prefix: str = "") -> list[str]:
    """The keys starting with `prefix` whose digests, from the workload operations
    that check them, differ from bench_record's: a key that no operation checks,
    or that the record lacks, is one too."""
    want, got = bench_record(prefix), {}
    for workload in WORKLOADS.values():
        for op in workload.all_ops():
            checks = [check for check in op.checks() if check[0].startswith(prefix)]
            if checks:
                shutil.rmtree(out, ignore_errors=True)
                _quiet(op.argv(ROOT, out) + (["--jobs", "1"] if op.command == "compare" else []))
                got.update({key: sha256_files(out / sub, files) for key, sub, files in checks})
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


def compare_digests(out: Path) -> dict[str, str]:
    """Golden key -> digest of every file the golden `compare` writes, and of its stdout."""
    stdout = _main(["compare", "--scenario", str(ROOT / "scenarios" / f"{COMPARE_SCENARIO}.json"),
                    "--seeds", COMPARE_SEEDS], out)
    digests = {f"{COMPARE_PREFIX}/{p.relative_to(out).as_posix()}": _sha256(p)
               for p in sorted(out.rglob("*")) if p.is_file()}
    digests[f"{COMPARE_PREFIX}/stdout"] = stdout
    return digests


def all_digests(out: Path) -> dict[str, str]:
    """Every golden key -> the digest this interpreter and checkout give."""
    digests = {}
    for scenario in SCENARIOS:
        for algo in ALGOS:
            digests.update(run_digests(scenario, algo, out / scenario / algo))
        for seed in PLAN_SEEDS:
            digests.update(plan_digest(scenario, seed, out / "plan" / scenario / str(seed)))
    digests.update(compare_digests(out / "compare"))
    return digests


def check(argv: list[str]) -> int:
    if argv not in ([], ["--record"]):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        got = all_digests(Path(tmp))
        bench_missed = [] if argv else bench_mismatches(Path(tmp) / "bench")
    if argv:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    missed = sorted(key for key in golden.keys() | got.keys() if golden.get(key) != got.get(key))
    for key in missed + bench_missed:
        print(f"MISMATCH {key}")
    matched = sum(got.get(key) == digest for key, digest in golden.items())
    print(f"{matched} of {len(golden)} golden digests match (Python {sys.version.split()[0]})")
    bench = bench_record()
    matched = sum(key not in bench_missed for key in bench)
    print(f"{matched} of {len(bench)} bench/digests.json entries match")
    return 1 if missed or bench_missed else 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1:]))
