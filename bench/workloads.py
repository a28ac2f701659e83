"""Benchmark workloads: which `utm-sim` commands one pass runs, and on what seeds.

A workload is a list of units; a unit is the set of CLI commands one pass runs
in one fresh process. The workload seed only picks the order in which a run
walks the units, so a run of any seed covers (nearly) the same fixed set of
run seeds. That is deliberate: the cost of one command varies by about 15%
from one run seed to the next, and a run that sampled a fresh subset of seeds
would carry that variation into every median it reports. Every run seed a
unit can use has a recorded output digest, so every operation is verified.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SHORT_RUN_STEPS = 40


@dataclass(frozen=True)
class Op:
    """One `utm-sim` command. A `compare` op covers a seed range."""

    command: str  # "run", "plan" or "compare"
    scenario: str  # scenario file stem under scenarios/
    seeds: tuple[int, ...]
    algo: str | None = None
    max_steps: int | None = None

    def argv(self, root: Path, out: Path) -> list[str]:
        argv = [self.command, "--scenario", str(root / "scenarios" / f"{self.scenario}.json")]
        if self.command == "compare":
            argv += ["--seeds", f"{self.seeds[0]}..{self.seeds[-1]}"]
        else:
            argv += ["--seed", str(self.seeds[0])]
        if self.algo is not None:
            argv += ["--algo", self.algo]
        if self.max_steps is not None:
            argv += ["--max-steps", str(self.max_steps)]
        return argv + ["--out", str(out)]

    def checks(self) -> list[tuple[str, str, tuple[str, ...]]]:
        """(digest key, output subdirectory, files) for each operation of this command.

        An operation is one CLI command, or one seed of a `compare`.
        """
        if self.command == "plan":
            return [(f"plan/{self.scenario}/seed={self.seeds[0]}", ".", ("waypoints.csv",))]
        files = ("trajectories.csv", "report.json")
        if self.command == "run":
            steps = "" if self.max_steps is None else f"/max_steps={self.max_steps}"
            return [(f"run/{self.scenario}/{self.algo}{steps}/seed={self.seeds[0]}", ".", files)]
        return [(f"compare/{self.scenario}/seed={s}/{algo}", f"seed_{s}/{algo}", files)
                for s in self.seeds for algo in ("vo", "apf")]


def sha256_files(out: Path, files: tuple[str, ...]) -> dict[str, str]:
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


@dataclass(frozen=True)
class Workload:
    name: str
    units: int
    ops: Callable[[int], list[Op]]  # unit number (1-based) -> commands of one pass

    def unit_order(self, seed: int) -> list[int]:
        """The order in which a run with this workload seed walks the units."""
        order = list(range(1, self.units + 1))
        random.Random(seed).shuffle(order)
        return order

    def all_ops(self) -> list[Op]:
        return [op for u in range(1, self.units + 1) for op in self.ops(u)]


# Why each workload exists is in bench/README.md and BENCHMARK.json.
def _compare_7uav(u: int) -> list[Op]:
    # two seeds per command, so a compare that runs seeds in parallel can show
    return [Op("compare", "paper_like_7uav", (2 * u - 1, 2 * u))]


def _vo_corner(u: int) -> list[Op]:
    return [Op("run", "corner_corridor", (u,), algo="vo")]


def _apf_corner(u: int) -> list[Op]:
    return [Op("run", "corner_corridor", (s,), algo="apf") for s in (2 * u - 1, 2 * u)]


def _plan_sweep(u: int) -> list[Op]:
    ops: list[Op] = []
    for s in (2 * u - 1, 2 * u):
        ops.append(Op("plan", "paper_like_5uav", (s,)))
        ops.append(Op("plan", "paper_like_7uav", (s,)))
        # A short flight gives the step metrics samples. It flies one scenario
        # only: with both, the step-time median would sit between two modes.
        ops.append(Op("run", "paper_like_7uav", (s,), algo="vo", max_steps=SHORT_RUN_STEPS))
    return ops


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("compare_7uav", 8, _compare_7uav),
    Workload("vo_corner", 16, _vo_corner),
    Workload("apf_corner", 16, _apf_corner),
    Workload("plan_sweep", 16, _plan_sweep),
)}
