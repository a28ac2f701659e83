"""One benchmark pass in a fresh interpreter: import utm_sim, run one unit's commands.

Usage: python3 bench/worker.py '<json spec>'

The spec names the workload, the unit, whether to trace, the monotonic time at
which the parent started this process (so the import time of a fresh
interpreter can be measured), the output directory, and where to write spans.
The pass result is printed as one JSON line on standard output.

Untraced passes wrap only two names: `step` and `plan_path` as `sim_engine`
looks them up, each with a bare timer on the calling thread's CPU clock.
Traced passes install `tracer.Tracer`.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    import utm_sim  # noqa: F401  (the import being timed)
    return time.monotonic()


def main(argv: list[str]) -> int:
    # Everything else is imported after the timed import, so that setup_s
    # measures the interpreter and utm_sim alone.
    ready = _import_program()

    import json
    import resource
    import shutil

    import numpy
    import utm_sim
    from utm_sim import scenario_cli, sim_engine

    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads(argv[0])
    if Path(utm_sim.__file__).resolve().parent != ROOT / "src" / "utm_sim":
        print(f"utm_sim imported from {utm_sim.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = WORKLOADS[spec["workload"]].ops(spec["unit"])
    digests = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    out_root = Path(spec["out"])

    step_ns: list[int] = []
    plan_ns: list[int] = []
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    else:
        sim_engine.step = _timed(sim_engine.step, step_ns)
        sim_engine.plan_path = _timed(sim_engine.plan_path, plan_ns)

    codes = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        codes.append(_call(scenario_cli, op.argv(ROOT, out_root / str(i))))
    wall = time.perf_counter() - t0

    checked = verify(ops, codes, out_root, digests)
    shutil.rmtree(out_root, ignore_errors=True)

    result = dict(checked, setup_s=ready - spec["spawned"], wall_s=wall,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  numpy=numpy.__version__)
    if tracer is None:
        result["step_ms"] = [ns / 1e6 for ns in step_ns]
        result["plan_ms"] = [ns / 1e6 for ns in plan_ns]
    else:
        result["layers"] = tracer.metrics()
        result["toplevel_s"] = tracer.toplevel_ns() / 1e9
        result["rows"] = tracer.rows
        if spec.get("spans"):
            tracer.write_spans(Path(spec["spans"]))
    print(json.dumps(result))
    return 0


def verify(ops, codes: list[int], out_root: Path, digests: dict) -> dict:
    """Check each operation's outputs against the recorded digests.

    An operation fails on a non-zero exit code, a missing output or a digest
    mismatch; one with no recorded digest is unverified, never passed.
    """
    import json

    from workloads import sha256_files

    attempted = failed = unverified = uav_steps = 0
    failures: list[str] = []
    seen: dict[str, dict[str, str]] = {}
    for i, (op, code) in enumerate(zip(ops, codes)):
        for key, sub, files in op.checks():
            attempted += 1
            if code != 0:
                failed += 1
                failures.append(f"{key}: exit code {code}")
                continue
            out = out_root / str(i) / sub
            try:
                got = sha256_files(out, files)
            except OSError as exc:
                failed += 1
                failures.append(f"{key}: {exc}")
                continue
            seen[key] = got
            want = digests.get(key)
            if want is None:
                unverified += 1
            elif want != got:
                failed += 1
                failures.append(f"{key}: output digest mismatch")
            if "report.json" in got:
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                uav_steps += report["steps"] * len(report["path_lengths"])
    return {"attempted": attempted, "failed": failed, "unverified": unverified,
            "failures": failures, "uav_steps": uav_steps, "digests": seen}


def _timed(fn, samples: list[int]):
    # CPU time, not wall time: on a VM the host takes the CPU away in bursts
    # (steal) that stretch single calls several-fold and swing a wall-clock p99
    # by 40% from run to run; the thread CPU clock leaves them out.
    clock = time.thread_time_ns

    def timed(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        samples.append(clock() - t0)
        return out

    return timed


def _call(scenario_cli, argv: list[str]) -> int:
    """Exit code of one CLI command; an exception counts as a failure, not a crash."""
    import contextlib
    import io
    import traceback

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return scenario_cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a failing command is counted and the pass goes on
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
