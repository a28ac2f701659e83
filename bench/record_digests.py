"""Record the output digests every benchmark operation is checked against.

Usage (from the repository root): python3 bench/record_digests.py

Runs every command of every workload unit once, in process, and writes the
sha256 of each operation's checked files to bench/digests.json. Run it only
to re-baseline: the digests are the record of what the program printed when
they were taken, and the benchmark counts any difference as a failure.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from utm_sim import scenario_cli  # noqa: E402
from workloads import WORKLOADS, sha256_files  # noqa: E402


def main() -> int:
    out = ROOT / ".bench_out" / "record"
    digests: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        for op in workload.all_ops():
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = scenario_cli.main(op.argv(ROOT, out))
            if code != 0:
                print(f"{op}: exit code {code}", file=sys.stderr)
                return 1
            for key, sub, files in op.checks():
                digests[key] = sha256_files(out / sub, files)
        print(f"{workload.name}: {len(digests)} digests so far")
    shutil.rmtree(out, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
