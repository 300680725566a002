"""Run every workload of the diagprod benchmark in turn, one process each,
and print their metric tables (name, value, unit, sample count).

    python3 perfbench/all.py --seed 1 --seconds 25 --trace 0

Exits non-zero if any workload run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        print("\n".join(lines[:-1]))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
