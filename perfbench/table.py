"""Run every workload once and print each metric by name, value and unit.

    python3 perfbench/table.py --seed 1 --seconds 60          # end-to-end metrics
    python3 perfbench/table.py --seed 1 --seconds 60 --trace 1  # per-layer metrics

Runs ``run.py`` for one workload at a time and waits for it. Besides the
metrics, each workload's block shows whether its outputs were correct, the
share of failed passes, the artifact digest and the pass count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from inputs import WORKLOADS  # noqa: E402

DETAIL_PREFIX = "perfbench detail "


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="default: all")
    args = parser.parse_args(argv)

    status = 0
    for name in args.workload or list(WORKLOADS):
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: benchmark failed with exit code {done.returncode}\n{done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2][len(DETAIL_PREFIX) :])
        print(
            f"== {name}  seed {args.seed}  correct {result['correct']}  "
            f"failed_share {result['failed'] / result['attempted']:.3g} "
            f"({result['failed']}/{result['attempted']} passes)  digest {detail['artifacts_digest'][:16]}"
        )
        for metric, entry in result["metrics"].items():
            print(f"   {metric:45s} {entry['value']:>14.6g} {entry['unit']}")
        if not args.trace:
            high = detail["pipeline_s_high"]
            print(f"   {'pipeline_s high (p' + format(high['percentile'], 'g') + ')':45s} {high['value']:>14.6g} s"
                  f"   of {high['samples']} passes")
    return status


if __name__ == "__main__":
    sys.exit(main())
