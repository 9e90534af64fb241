"""Run every workload over several seeds and summarise the results.

    python3 perfbench/repeat.py --out RESULTS.jsonl [--seeds 10] [--trace 0|1]

Each (workload, seed) is one `run.py` process, run one after another over
seeds 0 to N-1 at the run length in BENCHMARK.json. The records are appended
to --out and then summarised as by `compare.py RESULTS.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare
from run import ROOT, load_spec

HERE = os.path.dirname(os.path.abspath(__file__))

def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                   "--record", args.out]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            if done.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(done.stdout + done.stderr)
                print(f"{workload} seed {seed}: run.py failed ({done.returncode})")
                return 1
            result = json.loads(last)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    return compare.main([args.out])


if __name__ == "__main__":
    sys.exit(main())
