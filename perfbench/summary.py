#!/usr/bin/env python3
"""Run every workload once, each in a fresh process, and print a table.

Usage (from the repository root)::

    python3 perfbench/summary.py [--seed N] [--seconds S]

Prints every end-to-end metric by name and unit for the four workloads,
plus the failed fraction of certified items (``failed / attempted``).
Exits 1 when any output check failed or a run crashed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOAD_NAMES  # noqa: E402


def run_workload(name, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None, None
    prov = json.loads(lines[-2])["provenance"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), prov


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    ok = True
    for name in WORKLOAD_NAMES:
        result, prov = run_workload(name, args.seed, args.seconds)
        if result is None:
            print(f"{name:16s} CRASHED")
            ok = False
            continue
        ok &= result["correct"]
        print(f"{name:16s} correct={result['correct']} "
              f"items/pass={prov.get('items_per_pass')} passes={prov.get('passes')}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':16s} {frac:14.6g} ({result['failed']} of {result['attempted']})")
        for metric, v in result["metrics"].items():
            print(f"  {metric:16s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
