#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record.py [workload ...]

Runs every pool input of the dense workloads and the fixed configurations
of the heat workloads through the program at the current commit, refuses
to record an output that breaks a pinned tolerance, and writes the
reference view of each output (see ``check.py``) to
``perfbench/reference/<workload>.json``.  Re-record only when the meaning
of an output changes, never to make a failing check pass.
"""

import os
import sys

import run  # pins BLAS threads before NumPy loads

sys.path.insert(0, str(run.SRC))

import json  # noqa: E402
import shutil  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def rounded(obj):
    """12 significant digits: far below any comparison tolerance."""
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    return obj


def record(name):
    wl = workloads.WORKLOADS[name]
    work_dir = run.OUT_DIR / f"record-{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        if hasattr(wl, "pool_inputs"):
            inputs = wl.pool_inputs()
        else:
            inputs = wl.setup(0, str(work_dir))
        res = wl.run_pass(inputs)
        records = wl.records(inputs, res.outs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    items = {}
    for label, key, rec in records:
        if "error" in rec:
            raise SystemExit(f"{name} {label}: {rec['error']}")
        summary, pins = check.KINDS[check.record_kind(name, key)]
        broken = pins(rec)
        if broken:
            raise SystemExit(f"{name} {label}: {broken}")
        items[key] = rounded(summary(rec))
    prov = run.provenance(type("A", (), {"workload": name, "seed": 0, "trace": 0}),
                          len(items), 1)
    ref = {"workload": name, "rtol": check.RTOL[name], "atol": check.ATOL[name],
           "recorded_with": prov,
           "items": items}
    path = os.path.join(check.REFERENCE_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{name}: {len(items)} references in {res.wall_s:.1f} s -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOAD_NAMES:
        record(name)
