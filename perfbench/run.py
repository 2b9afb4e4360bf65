#!/usr/bin/env python3
"""Run one relsemi benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-spectral --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; BLAS is
pinned to one thread before NumPy loads.  With ``--trace 0`` the workload
runs whole passes over the same inputs while the next pass is expected to
end within ``--seconds`` (at least one pass) and reports the end-to-end
metrics, its times scaled to reference host speed by the calibration
slices of ``hostspeed.py``; with ``--trace 1`` it runs one untraced
pass and one traced pass and reports the per-layer metrics.  Every pass's
outputs are checked (see ``check.py``).  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the provenance.  The exit code is 0 only when every output passed.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"        # must precede the first NumPy import


def fix_mmap_threshold():
    """Serve every allocation above 128 KiB by mmap and return it on free.

    glibc otherwise raises its mmap threshold after the first large free,
    and later large arrays land on the heap, where freed blocks may or may
    not go back to the system; the heat workloads' peak RSS then differed
    by one 1632 x 1632 matrix (21 MB) between runs of the same seed.  A
    fixed threshold makes ``peak_rss_mb`` follow the memory the program
    holds.  No-op where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 128 * 1024)      # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass


fix_mmap_threshold()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("dense-spectral", "dense-semigroup", "heat-domain", "heat-orbit")
SETUP_REPEATS = 3

# the imports a fresh process pays before its first library call
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); "
                "import numpy, scipy.linalg, scipy.sparse.linalg, relsemi.cli; "
                "print(time.perf_counter() - t)")

clock = time.perf_counter


def probe_import_s():
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(args, items_per_pass, passes):
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "items_per_pass": items_per_pass, "passes": passes,
    }


def pass_times(passes, scaled):
    """Median pass time and item p50/p90 (ms), at reference speed if ``scaled``."""
    import numpy as np

    speed = [p.speed if scaled else 1.0 for p in passes]
    # per-item medians over passes (the same inputs in every pass), so that a
    # slow spell of the machine during one pass moves no percentile
    item_ms = np.median([np.multiply(p.item_s, f) for p, f in zip(passes, speed)],
                        axis=0) * 1e3
    p50, p90 = np.percentile(item_ms, [50, 90])
    wall = statistics.median(p.wall_s * f for p, f in zip(passes, speed))
    return wall, float(p50), float(p90)


def end_to_end_metrics(passes, setup_s):
    wall, p50, p90 = pass_times(passes, scaled=True)
    # set-up is timed next to the passes (generation before, import probes
    # after them), so it is scaled by their median speed factor
    setup_ref_s = setup_s * statistics.median(p.speed for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_ref_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup_ref_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "item_p50_ref_ms": {"value": p50, "unit": "ms"},
        "item_p90_ref_ms": {"value": p90, "unit": "ms"},
    }


def measured_times(passes, setup_s):
    """The unscaled times and the speed factors, for the provenance line."""
    wall, p50, p90 = pass_times(passes, scaled=False)
    return {"wall_s": wall, "setup_s": setup_s, "item_p50_ms": p50,
            "item_p90_ms": p90, "speed": [p.speed for p in passes]}


def per_layer_metrics(tracer, traced_wall, untraced_wall):
    from tracing import KERNELS

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer, tot in tracer.layer_totals().items():
        if layer == "kernel":
            continue
        put(f"{layer}.calls", tot["calls"], "count")
        put(f"{layer}.self_s", tot["self_s"], "s")
        put(f"{layer}.raised", tot["raised"], "count")
    kernel = tracer.layer_totals()["kernel"]
    put("kernel.calls", kernel["calls"], "count")
    put("kernel.self_s", kernel["self_s"], "s")
    for k in KERNELS:
        put(f"kernel.{k}.calls", tracer.calls.get(f"kernel.{k}", 0), "count")
        put(f"kernel.{k}.self_s", tracer.self_s.get(f"kernel.{k}", 0.0), "s")
    put("kernel.lu_solve.columns", tracer.counts.get("kernel.lu_solve.columns", 0), "count")
    for fn in ("spectral.resolvent", "dissipative.is_m_dissipative",
               "heatlab.integrated_trajectory"):
        put(f"{fn}.calls", tracer.calls.get(fn, 0), "count")
        put(f"{fn}.distinct_ratio", tracer.distinct_ratio(fn), "ratio")
    for fn in ("semigroup.integrated_at", "semigroup.certified_sector_angle",
               "heatlab.semigroup_columns", "heatlab.graph_distance"):
        put(f"{fn}.calls", tracer.calls.get(fn, 0), "count")
    put("heatlab.supnorm_contraction.self_s",
        tracer.self_s.get("heatlab.supnorm_contraction", 0.0), "s")
    for method in ("dense-rowsums", "mmatrix-solve"):
        put(f"heatlab.supnorm_contraction.{method.replace('-', '_')}",
            tracer.counts.get(f"heatlab.supnorm_contraction.{method}", 0), "count")
    put("report.bytes_written", tracer.counts.get("report.bytes_written", 0), "B")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.spans", tracer.n_spans, "count")
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "relsemi" / "__init__.py").is_file():
        print(f"error: no relsemi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import relsemi.cli  # noqa: F401  (the import a user pays, timed for setup_s)
    import_s = clock() - t0
    import relsemi
    if Path(relsemi.__file__).resolve().parent != (SRC / "relsemi").resolve():
        print(f"error: relsemi imported from {relsemi.__file__}", file=sys.stderr)
        return 2

    import check
    import hostspeed
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    reference = check.load_reference(wl.name)
    work_dir = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    try:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            t0 = clock()
            inputs = wl.setup(args.seed, str(work_dir))
            gen_s.append(clock() - t0)

        passes, failures, attempted = [], [], 0

        def checked_pass(tracer=None):
            nonlocal attempted
            if tracer is not None:
                tracer.install()
                try:
                    res = wl.run_pass(inputs, tracer)
                finally:
                    tracer.uninstall()
            else:
                with hostspeed.Sampler() as sampler:
                    res = wl.run_pass(inputs)
                res.speed = sampler.factor()
            records = wl.records(inputs, res.outs)
            attempted += len(records)
            failures.extend(check.check_records(wl.name, records, reference))
            passes.append(res)
            return res

        if args.trace:
            untraced = checked_pass()
            tracer = Tracer()
            traced = checked_pass(tracer)
            metrics = per_layer_metrics(tracer, traced.wall_s, untraced.wall_s)
            tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.npz")
        else:
            # whole passes while the next one is expected to end in time
            start = clock()
            checked_pass()
            last_s = clock() - start
            while clock() - start + last_s <= args.seconds:
                t0 = clock()
                checked_pass()
                last_s = clock() - t0
            imports = [import_s] + [probe_import_s() for _ in range(SETUP_REPEATS - 1)]
            setup_s = statistics.median(imports) + statistics.median(gen_s)
            metrics = end_to_end_metrics(passes, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    prov = provenance(args, len(inputs["items"]), len(passes))
    if not args.trace:
        prov["measured"] = measured_times(passes, setup_s)
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**result, "provenance": prov,
                   "failures": [{"item": label, "why": why[:5]}
                                for label, why in failures[:20]]}, fh, indent=1)
    for label, why in failures[:10]:
        print(f"FAILED {label}: {'; '.join(why[:3])}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
