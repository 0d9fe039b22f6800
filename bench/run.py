"""Benchmark for hadamard6: classify, search and equivalence, end to end.

    python3 bench/run.py --workload classify-families --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One client, closed loop: one operation at a time, and at most one
child process at a time.  With --trace 0 the run repeats whole rounds of
its workload until --seconds have passed and prints the end-to-end
metrics; with --trace 1 it runs a fixed batch once untraced and once with
spans around every public layer, and prints the per-layer metrics.  Every
output is checked (see reference.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
# a first call pays for the quadruple index tables and numpy's lazy imports
SETUP_CODE = "import hadamard6, hadamard6.cli; hadamard6.fingerprint(hadamard6.fourier_f6(0.1, 0.2))"


def _machine():
    import numpy

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _setup_once(env):
    """Wall time of a fresh interpreter doing the import and the lazy
    set-up a first call pays for."""
    from workloads import run_child

    t0 = time.perf_counter()
    child = run_child(["-c", SETUP_CODE], ROOT, env)
    seconds = time.perf_counter() - t0
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed: {child.stderr.strip()[-500:]}")
    return seconds


def _run_ops(ops, tracer=None, between=None):
    """Run ops back to back; return (seconds spent in the ops, [(op, output,
    exception, seconds)]).  between() runs after each operation, untimed."""
    done = []
    total = 0.0
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
        t0 = time.perf_counter()
        try:
            out, exc = op.call(), None
        except Exception as e:  # a raising operation is counted as failed
            out, exc = None, e
        seconds = time.perf_counter() - t0
        total += seconds
        done.append((op, out, exc, seconds))
        if between is not None:
            between()
    return total, done


def _check(done):
    from workloads import Outcome

    records = []
    for op, out, exc, seconds in done:
        outcome = Outcome(failed=f"{type(exc).__name__}: {exc}") if exc is not None else op.check(out)
        records.append({"kind": op.kind, "seconds": seconds, "failed": outcome.failed,
                        "wrong": outcome.wrong, "error": outcome.error, "maxrss_kb": getattr(out, "maxrss_kb", None)})
    return records


def _timed(workload, seconds):
    from reference import digits
    from workloads import child_env

    env = child_env(ROOT)
    t_start = time.perf_counter()
    setup = [_setup_once(env)]

    def sample_setup():
        # set-up samples are spread over the run, one each time another
        # SETUP_SAMPLES-th of `seconds` has passed, so that setup_s sees the
        # machine over the whole run rather than at its start
        elapsed = time.perf_counter() - t_start
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(_setup_once(env))

    wall = 0.0
    records = []
    r = 0
    # whole rounds only, until the run has measured for `seconds`
    while True:
        round_wall, done = _run_ops(workload.round(r), between=sample_setup)
        wall += round_wall
        records.extend(_check(done))
        r += 1
        if time.perf_counter() - t_start >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_once(env))
    good = [rec for rec in records if rec["failed"] is None and rec["wrong"] is None]
    child_rss = [rec["maxrss_kb"] for rec in records if rec["maxrss_kb"] is not None]
    # both VmHWM and ru_maxrss are in KiB on Linux
    rss_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = [rec["error"] for rec in good if rec["error"] is not None]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(good) / wall, "unit": "op/s"},
        "op_median_ms": {
            "value": 1000 * statistics.median(rec["seconds"] for rec in good) if good else 0.0,
            "unit": "ms",
        },
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "accuracy_digits": {"value": digits(max(errors)) if errors else 0.0, "unit": "digits"},
    }
    return records, metrics, {"rounds": r, "batch_wall_s": wall, "setup_samples_s": setup}


_UNITS = {"time_s": "s", "self_s": "s", "overhead_s": "s", "enumerated_time_s": "s", "confirm_hit_ratio": "ratio",
          "fingerprints_per_call": "count/call"}


def _traced(workload, out_name):
    from tracing import Tracer

    ops = workload.traced_batch()
    plain_wall, _ = _run_ops(ops)
    tracer = Tracer()
    with tracer.installed():
        traced_wall, done = _run_ops(ops, tracer)
    records = _check(done)
    tracer.write(OUT_DIR / f"{out_name}-spans.tsv.gz")
    summary = tracer.summary()
    summary["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {key: {"value": value, "unit": _UNITS.get(key.rsplit(".", 1)[1], "count")}
               for key, value in summary.items()}
    return records, metrics, {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["classify-families", "search-cli", "equivalence"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hadamard6" / "__init__.py").is_file():
        print(f"no hadamard6 package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        records, metrics, extra = _traced(workload, out_name)
    else:
        records, metrics, extra = _timed(workload, args.seconds)

    failed = sum(rec["failed"] is not None for rec in records)
    wrong = [rec for rec in records if rec["wrong"] is not None]
    result = {
        "correct": not wrong and failed < len(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": _machine(), **extra,
            "failed_kinds": sorted({rec["kind"] for rec in records if rec["failed"]}),
            "wrong": [f"{rec['kind']}: {rec['wrong']}" for rec in wrong][:20]}
    with open(OUT_DIR / f"{out_name}.json", "w") as fh:
        json.dump({"info": info, "result": result, "operations": records}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
