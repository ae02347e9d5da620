"""Benchmark for the nsfd package: one workload per invocation.

    python3 nsfdbench/run.py --workload orbit --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The workload's job list is generated from --seed and timed in
whole rounds (a closed loop, one caller) until --seconds have been spent
and enough jobs ran for the tail percentile; reported times are scaled to
a reference machine speed (see calibration.py).  Outputs are then checked
against independent reference values.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, which are
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  See README.md in this directory.
"""

import os

# pinned before numpy loads, so BLAS/OpenMP start no threads of their own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".nsfdbench"
SETUP_SAMPLES = 12
SETUP_TIMEOUT_S = 60


def _import_package():
    if not (SRC / "nsfd" / "__init__.py").is_file():
        sys.exit(f"nsfdbench: no nsfd sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nsfd
    if Path(nsfd.__file__).resolve().parent != SRC / "nsfd":
        sys.exit(f"nsfdbench: imported nsfd from {nsfd.__file__}, not from {SRC}")
    return nsfd


def measure_setup(workload):
    """Median reference-speed seconds for a fresh interpreter to import nsfd and
    build the workload's needs; also returns the unscaled median."""
    probe = ("import time; t0 = time.perf_counter(); import sys; "
             f"sys.path.insert(0, {str(SRC)!r}); {workload.setup}; "
             "print(time.perf_counter() - t0)")
    scaled, raw = [], []
    before = calibration.sample()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        after = calibration.sample()
        raw.append(float(done.stdout.strip()))
        scaled.append(raw[-1] * calibration.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def digest(obj, files_under=None):
    """Hash of a round's records, or of the files it wrote, for the repeatability check."""
    h = hashlib.sha256()
    if files_under is not None:
        for p in sorted(files_under.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(files_under)).encode())
                h.update(p.read_bytes())
    else:
        h.update(repr(obj).encode())
        for arr in _arrays(obj):
            h.update(arr.tobytes())
    return h.hexdigest()


def _arrays(obj):
    if hasattr(obj, "tobytes"):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


class Samples:
    """Job and round times of one kind of round (traced or untraced), in
    reference-speed seconds and as measured."""

    def __init__(self):
        self.jobs, self.raw_jobs = [], []
        self.rounds, self.raw_rounds = [], []


def run_round(workload, jobs, ops, out_dir, samples, tracer):
    """Run every job once, a calibration sample between every two; returns
    (records, failed operations)."""
    from workloads import OpFailed
    records, failed = [], 0
    before = calibration.sample()
    for i, job in enumerate(jobs):
        job_dir = out_dir / f"j{i:03d}"
        job_dir.mkdir(parents=True)
        first_span = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            records.append(workload.run(ops, job, job_dir))
        except OpFailed as exc:
            failed += 1
            records.append(None)
            print(f"failed: job {i}: {exc}", file=sys.stderr)
        raw = time.perf_counter() - t0
        after = calibration.sample()
        factor = calibration.scale(before, after)
        before = after
        tracer.rescale(first_span, factor)
        samples.jobs.append(raw * factor)
        samples.raw_jobs.append(raw)
    samples.rounds.append(sum(samples.jobs[-len(jobs):]))
    samples.raw_rounds.append(sum(samples.raw_jobs[-len(jobs):]))
    return records, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nsfd = _import_package()
    import numpy as np
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "backend": nsfd.resolve_backend(None), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "jobs_per_round": workload.jobs_per_round, "tail_pct": workload.tail_pct}
    print("info " + json.dumps(info), flush=True)

    run_dir = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_s, raw_setup_s = measure_setup(workload)
        jobs = workload.jobs(args.seed)
        # one untimed job first, so lazy imports and allocator growth are not timed
        workload.run(Ops(), jobs[0], run_dir / "warmup")

        ops = Ops()
        tracer = Tracer()
        samples = {False: Samples(), True: Samples()}
        failed = 0
        first = None
        problems = []
        rnd = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and rnd % 2 == 1
            if traced:
                tracer.install()
            try:
                records, round_failed = run_round(
                    workload, jobs, ops, run_dir / f"r{rnd}", samples[traced], tracer)
            finally:
                tracer.uninstall()
            failed += round_failed
            d = digest(records, run_dir / f"r{rnd}" if workload.cli else None)
            if first is None:
                first = (d, records)
            else:
                if d != first[0]:
                    problems.append(f"round {rnd} output differs from round 0 on the same inputs")
                shutil.rmtree(run_dir / f"r{rnd}")
            rnd += 1
            elapsed = time.perf_counter() - start
            enough = samples[True].rounds and samples[False].rounds if args.trace else \
                len(samples[False].jobs) >= workload.min_jobs
            if enough and elapsed * (rnd + 1) / rnd > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks_start = time.perf_counter()

        if failed == 0:
            try:
                problems += workload.check(jobs, first[1])
            except Exception as exc:  # an output too malformed to read is a failed check
                problems.append(f"check raised {exc!r}")
        else:
            problems.append(f"{failed} operations failed; outputs not checked")
        for p in problems[:20]:
            print(f"check: {p}", file=sys.stderr)

        plain = samples[False]
        if args.trace:
            overhead = statistics.median(samples[True].rounds) - statistics.median(plain.rounds)
            layer = layer_metrics(tracer.spans, len(samples[True].jobs), overhead)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{workload.name}-s{args.seed}.json"
            trace_file.write_text(json.dumps({"info": info, "spans": tracer.records()}))
        else:
            metrics = {
                "wall_s": {"value": statistics.median(plain.rounds), "unit": "s"},
                "job_p50_ms": {"value": statistics.median(plain.jobs) * 1e3, "unit": "ms"},
                "job_tail_ms": {"value": percentile(plain.jobs, workload.tail_pct) * 1e3,
                                "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        print("rounds " + json.dumps({
            "rounds": rnd, "jobs_timed": len(plain.jobs), "jobs_traced": len(samples[True].jobs),
            "timed_s": round(elapsed, 3), "checks_s": round(time.perf_counter() - checks_start, 3),
            "unscaled": {"wall_s": statistics.median(plain.raw_rounds),
                         "job_p50_ms": statistics.median(plain.raw_jobs) * 1e3,
                         "setup_s": raw_setup_s}}))
        print(json.dumps({"correct": not problems, "attempted": ops.attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
