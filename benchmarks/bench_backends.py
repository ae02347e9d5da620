#!/usr/bin/env python3
"""Compare the jit and plain-python execution backends on identical work.

Each timed run selects its backend through the NSFD_BACKEND environment
variable.  The two backends are meant to give bit-identical outputs, so
the only difference this script should surface is wall-clock time.
"""

import argparse
import os
import statistics
import time

import nsfd
from nsfd import NSFD, RK4, State, integrate, model2


def time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench(label, fn, repeats):
    fn()  # first call pays jit compilation and allocator warmup
    samples = [time_once(fn) for _ in range(repeats)]
    mean = statistics.mean(samples)
    std = statistics.stdev(samples) if len(samples) > 1 else 0.0
    print(f"{label:34s} {mean * 1e3:10.2f} ms  +/- {std * 1e3:7.2f} ms")
    return mean


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=1_000_000,
                    help="trajectory length in steps (default 1e6)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed repetitions after warmup (default 3)")
    args = ap.parse_args()

    system = model2()
    h = 0.05
    t_end = args.steps * h

    backends = ("numba", "python") if nsfd.HAVE_NUMBA else ("python",)
    if not nsfd.HAVE_NUMBA:
        print("numba is not importable; timing the python backend only")

    means = {}
    for scheme_name, scheme in (("nsfd", NSFD), ("rk4", RK4)):
        for backend in backends:
            label = f"{scheme_name}, {args.steps} steps [{backend}]"
            os.environ["NSFD_BACKEND"] = backend
            means[(scheme_name, backend)] = bench(
                label,
                lambda s=scheme: integrate(system, s, State(0.4, 0.4), h, t_end),
                args.repeats)

    if nsfd.HAVE_NUMBA:
        for scheme_name in ("nsfd", "rk4"):
            ratio = means[(scheme_name, "python")] / means[(scheme_name, "numba")]
            print(f"speedup {scheme_name}: {ratio:.1f}x")


if __name__ == "__main__":
    main()
