"""Spans around nsfd's public entry points, recorded from outside the package.

A Tracer rebinds each entry point in every nsfd module that holds it, so
calls made inside the package are recorded too (detect_ghosts ->
find_equilibria, cli.main -> integrate -> _kernels.run_trajectory).  Each
span keeps its name, start, end, parent span and a work count; spans stay
in memory until the run writes them out.  `uninstall` restores the
original functions, so untraced rounds run the package untouched.
"""

import os
import statistics
import time

import numpy as np

import nsfd
import nsfd._kernels
import nsfd.cli
import nsfd.diagnostics
import nsfd.equilibria
import nsfd.integrators
import nsfd.systems

MODULES = (nsfd, nsfd.systems, nsfd.integrators, nsfd._kernels,
           nsfd.equilibria, nsfd.diagnostics, nsfd.cli)


def _steps(args, kwargs, traj):
    kind = "kernel" if args[0].rma_params is not None else "generic"
    return (kind, len(traj) - 1)


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _newton_rows(args, kwargs, rows):
    res = rows[:, 2]
    return (rows.shape[0], int(np.count_nonzero(res < nsfd._kernels.NEWTON_TOL)))


def _kernel_steps(args, kwargs, result):
    return result[2] - 1


# (owner, attribute, span name, work counter); functions are rebound in every
# module of MODULES that holds them, methods on their class.
ENTRY_POINTS = (
    (nsfd.systems.SplitSystem, "__post_init__", "systems.construct", None),
    (nsfd.equilibria, "find_equilibria", "equilibria.find", None),
    (nsfd.equilibria, "stability_report", "equilibria.report", None),
    (nsfd.integrators, "integrate", "integrators.integrate", _steps),
    (nsfd.integrators.Trajectory, "write_csv", "integrators.write_csv", _csv_bytes),
    (nsfd._kernels, "run_trajectory", "kernels.run_trajectory", _kernel_steps),
    (nsfd._kernels, "scan_fixed_points", "kernels.scan_fixed_points", _newton_rows),
    (nsfd._kernels, "scan_fixed_points_generic", "kernels.scan_fixed_points_generic",
     _newton_rows),
    (nsfd.diagnostics, "detect_ghosts", "diagnostics.detect_ghosts", None),
    (nsfd.diagnostics, "compare_schemes", "diagnostics.compare_schemes", None),
    (nsfd.diagnostics, "estimate_order", "diagnostics.estimate_order", None),
    (nsfd.cli, "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, work, time scale]
        self._stack = []
        self._saved = []     # (owner, attribute, original)

    def _wrap(self, fn, name, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None, 1.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if work is not None:
                spans[idx][4] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, work in ENTRY_POINTS:
            original = getattr(owner, attr)
            traced = self._wrap(original, name, work)
            owners = [owner] if isinstance(owner, type) else \
                [m for m in MODULES if getattr(m, attr, None) is original]
            for o in owners:
                self._saved.append((o, attr, original))
                setattr(o, attr, traced)

    def uninstall(self):
        for o, attr, original in reversed(self._saved):
            setattr(o, attr, original)
        self._saved.clear()

    def rescale(self, first, factor):
        """Give spans from index `first` on the job's reference-speed factor."""
        for span in self.spans[first:]:
            span[5] = factor

    def records(self):
        """Spans as dicts with times relative to the first span, as measured."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "work": w,
                 "scale": f} for n, s, e, p, w, f in self.spans]


def _median_ms(values):
    return statistics.median(values) * 1e3 if values else 0.0


def _rate(work, seconds):
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans, jobs, overhead_s):
    """Per-layer metrics from traced spans over `jobs` traced jobs.

    Durations are medians per call and rates total work over total span
    time, both in reference-speed time (see calibration.py); *_calls are
    calls per job.  A layer that did not run reports 0.
    """
    dur = [(e - s) * f for _, s, e, _, _, f in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, [])]

    def self_times(name):
        return [dur[i] - child[i] for i in by_name.get(name, [])]

    def calls(name):
        return len(by_name.get(name, [])) / jobs

    integ = by_name.get("integrators.integrate", [])
    kernel = [i for i in integ if spans[i][4][0] == "kernel"]
    generic = [i for i in integ if spans[i][4][0] == "generic"]

    def work_rate(indices, work=lambda w: w):
        return _rate(sum(work(spans[i][4]) for i in indices), sum(dur[i] for i in indices))

    scans = by_name.get("kernels.scan_fixed_points", [])
    seeds = sum(spans[i][4][0] for i in scans)
    converged = sum(spans[i][4][1] for i in scans)
    return {
        "systems.construct_ms": (_median_ms(durations("systems.construct")), "ms"),
        "systems.construct_calls": (calls("systems.construct"), "count"),
        "equilibria.find_ms": (_median_ms(durations("equilibria.find")), "ms"),
        "equilibria.find_calls": (calls("equilibria.find"), "count"),
        "equilibria.report_ms": (_median_ms(durations("equilibria.report")), "ms"),
        "integrators.integrate_ms": (_median_ms(durations("integrators.integrate")), "ms"),
        "integrators.kernel_steps_per_s": (work_rate(kernel, lambda w: w[1]), "steps/s"),
        "integrators.generic_steps_per_s": (work_rate(generic, lambda w: w[1]), "steps/s"),
        "integrators.csv_mb_per_s":
            (work_rate(by_name.get("integrators.write_csv", [])) / 1e6, "MB/s"),
        "kernels.trajectory_steps_per_s":
            (work_rate(by_name.get("kernels.run_trajectory", [])), "steps/s"),
        "kernels.newton_seeds_per_s": (work_rate(scans, lambda w: w[0]), "seeds/s"),
        "kernels.newton_converged_ratio": (converged / seeds if seeds else 0.0, "ratio"),
        "kernels.generic_newton_seeds_per_s":
            (work_rate(by_name.get("kernels.scan_fixed_points_generic", []),
                       lambda w: w[0]), "seeds/s"),
        "diagnostics.ghosts_self_ms": (_median_ms(self_times("diagnostics.detect_ghosts")), "ms"),
        "diagnostics.compare_self_ms":
            (_median_ms(self_times("diagnostics.compare_schemes")), "ms"),
        "diagnostics.order_self_ms": (_median_ms(self_times("diagnostics.estimate_order")), "ms"),
        "cli.call_ms": (_median_ms(durations("cli.main")), "ms"),
        "cli.self_ms": (_median_ms(self_times("cli.main")), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }

