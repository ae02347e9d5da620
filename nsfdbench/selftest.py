"""Self-tests of the benchmark harness: every check must bite.

    python3 nsfdbench/selftest.py

Runs each workload at a tiny size, asserts that its outputs pass the
checks, then feeds the checks corrupted copies of those outputs (a CSV
value moved by 1e-6, a dropped equilibrium, an extra fixed point, a
negative nsfd state, ...) and asserts that each corruption is reported.
Also asserts that the tracer records nested spans and restores the
package when uninstalled.  Exits 1 if anything does not hold.
"""

import copy
import shutil
import sys
from pathlib import Path

import run

nsfd = run._import_package()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

JOBS = 2


def _rewrite_csv(path, row, col, fn):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = f"{fn(float(cells[col])):.17g}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _sim_path(rec, scheme):
    return Path(dict(rec["sims"])[scheme].splitlines()[0])


def _conv_path(rec):
    return Path(rec["conv"].splitlines()[0])


def _compare_path(rec):
    return Path(rec["compare"].splitlines()[0])


def _bad_order(rec):
    # errors that fall like h^0.5, with the slope their fit gives
    path = _conv_path(rec)
    lines = path.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[2] = f"{0.3 * float(cells[1]) ** 0.5:.17g}"
        cells[3] = "0.5"
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def _same_path_for_ensfd(rec):
    sims = dict(rec["sims"])
    rec["sims"] = [(s, sims["nsfd"] if s == "ensfd" else out) for s, out in rec["sims"]]


def _nudge_traj(rec, kind, axis, k, fn):
    t, x, y = (a.copy() for a in rec["trajectories"][kind])
    arr = x if axis == "x" else y
    arr[k] = fn(arr[k])
    rec["trajectories"][kind] = (t, x, y)


def _nudge_row(rec, key, i, col, fn):
    row = list(rec[key][i])
    row[col] = fn(row[col])
    rec[key][i] = tuple(row)


def _scale_eig(rec, which, field, factor):
    rep = rec["reports"][which]
    target = rep["continuous"] if field.startswith("lambda") else rep["discrete"][0]
    target[field]["re"] *= factor


# (workload, corruption name, function of job 0's record, expected problem text)
FILE_CORRUPTIONS = {
    "orbit": [
        ("nsfd CSV value +1e-6", lambda r: _rewrite_csv(_sim_path(r, "nsfd"), 500, 2,
                                                        lambda v: v + 1e-6), "not one step"),
        ("rk4 CSV value +1e-6", lambda r: _rewrite_csv(_sim_path(r, "rk4"), 1501, 3,
                                                       lambda v: v + 1e-6), "not one step"),
        ("negative nsfd row", lambda r: _rewrite_csv(_sim_path(r, "nsfd"), 700, 3,
                                                     lambda v: -v), "non-positive"),
        ("time column shifted", lambda r: _rewrite_csv(_sim_path(r, "euler"), 30, 1,
                                                       lambda v: v + 1e-6), "grid"),
        ("convergence error +1e-4", lambda r: _rewrite_csv(_conv_path(r), 2, 2,
                                                           lambda v: v * (1 + 1e-4)),
         "differ from reference"),
        ("first-order claim broken", _bad_order, "outside"),
    ],
    "sweep": [
        ("nsfd final x +1e-6", lambda r: _rewrite_csv(_compare_path(r), 1, 5,
                                                      lambda v: v + 1e-6), "final state"),
        ("negative ensfd final", lambda r: _rewrite_csv(_compare_path(r), 5, 6,
                                                        lambda v: -v), "not positive"),
        ("distance to equilibrium off", lambda r: _rewrite_csv(_compare_path(r), 7, 7,
                                                               lambda v: v + 1e-6),
         "dist_to_equilibrium"),
    ],
}

RECORD_CORRUPTIONS = {
    "orbit": [
        ("ensfd output overwrites nsfd's", _same_path_for_ensfd, "overwrote"),
    ],
    "sweep": [],
    "scan": [
        ("dropped equilibrium", lambda r: r["equilibria"].pop(), "find_equilibria"),
        ("moved equilibrium", lambda r: _nudge_row(r, "equilibria", 1, 0, lambda v: v + 1e-6),
         "find_equilibria"),
        ("extra nsfd ghost", lambda r: r["ghosts_nsfd"].append((2.5, 2.5, 0.0, False)),
         "ghost fixed points"),
        ("extra genuine fixed point", lambda r: r["ghosts_nsfd"].append((2.5, 2.5, 0.0, True)),
         "nsfd ghosts"),
        ("dropped nsfd fixed point", lambda r: r["ghosts_nsfd"].pop(0), "nsfd ghosts"),
        ("rk2 fixed point moved", lambda r: _nudge_row(r, "ghosts_rk2", 0, 1, lambda v: v + 1e-4),
         "not a fixed point"),
        ("rk2 label flipped", lambda r: _nudge_row(r, "ghosts_rk2", 0, 3, lambda v: not v),
         "labelled genuine"),
        ("continuous eigenvalue off", lambda r: _scale_eig(r, 2, "lambda1", 1 + 1e-6),
         "continuous eigenvalues"),
        ("discrete multiplier off", lambda r: _scale_eig(r, 1, "gamma2", 1 + 1e-4),
         "multipliers"),
    ],
    "callable": [
        ("dropped equilibrium", lambda r: r["equilibria"].pop(), "find_equilibria"),
        ("extra nsfd fixed point", lambda r: r["ghosts_nsfd"].append((3.0, 3.0, 0.0, True)),
         "nsfd ghosts"),
        ("trajectory value +1e-6", lambda r: _nudge_traj(r, "rk4", "y", 200, lambda v: v + 1e-6),
         "not one step"),
        ("negative nsfd state", lambda r: _nudge_traj(r, "nsfd", "x", 100, lambda v: -v),
         "non-positive"),
        ("nsfd compare final +1e-6", lambda r: _nudge_row(r, "compare", 1, 5,
                                                          lambda v: v + 1e-6), "final state"),
        ("negative compare row", lambda r: _nudge_row(r, "compare", 0, 6, lambda v: -v),
         "not positive"),
    ],
}


def check_workload(name, out_dir):
    """Returns a list of failures of the harness itself (empty when all checks bite)."""
    workload = WORKLOADS[name]
    jobs = workload.jobs(seed=7, n=JOBS)
    ops = Ops()
    records = [workload.run(ops, job, out_dir / f"j{i}") for i, job in enumerate(jobs)]
    errors = []
    clean = workload.check(jobs, records)
    if clean:
        return [f"{name}: clean outputs fail the checks: {clean[:3]}"]

    for label, corrupt, expected in FILE_CORRUPTIONS.get(name, []):
        saved = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        corrupt(records[0])
        try:
            problems = workload.check(jobs, records)
        finally:
            for p, data in saved.items():
                p.write_bytes(data)
        if not any(expected in p for p in problems):
            errors.append(f"{name}: corruption '{label}' not reported as '{expected}'; "
                          f"got {problems[:3]}")

    for label, corrupt, expected in RECORD_CORRUPTIONS.get(name, []):
        bad = copy.deepcopy(records)
        corrupt(bad[0])
        problems = workload.check(jobs, bad)
        if not any(expected in p for p in problems):
            errors.append(f"{name}: corruption '{label}' not reported as '{expected}'; "
                          f"got {problems[:3]}")
    print(f"{name}: clean outputs pass; "
          f"{len(FILE_CORRUPTIONS.get(name, [])) + len(RECORD_CORRUPTIONS.get(name, []))} "
          "corruptions checked")
    return errors


def check_tracer(out_dir):
    errors = []
    originals = {attr: getattr(owner, attr) for owner, attr, _, _ in tracing.ENTRY_POINTS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("orbit", "scan"):
            workload = WORKLOADS[name]
            workload.run(Ops(), workload.jobs(seed=7, n=1)[0], out_dir / name)
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def has_chain(*names):
        for i, span in enumerate(spans):
            if span[0] != names[-1]:
                continue
            j, ok = i, True
            for parent_name in reversed(names[:-1]):
                j = spans[j][3]
                if j < 0 or spans[j][0] != parent_name:
                    ok = False
                    break
            if ok:
                return True
        return False

    for chain in (("cli.main", "integrators.integrate", "kernels.run_trajectory"),
                  ("cli.main", "systems.construct"),
                  ("cli.main", "diagnostics.estimate_order", "integrators.integrate"),
                  ("diagnostics.detect_ghosts", "equilibria.find"),
                  ("diagnostics.detect_ghosts", "kernels.scan_fixed_points")):
        if not has_chain(*chain):
            errors.append(f"tracer: no span chain {' -> '.join(chain)}")
    for owner, attr, _, _ in tracing.ENTRY_POINTS:
        if getattr(owner, attr) is not originals[attr]:
            errors.append(f"tracer: {attr} not restored")
    if nsfd.cli.integrate is not nsfd.integrators.integrate:
        errors.append("tracer: cli.integrate not restored")
    metrics = tracing.layer_metrics(spans, 2, 0.0)
    if not metrics["kernels.newton_converged_ratio"][0] > 0.0:
        errors.append("tracer: no converged Newton seeds counted")
    print(f"tracer: {len(spans)} spans, nesting and restore checked")
    return errors


def main():
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    errors = []
    try:
        for name in WORKLOADS:
            errors += check_workload(name, out / name)
        errors += check_tracer(out / "trace")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    np.seterr(all="ignore")
    sys.exit(main())
