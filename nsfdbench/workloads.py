"""The benchmark's four workloads: seeded job lists, the jobs, and their checks.

Every job of a workload makes the same calls in the same order; only the
seeded inputs differ, so job latencies describe the program rather than a
job mix.  A job returns a record of what the program produced: CLI jobs
point at the files they wrote, library jobs hold plain tuples and arrays.
`check_*` functions take the records of one round and return a list of
problems, empty when every output agrees with nsfd-independent reference
values (see reference.py) within the tolerances stated next to each
comparison.
"""

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nsfd
import nsfd.cli
import reference as ref

# Tolerances.  Step maps are checked row by row, so no error accumulates:
# 1e-12 relative leaves room for reordered arithmetic and none for a wrong
# value (the self-tests move one value by 1e-6).  Located points carry the
# Newton/bisection accuracy of the search (1e-8); ghost matching uses the
# package's own 1e-6 genuine/ghost threshold; eigenvalues from a
# central-difference Jacobian are good to about 1e-9.
STEP_RTOL = 1e-12
POINT_TOL = 1e-8
GHOST_TOL = 1e-6
EIG_RTOL = 1e-8
MULT_RTOL = 1e-6
FINAL_RTOL = 1e-7
ORDER_RTOL = 1e-6
ORDER_RANGE = (0.85, 1.15)

SCHEMES = ("nsfd", "ensfd", "euler", "rk2", "rk4")


class OpFailed(RuntimeError):
    """A CLI call exited non-zero or a library call raised."""


class Ops:
    """Counts operations: one CLI call or one public library call."""

    def __init__(self):
        self.attempted = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise OpFailed(f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc

    def cli(self, argv):
        """Run `nsfd <argv>` in-process; returns its standard output."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = nsfd.cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                rc = exc.code
        if rc != 0:
            raise OpFailed(f"nsfd {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()


def _logu(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rma_draw(rng):
    # Coexistence point with x* in [0.15, 0.8]: every draw has the same three
    # equilibria (O, (1, 0), E3), so every job makes the same calls.
    c = rng.uniform(0.3, 2.0)
    xs = rng.uniform(0.15, 0.8)
    return (rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), c, xs / (c + xs))


def _close(got, want, rtol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(
        np.abs(got - want) <= rtol * np.maximum(np.abs(got), np.abs(want)) + 1e-300))


def _match_points(label, got, want, tol, problems):
    """got/want: lists of (x, y, ...) ; one-to-one match within tol."""
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} points, expected {len(want)}: {got} vs {want}")
        return
    for g in got:
        d = min(math.hypot(g[0] - w[0], g[1] - w[1]) for w in want)
        if d > tol * max(1.0, abs(g[0]), abs(g[1])):
            problems.append(f"{label}: point ({g[0]!r}, {g[1]!r}) matches no expected point")


def _first_line(text):
    return text.splitlines()[0].strip()


# ---------------------------------------------------------------------------
# orbit: CLI simulate for every scheme on model2, plus one convergence study

ORBIT_H = 0.1
ORBIT_T_END = 150.0
CONV_HS = (0.1, 0.05, 0.025, 0.0125)
CONV_T_END = 1.0


def orbit_jobs(rng, n):
    return [{"x0": rng.uniform(0.2, 3.0), "y0": rng.uniform(0.2, 3.0), "lam": rng.uniform(0.2, 2.0),
             "cx0": rng.uniform(0.2, 3.0), "cy0": rng.uniform(0.2, 3.0)} for _ in range(n)]


def orbit_run(ops, job, out):
    sims = []
    for scheme in SCHEMES:
        argv = ["simulate", "--model", "model2", "--scheme", scheme, "--h", repr(ORBIT_H),
                "--x0", repr(job["x0"]), "--y0", repr(job["y0"]),
                "--t-end", repr(ORBIT_T_END), "--out", str(out)]
        if scheme == "ensfd":
            argv += ["--weight", f"exp:{job['lam']!r}"]
        sims.append((scheme, ops.cli(argv)))
    conv = ops.cli(["convergence", "--model", "model1", "--scheme", "nsfd",
                    "--h", ",".join(repr(h) for h in CONV_HS),
                    "--x0", repr(job["cx0"]), "--y0", repr(job["cy0"]),
                    "--t-end", repr(CONV_T_END), "--out", str(out)])
    return {"sims": sims, "conv": conv}


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_orbit(jobs, records):
    problems = []
    n_steps = ref.step_count(ORBIT_T_END, ORBIT_H)
    for j, (job, rec) in enumerate(zip(jobs, records)):
        paths = set()
        for scheme, stdout in rec["sims"]:
            label = f"orbit job {j} {scheme}"
            path = Path(_first_line(stdout))
            if path in paths:
                problems.append(f"{label}: output {path} overwrote another scheme's")
            paths.add(path)
            header, rows = _read_table(path)
            data = np.array(rows, dtype=float)
            if header != ["k", "t", "x", "y"] or data.ndim != 2 or data.shape[1] != 4:
                problems.append(f"{label}: malformed CSV {path}")
                continue
            k, t, x, y = data.T
            halted = "halted" in stdout
            if not halted and len(k) != n_steps + 1:
                problems.append(f"{label}: {len(k)} rows, expected {n_steps + 1}")
            if not np.array_equal(k, np.arange(len(k))) or not _close(t, k * ORBIT_H, STEP_RTOL):
                problems.append(f"{label}: k,t columns are not the grid k*h")
            if x[0] != job["x0"] or y[0] != job["y0"]:
                problems.append(f"{label}: first row is not the initial state")
            lam = job["lam"] if scheme == "ensfd" else None
            with np.errstate(all="ignore"):
                px, py = ref.step(ref.rma_parts, ref.MODEL2, scheme, x[:-1], y[:-1], ORBIT_H, lam)
            bad = ~(np.isclose(px, x[1:], rtol=STEP_RTOL, atol=0.0)
                    & np.isclose(py, y[1:], rtol=STEP_RTOL, atol=0.0))
            if bad.any():
                r = int(np.argmax(bad))
                problems.append(f"{label}: row {r + 1} is not one step from row {r}: "
                                f"({float(x[r + 1])!r}, {float(y[r + 1])!r}) vs "
                                f"({float(px[r])!r}, {float(py[r])!r})")
            if scheme in ("nsfd", "ensfd") and not (np.all(x > 0.0) and np.all(y > 0.0)):
                problems.append(f"{label}: non-positive state in a positivity-preserving orbit")

    conv = []
    for j, rec in enumerate(records):
        header, rows = _read_table(_first_line(rec["conv"]))
        if header != ["scheme", "h", "sup_error", "slope", "residual"] or len(rows) != len(CONV_HS):
            problems.append(f"orbit job {j} convergence: malformed CSV")
            conv.append(None)
            continue
        conv.append(np.array([r[1:] for r in rows], dtype=float))
    ok = [j for j, c in enumerate(conv) if c is not None]
    want = ref.order_errors(ref.MODEL1, "nsfd", [jobs[j]["cx0"] for j in ok],
                            [jobs[j]["cy0"] for j in ok], CONV_T_END, CONV_HS)
    for col, j in enumerate(ok):
        hs, errs, slope = conv[j][:, 0], conv[j][:, 1], conv[j][0, 2]
        label = f"orbit job {j} convergence"
        if not np.array_equal(hs, CONV_HS):
            problems.append(f"{label}: step sizes {hs} differ from the requested ones")
        if not _close(errs, want[:, col], ORDER_RTOL):
            problems.append(f"{label}: errors {errs} differ from reference {want[:, col]}")
        fit = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        if not _close(slope, fit, 1e-9):
            problems.append(f"{label}: slope {slope!r} is not the fit {fit!r} of its errors")
        if not ORDER_RANGE[0] <= slope <= ORDER_RANGE[1]:
            problems.append(f"{label}: observed nsfd order {slope!r} outside {ORDER_RANGE}")
    return problems


# ---------------------------------------------------------------------------
# sweep: CLI compare, five schemes x three step sizes on a seeded RMA draw

SWEEP_HS = (0.05, 0.5, 4.0)   # convergent, oscillating, blow-up for the classical schemes
SWEEP_T_END = 40.0
SWEEP_BOX = (20.0, 20.0)      # the search box compare_schemes uses (the model's x_max)


def sweep_jobs(rng, n):
    return [{"params": _rma_draw(rng), "x0": rng.uniform(0.2, 3.0), "y0": rng.uniform(0.2, 3.0)}
            for _ in range(n)]


def sweep_run(ops, job, out):
    model = "rma:" + ",".join(repr(v) for v in job["params"])
    return {"compare": ops.cli([
        "compare", "--model", model, "--scheme", ",".join(SCHEMES),
        "--h", ",".join(repr(h) for h in SWEEP_HS),
        "--x0", repr(job["x0"]), "--y0", repr(job["y0"]),
        "--t-end", repr(SWEEP_T_END), "--out", str(out)])}


def _check_comparisons(name, jobs, tables, parts, equilibria, t_end, hs, schemes, problems):
    """Checks every job's comparison rows.

    tables[j] holds job j's (scheme, h, x0, y0, t_end, fx, fy, dist,
    violation step, nonfinite) rows; equilibria[j] its closed-form points.
    """
    expect = [(s, h) for s in schemes for h in hs]
    valid = []
    for j, (job, rows, eqs) in enumerate(zip(jobs, tables, equilibria)):
        label = f"{name} job {j}"
        if [(r[0], r[1]) for r in rows] != expect:
            problems.append(f"{label}: rows {[(r[0], r[1]) for r in rows]}, expected {expect}")
            continue
        valid.append(j)
        for r in rows:
            scheme, h, rx0, ry0, rt, fx, fy, dist = r[:8]
            if (rx0, ry0, rt) != (job["x0"], job["y0"], t_end):
                problems.append(f"{label} {scheme} h={h}: row does not echo its inputs")
            if math.isfinite(fx) and math.isfinite(fy):
                want = min(math.hypot(fx - p[0], fy - p[1]) for p in eqs)
                # off by at most the error of the located equilibrium
                if not abs(dist - want) <= POINT_TOL + 1e-9 * want:
                    problems.append(f"{label} {scheme} h={h}: dist_to_equilibrium {dist!r}, "
                                    f"closed form gives {want!r}")
            if scheme in ("nsfd", "ensfd") and not (fx > 0.0 and fy > 0.0 and r[8] is None
                                                    and not r[9]):
                problems.append(f"{label} {scheme} h={h}: positivity-preserving row is not "
                                "positive")
    if not valid:
        return
    # the positivity-preserving rows again, from one independent integration of all jobs
    params = tuple(np.array(col) for col in zip(*(jobs[j]["params"] for j in valid)))
    x0 = [jobs[j]["x0"] for j in valid]
    y0 = [jobs[j]["y0"] for j in valid]
    for scheme in ("nsfd", "ensfd"):
        if scheme not in schemes:
            continue
        for h in hs:
            fx, fy = ref.final_states(parts, params, scheme, x0, y0, h,
                                      ref.step_count(t_end, h))
            for col, j in enumerate(valid):
                row = tables[j][expect.index((scheme, h))]
                if not (_close(row[5], fx[col], FINAL_RTOL)
                        and _close(row[6], fy[col], FINAL_RTOL)):
                    problems.append(f"{name} job {j} {scheme} h={h}: final state "
                                    f"({row[5]!r}, {row[6]!r}), reference "
                                    f"({float(fx[col])!r}, {float(fy[col])!r})")


def _parse_comparison(path):
    header, rows = _read_table(path)
    out = []
    for r in rows:
        out.append((r[0], float(r[1]), float(r[2]), float(r[3]), float(r[4]), float(r[5]),
                    float(r[6]), float(r[7]), int(r[8]) if r[8] else None, r[9] == "true"))
    return header, out


def check_sweep(jobs, records):
    problems = []
    tables = []
    for j, rec in enumerate(records):
        header, rows = _parse_comparison(_first_line(rec["compare"]))
        if header != nsfd.diagnostics.COMPARISON_HEADER.split(","):
            problems.append(f"sweep job {j}: unexpected header {header}")
        tables.append(rows)
    eqs = [ref.rma_equilibria(job["params"], SWEEP_BOX) for job in jobs]
    _check_comparisons("sweep", jobs, tables, ref.rma_parts, eqs, SWEEP_T_END, SWEEP_HS,
                       SCHEMES, problems)
    return problems


# ---------------------------------------------------------------------------
# scan: equilibria, stability reports and ghost scans through the library

SCAN_SEEDS_PER_AXIS = 12
SCAN_BOX = (20.0, 20.0)


def scan_jobs(rng, n):
    jobs = []
    for _ in range(n):
        jobs.append({"params": _rma_draw(rng),
                     "hs": tuple(sorted(_logu(rng, 0.05, 20.0) for _ in range(3))),
                     # nsfd is scanned at large steps, where classical schemes grow ghosts
                     "h_nsfd": _logu(rng, 0.5, 5.0),
                     "h_rk2": _logu(rng, 0.1, 0.5)})
    return jobs


def _ghost_rows(report):
    return [(p.x, p.y, p.residual, p.genuine) for p in report.fixed_points]


def scan_run(ops, job, out):
    system = ops.call(nsfd.make_rosenzweig_macarthur, *job["params"])
    eqs = ops.call(nsfd.find_equilibria, system)
    reports = [ops.call(nsfd.stability_report, system, p, job["hs"]) for p in eqs]
    g_nsfd = ops.call(nsfd.detect_ghosts, system, nsfd.NSFD, job["h_nsfd"],
                      seeds_per_axis=SCAN_SEEDS_PER_AXIS)
    g_rk2 = ops.call(nsfd.detect_ghosts, system, nsfd.RK2, job["h_rk2"],
                     seeds_per_axis=SCAN_SEEDS_PER_AXIS)
    return {"equilibria": [(p.x, p.y, p.family) for p in eqs], "reports": reports,
            "ghosts_nsfd": _ghost_rows(g_nsfd), "ghosts_rk2": _ghost_rows(g_rk2)}


def _check_nsfd_ghosts(label, rows, equilibria, problems):
    # the paper's claim: map fixed points are exactly the flow equilibria
    if any(not r[3] for r in rows):
        problems.append(f"{label}: nsfd map has ghost fixed points {rows}")
    _match_points(label, rows, equilibria, GHOST_TOL, problems)


def _complex(z):
    return complex(z["re"], z["im"])


def check_scan(jobs, records):
    problems = []
    for j, (job, rec) in enumerate(zip(jobs, records)):
        label = f"scan job {j}"
        params = job["params"]
        eqs = ref.rma_equilibria(params, SCAN_BOX)
        _match_points(f"{label} find_equilibria", rec["equilibria"], eqs, POINT_TOL, problems)
        for (x, y, fam), (ex, ey, efam) in zip(sorted(rec["equilibria"]), sorted(eqs)):
            if fam != efam:
                problems.append(f"{label}: point ({x!r}, {y!r}) labelled {fam}, expected {efam}")
        if len(rec["reports"]) != len(rec["equilibria"]):
            problems.append(f"{label}: {len(rec['reports'])} stability reports for "
                            f"{len(rec['equilibria'])} equilibria")
        for rep in rec["reports"]:
            x, y, fam = rep["point"]["x"], rep["point"]["y"], rep["family"]
            c = rep["continuous"]
            got = [_complex(c["lambda1"]), _complex(c["lambda2"])]
            if not ref.same_values(got, ref.rma_continuous_eigs(params, x, y, fam), EIG_RTOL):
                problems.append(f"{label} {fam}: continuous eigenvalues {got} differ from the "
                                "closed form")
            if [d["h"] for d in rep["discrete"]] != list(job["hs"]):
                problems.append(f"{label} {fam}: discrete verdicts not at the requested steps")
            for d in rep["discrete"]:
                got = [_complex(d["gamma1"]), _complex(d["gamma2"])]
                want = ref.nsfd_multipliers(ref.rma_parts, params, x, y, d["h"])
                if not ref.same_values(got, want, MULT_RTOL):
                    problems.append(f"{label} {fam} h={d['h']!r}: multipliers {got} differ "
                                    f"from the map Jacobian's {want}")
        _check_nsfd_ghosts(f"{label} nsfd ghosts", rec["ghosts_nsfd"], eqs, problems)
        for x, y, res, genuine in rec["ghosts_rk2"]:
            mx, my = ref.step(ref.rma_parts, params, "rk2", x, y, job["h_rk2"])
            if max(abs(mx - x), abs(my - y)) > POINT_TOL * max(1.0, abs(x), abs(y)):
                problems.append(f"{label} rk2: ({x!r}, {y!r}) is not a fixed point of the map")
            near = min(math.hypot(x - e[0], y - e[1]) for e in eqs) < GHOST_TOL
            if genuine != near:
                problems.append(f"{label} rk2: ({x!r}, {y!r}) labelled genuine={genuine}")
    return problems


# ---------------------------------------------------------------------------
# callable: competitive Lotka-Volterra from plain callables, no analytic partials

LV_H = 0.1
LV_T_END = 50.0
LV_COMPARE_HS = (0.1, 1.0)
LV_COMPARE_T_END = 20.0
LV_SEEDS_PER_AXIS = 20
LV_BOX = (20.0, 20.0)


def callable_jobs(rng, n):
    jobs = []
    for _ in range(n):
        a11, a22 = rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5)
        a12, a21 = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)
        # coefficients built around a coexistence point inside the quadrant
        xs, ys = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        jobs.append({"params": (a11 * xs + a12 * ys, a21 * xs + a22 * ys, a11, a12, a21, a22),
                     "x0": rng.uniform(0.2, 3.0), "y0": rng.uniform(0.2, 3.0),
                     "h_ghost": _logu(rng, 0.5, 5.0)})
    return jobs


def lotka_volterra(params):
    r1, r2, a11, a12, a21, a22 = params
    return (lambda x, y: r1, lambda x, y: a11 * x + a12 * y,
            lambda x, y: r2, lambda x, y: a21 * x + a22 * y)


def _comparison_rows(table):
    return [(r.scheme, r.h, r.x0, r.y0, r.t_end, r.final_x, r.final_y, r.dist_to_equilibrium,
             r.positivity_violation_step, r.nonfinite) for r in table.rows]


def callable_run(ops, job, out):
    system = ops.call(nsfd.SplitSystem, *lotka_volterra(job["params"]), name="lv")
    eqs = ops.call(nsfd.find_equilibria, system)
    s0 = nsfd.State(job["x0"], job["y0"])
    trajs = {}
    for scheme in (nsfd.NSFD, nsfd.RK4):
        traj = ops.call(nsfd.integrate, system, scheme, s0, LV_H, LV_T_END)
        trajs[scheme.kind] = (traj.ts, traj.xs, traj.ys)
    ghosts = ops.call(nsfd.detect_ghosts, system, nsfd.NSFD, job["h_ghost"],
                      seeds_per_axis=LV_SEEDS_PER_AXIS)
    table = ops.call(nsfd.compare_schemes, system, [nsfd.NSFD, nsfd.RK4], s0,
                     LV_COMPARE_HS, LV_COMPARE_T_END)
    return {"equilibria": [(p.x, p.y, p.family) for p in eqs], "trajectories": trajs,
            "ghosts_nsfd": _ghost_rows(ghosts), "compare": _comparison_rows(table)}


def check_callable(jobs, records):
    problems = []
    n_steps = ref.step_count(LV_T_END, LV_H)
    for j, (job, rec) in enumerate(zip(jobs, records)):
        label = f"callable job {j}"
        params = job["params"]
        eqs = ref.lv_equilibria(params, LV_BOX)
        _match_points(f"{label} find_equilibria", rec["equilibria"], eqs, POINT_TOL, problems)
        for kind, (t, x, y) in rec["trajectories"].items():
            if len(t) != n_steps + 1 or (x[0], y[0]) != (job["x0"], job["y0"]):
                problems.append(f"{label} {kind}: {len(t)} states, expected {n_steps + 1} "
                                "from the initial state")
                continue
            if not _close(t, LV_H * np.arange(len(t)), STEP_RTOL):
                problems.append(f"{label} {kind}: times are not the grid k*h")
            px, py = ref.step(ref.lv_parts, params, kind, x[:-1], y[:-1], LV_H)
            if not (_close(px, x[1:], STEP_RTOL) and _close(py, y[1:], STEP_RTOL)):
                problems.append(f"{label} {kind}: a state is not one step from the previous")
            if kind == "nsfd" and not (np.all(x > 0.0) and np.all(y > 0.0)):
                problems.append(f"{label} nsfd: non-positive state")
        _check_nsfd_ghosts(f"{label} nsfd ghosts", rec["ghosts_nsfd"], eqs, problems)
    _check_comparisons("callable compare", jobs, [rec["compare"] for rec in records],
                       ref.lv_parts, [ref.lv_equilibria(job["params"], LV_BOX) for job in jobs],
                       LV_COMPARE_T_END, LV_COMPARE_HS, ("nsfd", "rk4"), problems)
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_jobs: object     # (random.Random, n) -> list of job inputs
    run: object           # (Ops, job, output directory) -> record
    check: object         # (jobs, records) -> list of problems
    jobs_per_round: int
    tail_pct: int         # tail percentile; a run times at least 10 / (1 - tail) jobs
    cli: bool             # jobs call the CLI and write files

    @property
    def setup(self):
        """What a fresh interpreter imports and builds before the first job."""
        return "import nsfd.cli; nsfd.cli.build_parser()" if self.cli else "import nsfd"

    def jobs(self, seed, n=None):
        return self.make_jobs(random.Random(f"{self.name}:{seed}"),
                              self.jobs_per_round if n is None else n)

    @property
    def min_jobs(self):
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)


WORKLOADS = {w.name: w for w in (
    Workload("orbit", orbit_jobs, orbit_run, check_orbit, 24, 90, True),
    Workload("sweep", sweep_jobs, sweep_run, check_sweep, 80, 95, True),
    Workload("scan", scan_jobs, scan_run, check_scan, 36, 90, False),
    Workload("callable", callable_jobs, callable_run, check_callable, 24, 90, False),
)}
