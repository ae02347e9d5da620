"""Independent numpy versions of what the benchmark checks.

Everything here is written from the model formulas, not from nsfd's code:
the step maps use numpy arithmetic (vectorised over any number of orbits),
rk4 sums its stages in the textbook order, the exponential weight uses
1 - exp(-lam*h) instead of expm1, and equilibria and eigenvalues come from
closed forms.  Checks compare against these with stated tolerances, so a
change that reorders nsfd's arithmetic still passes while a wrong value
does not.
"""

import math

import numpy as np

MODEL1 = (2.0, 1.0, 0.5, 6.0)
MODEL2 = (2.0, 1.0, 1.0, 0.2)


def rma_parts(params, x, y):
    """(f+, f-, g+, g-) of the Rosenzweig-MacArthur family at (x, y)."""
    a, b, c, d = params
    return b, b * x + a * y / (c + x), x / (c + x), d


def lv_parts(params, x, y):
    """(f+, f-, g+, g-) of competitive Lotka-Volterra, params (r1, r2, a11, a12, a21, a22)."""
    r1, r2, a11, a12, a21, a22 = params
    return r1, a11 * x + a12 * y, r2, a21 * x + a22 * y


def weight(h, lam=None):
    """Denominator weight: h for nsfd, (1 - exp(-lam h)) / lam for exp:lam."""
    return h if lam is None else (1.0 - np.exp(-lam * h)) / lam


def step(parts, params, kind, x, y, h, lam=None):
    """One step of scheme `kind` from arrays (or scalars) x, y."""
    if kind in ("nsfd", "ensfd"):
        e = weight(h, lam)
        fp, fm, gp, gm = parts(params, x, y)
        return x * (1.0 + e * fp) / (1.0 + e * fm), y * (1.0 + e * gp) / (1.0 + e * gm)

    def field(u, v):
        fp, fm, gp, gm = parts(params, u, v)
        return u * (fp - fm), v * (gp - gm)

    k1 = field(x, y)
    if kind == "euler":
        return x + h * k1[0], y + h * k1[1]
    k2 = field(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
    if kind == "rk2":
        return x + h * k2[0], y + h * k2[1]
    if kind != "rk4":
        raise ValueError(f"unknown scheme {kind!r}")
    k3 = field(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
    k4 = field(x + h * k3[0], y + h * k3[1])
    return (x + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0,
            y + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0)


def final_states(parts, params, kind, x0, y0, h, n):
    """Run n steps for every orbit at once; an orbit stops at its last finite state.

    Returns the (x, y) arrays of final states.
    """
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    alive = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(n):
            xn, yn = step(parts, params, kind, x, y, h)
            ok = alive & np.isfinite(xn) & np.isfinite(yn)
            x = np.where(ok, xn, x)
            y = np.where(ok, yn, y)
            alive = ok
    return x, y


def step_count(t_end, h):
    """Whole steps covering [0, t_end], rounding ratios within 1e-9 of an integer up."""
    r = t_end / h
    n = math.floor(r)
    return n + 1 if r - n > 1.0 - 1e-9 else n


def order_errors(params, scheme, x0, y0, t_end, hs, refinement=100):
    """Sup-norm errors of `scheme` against an rk4 orbit at min(hs)/refinement.

    Vectorised over the starts x0, y0; returns an array (len(hs), len(x0)).
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    h_fine = hs[-1]
    h_ref = h_fine / refinement
    n_fine = step_count(t_end, h_fine)
    ref_x = [x0]
    ref_y = [y0]
    x, y = x0, y0
    for _ in range(n_fine):
        for _ in range(refinement):
            x, y = step(rma_parts, params, "rk4", x, y, h_ref)
        ref_x.append(x)
        ref_y.append(y)
    ref_x = np.array(ref_x)
    ref_y = np.array(ref_y)
    errors = []
    for h in hs:
        stride = int(round(h / h_fine))
        x, y = x0, y0
        err = np.zeros_like(x0)
        for k in range(1, step_count(t_end, h) + 1):
            x, y = step(rma_parts, params, scheme, x, y, h)
            err = np.maximum(err, np.maximum(np.abs(x - ref_x[k * stride]),
                                             np.abs(y - ref_y[k * stride])))
        errors.append(err)
    return np.array(errors)


def rma_equilibria(params, box):
    """Closed-form equilibria of the RMA family inside [0, bx] x [0, by].

    O, the prey-only point (1, 0), and (cd/(1-d), b(1-x*)(c+x*)/a) when it
    lies inside the open quadrant.  The predator axis carries none (g+ = 0
    there while g- = d > 0).
    """
    a, b, c, d = params
    bx, by = box
    pts = [(0.0, 0.0, "O")]
    if 1.0 <= bx:
        pts.append((1.0, 0.0, "E1"))
    if d < 1.0:
        xs = c * d / (1.0 - d)
        ys = b * (1.0 - xs) * (c + xs) / a
        if 0.0 < xs <= bx and 0.0 < ys <= by:
            pts.append((xs, ys, "E3"))
    return pts


def lv_equilibria(params, box):
    """O, (r1/a11, 0), (0, r2/a22) and the 2x2 linear solve when it is positive."""
    r1, r2, a11, a12, a21, a22 = params
    bx, by = box
    pts = [(0.0, 0.0, "O")]
    if r1 / a11 <= bx:
        pts.append((r1 / a11, 0.0, "E1"))
    if r2 / a22 <= by:
        pts.append((0.0, r2 / a22, "E2"))
    xs, ys = np.linalg.solve([[a11, a12], [a21, a22]], [r1, r2])
    if 0.0 < xs <= bx and 0.0 < ys <= by:
        pts.append((float(xs), float(ys), "E3"))
    return pts


def rma_continuous_eigs(params, x, y, family):
    """Flow eigenvalues at an RMA equilibrium, from the closed-form Jacobian."""
    a, b, c, d = params
    if family == "O":
        return [complex(b), complex(-d)]
    if family == "E1":
        return [complex(-b), complex(1.0 / (c + 1.0) - d)]
    T = -x * (b - a * y / (c + x) ** 2)
    D = x * y * a * c / (c + x) ** 3
    return list(np.roots([1.0, -T, D]).astype(complex))


def nsfd_multipliers(parts, params, x, y, h, dx=1e-6):
    """Eigenvalues of the central-difference Jacobian of the nsfd map at (x, y)."""
    px = step(parts, params, "nsfd", np.array([x + dx, x - dx]), np.array([y, y]), h)
    py = step(parts, params, "nsfd", np.array([x, x]), np.array([y + dx, y - dx]), h)
    jac = np.array([[(px[0][0] - px[0][1]) / (2 * dx), (py[0][0] - py[0][1]) / (2 * dx)],
                    [(px[1][0] - px[1][1]) / (2 * dx), (py[1][0] - py[1][1]) / (2 * dx)]])
    return list(np.linalg.eigvals(jac).astype(complex))


def same_values(got, want, rtol):
    """True when two lists of complex numbers agree as multisets within rtol."""
    if len(got) != len(want):
        return False
    left = list(want)
    for g in got:
        i = min(range(len(left)), key=lambda j: abs(g - left[j]))
        if abs(g - left[i]) > rtol * max(1.0, abs(left[i])):
            return False
        left.pop(i)
    return True
