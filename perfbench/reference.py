"""Expected answers computed by routes that share no code with the scan path.

Group rays (SU(2), SL(2)) use the closed-form radii: on a unit direction the
scan parameter s maps to x = s (SU(2), x = rho) or x = s * sqrt(r_d) (SL(2),
x = sqrt(r)). C1 points sit at x = 2 pi k and are Tangential; C0 points sit at
the roots of tan(x/2) = x/2 and are Fold, except on SU(2) rays with w0 = 0,
where the classification theory does not apply and the answer is Undetermined.

Grushin rays use the Hamiltonian ODE: the geodesic of the unit direction d is
integrated together with its variations in (u0, v0). By homogeneity of the
Hamiltonian, s d is conjugate exactly when det d(x, y)(s)/d(u0, v0) vanishes,
and the kernel of that Jacobian is the kernel of the time-one exponential at
s d. Two copies of the ray rotated by a small angle trace the tangent of the
conjugate locus; a kernel transversal to it makes the point a fold. Rays that
share alpha and s_max are integrated together as one vectorized system.

Only numpy and scipy are used here; nothing is imported from srfolds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

# the self-test's radius tolerance (su2-scan-radii threshold)
RADIUS_TOL = 1e-6
# the scan starts at s_max * RAY_ORIGIN_OFFSET (singularity.RAY_ORIGIN_OFFSET)
RAY_ORIGIN_OFFSET = 1e-4
# |normal . kernel| above which a Grushin point must be Fold; below it the
# reference does not decide the class (its finite-difference tangent is only
# good to about 1e-4)
FOLD_PAIRING_MIN = 1e-2
# angle between a Grushin ray and the two copies that trace the locus tangent
ANGLE_STEP = 1e-5
# Grushin ODE tolerances; the radii agree with the closed forms to ~1e-9
GRUSHIN_RTOL = 1e-10
GRUSHIN_ATOL = 1e-12


@dataclass(frozen=True)
class Expected:
    """One conjugate point the scan must report.

    cls is the required class, or None when the reference cannot decide it.
    optional points lie within RADIUS_TOL of an end of the scan interval, so
    the scan may report them or not.
    """

    s: float
    stratum: str | None
    cls: str | None
    optional: bool = False


def _tan_half_roots(x_max: float) -> list[float]:
    """Positive roots x of tan(x/2) = x/2 up to x_max, by Newton on y cos y - sin y."""
    roots = []
    k = 1
    while True:
        lo, hi = k * math.pi, k * math.pi + math.pi / 2.0
        if 2.0 * lo > x_max:
            return roots
        y = hi - 1.0 / hi
        for _ in range(60):
            step = (y * math.cos(y) - math.sin(y)) / (-y * math.sin(y))
            y = min(max(y - step, lo), hi)
            if abs(step) <= 1e-15 * y:
                break
        if 2.0 * y <= x_max:
            roots.append(2.0 * y)
        k += 1


def _mark_edges(points: list[Expected], lo: float, hi: float) -> list[Expected]:
    out = []
    for p in points:
        if p.s < lo - RADIUS_TOL or p.s > hi + RADIUS_TOL:
            continue
        edge = p.s < lo + RADIUS_TOL or p.s > hi - RADIUS_TOL
        out.append(Expected(p.s, p.stratum, p.cls, optional=edge))
    return sorted(out, key=lambda p: p.s)


def group_expected(structure: str, direction, s_max: float) -> list[Expected]:
    """Expected records on an SU(2) or SL(2) ray from the closed-form radii."""
    u, v, w = (float(c) for c in direction)
    norm = math.sqrt(u * u + v * v + w * w)
    u, v, w = u / norm, v / norm, w / norm
    if u * u + v * v == 0.0:
        return []
    if structure == "su2":
        scale = 1.0
        c0_class = "Undetermined" if w == 0.0 else "Fold"
    else:
        r_d = w * w - (u * u + v * v)
        if r_d <= 0.0:
            return []
        scale = math.sqrt(r_d)
        c0_class = "Fold"
    x_max = (s_max + 1.0) * scale
    points = [Expected(2.0 * math.pi * k / scale, "C1", "Tangential")
              for k in range(1, int(x_max / (2.0 * math.pi)) + 1)]
    points += [Expected(x / scale, "C0", c0_class) for x in _tan_half_roots(x_max)]
    return _mark_edges(points, s_max * RAY_ORIGIN_OFFSET, s_max)


def _grushin_field(alpha: np.ndarray, v: np.ndarray):
    """Vectorized RHS for (x, y, u) and their first variations in (u0, v0)."""
    p = 2.0 * alpha
    c1, c2 = p, p * (p - 1.0)
    h = 0.5 * v * v
    n = alpha.size

    def field(t: float, flat: np.ndarray) -> np.ndarray:
        x, y, u, xa, ya, ua, xb, yb, ub = flat.reshape(9, n)
        ax = np.abs(x)
        pw2 = ax ** (p - 2.0)
        e0 = ax ** p
        e1 = c1 * pw2 * x
        e2 = c2 * pw2
        return np.concatenate([
            u, v * e0, -h * e1,
            ua, v * e1 * xa, -h * e2 * xa,
            ub, e0 + v * e1 * xb, -v * e1 - h * e2 * xb])

    return field


def _det(z: np.ndarray) -> np.ndarray:
    return z[3] * z[7] - z[6] * z[4]


def _kernel(z: np.ndarray) -> np.ndarray:
    """Unit kernel of d(x, y)/d(u0, v0) for one system's state at a root of det."""
    xa, ya, xb, yb = z[3], z[4], z[6], z[7]
    k = np.array([xb, -xa]) if math.hypot(xa, xb) >= math.hypot(ya, yb) else np.array([yb, -ya])
    return k / np.linalg.norm(k)


def _conjugate_times(rays: list[tuple[float, float, float, float, float]]):
    """Sign changes of det d(x, y)(t)/d(u0, v0) for each (alpha, x0, u0, v0, t_max).

    Returns, per ray, a list of (t, unit kernel) sorted by t.
    """
    n = len(rays)
    alpha = np.array([r[0] for r in rays])
    v = np.array([r[3] for r in rays])
    z0 = np.zeros((9, n))
    z0[0] = [r[1] for r in rays]
    z0[2] = [r[2] for r in rays]
    z0[5] = 1.0
    t_max = np.array([r[4] for r in rays])
    # the solver's error norm is an RMS over the whole stacked state, so the
    # budget of one system shrinks by sqrt(n)
    solver = DOP853(_grushin_field(alpha, v), 0.0, z0.ravel(), float(t_max.max()),
                    rtol=GRUSHIN_RTOL / math.sqrt(n), atol=GRUSHIN_ATOL)
    found: list[list[tuple[float, np.ndarray]]] = [[] for _ in range(n)]
    t_prev, d_prev = 0.0, None
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"reference ODE failed at t={solver.t}: {solver.status}")
        d_now = _det(solver.y.reshape(9, n))
        if d_prev is not None:
            flips = np.nonzero((np.sign(d_prev) != np.sign(d_now))
                               & (d_now != 0.0) & (t_prev <= t_max))[0]
            if flips.size:
                interp = solver.dense_output()
                for j in flips:
                    def det_j(t, _j=j):
                        return float(_det(interp(t).reshape(9, n)[:, _j]))
                    root = brentq(det_j, t_prev, solver.t, xtol=1e-13, rtol=1e-15)
                    found[j].append((root, _kernel(interp(root).reshape(9, n)[:, j])))
        t_prev, d_prev = solver.t, d_now
    return found


def _rotate(u: float, v: float, eps: float) -> tuple[float, float]:
    c, s = math.cos(eps), math.sin(eps)
    return c * u - s * v, s * u + c * v


def grushin_expected(rays) -> list[list[Expected]]:
    """Expected records for each (alpha, x0, (u, v), s_max) ray.

    Rays sharing alpha and s_max are integrated as one vectorized system; a
    wider mix would force every system onto the smallest step any of them
    needs (alpha = 1.5 has a kink in its field at x = 0).
    """
    rays = list(rays)
    groups: dict[tuple[float, float], list[int]] = {}
    for i, (alpha, _, _, s_max) in enumerate(rays):
        groups.setdefault((float(alpha), float(s_max)), []).append(i)
    out: list[list[Expected]] = [[] for _ in rays]
    for members in groups.values():
        for i, expected in zip(members, _grushin_batch([rays[i] for i in members])):
            out[i] = expected
    return out


def _grushin_batch(rays) -> list[list[Expected]]:
    """Expected records for rays integrated together.

    Rays with v = 0 carry no conjugate points (the scan gates them out). Each
    ray is integrated together with two copies rotated by +-ANGLE_STEP, so the
    tangent of the conjugate locus comes from matching their conjugate times;
    a kernel transversal to that tangent is a fold.
    """
    rays = list(rays)
    out: list[list[Expected]] = [[] for _ in rays]
    live, systems = [], []
    for i, (alpha, x0, direction, s_max) in enumerate(rays):
        u0, v0 = (float(c) for c in direction)
        norm = math.hypot(u0, v0)
        if v0 == 0.0:
            continue
        u0, v0 = u0 / norm, v0 / norm
        live.append((i, u0, v0, float(s_max)))
        # the rotated copies run a little longer so that roots near s_max match
        for eps, stretch in ((0.0, 1.0), (ANGLE_STEP, 1.01), (-ANGLE_STEP, 1.01)):
            ru, rv = _rotate(u0, v0, eps)
            systems.append((float(alpha), float(x0), ru, rv, float(s_max) * stretch))
    if not live:
        return out
    found = _conjugate_times(systems)
    for j, (i, u0, v0, s_max) in enumerate(live):
        base, plus, minus = found[3 * j], found[3 * j + 1], found[3 * j + 2]
        d_plus = np.array(_rotate(u0, v0, ANGLE_STEP))
        d_minus = np.array(_rotate(u0, v0, -ANGLE_STEP))
        points = []
        for t, kern in base:
            cls = None
            tp = min(plus, key=lambda p: abs(p[0] - t), default=None)
            tm = min(minus, key=lambda p: abs(p[0] - t), default=None)
            if tp is not None and tm is not None:
                tangent = tp[0] * d_plus - tm[0] * d_minus
                normal = np.array([-tangent[1], tangent[0]]) / np.linalg.norm(tangent)
                if abs(float(normal @ kern)) >= FOLD_PAIRING_MIN:
                    cls = "Fold"
            points.append(Expected(t, None, cls))
        out[i] = _mark_edges(points, s_max * RAY_ORIGIN_OFFSET, s_max)
    return out


def compare(records, expected: list[Expected]) -> list[str]:
    """Problems with a scan's records against the expected points; [] when correct.

    records are (s, stratum, order, class) tuples sorted by s.
    """
    problems = []
    i = 0
    got = list(records)
    for exp in expected:
        while i < len(got) and got[i][0] < exp.s - RADIUS_TOL:
            problems.append(f"extra record at s={got[i][0]:.9g}")
            i += 1
        if i < len(got) and abs(got[i][0] - exp.s) <= RADIUS_TOL:
            s, stratum, order, cls = got[i]
            if order != 1:
                problems.append(f"order {order} at s={s:.9g}")
            if exp.stratum is not None and stratum != exp.stratum:
                problems.append(f"stratum {stratum} at s={s:.9g}, want {exp.stratum}")
            if exp.cls is not None and cls != exp.cls:
                problems.append(f"class {cls} at s={s:.9g}, want {exp.cls}")
            i += 1
        elif not exp.optional:
            problems.append(f"missing record at s={exp.s:.9g}")
    problems += [f"extra record at s={g[0]:.9g}" for g in got[i:]]
    return problems


# ---- endpoint oracles for `srfolds expmap` (the self-test's ODE systems) ----

def _integrate_end(field, y0, t: float) -> np.ndarray:
    sol = solve_ivp(field, (0.0, t), np.asarray(y0, float), method="DOP853",
                    rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference ODE failed: {sol.message}")
    return sol.y[:, -1]


def expmap_expected(structure: str, covector, t: float = 1.0,
                    alpha: float = 1.0, x0: float = 0.0) -> dict[str, float]:
    """Endpoint and momentum of a normal geodesic, by Hamiltonian ODE integration."""
    if structure == "grushin":
        u0, v0 = covector

        def field(_t, y):
            x, _, u, v = y
            ax = abs(x)
            odd = ax ** (2.0 * alpha - 2.0) * x if x != 0.0 else 0.0
            return [u, v * ax ** (2.0 * alpha), -alpha * v * v * odd, 0.0]

        x, y, u, v = _integrate_end(field, [x0, 0.0, u0, v0], t)
        return {"x": x, "y": y, "u": u, "v": v}
    u0, v0, w0 = covector
    if structure == "su2":
        def field(_t, y):
            a, b = complex(y[0], y[1]), complex(y[2], y[3])
            da = 0.5 * b * complex(-y[4], y[5])
            db = 0.5 * a * complex(y[4], y[5])
            return [da.real, da.imag, db.real, db.imag, -w0 * y[5], w0 * y[4]]

        end = _integrate_end(field, [1.0, 0.0, 0.0, 0.0, u0, v0], t)
        names = ("alpha_re", "alpha_im", "beta_re", "beta_im", "u", "v")
    else:
        def field(_t, y):
            m11, m12, m21, m22, u, v = y
            return [0.5 * (m11 * u + m12 * v), 0.5 * (m11 * v - m12 * u),
                    0.5 * (m21 * u + m22 * v), 0.5 * (m21 * v - m22 * u),
                    w0 * v, -w0 * u]

        end = _integrate_end(field, [1.0, 0.0, 0.0, 1.0, u0, v0], t)
        names = ("m11", "m12", "m21", "m22", "u", "v")
    out = dict(zip(names, (float(c) for c in end)))
    out["w"] = float(w0)
    return out
