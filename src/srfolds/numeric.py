"""Shared numerics: ODE integration, quadrature, root finding, FD Jacobians, rank queries.

Contract-checked wrappers around numpy, plus scipy.integrate for the ODE and
quadrature oracles, which integrate and quad import on first use. Root
polishing is Brent's method written out here, operation for operation as
scipy.optimize.brentq, so finding roots loads no scipy module. Every closed
form in the library is cross-checked against routines from this module, so the
defaults are tight: the integrator runs at rel 1e-10 / abs 1e-12 and root
polishing at 1e-10 unless a caller loosens them explicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateMatrix, InvalidInput, NonConvergence, StepFailure

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
DEFAULT_ROOT_TOL = 1e-10
DEFAULT_RANK_TOL_FACTOR = 1e-7
DEFAULT_SCAN_POINTS = 400
# Brent steps before a polish gives up (scipy.optimize.brentq's default)
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class OdeProblem:
    """First-order IVP y' = vector_field(t, y), y(t0) = initial_state, on t_span."""

    dimension: int
    vector_field: Callable[[float, np.ndarray], np.ndarray]
    initial_state: np.ndarray
    t_span: tuple[float, float]

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInput(f"dimension must be >= 1, got {self.dimension}")
        if len(self.initial_state) != self.dimension:
            raise InvalidInput(
                f"initial_state length {len(self.initial_state)} != dimension {self.dimension}")
        if not self.t_span[0] < self.t_span[1]:
            raise InvalidInput(f"t_span must be increasing, got {self.t_span}")


class Trajectory:
    """Dense ODE solution; callable at any t inside the integrated span."""

    def __init__(self, sol, t_span: tuple[float, float]):
        self._sol = sol
        self.t_span = t_span

    def __call__(self, t: float) -> np.ndarray:
        lo, hi = self.t_span
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise InvalidInput(f"t={t} outside integrated span {self.t_span}")
        return np.atleast_1d(self._sol(t))

    @property
    def end(self) -> np.ndarray:
        return self(self.t_span[1])


def integrate(problem: OdeProblem,
              rel_tol: float = DEFAULT_REL_TOL,
              abs_tol: float = DEFAULT_ABS_TOL) -> Trajectory:
    """Integrate an OdeProblem with an embedded RK5(4) pair, dense output.

    Raises StepFailure if the integrator cannot reach the end of the span.
    """
    for tol in (rel_tol, abs_tol):
        if not (0.0 < tol <= 1e-2):
            raise InvalidInput(f"tolerance {tol} outside (0, 1e-2]")
    from scipy.integrate import solve_ivp

    y0 = np.asarray(problem.initial_state, dtype=float)
    res = solve_ivp(problem.vector_field, problem.t_span, y0, method="RK45",
                    rtol=rel_tol, atol=abs_tol, dense_output=True)
    if not res.success:
        raise StepFailure(f"integration failed on {problem.t_span}: {res.message}")
    return Trajectory(res.sol, tuple(problem.t_span))


def quad(f: Callable[[float], float], a: float, b: float,
         tol: float = DEFAULT_ROOT_TOL) -> float:
    """Adaptive quadrature of f over [a, b]; the error estimate must meet tol."""
    from scipy.integrate import quad as _quad

    out = _quad(f, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > max(tol, tol * abs(value)):
        raise NonConvergence(
            f"quadrature error estimate {abserr:.3e} exceeds tol {tol:.3e} on [{a}, {b}]")
    return value


@dataclass(frozen=True)
class RootHit:
    """One sign-change root of a scalar function on a scan interval."""

    value: float
    residual: float


def libm(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """fn(v, *args) at each element v of a 1-d array, through Python floats.

    numpy's own transcendental ufuncs (power, log, expm1, arcsin, sin, ...)
    may differ from the C library by an ulp; this gives what the scalar code
    computes, bit for bit.
    """
    columns = (itertools.repeat(arg, x.size) for arg in args)
    return np.fromiter(map(fn, x.tolist(), *columns), dtype=float, count=x.size)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row pair of two (N, k) arrays, bit for bit.

    A stacked matmul takes the same dot product per row as the 1-d a[i] @ b[i]
    (and as np.linalg.norm, which is sqrt(x @ x)); np.einsum and
    np.linalg.norm(axis=1) sum in another order and may differ in the last bit.
    """
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def scan_nodes(lo: float, hi: float, scan_points: int) -> np.ndarray:
    """The uniform grid of find_roots: scan_points nodes from lo to hi."""
    if not (hi > lo):
        raise InvalidInput(f"empty scan interval [{lo}, {hi}]")
    if scan_points < 2:
        raise InvalidInput("scan_points must be at least 2")
    return np.linspace(lo, hi, scan_points)


def check_root_tol(tol: float) -> None:
    """Raise InvalidInput unless tol is a positive finite root tolerance."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidInput(f"root tolerance must be positive and finite, got {tol}")


def find_roots(g: Callable[[float], float], lo: float, hi: float,
               scan_points: int = DEFAULT_SCAN_POINTS,
               tol: float = DEFAULT_ROOT_TOL,
               grid_values: Optional[np.ndarray] = None) -> list[RootHit]:
    """All sign-change roots of g on [lo, hi]: uniform scan, then Brent polish.

    The scan samples g at scan_nodes(lo, hi, scan_points), one call per node,
    unless grid_values already holds g at those nodes (a caller that can
    evaluate g over an array passes it); it must then equal g there bit for
    bit. Brent takes the values at a bracket's ends from the grid and calls g
    only inside it, and it returns g at the root, which is the residual.
    Every accepted root satisfies |g(r)| <= tol * scale, where scale is the
    largest |g| seen on the scan grid; a sign change across a pole fails that
    gate and is dropped. A grid node where g is exactly zero is a root only
    when the nearest nonzero grid values on either side differ in sign, so a
    zero at an endpoint or a touching zero is not reported. Hits are
    deduplicated and sorted ascending. A non-finite grid value raises
    NonConvergence, which names the first such node, and a tol that is not
    positive and finite raises InvalidInput. A NaN from g inside a bracket,
    or a bracket that Brent does not close in _BRENT_MAXITER steps, raises
    NonConvergence too.
    """
    check_root_tol(tol)
    xs = scan_nodes(lo, hi, scan_points)
    if grid_values is None:
        gs = np.array([g(x) for x in xs], dtype=float)
    else:
        gs = np.asarray(grid_values, dtype=float)
        if gs.shape != xs.shape:
            raise InvalidInput(
                f"grid_values has shape {gs.shape}, expected ({scan_points},)")
    bad = np.flatnonzero(~np.isfinite(gs))
    if bad.size:
        first = bad[0]
        raise NonConvergence(
            f"scan produced {bad.size} non-finite values on [{lo}, {hi}]; "
            f"first at s = {float(xs[first])!r}: {float(gs[first])!r}")
    scale = max(1.0, float(np.max(np.abs(gs))))
    hits: list[RootHit] = []

    nonzero = np.flatnonzero(gs)
    for i in np.flatnonzero(gs == 0.0):
        k = int(np.searchsorted(nonzero, i))
        if 0 < k < nonzero.size and np.sign(gs[nonzero[k - 1]]) != np.sign(gs[nonzero[k]]):
            hits.append(RootHit(float(xs[i]), 0.0))
    # residual gate: a sign change across a pole (tan-style) converges to the
    # discontinuity, where |g| stays huge; genuine roots polish to ~|g'| * xtol
    residual_cap = tol * scale
    sign = np.sign(gs)
    for i in np.flatnonzero((sign[:-1] != sign[1:]) & (sign[:-1] != 0.0) & (sign[1:] != 0.0)):
        r, value = _brent(g, float(xs[i]), float(xs[i + 1]), float(gs[i]), float(gs[i + 1]),
                          xtol=tol * 1e-2, rtol=1e-15)
        residual = abs(value)
        if residual <= residual_cap:
            hits.append(RootHit(float(r), residual))

    hits.sort(key=lambda h: h.value)
    merged: list[RootHit] = []
    min_gap = (hi - lo) * 1e-9
    for h in hits:
        if merged and abs(h.value - merged[-1].value) < min_gap:
            if h.residual < merged[-1].residual:
                merged[-1] = h
            continue
        merged.append(h)
    return merged


def _brent(g: Callable[[float], float], xa: float, xb: float, fa: float, fb: float,
           xtol: float, rtol: float) -> tuple[float, float]:
    """A root of g in [xa, xb] by Brent's method, and g there: (root, g(root)).

    fa = g(xa) and fb = g(xb) are given, of opposite signs, so g is called only
    inside the bracket. The steps are those of scipy.optimize.brentq (brentq.c;
    Brent, "Algorithms for Minimization without Derivatives", 1973, ch. 4),
    operation for operation, so the root is brentq's to the bit. A NaN from g,
    or no convergence in _BRENT_MAXITER steps, raises NonConvergence.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        # fpre is never 0 here, and a zero fcur returns below
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # brentq.c gets an infinite or NaN step here, which the
                # acceptance test below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(g(xcur))
        if fcur != fcur:
            raise NonConvergence(
                f"Brent polish on [{xa!r}, {xb!r}]: g is nan at {xcur!r}")
    raise NonConvergence(
        f"Brent polish on [{xa!r}, {xb!r}] did not converge in {_BRENT_MAXITER} steps")


def fd_jacobian(F: Callable[[np.ndarray], np.ndarray], x: Sequence[float],
                h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of F at x; step scaled per coordinate."""
    points, steps = fd_stencil(np.asarray(x, dtype=float), h)
    values = np.array([np.asarray(F(p), dtype=float) for p in points])
    # row-major, as callers have always received it: products and solves
    # with a transposed view may round differently
    return np.ascontiguousarray(fd_columns(values, steps))


def fd_stencil(x: np.ndarray, h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """The points and steps of fd_jacobian around each row of x.

    x has shape (..., k). The steps h_j = h max(1, |x_j|) have the shape of
    x; the points have shape (..., 2k, k) and run x + h_0 e_0, x - h_0 e_0,
    x + h_1 e_1, ..., the order in which fd_jacobian calls F.
    """
    if not (1e-8 <= h <= 1e-3):
        raise InvalidInput(f"step h={h} outside [1e-8, 1e-3]")
    k = x.shape[-1]
    # fmax, like Python's max(1.0, .), keeps 1.0 where |x_j| is nan
    steps = h * np.fmax(1.0, np.abs(x))
    points = np.repeat(x[..., np.newaxis, :], 2 * k, axis=-2)
    axis = np.arange(k)
    points[..., 2 * axis, axis] += steps
    points[..., 2 * axis + 1, axis] -= steps
    return points, steps


def fd_columns(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Jacobians of shape (..., m, k) from F at the fd_stencil points, shape (..., 2k, m)."""
    return ((values[..., 0::2, :] - values[..., 1::2, :])
            / (2.0 * steps[..., np.newaxis])).swapaxes(-1, -2)


@dataclass(frozen=True)
class RankResult:
    """SVD-based numeric rank report.

    image_complement holds, as columns, the left singular vectors past the
    numeric rank: an orthonormal basis of the complement of the column space
    (no columns at full row rank).
    """

    singular_values: np.ndarray
    numeric_rank: int
    nullspace_basis: tuple[np.ndarray, ...]
    tolerance_used: float
    image_complement: np.ndarray


def rank_nullspace(M: np.ndarray) -> RankResult | list[RankResult]:
    """Numeric rank and nullspace of M; threshold DEFAULT_RANK_TOL_FACTOR * largest sigma.

    M is one matrix, which gives one RankResult, or a stack of shape (N, m, n),
    which gives a list of N RankResults from one SVD call over the stack; each
    equals, bit for bit, what its matrix gives on its own.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.size == 0:
        raise InvalidInput(
            f"expected a nonempty matrix or stack of matrices, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DegenerateMatrix("matrix contains non-finite entries")
    u, s, vh = np.linalg.svd(M)
    if M.ndim == 2:
        return _rank_result(u, s, vh)
    return [_rank_result(*usv) for usv in zip(u, s, vh)]


def _rank_result(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> RankResult:
    if s[0] == 0.0:
        raise DegenerateMatrix("zero matrix has no usable rank threshold")
    tol = DEFAULT_RANK_TOL_FACTOR * float(s[0])
    rank = int(np.sum(s > tol))
    basis = tuple(vh[k].copy() for k in range(rank, vh.shape[0]))
    return RankResult(singular_values=s, numeric_rank=rank,
                      nullspace_basis=basis, tolerance_used=tol,
                      image_complement=u[:, rank:])
