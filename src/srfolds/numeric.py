"""The scan's numerics: root finding, FD stencils, rank queries.

Contract-checked wrappers around numpy. Root polishing is Brent's method
written out here, operation for operation as scipy.optimize.brentq, so finding
roots loads no scipy module; its lockstep form polishes many brackets at once,
one array evaluation per step, and gives the same roots to the bit. Root
polishing runs at 1e-10 unless a caller loosens it explicitly. The
finite-difference stencil and its columns serve the record build; the ODE,
quadrature and one-point finite-difference Jacobian routes that check the
closed forms live in oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMatrix, InvalidInput, NonConvergence, SrfoldsError

DEFAULT_ROOT_TOL = 1e-10
DEFAULT_RANK_TOL_FACTOR = 1e-7
DEFAULT_SCAN_POINTS = 400
# Brent steps before a polish gives up (scipy.optimize.brentq's default)
_BRENT_MAXITER = 100


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


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real 1-d float array, bit for bit, without its dispatch.

    norm takes sqrt(v.dot(v)) there too, so the square overflows to inf,
    with dot's RuntimeWarning, or underflows to 0.0 where norm's does, and a
    nan or inf component gives nan or inf.
    """
    return math.sqrt(v.dot(v))


def scan_nodes(lo: float, hi: float, scan_points: int) -> np.ndarray:
    """The uniform grid of find_roots: scan_points nodes from lo to hi."""
    if not (hi > lo):
        raise InvalidInput(f"empty scan interval [{lo}, {hi}]")
    if not isinstance(scan_points, numbers.Integral):
        raise InvalidInput(f"scan_points must be an integer, got {scan_points!r}")
    if scan_points < 2:
        raise InvalidInput("scan_points must be at least 2")
    return np.linspace(lo, hi, scan_points)


def check_root_tol(tol: float) -> None:
    """Raise InvalidInput unless tol is a positive finite root tolerance."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidInput(f"root tolerance must be positive and finite, got {tol}")


def finite_time(t) -> float:
    """float(t); raises InvalidInput unless it is finite."""
    t = float(t)
    if not math.isfinite(t):
        raise InvalidInput(f"t must be finite, got {t!r}")
    return t


def sign_brackets(gs: np.ndarray) -> tuple[np.ndarray, ...]:
    """np.nonzero of the brackets along the last axis of gs.

    Index i along that axis marks the bracket [i, i + 1] when gs there is
    nonzero at both ends and of opposite signs. On a stack of grids the
    brackets come grid by grid, each grid's in ascending order.
    """
    sign = np.sign(gs)
    left, right = sign[..., :-1], sign[..., 1:]
    return np.nonzero((left != right) & (left != 0.0) & (right != 0.0))


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
    NonConvergence too. find_roots_lockstep gives the same hits for several
    functions at once, polishing all their brackets together.
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
    polished = [_brent(g, float(xs[i]), float(xs[i + 1]), float(gs[i]), float(gs[i + 1]),
                       xtol=tol * 1e-2, rtol=1e-15)
                for i in sign_brackets(gs)[0]]
    return _gated_hits(xs, gs, polished, tol, lo, hi)


def find_roots_lockstep(g: Callable[[int, float], float],
                        g_rows: Callable[[np.ndarray], np.ndarray],
                        lo: float, hi: float, grid_values: np.ndarray,
                        scan_points: int = DEFAULT_SCAN_POINTS,
                        tol: float = DEFAULT_ROOT_TOL) -> list[list[RootHit]]:
    """find_roots of k functions on one grid, every bracket polished in one lockstep.

    g(k, x) is function k at x, and g_rows(x) the values (m, k) of every
    function at the m points x, equal to g bit for bit; grid_values (k,
    scan_points) holds them at the scan nodes. Entry k of the result is,
    to the bit, find_roots(functools.partial(g, k), lo, hi, scan_points,
    tol, grid_values[k]). Each Brent step of every open bracket, whatever
    its function, comes from one g_rows call (_brent_lockstep), and g is
    not called. A non-finite grid value, a NaN or a raise inside the
    lockstep, or a bracket it does not close, re-runs find_roots function
    by function, so what that raises is raised.
    """
    check_root_tol(tol)
    xs = scan_nodes(lo, hi, scan_points)
    grids = np.asarray(grid_values, dtype=float)
    if grids.ndim != 2 or grids.shape[1] != xs.size:
        raise InvalidInput(
            f"grid_values has shape {grids.shape}, expected (k, {scan_points})")

    def one_by_one() -> list[list[RootHit]]:
        return [find_roots(functools.partial(g, k), lo, hi, scan_points, tol, gs)
                for k, gs in enumerate(grids)]

    if not np.isfinite(grids).all():
        return one_by_one()
    columns, lefts = sign_brackets(grids)
    try:
        roots, values = _brent_lockstep(
            g_rows, columns, xs[lefts], xs[lefts + 1], grids[columns, lefts],
            grids[columns, lefts + 1], xtol=tol * 1e-2, rtol=1e-15)
    except (SrfoldsError, ArithmeticError, ValueError):
        return one_by_one()
    polished = list(zip(roots.tolist(), values.tolist()))
    bounds = np.searchsorted(columns, np.arange(len(grids) + 1)).tolist()
    return [_gated_hits(xs, gs, polished[bounds[k]:bounds[k + 1]], tol, lo, hi)
            for k, gs in enumerate(grids)]


def _gated_hits(xs: np.ndarray, gs: np.ndarray, polished: list[tuple[float, float]],
                tol: float, lo: float, hi: float) -> list[RootHit]:
    """find_roots' hits on [lo, hi] from its finite grid gs at the nodes xs and its polish.

    polished holds Brent's (root, g(root)) for each sign_brackets bracket in
    order. Exact zeros on the grid, then the polished roots that pass the
    residual gate, are merged and sorted.
    """
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
    for r, value in polished:
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


def _brent_lockstep(g_rows: Callable[[np.ndarray], np.ndarray], columns: np.ndarray,
                    xa: np.ndarray, xb: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                    xtol: float, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """_brent on every bracket [xa[j], xb[j]] of function columns[j] at once.

    g_rows(x) gives the values (m, k) of k functions at the m points x; each
    step calls it once, on the brackets still open, and reads function
    columns[j] for bracket j. Returns (roots, values) with row j equal, to
    the bit, to what _brent returns on bracket j: its updates are applied
    elementwise, and numpy's + - * / and comparisons round as Python's float
    operations do. Where a divisor of the secant or the inverse quadratic
    step is 0.0 the step is inf, as in _brent's ZeroDivisionError branch
    (numpy's x / 0 is an inf that later operations can turn finite). A NaN
    from g_rows, or a bracket still open after _BRENT_MAXITER steps, raises
    NonConvergence without naming a bracket; _brent on the brackets in order
    names it.
    """
    roots, values = xb.copy(), fb.copy()
    # _brent returns an end where g is 0 without a step
    at_a = fa == 0.0
    roots[at_a], values[at_a] = xa[at_a], fa[at_a]
    rows = np.flatnonzero(~at_a & (fb != 0.0))
    cols, index = columns[rows], np.arange(rows.size)
    # _brent's variables, one row each: xpre, xcur, xblk, fpre, fcur, fblk, spre, scur
    state = np.zeros((8, rows.size))
    state[[0, 1, 3, 4]] = xa[rows], xb[rows], fa[rows], fb[rows]
    for _ in range(_BRENT_MAXITER):
        xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
        # the (x, f) pairs of the previous, current and contrapoint iterates
        pre, cur, blk = state[0:6:3], state[1:6:3], state[2:6:3]
        flip = (fpre < 0.0) != (fcur < 0.0)
        np.copyto(state[6:8], xcur - xpre, where=flip)
        np.copyto(blk, pre, where=flip)
        swap = np.abs(fblk) < np.abs(fcur)
        last = cur.copy()
        np.copyto(cur, blk, where=swap)
        np.copyto(pre, last, where=swap)
        np.copyto(blk, last, where=swap)
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[rows[done]], values[rows[done]] = xcur[done], fcur[done]
            open_ = ~done
            state, rows, cols = state[:, open_], rows[open_], cols[open_]
            delta, sbis, index = delta[open_], sbis[open_], index[:rows.size]
            xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
        if not rows.size:
            return roots, values
        dx_pre, dx_blk = xpre - xcur, xblk - xcur
        secant = xpre == xblk
        with np.errstate(all="ignore"):
            dpre = (fpre - fcur) / dx_pre
            dblk = (fblk - fcur) / dx_blk
            divisor = np.where(secant, fcur - fpre, dblk * dpre * (fblk - fpre))
            stry = np.where(secant, -fcur * (xcur - xpre),
                            -fcur * (fblk * dblk - fpre * dpre)) / divisor
        abs_spre = np.abs(spre)
        # neither is NaN, so np.minimum picks what Python's min does
        limit = np.minimum(abs_spre, 3 * np.abs(sbis) - delta)
        # _brent's step is inf where it divides by 0.0, and an inf step is
        # never taken; a secant row with dx_pre == 0 has sbis == 0 and is done
        accept = ((abs_spre > delta) & (np.abs(fcur) < np.abs(fpre))
                  & (2 * np.abs(stry) < limit)
                  & (divisor != 0.0) & (dx_pre != 0.0) & (dx_blk != 0.0))
        state[6] = np.where(accept, scur, sbis)
        state[7] = np.where(accept, stry, sbis)
        # sbis is nonzero here, so copysign gives delta if sbis > 0 else -delta
        step = np.where(np.abs(state[7]) > delta, state[7], np.copysign(delta, sbis))
        state[0:6:3] = state[1:6:3]
        state[1] += step
        state[4] = g_rows(state[1])[index, cols]
        if np.isnan(state[4]).any():
            raise NonConvergence("lockstep Brent polish: g is nan inside a bracket")
    raise NonConvergence(
        f"lockstep Brent polish left {rows.size} bracket(s) open after {_BRENT_MAXITER} steps")


def fd_stencil(x: np.ndarray, h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """The points and steps of oracles.fd_jacobian around each row of x.

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


def rank_nullspace(M: np.ndarray) -> RankResult | tuple[np.ndarray, ...]:
    """Numeric rank and nullspace of M; threshold DEFAULT_RANK_TOL_FACTOR * largest sigma.

    M is one matrix, which gives one RankResult, or a stack of shape (N, m, n),
    which gives the arrays (u, singular_values, vh, ranks, tolerances) of one
    SVD call and one array pass. Row i is, bit for bit, what matrix i gives on
    its own, whose nullspace_basis is vh[i, ranks[i]:] and image_complement
    u[i, :, ranks[i]:].
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.size == 0:
        raise InvalidInput(
            f"expected a nonempty matrix or stack of matrices, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DegenerateMatrix("matrix contains non-finite entries")
    u, s, vh = np.linalg.svd(M)
    largest = s[..., 0]
    if not np.all(largest):
        raise DegenerateMatrix("zero matrix has no usable rank threshold")
    tols = DEFAULT_RANK_TOL_FACTOR * largest
    ranks = np.count_nonzero(s > tols[..., np.newaxis], axis=-1)
    if M.ndim == 3:
        return u, s, vh, ranks, tols
    rank = int(ranks)
    return RankResult(singular_values=s, numeric_rank=rank,
                      nullspace_basis=tuple(vh[rank:].copy()), tolerance_used=float(tols),
                      image_complement=u[:, rank:])
