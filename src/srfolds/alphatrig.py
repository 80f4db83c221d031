"""Generalized trigonometric pair (sin_alpha, cos_alpha) and its half-period.

sin_alpha is the solution of

    f'' = -alpha |f|^(2(alpha - 1)) f,   f(0) = 0,  f'(0) = 1,

and cos_alpha is its derivative. The pair obeys the energy law
sin_alpha^(2 alpha) + cos_alpha^2 = 1 and is periodic with period 2 pi_alpha.

sin_alpha is the generalized sine sin_{p,2} with p = 2 alpha (Edmunds, Gurka
& Lang, J. Approx. Theory 164 (2012); DLMF 8.17). On the first quarter,
0 <= t <= q = pi_alpha / 2, the energy law gives dt = ds / sqrt(1 - s^(2 alpha)),
and the substitution x = s^(2 alpha) turns the arc integral into a regularized
incomplete beta function. With a = 1 / (2 alpha):

    pi_alpha = B(a, 1/2) / alpha,        t = q I_x(a, 1/2),   x = sin_alpha(t)^(2 alpha),
    q - t = q I_{1-x}(1/2, a),           1 - x = cos_alpha(t)^2.

Evaluation inverts the first form where x <= 1/2 and the second, the
complementary one, where x > 1/2, so that the smaller of |sin| and |cos| is
always the component computed directly and keeps full relative precision
(sin near t = 0, cos near t = q). Other arguments reduce to the first quarter
by oddness, periodicity and the sign pattern of the pair. alpha = 1
short-circuits to math.sin/math.cos and math.asin. The integral definition
of pi_alpha is kept as a quadrature oracle for the tests.

scipy.special is imported on first use: _table_cached loads its beta
functions when it builds the first table with alpha != 1, and every later
use reads them through such a table, so alpha = 1 never loads it.

The *_array functions evaluate the same formulas over a 1-d array, branch by
branch on masks, and return bit for bit what the scalar functions return at
each element. Arithmetic, sqrt and fmod are correctly rounded in numpy as in
Python, and the betainc/betaincinv ufuncs run the same code on arrays as on
scalars; numpy's own power, log, expm1, arcsin, arccos, sin and cos can
differ from the C library by an ulp, so those go through the scalar libm
element by element (numeric.libm).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .numeric import libm, quad

# below this, x = s^(2 alpha) moves s and cos by less than an ulp from the
# leading terms (t, 1); it also keeps x clear of the underflow at which
# betaincinv stops resolving it
_NEGLIGIBLE_X = 2.0 ** -53


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 1.0:
        raise InvalidInput(f"alpha must be a finite real >= 1, got {alpha!r}")
    return alpha


class _AlphaConstants(NamedTuple):
    """Per-alpha constants of the beta-function closed form."""

    alpha: float
    a: float          # 1 / (2 alpha)
    pi_alpha: float   # half-period
    quarter: float    # pi_alpha / 2
    t_mid: float      # phase where sin_alpha^(2 alpha) = cos_alpha^2 = 1/2


def _import_special() -> None:
    """Bind scipy.special's beta, betainc and betaincinv as globals of this module."""
    global beta, betainc, betaincinv
    from scipy.special import beta, betainc, betaincinv


@lru_cache(maxsize=64)
def _table_cached(alpha: float) -> _AlphaConstants:
    a = 0.5 / alpha
    if alpha == 1.0:
        # sin and cos; the table serves only pi_alpha here
        return _AlphaConstants(alpha=alpha, a=a, pi_alpha=math.pi, quarter=0.5 * math.pi,
                               t_mid=0.25 * math.pi)
    _import_special()
    half = float(beta(a, 0.5)) / alpha
    quarter = 0.5 * half
    return _AlphaConstants(alpha=alpha, a=a, pi_alpha=half, quarter=quarter,
                           t_mid=quarter * float(betainc(a, 0.5, 0.5)))


def _pi_alpha_quadrature(alpha: float) -> float:
    """pi_alpha = 2 * integral_0^1 (1 - t^(2 alpha))^(-1/2) dt, by quadrature."""
    alpha = _validate_alpha(alpha)
    inv_sqrt_alpha = 1.0 / math.sqrt(alpha)

    def integrand(s: float) -> float:
        # substitution t = sin(s) regularizes the endpoint; the removable
        # limit at s = pi/2 is 1/sqrt(alpha)
        w = 1.0 - math.sin(s) ** (2.0 * alpha)
        if w <= 0.0:
            return inv_sqrt_alpha
        return math.cos(s) / math.sqrt(w)

    return 2.0 * quad(integrand, 0.0, math.pi / 2.0, tol=1e-12)


def pi_alpha(alpha: float) -> float:
    """Half-period of the generalized sine, B(1/(2 alpha), 1/2) / alpha; pi when alpha = 1."""
    return _table_cached(_validate_alpha(alpha)).pi_alpha


def _eval_quarter(table: _AlphaConstants, tq: float) -> tuple[float, float]:
    """(|sin_alpha|, |cos_alpha|) at tq in [0, quarter]."""
    a, quarter = table.a, table.quarter
    if tq <= table.t_mid:
        if tq ** (2.0 * table.alpha) < _NEGLIGIBLE_X:
            return tq, 1.0
        x = float(betaincinv(a, 0.5, tq / quarter))
        return x ** a, math.sqrt(1.0 - x)
    cos_sq = float(betaincinv(0.5, a, max(quarter - tq, 0.0) / quarter))
    return (1.0 - cos_sq) ** a, math.sqrt(cos_sq)


def _eval_quarter_array(table: _AlphaConstants, tq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_eval_quarter at each element of tq."""
    a, quarter = table.a, table.quarter
    s_abs, c_abs = tq.copy(), np.ones_like(tq)
    low = np.flatnonzero(tq <= table.t_mid)
    low = low[libm(pow, tq[low], 2.0 * table.alpha) >= _NEGLIGIBLE_X]
    x = betaincinv(a, 0.5, tq[low] / quarter)
    s_abs[low], c_abs[low] = libm(pow, x, a), np.sqrt(1.0 - x)
    high = np.flatnonzero(~(tq <= table.t_mid))
    gap = quarter - tq[high]
    cos_sq = betaincinv(0.5, a, np.where(0.0 > gap, 0.0, gap) / quarter)
    s_abs[high], c_abs[high] = libm(pow, 1.0 - cos_sq, a), np.sqrt(cos_sq)
    return s_abs, c_abs


def _arc_quarter(table: _AlphaConstants, s: float) -> float:
    """Phase tq in [0, quarter] with sin_alpha(tq) = s, for s in [0, 1]."""
    x = s ** (2.0 * table.alpha)
    if x < _NEGLIGIBLE_X:
        return s
    if x <= 0.5:
        return table.quarter * float(betainc(table.a, 0.5, x))
    return _arc_cos_quarter(table, -math.expm1(2.0 * table.alpha * math.log(s)))


def _arc_cos_quarter(table: _AlphaConstants, cos_sq: float) -> float:
    """Phase tq in [0, quarter] with cos_alpha(tq)^2 = cos_sq (complementary form)."""
    return table.quarter * (1.0 - float(betainc(0.5, table.a, cos_sq)))


def _arc_quarter_array(table: _AlphaConstants, s: np.ndarray) -> np.ndarray:
    """_arc_quarter at each element of s."""
    x = libm(pow, s, 2.0 * table.alpha)
    tq = s.copy()
    kept = ~(x < _NEGLIGIBLE_X)
    mid = np.flatnonzero(kept & (x <= 0.5))
    tq[mid] = table.quarter * betainc(table.a, 0.5, x[mid])
    top = np.flatnonzero(kept & ~(x <= 0.5))
    log_s = libm(math.log, s[top])
    tq[top] = _arc_cos_quarter_array(table, -libm(math.expm1, 2.0 * table.alpha * log_s))
    return tq


def _arc_cos_quarter_array(table: _AlphaConstants, cos_sq: np.ndarray) -> np.ndarray:
    """_arc_cos_quarter at each element of cos_sq."""
    return table.quarter * (1.0 - betainc(0.5, table.a, cos_sq))


def sin_cos_alpha(alpha: float, t: float) -> tuple[float, float]:
    """(sin_alpha(t), cos_alpha(t)) for any real t."""
    alpha = _validate_alpha(alpha)
    t = float(t)
    if not math.isfinite(t):
        raise InvalidInput(f"t must be finite, got {t!r}")
    if alpha == 1.0:
        return math.sin(t), math.cos(t)
    table = _table_cached(alpha)
    period = 2.0 * table.pi_alpha
    half = table.pi_alpha
    # fold negative arguments by oddness instead of shifting by a period;
    # the shift would turn a tiny negative t into period - |t| and lose the
    # leading digits of the small angle
    odd_sign = 1.0
    if t < 0.0:
        t, odd_sign = -t, -1.0
    tau = math.fmod(t, period)
    # sign pattern over the four quarters of one full period
    if tau < 0.5 * half:
        tq, s_sign, c_sign = tau, 1.0, 1.0
    elif tau < half:
        tq, s_sign, c_sign = half - tau, 1.0, -1.0
    elif tau < 1.5 * half:
        tq, s_sign, c_sign = tau - half, -1.0, -1.0
    else:
        tq, s_sign, c_sign = period - tau, -1.0, 1.0
    s_abs, c_abs = _eval_quarter(table, tq)
    return odd_sign * s_sign * s_abs, c_sign * c_abs


def arc_alpha(alpha: float, s: float, c_sign: float) -> float:
    """Phase phi in [0, 2 pi_alpha) with sin_alpha(phi) = s, sign(cos_alpha) = c_sign."""
    alpha = _validate_alpha(alpha)
    s = float(s)
    if abs(s) > 1.0 + 1e-12:
        raise InvalidInput(f"|s| must not exceed 1, got {s!r}")
    s = min(max(s, -1.0), 1.0)
    if alpha == 1.0:
        half = math.pi
        tq = math.asin(abs(s))
    else:
        table = _table_cached(alpha)
        half = table.pi_alpha
        tq = _arc_quarter(table, abs(s))
    if s >= 0.0:
        phi = tq if c_sign >= 0 else half - tq
    else:
        phi = 2.0 * half - tq if c_sign >= 0 else half + tq
    return math.fmod(phi, 2.0 * half)


def arc_cos_alpha(alpha: float, c: float) -> float:
    """Phase in [0, pi_alpha/2] with cos_alpha = c, for c in [0, 1].

    Well conditioned where c is small, next to the quarter period, where
    inverting sin_alpha is not; near c = 1 arc_alpha keeps more relative
    precision in the small phase.
    """
    alpha = _validate_alpha(alpha)
    c = float(c)
    if not (-1e-12 <= c <= 1.0 + 1e-12):
        raise InvalidInput(f"c must lie in [0, 1], got {c!r}")
    c = min(max(c, 0.0), 1.0)
    if alpha == 1.0:
        return math.acos(c)
    return _arc_cos_quarter(_table_cached(alpha), c * c)


def sin_cos_alpha_array(alpha: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin_cos_alpha at each element of a 1-d array of finite t."""
    alpha = _validate_alpha(alpha)
    if alpha == 1.0:
        return libm(math.sin, t), libm(math.cos, t)
    table = _table_cached(alpha)
    period = 2.0 * table.pi_alpha
    half = table.pi_alpha
    odd_sign = np.where(t < 0.0, -1.0, 1.0)
    tau = np.fmod(np.where(t < 0.0, -t, t), period)
    first, second, third = tau < 0.5 * half, tau < half, tau < 1.5 * half
    tq = np.select([first, second, third], [tau, half - tau, tau - half], period - tau)
    s_abs, c_abs = _eval_quarter_array(table, tq)
    s_sign = np.where(second, 1.0, -1.0)
    c_sign = np.where(first | ~third, 1.0, -1.0)
    return odd_sign * s_sign * s_abs, c_sign * c_abs


def arc_alpha_array(alpha: float, s: np.ndarray) -> np.ndarray:
    """arc_alpha(alpha, s, 1.0) at each element of a 1-d array of s in [0, 1]."""
    alpha = _validate_alpha(alpha)
    if alpha == 1.0:
        return libm(math.asin, np.abs(s))
    return _arc_quarter_array(_table_cached(alpha), np.abs(s))


def arc_cos_alpha_array(alpha: float, c: np.ndarray) -> np.ndarray:
    """arc_cos_alpha at each element of a 1-d array of c in [0, 1]."""
    alpha = _validate_alpha(alpha)
    if alpha == 1.0:
        return libm(math.acos, c)
    return _arc_cos_quarter_array(_table_cached(alpha), c * c)
