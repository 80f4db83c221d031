"""Generalized trigonometric pair (sin_alpha, cos_alpha) and its half-period.

sin_alpha is the solution of

    f'' = -alpha |f|^(2(alpha - 1)) f,   f(0) = 0,  f'(0) = 1,

and cos_alpha is its derivative. The pair obeys the energy law
sin_alpha^(2 alpha) + cos_alpha^2 = 1 and is periodic with period 2 pi_alpha.

sin_alpha is the generalized sine sin_{p,2} with p = 2 alpha (Edmunds, Gurka
& Lang, J. Approx. Theory 164 (2012); DLMF 8.17). On the first quarter,
0 <= t <= q = pi_alpha / 2, the energy law gives dt = ds / sqrt(1 - s^(2 alpha)).
With a = 1 / (2 alpha), s = sin_alpha(t), c = cos_alpha(t), x = s^(2 alpha) and
y = 1 - x = c^2, the arc integral is a regularized incomplete beta function,
and its binomial series gives

    pi_alpha = B(a, 1/2) / alpha,
    t = q I_x(a, 1/2) = s G(x),          G(x) = sum_n (1/2)_n / n! a / (a + n) x^n,
    q - t = q I_y(1/2, a) = c H(y) / alpha,   H(y) = sum_n (1 - a)_n / n! y^n / (2n + 1).

The lower part of the quarter, x <= 1/2, uses the first form and the upper
part, y <= 1/2, the complementary one, so that the smaller of |sin| and |cos|
is always the component computed directly and keeps full relative precision
(sin near t = 0, cos near t = q); there the terms of both series are positive
and fall by at least half from one to the next. t_mid is the phase where
x = y = 1/2, so q = t_mid + (q - t_mid) = 2^-a G(1/2) + sqrt(1/2) H(1/2) / alpha.
That sum is within about an ulp of pi_alpha / 2, closer than
Gamma(a) sqrt(pi) / (2 alpha Gamma(a + 1/2)) from math.gamma (up to 3.4 ulp),
and a phase many periods out carries that error times the number of periods.

Each alpha != 1 gets a table (_table_cached) of four short polynomials, the
Chebyshev interpolants of analytic factors, each in its own variable and
vanishing at the origin:

    t <= t_mid:  x = w (1 + P(w)),  w = t^(2 alpha);  s = t (1 + P)^a, c = sqrt(1 - x)
    t >  t_mid:  c = h (1 + R(h^2)),  h = alpha (q - t);  s = (1 - c^2)^a
    arc_alpha, x <= 1/2:       t = s (1 + (G(x) - 1))
    table_arc_cos, y <= 1/2:   q - t = c (1 + (H(y) - 1)) / alpha

The sine below t_mid is t (1 + P)^a rather than x^a: a = 1/(2 alpha) is
rounded to a double, and a power carries the relative error of its exponent
times the log of its base, which for x^a is |log s|, worth 3 ulp near t = 0
at alpha = 2.5, while log(1 + P) stays below 1.1.

It is built once from the standard library: the summed series for G and H,
and Newton's method on them for the node values of P and R, with the
residual formed in the small quantities (log(1 + P), R, G - 1, H - 1) so that
it does not cancel. The series' per-term factors (n - 1 + b)/n and
g/(g + n) depend only on (b, g), two pairs per alpha, so _series_factors
derives them once per pair and the build's series steps only multiply; the
factors, and so the table, are the ones a per-term loop computes, bit for
bit. Other arguments reduce to the first quarter by oddness, periodicity and
the sign pattern of the pair. alpha = 1 short-circuits to
math.sin/math.cos and math.asin. The integral definition of pi_alpha is kept
as a quadrature oracle for the tests.

alpha_table(alpha) checks alpha once and returns its table; table_sin_cos
and table_arc evaluate from it without the argument checks of sin_cos_alpha
and arc_alpha, which call them, bit for bit, and table_arc_cos inverts
cos_alpha from it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidInput
from .numeric import finite_time, real_number
from .oracles import quad

# below this, x = s^(2 alpha) moves s and cos by less than an ulp from the
# leading terms (t, 1), which are returned as they are
_NEGLIGIBLE_X = 2.0 ** -53
# each factor is interpolated at _CHEBYSHEV_DEGREE + 1 Chebyshev points; past
# the coefficients kept (16 for sin and cos, 21 for the inversions) every
# coefficient is below 2e-17 for alpha from 1 + 1e-9 to 1e300
_CHEBYSHEV_DEGREE = 28
_SIN_TERMS = 16
_ARC_TERMS = 21
# Newton stops after a step this small: the next one would be below an ulp
_NEWTON_STEP = 1e-13


def _validate_alpha(alpha: float) -> float:
    alpha = real_number(alpha, "alpha")
    # the exponent 2 alpha of the energy law must be a double: alpha < 2^1023
    if not math.isfinite(2.0 * alpha) or alpha < 1.0:
        raise InvalidInput(f"alpha must be a real in [1, 2^1023), got {alpha!r}")
    return alpha


class _AlphaConstants(NamedTuple):
    """Per-alpha constants and polynomials of the first quarter.

    Each polynomial is a tuple of the coefficients of z^(n-1), ..., z, 1 in
    the Chebyshev variable z in [-1, 1]: z = w w_scale - 1, h^2 u_scale - 1,
    or 4 x - 1 and 4 y - 1 for the inversions. They are empty at alpha = 1,
    where nothing reads them.
    """

    alpha: float
    a: float          # 1 / (2 alpha)
    pi_alpha: float   # half-period
    quarter: float    # pi_alpha / 2
    t_mid: float      # phase where sin_alpha^(2 alpha) = cos_alpha^2 = 1/2
    w_scale: float = 0.0       # 2 / t_mid^(2 alpha)
    u_scale: float = 0.0       # 2 / (alpha (quarter - t_mid))^2
    sin_low: tuple = ()        # P(w)
    cos_high: tuple = ()       # R(u)
    arc_low: tuple = ()        # G(x) - 1 on [0, 1/2]
    arc_high: tuple = ()       # H(y) - 1 on [0, 1/2]


@lru_cache(maxsize=128)
def _series_factors(b: float, g: float) -> tuple[tuple[float, float], ...]:
    """((n - 1 + b) / n, g / (g + n)) for n = 1 ... 99, the factors of _series_tail's terms.

    They depend on (b, g) alone, and a table build sums its two series at
    some 13,000 points x, so each pair is derived once.
    """
    return tuple(((n - 1 + b) / n, g / (g + n)) for n in range(1, 100))


def _series_tail(b: float, g: float, x: float) -> float:
    """sum_{n >= 1} (b)_n / n! g / (g + n) x^n for 0 <= x <= 1/2.

    G(x) - 1 for (b, g) = (1/2, a) and H(x) - 1 for (1 - a, 1/2). The terms
    are positive and at most halve, so stopping once x^n-sized terms fall
    below 1e-20 (by n = 67) leaves less than that; fsum adds them without
    rounding drift.
    """
    terms, power = [], 1.0
    for ratio, weight in _series_factors(b, g):
        power *= ratio * x
        terms.append(weight * power)
        if not power > 1e-20:
            break
    return math.fsum(terms)


def _sin_low_factor(alpha: float, a: float, w: float) -> float:
    """P(w) with x = w (1 + P): sin_alpha(w^a)^(2 alpha) = x.

    Newton on rho = log(x / w), which solves rho + 2 alpha log G(w e^rho) = 0
    with derivative 1 / (G sqrt(1 - x)).
    """
    rho = 0.0
    for _ in range(64):
        x = w * math.exp(rho)
        tail = _series_tail(0.5, a, x)
        step = (rho + 2.0 * alpha * math.log1p(tail)) * (1.0 + tail) * math.sqrt(1.0 - x)
        rho -= step
        if abs(step) < _NEWTON_STEP:
            break
    return math.expm1(rho)


def _cos_high_factor(a: float, u: float) -> float:
    """R(u) with c = h (1 + R), h = sqrt(u) = alpha (q - t), c = cos_alpha(t).

    Newton on c H(c^2) = h, whose derivative in R is x^(a - 1) at x = 1 - c^2.
    """
    r = 0.0
    for _ in range(64):
        y = u * (1.0 + r) * (1.0 + r)
        tail = _series_tail(1.0 - a, 0.5, y)
        step = (r + tail + r * tail) * (1.0 - y) ** (1.0 - a)
        r -= step
        if abs(step) < _NEWTON_STEP:
            break
    return r


def _chebyshev_fit(f, terms: int) -> tuple:
    """Coefficients of z^(terms-1), ..., z, 1 of the degree terms - 1 Chebyshev
    series of f on [-1, 1], interpolated at the _CHEBYSHEV_DEGREE + 1 extreme
    points of T_n.

    The factors are analytic well beyond [-1, 1], so their power-series
    coefficients in z shrink as fast as the Chebyshev ones and Horner's rule
    sums them stably, in two operations a term against Clenshaw's three.
    """
    n = _CHEBYSHEV_DEGREE
    cosines = [math.cos(math.pi * m / n) for m in range(2 * n)]
    values = [f(cosines[j]) for j in range(n + 1)]
    values[0] *= 0.5
    values[n] *= 0.5
    cheb = [(1.0 if k else 0.5) * 2.0 / n
            * math.fsum(v * cosines[j * k % (2 * n)] for j, v in enumerate(values))
            for k in range(terms)]
    # integer coefficients of T_0 ... T_(terms-1), by T_(k+1) = 2 z T_k - T_(k-1)
    basis = [[1], [0, 1]]
    while len(basis) < terms:
        prev, last = basis[-2], basis[-1]
        basis.append([2 * b - (prev[i] if i < len(prev) else 0)
                      for i, b in enumerate([0] + last)])
    return tuple(math.fsum(c * t[k] for c, t in zip(cheb, basis) if k < len(t))
                 for k in reversed(range(terms)))


def _polynomial(coeffs: tuple, z: float) -> float:
    """sum_k coeffs[k] z^(n-1-k) by Horner's rule."""
    total = 0.0
    for c in coeffs:
        total = total * z + c
    return total


@lru_cache(maxsize=64)
def _table_cached(alpha: float) -> _AlphaConstants:
    a = 0.5 / alpha
    if alpha == 1.0:
        # sin and cos; the table serves only pi_alpha here
        return _AlphaConstants(alpha=alpha, a=a, pi_alpha=math.pi, quarter=0.5 * math.pi,
                               t_mid=0.25 * math.pi)
    g_mid, h_mid = _series_tail(0.5, a, 0.5), _series_tail(1.0 - a, 0.5, 0.5)
    # the two parts of the quarter, t_mid = s G(1/2) and q - t_mid = c H(1/2) / alpha
    # at s^(2 alpha) = c^2 = 1/2
    t_mid = 0.5 ** a * (1.0 + g_mid)
    quarter = t_mid + math.sqrt(0.5) * (1.0 + h_mid) / alpha
    # w and u there: w = (1/2) G^(2 alpha), u = (1/2) H^2
    w_mid = 0.5 * math.exp(2.0 * alpha * math.log1p(g_mid))
    u_mid = 0.5 * (1.0 + h_mid) * (1.0 + h_mid)
    return _AlphaConstants(
        alpha=alpha, a=a, pi_alpha=2.0 * quarter, quarter=quarter,
        t_mid=t_mid, w_scale=2.0 / w_mid, u_scale=2.0 / u_mid,
        sin_low=_chebyshev_fit(
            lambda z: _sin_low_factor(alpha, a, 0.5 * w_mid * (1.0 + z)), _SIN_TERMS),
        cos_high=_chebyshev_fit(
            lambda z: _cos_high_factor(a, 0.5 * u_mid * (1.0 + z)), _SIN_TERMS),
        arc_low=_chebyshev_fit(lambda z: _series_tail(0.5, a, 0.25 * (1.0 + z)), _ARC_TERMS),
        arc_high=_chebyshev_fit(
            lambda z: _series_tail(1.0 - a, 0.5, 0.25 * (1.0 + z)), _ARC_TERMS))


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
    if tq <= table.t_mid:
        w = tq ** (2.0 * table.alpha)
        if w < _NEGLIGIBLE_X:
            return tq, 1.0
        p = _polynomial(table.sin_low, w * table.w_scale - 1.0)
        return tq * (1.0 + p) ** table.a, math.sqrt(1.0 - (w + w * p))
    h = table.alpha * max(table.quarter - tq, 0.0)
    c = h + h * _polynomial(table.cos_high, h * h * table.u_scale - 1.0)
    return (1.0 - c * c) ** table.a, c


def _arc_low(table: _AlphaConstants, s: float, x: float) -> float:
    """Phase where |sin_alpha| = s, from x = s^(2 alpha) <= 1/2."""
    return s + s * _polynomial(table.arc_low, 4.0 * x - 1.0)


def _arc_high(table: _AlphaConstants, c: float, cos_sq: float) -> float:
    """Phase where cos_alpha = c, from cos_sq = c^2 <= 1/2."""
    return table.quarter - (c + c * _polynomial(table.arc_high, 4.0 * cos_sq - 1.0)) / table.alpha


def _arc_quarter(table: _AlphaConstants, s: float) -> float:
    """Phase tq in [0, quarter] with sin_alpha(tq) = s, for s in [0, 1]."""
    x = s ** (2.0 * table.alpha)
    if x < _NEGLIGIBLE_X:
        return s
    if x <= 0.5:
        return _arc_low(table, s, x)
    cos_sq = -math.expm1(2.0 * table.alpha * math.log(s))
    return _arc_high(table, math.sqrt(cos_sq), cos_sq)


def _arc_cos_quarter(table: _AlphaConstants, c: float) -> float:
    """Phase tq in [0, quarter] with cos_alpha(tq) = c, for c in [0, 1]."""
    cos_sq = c * c
    if cos_sq <= 0.5:
        return _arc_high(table, c, cos_sq)
    x = (1.0 - c) * (1.0 + c)
    return _arc_low(table, x ** table.a, x)


def alpha_table(alpha: float) -> _AlphaConstants:
    """The table of a checked alpha, for the table_* functions below.

    They take the table and skip the argument checks of the public
    functions, for callers that check alpha once and evaluate many times.
    """
    return _table_cached(_validate_alpha(alpha))


def sin_cos_alpha(alpha: float, t: float) -> tuple[float, float]:
    """(sin_alpha(t), cos_alpha(t)) for any real t."""
    return table_sin_cos(alpha_table(alpha), finite_time(t))


def table_sin_cos(table: _AlphaConstants, t: float) -> tuple[float, float]:
    """sin_cos_alpha(table.alpha, t) for a finite float t, bit for bit."""
    if table.alpha == 1.0:
        return math.sin(t), math.cos(t)
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
    s, c_sign = real_number(s, "s"), real_number(c_sign, "c_sign")
    # a nan c_sign would read as negative below
    if not abs(s) <= 1.0 + 1e-12 or math.isnan(c_sign):
        raise InvalidInput(f"need |s| <= 1 and a numeric c_sign, got {s!r} and {c_sign!r}")
    s = min(max(s, -1.0), 1.0)
    table = _table_cached(alpha)
    half = table.pi_alpha
    tq = table_arc(table, abs(s))
    if s >= 0.0:
        phi = tq if c_sign >= 0 else half - tq
    else:
        phi = 2.0 * half - tq if c_sign >= 0 else half + tq
    return math.fmod(phi, 2.0 * half)


def table_arc(table: _AlphaConstants, s: float) -> float:
    """arc_alpha(table.alpha, s, 1.0) for a float s in [0, 1], bit for bit."""
    if table.alpha == 1.0:
        return math.asin(s)
    return _arc_quarter(table, s)


def table_arc_cos(table: _AlphaConstants, c: float) -> float:
    """The phase in [0, pi_alpha/2] with cos_alpha = c, for a float c in [0, 1].

    Well conditioned where c is small, next to the quarter period, where
    inverting sin_alpha is not; near c = 1 table_arc keeps more relative
    precision in the small phase.
    """
    if table.alpha == 1.0:
        return math.acos(c)
    return _arc_cos_quarter(table, c)

