"""Parametric oscillator kernels shared by the group structures.

For a real parameter a, these are the scalar solutions of f'' = -a f:

    s_a(t) = sin(sqrt(a) t)/sqrt(a),      c_a(t) = cos(sqrt(a) t)        (a > 0)
    s_a(t) = t,                           c_a(t) = 1                      (a = 0)
    s_a(t) = sinh(sqrt(-a) t)/sqrt(-a),   c_a(t) = cosh(sqrt(-a) t)      (a < 0)

plus the secondary ratios g1 = (1 - c_a(t))/a and g2 = (t - s_a(t))/a that show up
when the oscillator is integrated once and twice. All four switch to a fourth-order
series near a = 0, so they stay smooth across the sign change and never hit the
catastrophic cancellation of the exact ratios there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput
from .numeric import finite_time

# exact (1-c)/a loses ~|eps/a| absolute accuracy; below this the series wins
SERIES_THRESHOLD = 1e-6


def sc_pair(a: float, t: float) -> tuple[float, float]:
    """(s_a(t), c_a(t)); series branch when |a| t^2 < SERIES_THRESHOLD.

    Raises InvalidInput where a, t or the phase sqrt(|a|) t is not finite,
    and where sinh or cosh of sqrt(-a) t overflows.
    """
    z = a * t * t
    if abs(z) < SERIES_THRESHOLD:
        s = t * (1.0 - z / 6.0 + z * z / 120.0 - z ** 3 / 5040.0)
        c = 1.0 - z / 2.0 + z * z / 24.0 - z ** 3 / 720.0
        return s, c
    # an inf or nan a or t makes z inf or nan, so the series never sees one,
    # and the phase inf or nan, so this one check rejects it
    sq = math.sqrt(abs(a))
    if not math.isfinite(sq * t):
        raise InvalidInput(
            f"a, t and the phase sqrt(|a|) t must be finite, got a = {a!r}, t = {t!r}")
    if a > 0.0:
        return trig_sc_pair(a, t, math.sqrt, math.cos, math.sin)
    try:
        return math.sinh(sq * t) / sq, math.cosh(sq * t)
    except OverflowError:
        raise InvalidInput(f"sinh(sqrt(-a) t) overflows at a = {a!r}, t = {t!r}") from None


def trig_sc_pair(a, t, sqrt, cos, sin):
    """sc_pair's trigonometric branch, a > 0, on floats or arrays.

    sqrt, cos and sin are math's, or numpy's correctly rounded sqrt and
    numeric.libm's trig over arrays.
    """
    sq = sqrt(a)
    return sin(sq * t) / sq, cos(sq * t)


def jacobi_ratios(a: float, t: float) -> tuple[float, float, float, float]:
    """(s, c, g1, g2) with g1 = (1 - c)/a and g2 = (t - s)/a, series-stabilized."""
    s, c = sc_pair(a, t)
    if abs(a) < SERIES_THRESHOLD:
        t2 = t * t
        g1 = t2 * (0.5 - a * t2 / 24.0 + a * a * t2 * t2 / 720.0
                   - a ** 3 * t2 ** 3 / 40320.0)
        g2 = t * t2 * (1.0 / 6.0 - a * t2 / 120.0 + a * a * t2 * t2 / 5040.0
                       - a ** 3 * t2 ** 3 / 362880.0)
    else:
        g1 = (1.0 - c) / a
        g2 = (t - s) / a
    return s, c, g1, g2


def propagate_linear_jacobi(r: float, p0, x0, t: float):
    """Advance the frame-linearized Jacobi system with curvature entry r.

    The system is p_a' = -p_c - r x_a, x_a' = p_a, x_b' = p_b, x_c' = x_a with
    p_b, p_c constant; fiber order is (a, b, c). Returns (p(t), x(t)) as arrays.
    """
    pa0, pb0, pc0 = (float(v) for v in p0)
    xa0, xb0, xc0 = (float(v) for v in x0)
    t = finite_time(t)
    s, c, g1, g2 = jacobi_ratios(r, t)
    pa = pa0 * c - (r * xa0 + pc0) * s
    xa = xa0 * c + pa0 * s - pc0 * g1
    xc = xc0 + pa0 * g1 + xa0 * s - pc0 * g2
    return (np.array([pa, pb0, pc0]), np.array([xa, xb0 + pb0 * t, xc]))


def vertical_to_endpoint_matrix(r: float) -> np.ndarray:
    """Matrix M with x(1) = M p(0) for the system above started at x(0) = 0.

    Its nullspace is exactly the set of vertical Jacobi data whose fields vanish
    at both ends, i.e. the conjugate kernel in frame coordinates.
    """
    s, _, g1, g2 = jacobi_ratios(r, 1.0)
    return np.array([[s, 0.0, -g1],
                     [0.0, 1.0, 0.0],
                     [g1, 0.0, -g2]])
