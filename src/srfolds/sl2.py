"""SL(2) with a rank-two Lorentzian-type structure: geodesics and conjugate locus.

Group elements are real 2x2 matrices of determinant one. The distribution is
spanned by X1 = diag(1/2, -1/2) and X2 = offdiag(1/2, 1/2), with the rotation
generator X0 transverse. With the curvature scalar r = w0^2 - (u0^2 + v0^2) of
a covector (u0, v0, w0), the unit-time geodesic factors as the product
exp(t (u0 X1 + v0 X2 - w0 X0)) exp(t w0 X0), which evaluates through the
oscillator kernels s_r, c_r at t/2 (trigonometric for r > 0, hyperbolic for
r < 0, polynomial at r = 0). For r < 0 the diagonal entry of the first
factor that u0 shrinks, c - s u0 or c + s u0, cancels; it comes from det = 1
as (1 + a12 a21) / a_big instead, with a_big the diagonal entry that u0
enlarges. The horizontal momentum rotates the opposite way from the SU(2)
case: u(t) = u0 cos(w0 t) + v0 sin(w0 t), v(t) = v0 cos(w0 t) - u0 sin(w0 t)
(contact.rotated_momentum at eps = -1); as there, the matrix-ODE oracle
g' = g (u X1 + v X2) arbitrates the sign conventions.

This is the eps = -1 case of contact.py: covectors with r <= 0 are never
conjugate, and for r > 0 the strata are those of the compact case with sqrt(r)
in place of the covector norm. The kernel's vertical term +4 sin(sqrt(r)/2)
has the opposite sign from the compact case, as finite differences confirm.

The chart (contact.py) reads all four entries (m11, m12, m21, m22).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import ContactGroup, curvature, finite_curvature, rotated_momentum
from .errors import InvalidInput
from .numeric import finite_covector, finite_time, libm_cos, libm_sin
from .scfun import SERIES_THRESHOLD, sc_pair, trig_sc_pair

X0 = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])
X1 = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
X2 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])

# sign of the horizontal energy in the curvature scalar r (see contact.py)
_EPS = -1


@dataclass(frozen=True)
class Sl2Matrix:
    """Group element with unit determinant."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self) -> None:
        excess, unimodular = _unimodular(*self.entries(), math.isfinite, max)
        if not unimodular:
            raise InvalidInput(f"matrix must have determinant 1: det - 1 = {excess:.3e}")

    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def entries(self) -> tuple[float, float, float, float]:
        """_entries(self.matrix()), without building the matrix."""
        return self.m11, self.m12, self.m21, self.m22


def sl2_exp(cov, t: float) -> tuple[Sl2Matrix, np.ndarray]:
    """Endpoint and momentum (u, v, w)(t) of the normal geodesic of cov."""
    u0, v0, w0 = finite_covector(cov, 3)
    t = finite_time(t)
    r = finite_curvature(_EPS, u0, v0, w0)
    if not math.isfinite(w0 * t):
        raise InvalidInput(f"phase w0 t overflows at w0 = {w0!r}, t = {t!r}")
    s, c = sc_pair(r, t / 2.0)
    a11, a12, a21, a22 = _first_factor(s, c, u0, v0, w0)
    if r < 0.0:
        # the diagonal entry that u0 shrinks cancels; det = 1 recovers it
        if s * u0 >= 0.0:
            a22 = (1.0 + a12 * a21) / a11
        else:
            a11 = (1.0 + a12 * a21) / a22
    point = Sl2Matrix(*_rotated(a11, a12, a21, a22, w0, t, math.cos, math.sin))
    return point, np.array([*rotated_momentum(_EPS, u0, v0, w0, t), w0])


def _unimodular(m11, m12, m21, m22, isfinite, maximum):
    """(det - 1, whether Sl2Matrix accepts the entries), on floats or arrays.

    isfinite and maximum are math.isfinite and max on floats, numpy's on arrays.
    """
    det = m11 * m22 - m12 * m21
    # the determinant of a large hyperbolic element cancels products far
    # bigger than one, so the admissible residual scales with them
    scale = maximum(1.0, abs(m11 * m22) + abs(m12 * m21))
    return det - 1.0, isfinite(det) & (abs(det - 1.0) <= 1e-9 * scale)


def _first_factor(s, c, u0, v0, w0):
    """Entries of exp(t (u0 X1 + v0 X2 - w0 X0)) from (s, c) = sc_pair(r, t/2).

    The same on floats and on arrays.
    """
    return c + s * u0, s * (v0 + w0), s * (v0 - w0), c - s * u0


def _rotated(a11, a12, a21, a22, w0, t, cos, sin):
    """The first factor times exp(t w0 X0), on floats (math trig) or arrays (libm trig)."""
    cos_t, sin_t = cos(w0 * t / 2.0), sin(w0 * t / 2.0)
    return (a11 * cos_t + a12 * sin_t, -a11 * sin_t + a12 * cos_t,
            a21 * cos_t + a22 * sin_t, -a21 * sin_t + a22 * cos_t)


def _entries(matrix: np.ndarray) -> np.ndarray:
    """(m11, m12, m21, m22)."""
    return np.ravel(matrix)


def _entries_array(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_entries of sl2_exp(cov, 1.0) at each row of covs, and the rows where exact.

    Runs sl2_exp's own arithmetic at t = 1 (trig_sc_pair, _first_factor,
    _rotated, with libm's trig) where sc_pair(r, 1/2) takes its trigonometric
    branch: finite input with r / 4 >= SERIES_THRESHOLD. Sl2Matrix's check
    (_unimodular) marks the exact rows among them. A scan reaches no other
    row (a record has r >= 4 pi^2), so the rest (the series, r <= 0, a
    non-finite input or r) and the rows that fail the determinant check are
    not exact: the scalar exponential takes them, and raises there what it
    raises, in the scalar loop's order.
    """
    u0, v0, w0 = covs[:, 0], covs[:, 1], covs[:, 2]
    with np.errstate(all="ignore"):
        r = curvature(_EPS, u0, v0, w0)
        live = np.isfinite(covs).all(axis=1) & np.isfinite(r) & (r / 4.0 >= SERIES_THRESHOLD)
    u0, v0, w0 = u0[live], v0[live], w0[live]
    s, c = trig_sc_pair(r[live], 0.5, np.sqrt, libm_cos, libm_sin)
    entries = np.zeros((covs.shape[0], 4))
    exact = np.zeros(covs.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        m = _rotated(*_first_factor(s, c, u0, v0, w0), w0, 1.0, libm_cos, libm_sin)
        exact[live] = _unimodular(*m, np.isfinite, np.maximum)[1]
    entries[live] = np.column_stack(m)
    return entries, exact


# exp looks sl2_exp up in the module globals on every call, so rebinding that
# name (as the span tracer in perfbench/ does) also reaches adapters already built
_GROUP = ContactGroup(name="sl2", eps=_EPS, exp=lambda cov, t: sl2_exp(cov, t),
                      basis=(X0, X1, X2), matrix_entries=_entries,
                      entries_array=_entries_array)
sl2_chart = _GROUP.chart
sl2_jacobi = _GROUP.jacobi
sl2_conj_f = _GROUP.conj_f
sl2_kernel = _GROUP.kernel
sl2_conj_grad = _GROUP.conj_grad
sl2_frame_images = _GROUP.frame_images
sl2_adapter = _GROUP.adapter
