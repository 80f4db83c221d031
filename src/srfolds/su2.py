"""SU(2) with a rank-two distribution: geodesics, Jacobi fields, conjugate locus.

Group elements are pairs (alpha, beta) of complex numbers with
|alpha|^2 + |beta|^2 = 1, acting as the unitary matrix [[alpha, beta],
[-conj(beta), conj(alpha)]]. The distribution is spanned by X1, X2 with
transverse X0, and normal geodesics from the identity with covector
(u0, v0, w0) have the closed form

    alpha(t) = (cos(w0 t/2) - i sin(w0 t/2)) (cos(rho t/2) + i (w0/rho) sin(rho t/2))
    beta(t)  = ((u0 + i v0)/rho) sin(rho t/2) (cos(w0 t/2) + i sin(w0 t/2))

with rho = |(u0, v0, w0)|. The horizontal momentum rotates at rate w0:
u(t) = u0 cos(w0 t) - v0 sin(w0 t), v(t) = v0 cos(w0 t) + u0 sin(w0 t)
(contact.rotated_momentum at eps = +1). (Some
references print an extra w0 factor on those sine terms; the matrix-ODE oracle
g' = g (u X1 + v X2) rules it out, and that reconciliation is what ships here.)

This is the eps = +1 case of contact.py: r = rho^2, the conjugate strata are
the zeros of f0 = rho cos(rho/2) - 2 sin(rho/2) and f1 = sin(rho/2), and every
conjugate covector has order one. The kernel's vertical term -4 sin(rho/2)
has the opposite sign from the display some references carry; finite
differences arbitrate it (the other sign is not annihilated).

The chart (contact.py) reads all four entries (Re alpha, Im alpha, Re beta,
Im beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import ContactGroup, curvature, rotated_momentum
from .errors import DegenerateCovector, InvalidInput
from .numeric import finite_covector, finite_time, libm_cos, libm_sin
from .state import JacobiCoords

X0 = 0.5 * np.array([[1j, 0.0], [0.0, -1j]])
X1 = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
X2 = 0.5 * np.array([[0.0, 1j], [1j, 0.0]])

# sign of the horizontal energy in the curvature scalar r (see contact.py)
_EPS = 1


@dataclass(frozen=True)
class Su2Point:
    """Group element (alpha, beta) stored by real and imaginary parts."""

    alpha_re: float
    alpha_im: float
    beta_re: float
    beta_im: float

    def __post_init__(self) -> None:
        norm_sq = (self.alpha_re ** 2 + self.alpha_im ** 2
                   + self.beta_re ** 2 + self.beta_im ** 2)
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > 1e-10:
            raise InvalidInput(
                f"(alpha, beta) must lie on the unit sphere: |.|^2 - 1 = {norm_sq - 1.0:.3e}")

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)

    @property
    def beta(self) -> complex:
        return complex(self.beta_re, self.beta_im)

    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]])

    def entries(self) -> tuple[float, float, float, float]:
        """_entries(self.matrix()), without building the matrix."""
        return self.alpha_re, self.alpha_im, self.beta_re, self.beta_im


def su2_exp(cov, t: float) -> tuple[Su2Point, np.ndarray]:
    """Endpoint and momentum (u, v, w)(t) of the normal geodesic of cov."""
    u0, v0, w0 = finite_covector(cov, 3)
    t = finite_time(t)
    rho = math.sqrt(u0 * u0 + v0 * v0 + w0 * w0)
    if rho == 0.0:
        return Su2Point(1.0, 0.0, 0.0, 0.0), np.zeros(3)
    # an overflowing norm makes rho t inf or nan, and |w0 t| <= rho |t|: one
    # check keeps every phase below finite
    if not math.isfinite(rho * t):
        raise InvalidInput(f"covector ({u0!r}, {v0!r}, {w0!r}) too large at t = {t!r}: "
                           "its norm rho or the phase rho t overflows")
    point = Su2Point(*_endpoint_entries(u0, v0, w0, rho, t, math.cos, math.sin))
    return point, np.array([*rotated_momentum(_EPS, u0, v0, w0, t), w0])


def su2_jacobi(cov, init: JacobiCoords, t: float) -> JacobiCoords:
    """Frame Jacobi data (p_a, p_b, p_c, x_a, x_b, x_c)(t) in closed form."""
    if curvature(_EPS, *finite_covector(cov, 3)) == 0.0:
        raise DegenerateCovector("Jacobi frame undefined at the zero covector")
    return _GROUP.jacobi(cov, init, t)


def _entries(matrix: np.ndarray) -> np.ndarray:
    """(Re, Im) of the top row's two entries: (Re alpha, Im alpha, Re beta, Im beta)."""
    a, b = matrix[0]
    return np.array([a.real, a.imag, b.real, b.imag])


def _endpoint_entries(u0, v0, w0, rho, t, cos, sin):
    """(Re alpha, Im alpha, Re beta, Im beta) of su2_exp's endpoint, with 0 < rho < inf.

    The closed form's complex products written out in real arithmetic, the
    same on floats and on arrays: cos and sin are the trig functions to
    apply, math's or numeric.libm's over arrays.
    """
    cos_w, sin_w = cos(w0 * t / 2.0), sin(w0 * t / 2.0)
    cos_r, sin_r = cos(rho * t / 2.0), sin(rho * t / 2.0)
    # alpha = (cos_w - i sin_w) (cos_r + i q), beta = (u0 + i v0) (sin_r / rho) (cos_w + i sin_w)
    q = (w0 / rho) * sin_r
    beta_u, beta_v = (u0 / rho) * sin_r, (v0 / rho) * sin_r
    return (cos_w * cos_r + sin_w * q, cos_w * q - sin_w * cos_r,
            beta_u * cos_w - beta_v * sin_w, beta_u * sin_w + beta_v * cos_w)


def _entries_array(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_entries of su2_exp(cov, 1.0) at each row of covs, and the rows where exact.

    Every row with finite input and 0 < rho < inf runs su2_exp's own
    arithmetic (_endpoint_entries) with numeric.libm_cos and libm_sin, so
    it is exact: Su2Point's unit-sphere check cannot fail there, since
    r = rho^2 is a sum of squares that does not cancel. The rows with
    rho = 0 and the non-finite rows are left to the scalar exponential.
    """
    u0, v0, w0 = covs[:, 0], covs[:, 1], covs[:, 2]
    with np.errstate(all="ignore"):
        rho = np.sqrt(u0 * u0 + v0 * v0 + w0 * w0)
    exact = np.isfinite(covs).all(axis=1) & np.isfinite(rho) & (rho != 0.0)
    entries = np.zeros((covs.shape[0], 4))
    entries[exact] = np.column_stack(_endpoint_entries(
        u0[exact], v0[exact], w0[exact], rho[exact], 1.0, libm_cos, libm_sin))
    return entries, exact


# exp looks su2_exp up in the module globals on every call, so rebinding that
# name (as the span tracer in perfbench/ does) also reaches adapters already built
_GROUP = ContactGroup(name="su2", eps=_EPS, exp=lambda cov, t: su2_exp(cov, t),
                      basis=(X0, X1, X2), matrix_entries=_entries,
                      entries_array=_entries_array)
su2_chart = _GROUP.chart
su2_conj_f = _GROUP.strata
su2_kernel = _GROUP.kernel
su2_conj_grad = _GROUP.conj_grad
su2_frame_images = _GROUP.frame_images
su2_adapter = _GROUP.adapter
