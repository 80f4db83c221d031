"""The alpha-Grushin plane: closed-form geodesics and conjugate-locus analysis.

The plane is R^2 with orthonormal frame X = d/dx, Y = |x|^alpha d/dy, so normal
geodesics from (x0, y0) with initial covector (u0, v0) follow the Hamiltonian
H = (u^2 + v^2 |x|^(2 alpha)) / 2. When v0 != 0 the horizontal coordinate is a
scaled generalized sine,

    x(t) = A sin_alpha(omega t + phi),   u(t) = A omega cos_alpha(omega t + phi),

with amplitude A = (2H / v0^2)^(1/(2 alpha)), frequency omega = v0 A^(alpha-1)
and phase phi fixed by the initial conditions; y(t) integrates in closed form
from the conserved quantities. Degenerate covectors (v0 = 0 straight lines,
H = 0 rest points) are explicit branches.

All fractional powers follow the even/odd convention x^(2 alpha) := |x|^(2 alpha)
and x^(2(alpha-1)) x := |x|^(2(alpha-1)) x, which keeps every field real and odd
for non-integer alpha.

Conjugate covectors at time one are the zeros of

    f(u0, v0) = u1 (u0 + x0) - u0 x1        (endpoint values u1, x1)

with v0 != 0; they all have order one, with kernel direction
(v0 |x0|^(2 alpha), -u0) in the (u, v) fiber coordinates. The analytic gradient
of f drives the fold/tangential split; here the strata are not named by
separate functions, so the scanner labels each record C0 (transversal) or C1
(tangent) once the kernel pairing is known, as it does on every planar
structure. The label is the scanner's pairing test at singularity.PAIRING_TOL
and nothing more: a fold whose normalized pairing falls under it, as on rays
next to u0 = 0, reads C1 and Undetermined, and so does a cusp. Telling those
apart needs a cusp certificate and a second fold route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphatrig import (arc_alpha, arc_alpha_array, arc_cos_alpha, arc_cos_alpha_array,
                        pi_alpha, sin_cos_alpha, sin_cos_alpha_array)
from .errors import DegenerateCovector, InvalidInput, NotConjugate
from .numeric import finite_time, libm, row_dots
from .scfun import sc_pair
from .singularity import StructureAdapter
from .state import GeodesicState, JacobiCoords

# relative tolerance deciding the u0 + x0 = 0 branch of the gradient formulas
_BRANCH_TOL = 1e-12
# relative residual of f under which grushin_kernel accepts a covector as conjugate
_KERNEL_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class GrushinBase:
    """Base point (x0, y0) of the plane together with the exponent alpha."""

    alpha: float
    x0: float
    y0: float

    def __post_init__(self) -> None:
        for name in ("alpha", "x0", "y0"):
            value = getattr(self, name)
            if not (np.isscalar(value) and math.isfinite(float(value))):
                raise InvalidInput(f"{name} must be a finite real, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.alpha < 1.0:
            raise InvalidInput(f"alpha must be >= 1, got {self.alpha}")


@dataclass(frozen=True)
class GrushinCovector:
    """Initial covector u0 dx + v0 dy at the base point."""

    u0: float
    v0: float

    def __post_init__(self) -> None:
        for name in ("u0", "v0"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GrushinAmplitude:
    """Amplitude, frequency and phase of the oscillatory branch."""

    A: float
    omega: float
    phi: float


@dataclass(frozen=True)
class GrushinJacobiCoeffs:
    """Coefficients k1, k2, k3 of the closed-form Jacobi solution ansatz."""

    k1: float
    k2: float
    k3: float


def _cov_pair(cov) -> tuple[float, float]:
    if isinstance(cov, GrushinCovector):
        return cov.u0, cov.v0
    # tolist() hands over Python floats, far cheaper to convert
    # than the numpy scalars its iteration yields
    values = cov.tolist() if isinstance(cov, np.ndarray) else cov
    u0, v0 = map(float, values)
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise InvalidInput(f"covector components must be finite, got {cov!r}")
    return u0, v0


def _even_power(x: float, alpha: float) -> float:
    """|x|^(2 alpha)."""
    return abs(x) ** (2.0 * alpha)


def _odd_power(x: float, alpha: float) -> float:
    """|x|^(2(alpha-1)) x, the odd companion of the even power; 0 at x = 0."""
    if x == 0.0:
        return 0.0
    return abs(x) ** (2.0 * (alpha - 1.0)) * x


def _line_integral(x0: float, u0: float, t: float, alpha: float) -> float:
    """Integral of |x0 + u0 tau|^(2 alpha) over tau in [0, t].

    When the line stays on one side of the axis the antiderivative difference
    is written as t |x0|^(2 alpha) expm1(n log1p(r)) / (n r), r = u0 t / x0 and
    n = 2 alpha + 1, which tends to t |x0|^(2 alpha) as u0 -> 0 instead of
    cancelling; across the axis the two antiderivative terms add.
    """
    n = 2.0 * alpha + 1.0
    step = u0 * t
    x1 = x0 + step
    if (x0 > 0.0 and x1 > 0.0) or (x0 < 0.0 and x1 < 0.0):
        r = step / x0
        growth = math.expm1(n * math.log1p(r)) / (n * r) if r != 0.0 else 1.0
        return t * _even_power(x0, alpha) * growth
    if step == 0.0:
        return 0.0
    return (_even_power(x1, alpha) * x1 - _even_power(x0, alpha) * x0) / (n * u0)


def _energy(base: GrushinBase, u0: float, v0: float) -> float:
    """2H at the base point."""
    return u0 * u0 + v0 * v0 * _even_power(base.x0, base.alpha)


def _curvature_resolvable(h2: float, v0: float) -> bool:
    """True when the oscillator parameters are representable in doubles.

    v0 whose square underflows (or whose amplitude ratio overflows) bends the
    geodesic by less than one ulp over unit time, so the straight-line branch
    is the accurate evaluation there.
    """
    if v0 == 0.0 or v0 * v0 == 0.0:
        return False
    return math.isfinite(math.sqrt(h2) / abs(v0))


def _oscillator(base: GrushinBase, u0: float, v0: float,
                h2: float) -> tuple[float, float, float, float]:
    """(amp, omega, phase, flip) with x(t) = amp sin_alpha(phase + flip omega t).

    phase lies in [-pi_alpha/2, pi_alpha/2] and flip is -1 exactly when
    u0 v0 < 0, so that u(t) = flip amp omega cos_alpha(phase + flip omega t).
    Keeping the phase as a signed small angle matters: the equivalent single
    phase in [0, 2 pi_alpha) sits next to pi_alpha when u0 v0 < 0, and forming
    it destroys the small effective angle that the amplitude (of order 1/|v0|)
    then amplifies.

    The phase is inverted from the smaller of |sin_alpha| = |x0| / amp and
    cos_alpha = |u0| / (amp |omega|). Next to the quarter period |x0| / amp
    sits next to 1, where one rounding of that ratio moves the inverted phase
    by far more than an ulp; cos_alpha is small there and well conditioned.
    """
    alpha = base.alpha
    amp = (math.sqrt(h2) / abs(v0)) ** (1.0 / alpha)
    omega = v0 * amp ** (alpha - 1.0)
    sin_ratio = min(abs(base.x0 / amp), 1.0)
    cos_ratio = min(abs(u0 / (amp * omega)), 1.0)
    if cos_ratio < sin_ratio:
        arc = arc_cos_alpha(alpha, cos_ratio)
    else:
        arc = arc_alpha(alpha, sin_ratio, 1.0)
    phase = math.copysign(arc, base.x0)
    flip = -1.0 if u0 * v0 < 0.0 else 1.0
    return amp, omega, phase, flip


def grushin_amplitude(base: GrushinBase, cov) -> GrushinAmplitude:
    """(A, omega, phi) of the oscillatory branch; requires v0 != 0 and H != 0."""
    u0, v0 = _cov_pair(cov)
    h2 = _energy(base, u0, v0)
    if h2 == 0.0 or not _curvature_resolvable(h2, v0):
        raise DegenerateCovector(
            f"amplitude parameters need v0 != 0 and H != 0, got (u0, v0)=({u0}, {v0})")
    amp, omega, phase, flip = _oscillator(base, u0, v0, h2)
    half = pi_alpha(base.alpha)
    if flip > 0.0:
        phi = phase if phase >= 0.0 else phase + 2.0 * half
    else:
        phi = half - phase
    return GrushinAmplitude(A=amp, omega=omega, phi=phi)


def grushin_exp(base: GrushinBase, cov, t: float) -> GeodesicState:
    """Normal geodesic from the base point at time t: positions and momenta."""
    u0, v0 = _cov_pair(cov)
    t = finite_time(t)
    h2 = _energy(base, u0, v0)
    if h2 == 0.0:
        return GeodesicState(t, (base.x0, base.y0), (u0, v0))
    if not _curvature_resolvable(h2, v0):
        return GeodesicState(t, (base.x0 + u0 * t, base.y0), (u0, v0))
    alpha = base.alpha
    amp, omega, phase, flip = _oscillator(base, u0, v0, h2)
    sin_a, cos_a = sin_cos_alpha(alpha, phase + flip * omega * t)
    x = amp * sin_a
    u = flip * amp * omega * cos_a
    y = base.y0 + (t * h2 + u0 * base.x0 - u * x) / (v0 * (alpha + 1.0))
    return GeodesicState(t, (x, y), (u, v0))


def grushin_dexp(base: GrushinBase, cov) -> np.ndarray:
    """Analytic Jacobian d(x1, y1)/d(u0, v0) of the time-one endpoint map.

    Column j is the endpoint (x_a, x_b) = (dx, dy) of the Jacobi field that
    starts at x = 0 with p = e_j, so every branch of grushin_jacobi carries over.
    """
    columns = [grushin_jacobi(base, cov, JacobiCoords(p=p0, x=(0.0, 0.0)), 1.0).x
               for p0 in ((1.0, 0.0), (0.0, 1.0))]
    return np.array(columns).T


def grushin_jacobi_coefficients(base: GrushinBase, cov,
                                init: JacobiCoords) -> GrushinJacobiCoeffs:
    """Ansatz coefficients k1, k2, k3 matching the initial Jacobi data."""
    u0, v0 = _cov_pair(cov)
    h2 = _energy(base, u0, v0)
    if h2 == 0.0 or not _curvature_resolvable(h2, v0):
        raise DegenerateCovector(
            "closed-form Jacobi coefficients need v0 != 0 and H != 0")
    pa0, pb0 = init.p
    xa0, _ = init.x
    a = base.alpha
    x0 = base.x0
    odd0 = _odd_power(x0, a)
    k1 = (a * xa0 * v0 ** 3 * odd0 + pa0 * u0 * v0 - pb0 * u0 * u0) / (a * v0 * h2)
    k2 = (a * xa0 * u0 * v0 - pa0 * v0 * x0 + pb0 * u0 * x0) / (a * v0 * h2)
    k3 = ((a - 1.0) * v0 * k1 + pb0) / v0
    return GrushinJacobiCoeffs(k1=k1, k2=k2, k3=k3)


def grushin_jacobi(base: GrushinBase, cov, init: JacobiCoords,
                   t: float) -> JacobiCoords:
    """Jacobi data (p_a, p_b, x_a, x_b)(t) along the geodesic of cov, any real t.

    Where v0 != 0 and H != 0 this is the oscillator ansatz of
    grushin_jacobi_coefficients. On the degenerate branches the geodesic is
    the line x0 + u0 t, and every v0 term of the linearized system vanishes
    or underflows there except the restoring force v0^2 x_a of alpha = 1 (the
    H = 0 branch at x0 = 0). So (x_a, p_a) is the constant-coefficient
    oscillator of sc_pair(k, t), with k = v0^2 at alpha = 1 and 0 otherwise,
    p_b is constant and x_b gains p_b times the integral of |x|^(2 alpha)
    along the line.
    """
    u0, v0 = _cov_pair(cov)
    t = finite_time(t)
    pa0, pb0 = init.p
    xa0, xb0 = init.x
    h2 = _energy(base, u0, v0)
    if h2 == 0.0 or not _curvature_resolvable(h2, v0):
        k = v0 * v0 if base.alpha == 1.0 else 0.0
        s, c = sc_pair(k, t)
        xb = xb0 + pb0 * _line_integral(base.x0, u0, t, base.alpha)
        return JacobiCoords(p=(pa0 * c - k * xa0 * s, pb0), x=(xa0 * c + pa0 * s, xb))
    a = base.alpha
    x0 = base.x0
    coeffs = grushin_jacobi_coefficients(base, cov, init)
    k1, k2, k3 = coeffs.k1, coeffs.k2, coeffs.k3
    state = grushin_exp(base, cov, t)
    x, _ = state.position
    u, _ = state.momentum
    u_dot = -a * v0 * v0 * _odd_power(x, a)
    xa = k1 * x + (k2 + k3 * t) * u
    pa = (k1 + k3) * u + (k2 + k3 * t) * u_dot
    y_flux = (t * h2 + u0 * x0 - u * x) / (v0 * (a + 1.0))
    z_flux = (u0 * x0 - a * t * h2 + (a + 1.0) * t * u * u - u * x) / (v0 * (a + 1.0))
    xb = (xb0 + (pb0 / v0 + 2.0 * a * k1) * y_flux
          - (k2 / v0) * (u * u - u0 * u0) - k3 * z_flux)
    return JacobiCoords(p=(pa, pb0), x=(xa, xb))


def grushin_conj_f(base: GrushinBase, cov) -> float:
    """Conjugacy function f = u1 (u0 + x0) - u0 x1 at time one.

    Its zeros with v0 != 0 are exactly the conjugate covectors; along v0 = 0
    rays f vanishes identically and carries no information, which is why ray
    scans gate those out.
    """
    u0, v0 = _cov_pair(cov)
    if _energy(base, u0, v0) == 0.0:
        raise DegenerateCovector("conjugacy function undefined at H = 0")
    state = grushin_exp(base, cov, 1.0)
    x1, _ = state.position
    u1, _ = state.momentum
    return u1 * (u0 + base.x0) - u0 * x1


def _endpoint_pass(base: GrushinBase,
                   covs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x1, y1, u1) of grushin_exp(base, cov, 1.0) at each row of covs, bit for bit.

    Follows the scalar branches row by row: the straight line where the
    curvature is not resolvable, and _oscillator and grushin_exp term for
    term elsewhere, with the phase inverted from the smaller of its sine and
    cosine ratios. Rows that are not finite or have H = 0 go to grushin_exp
    itself.
    """
    u0, v0 = covs[:, 0], covs[:, 1]
    alpha, x0 = base.alpha, base.x0
    with np.errstate(all="ignore"):
        h2 = u0 * u0 + v0 * v0 * _even_power(x0, alpha)
        x1 = x0 + u0 * 1.0
        osc = np.flatnonzero((h2 != 0.0) & (v0 * v0 != 0.0)
                             & np.isfinite(np.sqrt(h2) / np.abs(v0)))
    y1 = np.full(u0.shape, base.y0)
    u1 = u0.copy()
    for i in np.flatnonzero(~np.isfinite(covs).all(axis=1) | (h2 == 0.0)):
        state = grushin_exp(base, covs[i], 1.0)
        (x1[i], y1[i]), u1[i] = state.position, state.momentum[0]
    u0, v0, h2 = u0[osc], v0[osc], h2[osc]
    amp = libm(pow, np.sqrt(h2) / np.abs(v0), 1.0 / alpha)
    omega = v0 * libm(pow, amp, alpha - 1.0)
    sin_ratio = np.minimum(np.abs(x0 / amp), 1.0)
    cos_ratio = np.minimum(np.abs(u0 / (amp * omega)), 1.0)
    by_cos = cos_ratio < sin_ratio
    arc = np.empty_like(amp)
    arc[by_cos] = arc_cos_alpha_array(alpha, cos_ratio[by_cos])
    arc[~by_cos] = arc_alpha_array(alpha, sin_ratio[~by_cos])
    phase = np.copysign(arc, x0)
    flip = np.where(u0 * v0 < 0.0, -1.0, 1.0)
    sin_a, cos_a = sin_cos_alpha_array(alpha, phase + flip * omega * 1.0)
    x = amp * sin_a
    u = flip * amp * omega * cos_a
    x1[osc], u1[osc] = x, u
    y1[osc] = base.y0 + (1.0 * h2 + u0 * x0 - u * x) / (v0 * (alpha + 1.0))
    return x1, y1, u1


def grushin_conj_grad(base: GrushinBase, cov) -> np.ndarray:
    """Analytic gradient (df/du0, df/dv0) of the conjugacy function.

    Raises DegenerateCovector at H = 0, at v0 = 0, and off the u0 + x0 = 0
    branch where the denominator alpha v0 (u0 + x0) H underflows to 0 or
    overflows.
    """
    u0, v0 = _cov_pair(cov)
    alpha = base.alpha
    x0 = base.x0
    x2a = _even_power(x0, alpha)
    h2 = u0 * u0 + v0 * v0 * x2a
    if h2 == 0.0:
        raise DegenerateCovector("conjugacy gradient undefined at H = 0")
    if v0 == 0.0:
        raise DegenerateCovector(
            "conjugacy gradient undefined on the v0 = 0 branch (f vanishes identically)")
    state = grushin_exp(base, cov, 1.0)
    x1, _ = state.position
    u1, _ = state.momentum
    u1_dot = -alpha * v0 * v0 * _odd_power(x1, alpha)
    a = alpha
    edge = u0 + x0
    if abs(edge) <= _BRANCH_TOL * max(1.0, abs(u0), abs(x0)):
        df_du = u1 * v0 * v0 * x2a / h2
        df_dv = u1 * v0 * x2a * x0 / h2
        return np.array([df_du, df_dv])
    denom = a * v0 * edge * h2
    if denom == 0.0 or not math.isfinite(denom):
        raise DegenerateCovector(
            f"conjugacy gradient undefined: alpha v0 (u0 + x0) H = {denom!r} "
            "underflows or overflows")
    df_du = (u1_dot * edge * edge * ((a - 1.0) * u0 - x0)
             - a * v0 * v0 * x1 * x2a * x0) / (a * edge * h2)
    df_dv = (u1_dot * edge * edge * (u0 * u0 + a * v0 * v0 * x2a + u0 * x0)
             + a * u0 * v0 * v0 * x1 * x2a * x0) / denom
    return np.array([df_du, df_dv])


def _pow_or_inf(x: float, y: float) -> float:
    """x ** y, or inf where that power raises OverflowError."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def grushin_record_fields(base: GrushinBase, covs: np.ndarray,
                          order_one: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grushin_conj_f, grushin_kernel, grushin_conj_grad) at each row of covs, bit for bit.

    Returns the f-values (n, 1), and on the order_one rows the unit kernels
    (n, 2) and the gradients (n, 2); the other rows of those two are not
    defined, and kernels and gradients are computed on the order-one rows
    only. Every row's endpoint comes from one _endpoint_pass. The rows
    where one of the scalar functions may raise (not finite, H = 0, and on
    order-one rows v0 = 0, an f that grushin_kernel rejects, an odd power
    that overflows, a gradient denominator that underflows or overflows, or
    a gradient that is not finite) go through them in row order, so the
    first of them that raises is the scalar loop's first.
    """
    u0, v0 = covs[:, 0], covs[:, 1]
    alpha, x0 = base.alpha, base.x0
    x2a = _even_power(x0, alpha)
    n = covs.shape[0]
    with np.errstate(all="ignore"):
        h2 = u0 * u0 + v0 * v0 * x2a
        good = np.isfinite(covs).all(axis=1) & (h2 != 0.0)
        x1, u1 = np.zeros(n), np.zeros(n)
        x1[good], _, u1[good] = _endpoint_pass(base, covs[good])
        f = u1 * (u0 + x0) - u0 * x1
    kernels, grads = np.empty((n, 2)), np.empty((n, 2))
    fallback = ~good
    rows = np.flatnonzero(order_one & good)
    if rows.size:
        u0, v0, h2, x1, u1 = u0[rows], v0[rows], h2[rows], x1[rows], u1[rows]
        with np.errstate(all="ignore"):
            scale = np.fmax(1.0, np.abs(u1) * (np.abs(u0) + abs(x0)) + np.abs(u0) * np.abs(x1))
            kern = np.column_stack([v0 * x2a, -u0])
            kernels[rows] = kern / np.sqrt(row_dots(kern, kern))[:, np.newaxis]
            odd = np.zeros(rows.size)
            live = x1 != 0.0
            odd[live] = libm(_pow_or_inf, np.abs(x1[live]), 2.0 * (alpha - 1.0)) * x1[live]
            u1_dot = -alpha * v0 * v0 * odd
            a = alpha
            edge = u0 + x0
            on_edge = (np.abs(edge)
                       <= _BRANCH_TOL * np.maximum(np.maximum(1.0, np.abs(u0)), abs(x0)))
            denom = a * v0 * edge * h2
            df_du = np.where(
                on_edge, u1 * v0 * v0 * x2a / h2,
                (u1_dot * edge * edge * ((a - 1.0) * u0 - x0)
                 - a * v0 * v0 * x1 * x2a * x0) / (a * edge * h2))
            df_dv = np.where(
                on_edge, u1 * v0 * x2a * x0 / h2,
                (u1_dot * edge * edge * (u0 * u0 + a * v0 * v0 * x2a + u0 * x0)
                 + a * u0 * v0 * v0 * x1 * x2a * x0) / denom)
        grads[rows] = np.column_stack([df_du, df_dv])
        degenerate = ~on_edge & ((denom == 0.0) | ~np.isfinite(denom))
        fallback[rows] = ((v0 == 0.0) | (np.abs(f[rows]) > _KERNEL_RESIDUAL_TOL * scale)
                          | ~np.isfinite(odd) | degenerate
                          | ~np.isfinite(grads[rows]).all(axis=1))
    for i in np.flatnonzero(fallback):
        f[i] = grushin_conj_f(base, covs[i])
        if order_one[i]:
            kernels[i] = grushin_kernel(base, covs[i])[0]
            grads[i] = grushin_conj_grad(base, covs[i])
    return f[:, np.newaxis], kernels, grads


def grushin_kernel(base: GrushinBase, cov) -> list[np.ndarray]:
    """Unit kernel vector(s) of the endpoint differential at a conjugate covector.

    The kernel is always one-dimensional here, spanned by
    (v0 |x0|^(2 alpha), -u0) in the (u, v) fiber coordinates.
    """
    u0, v0 = _cov_pair(cov)
    if _energy(base, u0, v0) == 0.0:
        raise DegenerateCovector("kernel undefined at H = 0")
    if v0 == 0.0:
        raise DegenerateCovector("no conjugate covectors along v0 = 0 rays")
    state = grushin_exp(base, cov, 1.0)
    x1, _ = state.position
    u1, _ = state.momentum
    f = u1 * (u0 + base.x0) - u0 * x1
    scale = max(1.0, abs(u1) * (abs(u0) + abs(base.x0)) + abs(u0) * abs(x1))
    bound = _KERNEL_RESIDUAL_TOL * scale
    if abs(f) > bound:
        raise NotConjugate(
            f"covector is not conjugate: |f| = {abs(f):.3e} exceeds {bound:.3e}")
    kern = np.array([v0 * _even_power(base.x0, base.alpha), -u0])
    return [kern / np.linalg.norm(kern)]


def grushin_adapter(base: GrushinBase) -> StructureAdapter:
    """Plug the plane into the generic conjugate-locus scanner.

    The chart is the plane itself, the endpoint position. Records start on
    the placeholder stratum "other"; the scanner names them C0/C1 from the
    kernel pairing, the transversality that defines the strata of a planar
    structure.
    """

    def endpoint(cov) -> np.ndarray:
        return np.asarray(grushin_exp(base, cov, 1.0).position, dtype=float)

    def chart_array(points: np.ndarray) -> np.ndarray:
        x1, y1, _ = _endpoint_pass(base, points.reshape(-1, 2))
        return np.column_stack([x1, y1]).reshape(points.shape)

    def conj_f(cov) -> tuple[float]:
        return (grushin_conj_f(base, cov),)

    def record_fields(covs: np.ndarray, strata: np.ndarray, order_one: np.ndarray):
        return grushin_record_fields(base, covs, order_one)

    def ray_gate(direction: np.ndarray) -> bool:
        du, dv = float(direction[0]), float(direction[1])
        if dv == 0.0:
            return False
        return _energy(base, du, dv) > 0.0

    def kernel_jacobi_image(cov) -> np.ndarray:
        # fiber perturbations are realized directly in plane coordinates
        init = JacobiCoords(p=tuple(grushin_kernel(base, cov)[0]), x=(0.0, 0.0))
        return np.asarray(grushin_jacobi(base, cov, init, 1.0).p, dtype=float)

    return StructureAdapter(
        name="grushin",
        fiber_dim=2,
        chart=endpoint,
        chart_array=chart_array,
        conj_f=conj_f,
        record_fields=record_fields,
        stratum_names=("other",),
        ray_gate=ray_gate,
        kernel_jacobi_image=kernel_jacobi_image,
    )
