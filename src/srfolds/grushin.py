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

Along a ray of covectors s d the amplitude, the phase and omega / s do not
depend on s, so ray scans evaluate f from them (_ray_strata), and they skip
the radii at which the geodesic stays off the axis, where the plane is
Riemannian with negative curvature and has no conjugate point. Everything
else evaluates the geodesic in one scalar form (_endpoint): the adapter's
chart_array loops over it, and record_fields takes one endpoint per row,
from which f, the kernel and the gradient follow through the formulas the
scalar functions share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# sin_cos_alpha and arc_alpha, the checked scalar forms, are not called here;
# perfbench/tracer.py wraps these names as the alpha-trig boundary
from .alphatrig import (alpha_table, arc_alpha, sin_cos_alpha, sin_cos_alpha_array, table_arc,
                        table_arc_cos, table_sin_cos)
from .errors import DegenerateCovector, InvalidInput, NotConjugate
from .numeric import finite_time, vector_norm
from .scfun import sc_pair
from .singularity import KERNEL_RESIDUAL_TOL, RayStrata, StructureAdapter
from .state import GeodesicState, JacobiCoords

# relative tolerance deciding the u0 + x0 = 0 branch of the gradient formulas
_BRANCH_TOL = 1e-12
# the Jacobi data x = 0, p = e_j whose endpoints are grushin_dexp's columns
_UNIT_MOMENTA = (JacobiCoords(p=(1.0, 0.0), x=(0.0, 0.0)),
                 JacobiCoords(p=(0.0, 1.0), x=(0.0, 0.0)))
# grushin_kernel's error on the v0 = 0 branch, where f vanishes identically
_NO_KERNEL_ON_V0_ZERO = "no conjugate covectors along v0 = 0 rays"
# relative margin under a ray's crossing radius within which roots are kept;
# the radius and a polished root are both good to far better than this
_CROSSING_MARGIN = 1e-9


@dataclass(frozen=True)
class GrushinBase:
    """Base point (x0, y0) of the plane together with the exponent alpha.

    |x0|^(2 alpha) must be a double: every field of the plane at the base
    carries it.
    """

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
        try:
            _even_power(self.x0, self.alpha)
        except OverflowError:
            raise InvalidInput(f"x0 = {self.x0!r} too large: |x0|^(2 alpha) overflows "
                               f"at alpha = {self.alpha!r}") from None


def _cov_pair(cov) -> tuple[float, float]:
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
    """|x|^(2(alpha-1)) x, the odd companion of the even power; 0 at x = 0.

    Raises OverflowError where |x|^(2(alpha-1)) overflows; the public
    functions report that as _power_overflow.
    """
    if x == 0.0:
        return 0.0
    return abs(x) ** (2.0 * (alpha - 1.0)) * x


def _power_overflow(u0: float, v0: float) -> InvalidInput:
    """The error for a covector whose Jacobi or gradient terms overflow a double."""
    return InvalidInput(f"covector ({u0!r}, {v0!r}) too large: its Jacobi fields overflow")


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


def _energy(x0: float, alpha: float, u0: float, v0: float) -> float:
    """2H at the base abscissa x0; raises InvalidInput where it overflows.

    At x0 = 0 it is u0^2 exactly, also where v0^2 overflows and its product
    with |x0|^(2 alpha) = 0 would be nan.
    """
    if x0 == 0.0:
        h2 = u0 * u0
    else:
        h2 = u0 * u0 + v0 * v0 * _even_power(x0, alpha)
    if not math.isfinite(h2):
        raise InvalidInput(f"covector ({u0!r}, {v0!r}) too large: its energy overflows")
    return h2


def _curvature_resolvable(h2: float, v0: float) -> bool:
    """True when the oscillator parameters are representable in doubles.

    v0 whose square underflows (or whose amplitude ratio overflows) bends the
    geodesic by less than one ulp over unit time, so the straight-line branch
    is the accurate evaluation there.
    """
    if v0 == 0.0 or v0 * v0 == 0.0:
        return False
    return math.isfinite(math.sqrt(h2) / abs(v0))


def _oscillates(h2: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Where _endpoint takes its oscillator branch: h2 != 0 and _curvature_resolvable."""
    with np.errstate(all="ignore"):
        return (h2 != 0.0) & (v0 * v0 != 0.0) & np.isfinite(np.sqrt(h2) / np.abs(v0))


def _oscillator(table, x0: float, u0: float, v0: float,
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
    table is alpha's (alphatrig.alpha_table) and x0 the base's abscissa.
    """
    alpha = table.alpha
    amp = (math.sqrt(h2) / abs(v0)) ** (1.0 / alpha)
    omega = v0 * amp ** (alpha - 1.0)
    sin_ratio = min(abs(x0 / amp), 1.0)
    cos_ratio = min(abs(u0 / (amp * omega)), 1.0)
    if cos_ratio < sin_ratio:
        arc = table_arc_cos(table, cos_ratio)
    else:
        arc = table_arc(table, sin_ratio)
    phase = math.copysign(arc, x0)
    flip = -1.0 if u0 * v0 < 0.0 else 1.0
    return amp, omega, phase, flip


def _endpoint(table, x0: float, y0: float, u0: float, v0: float,
              t: float) -> tuple[float, float, float]:
    """(x, y, u) at time t of the geodesic of (u0, v0) from (x0, y0).

    grushin_exp on floats, without its argument checks and without building
    a GeodesicState: table is alpha's (alphatrig.alpha_table), and u0, v0
    and t are finite floats. The scalar Grushin functions and the adapter's
    chart all evaluate the geodesic here.
    """
    alpha = table.alpha
    h2 = _energy(x0, alpha, u0, v0)
    if h2 == 0.0:
        return x0, y0, u0
    if not _curvature_resolvable(h2, v0):
        return x0 + u0 * t, y0, u0
    amp, omega, phase, flip = _oscillator(table, x0, u0, v0, h2)
    sin_a, cos_a = table_sin_cos(table, finite_time(phase + flip * omega * t))
    x = amp * sin_a
    u = flip * amp * omega * cos_a
    return x, y0 + (t * h2 + u0 * x0 - u * x) / (v0 * (alpha + 1.0)), u


def grushin_exp(base: GrushinBase, cov, t: float) -> GeodesicState:
    """Normal geodesic from the base point at time t: positions and momenta.

    Raises InvalidInput where the energy u0^2 + v0^2 |x0|^(2 alpha) overflows.
    """
    u0, v0 = _cov_pair(cov)
    t = finite_time(t)
    x, y, u = _endpoint(alpha_table(base.alpha), base.x0, base.y0, u0, v0, t)
    return GeodesicState(t, (x, y), (u, v0))


def grushin_dexp(base: GrushinBase, cov) -> np.ndarray:
    """Analytic Jacobian d(x1, y1)/d(u0, v0) of the time-one endpoint map.

    Column j is the endpoint (x_a, x_b) = (dx, dy) of the Jacobi field that
    starts at x = 0 with p = e_j: grushin_jacobi's, bit for bit, and raising
    where it raises. Where the oscillator ansatz holds, both columns share one
    endpoint evaluation.
    """
    u0, v0 = _cov_pair(cov)
    a = base.alpha
    x0 = base.x0
    h2 = _energy(x0, a, u0, v0)
    if h2 == 0.0 or not _curvature_resolvable(h2, v0):
        columns = [grushin_jacobi(base, cov, init, 1.0).x for init in _UNIT_MOMENTA]
        return np.array(columns).T
    x, _, u = _endpoint(alpha_table(a), x0, base.y0, u0, v0, 1.0)
    columns = [_jacobi_endpoint(a, x0, u0, v0, h2, 1.0, x, u, init)[1:]
               for init in _UNIT_MOMENTA]
    return np.array(columns).T


def grushin_jacobi(base: GrushinBase, cov, init: JacobiCoords,
                   t: float) -> JacobiCoords:
    """Jacobi data (p_a, p_b, x_a, x_b)(t) along the geodesic of cov, any real t.

    Where v0 != 0 and H != 0 this is the oscillator ansatz
    x_a = k1 x + (k2 + k3 t) u along the geodesic (x, u)(t), whose
    coefficients k1, k2, k3 match the initial data; p_b stays constant and
    x_b follows from the conserved fluxes. On the degenerate branches the
    geodesic is the line x0 + u0 t, and every v0 term of the linearized
    system vanishes or underflows there except the restoring force v0^2 x_a
    of alpha = 1 (the H = 0 branch at x0 = 0). So (x_a, p_a) is the constant-coefficient
    oscillator of sc_pair(k, t), with k = v0^2 at alpha = 1 and 0 otherwise,
    p_b is constant and x_b gains p_b times the integral of |x|^(2 alpha)
    along the line. Raises InvalidInput where the energy or a power in the
    oscillator coefficients overflows.
    """
    u0, v0 = _cov_pair(cov)
    t = finite_time(t)
    if len(init.p) != 2:
        raise InvalidInput("Grushin Jacobi data has two momentum components")
    pa0, pb0 = init.p
    xa0, xb0 = init.x
    h2 = _energy(base.x0, base.alpha, u0, v0)
    if h2 == 0.0 or not _curvature_resolvable(h2, v0):
        k = v0 * v0 if base.alpha == 1.0 else 0.0
        s, c = sc_pair(k, t)
        xb = xb0 + pb0 * _line_integral(base.x0, u0, t, base.alpha)
        return JacobiCoords(p=(pa0 * c - k * xa0 * s, pb0), x=(xa0 * c + pa0 * s, xb))
    x, _, u = _endpoint(alpha_table(base.alpha), base.x0, base.y0, u0, v0, t)
    pa, xa, xb = _jacobi_endpoint(base.alpha, base.x0, u0, v0, h2, t, x, u, init)
    return JacobiCoords(p=(pa, pb0), x=(xa, xb))


def _jacobi_endpoint(a: float, x0: float, u0: float, v0: float, h2: float, t: float,
                     x: float, u: float, init: JacobiCoords) -> tuple[float, float, float]:
    """(p_a, x_a, x_b) at time t on grushin_jacobi's oscillator branch.

    (x, u) is the geodesic's endpoint at t and h2 its energy, with h2 != 0
    and _curvature_resolvable; p_b stays init's. The x_a(0) term of k1, with
    its v0^3, is taken only where x_a(0) != 0, and u_dot is regrouped as
    -a v0 (v0 |x|^(2(a-1)) x) only where the product taken left to right is
    not finite, so its bits stay wherever that one is. Raises InvalidInput
    where a power in the coefficients overflows.
    """
    pa0, pb0 = init.p
    xa0, xb0 = init.x
    try:
        lead = a * xa0 * v0 ** 3 * _odd_power(x0, a) if xa0 != 0.0 else 0.0
        x_power = _odd_power(x, a)
    except OverflowError:
        raise _power_overflow(u0, v0) from None
    u_dot = -a * v0 * v0 * x_power
    if not math.isfinite(u_dot):
        # v0 * v0 overflows once |v0| > 1.3e154, where u_dot itself need not
        u_dot = -a * v0 * (v0 * x_power)
    k1 = (lead + pa0 * u0 * v0 - pb0 * u0 * u0) / (a * v0 * h2)
    k2 = (a * xa0 * u0 * v0 - pa0 * v0 * x0 + pb0 * u0 * x0) / (a * v0 * h2)
    k3 = ((a - 1.0) * v0 * k1 + pb0) / v0
    xa = k1 * x + (k2 + k3 * t) * u
    pa = (k1 + k3) * u + (k2 + k3 * t) * u_dot
    y_flux = (t * h2 + u0 * x0 - u * x) / (v0 * (a + 1.0))
    z_flux = (u0 * x0 - a * t * h2 + (a + 1.0) * t * u * u - u * x) / (v0 * (a + 1.0))
    xb = (xb0 + (pb0 / v0 + 2.0 * a * k1) * y_flux
          - (k2 / v0) * (u * u - u0 * u0) - k3 * z_flux)
    return pa, xa, xb


def grushin_conj_f(base: GrushinBase, cov) -> float:
    """Conjugacy function f = u1 (u0 + x0) - u0 x1 at time one.

    Its zeros with v0 != 0 are exactly the conjugate covectors; along v0 = 0
    rays f vanishes identically and carries no information, which is why ray
    scans gate those out.
    """
    u0, v0 = _cov_pair(cov)
    if _energy(base.x0, base.alpha, u0, v0) == 0.0:
        raise DegenerateCovector("conjugacy function undefined at H = 0")
    x1, _, u1 = _endpoint(alpha_table(base.alpha), base.x0, base.y0, u0, v0, 1.0)
    return _conj_f(base.x0, u0, x1, u1)


def _conj_f(x0: float, u0: float, x1: float, u1: float) -> float:
    """f = u1 (u0 + x0) - u0 x1 from the time-one endpoint (x1, u1)."""
    return u1 * (u0 + x0) - u0 * x1


def grushin_conj_grad(base: GrushinBase, cov) -> np.ndarray:
    """Analytic gradient (df/du0, df/dv0) of the conjugacy function.

    Raises DegenerateCovector at H = 0, at v0 = 0, and off the u0 + x0 = 0
    branch where the denominator alpha v0 (u0 + x0) H underflows to 0 or
    overflows; InvalidInput where the energy or |x1|^(2(alpha-1)) overflows.
    """
    u0, v0 = _cov_pair(cov)
    h2 = _energy(base.x0, base.alpha, u0, v0)
    if h2 == 0.0:
        raise DegenerateCovector("conjugacy gradient undefined at H = 0")
    if v0 == 0.0:
        raise DegenerateCovector(
            "conjugacy gradient undefined on the v0 = 0 branch (f vanishes identically)")
    x1, _, u1 = _endpoint(alpha_table(base.alpha), base.x0, base.y0, u0, v0, 1.0)
    return _conj_grad(base.alpha, base.x0, u0, v0, h2, x1, u1)


def _conj_grad(a: float, x0: float, u0: float, v0: float, h2: float,
               x1: float, u1: float) -> np.ndarray:
    """grushin_conj_grad from the energy h2 != 0 and the time-one endpoint (x1, u1), v0 != 0.

    Raises what grushin_conj_grad raises past its H = 0 and v0 = 0 checks.
    """
    x2a = _even_power(x0, a)
    try:
        u1_dot = -a * v0 * v0 * _odd_power(x1, a)
    except OverflowError:
        raise _power_overflow(u0, v0) from None
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


def grushin_record_fields(base: GrushinBase, covs: np.ndarray,
                          order_one: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grushin_conj_f, grushin_kernel, grushin_conj_grad) at each row of covs.

    Returns the f-values (n, 1), and on the order_one rows the unit kernels
    (n, 2) and the gradients (n, 2); the other rows of those two are not
    defined. Each row takes one time-one endpoint, and f, the kernel and
    the gradient come from it through the formulas the scalar functions
    share, after the checks of each in turn: the values are theirs, and
    the first check that fails raises what the scalar sequence raises
    first, with its message (each row is the numpy row the scalar
    functions would be handed).
    """
    alpha, x0, y0 = base.alpha, base.x0, base.y0
    table = alpha_table(alpha)
    n = covs.shape[0]
    f, kernels, grads = np.empty((n, 1)), np.empty((n, 2)), np.empty((n, 2))
    for i, cov in enumerate(covs):
        u0, v0 = _cov_pair(cov)
        h2 = _energy(x0, alpha, u0, v0)
        if h2 == 0.0:
            raise DegenerateCovector("conjugacy function undefined at H = 0")
        x1, _, u1 = _endpoint(table, x0, y0, u0, v0, 1.0)
        f[i, 0] = _conj_f(x0, u0, x1, u1)
        if order_one[i]:
            if v0 == 0.0:
                raise DegenerateCovector(_NO_KERNEL_ON_V0_ZERO)
            kernels[i] = _unit_kernel(alpha, x0, u0, v0, x1, u1)
            grads[i] = _conj_grad(alpha, x0, u0, v0, h2, x1, u1)
    return f, kernels, grads


def grushin_kernel(base: GrushinBase, cov) -> list[np.ndarray]:
    """Unit kernel vector(s) of the endpoint differential at a conjugate covector.

    The kernel is always one-dimensional here, spanned by
    (v0 |x0|^(2 alpha), -u0) in the (u, v) fiber coordinates.
    """
    u0, v0 = _cov_pair(cov)
    if _energy(base.x0, base.alpha, u0, v0) == 0.0:
        raise DegenerateCovector("kernel undefined at H = 0")
    if v0 == 0.0:
        raise DegenerateCovector(_NO_KERNEL_ON_V0_ZERO)
    x1, _, u1 = _endpoint(alpha_table(base.alpha), base.x0, base.y0, u0, v0, 1.0)
    return [_unit_kernel(base.alpha, base.x0, u0, v0, x1, u1)]


def _unit_kernel(a: float, x0: float, u0: float, v0: float,
                 x1: float, u1: float) -> np.ndarray:
    """grushin_kernel's unit vector from the time-one endpoint (x1, u1), v0 != 0.

    Raises NotConjugate where f exceeds its residual bound.
    """
    f = _conj_f(x0, u0, x1, u1)
    scale = max(1.0, abs(u1) * (abs(u0) + abs(x0)) + abs(u0) * abs(x1))
    bound = KERNEL_RESIDUAL_TOL * scale
    if abs(f) > bound:
        raise NotConjugate(
            f"covector is not conjugate: |f| = {abs(f):.3e} exceeds {bound:.3e}")
    kern = np.array([v0 * _even_power(x0, a), -u0])
    return kern / vector_norm(kern)


def _ray_strata(base: GrushinBase, table, d: np.ndarray) -> RayStrata:
    """grushin_conj_f restricted to the ray s d, from per-ray oscillator constants.

    Along the ray H grows as s^2 and v0 as s, so the amplitude, the phase,
    the flip and omega / s do not depend on s: _oscillator runs once, on d
    itself, and then

        f(s) = flip amp (omega_1 s) cos_alpha(theta) (s du + x0)
               - s du amp sin_alpha(theta),   theta = phase + flip omega_1 s,

    which is u1 (u0 + x0) - u0 x1 for the covector s d at one alpha-trig
    evaluation. It equals grushin_conj_f(s d) up to rounding, not bit for
    bit. Where _endpoint would not take its oscillator branch at s d (H = 0,
    v0^2 underflows, an amplitude ratio that overflows, an energy that
    overflows and raises), and on the whole ray where it would not at d, the
    values are grushin_conj_f's at the covector s d, taken in row order (so
    g_rows raises where the first of them raises).

    free_below is the crossing radius, the first s at which theta reaches a
    multiple of pi_alpha, less a relative _CROSSING_MARGIN. Below it the
    geodesic of s d stays off the axis x = 0 for t in [0, 1], where the
    plane is Riemannian with Gaussian curvature -alpha (alpha + 1) / x^2 < 0,
    so it has no conjugate point; the roots found there are rounding noise.
    table is alpha's (alphatrig.alpha_table).
    """
    du, dv = d.tolist()
    alpha, x0 = table.alpha, base.x0
    x2a = _even_power(x0, alpha)

    def covector_rows(s: np.ndarray) -> np.ndarray:
        return np.array([grushin_conj_f(base, (r * du, r * dv)) for r in s.tolist()],
                        dtype=float).reshape(-1, 1)

    h2 = du * du + dv * dv * x2a
    if h2 == 0.0 or not _curvature_resolvable(h2, dv):
        return RayStrata(lambda idx, s: grushin_conj_f(base, (s * du, s * dv)), covector_rows)
    amp, omega, phase, flip = _oscillator(table, x0, du, dv, h2)
    rate, flip_amp = flip * omega, flip * amp

    def restriction(s, u0, sin_cos, key):
        # f(s) above, on a float s (table_sin_cos, table) or on an array of
        # them (sin_cos_alpha_array, alpha)
        sin_a, cos_a = sin_cos(key, phase + rate * s)
        return flip_amp * (omega * s) * cos_a * (u0 + x0) - u0 * (amp * sin_a)

    def g(idx: int, s: float) -> float:
        u0, v0 = s * du, s * dv
        h2 = u0 * u0 + v0 * v0 * x2a
        if h2 == 0.0 or not _curvature_resolvable(h2, v0):
            return grushin_conj_f(base, (u0, v0))
        return restriction(s, u0, table_sin_cos, table)

    def g_rows(s: np.ndarray) -> np.ndarray:
        u0, v0 = s * du, s * dv
        with np.errstate(all="ignore"):
            h2 = u0 * u0 + v0 * v0 * x2a
        osc = _oscillates(h2, v0)
        f = np.empty((s.size, 1))
        if not osc.all():
            f[~osc] = covector_rows(s[~osc])
        f[osc, 0] = restriction(s[osc], u0[osc], sin_cos_alpha_array, alpha)
        return f

    free_below = 0.0
    if phase != 0.0:
        # theta moves with the sign of rate, from phase in [-pi_alpha/2, pi_alpha/2]
        toward_axis = (rate < 0.0) != (phase < 0.0)
        gap = abs(phase) if toward_axis else table.pi_alpha - abs(phase)
        free_below = gap / abs(omega) * (1.0 - _CROSSING_MARGIN)
    return RayStrata(g, g_rows, free_below)


def grushin_adapter(base: GrushinBase) -> StructureAdapter:
    """Plug the plane into the generic conjugate-locus scanner.

    The chart is the plane itself, the endpoint position, and its
    differential is grushin_dexp. Records start on
    the placeholder stratum "other"; the scanner names them C0/C1 from the
    kernel pairing, the transversality that defines the strata of a planar
    structure. A ray's stratum function is its closed-form restriction
    (_ray_strata).
    """
    table = alpha_table(base.alpha)

    def position(cov) -> tuple[float, float]:
        u0, v0 = _cov_pair(cov)
        x, y, _ = _endpoint(table, base.x0, base.y0, u0, v0, 1.0)
        return x, y

    def endpoint(cov) -> np.ndarray:
        return np.array(position(cov))

    def chart_array(points: np.ndarray) -> np.ndarray:
        # a stencil carries a few dozen points, too few for an array pass to pay
        return np.array([position(cov) for cov in points.reshape(-1, 2)],
                        dtype=float).reshape(points.shape)

    def record_fields(covs: np.ndarray, strata: np.ndarray, order_one: np.ndarray):
        return grushin_record_fields(base, covs, order_one)

    def ray_strata(d: np.ndarray) -> RayStrata | None:
        du, dv = d.tolist()
        # a v0 = 0 ray or one with H = 0 has no conjugate covector; an energy
        # that overflows raises here
        if dv == 0.0 or _energy(base.x0, base.alpha, du, dv) == 0.0:
            return None
        return _ray_strata(base, table, d)

    return StructureAdapter(
        name="grushin",
        fiber_dim=2,
        chart=endpoint,
        chart_jacobian=lambda cov: grushin_dexp(base, cov),
        chart_array=chart_array,
        ray_strata=ray_strata,
        record_fields=record_fields,
        stratum_names=("other",),
    )
