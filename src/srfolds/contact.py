"""The left-invariant contact structure shared by SU(2) and SL(2).

Both groups are based at the identity, with a rank-two distribution spanned by
X1, X2 and transverse X0. For a covector u0 X1 + v0 X2 + w0 X0, with horizontal
energy h2 = u0^2 + v0^2, every formula here depends on the group only through
the sign eps in the curvature scalar r = w0^2 + eps h2:

    group   eps   r                    momentum rotates   conjugate covectors
    SU(2)   +1    |(u0, v0, w0)|^2     with w0            every r > 0
    SL(2)   -1    w0^2 - h2            against w0         only r > 0

The conjugate covectors at time one are the zeros of the stratum functions

    f0 = sqrt(r) cos(sqrt(r)/2) - 2 sin(sqrt(r)/2)      (the C0 stratum)
    f1 = sin(sqrt(r)/2)                                  (the C1 stratum)

whose hyperbolic continuations, strictly positive, are reported for r <= 0.
With P = sqrt(r) cos(sqrt(r)/2) the kernel of the differential is spanned by
(-v0 P, u0 P, -4 eps sin(sqrt(r)/2)), and a stratum function F of r has the
gradient (dF/dr) 2 (eps u0, eps v0, w0). Frame Jacobi fields solve the system
of scfun.propagate_linear_jacobi with curvature entry r, and the vertical frame
direction lands at the time-one endpoint g as

    f_c = -eps (h2 g X0 - w0 (u1 g X1 + v1 g X2)) / sqrt(h2).

The chart is shared too: the four real entries of the endpoint matrix, which
embed the group in R^4. Rank drop, the fold condition and the cokernel
projection survive composing with an immersion, so no coordinate chart of
the group is needed. Each group's representation (basis, point class,
exponential, entries) lives in su2.py and sl2.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateCovector, InvalidInput, NotConjugate
from .numeric import finite_covector, libm_cos, libm_sin, row_dots
from .scfun import propagate_linear_jacobi, vertical_to_endpoint_matrix
from .singularity import KERNEL_RESIDUAL_TOL, RayStrata, StructureAdapter
from .state import JacobiCoords

# C0 covectors with w0 = 0 fall outside the proven dense subset; excluded
_VERTICAL_EXCLUSION_TOL = 1e-12


def curvature(eps: int, u0: float, v0: float, w0: float) -> float:
    """r = w0^2 + eps (u0^2 + v0^2)."""
    return w0 * w0 + eps * (u0 * u0 + v0 * v0)


def finite_curvature(eps: int, u0: float, v0: float, w0: float) -> float:
    """curvature(eps, u0, v0, w0); raises InvalidInput where it overflows."""
    r = curvature(eps, u0, v0, w0)
    if not math.isfinite(r):
        raise InvalidInput(
            f"covector ({u0!r}, {v0!r}, {w0!r}) too large: its curvature r overflows")
    return r


def rotated_momentum(eps: int, u0: float, v0: float, w0: float, t: float) -> tuple[float, float]:
    """The horizontal momentum (u, v)(t): (u0, v0) turned by the angle eps w0 t."""
    c, s = math.cos(w0 * t), math.sin(w0 * t)
    return u0 * c - eps * v0 * s, v0 * c + eps * u0 * s


def _trig_fields(r, sqrt, cos, sin):
    """(root, cos(root/2), sin(root/2), root cos(root/2), f0) at r > 0, root = sqrt(r).

    The same on floats and on arrays: sqrt, cos and sin are math's, or
    numpy's correctly rounded sqrt and numeric.libm's trig over arrays.
    """
    root = sqrt(r)
    half = root / 2.0
    cos_half, sin_half = cos(half), sin(half)
    planar = root * cos_half
    return root, cos_half, sin_half, planar, planar - 2.0 * sin_half


def _gradient_coefficients(root, cos_half, sin_half):
    """(2 df0/dr, 2 df1/dr) from _trig_fields, on floats or arrays.

    The stratum gradients are these times (eps u0, eps v0, w0).
    """
    return -0.5 * sin_half, cos_half / (2.0 * root)


@dataclass(frozen=True)
class ContactGroup:
    """One group's sign and representation, plugged into the shared formulas.

    exp(cov, t) returns the endpoint and the momentum (u, v, w)(t); the
    endpoint's matrix() is the group matrix and its entries() the four real
    entries that matrix_entries gives of that matrix. basis holds the matrices
    (X0, X1, X2). entries_array(covs) gives the entries of exp(cov, 1.0) at
    each row of a (k, 3) array, together with a mask of the rows where they
    equal the scalar ones bit for bit; the other rows are left to the scalar
    exponential, so the mask need cover only the rows a scan reaches (SL(2)'s
    covers sc_pair's trigonometric branch). The chart is the four entries
    themselves, an embedding of the group in R^4, so a tangent matrix at the
    endpoint has its four entries as its chart components.

    conj_f, conj_grad and record_fields take the r > 0 strata fields from
    one body (_trig_fields), on floats and on arrays, and the gradient
    coefficients from another (_gradient_coefficients); the kernel vector is
    written only in record_fields, and kernel is record_fields on one row.
    """

    name: str
    eps: int
    exp: Callable
    basis: tuple[np.ndarray, np.ndarray, np.ndarray]
    matrix_entries: Callable[[np.ndarray], np.ndarray]
    entries_array: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def chart(self, cov) -> np.ndarray:
        """The four real entries of the time-one endpoint of cov."""
        return np.array(self.exp(cov, 1.0)[0].entries())

    def chart_array(self, points: np.ndarray) -> np.ndarray:
        """chart(points[i, j]) for every i, j, bit for bit.

        The entries of every point come from one entries_array call; a point
        it does not mark exact takes the scalar exponential's entries, in row
        order, so the first of them that raises is the first that the scalar
        loop raises at.
        """
        flat = points.reshape(-1, 3)
        entries, exact = self.entries_array(flat)
        for i in np.flatnonzero(~exact):
            entries[i] = self.chart(flat[i])
        return entries.reshape(*points.shape[:-1], 4)

    def conj_f(self, cov) -> tuple[float, float, float]:
        """(r, f0, f1); conjugate iff r > 0 and f0 f1 = 0.

        For r <= 0 the f-values are the strictly positive hyperbolic continuations
        (diagnostics only; never conjugate), and InvalidInput where they overflow.
        """
        u0, v0, w0 = finite_covector(cov, 3)
        if u0 * u0 + v0 * v0 == 0.0:
            raise DegenerateCovector("conjugacy functions undefined at H = 0")
        r = finite_curvature(self.eps, u0, v0, w0)
        if r > 0.0:
            _, _, sin_half, _, f0 = _trig_fields(r, math.sqrt, math.cos, math.sin)
            return r, f0, sin_half
        sigma = math.sqrt(-r)
        half = sigma / 2.0
        try:
            f0 = sigma * math.cosh(half) - 2.0 * math.sinh(half)
        except OverflowError:
            f0 = math.inf
        if not math.isfinite(f0):
            raise InvalidInput(f"f0 overflows at r = {r!r}, covector ({u0!r}, {v0!r}, {w0!r})")
        return (r, f0, math.sinh(half))

    def strata(self, cov) -> tuple[float, float]:
        """Stratum functions (f0, f1); the covector is conjugate iff f0 f1 = 0."""
        _, f0, f1 = self.conj_f(cov)
        return f0, f1

    def record_fields(self, covs: np.ndarray, strata: np.ndarray,
                      order_one: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(strata, kernel, conj_grad[stratum]) at each row of covs, bit for bit.

        Returns the f-values (n, 2), and on the order_one rows the unit kernels
        (n, 3) and the gradients (n, 3) of the strata indexed by strata; the
        other rows of those two are not defined, and kernels and gradients are
        computed on the order-one rows only. The rows with H != 0 and finite
        r > 0 run _trig_fields in one array pass, conj_f's own arithmetic.
        The rest, and the order-one rows whose f-values miss the kernel
        residual bound, go through conj_f in row order, so the first of them
        that raises is the scalar loop's first; every order-one row among
        them raises there, NotConjugate where conj_f does not.
        """
        u0, v0, w0 = covs[:, 0], covs[:, 1], covs[:, 2]
        with np.errstate(all="ignore"):
            h2 = u0 * u0 + v0 * v0
            r = w0 * w0 + self.eps * h2
        live = (h2 != 0.0) & (r > 0.0) & np.isfinite(r)
        root, cos_half, sin_half, planar, f0 = _trig_fields(r[live], np.sqrt, libm_cos, libm_sin)
        n = covs.shape[0]
        f_values, kernels, grads = np.empty((n, 2)), np.empty((n, 3)), np.empty((n, 3))
        f_values[live] = np.column_stack([f0, sin_half])
        fallback = ~live
        if order_one[live].any():
            fallback[live] = order_one[live] & (np.minimum(np.abs(f0), np.abs(sin_half))
                                                > KERNEL_RESIDUAL_TOL * np.maximum(1.0, root))
            one = order_one[live] & ~fallback[live]
            rows = np.flatnonzero(live)[one]
            u0, v0, w0, sin_half = u0[rows], v0[rows], w0[rows], sin_half[one]
            kern = np.column_stack([-v0 * planar[one], u0 * planar[one],
                                    -4.0 * self.eps * sin_half])
            with np.errstate(all="ignore"):
                kernels[rows] = kern / np.sqrt(row_dots(kern, kern))[:, np.newaxis]
            direction = np.column_stack([self.eps * u0, self.eps * v0, w0])
            coef = np.where(strata[rows] == 0,
                            *_gradient_coefficients(root[one], cos_half[one], sin_half))
            grads[rows] = coef[:, np.newaxis] * direction
        for i in np.flatnonzero(fallback):
            r_i, f0_i, f1_i = self.conj_f(covs[i])
            f_values[i] = f0_i, f1_i
            if not order_one[i]:
                continue
            if r_i <= 0.0:
                raise NotConjugate(f"covectors with r = {r_i:.6g} <= 0 are never conjugate")
            raise NotConjugate(
                f"covector is not conjugate: |f0| = {abs(f0_i):.3e}, |f1| = {abs(f1_i):.3e}")
        return f_values, kernels, grads

    def kernel(self, cov) -> np.ndarray:
        """Unit kernel vector of the time-one differential at a conjugate covector.

        record_fields on the one row cov, raising what it raises there.
        """
        _, kernels, _ = self.record_fields(np.array([finite_covector(cov, 3)]),
                                           np.zeros(1, dtype=int), np.ones(1, dtype=bool))
        return kernels[0]

    def conj_grad(self, cov) -> tuple[np.ndarray, np.ndarray]:
        """Analytic gradients (df0, df1) of the stratum functions (needs r > 0)."""
        u0, v0, w0 = finite_covector(cov, 3)
        if u0 * u0 + v0 * v0 == 0.0:
            raise DegenerateCovector("conjugacy gradients undefined at H = 0")
        r = finite_curvature(self.eps, u0, v0, w0)
        if r <= 0.0:
            raise DegenerateCovector(
                f"stratum gradients only defined on r > 0, got r = {r:.6g}")
        root, cos_half, sin_half, _, _ = _trig_fields(r, math.sqrt, math.cos, math.sin)
        coef0, coef1 = _gradient_coefficients(root, cos_half, sin_half)
        # half of dr/d(u0, v0, w0); the factor 2 is folded into the coefficients
        direction = np.array([self.eps * u0, self.eps * v0, w0])
        return coef0 * direction, coef1 * direction

    def jacobi(self, cov, init: JacobiCoords, t: float) -> JacobiCoords:
        """Frame Jacobi data (p_a, p_b, p_c, x_a, x_b, x_c)(t) in closed form.

        Valid for every sign of r; the r -> 0 limits are series-stabilized.
        """
        r = finite_curvature(self.eps, *finite_covector(cov, 3))
        if len(init.p) != 3:
            raise InvalidInput("group Jacobi data has three momentum components")
        p, x = propagate_linear_jacobi(r, init.p, init.x, t)
        return JacobiCoords(p=tuple(p), x=tuple(x))

    def frame_images(self, cov) -> np.ndarray:
        """Chart images, four entries each, of the canonical frame directions at the endpoint."""
        u0, v0, w0 = finite_covector(cov, 3)
        h2 = u0 * u0 + v0 * v0
        if h2 == 0.0:
            raise DegenerateCovector("canonical frame undefined at H = 0")
        point, momentum = self.exp((u0, v0, w0), 1.0)
        u1, v1 = momentum[0], momentum[1]
        g = point.matrix()
        g_x0, g_x1, g_x2 = (g @ x for x in self.basis)
        sq = math.sqrt(h2)
        f_a = (u1 * g_x2 - v1 * g_x1) / sq
        f_b = (u1 * g_x1 + v1 * g_x2) / sq
        f_c = -self.eps * (h2 * g_x0 - w0 * (u1 * g_x1 + v1 * g_x2)) / sq
        return np.column_stack([self.matrix_entries(f) for f in (f_a, f_b, f_c)])

    def chart_jacobian(self, cov) -> np.ndarray:
        """The (4, 3) differential of chart at cov, from the closed-form Jacobi fields.

        The frame Jacobi datum p(0) = e_j lands at column j of frame_images(cov)
        @ vertical_to_endpoint_matrix(r). Its covector perturbation is column j
        of the frame F = [(-v0, u0, 0), (u0, v0, w0), (0, 0, -eps)] / sqrt(h2)
        (the columns as listed), so the differential is that product times
        F^-1, written out here. Raises DegenerateCovector at H = 0 and
        InvalidInput where r overflows.
        """
        u0, v0, w0 = finite_covector(cov, 3)
        images = self.frame_images((u0, v0, w0))
        r = finite_curvature(self.eps, u0, v0, w0)
        h2 = u0 * u0 + v0 * v0
        eps = self.eps
        frame_inverse = np.array([[-v0, u0, 0.0],
                                  [u0, v0, 0.0],
                                  [eps * w0 * u0, eps * w0 * v0, -eps * h2]]) / math.sqrt(h2)
        return images @ vertical_to_endpoint_matrix(r) @ frame_inverse

    def adapter(self) -> StructureAdapter:
        """Plug the group into the generic conjugate-locus scanner.

        A ray's restriction evaluates the strata at each covector s d: g
        through strata, g_rows through one record_fields call with no
        order-one row, whose f-values equal strata's bit for bit.
        """

        def undetermined(cov, stratum: str) -> bool:
            # the tangential/fold theory for C0 is only established off w0 = 0;
            # r > 0 keeps |w0| > 0 on SL(2), so this only ever fires on SU(2)
            if stratum != "C0":
                return False
            u0, v0, w0 = finite_covector(cov, 3)
            return abs(w0) <= _VERTICAL_EXCLUSION_TOL * math.sqrt(
                u0 * u0 + v0 * v0 + w0 * w0)

        def ray_strata(d: np.ndarray) -> RayStrata | None:
            du, dv, dw = d.tolist()
            # only covectors with H != 0 and r > 0 are conjugate
            if du * du + dv * dv == 0.0 or curvature(self.eps, du, dv, dw) <= 0.0:
                return None

            def g(idx: int, s: float) -> float:
                # Python floats s d_i round as numpy's s * d does
                return self.strata([s * du, s * dv, s * dw])[idx]

            def g_rows(s: np.ndarray) -> np.ndarray:
                return self.record_fields(s[:, np.newaxis] * d, np.zeros(s.size, dtype=int),
                                          np.zeros(s.size, dtype=bool))[0]

            return RayStrata(g, g_rows)

        return StructureAdapter(
            name=self.name,
            fiber_dim=3,
            chart=self.chart,
            chart_jacobian=self.chart_jacobian,
            chart_array=self.chart_array,
            ray_strata=ray_strata,
            record_fields=self.record_fields,
            stratum_names=("C0", "C1"),
            undetermined=undetermined,
        )
