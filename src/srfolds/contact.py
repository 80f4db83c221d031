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

The chart is shared too: three of the four real entries of the endpoint
matrix, picked by the group's selector frozen at a center. Each group's
representation (basis, point class, exponential, entries, selector) lives in
su2.py and sl2.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import DegenerateCovector, InvalidInput, NotConjugate
from .numeric import libm, rank_nullspace, row_dots
from .scfun import propagate_linear_jacobi, vertical_to_endpoint_matrix
from .singularity import StructureAdapter
from .state import JacobiCoords

# C0 covectors with w0 = 0 fall outside the proven dense subset; excluded
_VERTICAL_EXCLUSION_TOL = 1e-12
# relative stratum residual under which kernel() accepts a covector as conjugate
_KERNEL_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ContactCovector:
    """Initial covector u0 X1 + v0 X2 + w0 X0 at the identity."""

    u0: float
    v0: float
    w0: float

    def __post_init__(self) -> None:
        for name in ("u0", "v0", "w0"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


def cov_triple(cov) -> tuple[float, float, float]:
    """(u0, v0, w0) of a ContactCovector or of any finite 3-sequence."""
    if isinstance(cov, ContactCovector):
        return cov.u0, cov.v0, cov.w0
    # tolist() hands over Python floats, far cheaper to convert
    # than the numpy scalars its iteration yields
    values = cov.tolist() if isinstance(cov, np.ndarray) else cov
    u0, v0, w0 = map(float, values)
    if not (math.isfinite(u0) and math.isfinite(v0) and math.isfinite(w0)):
        raise InvalidInput(f"covector components must be finite, got {cov!r}")
    return u0, v0, w0


def curvature(eps: int, u0: float, v0: float, w0: float) -> float:
    """r = w0^2 + eps (u0^2 + v0^2)."""
    return w0 * w0 + eps * (u0 * u0 + v0 * v0)


@dataclass(frozen=True)
class ContactGroup:
    """One group's sign and representation, plugged into the shared formulas.

    exp(cov, t) returns the endpoint and the momentum (u, v, w)(t); the
    endpoint's matrix() is the group matrix and its entries() the four real
    entries that matrix_entries gives of that matrix. basis holds the matrices
    (X0, X1, X2). entries_array(covs) gives the entries of exp(cov, 1.0) at
    each row of a (k, 3) array, together with a mask of the rows where they
    equal the scalar ones bit for bit; the other rows are left to the scalar
    exponential. selects_primary(entries), applied to the endpoint entries at
    a center, chooses the chart there: the entries indexed by charts[0] if it
    holds, by charts[1] otherwise. Charts are linear in the entries, so a
    tangent matrix at the endpoint has the same three entries as its chart
    components.
    """

    name: str
    eps: int
    exp: Callable
    basis: tuple[np.ndarray, np.ndarray, np.ndarray]
    matrix_entries: Callable[[np.ndarray], np.ndarray]
    entries_array: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    selects_primary: Callable[[tuple[float, ...]], bool]
    charts: tuple[tuple[int, int, int], tuple[int, int, int]]

    def _primary_at(self, center) -> bool:
        return self.selects_primary(self.exp(center, 1.0)[0].entries())

    def chart_at(self, center) -> Callable[..., np.ndarray]:
        """The chart selected at the endpoint of center, as a function of the covector."""
        pick = itemgetter(*self.charts[0 if self._primary_at(center) else 1])
        return lambda cov: np.array(pick(self.exp(cov, 1.0)[0].entries()))

    def chart(self, cov, center=None) -> np.ndarray:
        """Chart coordinates of the time-one endpoint, selector frozen at center."""
        return self.chart_at(cov if center is None else center)(cov)

    def chart_array(self, centers: np.ndarray, points: np.ndarray) -> np.ndarray:
        """chart_at(centers[i])(points[i, j]) for every i, j, bit for bit.

        Each center selects its chart with one scalar exponential; the entries
        of every point come from one entries_array call, and the rows it does
        not mark exact take the scalar exponential's entries. Those rows are
        evaluated center by center, right after the center's selection, so the
        first of them that raises is the first that the scalar loop raises at.
        """
        n, m, _ = points.shape
        entries, exact = self.entries_array(points.reshape(n * m, 3))
        entries, exact = entries.reshape(n, m, 4), exact.reshape(n, m)
        primary = []
        for i, complete in enumerate(exact.all(axis=1).tolist()):
            primary.append(self._primary_at(centers[i]))
            if not complete:
                for j in np.flatnonzero(~exact[i]):
                    entries[i, j] = self.exp(points[i, j], 1.0)[0].entries()
        return np.where(np.array(primary)[:, np.newaxis, np.newaxis],
                        entries[..., list(self.charts[0])], entries[..., list(self.charts[1])])

    def conj_f(self, cov) -> tuple[float, float, float]:
        """(r, f0, f1); conjugate iff r > 0 and f0 f1 = 0.

        For r <= 0 the returned f-values are the strictly positive hyperbolic
        continuations (diagnostics only; such covectors are never conjugate).
        """
        u0, v0, w0 = cov_triple(cov)
        if u0 * u0 + v0 * v0 == 0.0:
            raise DegenerateCovector("conjugacy functions undefined at H = 0")
        r = curvature(self.eps, u0, v0, w0)
        if r > 0.0:
            root = math.sqrt(r)
            half = root / 2.0
            return (r, root * math.cos(half) - 2.0 * math.sin(half), math.sin(half))
        sigma = math.sqrt(-r)
        half = sigma / 2.0
        return (r, sigma * math.cosh(half) - 2.0 * math.sinh(half), math.sinh(half))

    def strata(self, cov) -> tuple[float, float]:
        """Stratum functions (f0, f1); the covector is conjugate iff f0 f1 = 0."""
        _, f0, f1 = self.conj_f(cov)
        return f0, f1

    def _trig_rows(self, covs: np.ndarray):
        """The rows of covs with H != 0 and finite r > 0, and there sqrt(r), sin and cos of sqrt(r)/2."""
        u0, v0, w0 = covs[:, 0], covs[:, 1], covs[:, 2]
        with np.errstate(all="ignore"):
            h2 = u0 * u0 + v0 * v0
            r = w0 * w0 + self.eps * h2
        live = (h2 != 0.0) & (r > 0.0) & np.isfinite(r)
        root = np.sqrt(r[live])
        half = root / 2.0
        return live, root, libm(math.sin, half), libm(math.cos, half)

    def strata_array(self, covs: np.ndarray) -> np.ndarray:
        """strata at each row (u0, v0, w0) of covs, as a (2, n) array, bit for bit.

        Rows with r > 0 take the trigonometric branch in one array pass. The
        rest (H = 0, r <= 0, not finite) go to strata itself, so they raise or
        return exactly what the scalar loop does; on a ray that passes the
        adapter's ray_gate, r <= 0 only appears by rounding.
        """
        live, root, sin_half, cos_half = self._trig_rows(covs)
        out = np.empty((2, covs.shape[0]))
        out[0, live] = root * cos_half - 2.0 * sin_half
        out[1, live] = sin_half
        for i in np.flatnonzero(~live):
            out[:, i] = self.strata(covs[i])
        return out

    def record_fields(self, covs: np.ndarray, strata: np.ndarray,
                      order_one: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(strata, kernel, conj_grad[stratum]) at each row of covs, bit for bit.

        Returns the f-values (n, 2), and on the order_one rows the unit kernels
        (n, 3) and the gradients (n, 3) of the strata indexed by strata; the
        other rows of those two are not defined. The rows with r > 0 share one
        trigonometric pass. The rest, and the order-one rows that kernel would
        reject as not conjugate, go through strata, kernel and conj_grad in
        row order, so the first of them that raises is the scalar loop's first.
        """
        live, root, sin_half, cos_half = self._trig_rows(covs)
        n = covs.shape[0]
        f_values, kernels, grads = np.empty((n, 2)), np.empty((n, 3)), np.empty((n, 3))
        u0, v0, w0 = covs[live, 0], covs[live, 1], covs[live, 2]
        f0 = root * cos_half - 2.0 * sin_half
        f_values[live] = np.column_stack([f0, sin_half])
        planar = root * cos_half
        kern = np.column_stack([-v0 * planar, u0 * planar, -4.0 * self.eps * sin_half])
        with np.errstate(all="ignore"):
            kernels[live] = kern / np.sqrt(row_dots(kern, kern))[:, np.newaxis]
        # the factor 2 of dr/d(u0, v0, w0) is folded into the coefficients
        direction = np.column_stack([self.eps * u0, self.eps * v0, w0])
        coef = np.where(strata[live] == 0, -0.5 * sin_half, cos_half / (2.0 * root))
        grads[live] = coef[:, np.newaxis] * direction
        fallback = ~live
        fallback[live] = order_one[live] & (np.minimum(np.abs(f0), np.abs(sin_half))
                                            > _KERNEL_RESIDUAL_TOL * np.maximum(1.0, root))
        for i in np.flatnonzero(fallback):
            f_values[i] = self.strata(covs[i])
            if order_one[i]:
                kernels[i] = self.kernel(covs[i])
                grads[i] = self.conj_grad(covs[i])[strata[i]]
        return f_values, kernels, grads

    def kernel(self, cov) -> np.ndarray:
        """Unit kernel vector of the time-one differential at a conjugate covector."""
        u0, v0, w0 = cov_triple(cov)
        r, f0, f1 = self.conj_f((u0, v0, w0))
        if r <= 0.0:
            raise NotConjugate(f"covectors with r = {r:.6g} <= 0 are never conjugate")
        root = math.sqrt(r)
        scale = max(1.0, root)
        if min(abs(f0), abs(f1)) > _KERNEL_RESIDUAL_TOL * scale:
            raise NotConjugate(
                f"covector is not conjugate: |f0| = {abs(f0):.3e}, |f1| = {abs(f1):.3e}")
        half = root / 2.0
        planar = root * math.cos(half)
        kern = np.array([-v0 * planar, u0 * planar, -4.0 * self.eps * math.sin(half)])
        return kern / np.linalg.norm(kern)

    def conj_grad(self, cov) -> tuple[np.ndarray, np.ndarray]:
        """Analytic gradients (df0, df1) of the stratum functions (needs r > 0)."""
        u0, v0, w0 = cov_triple(cov)
        if u0 * u0 + v0 * v0 == 0.0:
            raise DegenerateCovector("conjugacy gradients undefined at H = 0")
        r = curvature(self.eps, u0, v0, w0)
        if r <= 0.0:
            raise DegenerateCovector(
                f"stratum gradients only defined on r > 0, got r = {r:.6g}")
        root = math.sqrt(r)
        half = root / 2.0
        # half of dr/d(u0, v0, w0); the factor 2 is folded into the coefficients
        direction = np.array([self.eps * u0, self.eps * v0, w0])
        df0 = -0.5 * math.sin(half) * direction
        df1 = (math.cos(half) / (2.0 * root)) * direction
        return df0, df1

    def jacobi(self, cov, init: JacobiCoords, t: float) -> JacobiCoords:
        """Frame Jacobi data (p_a, p_b, p_c, x_a, x_b, x_c)(t) in closed form.

        Valid for every sign of r; the r -> 0 limits are series-stabilized.
        """
        r = curvature(self.eps, *cov_triple(cov))
        if len(init.p) != 3:
            raise InvalidInput("group Jacobi data has three momentum components")
        p, x = propagate_linear_jacobi(r, init.p, init.x, float(t))
        return JacobiCoords(p=tuple(p), x=tuple(x))

    def frame_images(self, cov) -> np.ndarray:
        """Chart images of the canonical frame directions at the time-one endpoint."""
        u0, v0, w0 = cov_triple(cov)
        h2 = u0 * u0 + v0 * v0
        if h2 == 0.0:
            raise DegenerateCovector("canonical frame undefined at H = 0")
        point, momentum = self.exp((u0, v0, w0), 1.0)
        u1, v1 = momentum[0], momentum[1]
        g = point.matrix()
        index = list(self.charts[0 if self.selects_primary(point.entries()) else 1])
        g_x0, g_x1, g_x2 = (g @ x for x in self.basis)
        sq = math.sqrt(h2)
        f_a = (u1 * g_x2 - v1 * g_x1) / sq
        f_b = (u1 * g_x1 + v1 * g_x2) / sq
        f_c = -self.eps * (h2 * g_x0 - w0 * (u1 * g_x1 + v1 * g_x2)) / sq
        return np.column_stack([self.matrix_entries(f)[index] for f in (f_a, f_b, f_c)])

    def adapter(self) -> StructureAdapter:
        """Plug the group into the generic conjugate-locus scanner."""

        def ray_gate(direction: np.ndarray) -> bool:
            du, dv, dw = (float(c) for c in direction)
            if du * du + dv * dv == 0.0:
                return False
            return curvature(self.eps, du, dv, dw) > 0.0

        def undetermined(cov, stratum: str) -> bool:
            # the tangential/fold theory for C0 is only established off w0 = 0;
            # r > 0 keeps |w0| > 0 on SL(2), so this only ever fires on SU(2)
            if stratum != "C0":
                return False
            u0, v0, w0 = cov_triple(cov)
            return abs(w0) <= _VERTICAL_EXCLUSION_TOL * math.sqrt(
                u0 * u0 + v0 * v0 + w0 * w0)

        def kernel_jacobi_image(cov) -> np.ndarray:
            r = curvature(self.eps, *cov_triple(cov))
            if r <= 0.0:
                raise NotConjugate(f"covectors with r = {r:.6g} <= 0 are never conjugate")
            result = rank_nullspace(vertical_to_endpoint_matrix(r))
            if not result.nullspace_basis:
                raise NotConjugate("conjugate matrix has trivial nullspace")
            init = JacobiCoords(p=tuple(result.nullspace_basis[0]), x=(0.0, 0.0, 0.0))
            p1 = np.asarray(self.jacobi(cov, init, 1.0).p, dtype=float)
            return self.frame_images(cov) @ p1

        return StructureAdapter(
            name=self.name,
            fiber_dim=3,
            chart_at=self.chart_at,
            chart_array=self.chart_array,
            conj_f=self.strata,
            conj_f_array=self.strata_array,
            record_fields=self.record_fields,
            stratum_names=("C0", "C1"),
            ray_gate=ray_gate,
            undetermined=undetermined,
            kernel_jacobi_image=kernel_jacobi_image,
        )
