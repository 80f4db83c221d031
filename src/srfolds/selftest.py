"""Built-in verification battery exercising every module of the package.

Each check reduces to one scalar value compared against a fixed threshold and
passes iff value <= threshold. The checks carry their own Hamiltonian and
linear ODE oracles, so every run re-confirms the closed forms through an
independent integration route rather than trusting the formulas they test.
The battery is deterministic for a fixed seed and finishes well under a
minute.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .alphatrig import arc_alpha, pi_alpha, sin_cos_alpha
from .errors import InvalidInput, SrfoldsError
from .grushin import (GrushinBase, grushin_adapter, grushin_dexp, grushin_exp,
                      grushin_jacobi)
from .numeric import find_roots
from .oracles import OdeProblem, fd_jacobian, integrate
from .scfun import propagate_linear_jacobi, vertical_to_endpoint_matrix
from .singularity import SingularityClass, fold_witness, scan_ray
from .sl2 import sl2_adapter, sl2_exp, sl2_frame_images
from .state import JacobiCoords
from .su2 import su2_adapter, su2_exp, su2_frame_images


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; passes iff value <= threshold."""

    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def _odd_power(x: float, alpha: float) -> float:
    if x == 0.0:
        return 0.0
    return abs(x) ** (2.0 * (alpha - 1.0)) * x


def _ode(field, y0, t_end: float = 1.0):
    """Trajectory of y' = field(t, y) from y(0) = y0 over [0, t_end]."""
    return integrate(OdeProblem(dimension=len(y0), vector_field=field,
                                initial_state=np.array(y0, dtype=float), t_span=(0.0, t_end)))


def _check_alpha_trig_identity() -> float:
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0, 3.0):
        period = 2.0 * pi_alpha(alpha)
        for t in np.linspace(-period, period, 200):
            s, c = sin_cos_alpha(alpha, float(t))
            worst = max(worst, abs(abs(s) ** (2.0 * alpha) + c * c - 1.0))
    return worst


def _check_alpha_arc_roundtrip() -> float:
    worst = 0.0
    for alpha in (1.5, 2.0):
        period = 2.0 * pi_alpha(alpha)
        for t in (np.arange(40) + 0.37) * (period / 40.0):
            s, c = sin_cos_alpha(alpha, float(t))
            back = arc_alpha(alpha, s, c)
            worst = max(worst, abs(back - t))
    return worst


def _check_alpha_period_ode() -> float:
    """pi_alpha from the beta-function closed form vs the quarter-period of the ODE."""
    worst = 0.0
    for alpha in (1.5, 2.0):
        pi_a = pi_alpha(alpha)

        def field(t: float, y: np.ndarray) -> np.ndarray:
            return np.array([y[1], -alpha * _odd_power(y[0], alpha)])

        traj = _ode(field, [0.0, 1.0], 0.8 * pi_a)
        hits = find_roots(lambda t: float(traj(t)[1]), 0.3 * pi_a, 0.7 * pi_a,
                          scan_points=100)
        if len(hits) != 1:
            return float("inf")
        worst = max(worst, abs(2.0 * hits[0].value - pi_a))
    return worst


def _check_grushin_exp_ode(rng: np.random.Generator) -> float:
    worst = 0.0
    for alpha in (1.0, 2.0):
        base = GrushinBase(alpha=alpha, x0=0.7, y0=-0.2)

        def field(t: float, y: np.ndarray) -> np.ndarray:
            x, _, u, v = y
            return np.array([u, v * abs(x) ** (2.0 * alpha),
                             -alpha * v * v * _odd_power(x, alpha), 0.0])

        for _ in range(8):
            u0, v0 = rng.uniform(-2.0, 2.0, size=2)
            v0 += math.copysign(0.3, v0)
            traj = _ode(field, [base.x0, base.y0, u0, v0])
            for t in (0.25, 0.5, 0.75, 1.0):
                state = grushin_exp(base, (u0, v0), t)
                ref = traj(t)
                worst = max(worst,
                            abs(state.position[0] - ref[0]),
                            abs(state.position[1] - ref[1]),
                            abs(state.momentum[0] - ref[2]))
    return worst


def _su2_exp_field(w0: float):
    """g' = g (u X1 + v X2) on SU(2) as (alpha, beta), with (u, v) rotating with w0."""

    def field(t: float, y: np.ndarray) -> np.ndarray:
        a = complex(y[0], y[1])
        b = complex(y[2], y[3])
        u, v = y[4], y[5]
        da = 0.5 * b * complex(-u, v)
        db = 0.5 * a * complex(u, v)
        return np.array([da.real, da.imag, db.real, db.imag,
                         -w0 * v, w0 * u])

    return field


def _sl2_exp_field(w0: float):
    """g' = g (u X1 + v X2) on SL(2) as (m11, m12, m21, m22), with (u, v) rotating against w0."""

    def field(t: float, y: np.ndarray) -> np.ndarray:
        m11, m12, m21, m22, u, v = y
        return np.array([0.5 * (m11 * u + m12 * v), 0.5 * (m11 * v - m12 * u),
                         0.5 * (m21 * u + m22 * v), 0.5 * (m21 * v - m22 * u),
                         w0 * v, -w0 * u])

    return field


def _check_group_exp_ode(rng: np.random.Generator, exp, exp_field, identity) -> float:
    """exp's endpoint entries and momentum vs the matrix ODE exp_field(w0) from identity."""
    worst = 0.0
    for _ in range(8):
        u0, v0, w0 = rng.uniform(-3.0, 3.0, size=3)
        traj = _ode(exp_field(w0), [*identity, u0, v0])
        for t in (0.5, 1.0):
            point, momentum = exp((u0, v0, w0), t)
            got = (*point.entries(), momentum[0], momentum[1])
            worst = max(worst, *(abs(g - ref) for g, ref in zip(got, traj(t))))
    return worst


def _check_grushin_dexp_fd(rng: np.random.Generator) -> float:
    base = GrushinBase(alpha=1.5, x0=0.6, y0=0.0)
    worst = 0.0
    for _ in range(8):
        u0, v0 = rng.uniform(-2.0, 2.0, size=2)
        v0 += math.copysign(0.3, v0)

        def endpoint(cov: np.ndarray) -> np.ndarray:
            state = grushin_exp(base, (cov[0], cov[1]), 1.0)
            return np.array(state.position)

        analytic = grushin_dexp(base, (u0, v0))
        numeric = fd_jacobian(endpoint, np.array([u0, v0]))
        scale = max(1.0, float(np.max(np.abs(analytic))))
        worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    return worst


def _check_grushin_jacobi_closed(rng: np.random.Generator) -> float:
    """Oscillator ansatz on random covectors, straight-line form on the
    degenerate ones of the base (v0 = 0, H = 0, v0^2 underflowing)."""
    base = GrushinBase(alpha=2.0, x0=0.4, y0=0.0)
    alpha = base.alpha
    cases = []
    for _ in range(5):
        u0, v0 = rng.uniform(-1.5, 1.5, size=2)
        v0 += math.copysign(0.4, v0)
        init = JacobiCoords(p=tuple(rng.uniform(-1.0, 1.0, size=2)),
                            x=tuple(rng.uniform(-1.0, 1.0, size=2)))
        cases.append(((u0, v0), init))
    fixed = JacobiCoords(p=(0.4, 0.6), x=(0.2, -0.1))
    cases += [(cov, fixed) for cov in ((1.2, 0.0), (-0.7, 0.0), (0.0, 0.0), (0.9, 1e-170))]
    worst = 0.0
    for (u0, v0), init in cases:

        def field(t: float, y: np.ndarray) -> np.ndarray:
            pa, pb, xa, _ = y
            x = grushin_exp(base, (u0, v0), t).position[0]
            even = abs(x) ** (2.0 * (alpha - 1.0))
            odd = _odd_power(x, alpha)
            pa_dot = (-2.0 * alpha * v0 * odd * pb
                      - alpha * (2.0 * alpha - 1.0) * v0 * v0 * even * xa)
            xb_dot = abs(x) ** (2.0 * alpha) * pb + 2.0 * alpha * v0 * odd * xa
            return np.array([pa_dot, 0.0, pa, xb_dot])

        ref = _ode(field, [*init.p, *init.x]).end
        closed = grushin_jacobi(base, (u0, v0), init, 1.0)
        got = np.array([*closed.p, *closed.x])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst


def _check_group_jacobi_linear_ode(rng: np.random.Generator) -> float:
    """Frame Jacobi propagator vs direct integration of its linear system."""
    worst = 0.0
    for r in (-2.3, 1e-9, 4.7):

        def field(t: float, y: np.ndarray) -> np.ndarray:
            pa, pb, pc, xa, xb, xc = y
            return np.array([-pc - r * xa, 0.0, 0.0, pa, pb, xa])

        for _ in range(5):
            y0 = rng.uniform(-1.0, 1.0, size=6)
            ref = _ode(field, y0).end
            p, x = propagate_linear_jacobi(r, y0[:3], y0[3:], 1.0)
            worst = max(worst, float(np.max(np.abs(np.concatenate([p, x]) - ref))))
    return worst


def _check_frame_identity(adapter, frame_images, eps: int, covs) -> float:
    """Residual of chart-Jacobian * vertical frame = frame images * propagator.

    The group enters through eps, the sign of h2 in r = w0^2 + eps h2, and
    the frame's vertical column (0, 0, -eps).
    """
    residuals = []
    for cov in covs:
        u0, v0, w0 = cov
        h2 = u0 * u0 + v0 * v0
        frame = np.column_stack([(-v0, u0, 0.0), (u0, v0, w0),
                                 (0.0, 0.0, -eps)]) / math.sqrt(h2)
        lhs = fd_jacobian(adapter.chart, np.array(cov)) @ frame
        rhs = frame_images(cov) @ vertical_to_endpoint_matrix(w0 * w0 + eps * h2)
        residuals.append(float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs)))))
    return max(residuals)


def _check_root_scan_pole_rejection() -> float:
    """Brackets that straddle tan poles must be rejected, true roots kept."""
    hits = find_roots(math.tan, 0.5, 6.5)
    expected = (math.pi, 2.0 * math.pi)
    if len(hits) != len(expected):
        return float("inf")
    return max(max(abs(h.value - e) for h, e in zip(hits, expected)),
               max(abs(math.tan(h.value)) for h in hits))


def _check_su2_scan_radii(records: list) -> float:
    expected = [2.0 * math.pi, 8.986818915818128, 4.0 * math.pi,
                15.450503673875414, 6.0 * math.pi]
    if len(records) != len(expected):
        return float("inf")
    return max(abs(rec.s - e) for rec, e in zip(records, expected))


def _check_classification_sample(su2_records: list, sl2_records: list) -> float:
    grushin_records = scan_ray(
        grushin_adapter(GrushinBase(alpha=1.0, x0=0.5, y0=0.0)), (1.0, 2.0), 15.0)
    mismatches = 0.0
    for records in (su2_records, sl2_records, grushin_records):
        if not records:
            mismatches += 1.0
        for rec in records:
            want = (SingularityClass.FOLD if rec.stratum == "C0"
                    else SingularityClass.TANGENTIAL)
            if rec.singularity_class is not want:
                mismatches += 1.0
    return mismatches


def _check_fold_witness(su2_records: list) -> float:
    folds = [rec for rec in su2_records
             if rec.singularity_class is SingularityClass.FOLD]
    if not folds:
        return float("inf")
    delta = 1e-3
    witness = fold_witness(su2_adapter(), folds[0], delta)
    return witness.image_distance + max(0.0, 0.25 * delta - witness.separation)


def _check_kernel_annihilation(su2_records: list, sl2_records: list) -> float:
    worst = 0.0
    for adapter, records in ((su2_adapter(), su2_records),
                             (sl2_adapter(), sl2_records)):
        if not records:
            return float("inf")
        for rec in records:
            jac = fd_jacobian(adapter.chart, rec.covector)
            scale = max(1.0, float(np.linalg.norm(jac, 2)))
            for kern in rec.kernel_basis:
                worst = max(worst, float(np.linalg.norm(jac @ kern)) / scale)
    return worst


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Run the full battery, each check against its fixed threshold.

    Raises InvalidInput unless seed is a non-negative integer.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    su2_records = scan_ray(su2_adapter(), (1.0, 0.0, 0.5), 20.0)
    sl2_records = scan_ray(sl2_adapter(), (0.3, 0.0, 1.0), 10.0)
    battery = [
        ("alpha-trig-identity", 1e-10, _check_alpha_trig_identity),
        ("alpha-arc-roundtrip", 1e-9, _check_alpha_arc_roundtrip),
        ("alpha-period-ode", 1e-7, _check_alpha_period_ode),
        ("grushin-exp-ode", 1e-8, lambda: _check_grushin_exp_ode(rng)),
        ("su2-exp-ode", 1e-8,
         lambda: _check_group_exp_ode(rng, su2_exp, _su2_exp_field, (1.0, 0.0, 0.0, 0.0))),
        ("sl2-exp-ode", 1e-8,
         lambda: _check_group_exp_ode(rng, sl2_exp, _sl2_exp_field, (1.0, 0.0, 0.0, 1.0))),
        ("grushin-dexp-fd", 1e-5, lambda: _check_grushin_dexp_fd(rng)),
        ("grushin-jacobi-closed", 1e-8, lambda: _check_grushin_jacobi_closed(rng)),
        ("group-jacobi-linear-ode", 1e-8,
         lambda: _check_group_jacobi_linear_ode(rng)),
        ("su2-frame-identity", 1e-8,
         lambda: _check_frame_identity(su2_adapter(), su2_frame_images, 1, (
             (1.2, 0.7, 0.9), (0.4, -1.1, 2.2), (2.0, 0.3, -1.5)))),
        ("sl2-frame-identity", 1e-8,
         lambda: _check_frame_identity(sl2_adapter(), sl2_frame_images, -1, (
             (0.3, 0.2, 1.4), (1.0, 0.5, 0.6), (0.2, -0.4, 2.5)))),
        ("root-scan-pole-rejection", 1e-8, _check_root_scan_pole_rejection),
        ("su2-scan-radii", 1e-6, lambda: _check_su2_scan_radii(su2_records)),
        ("classification-sample", 0.0,
         lambda: _check_classification_sample(su2_records, sl2_records)),
        ("fold-witness", 1e-9, lambda: _check_fold_witness(su2_records)),
        ("kernel-annihilation", 1e-6,
         lambda: _check_kernel_annihilation(su2_records, sl2_records)),
    ]
    results = []
    for name, threshold, check in battery:
        try:
            value = float(check())
        except SrfoldsError:
            value = float("inf")
        results.append(CheckResult(name=name, value=value, threshold=threshold))
    return results


def format_report(results: list[CheckResult]) -> str:
    """Fixed-width summary table, one line per check plus a totals line."""
    lines = [f"{'check':<26} {'value':>12} {'threshold':>12} status"]
    for result in results:
        status = "pass" if result.passed else "FAIL"
        lines.append(f"{result.name:<26} {result.value:>12.6e} "
                     f"{result.threshold:>12.6e} {status}")
    n_pass = sum(result.passed for result in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
