"""Acceptance battery: one test per numbered verification criterion.

Each test_criterion_NN_* function certifies one end-to-end guarantee of the
library against an oracle built inside this file: direct ODE integration of
the Hamiltonian flow and of the Jacobi linear systems, finite-difference
Jacobians, and bisection root-finding on the locus-defining scalar equations.
The shared conftest hook prints one PASS/FAIL line per criterion after the
run. Tolerances are part of the contract and must not be loosened.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from srfolds import (GrushinBase, JacobiCoords, OdeProblem, SingularityClass,
                     fd_jacobian, find_roots, fold_witness, grushin_adapter,
                     grushin_conj_f, grushin_dexp, grushin_exp, grushin_jacobi,
                     integrate, pi_alpha, rank_nullspace, scan_ray,
                     second_order_transversality, sin_cos_alpha, sl2_adapter,
                     sl2_conj_f, sl2_exp, sl2_jacobi, su2_adapter, su2_conj_f,
                     su2_exp, su2_jacobi)
from srfolds.sl2 import X1 as SL2_X1
from srfolds.sl2 import X2 as SL2_X2
from srfolds.su2 import X1 as SU2_X1
from srfolds.su2 import X2 as SU2_X2

ALPHAS = (1.0, 1.5, 2.0, 3.0)
T_GRID = np.linspace(0.1, 1.0, 10)

# rays with a vertical component cross both strata within the scan range;
# the grushin rays all have u0 != 0 so their conjugate points are transversal
SU2_RAYS = ((1.0, 0.0, 0.5), (0.0, 1.0, -0.8), (1.0, 1.0, 1.0))
SL2_RAYS = ((1.0, 0.0, 2.0), (0.0, 1.0, -1.5), (1.0, -1.0, 2.0),
            (1.3, 0.4, 1.9), (0.5, 0.0, 1.2))
GRUSHIN_CASES = ((1.0, (1.0, 0.0), (0.4, 1.0)),
                 (1.0, (1.0, 0.0), (-0.3, 1.0)),
                 (1.0, (1.0, 0.0), (0.25, -1.0)),
                 (1.5, (0.5, 0.0), (0.4, 1.0)),
                 (2.0, (-0.8, 0.0), (0.5, 1.0)))


# ---------------------------------------------------------------------------
# oracles


def _odd_power(x: float, alpha: float) -> float:
    if x == 0.0:
        return 0.0
    return abs(x) ** (2.0 * (alpha - 1.0)) * x


def _ode_half_period(alpha: float) -> float:
    """First positive zero of the generalized sine, by direct integration."""
    def field(t, y):
        f, df = y
        force = 0.0 if f == 0.0 else abs(f) ** (2.0 * (alpha - 1.0)) * f
        return np.array([df, -alpha * force])

    guess = pi_alpha(alpha)
    problem = OdeProblem(dimension=2, vector_field=field,
                         initial_state=np.array([0.0, 1.0]),
                         t_span=(0.0, 1.4 * guess))
    trajectory = integrate(problem)
    hits = find_roots(lambda t: float(trajectory(t)[0]),
                      0.5 * guess, 1.4 * guess, scan_points=200)
    assert len(hits) == 1
    return hits[0].value


def _grushin_flow_oracle(base: GrushinBase, cov, t_end: float):
    """Hamiltonian flow of (x, y, u) with v constant, tightly integrated."""
    alpha = base.alpha
    v0 = float(cov[1])

    def field(t, y):
        x, _, u = y
        return np.array([u, v0 * abs(x) ** (2.0 * alpha),
                         -alpha * v0 * v0 * _odd_power(x, alpha)])

    problem = OdeProblem(dimension=3, vector_field=field,
                         initial_state=np.array([base.x0, base.y0, cov[0]]),
                         t_span=(0.0, t_end))
    return integrate(problem, rel_tol=1e-12, abs_tol=1e-14)


def _su2_matrix_oracle(cov, t_end: float):
    """g' = g (u(t) X1 + v(t) X2) from the identity, rotating momentum."""
    u0, v0, w0 = cov

    def field(t, y):
        g = (y[:4] + 1j * y[4:]).reshape(2, 2)
        u = u0 * math.cos(w0 * t) - v0 * math.sin(w0 * t)
        v = v0 * math.cos(w0 * t) + u0 * math.sin(w0 * t)
        dg = g @ (u * SU2_X1 + v * SU2_X2)
        return np.concatenate([dg.real.ravel(), dg.imag.ravel()])

    start = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    problem = OdeProblem(dimension=8, vector_field=field,
                         initial_state=start, t_span=(0.0, t_end))
    trajectory = integrate(problem, rel_tol=1e-12, abs_tol=1e-14)

    def at(t: float) -> np.ndarray:
        y = trajectory(t)
        return (y[:4] + 1j * y[4:]).reshape(2, 2)

    return at


def _sl2_matrix_oracle(cov, t_end: float):
    """g' = g (u(t) X1 + v(t) X2) from the identity, counter-rotating momentum."""
    u0, v0, w0 = cov

    def field(t, y):
        g = y.reshape(2, 2)
        u = u0 * math.cos(w0 * t) + v0 * math.sin(w0 * t)
        v = v0 * math.cos(w0 * t) - u0 * math.sin(w0 * t)
        return (g @ (u * SL2_X1 + v * SL2_X2)).ravel()

    problem = OdeProblem(dimension=4, vector_field=field,
                         initial_state=np.eye(2).ravel(), t_span=(0.0, t_end))
    trajectory = integrate(problem, rel_tol=1e-12, abs_tol=1e-14)
    return lambda t: trajectory(t).reshape(2, 2)


def _grushin_jacobi_oracle(base: GrushinBase, cov, start: np.ndarray) -> np.ndarray:
    """Linearized flow (p_a, p_b, x_a, x_b) along the closed-form geodesic."""
    alpha = base.alpha
    u0, v0 = cov

    def field(t, y):
        pa, pb, xa, _ = y
        x = grushin_exp(base, (u0, v0), t).position[0]
        pa_dot = (-2.0 * alpha * v0 * _odd_power(x, alpha) * pb
                  - alpha * (2.0 * alpha - 1.0) * v0 * v0
                  * abs(x) ** (2.0 * (alpha - 1.0)) * xa)
        xb_dot = (abs(x) ** (2.0 * alpha) * pb
                  + 2.0 * alpha * v0 * _odd_power(x, alpha) * xa)
        return np.array([pa_dot, 0.0, pa, xb_dot])

    problem = OdeProblem(dimension=4, vector_field=field, initial_state=start,
                         t_span=(0.0, 1.0))
    return integrate(problem, rel_tol=1e-12, abs_tol=1e-14).end


def _group_jacobi_oracle(r: float, start: np.ndarray) -> np.ndarray:
    """Constant-curvature Jacobi system (p, x) in the moving frame."""
    def field(t, y):
        pa, pb, pc, xa, xb, xc = y
        return np.array([-pc - r * xa, 0.0, 0.0, pa, pb, xa])

    problem = OdeProblem(dimension=6, vector_field=field, initial_state=start,
                         t_span=(0.0, 1.0))
    return integrate(problem, rel_tol=1e-12, abs_tol=1e-14).end


def _bisect_roots(g, lo: float, hi: float, n: int = 4000) -> list[float]:
    """All simple roots of g on [lo, hi] via sign scan plus bisection."""
    grid = np.linspace(lo, hi, n)
    values = [g(s) for s in grid]
    roots = []
    for a, b, ga, gb in zip(grid, grid[1:], values, values[1:]):
        if ga == 0.0:
            roots.append(float(a))
            continue
        if ga * gb >= 0.0:
            continue
        left, right, g_left = float(a), float(b), ga
        for _ in range(200):
            mid = 0.5 * (left + right)
            if mid <= left or mid >= right:
                break
            g_mid = g(mid)
            if g_left * g_mid <= 0.0:
                right = mid
            else:
                left, g_left = mid, g_mid
        roots.append(0.5 * (left + right))
    return roots


def _sigma_ratio(chart, cov: np.ndarray) -> float:
    svals = np.linalg.svd(fd_jacobian(chart, cov), compute_uv=False)
    return float(svals[-1] / svals[0])


# ---------------------------------------------------------------------------
# shared scan collections


@pytest.fixture(scope="module")
def su2():
    return su2_adapter()


@pytest.fixture(scope="module")
def sl2():
    return sl2_adapter()


@pytest.fixture(scope="module")
def su2_scans(su2):
    return [rec for ray in SU2_RAYS for rec in scan_ray(su2, ray, 20.0)]


@pytest.fixture(scope="module")
def sl2_scans(sl2):
    return [rec for ray in SL2_RAYS for rec in scan_ray(sl2, ray, 16.0)]


@pytest.fixture(scope="module")
def grushin_scans():
    pairs = []
    for alpha, base_xy, ray in GRUSHIN_CASES:
        adapter = grushin_adapter(GrushinBase(alpha, *base_xy))
        pairs.extend((adapter, rec) for rec in scan_ray(adapter, ray, 12.0))
    return pairs


@pytest.fixture(scope="module")
def all_scans(su2, sl2, su2_scans, sl2_scans, grushin_scans):
    pairs = [(su2, rec) for rec in su2_scans]
    pairs += [(sl2, rec) for rec in sl2_scans]
    pairs += grushin_scans
    return pairs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_alpha_trig_identity():
    start = time.monotonic()
    for alpha in ALPHAS:
        period = 2.0 * pi_alpha(alpha)
        worst = 0.0
        for theta in np.linspace(-2.0 * period, 2.0 * period, 1000):
            s, c = sin_cos_alpha(alpha, float(theta))
            worst = max(worst, abs(abs(s) ** (2.0 * alpha) + c * c - 1.0))
        assert worst <= 1e-10, f"alpha={alpha}: identity residual {worst:.3g}"
    assert time.monotonic() - start < 5.0


def test_criterion_02_half_period_consistency():
    assert abs(pi_alpha(1.0) - math.pi) <= 1e-10
    for alpha in ALPHAS:
        assert abs(pi_alpha(alpha) - _ode_half_period(alpha)) <= 1e-7


def test_criterion_03_exp_matches_flow_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(20260301)

    worst = 0.0
    for i in range(100):
        base = GrushinBase(ALPHAS[i % 4], float(rng.uniform(-1, 1)), 0.0)
        cov = tuple(rng.uniform(-2, 2, 2))
        trajectory = _grushin_flow_oracle(base, cov, 1.0)
        for t in T_GRID:
            got = grushin_exp(base, cov, float(t)).position
            ref = trajectory(float(t))
            worst = max(worst, abs(got[0] - ref[0]), abs(got[1] - ref[1]))
    assert worst <= 1e-8, f"grushin flow deviation {worst:.3g}"

    worst = 0.0
    for _ in range(100):
        cov = tuple(rng.uniform(-3, 3, 3))
        oracle = _su2_matrix_oracle(cov, 1.0)
        for t in T_GRID:
            point, _ = su2_exp(cov, float(t))
            worst = max(worst, float(np.abs(point.matrix() - oracle(float(t))).max()))
    assert worst <= 1e-8, f"su2 flow deviation {worst:.3g}"

    worst = 0.0
    for _ in range(100):
        cov = tuple(rng.uniform(-3, 3, 3))
        oracle = _sl2_matrix_oracle(cov, 1.0)
        for t in T_GRID:
            point, _ = sl2_exp(cov, float(t))
            worst = max(worst, float(np.abs(point.matrix() - oracle(float(t))).max()))
    assert worst <= 1e-8, f"sl2 flow deviation {worst:.3g}"

    assert time.monotonic() - start < 30.0


def test_criterion_04_grushin_differential_vs_fd():
    rng = np.random.default_rng(20260302)
    accepted = 0
    while accepted < 50:
        alpha = ALPHAS[accepted % 4]
        base = GrushinBase(alpha, float(rng.uniform(-1, 1)), 0.0)
        cov = rng.uniform(-2, 2, 2)
        if abs(cov[1]) < 0.05:
            continue
        if cov[0] ** 2 + cov[1] ** 2 * abs(base.x0) ** (2.0 * alpha) < 0.1:
            continue
        analytic = grushin_dexp(base, tuple(cov))
        fd = fd_jacobian(
            lambda c: np.asarray(grushin_exp(base, tuple(c), 1.0).position), cov)
        rel = np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())
        assert rel <= 1e-5, f"base={base} cov={cov}: differential deviates {rel:.3g}"
        accepted += 1


def test_criterion_05_conjugate_rank_drop(su2, sl2, su2_scans, sl2_scans,
                                          grushin_scans):
    # detected conjugate covectors: finite-difference nullity exactly one
    grushin_pairs = grushin_scans[:10]
    assert len(su2_scans) >= 10 and len(sl2_scans) >= 10
    assert len(grushin_pairs) == 10
    checks = [(su2, rec) for rec in su2_scans[:10]]
    checks += [(sl2, rec) for rec in sl2_scans[:10]]
    checks += grushin_pairs
    for adapter, rec in checks:
        info = rank_nullspace(fd_jacobian(adapter.chart, rec.covector))
        assert adapter.fiber_dim - info.numeric_rank == 1
        assert rec.order == 1

    # random covectors away from the locus: no spurious rank drop
    rng = np.random.default_rng(20260303)

    accepted = 0
    while accepted < 50:
        cov = rng.uniform(-3, 3, 3) * rng.uniform(0.5, 3)
        if cov[0] ** 2 + cov[1] ** 2 < 0.3:
            continue
        f0, f1 = su2_conj_f(cov)
        if min(abs(f0) / max(1.0, np.linalg.norm(cov)), abs(f1)) < 0.1:
            continue
        assert _sigma_ratio(su2.chart, cov) >= 1e-3
        accepted += 1

    accepted = 0
    while accepted < 50:
        cov = rng.uniform(-2.5, 2.5, 3)
        if cov[0] ** 2 + cov[1] ** 2 < 0.1:
            continue
        r, f0, f1 = sl2_conj_f(cov)
        if -0.1 < r < 0.1:
            continue
        if r > 0 and min(abs(f0) / max(1.0, math.sqrt(r)), abs(f1)) < 0.1:
            continue
        assert _sigma_ratio(sl2.chart, cov) >= 1e-3
        accepted += 1

    base = GrushinBase(1.0, 1.0, 0.0)
    adapter = grushin_adapter(base)
    accepted = 0
    while accepted < 50:
        cov = rng.uniform(-2, 2, 2)
        if abs(cov[1]) < 0.05 or cov[0] ** 2 + cov[1] ** 2 < 0.1:
            continue
        if abs(grushin_conj_f(base, tuple(cov))) < 0.2:
            continue
        assert _sigma_ratio(adapter.chart, cov) >= 1e-3
        accepted += 1


def test_criterion_06_locus_radii_and_empty_rays(su2, sl2):
    # oracle radii: roots of the two locus equations located by bisection
    full_turns = _bisect_roots(lambda s: math.sin(0.5 * s), 0.5, 20.0)
    mixed = _bisect_roots(lambda s: s * math.cos(0.5 * s) - 2.0 * math.sin(0.5 * s),
                          0.5, 20.0)
    oracle = sorted(full_turns + mixed)
    assert len(oracle) == 5

    for ray in ((3.0, -1.0, 2.0), (1.0, 0.0, 0.0)):
        scanned = [rec.s for rec in scan_ray(su2, ray, 20.0)]
        assert len(scanned) == 5
        for got, want in zip(scanned, oracle):
            assert abs(got - want) <= 1e-6

    for direction in ((1.0, -0.5, -1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
        assert scan_ray(sl2, direction, 12.0) == []

    adapter = grushin_adapter(GrushinBase(1.0, 1.0, 0.0))
    for direction in ((1.0, 0.0), (-2.0, 0.0)):
        assert scan_ray(adapter, direction, 12.0) == []


def test_criterion_07_kernels_annihilated_by_fd_jacobian(all_scans):
    assert len(all_scans) >= 30
    for adapter, rec in all_scans:
        jac = fd_jacobian(adapter.chart, rec.covector)
        sigma_max = np.linalg.svd(jac, compute_uv=False)[0]
        kern = np.asarray(rec.kernel_basis[0], dtype=float)
        residual = np.linalg.norm(jac @ kern) / np.linalg.norm(kern)
        assert residual <= 1e-6 * sigma_max, (
            f"{adapter.name} s={rec.s:.6f}: kernel residual {residual:.3g}")


def test_criterion_08_classification_sample(su2_scans, sl2_scans, grushin_scans):
    sample = []
    for rec in su2_scans + sl2_scans:
        expected = (SingularityClass.FOLD if rec.stratum == "C0"
                    else SingularityClass.TANGENTIAL)
        sample.append((rec, expected))
    for _, rec in grushin_scans:
        sample.append((rec, SingularityClass.FOLD))
    assert len(sample) >= 30
    mismatches = [(rec.s, rec.stratum, rec.singularity_class, expected)
                  for rec, expected in sample
                  if rec.singularity_class is not expected]
    assert mismatches == []


def test_criterion_09_fold_witnesses(all_scans):
    folds = [(adapter, rec) for adapter, rec in all_scans
             if rec.singularity_class is SingularityClass.FOLD]
    assert len(folds) >= 10
    for adapter, rec in folds:
        witness = fold_witness(adapter, rec, 1e-3)
        assert witness.image_distance <= 1e-9
        assert witness.separation >= 1e-4


def test_criterion_10_second_order_certificate(su2, sl2, su2_scans, sl2_scans):
    targets = [(su2, rec) for rec in su2_scans if rec.stratum == "C1"][:5]
    targets += [(sl2, rec) for rec in sl2_scans if rec.stratum == "C1"][:5]
    assert len(targets) == 10
    for adapter, rec in targets:
        value = second_order_transversality(adapter, rec)
        assert value > 1e-3
        flipped = second_order_transversality(
            adapter, replace(rec, kernel_basis=(-rec.kernel_basis[0],)))
        assert abs(flipped - value) <= 1e-4 * value


def test_criterion_11_jacobi_closed_forms():
    rng = np.random.default_rng(20260304)

    worst = 0.0
    cases = (((1.0, 0.4, 0.0), (0.9, 1.3)), ((1.5, 0.7, 0.0), (-0.6, 1.1)),
             ((2.0, -0.5, 0.0), (1.2, 0.8)), ((3.0, 0.8, 0.0), (0.3, -1.0)),
             ((1.0, 0.2, 0.0), (0.0, 2.0)))
    for base_args, cov in cases:
        base = GrushinBase(*base_args)
        for _ in range(4):
            start = rng.normal(size=4)
            end = _grushin_jacobi_oracle(base, cov, start)
            out = grushin_jacobi(base, cov,
                                 JacobiCoords(p=tuple(start[:2]),
                                              x=tuple(start[2:])), 1.0)
            worst = max(worst, np.abs(np.concatenate([out.p, out.x]) - end).max())
    assert worst <= 1e-8, f"grushin jacobi residual {worst:.3g}"

    worst = 0.0
    for cov in ((0.8, 0.3, -1.1), (1.5, 0.0, 0.7), (0.2, 2.0, 1.3),
                (-0.9, 0.4, 2.5), (1.0, 1.0, 0.0)):
        r = sum(c * c for c in cov)
        for _ in range(4):
            start = rng.normal(size=6)
            end = _group_jacobi_oracle(r, start)
            out = su2_jacobi(cov, JacobiCoords(p=tuple(start[:3]),
                                               x=tuple(start[3:])), 1.0)
            worst = max(worst, np.abs(np.concatenate([out.p, out.x]) - end).max())
    assert worst <= 1e-8, f"su2 jacobi residual {worst:.3g}"

    worst = 0.0
    for cov in ((1.0, 0.0, 2.0), (0.7, -0.4, 0.5), (1.0, 0.0, 1.0),
                (2.0, 0.0, 2.0), (0.5, 0.5, 3.0)):
        r = cov[2] ** 2 - cov[0] ** 2 - cov[1] ** 2
        for _ in range(4):
            start = rng.normal(size=6)
            end = _group_jacobi_oracle(r, start)
            out = sl2_jacobi(cov, JacobiCoords(p=tuple(start[:3]),
                                               x=tuple(start[3:])), 1.0)
            worst = max(worst, np.abs(np.concatenate([out.p, out.x]) - end).max())
    assert worst <= 1e-8, f"sl2 jacobi residual {worst:.3g}"
