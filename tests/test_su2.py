"""Unit tests for the SU(2) structure.

The closed-form endpoint map is cross-checked against a matrix ODE oracle
(g' = g (u X1 + v X2) with the rotating horizontal momentum), and the frame
Jacobi propagation against direct integration of the linear system. Expected
constants are frozen from independent root-finding: 4.493409457909064 is the
first positive fixed point of the tangent, so 8.986818915818128 is the first
radius where the planar stratum function vanishes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfolds import (DegenerateCovector, InvalidInput, JacobiCoords,
                     NotConjugate, OdeProblem, Su2Point,
                     fd_jacobian, integrate, rank_nullspace, su2_chart,
                     su2_conj_f, su2_conj_grad, su2_exp, su2_frame_images,
                     su2_jacobi, su2_kernel, vertical_to_endpoint_matrix)
from srfolds.contact import ContactCovector, curvature
from srfolds.su2 import X0, X1, X2

TWO_PI = 6.283185307179586
C0_RHO_1 = 8.986818915818128   # 2 * first tangent fixed point
C0_RHO_2 = 15.450503673875414  # 2 * second tangent fixed point


def _matrix_oracle(cov, t_end):
    """Integrate g' = g (u(t) X1 + v(t) X2) from the identity."""
    u0, v0, w0 = cov

    def field(t, y):
        g = (y[:4] + 1j * y[4:]).reshape(2, 2)
        u = u0 * math.cos(w0 * t) - v0 * math.sin(w0 * t)
        v = v0 * math.cos(w0 * t) + u0 * math.sin(w0 * t)
        dg = g @ (u * X1 + v * X2)
        return np.concatenate([dg.real.ravel(), dg.imag.ravel()])

    start = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    problem = OdeProblem(dimension=8, vector_field=field,
                         initial_state=start, t_span=(0.0, t_end))
    trajectory = integrate(problem, rel_tol=1e-12, abs_tol=1e-14)

    def at(t):
        y = trajectory(t)
        return (y[:4] + 1j * y[4:]).reshape(2, 2)

    return at


class TestExp:
    def test_vertical_covector_goes_nowhere(self):
        for w0 in (0.5, -2.7, 11.0):
            for t in (0.3, 1.0, 4.0):
                point, momentum = su2_exp((0.0, 0.0, w0), t)
                assert abs(point.alpha - 1.0) <= 1e-12
                assert abs(point.beta) <= 1e-12
                assert momentum[2] == w0

    def test_zero_covector(self):
        point, momentum = su2_exp((0.0, 0.0, 0.0), 2.0)
        assert point.alpha == 1.0 and point.beta == 0.0
        assert np.all(momentum == 0.0)

    def test_half_turn_lands_on_antipodal_fiber(self):
        point, _ = su2_exp((math.pi, 0.0, 0.0), 1.0)
        assert abs(point.alpha) <= 1e-12
        assert abs(point.beta - 1.0) <= 1e-12

    def test_full_turn_lands_on_minus_identity(self):
        point, _ = su2_exp((2.0 * math.pi, 0.0, 0.0), 1.0)
        assert abs(point.alpha + 1.0) <= 1e-12
        assert abs(point.beta) <= 1e-12

    def test_momentum_rotates_at_vertical_rate(self):
        u0, v0, w0 = 0.8, -0.5, 1.3
        for t in (0.25, 1.0, 2.0):
            _, momentum = su2_exp((u0, v0, w0), t)
            expect_u = u0 * math.cos(w0 * t) - v0 * math.sin(w0 * t)
            expect_v = v0 * math.cos(w0 * t) + u0 * math.sin(w0 * t)
            assert abs(momentum[0] - expect_u) <= 1e-12
            assert abs(momentum[1] - expect_v) <= 1e-12
            assert momentum[2] == w0

    @pytest.mark.parametrize("cov", [
        (1.0, 0.0, 0.0),
        (0.7, -1.1, 0.4),
        (-0.3, 0.9, -2.2),
        (2.4, 1.7, 0.05),
    ])
    def test_matches_matrix_ode_oracle(self, cov):
        oracle = _matrix_oracle(cov, 1.5)
        for t in (0.3, 0.75, 1.0, 1.5):
            point, _ = su2_exp(cov, t)
            diff = np.abs(point.matrix() - oracle(t)).max()
            assert diff <= 1e-8

    def test_time_scaling(self):
        cov = (0.6, -1.2, 0.9)
        for s in (0.5, 2.0):
            direct, _ = su2_exp(cov, s * 0.8)
            scaled, _ = su2_exp(tuple(s * c for c in cov), 0.8)
            assert np.abs(direct.matrix() - scaled.matrix()).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(u0=st.floats(-5, 5), v0=st.floats(-5, 5), w0=st.floats(-5, 5),
           t=st.floats(0.1, 3.0))
    def test_endpoint_stays_unitary(self, u0, v0, w0, t):
        point, momentum = su2_exp((u0, v0, w0), t)
        norm_sq = abs(point.alpha) ** 2 + abs(point.beta) ** 2
        assert abs(norm_sq - 1.0) <= 1e-10
        h2 = momentum[0] ** 2 + momentum[1] ** 2
        assert abs(h2 - (u0 * u0 + v0 * v0)) <= 1e-9 * max(1.0, u0 * u0 + v0 * v0)

    def test_point_validation(self):
        with pytest.raises(InvalidInput):
            Su2Point(1.0, 0.0, 0.5, 0.0)
        with pytest.raises(InvalidInput):
            ContactCovector(math.nan, 0.0, 1.0)


class TestJacobi:
    def test_zero_data_stays_zero(self):
        out = su2_jacobi((0.9, 0.1, 1.4),
                         JacobiCoords(p=(0, 0, 0), x=(0, 0, 0)), 1.0)
        assert out.p == (0.0, 0.0, 0.0)
        assert out.x == (0.0, 0.0, 0.0)

    def test_second_slot_moves_linearly(self):
        cov = (1.1, -0.4, 0.7)
        for t in (0.5, 1.0, 2.5):
            out = su2_jacobi(cov, JacobiCoords(p=(0, 1, 0), x=(0, 0, 0)), t)
            assert np.abs(np.array(out.p) - [0, 1, 0]).max() <= 1e-12
            assert np.abs(np.array(out.x) - [0, t, 0]).max() <= 1e-12

    def test_coeffs_expose_squared_norm(self):
        # the frame Jacobi system's curvature entry is rho^2 on SU(2)
        assert curvature(1, 3.0, 4.0, 12.0) == pytest.approx(169.0, abs=1e-12)

    def test_matches_linear_ode_oracle(self):
        rng = np.random.default_rng(7)
        cov = (0.8, 0.3, -1.1)
        r = sum(c * c for c in cov)

        def field(t, y):
            pa, pb, pc, xa, xb, xc = y
            return np.array([-pc - r * xa, 0.0, 0.0, pa, pb, xa])

        for _ in range(4):
            start = rng.normal(size=6)
            problem = OdeProblem(dimension=6, vector_field=field,
                                 initial_state=start, t_span=(0.0, 1.0))
            end = integrate(problem, rel_tol=1e-12, abs_tol=1e-14).end
            out = su2_jacobi(cov, JacobiCoords(p=tuple(start[:3]),
                                               x=tuple(start[3:])), 1.0)
            got = np.concatenate([out.p, out.x])
            assert np.abs(got - end).max() <= 1e-9

    def test_rejects_zero_covector_and_planar_data(self):
        with pytest.raises(DegenerateCovector):
            su2_jacobi((0.0, 0.0, 0.0), JacobiCoords(p=(1, 0, 0), x=(0, 0, 0)), 1.0)
        with pytest.raises(InvalidInput):
            su2_jacobi((1.0, 0.0, 0.0), JacobiCoords(p=(1, 0), x=(0, 0)), 1.0)


class TestConjMatrix:
    """vertical_to_endpoint_matrix at r = rho^2, the SU(2) curvature scalar."""

    def test_small_radius_approaches_limit_matrix(self):
        limit = np.array([[1.0, 0.0, -0.5],
                          [0.0, 1.0, 0.0],
                          [0.5, 0.0, -1.0 / 6.0]])
        m = vertical_to_endpoint_matrix(1e-4 ** 2)
        assert np.abs(m - limit).max() <= 1e-7
        assert abs(np.linalg.det(m) - 1.0 / 12.0) <= 1e-6

    def test_full_turn_has_planar_nullspace(self):
        result = rank_nullspace(vertical_to_endpoint_matrix(TWO_PI ** 2))
        assert result.numeric_rank == 2
        (kernel,) = result.nullspace_basis
        assert abs(abs(kernel[0]) - 1.0) <= 1e-10
        assert abs(kernel[1]) <= 1e-10
        assert abs(kernel[2]) <= 1e-10

    def test_half_turn_is_invertible(self):
        sigma = np.linalg.svd(vertical_to_endpoint_matrix(math.pi ** 2), compute_uv=False)
        assert sigma[-1] > 1e-3 * sigma[0]


class TestConjF:
    def test_full_turn_is_on_second_stratum(self):
        f0, f1 = su2_conj_f((TWO_PI, 0.0, 0.0))
        assert abs(f1) <= 1e-12
        assert abs(f0 + TWO_PI) <= 1e-12

    def test_frozen_first_stratum_radius(self):
        f0, _ = su2_conj_f((C0_RHO_1, 0.0, 0.0))
        assert abs(f0) <= 1e-7
        f0, _ = su2_conj_f((C0_RHO_2, 0.0, 0.0))
        assert abs(f0) <= 1e-7

    def test_half_turn_values(self):
        f0, f1 = su2_conj_f((math.pi, 0.0, 0.0))
        assert f0 == pytest.approx(-2.0, abs=1e-12)
        assert f1 == pytest.approx(1.0, abs=1e-12)

    def test_rotational_symmetry(self):
        rho_parts = (1.3, -0.7, 2.1)
        reference = su2_conj_f(rho_parts)
        for theta in (0.4, 1.9, 3.5):
            c, s = math.cos(theta), math.sin(theta)
            rotated = (rho_parts[0] * c - rho_parts[1] * s,
                       rho_parts[1] * c + rho_parts[0] * s, rho_parts[2])
            values = su2_conj_f(rotated)
            assert abs(values[0] - reference[0]) <= 1e-12
            assert abs(values[1] - reference[1]) <= 1e-12

    def test_purely_vertical_is_degenerate(self):
        with pytest.raises(DegenerateCovector):
            su2_conj_f((0.0, 0.0, 2.0))


def _c0_covector(w0: float) -> tuple[float, float, float]:
    """Covector of norm C0_RHO_1 with the requested vertical part."""
    planar = math.sqrt(C0_RHO_1 ** 2 - w0 * w0)
    return (planar, 0.0, w0)


class TestKernel:
    def test_full_turn_kernel_is_planar_rotation(self):
        kern = su2_kernel((TWO_PI, 0.0, 0.0))
        assert abs(abs(kern[1]) - 1.0) <= 1e-9
        assert abs(kern[0]) <= 1e-9
        assert abs(kern[2]) <= 1e-9

    def test_first_stratum_kernel_has_vertical_part(self):
        kern = su2_kernel(_c0_covector(1.0))
        assert abs(np.linalg.norm(kern) - 1.0) <= 1e-12
        assert abs(kern[2]) > 1e-3

    def test_kernel_annihilated_by_fd_endpoint_jacobian(self):
        for cov in (np.array([TWO_PI, 0.0, 0.0]),
                    np.array(_c0_covector(1.0)),
                    np.array(_c0_covector(-2.0))):
            kern = su2_kernel(tuple(cov))
            jac = fd_jacobian(su2_chart, cov)
            sigma = np.linalg.svd(jac, compute_uv=False)
            assert np.linalg.norm(jac @ kern) <= 1e-6 * max(1.0, sigma[0])

    def test_rejects_non_conjugate(self):
        with pytest.raises(NotConjugate):
            su2_kernel((1.0, 0.0, 0.5))


class TestConjGrad:
    def test_gradients_align_with_covector(self):
        cov = np.array([1.2, -0.8, 0.6])
        df0, df1 = su2_conj_grad(tuple(cov))
        unit = cov / np.linalg.norm(cov)
        for grad in (df0, df1):
            residual = grad - (grad @ unit) * unit
            assert np.linalg.norm(residual) <= 1e-12

    def test_fd_agreement(self):
        for cov in ((1.2, -0.8, 0.6), (TWO_PI, 0.0, 0.0), (2.0, 1.0, -3.0)):
            df0, df1 = su2_conj_grad(cov)
            fd = fd_jacobian(
                lambda c: np.array(su2_conj_f((c[0], c[1], c[2]))),
                np.array(cov))
            assert np.abs(df0 - fd[0]).max() <= 1e-6 * max(1.0, np.abs(fd[0]).max())
            assert np.abs(df1 - fd[1]).max() <= 1e-6 * max(1.0, np.abs(fd[1]).max())

    def test_vertical_pairing_identity(self):
        # at planar-stratum covectors the unnormalized kernel pairs with the
        # stratum gradient to 2 w0 sin^2(rho/2); this fixes the relative sign
        # of the kernel's vertical component
        for w0 in (1.0, -2.0, 0.5):
            cov = _c0_covector(w0)
            u0, v0, _ = cov
            rho = C0_RHO_1
            half = rho / 2.0
            planar = rho * math.cos(half)
            raw_kernel = np.array([-v0 * planar, u0 * planar,
                                   -4.0 * math.sin(half)])
            df0, _ = su2_conj_grad(cov)
            expected = 2.0 * w0 * math.sin(half) ** 2
            assert abs(float(df0 @ raw_kernel) - expected) <= 1e-8

    def test_degenerate_at_vertical_axis(self):
        with pytest.raises(DegenerateCovector):
            su2_conj_grad((0.0, 0.0, 1.0))


class TestChartAndFrame:
    def test_chart_is_three_dimensional_and_finite(self):
        # four entries on the unit sphere: the three-sphere SU(2) in R^4
        coords = su2_chart((0.9, -0.4, 1.1))
        assert coords.shape == (4,)
        assert np.all(np.isfinite(coords))
        assert abs(coords @ coords - 1.0) <= 1e-12

    @pytest.mark.parametrize("cov", [
        (1.0, 0.0, 0.5),
        (0.7, -1.1, 0.4),
        (TWO_PI, 0.0, 0.0),
        (-3.87, 2.51, 3.3),         # |Re alpha| < |Im alpha|
    ])
    def test_frame_identity(self, cov):
        u0, v0, w0 = cov
        h2 = u0 * u0 + v0 * v0
        rho_sq = h2 + w0 * w0
        sq = math.sqrt(h2)
        basis = np.column_stack([
            np.array([-v0, u0, 0.0]) / sq,
            np.array([u0, v0, w0]) / sq,
            np.array([0.0, 0.0, -1.0]) / sq,
        ])
        jac = fd_jacobian(su2_chart, np.array(cov))
        images = su2_frame_images(cov)
        from srfolds import vertical_to_endpoint_matrix
        lhs = jac @ basis
        rhs = images @ vertical_to_endpoint_matrix(rho_sq)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-6 * scale

    def test_frame_images_reject_vertical_axis(self):
        with pytest.raises(DegenerateCovector):
            su2_frame_images((0.0, 0.0, 1.5))
