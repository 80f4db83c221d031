"""Unit tests for the SL(2) structure.

The closed-form endpoint map is cross-checked against a matrix ODE oracle
(g' = g (u X1 + v X2) with the counter-rotating horizontal momentum), and the
frame Jacobi propagation against direct integration of its linear system.
Frozen constants come from independent evaluation: sinh(1/2) and cosh(1/2),
exp(+-1/2), 2/e and sinh(1) for the hyperbolic sentinels, and
sqrt(4 pi^2 + 1) = 6.362265131567328 which places a covector exactly on the
second stratum.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfolds import (DegenerateCovector, InvalidInput, JacobiCoords,
                     NotConjugate, OdeProblem, Sl2Matrix,
                     fd_jacobian, integrate, sc_pair, sl2_chart,
                     sl2_conj_f, sl2_conj_grad, sl2_exp, sl2_frame_images,
                     sl2_jacobi, sl2_kernel, vertical_to_endpoint_matrix)
from srfolds.contact import cov_triple, curvature
from srfolds.scfun import SERIES_THRESHOLD, jacobi_ratios
from srfolds.sl2 import X0, X1, X2

TWO_PI = 6.283185307179586
C0_RHO_1 = 8.986818915818128       # 2 * first tangent fixed point
SINH_HALF = 0.5210953054937474
COSH_HALF = 1.1276259652063807
E_HALF = 1.6487212707001282
E_MINUS_HALF = 0.6065306597126334
TWO_OVER_E = 0.7357588823428847    # 2 cosh(1) - 2 sinh(1)
SINH_ONE = 1.1752011936438014
SQRT_4PI2_PLUS_1 = 6.362265131567328


def _matrix_oracle(cov, t_end):
    """Integrate g' = g (u(t) X1 + v(t) X2) from the identity."""
    u0, v0, w0 = cov

    def field(t, y):
        g = y.reshape(2, 2)
        u = u0 * math.cos(w0 * t) + v0 * math.sin(w0 * t)
        v = v0 * math.cos(w0 * t) - u0 * math.sin(w0 * t)
        return (g @ (u * X1 + v * X2)).ravel()

    problem = OdeProblem(dimension=4, vector_field=field,
                         initial_state=np.eye(2).ravel(), t_span=(0.0, t_end))
    trajectory = integrate(problem, rel_tol=1e-12, abs_tol=1e-14)
    return lambda t: trajectory(t).reshape(2, 2)


def _c1_covector():
    """Covector with r = 4 pi^2, on the second stratum."""
    return (1.0, 0.0, SQRT_4PI2_PLUS_1)


def _c0_covector():
    """Covector with sqrt(r) equal to the first planar-stratum radius."""
    return (1.0, 0.0, math.sqrt(C0_RHO_1 ** 2 + 1.0))


class TestScFunctions:
    def test_flat_case_is_polynomial(self):
        s, c = sc_pair(0.0, 1.7)
        assert s == 1.7 and c == 1.0

    def test_positive_curvature_is_trigonometric(self):
        s, c = sc_pair(1.0, math.pi / 2.0)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_negative_curvature_is_hyperbolic(self):
        s, c = sc_pair(-1.0, 0.5)
        assert s == pytest.approx(SINH_HALF, abs=1e-12)
        assert c == pytest.approx(COSH_HALF, abs=1e-12)

    def test_series_band_is_continuous(self):
        # the evaluation switches branches around |a| t^2 = 1e-6; the two
        # branches must agree there to well below everything tested downstream
        for a in (9.9e-7, 1.01e-6, -9.9e-7, -1.01e-6):
            s, c = sc_pair(a, 1.0)
            if a > 0:
                root = math.sqrt(a)
                exact_s, exact_c = math.sin(root) / root, math.cos(root)
            else:
                root = math.sqrt(-a)
                exact_s, exact_c = math.sinh(root) / root, math.cosh(root)
            assert abs(s - exact_s) <= 1e-12
            assert abs(c - exact_c) <= 1e-12

    def test_non_finite_input_raises_invalid_input(self):
        # inf or nan makes a t^2 inf or nan, which no branch may read: the
        # trigonometric one raised a bare ValueError, and nan came back as nan;
        # so did finite a and t whose phase sqrt(|a|) t overflows, and the
        # hyperbolic branch returned (inf, inf) there
        for a, t in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
                     (-math.inf, 0.5), (0.0, math.inf),
                     (4.0, 1e308), (-4.0, 1e308), (-1e300, 1e300)):
            with pytest.raises(InvalidInput, match="must be finite"):
                sc_pair(a, t)
        for r in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInput, match="must be finite"):
                vertical_to_endpoint_matrix(r)

    @pytest.mark.parametrize("t", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("a", [0.99e-6, 3e-7, 1e-9, -0.99e-6, -3e-7, -1e-9])
    def test_jacobi_ratios_series_against_cancellation_free_forms(self, a, t):
        # |a| under SERIES_THRESHOLD takes the series of g1 = (1 - c)/a and
        # g2 = (t - s)/a; g1 = 2 sin^2(sqrt(a) t/2)/a (sinh for a < 0) does
        # not cancel, and g2's alternating Taylor series sum_k (-a t^2)^k
        # t^3/(2k+3)! is summed exactly in rationals
        assert abs(a) < SERIES_THRESHOLD
        _, _, g1, g2 = jacobi_ratios(a, t)
        root = math.sqrt(abs(a))
        half = math.sin(root * t / 2.0) if a > 0 else math.sinh(root * t / 2.0)
        assert abs(g1 - 2.0 * half * half / abs(a)) <= 1e-14 * g1
        z, exact = -Fraction(a) * Fraction(t) ** 2, Fraction(0)
        for k in range(8):
            exact += z ** k * Fraction(t) ** 3 / math.factorial(2 * k + 3)
        assert abs(g2 - float(exact)) <= 1e-14 * g2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jacobi_ratios_continuous_across_series_threshold(self, sign):
        # the last series a and the first closed-form a: the closed form's
        # cancellation costs about eps / |a| there
        inside = jacobi_ratios(sign * math.nextafter(SERIES_THRESHOLD, 0.0), 1.0)
        outside = jacobi_ratios(sign * SERIES_THRESHOLD, 1.0)
        for near, far in zip(inside, outside):
            assert abs(near - far) <= 1e-9 * abs(far)


class TestExp:
    def test_vertical_covector_goes_nowhere(self):
        for w0 in (0.8, -1.7):
            for t in (0.5, 1.0, 3.0):
                matrix, momentum = sl2_exp((0.0, 0.0, w0), t)
                assert np.abs(matrix.matrix() - np.eye(2)).max() <= 1e-12
                assert momentum[2] == w0

    def test_pure_boost_is_diagonal_exponential(self):
        matrix, momentum = sl2_exp((1.0, 0.0, 0.0), 1.0)
        assert matrix.m11 == pytest.approx(E_HALF, abs=1e-12)
        assert matrix.m22 == pytest.approx(E_MINUS_HALF, abs=1e-12)
        assert abs(matrix.m12) <= 1e-12 and abs(matrix.m21) <= 1e-12
        assert np.allclose(momentum, [1.0, 0.0, 0.0], atol=1e-12)

    def test_momentum_counter_rotates(self):
        u0, v0, w0 = 0.9, -0.4, 1.2
        for t in (0.5, 1.0, 2.0):
            _, momentum = sl2_exp((u0, v0, w0), t)
            expect_u = u0 * math.cos(w0 * t) + v0 * math.sin(w0 * t)
            expect_v = v0 * math.cos(w0 * t) - u0 * math.sin(w0 * t)
            assert abs(momentum[0] - expect_u) <= 1e-12
            assert abs(momentum[1] - expect_v) <= 1e-12

    @pytest.mark.parametrize("cov", [
        (1.0, 0.0, 0.0),            # r < 0 boost
        (0.4, -0.3, 1.5),           # r > 0
        (1.0, 0.0, 1.0),            # r = 0 null direction
        (2.0, 1.0, 1.0),            # r < 0 with rotation
    ])
    def test_matches_matrix_ode_oracle(self, cov):
        oracle = _matrix_oracle(cov, 1.5)
        for t in (0.4, 1.0, 1.5):
            matrix, _ = sl2_exp(cov, t)
            assert np.abs(matrix.matrix() - oracle(t)).max() <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(u0=st.floats(-3, 3), v0=st.floats(-3, 3), w0=st.floats(-3, 3),
           t=st.floats(0.1, 2.0))
    def test_determinant_and_energy_invariants(self, u0, v0, w0, t):
        matrix, momentum = sl2_exp((u0, v0, w0), t)
        m = matrix.matrix()
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        scale = max(1.0, np.abs(m).max() ** 2)
        assert abs(det - 1.0) <= 1e-9 * scale
        h2 = momentum[0] ** 2 + momentum[1] ** 2
        assert abs(h2 - (u0 * u0 + v0 * v0)) <= 1e-9 * max(1.0, u0 * u0 + v0 * v0)

    def test_long_boosts_keep_unit_determinant(self):
        # c - s u0 cancels to e^(-u0/2); det = 1 recovers it to full precision
        for u0 in np.linspace(1.0, 40.0, 391):
            for sign in (1.0, -1.0):
                matrix, _ = sl2_exp((sign * u0, 0.0, 0.0), 1.0)
                small, big = (matrix.m22, matrix.m11) if sign > 0 else (matrix.m11, matrix.m22)
                assert small == pytest.approx(math.exp(-u0 / 2.0), rel=1e-13)
                assert big == pytest.approx(math.exp(u0 / 2.0), rel=1e-13)

    def test_hyperbolic_covectors_match_expm_oracle(self):
        from scipy.linalg import expm

        grid = np.linspace(-40.0, 40.0, 17)
        covs = [(u0, v0, w0) for u0 in grid for v0 in grid
                for w0 in (-30.0, -5.0, 0.0, 0.7, 12.0) if w0 * w0 < u0 * u0 + v0 * v0]
        # u0 < 0 enlarges a22; |r| t^2 / 4 under 1e-6 takes sc_pair's series
        covs += [(-0.3, 0.2, 0.1), (1e-4, 0.0, 0.0)]
        for t in (1.0, -0.5):
            for u0, v0, w0 in covs:
                want = expm(t * (u0 * X1 + v0 * X2 - w0 * X0)) @ expm(t * w0 * X0)
                got = sl2_exp((u0, v0, w0), t)[0].matrix()
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.xfail(strict=True, reason=(
        "r = w0^2 - (u0^2 + v0^2) cancels next to the light cone, and the "
        "Sl2Matrix determinant check rejects the endpoint (CHANGES.md FOUND)"))
    def test_light_cone_covectors_have_an_endpoint(self):
        # exact r: 0.01003402 at the first covector, where the float r reads
        # 0.00994873 and the endpoint's det - 1 = 2.13e-5; det - 1 = 2.02e-9
        # at the second
        for cov in [(-2.043122361332051, 594147.9813822897, -594147.981385811),
                    (1.824656802298159, 8740.02984607383, 8740.03009374875)]:
            sl2_exp(cov, 1.0)

    def test_matrix_validation(self):
        with pytest.raises(InvalidInput):
            Sl2Matrix(1.0, 0.0, 0.0, 2.0)

    def test_covector_curvature_scalar(self):
        assert curvature(-1, *cov_triple((1.0, 2.0, 3.0))) == pytest.approx(
            4.0, abs=1e-12)


class TestJacobi:
    def test_zero_data_stays_zero(self):
        out = sl2_jacobi((1.0, 0.2, 0.4),
                         JacobiCoords(p=(0, 0, 0), x=(0, 0, 0)), 1.0)
        assert out.p == (0.0, 0.0, 0.0)
        assert out.x == (0.0, 0.0, 0.0)

    def test_second_slot_moves_linearly(self):
        out = sl2_jacobi((1.5, 0.0, 0.5), JacobiCoords(p=(0, 1, 0), x=(0, 0, 0)), 2.0)
        assert np.abs(np.array(out.p) - [0, 1, 0]).max() <= 1e-12
        assert np.abs(np.array(out.x) - [0, 2.0, 0]).max() <= 1e-12

    @pytest.mark.parametrize("cov", [
        (1.5, 0.0, 0.5),            # r = -2
        (1.0, 0.0, 1.0),            # r = 0
        (0.3, 0.4, 1.0),            # r = 0.75
        (1.0, 0.0, SQRT_4PI2_PLUS_1),  # r = 4 pi^2
    ])
    def test_matches_linear_ode_oracle(self, cov):
        u0, v0, w0 = cov
        r = w0 * w0 - u0 * u0 - v0 * v0
        rng = np.random.default_rng(11)

        def field(t, y):
            pa, pb, pc, xa, xb, xc = y
            return np.array([-pc - r * xa, 0.0, 0.0, pa, pb, xa])

        for _ in range(3):
            start = rng.normal(size=6)
            problem = OdeProblem(dimension=6, vector_field=field,
                                 initial_state=start, t_span=(0.0, 1.0))
            end = integrate(problem, rel_tol=1e-12, abs_tol=1e-14).end
            out = sl2_jacobi(cov, JacobiCoords(p=tuple(start[:3]),
                                               x=tuple(start[3:])), 1.0)
            got = np.concatenate([out.p, out.x])
            assert np.abs(got - end).max() <= 1e-9

    def test_rejects_planar_data(self):
        with pytest.raises(InvalidInput):
            sl2_jacobi((1.0, 0.0, 0.0), JacobiCoords(p=(1, 0), x=(0, 0)), 1.0)


class TestConjF:
    def test_hyperbolic_sentinels_frozen_example(self):
        r, f0, f1 = sl2_conj_f((2.0, 1.0, 1.0))
        assert r == pytest.approx(-4.0, abs=1e-12)
        assert f0 == pytest.approx(TWO_OVER_E, abs=1e-12)
        assert f1 == pytest.approx(SINH_ONE, abs=1e-12)

    def test_second_stratum_at_full_turn_radius(self):
        r, f0, f1 = sl2_conj_f(_c1_covector())
        assert r == pytest.approx(4.0 * math.pi ** 2, rel=1e-12)
        assert abs(f1) <= 1e-12
        assert abs(f0 + TWO_PI) <= 1e-10

    def test_first_stratum_at_frozen_radius(self):
        _, f0, _ = sl2_conj_f(_c0_covector())
        assert abs(f0) <= 1e-7

    def test_sentinels_positive_on_nonpositive_r(self):
        for cov in ((1.0, 0.0, 0.0), (2.0, 1.0, 1.0), (0.7, 0.7, 0.0),
                    (1.0, 0.0, 1.0)):
            r, f0, f1 = sl2_conj_f(cov)
            assert r <= 0.0
            assert f0 >= 0.0 and f1 >= 0.0

    def test_boost_rotation_invariance(self):
        # the stratum data depends on the covector only through r
        reference = sl2_conj_f((0.6, 0.8, 3.0))
        for theta in (0.5, 2.0):
            c, s = math.cos(theta), math.sin(theta)
            rotated = (0.6 * c - 0.8 * s, 0.8 * c + 0.6 * s, 3.0)
            values = sl2_conj_f(rotated)
            assert np.abs(np.array(values) - reference).max() <= 1e-12

    def test_purely_vertical_is_degenerate(self):
        with pytest.raises(DegenerateCovector):
            sl2_conj_f((0.0, 0.0, 3.0))


class TestKernel:
    def test_second_stratum_kernel_is_planar_rotation(self):
        kern = sl2_kernel(_c1_covector())
        assert abs(abs(kern[1]) - 1.0) <= 1e-9
        assert abs(kern[0]) <= 1e-9
        assert abs(kern[2]) <= 1e-9

    def test_first_stratum_kernel_has_vertical_part(self):
        kern = sl2_kernel(_c0_covector())
        assert abs(np.linalg.norm(kern) - 1.0) <= 1e-12
        assert abs(kern[2]) > 1e-3

    def test_kernel_annihilated_by_fd_endpoint_jacobian(self):
        for cov in (np.array(_c1_covector()), np.array(_c0_covector())):
            kern = sl2_kernel(tuple(cov))
            jac = fd_jacobian(sl2_chart, cov)
            sigma = np.linalg.svd(jac, compute_uv=False)
            assert np.linalg.norm(jac @ kern) <= 1e-6 * max(1.0, sigma[0])

    def test_nonpositive_r_is_never_conjugate(self):
        with pytest.raises(NotConjugate):
            sl2_kernel((1.0, 0.0, 0.0))
        with pytest.raises(NotConjugate):
            sl2_kernel((1.0, 0.0, 1.0))

    def test_off_locus_rejected(self):
        with pytest.raises(NotConjugate):
            sl2_kernel((0.3, 0.0, 2.0))


class TestConjGrad:
    def test_fd_agreement_at_conjugate_covectors(self):
        for cov in (_c0_covector(), _c1_covector(), (0.3, 0.4, 2.0)):
            df0, df1 = sl2_conj_grad(cov)
            fd = fd_jacobian(
                lambda c: np.array(sl2_conj_f((c[0], c[1], c[2]))[1:]),
                np.array(cov))
            assert np.abs(df0 - fd[0]).max() <= 1e-6 * max(1.0, np.abs(fd[0]).max())
            assert np.abs(df1 - fd[1]).max() <= 1e-6 * max(1.0, np.abs(fd[1]).max())
            assert np.linalg.norm(df0) > 1e-6 or np.linalg.norm(df1) > 1e-6

    def test_rejects_nonpositive_r_and_vertical_axis(self):
        with pytest.raises(DegenerateCovector):
            sl2_conj_grad((1.0, 0.0, 0.0))
        with pytest.raises(DegenerateCovector):
            sl2_conj_grad((0.0, 0.0, 2.0))


class TestChartAndFrame:
    def test_chart_is_finite(self):
        coords = sl2_chart(_c1_covector())
        assert coords.shape == (4,) and np.all(np.isfinite(coords))
        assert abs(coords[0] * coords[3] - coords[1] * coords[2] - 1.0) <= 1e-12

    @pytest.mark.parametrize("cov", [
        (0.4, -0.3, 1.5),           # r > 0
        (1.2, 0.5, 0.3),            # r < 0
        _c1_covector(),
        (1.32, 3.01, -3.35),        # m11 = 7.8e-5
    ])
    def test_frame_identity(self, cov):
        u0, v0, w0 = cov
        h2 = u0 * u0 + v0 * v0
        r = w0 * w0 - h2
        sq = math.sqrt(h2)
        basis = np.column_stack([
            np.array([-v0, u0, 0.0]) / sq,
            np.array([u0, v0, w0]) / sq,
            np.array([0.0, 0.0, 1.0]) / sq,
        ])
        jac = fd_jacobian(sl2_chart, np.array(cov))
        lhs = jac @ basis
        rhs = sl2_frame_images(cov) @ vertical_to_endpoint_matrix(r)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-6 * scale

    def test_frame_images_reject_vertical_axis(self):
        with pytest.raises(DegenerateCovector):
            sl2_frame_images((0.0, 0.0, 1.0))


class TestNeverConjugateMargin:
    @pytest.mark.parametrize("direction", [
        (1.0, 0.0, 0.5),
        (0.7, 0.7, 0.0),
        (1.0, -0.5, -1.0),
    ])
    def test_fd_jacobian_stays_away_from_rank_drop(self, direction):
        # covectors on r <= 0 rays are never conjugate; the endpoint
        # differential must keep a uniform singular-value margin along them
        # (measured floor across these rays and scales is about 1.9e-2)
        d = np.array(direction)
        assert d[2] ** 2 - d[0] ** 2 - d[1] ** 2 <= 0.0
        for s in (0.5, 1.0, 3.0, 7.0, 12.0, 18.0):
            cov = s * d
            jac = fd_jacobian(sl2_chart, cov)
            sigma = np.linalg.svd(jac, compute_uv=False)
            assert sigma[-1] > 1e-3 * sigma[0]
