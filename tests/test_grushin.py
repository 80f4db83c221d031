"""Grushin-plane geodesics, differential, Jacobi fields, conjugate locus."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srfolds import (DegenerateCovector, GrushinBase, InvalidInput,
                     JacobiCoords, NotConjugate, OdeProblem, SingularityClass,
                     fd_jacobian, find_roots, grushin_adapter, grushin_conj_f,
                     grushin_conj_grad, grushin_dexp, grushin_exp,
                     grushin_jacobi, grushin_kernel, integrate, rank_nullspace,
                     scan_ray, sin_cos_alpha)
from srfolds.alphatrig import alpha_table
from srfolds.grushin import _CROSSING_MARGIN, _oscillator
from srfolds.oracles import quad
from srfolds.singularity import PAIRING_TOL

TAN_FIXED_POINT = 4.493409457909064
COS1_MINUS_SIN1 = -0.3011686789397568
INV_TWO_PI = 0.15915494309189535
# v0 = 0 lines, the H = 0 covector, v0 whose square underflows, and u0 whose
# square underflows, which leaves H = 0 at x0 = 0
DEGENERATE_COVECTORS = [(1.2, 0.0), (-0.7, 0.0), (0.0, 0.0), (1e-13, 0.0), (0.0, 1.3),
                        (0.9, 1e-170), (1e-170, 1.3)]


def _odd_power(x: float, alpha: float) -> float:
    if x == 0.0:
        return 0.0
    return abs(x) ** (2.0 * (alpha - 1.0)) * x


def _cov_id(cov) -> str:
    return f"{cov[0]:g}_{cov[1]:g}"


def _unit_momenta_form(base: GrushinBase, cov, t: float) -> tuple[float, float]:
    """p1.x2 - p2.x1 of the Jacobi fields with x(0) = 0, p(0) = e1 and e2, at t.

    The linearized flow keeps this symplectic form, 0 at t = 0, so it is 0 at
    every t; returned with |p1| |x2| + |p2| |x1|, the size of its terms.
    """
    one, two = (grushin_jacobi(base, cov, JacobiCoords(p=p, x=(0.0, 0.0)), t)
                for p in ((1.0, 0.0), (0.0, 1.0)))
    p1, x1, p2, x2 = one.p, one.x, two.p, two.x
    form = p1[0] * x2[0] + p1[1] * x2[1] - p2[0] * x1[0] - p2[1] * x1[1]
    # hypot, as field sizes near 1e-200 square below the smallest double
    return form, math.hypot(*p1) * math.hypot(*x2) + math.hypot(*p2) * math.hypot(*x1)


def _jacobi_ode_oracle(base: GrushinBase, cov, init: JacobiCoords,
                       t_end: float) -> np.ndarray:
    """Integrate the linearized system along the closed-form geodesic."""
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

    problem = OdeProblem(dimension=4, vector_field=field,
                         initial_state=np.array([*init.p, *init.x]),
                         t_span=(0.0, t_end))
    return integrate(problem).end


class TestExp:
    def test_rest_geodesic(self):
        base = GrushinBase(alpha=1.0, x0=1.0, y0=0.0)
        state = grushin_exp(base, (0.0, 0.0), 1.0)
        assert state.position == (1.0, 0.0)

    def test_horizontal_line(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        state = grushin_exp(base, (1.0, 0.0), 1.0)
        assert state.position[0] == pytest.approx(1.0, abs=1e-12)
        assert state.position[1] == pytest.approx(0.0, abs=1e-12)

    def test_oscillator_endpoint(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        state = grushin_exp(base, (1.0, math.pi), 1.0)
        assert abs(state.position[0]) <= 1e-12
        assert abs(state.position[1] - INV_TWO_PI) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_energy_conservation(self, alpha):
        base = GrushinBase(alpha=alpha, x0=0.6, y0=0.0)
        for u0, v0 in ((1.0, 1.3), (-0.7, 2.1), (0.0, 1.0), (2.0, -0.5)):
            h0 = u0 * u0 + v0 * v0 * abs(base.x0) ** (2.0 * alpha)
            for t in np.linspace(0.0, 1.0, 9):
                state = grushin_exp(base, (u0, v0), float(t))
                x, _ = state.position
                u, v = state.momentum
                assert v == v0
                h = u * u + v0 * v0 * abs(x) ** (2.0 * alpha)
                assert abs(h - h0) <= 1e-9 * max(1.0, h0)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_flow_scaling(self, scale):
        base = GrushinBase(alpha=1.5, x0=0.4, y0=0.2)
        cov = (0.9, 1.7)
        for t in (0.3, 0.45):
            a = grushin_exp(base, (scale * cov[0], scale * cov[1]), t)
            b = grushin_exp(base, cov, scale * t)
            assert abs(a.position[0] - b.position[0]) <= 1e-9
            assert abs(a.position[1] - b.position[1]) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1.0, 1.5, 2.0]),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-1.2, max_value=1.2))
    def test_energy_conservation_property(self, alpha, u0, v0, x0):
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        h0 = u0 * u0 + v0 * v0 * abs(x0) ** (2.0 * alpha)
        for t in (0.33, 1.0):
            state = grushin_exp(base, (u0, v0), t)
            x, _ = state.position
            u, _ = state.momentum
            h = u * u + v0 * v0 * abs(x) ** (2.0 * alpha)
            assert abs(h - h0) <= 1e-9 * max(1.0, h0)


    @pytest.mark.xfail(strict=True, reason=(
        "y = (t 2H + u0 x0 - u x) / (v0 (alpha + 1)) cancels where v0 is small: "
        "its error grows as eps / |v0| (README, Known limitations)"))
    def test_small_v0_height_matches_quadrature(self):
        # dy/dt = v0 |x|^(2 alpha) along the closed-form x, integrated on its own
        base = GrushinBase(alpha=2.0, x0=0.0, y0=0.0)
        cov = (1.0, 1e-8)
        y = grushin_exp(base, cov, 1.0).position[1]
        ref = cov[1] * quad(lambda tau: abs(grushin_exp(base, cov, tau).position[0]) ** 4.0,
                            0.0, 1.0, tol=1e-14)
        assert abs(y - ref) <= 1e-12 * abs(ref)


class TestAmplitude:
    @pytest.mark.parametrize("u0,v0,x0", [
        (1.0, 1.3, 0.6), (-0.7, 2.1, 0.6), (0.0, 1.0, 0.6),
        (1.0, -1.3, -0.4), (-1.0, -0.5, 0.0),
    ])
    def test_initial_condition_inversion(self, u0, v0, x0):
        # the oscillator grushin_exp runs: x(t) = amp sin_alpha(phase + flip omega t)
        # and u(t) = flip amp omega cos_alpha(phase + flip omega t) at t = 0
        alpha = 1.5
        h2 = u0 * u0 + v0 * v0 * abs(x0) ** (2.0 * alpha)
        amp, omega, phase, flip = _oscillator(alpha_table(alpha), x0, u0, v0, h2)
        assert abs(amp ** 2 * omega ** 2 - h2) <= 1e-10 * max(1.0, h2)
        s_phi, c_phi = sin_cos_alpha(alpha, phase)
        assert abs(amp * s_phi - x0) <= 1e-10
        assert abs(flip * amp * omega * c_phi - u0) <= 1e-10


class TestDexp:
    def test_against_central_differences_at_pi(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        jac = grushin_dexp(base, (1.0, math.pi))
        fd = fd_jacobian(
            lambda c: np.array(grushin_exp(base, (c[0], c[1]), 1.0).position),
            np.array([1.0, math.pi]))
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))

    def test_euclidean_limit(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        jac = grushin_dexp(base, (1.0, 1e-3))
        assert abs(jac[0, 0] - 1.0) <= 1e-4
        assert abs(jac[0, 1]) <= 1e-3

    def test_singular_at_conjugate_covector(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        jac = grushin_dexp(base, (1.0, TAN_FIXED_POINT))
        sigma = np.linalg.svd(jac, compute_uv=False)
        assert abs(np.linalg.det(jac)) <= 1e-7 * sigma[0] ** 2

    @pytest.mark.parametrize("u0,v0", [(0.8, 1.1), (-1.4, 0.6), (0.3, -2.0)])
    def test_generic_fd_agreement(self, u0, v0):
        base = GrushinBase(alpha=1.5, x0=0.7, y0=0.0)
        jac = grushin_dexp(base, (u0, v0))
        fd = fd_jacobian(
            lambda c: np.array(grushin_exp(base, (c[0], c[1]), 1.0).position),
            np.array([u0, v0]))
        assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_straight_line_branch(self, alpha):
        # central differences straddle the v0 = 0 seam, where the closed form
        # cancels terms of order 1/v0; a coarser step keeps the quotient
        # truncation-limited instead of cancellation-limited
        base = GrushinBase(alpha=alpha, x0=0.2, y0=0.0)
        jac = grushin_dexp(base, (1.0, 0.0))
        fd = fd_jacobian(
            lambda c: np.array(grushin_exp(base, (c[0], c[1]), 1.0).position),
            np.array([1.0, 0.0]), h=1e-3)
        assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))

    @pytest.mark.parametrize("u0", [1e-4, 1e-7, 1e-10, 1e-13])
    @pytest.mark.parametrize("x0", [1.0, -1.0])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_straight_line_dy_dv_is_the_polynomial_integral(self, alpha, x0, u0):
        # dy/dv0 on the line x0 + u0 t is the integral of (x0 + u0 t)^(2 alpha)
        # over [0, 1]; the antiderivative difference over u0 cancels as u0 -> 0
        n = int(2 * alpha)
        exact = sum(math.comb(n, k) * x0 ** (n - k) * u0 ** k / (k + 1)
                    for k in range(n + 1))
        jac = grushin_dexp(GrushinBase(alpha=alpha, x0=x0, y0=0.0), (u0, 0.0))
        assert abs(jac[1, 1] - exact) <= 1e-14 * abs(exact)
        assert (jac[0, 0], jac[0, 1], jac[1, 0]) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_rest_branch_h_zero(self, alpha):
        # u0 = 0 at x0 = 0: the geodesic rests, and the u0 Jacobi field is the
        # alpha = 1 oscillator sin(v0 t)/v0 or, for alpha > 1, the free line t
        base = GrushinBase(alpha=alpha, x0=0.0, y0=0.0)
        jac = grushin_dexp(base, (0.0, 1.3))
        dx_du = math.sin(1.3) / 1.3 if alpha == 1.0 else 1.0
        assert np.max(np.abs(jac - [[dx_du, 0.0], [0.0, 0.0]])) <= 1e-15
        fd = fd_jacobian(
            lambda c: np.array(grushin_exp(base, (c[0], c[1]), 1.0).position),
            np.array([0.0, 1.3]))
        assert np.max(np.abs(jac - fd)) <= 1e-6


    @pytest.mark.parametrize("x0", [0.0, 0.6, -0.4, 1.3])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 2.5, 3.0])
    def test_equals_jacobi_columns_bit_for_bit(self, alpha, x0):
        # one endpoint evaluation shared by both columns gives what two
        # grushin_jacobi calls give, on every branch; bytes, so the sign of
        # a zero counts
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        rng = np.random.default_rng(int(10 * alpha + 100 * x0) % 2 ** 32)
        covs = [tuple(rng.uniform(-5.0, 5.0, size=2)) for _ in range(40)]
        # at v0 = 1e110, v0^3 overflows but multiplies x_a(0) = 0: both stay finite
        covs += [(0.0, 1.7), (-x0, 0.9), (1.0, 1e110), *DEGENERATE_COVECTORS]
        for cov in covs:
            columns = [grushin_jacobi(base, cov, JacobiCoords(p=p0, x=(0.0, 0.0)), 1.0).x
                       for p0 in ((1.0, 0.0), (0.0, 1.0))]
            jac = grushin_dexp(base, cov)
            assert np.isfinite(jac).all(), cov
            assert jac.tobytes() == np.array(columns).T.tobytes(), cov


class TestJacobi:
    def test_data_that_is_not_two_component_rejected(self):
        base = GrushinBase(alpha=2.0, x0=0.5, y0=0.0)
        for n in (1, 3):
            with pytest.raises(InvalidInput, match="Grushin Jacobi data has two momentum components"):
                grushin_jacobi(base, (0.4, 1.0), JacobiCoords(p=(1.0,) * n, x=(0.0,) * n), 1.0)

    def test_zero_initial_data(self):
        base = GrushinBase(alpha=1.5, x0=0.4, y0=0.0)
        out = grushin_jacobi(base, (0.9, 1.2), JacobiCoords(p=(0, 0), x=(0, 0)), 1.0)
        assert out.p == (0.0, 0.0)
        assert out.x == (0.0, 0.0)

    def test_initial_condition_recovery(self):
        base = GrushinBase(alpha=2.0, x0=0.5, y0=0.0)
        init = JacobiCoords(p=(0.3, -0.8), x=(1.1, 0.25))
        out = grushin_jacobi(base, (0.7, 1.4), init, 0.0)
        assert abs(out.x[0] - init.x[0]) <= 1e-12
        assert abs(out.x[1] - init.x[1]) <= 1e-12
        assert abs(out.p[0] - init.p[0]) <= 1e-12

    def test_vertical_translation_mode(self):
        # pure p_b data: x_b follows the displayed flux formula; ODE-checked
        base = GrushinBase(alpha=1.0, x0=0.3, y0=0.0)
        cov = (0.8, 1.6)
        init = JacobiCoords(p=(0.0, 0.7), x=(0.0, 0.0))
        closed = grushin_jacobi(base, cov, init, 1.0)
        ref = _jacobi_ode_oracle(base, cov, init, 1.0)
        assert np.max(np.abs(np.array([*closed.p, *closed.x]) - ref)) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_closed_form_vs_ode(self, seed):
        rng = np.random.default_rng(seed)
        base = GrushinBase(alpha=1.5, x0=0.6, y0=0.0)
        u0 = float(rng.uniform(-1.5, 1.5))
        v0 = float(rng.uniform(0.4, 2.0)) * (1 if seed % 2 else -1)
        init = JacobiCoords(p=tuple(rng.uniform(-1, 1, 2)),
                            x=tuple(rng.uniform(-1, 1, 2)))
        closed = grushin_jacobi(base, (u0, v0), init, 1.0)
        ref = _jacobi_ode_oracle(base, (u0, v0), init, 1.0)
        assert np.max(np.abs(np.array([*closed.p, *closed.x]) - ref)) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]), st.sampled_from([0.0, 0.4, -0.4, 1.3]),
           st.sampled_from([-1.0, 0.5, 1.0, 3.0]), st.floats(-3.0, 3.0),
           st.floats(-1.0, 150.0), st.sampled_from([1.0, -1.0]))
    def test_unit_momenta_keep_the_symplectic_form(self, alpha, x0, t, u0, log_v0, sign):
        # a route independent of the ODE oracle, which reaches |v0| = 1e150;
        # |v0| >= 0.1 stays clear of the 1/v0 cancellation near v0 = 0
        form, size = _unit_momenta_form(GrushinBase(alpha, x0, 0.0),
                                        (u0, sign * 10.0 ** log_v0), t)
        assert abs(form) <= 1e-11 * size

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("cov", DEGENERATE_COVECTORS, ids=_cov_id)
    @pytest.mark.parametrize("x0", [0.0, 0.7, -1.2])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_degenerate_branch_straight_line(self, alpha, x0, cov, t):
        # v0 = 0 lines, H = 0 rest points and v0 whose square underflows take
        # the straight-line closed form; at x0 != 0 some of these covectors
        # are oscillatory and check the ansatz instead
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        init = JacobiCoords(p=(0.4, 0.6), x=(0.2, -0.1))
        out = grushin_jacobi(base, cov, init, t)
        ref = _jacobi_ode_oracle(base, cov, init, t)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(np.array([*out.p, *out.x]) - ref)) <= 1e-8 * scale

    @pytest.mark.parametrize("cov", DEGENERATE_COVECTORS + [(0.9, 1.2), (-0.3, 2.0)],
                             ids=_cov_id)
    @pytest.mark.parametrize("x0", [0.0, 0.7, -1.2])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_time_reversal(self, alpha, x0, cov):
        # running the linearized flow back along cov is running it forward
        # along -cov with the momentum flipped, on every branch
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        p, x = (0.4, -0.6), (0.2, 0.3)
        for t in (0.5, 2.3):
            back = grushin_jacobi(base, cov, JacobiCoords(p=p, x=x), -t)
            fwd = grushin_jacobi(base, (-cov[0], -cov[1]),
                                 JacobiCoords(p=(-p[0], -p[1]), x=x), t)
            assert back.p == (-fwd.p[0], -fwd.p[1])
            assert back.x == fwd.x


class TestConjugacy:
    def test_tan_root_is_conjugate(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        assert abs(grushin_conj_f(base, (1.0, TAN_FIXED_POINT))) <= 1e-8

    def test_second_case_zero(self):
        base = GrushinBase(alpha=1.0, x0=1.0, y0=0.0)
        assert abs(grushin_conj_f(base, (0.0, math.pi))) <= 1e-10

    def test_frozen_generic_value(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        value = grushin_conj_f(base, (1.0, 1.0))
        assert abs(value - COS1_MINUS_SIN1) <= 1e-10

    def test_gradient_nonzero_at_conjugate_point(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        grad = grushin_conj_grad(base, (1.0, TAN_FIXED_POINT))
        assert np.linalg.norm(grad) > 1e-3

    @pytest.mark.parametrize("alpha,x0,u0", [
        (1.0, 0.0, 1.0),
        (1.5, 0.5, 0.8),
        (1.0, 0.4, -1.1),
        (1.5, 0.8, -0.8),  # u0 + x0 = 0 branch
    ])
    def test_gradient_fd_agreement_on_locus(self, alpha, x0, u0):
        # the analytic gradient is exact only where the conjugacy function
        # vanishes, so locate conjugate covectors along a fixed-u0 section
        # first and compare there
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        hits = find_roots(lambda v: grushin_conj_f(base, (u0, v)), 0.5, 14.0,
                          scan_points=600)
        assert hits, "no conjugate covector found on the section"
        for hit in hits[:2]:
            cov = np.array([u0, hit.value])
            grad = grushin_conj_grad(base, (cov[0], cov[1]))
            fd = fd_jacobian(
                lambda c: np.array([grushin_conj_f(base, (c[0], c[1]))]), cov)[0]
            scale = max(1.0, np.max(np.abs(grad)), np.max(np.abs(fd)))
            assert np.max(np.abs(grad - fd)) <= 1e-5 * scale

    @pytest.mark.parametrize("call,message", [
        (grushin_kernel, "kernel undefined at H = 0"),
        (grushin_conj_grad, "conjugacy gradient undefined at H = 0"),
    ], ids=["kernel", "gradient"])
    def test_rest_covector_with_v0_raises_its_own_message(self, call, message):
        # at x0 = 0, u0 = 0 has H = 0 whatever v0 is, so the v0 = 0 checks
        # that follow cannot stand in for the H = 0 one
        base = GrushinBase(alpha=1.5, x0=0.0, y0=0.0)
        with pytest.raises(DegenerateCovector, match=re.escape(message)):
            call(base, (0.0, 1.3))

    def test_kernel_second_case(self):
        base = GrushinBase(alpha=1.0, x0=1.0, y0=0.0)
        (kern,) = grushin_kernel(base, (0.0, math.pi))
        assert abs(abs(kern[0]) - 1.0) <= 1e-9
        assert abs(kern[1]) <= 1e-9

    def test_kernel_fourth_case(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        (kern,) = grushin_kernel(base, (1.0, TAN_FIXED_POINT))
        assert abs(kern[0]) <= 1e-9
        assert abs(abs(kern[1]) - 1.0) <= 1e-9

    def test_kernel_annihilated_by_fd_jacobian(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        cov = np.array([1.0, TAN_FIXED_POINT])
        (kern,) = grushin_kernel(base, cov)
        jac = fd_jacobian(
            lambda c: np.array(grushin_exp(base, (c[0], c[1]), 1.0).position), cov)
        sigma = np.linalg.svd(jac, compute_uv=False)
        assert np.linalg.norm(jac @ kern) <= 1e-6 * max(1.0, sigma[0])

    def test_kernel_rejects_non_conjugate(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        with pytest.raises(NotConjugate):
            grushin_kernel(base, (1.0, 1.0))

    def test_kernel_bound_counts_both_terms_of_its_scale(self):
        # |f| = |u1 (u0 + x0) - u0 x1| may reach 1e-8 max(1, |u1| (|u0| + |x0|)
        # + |u0| |x1|); at a record the two terms are equal, so a covector moved
        # off it along its ray until |f| sits between 1e-8 times their
        # difference and the bound is accepted, and one at twice the bound is not
        base = GrushinBase(alpha=1.0, x0=1.0, y0=0.0)
        d = np.array([0.4, 1.0]) / math.hypot(0.4, 1.0)
        rec = max(scan_ray(grushin_adapter(base), d, 10.0), key=lambda r: r.s)
        slope = abs(float(grushin_conj_grad(base, rec.covector) @ d))

        def moved(f_size):
            """The covector f_size / slope further out, its |f| and its two scale terms."""
            cov = (rec.s + f_size / slope) * d
            state = grushin_exp(base, cov, 1.0)
            x1, u1 = state.position[0], state.momentum[0]
            terms = abs(u1) * (abs(cov[0]) + 1.0), abs(cov[0]) * abs(x1)
            return cov, abs(grushin_conj_f(base, cov)), terms

        _, _, (first, second) = moved(0.0)
        cov, f, (first, second) = moved(1e-8 * math.sqrt(max(1.0, first - second)
                                                         * (first + second)))
        assert 1e-8 * max(1.0, first - second) < f < 1e-8 * max(1.0, first + second)
        (kern,) = grushin_kernel(base, cov)
        assert abs(np.linalg.norm(kern) - 1.0) <= 1e-12
        cov, f, (first, second) = moved(2e-8 * (first + second))
        assert f > 1.5e-8 * (first + second) > 1e-8
        with pytest.raises(NotConjugate):
            grushin_kernel(base, cov)

    def test_conjugate_rank_drop(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        result = rank_nullspace(grushin_dexp(base, (1.0, TAN_FIXED_POINT)))
        assert result.numeric_rank == 1
        assert len(result.nullspace_basis) == 1

    def test_degenerate_covector_errors(self):
        base = GrushinBase(alpha=1.0, x0=0.0, y0=0.0)
        with pytest.raises(DegenerateCovector):
            grushin_conj_f(base, (0.0, 0.0))
        with pytest.raises(DegenerateCovector):
            grushin_conj_grad(base, (1.0, 0.0))


class TestNearVerticalRays:
    """Rays with u0 ~ 0 from x0 != 0, where x0 / A sits at the top of the quarter period.

    There the phase comes from arc_alpha next to sin_alpha = 1, which must
    return the quarter period to full precision: a phase a few 1e-8 short
    of it turns real conjugate points into order-0 records or makes the
    kernel reject them.
    """

    @pytest.mark.parametrize("alpha,x0,offset,count", [
        (3.0, 0.5, None, 3),
        (4.0, 0.5, None, 1),
        (3.0, 0.5, 1e-7, 3),
        (2.5, 0.5, 1e-7, 4),
        (4.0, 2.0, 1e-3, 103),
    ])
    def test_every_conjugate_point_is_kept(self, alpha, x0, offset, count):
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        if offset is None:
            direction = (0.0, 1.0)
        else:
            angle = math.pi / 2.0 + offset
            direction = (math.cos(angle), math.sin(angle))
        records = scan_ray(grushin_adapter(base), direction, 30.0)
        assert len(records) == count
        for rec in records:
            assert rec.order == 1
            sv = np.linalg.svd(grushin_dexp(base, rec.covector), compute_uv=False)
            assert sv[1] / sv[0] <= 1e-9

    def test_top_of_the_quarter_ray_matches_ode_oracle(self):
        # u0 ~ -1e-5 from x0 = 2: x0 / A sits about 1.5e-13 below 1, where
        # inverting sin_alpha loses the phase to the rounding of that ratio
        base = GrushinBase(alpha=3.0, x0=2.0, y0=0.0)
        angle = math.pi / 2.0 + 1e-5
        direction = (math.cos(angle), math.sin(angle))
        s_max = 30.0
        records = scan_ray(grushin_adapter(base), direction, s_max)
        expected = _conjugate_times_oracle(base, direction, s_max * 1e-4, s_max)
        assert len(records) == len(expected) == 49
        for rec, t in zip(records, expected):
            assert rec.order == 1
            assert abs(rec.s - t) <= 1e-10 * t

    @pytest.mark.parametrize("alpha,offset,count,expected", [
        (3.0, 1e-9, 49, SingularityClass.UNDETERMINED),
        (3.0, 1e-7, 49, SingularityClass.UNDETERMINED),
        (3.0, 1e-2, 49, SingularityClass.FOLD),
        (4.0, 1e-9, 103, SingularityClass.UNDETERMINED),
        (4.0, 1e-7, 103, SingularityClass.UNDETERMINED),
        (4.0, 1e-5, 103, SingularityClass.UNDETERMINED),
        (4.0, 1e-2, 103, SingularityClass.FOLD),
    ])
    def test_folds_under_pairing_tolerance_are_not_tangential(self, alpha, offset,
                                                               count, expected):
        # every record here is a fold; next to the vertical its pairing falls
        # under PAIRING_TOL, and the mixed second derivative is no
        # certificate of the tangential form on the plane
        base = GrushinBase(alpha=alpha, x0=2.0, y0=0.0)
        angle = math.pi / 2.0 + offset
        records = scan_ray(grushin_adapter(base),
                           (math.cos(angle), math.sin(angle)), 30.0)
        assert len(records) == count
        assert all(rec.singularity_class is expected for rec in records)


@pytest.mark.parametrize("alpha,x0,offset", [
    (2.5, 0.5, 0.9 - math.pi / 2.0),  # a generic ray
    (1.0, 0.5, 0.0),                  # u0 = 0
    (3.0, 0.5, 1e-7), (2.5, 0.5, 1e-7), (4.0, 2.0, 1e-3),
    (3.0, 2.0, 1e-9), (3.0, 2.0, 1e-5), (3.0, 2.0, 1e-2),
    (4.0, 2.0, 1e-9), (4.0, 2.0, 1e-7), (4.0, 2.0, 1e-5), (4.0, 2.0, 1e-2),
])
def test_stratum_names_the_pairing(alpha, x0, offset):
    # the scanner names a planar record by its pairing, nothing else
    adapter = grushin_adapter(GrushinBase(alpha=alpha, x0=x0, y0=0.0))
    angle = math.pi / 2.0 + offset
    records = scan_ray(adapter, (math.cos(angle), math.sin(angle)), 30.0)
    assert records
    base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
    for rec in records:
        pairing = None
        if rec.order == 1:
            grad = grushin_conj_grad(base, rec.covector)
            kern = rec.kernel_basis[0]
            pairing = grad @ kern / (np.linalg.norm(grad) * np.linalg.norm(kern))
        if pairing is None:
            assert rec.stratum == "other"
        else:
            assert rec.stratum == ("C0" if abs(pairing) > PAIRING_TOL else "C1")


def _conjugate_times_oracle(base: GrushinBase, direction, lo: float,
                            hi: float) -> list[float]:
    """Conjugate times in [lo, hi] of the unit covector, by integrating the flow.

    Integrates the Hamiltonian system together with its variations in u0 and
    v0; the times where det d(x, y)/d(u0, v0) changes sign are the conjugate
    radii s of the ray, since exp(s d) at time one is the geodesic of d at
    time s.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    a = base.alpha
    u0, v0 = np.asarray(direction, float) / math.hypot(*direction)

    def field(t, z):
        x, _, u, v = z[:4]
        even = abs(x) ** (2.0 * (a - 1.0))
        out = [u, v * even * x * x, -a * v * v * even * x, 0.0]
        for k in (4, 8):
            dx, _, du, dv = z[k:k + 4]
            out += [du,
                    dv * even * x * x + 2.0 * a * v * even * x * dx,
                    -2.0 * a * v * even * x * dv
                    - a * (2.0 * a - 1.0) * v * v * even * dx,
                    0.0]
        return out

    start = [base.x0, base.y0, u0, v0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    sol = solve_ivp(field, (0.0, hi), start, method="DOP853", rtol=1e-12,
                    atol=1e-12, dense_output=True)
    assert sol.success

    def det(t: float) -> float:
        z = sol.sol(t)
        return float(z[4] * z[9] - z[8] * z[5])

    ts = np.linspace(lo, hi, 20001)
    z = sol.sol(ts)
    values = z[4] * z[9] - z[8] * z[5]
    return [brentq(det, ts[i], ts[i + 1], xtol=1e-14)
            for i in range(len(ts) - 1) if values[i] * values[i + 1] < 0.0]


class TestCovectorParsing:
    """Malformed covectors raise the same errors from every container."""

    @pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_component(self, make, bad, slot):
        values = [0.5, 1.0]
        values[slot] = bad
        base = GrushinBase(alpha=1.5, x0=0.5, y0=0.0)
        with pytest.raises(InvalidInput, match="finite"):
            grushin_exp(base, make(values), 1.0)

    @pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
    @pytest.mark.parametrize("values", [[], [1.0], [1.0, 2.0, 3.0]])
    def test_wrong_length(self, make, values):
        base = GrushinBase(alpha=1.5, x0=0.5, y0=0.0)
        with pytest.raises(ValueError, match="values to unpack"):
            grushin_exp(base, make(values), 1.0)

    def test_parsed_values_are_python_floats(self):
        base = GrushinBase(alpha=1.5, x0=0.5, y0=0.0)
        for cov in ((0.4, 1), [0.4, 1.0], np.array([0.4, 1.0]), np.array([2, 5])):
            _, v = grushin_exp(base, cov, 1.0).momentum
            assert type(v) is float


class TestOverflow:
    """An energy or a base power past the largest double raises InvalidInput.

    An infinite energy fails the curvature check, whose straight line would
    be a wrong answer there, so the energy is checked first.
    """

    BASE = GrushinBase(alpha=2.0, x0=0.5, y0=0.0)
    JACOBI_INIT = JacobiCoords(p=(1.0, 0.0), x=(0.0, 0.0))

    @pytest.mark.parametrize("cov", [(1.0, 1e200), (1e160, 1.0), (-1e155, 0.0)], ids=_cov_id)
    def test_energy_overflow_raises(self, cov):
        adapter = grushin_adapter(self.BASE)
        calls = [lambda: grushin_exp(self.BASE, cov, 1.0),
                 lambda: grushin_conj_f(self.BASE, cov),
                 lambda: grushin_jacobi(self.BASE, cov, self.JACOBI_INIT, 1.0),
                 lambda: adapter.chart(np.array(cov)),
                 lambda: adapter.chart_array(np.array([[cov]])),
                 lambda: adapter.record_fields(np.array([cov]), np.zeros(1, dtype=int),
                                               np.zeros(1, dtype=bool))]
        for call in calls:
            with pytest.raises(InvalidInput, match="too large: its energy overflows"):
                call()

    def test_scan_whose_grid_energy_overflows_raises(self):
        with pytest.raises(InvalidInput, match="too large: its energy overflows"):
            scan_ray(grushin_adapter(self.BASE), (1.0, 1.0), 1e300)

    def test_largest_finite_energy_still_bends(self):
        # v0^2 |x0|^4 = 1e300 / 16 is finite: the geodesic stays within its
        # amplitude (sqrt(2H) / |v0|)^(1 / alpha)
        x, _ = grushin_exp(self.BASE, (1.0, 1e150), 1.0).position
        amp = (math.hypot(1.0, 1e150 * 0.25) / 1e150) ** 0.5
        assert abs(x) <= amp * (1.0 + 1e-12)

    @pytest.mark.parametrize("base,cov,init", [
        (GrushinBase(10.0, 0.0, 0.0), (1e150, 1e-150), JacobiCoords(p=(1.0, 0.0), x=(0.0, 0.0))),
        (GrushinBase(2.0, 0.5, 0.0), (1.0, 1e110), JacobiCoords(p=(1.0, 0.0), x=(1.0, 0.0))),
    ], ids=["odd-power", "v0-cubed"])
    def test_power_overflow_raises_invalid_input(self, base, cov, init):
        # a finite energy whose Jacobi or gradient terms overflow a double:
        # no bare OverflowError, and the message names the covector
        calls = [lambda: grushin_jacobi(base, cov, init, 1.0)]
        if base.alpha == 10.0:
            # the v0-cubed case overflows only in the x_a(0) term of the
            # Jacobi fields, which the differential and gradient do not have
            calls += [lambda: grushin_conj_grad(base, cov), lambda: grushin_dexp(base, cov),
                      lambda: grushin_adapter(base).chart_jacobian(np.array(cov))]
        for call in calls:
            with pytest.raises(InvalidInput, match=re.escape(
                    f"covector ({cov[0]!r}, {cov[1]!r}) too large: its Jacobi fields overflow")):
                call()

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_axis_base_energy_is_exact_where_v0_squared_overflows(self, alpha):
        # at x0 = 0 the energy is u0^2; v0^2 |x0|^(2 alpha) would be inf * 0
        base = GrushinBase(alpha=alpha, x0=0.0, y0=0.0)
        v0 = 1e200
        state = grushin_exp(base, (1.0, v0), 1.0)
        x1, _ = state.position
        u1, _ = state.momentum
        energy = u1 * u1 + (v0 * abs(x1) ** alpha) ** 2
        assert abs(energy - 1.0) <= 1e-12
        assert abs(x1) <= 1e-100 ** (1.0 / alpha) * (1.0 + 1e-12)
        assert math.isfinite(grushin_conj_f(base, (1.0, v0)))

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_axis_base_jacobi_is_finite_where_v0_squared_overflows(self, alpha):
        # u_dot = -alpha v0^2 |x|^(2(alpha-1)) x is finite although v0^2 is not
        base = GrushinBase(alpha=alpha, x0=0.0, y0=0.0)
        out = grushin_jacobi(base, (1.0, 1e200), self.JACOBI_INIT, 1.0)
        assert all(map(math.isfinite, (*out.p, *out.x)))
        form, size = _unit_momenta_form(base, (1.0, 1e200), 1.0)
        assert size > 0.0
        assert abs(form) <= 1e-11 * size

    @pytest.mark.parametrize("alpha,x0", [(2.0, 1e200), (1.0, 1e170), (2.0, -1e100)])
    def test_base_whose_power_overflows_raises(self, alpha, x0):
        with pytest.raises(InvalidInput, match=r"too large: \|x0\|\^\(2 alpha\) overflows"):
            GrushinBase(alpha=alpha, x0=x0, y0=0.0)


class TestBase:
    @pytest.mark.parametrize("fields,message", [
        ((math.nan, 0.5, 0.0), "alpha must be a finite real"),
        ((2.0, math.inf, 0.0), "x0 must be a finite real"),
        ((2.0, 0.5, -math.inf), "y0 must be a finite real"),
        ((0.5, 0.5, 0.0), "alpha must be >= 1"),
        ((-2.0, 0.0, 0.0), "alpha must be >= 1"),
    ], ids=str)
    def test_rejects_a_field_out_of_range(self, fields, message):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            GrushinBase(*fields)


class TestRayRestriction:
    """The adapter's closed-form restriction of f to a ray (ray_strata)."""

    # both f and its restriction evaluate sin_alpha at theta = phase + flip omega s
    # from constants that round differently; an error of order eps |theta| in
    # theta reaches f through terms of size amp (alpha |omega| (|u0| + |x0|) + |u0|).
    # The bound is _RESTRICTION_ULPS eps times that size times (1 + |theta|);
    # the worst ratio seen over 40,000 random draws of this domain was 3.6
    _RESTRICTION_ULPS = 32.0

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(1.0, 5.0), x0=st.floats(-2.0, 2.0),
           angle=st.floats(0.0, 2.0 * math.pi), s=st.floats(1e-3, 60.0))
    def test_agrees_with_conj_f_to_rounding(self, alpha, x0, angle, s):
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        d = np.array([math.cos(angle), math.sin(angle)])
        u0, v0 = s * d[0], s * d[1]
        h2 = u0 * u0 + v0 * v0 * abs(x0) ** (2.0 * alpha)
        assume(v0 * v0 != 0.0 and h2 != 0.0)
        amp, omega, phase, flip = _oscillator(alpha_table(alpha), x0, u0, v0, h2)
        theta = phase + flip * omega
        size = amp * (alpha * abs(omega) * (abs(u0) + abs(x0)) + abs(u0)) * (1.0 + abs(theta))
        value = grushin_adapter(base).ray_strata(d).g(0, s)
        reference = grushin_conj_f(base, (u0, v0))
        eps = np.finfo(float).eps
        assert abs(value - reference) <= self._RESTRICTION_ULPS * eps * max(1.0, size)

    @pytest.mark.parametrize("alpha,x0,direction", [
        (1.5, 0.5, (0.4, 1.0)),       # moving off the axis
        (1.5, 0.5, (-0.6, 1.0)),      # moving toward it
        (2.5, -0.3, (1.0, 0.5)),
        (2.5, -0.3, (-1.0, -0.5)),
        (3.0, 2.0, (0.0, 1.0)),       # starting at the top of the oscillation
        (1.0, -0.5, (1.0, 1e-8)),     # near-horizontal, reaching the axis at s ~ 0.5
    ])
    def test_crossing_radius_is_where_the_endpoint_reaches_the_axis(self, alpha, x0,
                                                                    direction):
        base = GrushinBase(alpha=alpha, x0=x0, y0=0.0)
        d = np.asarray(direction) / np.linalg.norm(direction)
        crossing = grushin_adapter(base).ray_strata(d).free_below / (1.0 - _CROSSING_MARGIN)
        before = grushin_exp(base, (1.0 - 1e-6) * crossing * d, 1.0).position[0]
        after = grushin_exp(base, (1.0 + 1e-6) * crossing * d, 1.0).position[0]
        assert math.copysign(1.0, before) == math.copysign(1.0, x0)
        assert math.copysign(1.0, after) == -math.copysign(1.0, x0)

    def test_no_crossing_radius_on_the_axis(self):
        adapter = grushin_adapter(GrushinBase(alpha=2.0, x0=0.0, y0=0.0))
        assert adapter.ray_strata(np.array([0.6, 0.8])).free_below == 0.0

    @pytest.mark.parametrize("alpha,x0,direction", [
        (1.0, 0.5, (1.0, 1e-155)),
        (4.0, 0.5, (1.0, 1e-160)),
    ])
    def test_no_record_below_the_crossing_radius(self, alpha, x0, direction):
        # these geodesics stay off the axis on [0, 1] for every s <= 30, where
        # the plane has negative curvature; f there is rounding noise, whose
        # sign changes used to become dozens of records, most of them Folds
        records = scan_ray(grushin_adapter(GrushinBase(alpha, x0, 0.0)), direction, 30.0)
        assert records == []
