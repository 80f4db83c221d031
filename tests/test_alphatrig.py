"""Generalized trigonometric functions: half-period, evaluation, inversion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfolds import alphatrig
from srfolds import (InvalidInput, OdeProblem, arc_alpha, find_roots,
                     integrate, pi_alpha, sin_cos_alpha)
from srfolds.alphatrig import _pi_alpha_quadrature, alpha_table, table_arc_cos

PI_15 = 2.8043642106509084
PI_2 = 2.6220575542921196
PI_3 = 2.4286506478875816


def _ode_half_period(alpha: float) -> float:
    """First positive zero of the generalized sine, by direct ODE integration."""
    def field(t, y):
        f, df = y
        force = 0.0 if f == 0.0 else abs(f) ** (2.0 * (alpha - 1.0)) * f
        return np.array([df, -alpha * force])

    guess = pi_alpha(alpha)
    problem = OdeProblem(dimension=2, vector_field=field,
                         initial_state=np.array([0.0, 1.0]),
                         t_span=(0.0, 1.4 * guess))
    traj = integrate(problem)
    hits = find_roots(lambda t: float(traj(t)[0]), 0.5 * guess, 1.4 * guess,
                      scan_points=200)
    assert len(hits) == 1
    return hits[0].value


class TestPiAlpha:
    def test_classical_value(self):
        assert pi_alpha(1.0) == pytest.approx(math.pi, abs=1e-12)

    def test_quartic_value(self):
        assert abs(pi_alpha(2.0) - PI_2) <= 1e-6

    @pytest.mark.parametrize("alpha,frozen", [(1.5, PI_15), (2.0, PI_2), (3.0, PI_3)])
    def test_frozen_values(self, alpha, frozen):
        assert abs(pi_alpha(alpha) - frozen) <= 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_matches_ode_half_period(self, alpha):
        assert abs(pi_alpha(alpha) - _ode_half_period(alpha)) <= 1e-7

    def test_alpha_validation(self):
        with pytest.raises(InvalidInput):
            pi_alpha(0.5)

    def test_alpha_whose_exponent_overflows_is_rejected(self):
        # 2 alpha is the exponent of the energy law; past 2^1023 it is inf
        assert math.isfinite(pi_alpha(math.nextafter(2.0 ** 1023, 0.0)))
        for alpha in (2.0 ** 1023, 1.7e308):
            with pytest.raises(InvalidInput):
                pi_alpha(alpha)
            with pytest.raises(InvalidInput):
                alpha_table(alpha)


class TestSinCosAlpha:
    def test_classical_quarter_period(self):
        s, c = sin_cos_alpha(1.0, math.pi / 2.0)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_initial_condition(self, alpha):
        s, c = sin_cos_alpha(alpha, 0.0)
        assert s == 0.0
        assert c == 1.0

    def test_quartic_quarter_period(self):
        s, c = sin_cos_alpha(2.0, pi_alpha(2.0) / 2.0)
        assert abs(s - 1.0) <= 1e-9
        assert abs(c - 0.0) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_energy_identity_on_grid(self, alpha):
        period = 2.0 * pi_alpha(alpha)
        ts = np.linspace(-period, period, 257)
        for t in ts:
            s, c = sin_cos_alpha(alpha, float(t))
            assert abs(abs(s) ** (2.0 * alpha) + c * c - 1.0) <= 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_periodicity(self, alpha):
        period = 2.0 * pi_alpha(alpha)
        for t in np.linspace(-period, period, 41):
            s0, c0 = sin_cos_alpha(alpha, float(t))
            s1, c1 = sin_cos_alpha(alpha, float(t) + period)
            assert abs(s1 - s0) <= 1e-9
            assert abs(c1 - c0) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_parity(self, alpha):
        for t in np.linspace(0.05, 2.0 * pi_alpha(alpha), 37):
            s_pos, c_pos = sin_cos_alpha(alpha, float(t))
            s_neg, c_neg = sin_cos_alpha(alpha, -float(t))
            assert abs(s_neg + s_pos) <= 1e-9
            assert abs(c_neg - c_pos) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_ode_residual_second_difference(self, alpha):
        h = 1e-3
        for t in (np.arange(1, 30) + 0.13) * (pi_alpha(alpha) / 15.0):
            sm = sin_cos_alpha(alpha, float(t) - h)[0]
            s0 = sin_cos_alpha(alpha, float(t))[0]
            sp = sin_cos_alpha(alpha, float(t) + h)[0]
            second = (sp - 2.0 * s0 + sm) / (h * h)
            force = -alpha * abs(s0) ** (2.0 * (alpha - 1.0)) * s0
            assert abs(second - force) <= 1e-6


class TestArcAlpha:
    def test_classical_quarter(self):
        assert arc_alpha(1.0, 1.0, +1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_zero_with_positive_cosine(self, alpha):
        assert arc_alpha(alpha, 0.0, +1.0) == pytest.approx(0.0, abs=1e-12)

    def test_second_quadrant_roundtrip(self):
        phi = arc_alpha(2.0, 0.5, -1.0)
        s, c = sin_cos_alpha(2.0, phi)
        assert abs(s - 0.5) <= 1e-9
        assert c < 0.0

    def test_domain_validation(self):
        # a nan s or c_sign must not read as a phase or as a negative sign
        for s, c_sign in ((1.5, +1.0), (math.nan, +1.0), (0.5, math.nan), (math.nan, math.nan)):
            for alpha in (1.0, 2.0):
                with pytest.raises(InvalidInput):
                    arc_alpha(alpha, s, c_sign)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.floats(min_value=-0.95, max_value=0.95),
           st.sampled_from([1.0, -1.0]))
    def test_forward_consistency_property(self, alpha, s, c_sign):
        phi = arc_alpha(alpha, s, c_sign)
        s_back, c_back = sin_cos_alpha(alpha, phi)
        assert abs(s_back - s) <= 1e-9
        assert c_back * c_sign >= 0.0
        assert 0.0 <= phi < 2.0 * pi_alpha(alpha)


class TestArcCosAlpha:
    """The phase of a given cos_alpha, inverted through the complementary form."""

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0, 7.5])
    def test_ends_of_the_quarter(self, alpha):
        assert table_arc_cos(alpha_table(alpha), 0.0) == pi_alpha(alpha) / 2.0
        assert table_arc_cos(alpha_table(alpha), 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0, 7.5])
    @pytest.mark.parametrize("c", [1e-12, 1e-7, 0.3, 0.7])
    def test_roundtrip_through_cos(self, alpha, c):
        # the phase sits next to the quarter period, so its rounding bounds
        # the roundtrip in absolute terms
        s_back, c_back = sin_cos_alpha(alpha, table_arc_cos(alpha_table(alpha), c))
        assert abs(c_back - c) <= 1e-15
        assert s_back > 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("c", [0.3, 0.7])
    def test_agrees_with_arc_alpha(self, alpha, c):
        s = (1.0 - c * c) ** (1.0 / (2.0 * alpha))
        assert abs(table_arc_cos(alpha_table(alpha), c) - arc_alpha(alpha, s, +1.0)) <= 1e-14

    def test_alpha_one_is_acos(self):
        assert table_arc_cos(alpha_table(1.0), 0.25) == math.acos(0.25)


class TestAlphaTrigTable:
    """The per-alpha constants behind the beta-function closed form."""

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_monotone_quarter_samples(self, alpha):
        quarter = pi_alpha(alpha) / 2.0
        ts = np.linspace(0.0, quarter, 2049)
        ss = [sin_cos_alpha(alpha, float(t))[0] for t in ts]
        assert np.all(np.diff(ss) > 0.0)
        assert ss[0] == 0.0
        assert abs(ss[-1] - 1.0) <= 1e-15

    def test_classical_table_value(self):
        assert pi_alpha(1.0) == math.pi

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    def test_beta_form_matches_quadrature(self, alpha):
        assert abs(pi_alpha(alpha) - _pi_alpha_quadrature(alpha)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    def test_arc_of_one_is_exact_quarter(self, alpha):
        assert arc_alpha(alpha, 1.0, +1.0) == pi_alpha(alpha) / 2.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    @pytest.mark.parametrize("d", [1e-12, 1e-9])
    def test_cos_relative_precision_at_quarter(self, alpha, d):
        # cos_alpha(q - dd) = alpha dd (1 + O(dd^2)) next to the quarter period
        t = pi_alpha(alpha) / 2.0 - d
        dd = pi_alpha(alpha) / 2.0 - t
        assert abs(sin_cos_alpha(alpha, t)[1] / (alpha * dd) - 1.0) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 2.5, 3.0, 7.5])
    def test_sin_within_an_ulp_next_to_zero(self, alpha):
        # where x = t^(2 alpha) just clears 2^-53, sin_alpha(t) is
        # t - t x / (2 (2 alpha + 1)) up to t x^2; a power of so small a base
        # with the rounded exponent 1/(2 alpha) misses by several ulp, enough
        # to flip the sign of t cos_alpha(t) - sin_alpha(t) in grushin_conj_f
        rng = np.random.default_rng(7)
        for x in (2.0 ** -rng.uniform(40.0, 53.0, 500)).tolist():
            t = x ** (0.5 / alpha)
            ref = t - t * t ** (2.0 * alpha) / (2.0 * (2.0 * alpha + 1.0))
            assert abs(sin_cos_alpha(alpha, t)[0] - ref) <= math.ulp(t)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    @pytest.mark.parametrize("t", [1e-30, 1e-12, 1e-8, 1e-5])
    def test_sin_relative_precision_at_zero(self, alpha, t):
        # 1e-30 puts sin_alpha^(2 alpha) below the smallest normal double at 7.5
        assert abs(sin_cos_alpha(alpha, t)[0] / t - 1.0) <= 1e-14
        assert abs(arc_alpha(alpha, t, +1.0) / t - 1.0) <= 1e-14


# float() takes text, which is not a number
@pytest.mark.parametrize("call,name", [
    (lambda: pi_alpha("2"), "alpha"),
    (lambda: sin_cos_alpha("abc", 0.5), "alpha"),
    (lambda: arc_alpha(None, 0.5, 1.0), "alpha"),
    (lambda: arc_alpha(2.0, "0.5", 1.0), "s"),
    (lambda: arc_alpha(2.0, 0.5, "x"), "c_sign"),
    (lambda: alpha_table(b"2"), "alpha"),
], ids=["pi_alpha", "sin_cos_alpha", "arc_alpha-alpha", "arc_alpha-s", "arc_alpha-c_sign",
        "alpha_table"])
def test_non_numeric_argument_raises_invalid_input(call, name):
    with pytest.raises(InvalidInput, match=f"{name} must be a real number"):
        call()


def _plain_series_tail(b: float, g: float, x: float) -> float:
    """alphatrig._series_tail with its factors derived at each term."""
    terms, power = [], 1.0
    for n in range(1, 100):
        power *= (n - 1 + b) / n * x
        terms.append(g / (g + n) * power)
        if not power > 1e-20:
            break
    return math.fsum(terms)


def _table_bits(table) -> list:
    """Every field of a table: floats as hex, polynomials as tuples of hex."""
    return [tuple(map(float.hex, field)) if isinstance(field, tuple) else float.hex(field)
            for field in table]


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.5, 2.0, 2.5, 3.0, 7.5, 100.0])
def test_factor_cache_builds_the_plain_loops_table(alpha, monkeypatch):
    # the cached factors are the ones the loop derives, so every coefficient
    # of every table keeps its bits
    cached = alphatrig._table_cached.__wrapped__(alpha)
    monkeypatch.setattr(alphatrig, "_series_tail", _plain_series_tail)
    assert _table_bits(cached) == _table_bits(alphatrig._table_cached.__wrapped__(alpha))


class TestScipyOracle:
    """The standard-library tables against scipy.special's incomplete beta functions.

    scipy serves here only as an oracle. On the first quarter t = q I_x(a, 1/2)
    with x = sin_alpha^(2 alpha), a = 1/(2 alpha) and q = pi_alpha / 2, and
    q - t = q I_y(1/2, a) with y = cos_alpha^2. Each comparison is relative
    on the component the library computes directly: sin_alpha up to t_mid
    (where x = 1/2), cos_alpha above it, and the phase for the inversions.
    Above t_mid the reference takes the library's own gap q - t to the
    quarter, so that it sees the evaluation rather than the last digit of
    pi_alpha, which test_pi_alpha bounds on its own. Where x underflows (t
    or s below about 0.03 at alpha = 100) scipy cannot resolve the phase;
    there sin_alpha(t) = t to the last bit, as the relative-precision tests
    above check, so those samples are left out.
    """

    ALPHAS = [1.0 + 1e-9, 1.0001, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 7.5, 20.0, 100.0]
    BOUND = 1e-14

    @staticmethod
    def _special():
        from scipy import special
        return special

    @classmethod
    def _quarter(cls, alpha):
        a = 0.5 / alpha
        return a, 0.5 * float(cls._special().beta(a, 0.5)) / alpha

    @staticmethod
    def _assert_close(got, ref, bound):
        got, ref = np.asarray(got), np.asarray(ref)
        err = np.abs(got - ref)
        worst = int(np.argmax(err - bound * np.abs(ref)))
        assert np.all(err <= bound * np.abs(ref)), (got[worst], ref[worst])

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_pi_alpha(self, alpha):
        a, quarter = self._quarter(alpha)
        self._assert_close([pi_alpha(alpha)], [2.0 * quarter], self.BOUND)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sin_cos(self, alpha):
        sp = self._special()
        a, quarter = self._quarter(alpha)
        q = pi_alpha(alpha) / 2.0
        t_mid = q * float(sp.betainc(a, 0.5, 0.5))
        rng = np.random.default_rng(4)
        near_mid = t_mid + q * np.concatenate([-(10.0 ** -rng.uniform(2, 15, 100)),
                                               10.0 ** -rng.uniform(2, 15, 100)])
        steps = np.arange(-4, 5)
        t = np.concatenate([
            rng.uniform(0.0, q, 1700), near_mid,
            q * 10.0 ** -rng.uniform(1, 15, 250), q - q * 10.0 ** -rng.uniform(1, 15, 250),
            [np.nextafter(t_mid, np.inf * s) if s else t_mid for s in np.sign(steps)],
            t_mid + steps * np.spacing(t_mid), [0.0, q]])
        s, c = np.array([sin_cos_alpha(alpha, v) for v in t.tolist()]).T
        low = (t <= t_mid) & (t ** (2.0 * alpha) >= np.finfo(float).tiny)
        x = sp.betaincinv(a, 0.5, t[low] / quarter)
        self._assert_close(s[low], x ** a, self.BOUND)
        high = t > t_mid
        gap = q - t[high]
        self._assert_close(c[high], np.sqrt(sp.betaincinv(0.5, a, gap / quarter)), self.BOUND)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_arc(self, alpha):
        sp = self._special()
        a, quarter = self._quarter(alpha)
        rng = np.random.default_rng(5)
        s_mid = 0.5 ** a
        s = np.concatenate([rng.uniform(0.0, 1.0, 1900), 10.0 ** -rng.uniform(1, 15, 200),
                            1.0 - 10.0 ** -rng.uniform(1, 15, 200),
                            s_mid * (1.0 + np.linspace(-1e-13, 1e-13, 41)), [0.0, 1.0]])
        s = s[(s ** (2.0 * alpha) >= np.finfo(float).tiny) | (s == 0.0)]
        tq = np.array([arc_alpha(alpha, v, 1.0) for v in s.tolist()])
        x = s ** (2.0 * alpha)
        low = x <= 0.5
        ref = np.empty_like(s)
        ref[low] = quarter * sp.betainc(a, 0.5, x[low])
        cos_sq = -np.expm1(2.0 * alpha * np.log(s[~low]))
        ref[~low] = quarter - quarter * sp.betainc(0.5, a, cos_sq)
        self._assert_close(tq, ref, self.BOUND)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_arc_cos(self, alpha):
        sp = self._special()
        a, quarter = self._quarter(alpha)
        rng = np.random.default_rng(6)
        c = np.concatenate([rng.uniform(0.0, 1.0, 1600), 10.0 ** -rng.uniform(1, 15, 200),
                            1.0 - 10.0 ** -rng.uniform(1, 15, 200),
                            math.sqrt(0.5) * (1.0 + np.linspace(-1e-13, 1e-13, 41)),
                            [0.0, 1.0]])
        tq = np.array([table_arc_cos(alpha_table(alpha), v) for v in c.tolist()])
        high = c * c <= 0.5
        ref = np.empty_like(c)
        ref[high] = quarter - quarter * sp.betainc(0.5, a, c[high] * c[high])
        ref[~high] = quarter * sp.betainc(a, 0.5, (1.0 - c[~high]) * (1.0 + c[~high]))
        self._assert_close(tq, ref, self.BOUND)
