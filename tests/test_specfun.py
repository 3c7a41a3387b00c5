"""Tests for the special-function layer.

Expected values were generated once with mpmath at 40 digits and frozen
here, so the suite has no runtime dependency on mpmath.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaduplex.specfun import (
    DEFAULT_QUADRATURE,
    QuadratureError,
    QuadratureSpec,
    adaptive_quad,
    erfc,
    hyp2f1_special,
    integrate_semi_infinite,
    lower_gamma_2,
    quad_intervals,
)
from alphaduplex import specfun


class TestErfc:
    def test_frozen_values(self):
        assert erfc(0.25) == pytest.approx(0.72367360983176307, rel=1e-14)
        assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-14)
        assert erfc(2.5) == pytest.approx(0.00040695201744495894, rel=1e-13)

    def test_limits(self):
        assert erfc(0.0) == 1.0
        assert erfc(np.inf) == 0.0

    def test_vectorized(self):
        x = np.array([0.0, 0.25, 1.0])
        out = erfc(x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.72367360983176307, rel=1e-14)

    def test_scalar_in_scalar_out(self):
        assert isinstance(erfc(0.25), float)
        assert isinstance(erfc(np.float64(-3.0)), float)
        assert erfc(np.array([[0.5]])).shape == (1, 1)

    def test_bit_equal_to_scipy(self):
        # every branch on both signs: |x| < 1, [1, 8), [8, 26.6] and the
        # exp(-x^2) underflow at x^2 > MAXLOG (26.64...), plus the specials
        from scipy.special import erfc as scipy_erfc
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e300]
        for b in (1.0, 8.0, np.sqrt(specfun._MAXLOG)):
            edges += [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
        x = np.concatenate([np.linspace(-30.0, 30.0, 600_001),
                            np.linspace(26.5, 27.3, 20_001),
                            np.geomspace(1e-300, 1.0, 10_001),
                            edges])
        x = np.concatenate([x, -x])
        assert np.array_equal(erfc(x), scipy_erfc(x), equal_nan=True)
        assert np.isnan(erfc(np.nan))
        assert (erfc(-np.inf), erfc(40.0), erfc(-40.0)) == (2.0, 0.0, 2.0)


class TestLowerIncompleteGamma:
    # mpmath gammainc(s, 0, x), dps=40, at s = 2, the one order the package
    # evaluates; x on both sides of the switch from series to closed form
    # at x = 0.5
    FROZEN = [
        (2.0, 1e-6, 4.9999966666679162138e-13),
        (2.0, 0.3, 0.036936313113766771646),
        (2.0, 0.5, 0.090204010431049864594),
        (2.0, 5.0, 0.95957231800548719742),
        (2.0, 50.0, 0.99999999999999999999),
    ]

    @pytest.mark.parametrize("s,x,expected", FROZEN)
    def test_frozen_values(self, s, x, expected):
        assert lower_gamma_2(x) == pytest.approx(expected, rel=1e-13)

    def test_unnormalized(self):
        # gamma(2, inf) = Gamma(2) = 1, the complete gamma, not a ratio
        from scipy.special import gamma as Gamma
        assert lower_gamma_2(1e3) == Gamma(2.0)
        assert lower_gamma_2(np.inf) == Gamma(2.0)

    def test_at_zero(self):
        assert lower_gamma_2(0.0) == 0.0

    def test_order_2_matches_scipy(self):
        # gamma(2, x) is the only order the power moment uses
        from scipy.special import gamma, gammainc
        x = np.geomspace(1e-300, 700, 20001)
        # below the smallest normal double scipy flushes to 0 while the
        # series keeps subnormal digits; both are zero to working precision
        np.testing.assert_allclose([lower_gamma_2(v) for v in x.tolist()],
                                   gammainc(2.0, x) * gamma(2.0),
                                   rtol=1e-13, atol=np.finfo(float).tiny)

    def test_order_2_bit_equal_to_scipy_at_reference(self):
        # c = pi lambda (p_u_max / rho)^(2/eta) at the reference config; the
        # eta = 4 outputs stay byte-identical because this value does
        from scipy.special import gamma, gammainc
        c = 0.9424777960769379
        assert lower_gamma_2(c) == gammainc(2.0, c) * gamma(2.0)


class TestHyp2f1Special:
    # mpmath hyp2f1(1, b, b+1, -x), dps=40
    FROZEN = [
        (0.6, 7.3, 0.40329004911955482),
        (0.5, 2.0, 0.67551085885603996),
        (0.25, 0.7, 0.89712366217420057),
        (0.75, 150.0, 0.057768922875636097),
        (0.5, 1.0e6, 0.0015697963271282298),
        (0.9, 1.0, 0.70691806287150421),
        # b = 1 - 2/3.5 and 1 - 2/3, out to the downlink LT's largest arguments
        (1.0 - 2.0 / 3.5, 0.5, 0.88280229967162098),
        (1.0 - 2.0 / 3.5, 1.0e4, 0.026588362253077922),
        (1.0 - 2.0 / 3.5, 1.0e9, 0.00019189162844920755),
        (1.0 - 2.0 / 3.5, 1.0e15, 5.1478887606191424e-7),
        (1.0 - 2.0 / 3.5, 1.0e20, 3.7048617926113964e-9),
        (1.0 - 2.0 / 3.0, 0.5, 0.90164425852750967),
        (1.0 - 2.0 / 3.0, 1.0e4, 0.056076074502831697),
        (1.0 - 2.0 / 3.0, 1.0e9, 0.0012091990761561454),
        (1.0 - 2.0 / 3.0, 1.0e15, 1.2091995761061452e-5),
        (1.0 - 2.0 / 3.0, 1.0e20, 2.6051415140425999e-7),
    ]

    @pytest.mark.parametrize("b,x,expected", FROZEN)
    def test_frozen_values(self, b, x, expected):
        assert hyp2f1_special(b, x) == pytest.approx(expected, rel=1e-12)

    def test_at_zero(self):
        assert hyp2f1_special(0.3, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert hyp2f1_special(0.3, 0.0) <= 1.0

    def test_scalar_and_array(self):
        xs = np.array([0.0, 2.0, 150.0])
        out = hyp2f1_special(0.5, xs)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(hyp2f1_special(0.5, 2.0), rel=1e-15)

    @given(st.floats(min_value=1e-6, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_arctan_identity(self, z):
        # 2F1(1, 1/2; 3/2; -z) = arctan(sqrt z) / sqrt z
        expected = np.arctan(np.sqrt(z)) / np.sqrt(z)
        assert hyp2f1_special(0.5, z) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=1e8))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_monotonicity(self, b, x):
        val = hyp2f1_special(b, x)
        assert 0.0 < val <= 1.0
        # decreasing in x
        assert hyp2f1_special(b, x + 1.0) <= val + 1e-14

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hyp2f1_special(1.0, 2.0)
        with pytest.raises(ValueError):
            hyp2f1_special(0.0, 2.0)
        with pytest.raises(ValueError):
            hyp2f1_special(0.5, -0.1)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-9
        assert spec.abs_tol == 1e-12
        assert specfun._MAX_SUBDIVISIONS == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1e-9)

    def test_frozen(self):
        spec = QuadratureSpec()
        with pytest.raises(AttributeError):
            spec.rel_tol = 1e-3


class TestAdaptiveQuad:
    def test_polynomial_is_exact(self):
        # GK15 is exact for degree <= 22
        val = adaptive_quad(lambda t: 3.0 * t**2, 0.0, 2.0)
        assert val == pytest.approx(8.0, rel=1e-14)

    def test_gaussian(self):
        val = adaptive_quad(lambda t: np.exp(-t * t), 0.0, 10.0)
        assert val == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-12)

    def test_frozen_log_integrand(self):
        # int_0^3 ln(1+t)/(1+t^2) dt, mpmath dps=40
        val = adaptive_quad(lambda t: np.log1p(t) / (1.0 + t * t), 0.0, 3.0)
        assert val == pytest.approx(0.72981827045705215, rel=1e-12)

    def test_needs_subdivision(self):
        # narrow spike at t = 0.137 forces the adaptive refinement path
        val = adaptive_quad(
            lambda t: np.exp(-((t - 0.137) / 1e-3) ** 2), 0.0, 1.0)
        assert val == pytest.approx(1e-3 * np.sqrt(np.pi), rel=1e-10)

    def test_linearity(self):
        f = lambda t: np.cos(t)
        g = lambda t: t**3
        a, b = 0.2, 1.9
        lhs = adaptive_quad(lambda t: 2.0 * f(t) - 0.5 * g(t), a, b)
        rhs = 2.0 * adaptive_quad(f, a, b) - 0.5 * adaptive_quad(g, a, b)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 3)
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
        with pytest.raises(QuadratureError):
            adaptive_quad(lambda t: np.sin(1e5 * t), 0.0, 1.0, spec)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("f, operation", [
        (lambda t: np.log(t - 2.0), "invalid value encountered in log"),
        # the Gauss rule weighs some Kronrod nodes 0, and 0 * inf is nan
        (lambda t: np.full_like(t, np.inf), "invalid value encountered in matmul"),
        # every value finite, the panel sums not
        (lambda t: np.full_like(t, 1.7e308), "overflow encountered in matmul"),
    ], ids=["nan", "inf", "sum_overflows"])
    def test_non_finite_values_fail_at_once(self, f, operation):
        # no bisection mends them: the first pass raises, with no warning
        calls = []

        def counted(t):
            calls.append(1)
            return f(t)

        with pytest.raises(QuadratureError) as info:
            adaptive_quad(counted, 0.0, 1.0)
        assert str(info.value) == f"the integrand has no finite value: {operation}"
        assert len(calls) == 1

    def test_scalar_family_returns_float(self):
        val = adaptive_quad(lambda t: np.cos(t), 0.0, 1.0)
        assert type(val) is float
        assert val == pytest.approx(np.sin(1.0), rel=1e-14)


class TestAdaptiveQuadFamily:
    # a (2, 3) family: smooth, peaked and spiked members, so the shared
    # subdivision tree must refine for the narrowest one
    WIDTHS = np.array([[1.0, 0.1, 0.01], [0.3, 0.03, 3e-3]])
    CENTER = 0.137

    def family(self, t):
        w = self.WIDTHS[..., None]
        return np.exp(-((t - self.CENTER) / w) ** 2)

    def test_matches_per_component_integrals(self):
        val = adaptive_quad(self.family, 0.0, 1.0)
        assert val.shape == self.WIDTHS.shape
        for idx in np.ndindex(self.WIDTHS.shape):
            w = self.WIDTHS[idx]
            single = adaptive_quad(
                lambda t: np.exp(-((t - self.CENTER) / w) ** 2), 0.0, 1.0)
            assert val[idx] == pytest.approx(single, rel=1e-9)

    def test_one_call_per_pass(self):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return self.family(t)

        adaptive_quad(f, 0.0, 1.0)
        # 8 initial panels x 15 nodes, then both halves of each bisection
        assert sizes[0] == 8 * 15
        assert len(sizes) > 1
        assert all(n == 2 * 15 for n in sizes[1:])

    def test_exhausted_budget_raises_after_budget_calls(self, monkeypatch):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.stack([np.cos(t), np.sin(1e5 * t)])

        monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 5)
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
        with pytest.raises(QuadratureError):
            adaptive_quad(f, 0.0, 1.0, spec)
        assert len(calls) == 1 + specfun._MAX_SUBDIVISIONS


class TestQuadIntervals:
    # 40 Gaussian bumps, each on its own interval; the narrow ones need
    # bisection under a tight tolerance
    N = 40
    A = np.linspace(-1.0, 0.5, N)
    B = A + np.linspace(0.5, 3.0, N)
    WIDTH = np.geomspace(1.0, 1e-3, N)
    CENTER = A + 0.3
    LOOSE = QuadratureSpec(rel_tol=1e-3, abs_tol=1.0)
    TIGHT = QuadratureSpec(rel_tol=1e-12)

    def integrand(self, calls):
        def rows(sel):
            w, c = self.WIDTH[sel, None], self.CENTER[sel, None]

            def f(x):
                calls.append(x.size)
                x = x.reshape(len(w), -1)
                return np.exp(-((x - c) / w) ** 2).ravel()
            return f
        return rows

    def run(self, abs_tol, spec, calls=None):
        return quad_intervals(self.integrand([] if calls is None else calls),
                              self.A, self.B, abs_tol, spec)

    def one_by_one(self, abs_tol, spec):
        return [adaptive_quad(self.integrand([])(slice(j, j + 1)),
                              self.A[j], self.B[j],
                              QuadratureSpec(spec.rel_tol, abs_tol[j]))
                for j in range(self.N)]

    def test_one_seed_pass_is_one_call(self):
        calls = []
        vals = self.run(np.full(self.N, self.LOOSE.abs_tol), self.LOOSE, calls)
        assert calls == [self.N * 8 * 15]
        assert all(isinstance(v, float) for v in vals)

    def test_bit_equal_to_adaptive_quad_with_fallback(self, monkeypatch):
        abs_tol = np.geomspace(1e-10, 1e-16, self.N)
        expected = self.one_by_one(abs_tol, self.TIGHT)
        fallbacks = []
        real = specfun.adaptive_quad

        def counted(*args, **kwargs):
            fallbacks.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(specfun, "adaptive_quad", counted)
        assert self.run(abs_tol, self.TIGHT) == expected
        assert 0 < len(fallbacks) < self.N


class TestIntegrateSemiInfinite:
    def test_sqrt_pi(self):
        # int_0^inf e^-z / sqrt(z) dz = sqrt(pi)
        val = integrate_semi_infinite(lambda z: np.exp(-z) / np.sqrt(z))
        assert val == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_decay_rate_two(self):
        # int_0^inf e^-2z / sqrt(z) dz = sqrt(pi/2)
        val = integrate_semi_infinite(
            lambda z: np.exp(-2.0 * z) / np.sqrt(z), decay_rate=2.0)
        assert val == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-12)

    def test_frozen_damped_kernel(self):
        # int_0^inf e^-z e^{-0.8 sqrt z} / sqrt z dz, mpmath dps=40;
        # same shape as the interference-averaged BER integrands
        val = integrate_semi_infinite(
            lambda z: np.exp(-z) * np.exp(-0.8 * np.sqrt(z)) / np.sqrt(z))
        assert val == pytest.approx(1.1889403931860825, rel=1e-11)

    def test_dense_grid_oracle(self):
        # trapezoid on the substituted smooth integrand as an independent
        # check; 2 t f(t^2) written out to avoid 0/0 at the origin
        f = lambda z: np.exp(-1.3 * z) * np.cos(0.7 * z) / np.sqrt(z)
        t = np.linspace(0.0, 7.0, 2_000_001)
        g = 2.0 * np.exp(-1.3 * t * t) * np.cos(0.7 * t * t)
        oracle = np.trapezoid(g, t)
        val = integrate_semi_infinite(f, decay_rate=1.3)
        assert val == pytest.approx(oracle, rel=1e-9)

    def test_vector_valued_integrand(self):
        # int_0^inf e^(-c z) / sqrt(z) dz = sqrt(pi / c), for each c at once
        rates = np.array([1.0, 1.5, 2.0, 4.0])
        val = integrate_semi_infinite(
            lambda z: np.exp(-rates[:, None] * z) / np.sqrt(z))
        assert val.shape == rates.shape
        np.testing.assert_allclose(val, np.sqrt(np.pi / rates), rtol=1e-12)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda z: np.exp(-z), decay_rate=0.0)
