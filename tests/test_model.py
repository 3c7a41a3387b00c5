"""Tests for system parameters, the serving-distance density, and power moments."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mc_oracles import distance_pdf

from alphaduplex import model
from alphaduplex.model import (
    Direction,
    M_PER_KM,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    max_inversion_radius_m,
    per_km2_to_per_m2,
    uplink_power_moment,
)
from alphaduplex.specfun import adaptive_quad


class TestConverters:
    def test_dbm(self):
        assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)

    def test_db(self):
        assert db_to_linear(-80.0) == pytest.approx(1e-8, rel=1e-12)
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)

    def test_intensity(self):
        assert per_km2_to_per_m2(3.0) == pytest.approx(3e-6, rel=1e-15)


class TestSystemParams:
    def test_defaults_are_reference_configuration(self):
        p = SystemParams()
        assert p.lambda_bs == 3.0
        assert p.eta == 4.0
        assert p.rho == pytest.approx(dbm_to_watts(-70.0))
        assert p.p_b == 5.0
        assert p.p_u_max == 1.0
        assert p.beta == pytest.approx(db_to_linear(-80.0))
        assert p.n0 == pytest.approx(dbm_to_watts(-90.0))
        assert p.b_u == 1e6 and p.b_d == 1e6
        assert p.omega1_u == p.omega2_u == p.omega1_d == p.omega2_d == 1.0
        assert p.m_symbols == 2

    @pytest.mark.parametrize("bad", [
        dict(eta=2.0),
        dict(eta=1.5),
        dict(rho=2.0, p_u_max=1.0),
        dict(beta=1.5),
        dict(beta=-0.1),
        dict(m_symbols=1),
        dict(lambda_bs=0.0),
        dict(p_b=-5.0),
        dict(n0=0.0),
        dict(b_u=-1e6),
        dict(omega1_u=2.0),
        dict(omega1_d=1.0 + 1e-12),
        dict(omega1_u=0.0),
        dict(b_d=1e12),
        dict(b_d=1.0),
        dict(b_u=999.0, b_d=1e6),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            SystemParams(**bad)

    def test_closed_bounds_accepted(self):
        # BER scale omega1 up to 1, bandwidth ratio up to 1000 either way
        assert SystemParams(omega1_u=1.0, omega1_d=1.0).omega1_d == 1.0
        assert SystemParams(b_u=1e3, b_d=1e6).b_u == 1e3
        assert SystemParams(b_u=1e9, b_d=1e6).b_u == 1e9

    def test_beta_zero_allowed(self):
        assert SystemParams(beta=0.0).beta == 0.0

    def test_frozen(self):
        p = SystemParams()
        with pytest.raises(AttributeError):
            p.eta = 3.0

    def test_omega_lookup(self):
        p = SystemParams(omega1_u=0.5, omega2_u=2.0, omega1_d=0.25, omega2_d=3.0)
        assert p.omega(Direction.UPLINK) == (0.5, 2.0)
        assert p.omega(Direction.DOWNLINK) == (0.25, 3.0)

    def test_noise_variance_is_half_n0(self):
        for n0 in (1e-12, 3.7e-15):
            p = SystemParams(n0=n0)
            assert p.sigma_n_sq == 0.5 * n0
        with pytest.raises(AttributeError):
            p.sigma_n_sq = 1.0


class TestMaxInversionRadius:
    def test_reference_value(self):
        # (1 W / 1e-10 W)^(1/4) = 10^2.5 m
        p = SystemParams()
        assert max_inversion_radius_m(p) == pytest.approx(10.0 ** 2.5, rel=1e-12)

    def test_scaling(self):
        p = SystemParams(eta=3.0, rho=1e-9)
        assert max_inversion_radius_m(p) == pytest.approx(1e3, rel=1e-12)


class TestDistancePdf:
    def test_zero_beyond_support(self):
        p = SystemParams()
        r_max_km = max_inversion_radius_m(p) / M_PER_KM
        assert distance_pdf(r_max_km * 1.0001, p) == 0.0
        assert distance_pdf(5.0, p) == 0.0

    def test_positive_inside_support(self):
        p = SystemParams()
        assert distance_pdf(0.1, p) > 0.0

    def test_normalization(self):
        p = SystemParams()
        r_max_km = max_inversion_radius_m(p) / M_PER_KM
        total = adaptive_quad(lambda r: distance_pdf(r, p), 0.0, r_max_km)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_normalization_other_eta(self):
        p = SystemParams(eta=3.3, lambda_bs=1.7)
        r_max_km = max_inversion_radius_m(p) / M_PER_KM
        total = adaptive_quad(lambda r: distance_pdf(r, p), 0.0, r_max_km)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_untruncated_limit(self):
        # p_u_max huge: truncation vanishes, density -> 2 pi lam r e^(-pi lam r^2)
        p = SystemParams(p_u_max=1e12)
        pi_lam = math.pi * p.lambda_bs
        for r in [0.05, 0.2, 0.5, 1.0]:
            expected = 2.0 * pi_lam * r * math.exp(-pi_lam * r * r)
            assert distance_pdf(r, p) == pytest.approx(expected, rel=1e-9)

    def test_vectorized(self):
        p = SystemParams()
        r = np.array([0.0, 0.1, 0.2, 5.0])
        out = distance_pdf(r, p)
        assert out.shape == (4,)
        assert out[0] == 0.0 and out[3] == 0.0
        assert out[1] == pytest.approx(distance_pdf(0.1, p), rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            distance_pdf(-0.1, SystemParams())


class TestUplinkPowerMoment:
    def test_monte_carlo_oracle_half_moment(self):
        # E[(rho R^eta)^0.5] by inverse-CDF sampling of the serving distance
        p = SystemParams()
        a = 2.0 / p.eta
        rng = np.random.default_rng(2024)
        n = 1_000_000
        pi_lam = math.pi * p.lambda_per_m2
        c = pi_lam * (p.p_u_max / p.rho) ** (2.0 / p.eta)
        u = rng.random(n)
        r_m = np.sqrt(-np.log1p(u * math.expm1(-c)) / pi_lam)
        samples = (p.rho * r_m ** p.eta) ** a
        mc_mean = samples.mean()
        mc_se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(uplink_power_moment(a, p) - mc_mean) < 3.0 * mc_se

    def test_untruncated_limit(self):
        # p_u_max -> inf: E[P_u^a] -> rho^a Gamma(a eta/2 + 1) / (pi lam)^(a eta/2)
        from scipy.special import gamma as Gamma
        p = SystemParams(p_u_max=1e30)
        pi_lam = math.pi * p.lambda_per_m2
        for a in [0.25, 0.5, 1.0]:
            expected = p.rho ** a * Gamma(a * p.eta / 2.0 + 1.0) / pi_lam ** (
                a * p.eta / 2.0)
            assert uplink_power_moment(a, p) == pytest.approx(expected, rel=1e-9)

    def test_zeroth_moment_limit(self):
        assert uplink_power_moment(1e-12, SystemParams()) == pytest.approx(
            1.0, abs=1e-6)

    def test_consistency_with_distance_pdf(self):
        # E[P_u^a] must equal int (rho r^eta)^a f_R(r) dr with r in meters
        p = SystemParams()
        a = 0.7
        r_max_km = max_inversion_radius_m(p) / M_PER_KM

        def integrand(r_km):
            power = p.rho * (M_PER_KM * r_km) ** p.eta
            return power ** a * distance_pdf(r_km, p)

        by_quadrature = adaptive_quad(integrand, 0.0, r_max_km)
        assert uplink_power_moment(a, p) == pytest.approx(by_quadrature, rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_rho(self, a, scale):
        # raising the power-control target raises every moment
        lo = SystemParams(rho=1e-10 * scale)
        hi = SystemParams(rho=2e-10 * scale)
        assert uplink_power_moment(a, hi) > uplink_power_moment(a, lo)

    @given(st.floats(min_value=2.0, max_value=1000.0, exclude_min=True))
    @example(math.nextafter(2.0, 3.0))
    @example(49.0)   # 2/49 * 49 is 1.9999999999999998
    @example(1000.0)
    @settings(max_examples=200, deadline=None)
    def test_fractional_moment_takes_the_elementary_branch(self, eta):
        # the closed forms ask E[P_u^(2/eta)]; its gamma order a eta/2 + 1
        # rounds to 2.0 exactly, so gamma(2, x) is evaluated in elementary
        # terms at every eta and scipy's branch is never reached
        orders = []
        real = model.lower_incomplete_gamma

        def recorded(s, x):
            orders.append(s)
            return real(s, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "lower_incomplete_gamma", recorded)
            uplink_power_moment(2.0 / eta, SystemParams(eta=eta))
        assert orders == [2.0]

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            uplink_power_moment(0.0, SystemParams())
        with pytest.raises(ValueError):
            uplink_power_moment(-0.5, SystemParams())
