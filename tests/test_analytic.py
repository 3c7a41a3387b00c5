"""Closed-form interference transforms and BER assembly.

Oracles: brute-force scipy quadrature of the defining point-process
integrals, Monte Carlo realizations of the same processes (3 standard
errors), an independent scipy evaluation of the assembled BER integrals,
and the eta = 4 arctan forms against the package's 2F1 kernel.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mc_oracles as O
from alphaduplex.analytic import (
    LinkMetrics,
    _bs_on_downlink,
    _bs_on_uplink,
    _ue_on_downlink,
    _ue_on_uplink,
    _x_hyp2f1,
    ber_downlink,
    ber_uplink,
    hamdi_average,
)
from alphaduplex.model import Direction, SystemParams
from alphaduplex.pulse import (
    BandPlan,
    InterferenceFactors,
    PulseKind,
    PulsePair,
    interference_factors,
    make_pulses,
)
from alphaduplex.specfun import hyp2f1_special

REF = SystemParams()
FULL = InterferenceFactors(1.0, 1.0)
ZERO = InterferenceFactors(0.0, 0.0)
HALF = InterferenceFactors(0.5, 0.3)
RT_PAIR = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)


def rt_factors(alpha: float, p: SystemParams = REF) -> InterferenceFactors:
    plan = BandPlan(p.b_u, p.b_d, alpha)
    pulse_u, pulse_d = make_pulses(RT_PAIR, plan)
    return interference_factors(plan, pulse_u, pulse_d)


class TestTransformValues:
    """Closed forms against brute-force quadrature of the defining integrals."""

    def test_bs_on_uplink_matches_brute(self):
        for s, fac in [(1.0, FULL), (0.3, HALF), (5.0, FULL)]:
            assert O.laplace(_bs_on_uplink(fac, REF), s) == pytest.approx(
                O.lt_brute_bs_on_uplink(s, fac, REF), rel=1e-10)

    def test_ue_on_uplink_matches_brute(self):
        for s in (0.7, 1.0, 5.0):
            assert O.laplace(_ue_on_uplink(REF), s) == pytest.approx(
                O.lt_brute_ue_on_uplink(s, REF), rel=1e-10)

    def test_bs_on_downlink_matches_brute(self):
        for s, r_o in [(1.0, 200.0), (3.0, 120.0), (0.4, 316.0)]:
            assert O.laplace(_bs_on_downlink(REF), s, r_o) == pytest.approx(
                O.lt_brute_bs_on_downlink(s, r_o, REF), rel=1e-10)

    def test_ue_on_downlink_matches_brute(self):
        for s, r_o, fac in [(0.5, 150.0, HALF), (1.0, 250.0, FULL),
                            (3.0, 80.0, HALF)]:
            ue = _ue_on_downlink(fac, REF)
            assert O.laplace(ue, s, r_o) == pytest.approx(
                O.lt_brute_ue_on_downlink(s, r_o, fac, REF), rel=1e-10)

    def test_frozen_reference_values(self):
        # brute-force quadrature results frozen at the default parameters
        assert O.laplace(_bs_on_uplink(FULL, REF), 1.0) == pytest.approx(
            0.036502813003289974, rel=1e-9)
        assert O.laplace(_ue_on_uplink(REF), 0.7) == pytest.approx(
            0.7928167764743386, rel=1e-9)
        assert O.laplace(_ue_on_uplink(REF), 5.0) == pytest.approx(
            0.3590019400154359, rel=1e-9)
        assert O.laplace(_bs_on_downlink(REF), 1.0, 200.0) == pytest.approx(
            0.7437218794107743, rel=1e-9)
        assert O.laplace(_ue_on_downlink(HALF, REF), 0.5, 150.0) == \
            pytest.approx(0.9993955856805294, rel=1e-9)
        assert O.laplace(_ue_on_downlink(FULL, REF), 1.0, 250.0) == \
            pytest.approx(0.970113628191571, rel=1e-9)


class TestTransformMonteCarlo:
    """3-standard-error agreement with point-process realizations."""

    def test_bs_on_uplink(self):
        exact = O.laplace(_bs_on_uplink(FULL, REF), 1.0)
        est, se = O.lt_oracle_bs_on_uplink(1.0, FULL, REF,
                                           n_patterns=10_000, seed=11)
        assert se < 2e-3
        assert abs(est - exact) < 3.0 * se

    def test_ue_on_uplink(self):
        exact = O.laplace(_ue_on_uplink(REF), 0.7)
        est, se = O.lt_oracle_ue_on_uplink(0.7, REF, n_patterns=4000, seed=20)
        assert se < 5e-3
        assert abs(est - exact) < 3.0 * se

    def test_bs_on_downlink(self):
        exact = O.laplace(_bs_on_downlink(REF), 1.0, 200.0)
        est, se = O.lt_oracle_bs_on_downlink(1.0, 200.0, REF,
                                             n_patterns=3000, seed=15)
        assert se < 6e-3
        assert abs(est - exact) < 3.0 * se

    def test_ue_on_downlink(self):
        exact = O.laplace(_ue_on_downlink(FULL, REF), 1.0, 250.0)
        est, se = O.lt_oracle_ue_on_downlink(1.0, 250.0, FULL, REF,
                                             n_patterns=3000, seed=18)
        assert se < 2e-3
        assert abs(est - exact) < 3.0 * se


class TestTransformBasics:
    def test_value_one_at_s_zero(self):
        assert O.laplace(_bs_on_uplink(FULL, REF), 0.0) == 1.0
        assert O.laplace(_ue_on_uplink(REF), 0.0) == 1.0
        assert O.laplace(_bs_on_downlink(REF), 0.0, 150.0) == 1.0
        assert O.laplace(_ue_on_downlink(FULL, REF), 0.0, 150.0) == 1.0

    def test_zero_cross_factor_silences_interference(self):
        for s in (0.5, 1.0, 10.0):
            assert O.laplace(_bs_on_uplink(ZERO, REF), s) == 1.0
            assert O.laplace(_ue_on_downlink(ZERO, REF), s, 200.0) == 1.0

    def test_vanishing_density_limit(self):
        sparse = dataclasses.replace(REF, lambda_bs=1e-12)
        for s in (0.5, 2.0):
            for lt in (O.laplace(_bs_on_uplink(FULL, sparse), s),
                       O.laplace(_ue_on_uplink(sparse), s),
                       O.laplace(_bs_on_downlink(sparse), s, 200.0),
                       O.laplace(_ue_on_downlink(FULL, sparse), s, 200.0)):
                assert lt == pytest.approx(1.0, abs=1e-6)

    def test_small_serving_distance_limit(self):
        assert O.laplace(_bs_on_downlink(REF), 1.0, 1e-6) == pytest.approx(
            1.0, abs=1e-9)

    def test_vectorized_s_matches_scalars(self):
        s = np.array([0.0, 0.5, 1.0, 4.0])
        ue = _ue_on_uplink(REF)
        vec = O.laplace(ue, s)
        assert vec.shape == s.shape
        for i, si in enumerate(s):
            assert vec[i] == pytest.approx(O.laplace(ue, float(si)), rel=1e-14)

    def test_broadcasting_downlink(self):
        s = np.array([0.5, 1.0, 2.0])[:, None]
        r = np.array([100.0, 200.0, 300.0, 316.0])[None, :]
        bs = _bs_on_downlink(REF)
        out = O.laplace(bs, s, r)
        assert out.shape == (3, 4)
        assert out[1, 1] == pytest.approx(O.laplace(bs, 1.0, 200.0), rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(s1=st.floats(0.0, 50.0), s2=st.floats(0.0, 50.0))
    def test_bounded_and_nonincreasing(self, s1, s2):
        lo, hi = sorted((s1, s2))
        for lt in (lambda s: O.laplace(_bs_on_uplink(HALF, REF), s),
                   lambda s: O.laplace(_ue_on_uplink(REF), s),
                   lambda s: O.laplace(_bs_on_downlink(REF), s, 180.0),
                   lambda s: O.laplace(_ue_on_downlink(HALF, REF), s, 180.0)):
            v_lo, v_hi = lt(lo), lt(hi)
            assert 0.0 < v_hi <= v_lo <= 1.0 + 1e-12


class TestHamdiAverage:
    def test_degenerate_interference_closed_form(self):
        # y = 0: E[w1 erfc(sqrt(w2 x / b))] = w1 (1 - sqrt(w2/(w2+b)))
        one = lambda z: np.ones_like(np.asarray(z, dtype=float))
        for w1, w2, b in [(1.0, 1.0, 0.5), (0.5, 1.0, 0.005), (2.0, 3.0, 4.0)]:
            expected = w1 * (1.0 - math.sqrt(w2 / (w2 + b)))
            assert hamdi_average(one, w1, w2, b) == pytest.approx(expected, rel=1e-9)

    def test_zero_constant_is_zero(self):
        one = lambda z: np.ones_like(np.asarray(z, dtype=float))
        assert hamdi_average(one, 1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_noise_dominated_limit(self):
        one = lambda z: np.ones_like(np.asarray(z, dtype=float))
        assert hamdi_average(one, 0.5, 1.0, 1e10) == pytest.approx(0.5, rel=1e-4)

    def test_exponential_interference_monte_carlo(self):
        mean_y = 0.8
        lt = lambda z: 1.0 / (1.0 + mean_y * z)
        exact = hamdi_average(lt, 0.5, 1.0, 0.005)
        est, se = O.hamdi_oracle_exp(0.5, 1.0, 0.005, mean_y,
                                     n_samples=2_000_000, seed=7)
        assert se < 2e-4
        assert abs(est - exact) < 3.0 * se

    def test_nondecreasing_in_constant(self):
        lt = lambda z: 1.0 / (1.0 + z)
        vals = [hamdi_average(lt, 1.0, 1.0, b) for b in (0.0, 0.01, 0.1, 1.0, 10.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @settings(max_examples=30, deadline=None)
    @given(mean_y=st.floats(0.01, 20.0), b=st.floats(0.0, 50.0))
    def test_stays_within_range(self, mean_y, b):
        lt = lambda z: 1.0 / (1.0 + mean_y * z)
        val = hamdi_average(lt, 0.5, 1.0, b)
        assert 0.0 <= val <= 0.5

    @pytest.mark.parametrize("w2, b", [(1.0, math.inf), (1e-10, 1e300)],
                             ids=["infinite", "overflowing_ratio"])
    def test_infinite_constant_gives_omega1(self, w2, b):
        # b / w2 = inf: the SINR is 0, erfc(0) = 1, and no inf * 0 is formed
        one = lambda z: np.ones_like(np.asarray(z, dtype=float))
        assert hamdi_average(one, 0.5, w2, b) == 0.5

    def test_rejects_bad_arguments(self):
        one = lambda z: np.ones_like(np.asarray(z, dtype=float))
        with pytest.raises(ValueError):
            hamdi_average(one, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            hamdi_average(one, 1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            hamdi_average(one, 1.0, 1.0, -0.1)


class TestBerAssembly:
    def test_uplink_matches_independent_integrator(self):
        fac = rt_factors(0.5)
        mine = ber_uplink(0.5, fac, REF).ber
        ref = O.ber_uplink_scipy_reference(fac, REF)
        assert mine == pytest.approx(ref, rel=1e-8)

    def test_downlink_matches_independent_integrator(self):
        fac = rt_factors(0.5)
        mine = ber_downlink(0.5, fac, REF).ber
        ref = O.ber_downlink_scipy_reference(fac, REF)
        assert mine == pytest.approx(ref, rel=1e-6)

    def test_frozen_regression_values(self):
        # defaults (beta = -80 dB), triangular uplink / rectangular downlink
        expected = {
            0.0: (0.2239412749088978, 0.12091846805853856),
            0.5: (0.9144962758968657, 0.2198228715023539),
            1.0: (0.957895868794232, 0.31080327614292313),
        }
        for alpha, (ul, dl) in expected.items():
            fac = rt_factors(alpha)
            assert ber_uplink(alpha, fac, REF).ber == pytest.approx(ul, rel=1e-7)
            assert ber_downlink(alpha, fac, REF).ber == pytest.approx(dl, rel=1e-7)

    # float.hex of (i_du_sq, i_ud_sq) per alpha, and of (uplink BER,
    # downlink BER) per (eta, alpha), defaults otherwise: a refactor of the
    # closed forms must leave every bit where it is
    FROZEN_FACTOR_BITS = {
        0.0: ("0x1.e047ec5070e62p-12", "0x1.2ed8abe1099c8p-11"),
        0.3: ("0x1.c41f8c9317a8ap-10", "0x1.c931b9bd7206fp-6"),
        0.7: ("0x1.54c4ae43270f1p-1", "0x1.57581e0aa99c2p-1"),
        1.0: ("0x1.e95ac8dd0275ep-1", "0x1.e95ac8dd0275ep-1"),
    }
    FROZEN_BER_BITS = {
        (4.0, 0.0): ("0x1.caa1b91faa854p-3", "0x1.ef48341cb3958p-4"),
        (4.0, 0.3): ("0x1.71697714a2f9cp-2", "0x1.1c562ff8b5208p-3"),
        (4.0, 0.7): ("0x1.e62e997c84ab0p-1", "0x1.224f1edd4f67ep-2"),
        (4.0, 1.0): ("0x1.ea7153cae3b42p-1", "0x1.3e4336ca18132p-2"),
        (3.5, 0.0): ("0x1.9e6e1b0f051d0p-2", "0x1.080cde8749f7ap-2"),
        (3.5, 0.3): ("0x1.059c3811ac22cp-1", "0x1.090429a90a306p-2"),
        (3.5, 0.7): ("0x1.eb82721361fe8p-1", "0x1.1a2eb34245fc8p-2"),
        (3.5, 1.0): ("0x1.eee390f8495b0p-1", "0x1.1ff457f57a52ap-2"),
        (3.0, 0.0): ("0x1.3830d23067226p-1", "0x1.4ec5e317ef0d8p-2"),
        (3.0, 0.3): ("0x1.795a0b83308e0p-1", "0x1.4ec70ebc57cfep-2"),
        (3.0, 0.7): ("0x1.f7d27c00d6080p-1", "0x1.4ee290821b4f0p-2"),
        (3.0, 1.0): ("0x1.f92cac6395ee3p-1", "0x1.4eeec1dff44c8p-2"),
    }

    def test_frozen_bits(self):
        factors = {alpha: rt_factors(alpha) for alpha in self.FROZEN_FACTOR_BITS}
        for alpha, (du, ud) in self.FROZEN_FACTOR_BITS.items():
            assert factors[alpha].i_du_sq == float.fromhex(du)
            assert factors[alpha].i_ud_sq == float.fromhex(ud)
        for (eta, alpha), (ul, dl) in self.FROZEN_BER_BITS.items():
            p = dataclasses.replace(REF, eta=eta)
            assert ber_uplink(alpha, factors[alpha], p).ber == float.fromhex(ul)
            assert ber_downlink(alpha, factors[alpha], p).ber == float.fromhex(dl)

    def test_interference_and_noise_free_limit(self):
        clean = dataclasses.replace(REF, lambda_bs=1e-9, beta=0.0, n0=1e-22)
        assert ber_uplink(0.0, ZERO, clean).ber < 1e-9
        assert ber_downlink(0.0, ZERO, clean).ber < 1e-9

    def test_uplink_penalty_from_full_overlap(self):
        # with self-interference cancelled, full overlap still multiplies the
        # uplink BER several times over while the downlink barely moves
        p0 = dataclasses.replace(REF, beta=0.0)
        ul = [ber_uplink(a, rt_factors(a), p0).ber for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert 3.2 < ul[-1] / ul[0] - 1.0 < 3.6

    def test_downlink_nearly_flat_without_self_interference(self):
        p0 = dataclasses.replace(REF, beta=0.0)
        dl = [ber_downlink(a, rt_factors(a), p0).ber
              for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert max(dl) - min(dl) < 0.02

    def test_nondecreasing_in_self_interference(self):
        fac = rt_factors(0.5)
        for fn in (ber_uplink, ber_downlink):
            vals = [fn(0.5, fac, dataclasses.replace(REF, beta=b)).ber
                    for b in (0.0, 1e-9, 1e-8, 1e-7)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_uplink_nonincreasing_in_inversion_target(self):
        fac = rt_factors(0.5)
        vals = [ber_uplink(0.5, fac, dataclasses.replace(REF, rho=r)).ber
                for r in (0.5e-10, 1e-10, 2e-10)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_downlink_nonincreasing_in_bs_power(self):
        fac = rt_factors(0.5)
        vals = [ber_downlink(0.5, fac, dataclasses.replace(REF, p_b=pb)).ber
                for pb in (1.0, 5.0, 25.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_downlink_at_a_huge_inversion_radius(self):
        # the serving distance lives within about 9 km at 3 BS/km^2.  An
        # r_max of 3e7 m (p_u_max = 1e20 W) or 1e65 m (1e250 W), 3,162 m at
        # 1e4 W, must not let the quadrature step over it (it gave BER 1),
        # nor overflow r^(2 eta) (a RuntimeWarning fails the suite)
        for alpha in (0.0, 0.3, 1.0):
            fac = rt_factors(alpha)
            near = ber_downlink(alpha, fac, dataclasses.replace(REF, p_u_max=1e4))
            for p_u_max in (1e20, 1e250):
                far = ber_downlink(alpha, fac, dataclasses.replace(REF, p_u_max=p_u_max))
                assert far.ber == pytest.approx(near.ber, rel=1e-13, abs=0.0)
            if alpha == 0.0:
                assert far.ber == pytest.approx(0.230069751851, abs=1e-12)

    def test_directions_decouple_with_zero_coupling(self):
        p0 = dataclasses.replace(REF, beta=0.0)
        base_ul = ber_uplink(0.3, ZERO, p0).ber
        assert ber_uplink(0.3, ZERO, dataclasses.replace(p0, p_b=50.0)).ber == base_ul
        assert ber_uplink(0.3, ZERO, dataclasses.replace(p0, b_d=3e6)).ber == base_ul
        base_dl = ber_downlink(0.3, ZERO, p0).ber
        scaled = dataclasses.replace(p0, rho=2e-10, p_u_max=2.0)
        assert ber_downlink(0.3, ZERO, scaled).ber == pytest.approx(base_dl, rel=1e-12)

    def test_uplink_ignores_downlink_cross_factor(self):
        a = InterferenceFactors(0.3, 0.1)
        b = InterferenceFactors(0.3, 0.9)
        assert ber_uplink(0.5, a, REF).ber == ber_uplink(0.5, b, REF).ber

    def test_downlink_ignores_uplink_cross_factor(self):
        a = InterferenceFactors(0.1, 0.3)
        b = InterferenceFactors(0.9, 0.3)
        assert ber_downlink(0.5, a, REF).ber == ber_downlink(0.5, b, REF).ber

    def test_metrics_fields(self):
        wide = dataclasses.replace(REF, b_u=1e6, b_d=2e6)
        m_u = ber_uplink(0.5, rt_factors(0.5, wide), wide)
        m_d = ber_downlink(0.5, rt_factors(0.5, wide), wide)
        assert m_u.direction is Direction.UPLINK
        assert m_d.direction is Direction.DOWNLINK
        assert m_u.bandwidth == pytest.approx(1.5e6)
        assert m_d.bandwidth == pytest.approx(2.5e6)
        for m in (m_u, m_d):
            assert 0.0 <= m.ber <= 1.0
            assert m.throughput == pytest.approx(
                math.log2(wide.m_symbols) * m.bandwidth * (1.0 - m.ber), rel=1e-15)

    def test_rejects_alpha_outside_unit_interval(self):
        for fn in (ber_uplink, ber_downlink):
            with pytest.raises(ValueError):
                fn(-0.1, FULL, REF)
            with pytest.raises(ValueError):
                fn(1.2, FULL, REF)

    def test_link_metrics_validation(self):
        with pytest.raises(ValueError):
            LinkMetrics(Direction.UPLINK, 0.5, 1.5, 1e6, 0.0)
        with pytest.raises(ValueError):
            LinkMetrics(Direction.UPLINK, 2.0, 0.1, 1e6, 0.0)
        with pytest.raises(ValueError):
            LinkMetrics(Direction.UPLINK, 0.5, 0.1, -1e6, 0.0)


class TestEta4Specialization:
    def test_agrees_with_general_path(self):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            fac = rt_factors(alpha)
            ul4 = O.ber_uplink_eta4_arctan(fac, REF)
            ul = ber_uplink(alpha, fac, REF).ber
            dl4 = O.ber_downlink_eta4_arctan(fac, REF)
            dl = ber_downlink(alpha, fac, REF).ber
            assert ul4 == pytest.approx(ul, rel=1e-9)
            assert dl4 == pytest.approx(dl, rel=1e-9)

    def test_arctan_identity(self):
        z = np.geomspace(1e-6, 1e4, 40)
        lhs = hyp2f1_special(0.5, z) * np.sqrt(z)
        np.testing.assert_allclose(lhs, np.arctan(np.sqrt(z)), rtol=1e-12)

    def test_kernel_arctan_branch_matches_scipy_path(self):
        x = np.geomspace(1e-12, 1e20, 60)
        np.testing.assert_allclose(_x_hyp2f1(0.5, x),
                                   x * hyp2f1_special(0.5, x), rtol=1e-13)
        assert _x_hyp2f1(0.5, 0.0) == 0.0

    def test_uplink_reduces_to_single_population(self):
        # no cross interference, no self-interference: only the power
        # controlled uplink population remains in the average
        p0 = dataclasses.replace(REF, beta=0.0)
        w1, w2 = p0.omega(Direction.UPLINK)
        b_const = p0.sigma_n_sq / p0.rho
        ue = _ue_on_uplink(p0)
        expected = hamdi_average(lambda z: O.laplace(ue, z), w1, w2, b_const)
        assert ber_uplink(0.0, ZERO, p0).ber == pytest.approx(expected, rel=1e-9)

    def test_downlink_reduces_to_bs_population(self):
        p0 = dataclasses.replace(REF, beta=0.0)
        got = ber_downlink(0.0, ZERO, p0).ber
        ref = O.ber_downlink_scipy_reference(ZERO, p0)
        assert got == pytest.approx(ref, rel=1e-6)
