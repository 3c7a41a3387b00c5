"""Tests for pulse spectra, band plans, and effective interference factors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc_oracles import factor_per_lobe, factors_per_lobe, factors_time_domain, spectrum

from alphaduplex import pulse, specfun
from alphaduplex.model import Direction
from alphaduplex.pulse import (
    BandPlan,
    InterferenceFactors,
    PulseKind,
    PulsePair,
    PulseShape,
    interference_factor_grid,
    interference_factors,
    make_pulses,
)
from alphaduplex.specfun import QuadratureSpec, adaptive_quad

RT_PAIR = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)


def rt_factors(alpha, b_u=1e6, b_d=1e6):
    plan = BandPlan(b_u, b_d, alpha)
    pu, pd = make_pulses(RT_PAIR, plan)
    return interference_factors(plan, pu, pd)


class TestBandPlan:
    def test_adjacent_bands(self):
        assert BandPlan(1e6, 1e6, 0.0).carrier_offset == 1e6

    def test_full_overlap_equal_bands(self):
        assert BandPlan(2e6, 2e6, 1.0).carrier_offset == 0.0

    def test_unequal_bands(self):
        assert BandPlan(1e6, 2e6, 0.5).carrier_offset == pytest.approx(1.0e6)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="alpha must lie in"):
            BandPlan(1e6, 1e6, 1.5)
        with pytest.raises(ValueError, match="alpha must lie in"):
            BandPlan(1e6, 1e6, -0.1)
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            BandPlan(0.0, 1e6, 0.5)

    def test_derived_fields(self):
        plan = BandPlan(1e6, 2e6, 0.5)
        assert plan.b == 1e6
        assert plan.carrier_offset == pytest.approx(1.0e6)

    def test_accessible_bandwidth(self):
        plan = BandPlan(1e6, 2e6, 0.5)
        assert plan.accessible_bandwidth(Direction.UPLINK) == pytest.approx(1.5e6)
        assert plan.accessible_bandwidth(Direction.DOWNLINK) == pytest.approx(2.5e6)

    def test_half_duplex_bandwidths(self):
        plan = BandPlan(1e6, 1e6, 0.0)
        assert plan.accessible_bandwidth(Direction.UPLINK) == 1e6
        assert plan.carrier_offset == 1e6

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            BandPlan(1e6, 1e6, 1.2)


class TestSpectrum:
    def test_rectangular_null_at_band_edge(self):
        p = PulseShape(PulseKind.RECTANGULAR, 1e6)
        assert spectrum(p, 5e5) == pytest.approx(0.0, abs=1e-18)
        assert spectrum(p, -5e5) == pytest.approx(0.0, abs=1e-18)

    def test_triangular_null_at_band_edge(self):
        p = PulseShape(PulseKind.TRIANGULAR, 1e6)
        assert spectrum(p, 5e5) == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("kind", list(PulseKind))
    def test_in_band_energy_is_one(self, kind):
        # quadrature oracle for the normalization constant
        p = PulseShape(kind, 1e6)
        energy = adaptive_quad(lambda f: spectrum(p, f) ** 2, -5e5, 5e5)
        assert energy == pytest.approx(1.0, rel=1e-10)
        assert spectrum(p, 0.0) > 0.0

    def test_energy_scales_with_band(self):
        p = PulseShape(PulseKind.TRIANGULAR, 3.7e6)
        energy = adaptive_quad(lambda f: spectrum(p, f) ** 2, -1.85e6, 1.85e6)
        assert energy == pytest.approx(1.0, rel=1e-10)

    @given(st.floats(min_value=-5e6, max_value=5e6))
    @settings(max_examples=60, deadline=None)
    def test_even_symmetry(self, f):
        for kind in PulseKind:
            p = PulseShape(kind, 1e6)
            assert spectrum(p, f) == pytest.approx(spectrum(p, -f), rel=1e-12,
                                                   abs=1e-18)

    def test_vectorized(self):
        p = PulseShape(PulseKind.RECTANGULAR, 1e6)
        f = np.array([0.0, 1e5, 5e5])
        out = spectrum(p, f)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(spectrum(p, 0.0))

    def test_rejects_nonfinite(self):
        p = PulseShape(PulseKind.RECTANGULAR, 1e6)
        with pytest.raises(ValueError):
            spectrum(p, np.inf)

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            PulseShape(PulseKind.RECTANGULAR, 0.0)

    @pytest.mark.parametrize("kind, power", [(PulseKind.RECTANGULAR, 2),
                                             (PulseKind.TRIANGULAR, 4)],
                             ids=["rectangular", "triangular"])
    def test_lobe_energy_literals_are_the_quadrature(self, kind, power):
        # the main-lobe energies are stored as literals: the same bits as
        # the adaptive quadrature of int_{-1}^{1} sinc^2 and sinc^4
        energy = adaptive_quad(lambda x: np.sinc(x) ** power, -1.0, 1.0,
                               QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15))
        assert pulse._LOBE_ENERGY[kind] == energy


class TestInterferenceFactorsType:
    def test_bounds(self):
        with pytest.raises(ValueError):
            InterferenceFactors(i_du_sq=1.2, i_ud_sq=0.1)
        with pytest.raises(ValueError):
            InterferenceFactors(i_du_sq=0.2, i_ud_sq=-0.1)

    def test_derived_factors(self):
        # SI reads the cross factors; the co-channel factors are exactly 1
        fac = InterferenceFactors(0.2, 0.1)
        assert fac.i_su_sq == 0.2 and fac.i_sd_sq == 0.1
        assert fac.i_uu_sq == 1.0 and fac.i_dd_sq == 1.0
        assert [f.name for f in dataclasses.fields(fac)] == ["i_du_sq", "i_ud_sq"]


class TestEffectiveFactor:
    def test_same_direction_is_exactly_one(self):
        for alpha in (0.0, 0.3, 1.0):
            fac = rt_factors(alpha)
            assert fac.i_uu_sq == 1.0 and fac.i_dd_sq == 1.0

    def test_dense_grid_oracle(self):
        # independent trapezoid evaluation of both correlation integrals,
        # each over its victim's band with the aggressor shifted onto it
        plan = BandPlan(1e6, 1e6, 0.4)
        pu, pd = make_pulses(RT_PAIR, plan)
        fac = interference_factors(plan, pu, pd)
        for victim, aggressor, shift, sq in (
                (pu, pd, plan.carrier_offset, fac.i_du_sq),
                (pd, pu, -plan.carrier_offset, fac.i_ud_sq)):
            half = 0.5 * victim.allocated_band
            f = np.linspace(-half, half, 2_000_001)
            oracle = np.trapezoid(
                spectrum(aggressor, f - shift) * spectrum(victim, f), f)
            assert sq == pytest.approx(oracle ** 2, rel=1e-6)

    def test_time_domain_matched_filter_oracle(self):
        # pulses built in time, correlated by FFT: the discretisation error
        # is 2.3e-6 in amplitude at the worst of these 24 factors, while
        # integrating |S| instead of S reads 0.230 against 0.0042 at the
        # interior minimum (alpha = 0.28, triangular UL, rectangular DL)
        for pair in ALL_PAIRS:
            alphas = [0.0, 0.28, 1.0]
            grid = interference_factor_grid(1e6, 1e6, pair, alphas)
            for alpha, fac in zip(alphas, grid):
                du, ud = factors_time_domain(1e6, 1e6, pair, alpha)
                assert np.sqrt(fac.i_du_sq) == pytest.approx(du, abs=2e-5)
                assert np.sqrt(fac.i_ud_sq) == pytest.approx(ud, abs=2e-5)

    def test_adjacent_channel_leakage_positive(self):
        # alpha = 0, rect/rect: out-of-band ripples still leak
        plan = BandPlan(1e6, 1e6, 0.0)
        pair = PulsePair(uplink=PulseKind.RECTANGULAR,
                         downlink=PulseKind.RECTANGULAR)
        fac = interference_factors(plan, *make_pulses(pair, plan))
        assert fac.i_du_sq > 0.0 and fac.i_ud_sq > 0.0

    @pytest.mark.parametrize("kind", list(PulseKind))
    def test_same_pulse_both_directions_symmetric(self, kind):
        # equal bands and a common shape make the two cross factors equal
        pair = PulsePair(uplink=kind, downlink=kind)
        for alpha in [0.0, 0.3, 0.7, 1.0]:
            plan = BandPlan(1e6, 1e6, alpha)
            pu, pd = make_pulses(pair, plan)
            fac = interference_factors(plan, pu, pd)
            assert fac.i_du_sq == pytest.approx(fac.i_ud_sq, rel=1e-9, abs=1e-12)

    def test_full_overlap_same_pulse_is_cochannel(self):
        # alpha = 1 with identical pulses: zero offset, same band, factor -> 1
        pair = PulsePair(uplink=PulseKind.TRIANGULAR,
                         downlink=PulseKind.TRIANGULAR)
        plan = BandPlan(1e6, 1e6, 1.0)
        pu, pd = make_pulses(pair, plan)
        fac = interference_factors(plan, pu, pd)
        assert fac.i_du_sq == pytest.approx(1.0, abs=1e-10)

    def test_cauchy_schwarz_bound(self):
        for pair in [RT_PAIR,
                     PulsePair(PulseKind.RECTANGULAR, PulseKind.TRIANGULAR),
                     PulsePair(PulseKind.TRIANGULAR, PulseKind.TRIANGULAR)]:
            for alpha in np.linspace(0.0, 1.0, 11):
                fac = rt_factors(float(alpha)) if pair is RT_PAIR else None
                if fac is None:
                    plan = BandPlan(1e6, 1e6, float(alpha))
                    pu, pd = make_pulses(pair, plan)
                    fac = interference_factors(plan, pu, pd)
                for v in (fac.i_du_sq, fac.i_ud_sq):
                    assert 0.0 <= v <= 1.0

    def test_interior_minimum_rect_dl_triangle_ul(self):
        # the BS-on-uplink factor is non-monotone with a deep interior dip
        alphas = np.linspace(0.0, 1.0, 41)
        vals = np.array([rt_factors(float(a)).i_du_sq for a in alphas])
        interior = np.arange(1, len(alphas) - 1)
        is_local_min = [(vals[i] < vals[i - 1]) and (vals[i] < vals[i + 1])
                        for i in interior]
        assert any(is_local_min)
        # near-orthogonality: the dip undercuts the half-duplex leakage value
        assert vals.min() < vals[0]
        dip_alpha = alphas[np.argmin(vals)]
        assert 0.2 <= dip_alpha <= 0.35

    def test_regression_pins(self):
        # values cross-checked against a 4M-point trapezoid oracle
        fac = rt_factors(0.275)
        assert fac.i_du_sq == pytest.approx(2.1168774521610128e-05, rel=1e-6)
        fac = rt_factors(0.5)
        assert fac.i_du_sq == pytest.approx(0.2298038, rel=1e-5)
        assert fac.i_ud_sq == pytest.approx(0.2610028, rel=1e-5)

    def test_unequal_bands(self):
        plan = BandPlan(1e6, 2e6, 0.5)
        pu, pd = make_pulses(RT_PAIR, plan)
        fac = interference_factors(plan, pu, pd)
        assert 0.0 < fac.i_du_sq < 1.0
        assert 0.0 < fac.i_ud_sq < 1.0

    def test_mismatched_pulse_band_rejected(self):
        plan = BandPlan(1e6, 1e6, 0.5)
        pu = PulseShape(PulseKind.TRIANGULAR, 1e6)  # should be 1.5e6
        pd = PulseShape(PulseKind.RECTANGULAR, 1.5e6)
        with pytest.raises(ValueError):
            interference_factors(plan, pu, pd)


ALL_PAIRS = [PulsePair(u, d) for u in PulseKind for d in PulseKind]
FINE = np.linspace(0.0, 1.0, 101).tolist()
COARSE = np.linspace(0.0, 1.0, 21).tolist()
# (b_u / b_d, alphas): about 2 b_d / b_u lobes per alpha at the small
# ratios, so the oracle gets fewer alphas where it is slow
MATRIX = [(1e-3, [0.0, 0.37, 1.0]), (0.02, COARSE), (0.5, FINE), (1.0, FINE),
          (1.2, FINE), (50.0, COARSE), (1e3, [0.0, 0.37, 1.0])]


class TestBatchedFactors:
    """The batched kernel against the per-lobe oracle, bit for bit."""

    @staticmethod
    def cases(pair, ratio, alphas):
        for alpha in alphas:
            plan = BandPlan(1e6 * ratio, 1e6, alpha)
            yield plan, make_pulses(pair, plan)

    @pytest.mark.parametrize("pair", ALL_PAIRS,
                             ids=lambda p: f"{p.uplink.value}-{p.downlink.value}")
    def test_grid_bit_equal_to_per_lobe_oracle(self, pair):
        for ratio, alphas in MATRIX:
            grid = interference_factor_grid(1e6 * ratio, 1e6, pair, alphas)
            assert len(grid) == len(alphas)
            for fac, (plan, pulses) in zip(grid, self.cases(pair, ratio, alphas)):
                assert fac == factors_per_lobe(plan, *pulses), (ratio, plan.alpha)
                assert interference_factors(plan, *pulses) == fac

    @staticmethod
    def count_integrand_calls(monkeypatch):
        # the kernel evaluates the aggressor and the victim spectrum once
        # per integrand call; record the node array shape of each call
        calls = []
        real = pulse._sinc_power

        def counted(*args):
            calls.append(np.shape(args[-1]))
            return real(*args)

        monkeypatch.setattr(pulse, "_sinc_power", counted)
        return calls

    def n_lobes(self, pair, ratio, alphas):
        return [sum(len(pulse._lobes(d, plan, *pulses)) for d in Direction)
                for plan, pulses in self.cases(pair, ratio, alphas)]

    def test_whole_grid_is_one_integrand_call(self, monkeypatch):
        monkeypatch.setattr(pulse, "_LOBES_PER_CALL", 10 ** 6)
        calls = self.count_integrand_calls(monkeypatch)
        interference_factor_grid(1e6, 1e6, RT_PAIR, COARSE)
        n_lobes = sum(self.n_lobes(RT_PAIR, 1.0, COARSE))
        assert calls == [(n_lobes, 8 * 15)] * 2

    def test_alphas_grouped_under_lobe_budget(self, monkeypatch):
        # every call but the last holds exactly 10 lobes, cut across alpha
        # boundaries: at ratio 1 an alpha has 3-5 lobes, at ratio 0.02
        # about 100, so there one alpha spans ten calls
        monkeypatch.setattr(pulse, "_LOBES_PER_CALL", 10)
        for ratio in (1.0, 0.02):
            expected = [factors_per_lobe(plan, *pulses)
                        for plan, pulses in self.cases(RT_PAIR, ratio, COARSE)]
            calls = self.count_integrand_calls(monkeypatch)
            assert interference_factor_grid(
                1e6 * ratio, 1e6, RT_PAIR, COARSE) == expected
            total = sum(self.n_lobes(RT_PAIR, ratio, COARSE))
            groups = [10] * (total // 10) + ([total % 10] if total % 10 else [])
            # aggressor and victim spectrum, once each per group
            assert calls == [(n, 8 * 15) for n in groups for _ in range(2)]

    @pytest.mark.parametrize("pair", ALL_PAIRS,
                             ids=lambda p: f"{p.uplink.value}-{p.downlink.value}")
    def test_one_alpha_split_across_calls(self, pair, monkeypatch):
        # b_u / b_d = 1e-3: 1,000 to 2,000 lobes per alpha, so at the real
        # budget each alpha spans several calls and the cuts fall mid-alpha
        alphas = [0.0, 0.61, 1.0]
        n_lobes = self.n_lobes(pair, 1e-3, alphas)
        assert min(n_lobes) > 5 * pulse._LOBES_PER_CALL
        expected = [factors_per_lobe(plan, *pulses)
                    for plan, pulses in self.cases(pair, 1e-3, alphas)]
        calls = self.count_integrand_calls(monkeypatch)
        assert interference_factor_grid(1e3, 1e6, pair, alphas) == expected
        assert len(calls) == 2 * -(-sum(n_lobes) // pulse._LOBES_PER_CALL)

    def test_lobes_missing_tolerance_fall_back(self, monkeypatch):
        # a tolerance near machine precision: a few lobes miss it in the
        # seed pass and go on to adaptive_quad's bisection
        pair = PulsePair(PulseKind.RECTANGULAR, PulseKind.RECTANGULAR)
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-30)
        monkeypatch.setattr(pulse, "DEFAULT_QUADRATURE", spec)
        alphas = np.linspace(0.0, 1.0, 11).tolist()
        expected = [
            InterferenceFactors(*(min(t * t, 1.0) for t in (
                factor_per_lobe(victim, plan, *pulses, spec)
                for victim in Direction)))
            for plan, pulses in self.cases(pair, 0.1, alphas)]
        fallbacks = []
        real = specfun.adaptive_quad

        def counted(*args, **kwargs):
            fallbacks.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(specfun, "adaptive_quad", counted)
        assert interference_factor_grid(1e5, 1e6, pair, alphas) == expected
        assert 0 < len(fallbacks) < sum(self.n_lobes(pair, 0.1, alphas))

    def test_empty_grid(self):
        assert interference_factor_grid(1e6, 1e6, RT_PAIR, []) == []
