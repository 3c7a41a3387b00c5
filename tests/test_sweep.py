"""Grid sweeps, balanced/unbalanced point search, and gains over half duplex."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from alphaduplex import sweep
from alphaduplex.analytic import ber_downlink, ber_uplink
from alphaduplex.model import Direction, SystemParams
from alphaduplex.pulse import (
    BandPlan,
    InterferenceFactors,
    PulseKind,
    PulsePair,
    interference_factors,
    make_pulses,
)
from alphaduplex.sweep import (
    Crossing,
    NoCrossingError,
    OperatingPoints,
    RefinementStallError,
    SweepResult,
    ThroughputPair,
    find_operating_points,
    sweep_alpha,
    _brent,
)

REF = SystemParams()
RT_PAIR = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)
ZERO = InterferenceFactors(0.0, 0.0)


def pin_zero_factors(monkeypatch):
    # the sweep takes grid factors from the batched kernel and off-grid
    # factors one alpha at a time; pin both to zero
    monkeypatch.setattr(sweep, "interference_factors", lambda *a, **k: ZERO)
    monkeypatch.setattr(sweep, "interference_factor_grid",
                        lambda b_u, b_d, pair, alphas, *a, **k:
                        [ZERO] * len(alphas))


def factors_at(alpha, p=REF, pair=RT_PAIR):
    plan = BandPlan(p.b_u, p.b_d, alpha)
    return interference_factors(plan, *make_pulses(pair, plan))


@pytest.fixture(scope="module")
def sr101():
    return sweep_alpha(REF, RT_PAIR, np.linspace(0.0, 1.0, 101))


@pytest.fixture(scope="module")
def pts101(sr101):
    return find_operating_points(sr101)


@pytest.fixture(scope="module")
def sr_general():
    # the general-exponent sweep of the benchmark: `alphaduplex sweep` with
    # eta = 3.5 and b_u = 1.2 MHz on the default 0:1:0.1 grid
    p = dataclasses.replace(REF, eta=3.5, b_u=1.2e6)
    return sweep_alpha(p, RT_PAIR, np.linspace(0.0, 1.0, 11))


class TestSweepAlpha:
    def test_single_zero_grid_is_hd(self):
        sr = sweep_alpha(REF, RT_PAIR, [0.0])
        assert sr.alphas == (0.0,)
        alpha, ul, dl = sr.rows[0]
        assert ul.bandwidth == REF.b_u
        assert dl.bandwidth == REF.b_d
        assert ul == ber_uplink(0.0, factors_at(0.0), REF)
        assert dl == ber_downlink(0.0, factors_at(0.0), REF)

    def test_full_overlap_equal_bands_doubles_access(self):
        sr = sweep_alpha(REF, RT_PAIR, [1.0])
        _, ul, dl = sr.rows[0]
        assert ul.bandwidth == 2.0 * REF.b_u
        assert dl.bandwidth == 2.0 * REF.b_d

    def test_endpoint_trend(self, sr101):
        t = {alpha: (ul.throughput, dl.throughput) for alpha, ul, dl in sr101.rows}
        assert t[1.0][1] > t[0.0][1]   # downlink gains from overlap
        assert t[1.0][0] < t[0.0][0]   # uplink pays for it

    def test_bandwidth_column_monotone(self, sr101):
        for links in (tuple(r[1] for r in sr101.rows),
                      tuple(r[2] for r in sr101.rows)):
            bw = [m.bandwidth for m in links]
            assert all(b2 > b1 for b1, b2 in zip(bw, bw[1:]))

    def test_table_layout(self, sr101):
        tab = sr101.table()
        assert len(tab) == 101
        for (alpha, ul, dl), row in zip(sr101.rows, tab):
            assert row == (alpha, ul.throughput, dl.throughput, ul.ber, dl.ber)

    def test_general_path_taken_off_eta4(self):
        p = dataclasses.replace(REF, eta=3.5)
        sr = sweep_alpha(p, RT_PAIR, [0.3])
        _, ul, dl = sr.rows[0]
        assert ul == ber_uplink(0.3, factors_at(0.3, p), p)
        assert dl == ber_downlink(0.3, factors_at(0.3, p), p)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep_alpha(REF, RT_PAIR, [])
        with pytest.raises(ValueError):
            sweep_alpha(REF, RT_PAIR, [0.5, 0.5])
        with pytest.raises(ValueError):
            sweep_alpha(REF, RT_PAIR, [0.2, 1.2])

    def test_result_structural_validation(self):
        sr = sweep_alpha(REF, RT_PAIR, [0.2, 0.4])
        (a0, ul0, dl0), (a1, ul1, dl1) = sr.rows
        with pytest.raises(ValueError):
            SweepResult(rows=((a0, dl0, ul0),), params=REF, pulses=RT_PAIR)
        with pytest.raises(ValueError):
            SweepResult(rows=((a1, ul1, dl1), (a0, ul0, dl0)), params=REF,
                        pulses=RT_PAIR)
        with pytest.raises(ValueError):
            SweepResult(rows=((a1, ul0, dl0),), params=REF, pulses=RT_PAIR)


class TestOperatingPoints:
    def test_balanced_point_location(self, sr101, pts101):
        assert 0.20 <= pts101.balanced_alpha <= 0.35
        ul, dl = sr101.evaluate(pts101.balanced_alpha)
        assert abs(ul.throughput - dl.throughput) <= 1e-9 * max(
            ul.throughput, dl.throughput)

    def test_crossings_reported_and_tiebreak(self, pts101):
        assert len(pts101.crossings) == 2
        alphas = [c.alpha for c in pts101.crossings]
        assert alphas == sorted(alphas)
        best = max(pts101.crossings, key=lambda c: (c.total, c.alpha))
        assert pts101.balanced_alpha == best.alpha
        assert pts101.balanced == ThroughputPair(ul=best.t_ul, dl=best.t_dl)

    def test_narrow_sliver_resolved_from_coarse_grid(self):
        # the crossings sit in a window a few 1e-3 wide; a 0.05-step grid
        # never samples it, so only densification can find them
        sr = sweep_alpha(REF, RT_PAIR, np.linspace(0.0, 1.0, 21))
        pts = find_operating_points(sr)
        gaps = [abs(ul.throughput - dl.throughput)
                for _, ul, dl in sr.rows]
        assert min(gaps) > 1e3   # no grid point anywhere near balance
        assert 0.20 <= pts.balanced_alpha <= 0.35
        assert len(pts.crossings) == 2

    def test_reference_sweep_frozen_values(self, pts101):
        # summary.txt of `alphaduplex sweep --alpha-grid 0:1:0.01` at the
        # reference config, frozen at 12 significant digits
        assert [c.alpha for c in pts101.crossings] == pytest.approx(
            [0.276410101018, 0.278950080765], abs=1e-8)
        assert pts101.hd_baseline.ul == pytest.approx(776058.725091, rel=1e-8)
        assert pts101.hd_baseline.dl == pytest.approx(879081.531941, rel=1e-8)
        assert pts101.fd_point.ul == pytest.approx(84208.2624115, rel=1e-8)
        assert pts101.fd_point.dl == pytest.approx(1378393.44771, rel=1e-8)

    def test_unbalanced_point(self, sr101, pts101):
        t_ul0 = pts101.hd_baseline.ul
        slack = t_ul0 * (1.0 - 1e-9)
        assert pts101.unbalanced.ul >= slack
        feasible = [(alpha, dl.throughput) for alpha, ul, dl in sr101.rows
                    if ul.throughput >= slack]
        assert pts101.unbalanced.dl >= max(t for _, t in feasible)
        assert pts101.unbalanced_alpha in {a for a, _ in feasible}
        assert 0.2 <= pts101.unbalanced_alpha <= 0.4

    def test_endpoints_evaluated_off_grid(self):
        # grid omits 0 and 1; baseline and full-overlap fields still filled
        sr = sweep_alpha(REF, RT_PAIR, np.linspace(0.1, 0.9, 17))
        pts = find_operating_points(sr)
        ul0, dl0 = sr.evaluate(0.0)
        ul1, dl1 = sr.evaluate(1.0)
        assert pts.hd_baseline == ThroughputPair(ul0.throughput, dl0.throughput)
        assert pts.fd_point == ThroughputPair(ul1.throughput, dl1.throughput)

    def test_no_crossing_raises(self, monkeypatch):
        pin_zero_factors(monkeypatch)
        p0 = dataclasses.replace(REF, beta=0.0)
        sr = sweep_alpha(p0, RT_PAIR, np.linspace(0.0, 1.0, 11))
        with pytest.raises(NoCrossingError):
            find_operating_points(sr)

    def test_degenerate_symmetry_returns_largest_alpha(self, monkeypatch):
        # pinned cross factors and beta=0 make both BERs constants; tuning
        # the BS power equalizes them, so every alpha balances
        base = dataclasses.replace(REF, beta=0.0)
        target = ber_uplink(0.0, ZERO, base).ber

        def gap(p_b):
            p = dataclasses.replace(base, p_b=p_b)
            return ber_downlink(0.0, ZERO, p).ber - target

        p_sym = dataclasses.replace(base, p_b=brentq(gap, 0.001, 5.0,
                                                     xtol=1e-12))
        pin_zero_factors(monkeypatch)
        monkeypatch.setattr(sweep, "_REFINE_TOL", 1e-6)
        sr = sweep_alpha(p_sym, RT_PAIR, np.linspace(0.0, 1.0, 11))
        pts = find_operating_points(sr)
        assert pts.balanced_alpha == 1.0
        assert len(pts.crossings) == 1

    def test_record_validation(self):
        tp = ThroughputPair(1.0, 1.0)
        with pytest.raises(ValueError):
            OperatingPoints(balanced_alpha=1.2, unbalanced_alpha=0.0,
                            hd_baseline=tp, fd_point=tp, balanced=tp,
                            unbalanced=tp, crossings=(Crossing(0.5, 1.0, 1.0),))
        with pytest.raises(ValueError):
            OperatingPoints(balanced_alpha=0.5, unbalanced_alpha=0.0,
                            hd_baseline=tp, fd_point=tp, balanced=tp,
                            unbalanced=tp, crossings=())


class TestComparison:
    def test_duplex_tradeoff_signs(self, pts101):
        assert pts101.fd_delta.dl > 0.0
        assert pts101.fd_delta.ul < 0.0
        assert pts101.balanced_delta.ul > 0.0
        assert pts101.balanced_delta.dl > 0.0

    def test_pure_bandwidth_deltas_with_zero_factors(self, monkeypatch):
        # cross factors pinned to zero and no residual loop interference:
        # BER is alpha-independent, so deltas reduce to bandwidth ratios
        pin_zero_factors(monkeypatch)
        p = dataclasses.replace(REF, beta=0.0, b_u=2e6, b_d=1e6)
        sr = sweep_alpha(p, RT_PAIR, [0.0, 0.5, 1.0])
        rows = {alpha: (ul, dl) for alpha, ul, dl in sr.rows}
        assert rows[0.0][0].ber == rows[1.0][0].ber
        assert rows[0.0][1].ber == rows[1.0][1].ber
        mid = rows[0.5]
        pts = OperatingPoints(
            balanced_alpha=0.5, unbalanced_alpha=0.5,
            hd_baseline=ThroughputPair(rows[0.0][0].throughput,
                                       rows[0.0][1].throughput),
            fd_point=ThroughputPair(rows[1.0][0].throughput,
                                    rows[1.0][1].throughput),
            balanced=ThroughputPair(mid[0].throughput, mid[1].throughput),
            unbalanced=ThroughputPair(mid[0].throughput, mid[1].throughput),
            crossings=(Crossing(0.5, mid[0].throughput, mid[1].throughput),))
        assert pts.fd_delta.ul == pytest.approx(100.0 * 1e6 / 2e6, rel=1e-12)
        assert pts.fd_delta.dl == pytest.approx(100.0 * 1e6 / 1e6, rel=1e-12)
        assert pts.balanced_delta.ul == pytest.approx(25.0, rel=1e-12)
        assert pts.balanced_delta.dl == pytest.approx(50.0, rel=1e-12)

    def test_identical_points_give_zero_deltas(self):
        sr = sweep_alpha(REF, RT_PAIR, [0.0])
        _, ul, dl = sr.rows[0]
        hd = ThroughputPair(ul.throughput, dl.throughput)
        pts = OperatingPoints(balanced_alpha=0.0, unbalanced_alpha=0.0,
                              hd_baseline=hd, fd_point=hd, balanced=hd,
                              unbalanced=hd,
                              crossings=(Crossing(0.0, hd.ul, hd.dl),))
        assert pts.fd_delta == ThroughputPair(0.0, 0.0)
        assert pts.balanced_delta == ThroughputPair(0.0, 0.0)

    def test_key_value_lines(self, pts101):
        lines = pts101.lines()
        keys = [ln.split("=", 1)[0] for ln in lines]
        assert keys == [
            "balanced_alpha", "unbalanced_alpha",
            "hd_ul_bps", "hd_dl_bps", "fd_ul_bps", "fd_dl_bps",
            "balanced_ul_bps", "balanced_dl_bps",
            "fd_delta_ul_pct", "fd_delta_dl_pct",
            "balanced_delta_ul_pct", "balanced_delta_dl_pct",
            "crossing_1_alpha", "crossing_2_alpha",
        ]
        for ln in lines:
            float(ln.split("=", 1)[1])
        assert float(lines[0].split("=", 1)[1]) == pytest.approx(
            pts101.balanced_alpha, rel=1e-11)
        assert lines[-2:] == tuple(f"crossing_{i}_alpha={c.alpha:.12g}" for i, c
                                   in enumerate(pts101.crossings, start=1))


def _solve_recorded(solver, f, a, b, xtol):
    """(root or raised exception type, every point the solver evaluated)."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        return solver(g, a, b, xtol=xtol), xs
    except (RuntimeError, ValueError) as exc:  # RefinementStallError too
        return type(exc), xs


class TestBrent:
    """``_brent`` against its oracle, ``scipy.optimize.brentq``."""

    def _assert_same_as_brentq(self, f, a, b, xtol):
        root, xs = _solve_recorded(_brent, f, a, b, xtol)
        ref, ref_xs = _solve_recorded(brentq, f, a, b, xtol)
        assert xs == ref_xs
        assert root == ref
        assert type(root) is type(ref)
        return root, xs

    def test_matches_brentq_on_crossing_brackets(self, sr101, sr_general,
                                                 monkeypatch):
        brackets = []

        def recording(f, a, b, xtol):
            brackets.append((f, a, b, xtol))
            return _brent(f, a, b, xtol)

        monkeypatch.setattr(sweep, "_brent", recording)
        find_operating_points(sr101)
        find_operating_points(sr_general)
        assert len(brackets) == 2 + 4
        for f, a, b, xtol in brackets:
            root, xs = self._assert_same_as_brentq(f, a, b, xtol)
            assert a < root < b
            assert 6 <= len(xs) <= 8

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(x) - 10.0, -5.0, 7.0),
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
        (lambda x: x - 1.0, 1.0, 2.0),
        (lambda x: x * x + 1.0, -1.0, 2.0),
        # the extrapolation step's denominator underflows to 0: bisect
        (lambda x: 1e-140 * (x ** 3 - 2.0 * x - 5.0), 2.0, 3.0),
        (lambda x: 1e-160 * (math.cos(x) - x), 0.0, 1.0),
        (lambda x: 1e-150 * (math.exp(x) - 10.0), 0.0, 5.0),
    ], ids=["cos_x_minus_x", "cubic", "exp", "step", "root_at_a",
            "unbracketed", "tiny_cubic", "tiny_cos", "tiny_exp"])
    @pytest.mark.parametrize("xtol", [2e-12, 1e-13])
    def test_matches_brentq(self, f, a, b, xtol):
        self._assert_same_as_brentq(f, a, b, xtol)

    def test_exhausted_iterations_raise_stall(self):
        # x**9 is so flat around its root that 100 iterations do not reach
        # the tolerance
        f = lambda x: x ** 9  # noqa: E731
        with pytest.raises(RefinementStallError, match="100 iterations"):
            _brent(f, -1.0, 4.0, 1e-13)
        # brentq gives up too, after the same evaluations
        stalled, xs = _solve_recorded(_brent, f, -1.0, 4.0, 1e-13)
        failed, ref_xs = _solve_recorded(brentq, f, -1.0, 4.0, 1e-13)
        assert (stalled, failed) == (RefinementStallError, RuntimeError)
        assert xs == ref_xs
        assert len(xs) == 2 + 100
