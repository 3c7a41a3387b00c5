"""Acceptance gate: the eight headline checks, one pass/fail line each.

Every check prints ``C<n> <name>: PASS/FAIL`` (visible with -s; the -v
test verdicts carry the same information) and enforces its wall-clock
budget.  Monte Carlo checks run at fixed seeds verified to sit well
inside their statistical tolerances, so the suite is deterministic.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

import mc_oracles as mo
from alphaduplex.analytic import (
    _bs_on_downlink,
    _bs_on_uplink,
    _ue_on_downlink,
    _ue_on_uplink,
    ber_downlink,
    ber_uplink,
    hamdi_average,
)
from alphaduplex.model import Direction, SystemParams, max_inversion_radius_m
from alphaduplex.montecarlo import SimConfig, run_campaign, sample_realization
from alphaduplex.pulse import (
    BandPlan,
    InterferenceFactors,
    PulseKind,
    PulsePair,
    interference_factors,
    make_pulses,
)
from alphaduplex.specfun import hyp2f1_special, lower_incomplete_gamma
from alphaduplex.sweep import find_operating_points, sweep_alpha

REF = SystemParams()
RT_PAIR = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)
FULL = InterferenceFactors(1.0, 1.0)
HALF = InterferenceFactors(0.5, 0.3)

CROSS_VALIDATION_TOL = 0.02
N_REALIZATIONS = 200
CROSS_VALIDATION_SEED = 61


def factors_at(alpha, p=REF, pair=RT_PAIR):
    plan = BandPlan(p.b_u, p.b_d, alpha)
    return interference_factors(plan, *make_pulses(pair, plan))


def report(name: str, ok: bool, detail: str, t0: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - t0
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s)"
    print(line)
    sys.stdout.flush()
    assert ok, line
    assert elapsed < budget_s, f"{name} exceeded {budget_s}s budget: {elapsed:.1f}s"


def test_c1_special_functions():
    t0 = time.perf_counter()
    worst_gamma = 0.0
    for s in (0.5, 1.0, 2.5):
        for x in np.linspace(0.0, 50.0, 26):
            # oracle: substitute t = u^2 to remove the endpoint singularity
            oracle, _ = quad(lambda u: 2.0 * u ** (2.0 * s - 1.0)
                             * math.exp(-u * u), 0.0, math.sqrt(x))
            worst_gamma = max(worst_gamma,
                              abs(lower_incomplete_gamma(s, x) - oracle))
    worst_hyp = 0.0
    for z in np.geomspace(1e-6, 100.0, 81):
        lhs = hyp2f1_special(0.5, z) * math.sqrt(z)
        worst_hyp = max(worst_hyp, abs(lhs - math.atan(math.sqrt(z))))
    ok = worst_gamma <= 1e-10 and worst_hyp <= 1e-10
    report("C1 special functions", ok,
           f"gamma gap {worst_gamma:.2e}, 2F1 gap {worst_hyp:.2e}", t0, 10.0)


def test_c2_fading_average_identity():
    t0 = time.perf_counter()
    analytic = hamdi_average(lambda z: 1.0 / (1.0 + z), 1.0, 1.0, 0.0)
    mc, se = mo.hamdi_oracle_exp(1.0, 1.0, 0.0, 1.0, 10_000_000, seed=202)
    z_score = (mc - analytic) / se
    report("C2 fading-average identity", abs(z_score) <= 3.0,
           f"z = {z_score:+.2f} over 1e7 samples", t0, 60.0)


def test_c3_eta4_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        fac = factors_at(alpha)
        for oracle, general in ((mo.ber_uplink_eta4_arctan, ber_uplink),
                                (mo.ber_downlink_eta4_arctan, ber_downlink)):
            a = oracle(fac, REF)
            b = general(alpha, fac, REF).ber
            worst = max(worst, abs(a - b) / b)
    report("C3 eta=4 consistency", worst <= 1e-6,
           f"max rel gap {worst:.2e}", t0, 60.0)


def test_c4_interference_transform_oracles():
    t0 = time.perf_counter()
    cases = (
        ("bs-on-ul", mo.laplace(_bs_on_uplink(FULL, REF), 0.3),
         mo.lt_oracle_bs_on_uplink(0.3, FULL, REF, 20_000, 101)),
        ("bs-on-ul", mo.laplace(_bs_on_uplink(FULL, REF), 1.0),
         mo.lt_oracle_bs_on_uplink(1.0, FULL, REF, 20_000, 102)),
        ("ue-on-ul", mo.laplace(_ue_on_uplink(REF), 0.7),
         mo.lt_oracle_ue_on_uplink(0.7, REF, 12_000, 103)),
        ("ue-on-ul", mo.laplace(_ue_on_uplink(REF), 5.0),
         mo.lt_oracle_ue_on_uplink(5.0, REF, 12_000, 104)),
        ("bs-on-dl", mo.laplace(_bs_on_downlink(REF), 0.5, 150.0),
         mo.lt_oracle_bs_on_downlink(0.5, 150.0, REF, 12_000, 105)),
        ("bs-on-dl", mo.laplace(_bs_on_downlink(REF), 1.0, 200.0),
         mo.lt_oracle_bs_on_downlink(1.0, 200.0, REF, 12_000, 106)),
        ("ue-on-dl", mo.laplace(_ue_on_downlink(HALF, REF), 0.5, 150.0),
         mo.lt_oracle_ue_on_downlink(0.5, 150.0, HALF, REF, 12_000, 107)),
        ("ue-on-dl", mo.laplace(_ue_on_downlink(FULL, REF), 1.0, 250.0),
         mo.lt_oracle_ue_on_downlink(1.0, 250.0, FULL, REF, 12_000, 108)),
    )
    worst = 0.0
    for _, analytic, (mc, se) in cases:
        worst = max(worst, abs((mc - analytic) / se))
    report("C4 interference-transform oracles", worst <= 3.0,
           f"max |z| = {worst:.2f} over 8 points", t0, 300.0)


def test_c5_analytic_vs_simulation():
    t0 = time.perf_counter()
    cfg = SimConfig(n_realizations=N_REALIZATIONS, seed=CROSS_VALIDATION_SEED)
    alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    worst_gap = 0.0
    all_ok = True
    for beta in (0.0, 1e-8):
        p = dataclasses.replace(REF, beta=beta)
        for m in run_campaign(p, cfg, alphas, RT_PAIR):
            fn = (ber_uplink if m.direction is Direction.UPLINK
                  else ber_downlink)
            analytic = fn(m.alpha, factors_at(m.alpha, p), p).ber
            gap = abs(m.mean_ber - analytic)
            tol = max(CROSS_VALIDATION_TOL, 4.0 * m.std_err)
            all_ok = all_ok and gap <= tol
            worst_gap = max(worst_gap, gap)
    report("C5 analytic vs simulation", all_ok,
           f"24 points, {N_REALIZATIONS} realizations, "
           f"max |gap| = {worst_gap:.4f}", t0, 600.0)


@pytest.fixture(scope="module")
def operating_points():
    sr = sweep_alpha(REF, RT_PAIR, np.linspace(0.0, 1.0, 41))
    return sr, find_operating_points(sr)


def test_c6_balanced_operating_point(operating_points):
    t0 = time.perf_counter()
    _, pts = operating_points
    ok = 0.20 <= pts.balanced_alpha <= 0.35
    report("C6 balanced operating point", ok,
           f"balanced alpha = {pts.balanced_alpha:.4f}", t0, 120.0)


def test_c7_directional_throughput_claims(operating_points):
    t0 = time.perf_counter()
    _, pts = operating_points
    ok = (pts.fd_point.dl > pts.hd_baseline.dl
          and pts.fd_point.ul < pts.hd_baseline.ul
          and pts.balanced.ul >= pts.hd_baseline.ul
          and pts.balanced.dl >= pts.hd_baseline.dl)
    report("C7 directional throughput claims", ok,
           "full overlap: dl up, ul down; balanced >= baseline both ways",
           t0, 120.0)


def test_c8_property_suite():
    t0 = time.perf_counter()
    ok = True
    notes = []

    # factor bounds; identical pulses make the two cross factors coincide
    for pair in (RT_PAIR,
                 PulsePair(uplink=PulseKind.RECTANGULAR,
                           downlink=PulseKind.RECTANGULAR),
                 PulsePair(uplink=PulseKind.TRIANGULAR,
                           downlink=PulseKind.TRIANGULAR)):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            fac = factors_at(alpha, pair=pair)
            ok &= 0.0 <= fac.i_du_sq <= 1.0 and 0.0 <= fac.i_ud_sq <= 1.0
            ok &= fac.i_uu_sq == 1.0 and fac.i_dd_sq == 1.0
            if pair.uplink is pair.downlink:
                # mirror-image integrals, so agreement is to roundoff
                ok &= fac.i_du_sq == pytest.approx(fac.i_ud_sq, rel=1e-12)
    notes.append("factors")

    # serving-distance density integrates to one
    r_max_km = max_inversion_radius_m(REF) / 1000.0
    mass, _ = quad(lambda r: mo.distance_pdf(r, REF), 0.0, r_max_km)
    ok &= abs(mass - 1.0) <= 1e-9
    notes.append(f"pdf mass-1 {abs(mass - 1.0):.1e}")

    # transforms: bounded by one, one at s=0, nonincreasing in s
    s_grid = np.linspace(0.0, 10.0, 41)
    for lt in (lambda s: mo.laplace(_bs_on_uplink(FULL, REF), s),
               lambda s: mo.laplace(_ue_on_uplink(REF), s),
               lambda s: mo.laplace(_bs_on_downlink(REF), s, 200.0),
               lambda s: mo.laplace(_ue_on_downlink(FULL, REF), s, 200.0)):
        vals = np.array([lt(s) for s in s_grid])
        ok &= vals[0] == 1.0
        ok &= bool(np.all(vals > 0.0) and np.all(vals <= 1.0))
        ok &= bool(np.all(np.diff(vals) <= 1e-15))
    notes.append("transforms")

    # BER bounds and the throughput identity
    for alpha in (0.0, 0.5, 1.0):
        fac = factors_at(alpha)
        for m in (ber_uplink(alpha, fac, REF),
                  ber_downlink(alpha, fac, REF)):
            w1, _ = REF.omega(m.direction)
            ok &= 0.0 <= m.ber <= w1
            ok &= m.throughput == pytest.approx(
                math.log2(REF.m_symbols) * m.bandwidth * (1.0 - m.ber),
                rel=1e-15)
    notes.append("ber bounds")

    # determinism: bitwise-equal realizations and campaign rows
    cfg = SimConfig(n_realizations=3, seed=23)
    ra = sample_realization(REF, cfg, 0)
    rb = sample_realization(REF, cfg, 0)
    ok &= np.array_equal(ra.bs_positions, rb.bs_positions)
    ok &= np.array_equal(ra.tx_power, rb.tx_power)
    ok &= run_campaign(REF, cfg, [0.0, 0.7], RT_PAIR) == \
        run_campaign(REF, cfg, [0.0, 0.7], RT_PAIR)
    notes.append("determinism")

    # pooled standard error shrinks like 1/sqrt(n_links)
    small = run_campaign(REF, SimConfig(n_realizations=8, seed=21),
                         [0.4], RT_PAIR)
    big = run_campaign(REF, SimConfig(n_realizations=32, seed=21),
                       [0.4], RT_PAIR)
    for m_small, m_big in zip(small, big):
        ok &= 1.4 < m_small.std_err / m_big.std_err < 2.9
    notes.append("stderr scaling")

    # sweep invariants: increasing grid, balanced point actually balances
    sr = sweep_alpha(REF, RT_PAIR, np.linspace(0.0, 1.0, 21))
    ok &= all(b > a for a, b in zip(sr.alphas, sr.alphas[1:]))
    pts = find_operating_points(sr)
    ul, dl = sr.evaluate(pts.balanced_alpha)
    ok &= abs(ul.throughput - dl.throughput) <= 1e-9 * max(ul.throughput,
                                                           dl.throughput)
    notes.append("sweep")

    report("C8 property suite", bool(ok), ", ".join(notes), t0, 300.0)
