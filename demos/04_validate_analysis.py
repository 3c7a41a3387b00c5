"""
Cross-validating the two evaluation paths
=========================================

The closed forms lean on one deliberate approximation: interfering
uplink UEs are treated as an independent point process.  The simulator
makes the opposite choice and places exactly one UE per serving cell,
so agreement between the two paths is evidence the approximation is
harmless at these densities.  This script runs both and reports the
largest BER gap per direction against the 0.02 acceptance budget,
same tolerance the automated gate uses.
"""

import dataclasses

from alphaduplex.analytic import ber_downlink, ber_uplink
from alphaduplex.model import Direction, SystemParams
from alphaduplex.montecarlo import SimConfig, run_campaign
from alphaduplex.pulse import BandPlan, PulseKind, PulsePair, interference_factors, make_pulses

TOLERANCE = 0.02

pair = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)
alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
cfg = SimConfig(n_realizations=200, seed=61)

for beta in (0.0, 1e-8):
    p = dataclasses.replace(SystemParams(), beta=beta)
    rows = run_campaign(p, cfg, alphas, pair)
    worst = {Direction.UPLINK: 0.0, Direction.DOWNLINK: 0.0}
    print(f"\nbeta = {beta:g}")
    print(f"{'direction':>9s} {'alpha':>6s} {'analytic':>9s} "
          f"{'simulated':>10s} {'gap':>8s} {'tol':>7s}")
    for m in rows:
        plan = BandPlan(p.b_u, p.b_d, m.alpha)
        fac = interference_factors(plan, *make_pulses(pair, plan))
        fn = (ber_uplink if m.direction is Direction.UPLINK
              else ber_downlink)
        analytic = fn(m.alpha, fac, p).ber
        gap = abs(analytic - m.mean_ber)
        tol = max(TOLERANCE, 4.0 * m.std_err)
        worst[m.direction] = max(worst[m.direction], gap)
        flag = "" if gap <= tol else "  <-- exceeds tolerance"
        print(f"{m.direction.value:>9s} {m.alpha:6.1f} {analytic:9.4f} "
              f"{m.mean_ber:10.4f} {gap:8.4f} {tol:7.4f}{flag}")
    print(f"max gap: uplink {worst[Direction.UPLINK]:.4f}, "
          f"downlink {worst[Direction.DOWNLINK]:.4f} "
          f"(budget {TOLERANCE})")
