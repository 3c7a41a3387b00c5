"""
BER vs overlap: closed form against simulation
==============================================

The headline claim of the analysis is that the closed-form spatially
averaged BER tracks a full network simulation across the whole overlap
range, in both directions, with and without residual self-interference.
This script reproduces that comparison at desk scale: analytic curves
on a fine grid, empirical markers from a few hundred random network
realizations on a coarse one.
"""

import dataclasses

import numpy as np

from alphaduplex.analytic import ber_downlink, ber_uplink
from alphaduplex.model import Direction, SystemParams
from alphaduplex.montecarlo import SimConfig, run_campaign
from alphaduplex.pulse import BandPlan, PulseKind, PulsePair, interference_factors, make_pulses

pair = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)
betas = {"no self-interference": 0.0, "-80 dB residual": 1e-8}

fine = np.linspace(0.0, 1.0, 51)
coarse = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
cfg = SimConfig(n_realizations=150, seed=7)

analytic = {}
empirical = {}
for label, beta in betas.items():
    p = dataclasses.replace(SystemParams(), beta=beta)

    def factors(alpha):
        plan = BandPlan(p.b_u, p.b_d, alpha)
        return interference_factors(plan, *make_pulses(pair, plan))

    analytic[label] = {
        Direction.UPLINK: [ber_uplink(a, factors(a), p).ber for a in fine],
        Direction.DOWNLINK: [ber_downlink(a, factors(a), p).ber for a in fine],
    }
    rows = run_campaign(p, cfg, coarse, pair)
    empirical[label] = {
        d: [(m.mean_ber, m.std_err) for m in rows if m.direction is d]
        for d in Direction
    }

for label in betas:
    print(f"\n{label}")
    print(f"{'alpha':>6s} {'ul analytic':>12s} {'ul simulated':>13s} "
          f"{'dl analytic':>12s} {'dl simulated':>13s}")
    for i, alpha in enumerate(coarse):
        ul_a = analytic[label][Direction.UPLINK][fine.searchsorted(alpha)]
        dl_a = analytic[label][Direction.DOWNLINK][fine.searchsorted(alpha)]
        ul_m, ul_se = empirical[label][Direction.UPLINK][i]
        dl_m, dl_se = empirical[label][Direction.DOWNLINK][i]
        print(f"{alpha:6.1f} {ul_a:12.4f} {ul_m:9.4f}({ul_se:.4f}) "
              f"{dl_a:12.4f} {dl_m:9.4f}({dl_se:.4f})")

# the uplink is the fragile direction: once the bands overlap, the BS
# receives its own downlink leakage, and with -80 dB residual loop gain
# the uplink BER saturates quickly
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, (label, beta) in zip(axes, betas.items()):
        for d, style in ((Direction.UPLINK, "C0"), (Direction.DOWNLINK, "C1")):
            ax.plot(fine, analytic[label][d], style, label=f"{d.value} analytic")
            means = [m for m, _ in empirical[label][d]]
            errs = [3 * s for _, s in empirical[label][d]]
            ax.errorbar(coarse, means, yerr=errs, fmt=style + "o",
                        mfc="none", label=f"{d.value} simulated")
        ax.set_title(label)
        ax.set_xlabel("overlap fraction alpha")
    axes[0].set_ylabel("spatially averaged BER")
    axes[0].legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("ber_curves.png", dpi=150)
    print("\nwrote ber_curves.png")
