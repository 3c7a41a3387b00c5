"""
Throughput trade and the balanced operating point
=================================================

More overlap gives every link more bandwidth, but feeds the uplink's
self-interference and both directions' cross-mode interference.  The
downlink wins on net (BS power dominates its own interference budget),
the uplink loses, and somewhere in between the two throughput curves
cross.  This script sweeps the overlap fraction, locates that balanced
point plus the constrained "no uplink loss" point, and prints the
throughput deltas of full duplex and the balanced point against
classical half duplex.
"""

import numpy as np

from alphaduplex.model import SystemParams
from alphaduplex.pulse import PulseKind, PulsePair
from alphaduplex.sweep import find_operating_points, sweep_alpha

p = SystemParams()
pair = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)

sr = sweep_alpha(p, pair, np.linspace(0.0, 1.0, 101))
points = find_operating_points(sr)

print(f"{'alpha':>6s} {'t_ul [Mb/s]':>12s} {'t_dl [Mb/s]':>12s}")
for alpha, t_ul, t_dl, _, _ in sr.table()[::10]:
    print(f"{alpha:6.2f} {t_ul / 1e6:12.4f} {t_dl / 1e6:12.4f}")

print()
print(f"balanced point:   alpha = {points.balanced.alpha:.4f} "
      f"(t_ul = t_dl = {points.balanced.t_ul / 1e6:.4f} Mb/s)")
print(f"unbalanced point: alpha = {points.unbalanced.alpha:.4f} "
      f"(t_dl = {points.unbalanced.t_dl / 1e6:.4f} Mb/s, "
      f"uplink no worse than half duplex)")
for crossing in points.crossings:
    print(f"  crossing at alpha = {crossing.alpha:.6f}, "
          f"total {crossing.total / 1e6:.4f} Mb/s")
print()
for line in points.lines():
    print(line)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    table = np.array(sr.table())
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(table[:, 0], table[:, 1] / 1e6, label="uplink")
    ax.plot(table[:, 0], table[:, 2] / 1e6, label="downlink")
    ax.axvline(points.balanced.alpha, color="k", ls=":",
               label=f"balanced ({points.balanced.alpha:.3f})")
    ax.axvline(points.unbalanced.alpha, color="gray", ls="--",
               label=f"unbalanced ({points.unbalanced.alpha:.2f})")
    ax.set_xlabel("overlap fraction alpha")
    ax.set_ylabel("throughput [Mb/s]")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("throughput_operating_points.png", dpi=150)
    print("\nwrote throughput_operating_points.png")
