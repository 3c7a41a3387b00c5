"""Layer probes: direct timed calls into single layers, at the reference config.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/probes.py

Each probe is the median of repeated calls (at least three, and at least
0.3 s of calls), so a layer's number does not depend on a workload's mix.
Prints one JSON object: the timings (``metrics``), the probes whose function
the package no longer defines (``absent``, timed as 0), a digest of each
probe's return value (``values``, which check.py compares with the frozen
reference), and the machine facts: ``nproc`` and the Python, numpy and
scipy versions.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from time import perf_counter

PROBES = (
    "probe.hyp2f1_special_1e5.s",
    "probe.interference_factors.s",
    "probe.ber_uplink.s",
    "probe.ber_uplink_eta4.s",
    "probe.ber_downlink.s",
    "probe.ber_downlink_eta4.s",
    "probe.sample_realization.s",
    "probe.run_campaign_100x11.s",
)
ALPHA = 0.3
MIN_REPEATS = 3
MIN_SECONDS = 0.3


def machine_facts() -> dict[str, str | int]:
    import numpy as np
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _median_time(fn) -> tuple[float, object]:
    """Median time of repeated calls, and the last call's return value."""
    times = []
    start = perf_counter()
    while len(times) < MIN_REPEATS or perf_counter() - start < MIN_SECONDS:
        t0 = perf_counter()
        value = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), value


def probe_calls() -> dict[str, tuple | None]:
    """Probe name -> (zero-argument call, digest of its return value), or
    None when the layer is gone.  A digest is a short list of numbers."""
    import numpy as np

    from alphaduplex import analytic, montecarlo, pulse, specfun
    from alphaduplex.model import SystemParams

    p = SystemParams()
    pair = pulse.PulsePair(uplink=pulse.PulseKind.TRIANGULAR,
                           downlink=pulse.PulseKind.RECTANGULAR)
    plan = pulse.BandPlan(p.b_u, p.b_d, ALPHA)
    shapes = pulse.make_pulses(pair, plan)
    factors = pulse.interference_factors(plan, *shapes)
    x = np.logspace(-6, 6, 100_000)
    sim = montecarlo.SimConfig(n_realizations=100, seed=1)
    alphas = list(np.linspace(0.0, 1.0, 11))

    def ber(name):
        fn = getattr(analytic, name, None)
        return None if fn is None else (
            lambda: fn(ALPHA, factors, p), lambda m: [m.ber, m.throughput])

    hyp2f1 = getattr(specfun, "hyp2f1_special", None)
    return {
        "probe.hyp2f1_special_1e5.s": None if hyp2f1 is None else (
            lambda: hyp2f1(0.5, x), lambda v: np.asarray(v)[::1000].tolist()),
        "probe.interference_factors.s": (
            lambda: pulse.interference_factors(plan, *shapes),
            lambda f: [f.i_du_sq, f.i_ud_sq, f.i_su_sq, f.i_sd_sq,
                       f.i_uu_sq, f.i_dd_sq]),
        "probe.ber_uplink.s": ber("ber_uplink"),
        "probe.ber_uplink_eta4.s": ber("ber_uplink_eta4"),
        "probe.ber_downlink.s": ber("ber_downlink"),
        "probe.ber_downlink_eta4.s": ber("ber_downlink_eta4"),
        "probe.sample_realization.s": (
            lambda: montecarlo.sample_realization(p, sim, 0),
            lambda r: [r.n_bs, float(r.bs_positions.sum()),
                       float(r.ue_positions.sum()), float(r.tx_power.sum())]),
        "probe.run_campaign_100x11.s": (
            lambda: montecarlo.run_campaign(p, sim, alphas, pair),
            lambda ms: [v for m in ms
                        for v in (m.mean_ber, m.std_err, m.n_links)]),
    }


def run() -> dict:
    calls = probe_calls()
    metrics, values, absent = {}, {}, []
    for name in PROBES:
        if calls[name] is None:
            absent.append(name)
            metrics[name] = 0.0
            continue
        fn, digest = calls[name]
        metrics[name], value = _median_time(fn)
        values[name] = [float(v) for v in digest(value)]
    return {"metrics": metrics, "values": values, "absent": absent,
            "machine": machine_facts()}


if __name__ == "__main__":
    print(json.dumps(run()))
