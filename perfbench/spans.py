"""Spans and counters around the package's public functions.

Installed in a traced child after ``import alphaduplex.cli`` and before
``cli.main`` runs.  Each span records calls and self time: its duration
minus the part covered by nested spans.  A wrapper replaces the function
in every ``alphaduplex`` module that binds it, because ``sweep`` and
``cli`` bind ``ber_*`` and friends with ``from ... import``.  A name the
package no longer defines is listed as absent instead of failing.

The call stack is a single list, which is sound because the workloads run
single-threaded (``ALPHADUPLEX_WORKERS`` unset).
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

# (module, attribute) pairs timed as spans; metric prefix "<module>.<attr>".
TIMED = (
    ("cli", "main"),
    ("sweep", "sweep_alpha"),
    ("sweep", "find_operating_points"),
    ("analytic", "ber_uplink"),
    ("analytic", "ber_downlink"),
    ("analytic", "ber_uplink_eta4"),
    ("analytic", "ber_downlink_eta4"),
    ("analytic", "hamdi_average"),
    ("pulse", "interference_factors"),
    ("specfun", "hyp2f1_special"),
    ("specfun", "integrate_semi_infinite"),
    ("specfun", "adaptive_quad_batch"),
    ("specfun", "adaptive_quad"),
    ("montecarlo", "sample_realization"),
    ("montecarlo", "run_campaign"),
)

# Counted but not timed, so their time stays with the caller's span.
COUNTED = {
    "sweep.offgrid_evals": ("sweep", "SweepResult.evaluate"),
    "model.uplink_power_moment.calls": ("model", "uplink_power_moment"),
}

# Work counters read from a span's arguments or result.
COUNTERS = ("sweep.grid_points", "sweep.crossings", "specfun.hyp2f1_special.args",
            "montecarlo.n_bs_mean", "montecarlo.links_ul", "montecarlo.links_dl")


class Tracer:
    """Self time and calls per span, plus work counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = dict.fromkeys(
            list(COUNTERS) + list(COUNTED), 0)
        self.n_bs: list[int] = []
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, observe=None):
        self.self_s[name] = 0.0
        self.calls[name] = 0
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by nested spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self) -> dict:
        counts = self.counts

        def grid(args, result):
            counts["sweep.grid_points"] += len(getattr(result, "rows", ()))

        def crossings(args, result):
            counts["sweep.crossings"] += len(getattr(result, "crossings", ()))

        def hyp_args(args, result):
            counts["specfun.hyp2f1_special.args"] += int(np.size(args[1]))

        def realization(args, result):
            self.n_bs.append(int(result.n_bs))

        def campaign(args, result):
            # every alpha pools the same links; count them once per campaign
            links = {m.direction.value: int(m.n_links) for m in result}
            counts["montecarlo.links_ul"] += links.get("uplink", 0)
            counts["montecarlo.links_dl"] += links.get("downlink", 0)

        return {
            "sweep.sweep_alpha": grid,
            "sweep.find_operating_points": crossings,
            "specfun.hyp2f1_special": hyp_args,
            "montecarlo.sample_realization": realization,
            "montecarlo.run_campaign": campaign,
        }

    def install(self) -> None:
        """Wrap every listed function wherever the package binds it."""
        observers = self._observers()
        for module, attr in TIMED:
            name = f"{module}.{attr}"
            self._replace(module, attr,
                          lambda fn, n=name: self.span(n, fn, observers.get(n)))
        for metric, (module, attr) in COUNTED.items():
            self._replace(module, attr,
                          lambda fn, m=metric: self.counter(m, fn))

    def _replace(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(f"alphaduplex.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        setattr(owner, leaf, wrapped)
        if path:
            return  # a method: callers find it through the class
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "alphaduplex" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for module, attr in TIMED:
            name = f"{module}.{attr}"
            out[f"{name}.s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        out.update(self.counts)
        out["montecarlo.n_bs_mean"] = (sum(self.n_bs) / len(self.n_bs)
                                       if self.n_bs else 0.0)
        return out

