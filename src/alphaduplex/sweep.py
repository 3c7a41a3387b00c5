"""Overlap-fraction sweeps and operating-point search.

A sweep evaluates both link directions through the closed forms on a grid
of overlap fractions, and keeps the parameters and pulse pair so that it
can re-evaluate off-grid points later.  That re-evaluation power is what
makes the operating-point search work: the balanced point, where uplink
and downlink throughput cross, typically lives in a sliver far narrower
than any reasonable grid step, so the search densifies around near-touches
of the two curves until it brackets a sign change and then polishes the
root with Brent's method (``_brent``, a port of scipy's ``brentq``).

The network simulator checks the closed forms point by point
(``alphaduplex validate``); it does not drive sweeps, because every
off-grid probe would re-run the whole campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import LinkMetrics, ber_downlink, ber_uplink
from .model import Direction, SystemParams
from .pulse import (BandPlan, InterferenceFactors, PulsePair,
                    interference_factor_grid, interference_factors, make_pulses)

__all__ = [
    "NoCrossingError",
    "RefinementStallError",
    "ThroughputPair",
    "Crossing",
    "SweepResult",
    "OperatingPoints",
    "sweep_alpha",
    "find_operating_points",
]

# densification schedule and relative balance tolerance of the
# balanced-point search
_DENSE_POINTS = 33
_MAX_DEPTH = 8
_MAX_WINDOWS = 5
_REFINE_TOL = 1e-9

# Brent root polish: scipy's ``brentq`` defaults
_BRENT_RTOL = 4.0 * math.ulp(1.0)  # 4 eps
_BRENT_MAXITER = 100


class NoCrossingError(RuntimeError):
    """Uplink and downlink throughput never cross on the swept range."""


class RefinementStallError(RuntimeError):
    """A bracketed crossing could not be polished to the balance tolerance."""


@dataclass(frozen=True)
class ThroughputPair:
    """Uplink/downlink throughput (or throughput deltas) at one point."""

    ul: float
    dl: float


@dataclass(frozen=True)
class Crossing:
    """One balanced crossing: equal-throughput overlap fraction."""

    alpha: float
    t_ul: float
    t_dl: float

    @property
    def total(self) -> float:
        return self.t_ul + self.t_dl


@dataclass(frozen=True)
class SweepResult:
    """Both-direction metrics over an increasing overlap-fraction grid.

    Carries the parameters and pulse pair, so the operating-point search
    can re-evaluate the same curves at arbitrary overlap fractions.
    """

    rows: tuple[tuple[float, LinkMetrics, LinkMetrics], ...]
    params: SystemParams
    pulses: PulsePair

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("rows must be nonempty")
        prev = -1.0
        for alpha, ul, dl in self.rows:
            if not 0.0 <= alpha <= 1.0:
                raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
            if alpha <= prev:
                raise ValueError("alphas must be strictly increasing")
            prev = alpha
            if ul.direction is not Direction.UPLINK or ul.alpha != alpha:
                raise ValueError("first metrics of each row must be uplink "
                                 "at the row's alpha")
            if dl.direction is not Direction.DOWNLINK or dl.alpha != alpha:
                raise ValueError("second metrics of each row must be "
                                 "downlink at the row's alpha")

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(r[0] for r in self.rows)

    def evaluate(self, alpha: float) -> tuple[LinkMetrics, LinkMetrics]:
        """Both-direction metrics at ``alpha`` for this sweep's inputs."""
        alpha = float(alpha)
        plan = BandPlan(self.params.b_u, self.params.b_d, alpha)
        factors = interference_factors(plan, *make_pulses(self.pulses, plan))
        return _evaluate_point(self.params, alpha, factors)

    def table(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """Rows of (alpha, t_ul, t_dl, ber_ul, ber_dl)."""
        return tuple((alpha, ul.throughput, dl.throughput, ul.ber, dl.ber)
                     for alpha, ul, dl in self.rows)


@dataclass(frozen=True)
class OperatingPoints:
    """Balanced and unbalanced operating points with their throughputs.

    ``crossings`` lists every balanced crossing found; ``balanced_alpha``
    is the one with the largest total throughput (ties going to the larger
    overlap fraction).  ``unbalanced_alpha`` maximizes downlink throughput
    over the sweep grid subject to no uplink loss relative to zero overlap.
    The deltas compare full overlap and the balanced point against zero
    overlap, in percent per direction.
    """

    balanced_alpha: float
    unbalanced_alpha: float
    hd_baseline: ThroughputPair
    fd_point: ThroughputPair
    balanced: ThroughputPair
    unbalanced: ThroughputPair
    crossings: tuple[Crossing, ...]

    def __post_init__(self) -> None:
        for name in ("balanced_alpha", "unbalanced_alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not self.crossings:
            raise ValueError("crossings must be nonempty")

    @property
    def fd_delta(self) -> ThroughputPair:
        hd, fd = self.hd_baseline, self.fd_point
        return ThroughputPair(ul=_pct(fd.ul, hd.ul), dl=_pct(fd.dl, hd.dl))

    @property
    def balanced_delta(self) -> ThroughputPair:
        hd, bal = self.hd_baseline, self.balanced
        return ThroughputPair(ul=_pct(bal.ul, hd.ul), dl=_pct(bal.dl, hd.dl))

    def lines(self) -> tuple[str, ...]:
        """Line-oriented key=value rendering, as written to summary.txt."""
        fd_delta, balanced_delta = self.fd_delta, self.balanced_delta
        items = [
            ("balanced_alpha", self.balanced_alpha),
            ("unbalanced_alpha", self.unbalanced_alpha),
            ("hd_ul_bps", self.hd_baseline.ul),
            ("hd_dl_bps", self.hd_baseline.dl),
            ("fd_ul_bps", self.fd_point.ul),
            ("fd_dl_bps", self.fd_point.dl),
            ("balanced_ul_bps", self.balanced.ul),
            ("balanced_dl_bps", self.balanced.dl),
            ("fd_delta_ul_pct", fd_delta.ul),
            ("fd_delta_dl_pct", fd_delta.dl),
            ("balanced_delta_ul_pct", balanced_delta.ul),
            ("balanced_delta_dl_pct", balanced_delta.dl),
        ]
        items += [(f"crossing_{i}_alpha", c.alpha)
                  for i, c in enumerate(self.crossings, start=1)]
        return tuple(f"{k}={v:.12g}" for k, v in items)


def _pct(new: float, base: float) -> float:
    if base == 0.0:
        if new == 0.0:
            return 0.0
        return math.copysign(math.inf, new)
    return 100.0 * (new - base) / base


def _evaluate_point(params: SystemParams, alpha: float,
                    factors: InterferenceFactors) -> tuple[LinkMetrics, LinkMetrics]:
    return (ber_uplink(alpha, factors, params),
            ber_downlink(alpha, factors, params))


def _validated_grid(grid) -> tuple[float, ...]:
    alphas = tuple(float(a) for a in np.atleast_1d(np.asarray(grid, dtype=float)))
    if not alphas:
        raise ValueError("grid must be nonempty")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("grid must be strictly increasing")
    return alphas


def sweep_alpha(params: SystemParams, pulses: PulsePair,
                grid) -> SweepResult:
    """Evaluate both directions at every grid overlap fraction."""
    alphas = _validated_grid(grid)
    factors = interference_factor_grid(params.b_u, params.b_d, pulses, alphas)
    rows = tuple((a, *_evaluate_point(params, a, f))
                 for a, f in zip(alphas, factors))
    return SweepResult(rows=rows, params=params, pulses=pulses)


class _CachedCurves:
    """Memoized re-evaluation of a sweep's throughput curves."""

    def __init__(self, sr: SweepResult) -> None:
        self._sr = sr
        self._cache = {alpha: (ul, dl) for alpha, ul, dl in sr.rows}

    def point(self, alpha: float) -> tuple[LinkMetrics, LinkMetrics]:
        alpha = float(alpha)
        if alpha not in self._cache:
            self._cache[alpha] = self._sr.evaluate(alpha)
        return self._cache[alpha]

    def gap(self, alpha: float) -> float:
        ul, dl = self.point(alpha)
        return ul.throughput - dl.throughput

    def balanced_at(self, alpha: float) -> bool:
        ul, dl = self.point(alpha)
        return (abs(ul.throughput - dl.throughput)
                <= _REFINE_TOL * max(ul.throughput, dl.throughput))


def _scan(curves: _CachedCurves, xs) -> tuple[list, list]:
    """Split a grid into balanced points and strict sign-change brackets.

    A maximal run of grid points already within the balance tolerance
    collapses to its largest member (the documented tie-break for flat
    balanced stretches); sign changes between strictly unbalanced
    neighbors become brackets for root polishing.
    """
    xs = list(xs)
    gaps = [curves.gap(x) for x in xs]
    ok = [curves.balanced_at(x) for x in xs]
    roots, brackets = [], []
    i = 0
    while i < len(xs):
        if ok[i]:
            while i + 1 < len(xs) and ok[i + 1]:
                i += 1
            roots.append(xs[i])
        i += 1
    for i in range(len(xs) - 1):
        if not ok[i] and not ok[i + 1] and (gaps[i] > 0.0) != (gaps[i + 1] > 0.0):
            brackets.append((xs[i], xs[i + 1]))
    return roots, brackets


def _refine_window(curves: _CachedCurves, lo: float, hi: float,
                   prev_min: float, depth: int) -> tuple[list, list]:
    """Chase a near-touch of the curves down to a root or a resolved dip."""
    if depth >= _MAX_DEPTH or not hi - lo > 1e-12:
        return [], []
    xs = np.linspace(lo, hi, _DENSE_POINTS)
    roots, brackets = _scan(curves, xs)
    if roots or brackets:
        return roots, brackets
    absd = [abs(curves.gap(x)) for x in xs]
    k = int(np.argmin(absd))
    if absd[k] >= 0.9 * prev_min:
        return [], []  # dip resolved without reaching zero
    lo2 = xs[max(0, k - 1)]
    hi2 = xs[min(len(xs) - 1, k + 1)]
    return _refine_window(curves, lo2, hi2, absd[k], depth + 1)


def _local_minima_windows(curves: _CachedCurves,
                          alphas: tuple[float, ...]) -> list[tuple[float, float, float]]:
    absd = [abs(curves.gap(a)) for a in alphas]
    n = len(alphas)
    windows = []
    for i in range(n):
        left = absd[i - 1] if i > 0 else math.inf
        right = absd[i + 1] if i < n - 1 else math.inf
        if absd[i] <= left and absd[i] <= right:
            windows.append((absd[i], alphas[max(0, i - 1)],
                            alphas[min(n - 1, i + 1)]))
    windows.sort(key=lambda w: w[0])
    return windows[:_MAX_WINDOWS]


def _brent(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` bracketed by [a, b], by Brent's method.

    A port of scipy's ``brentq`` (the C ``zeroin``: Brent, *Algorithms for
    Minimization without Derivatives*, 1973) with its default relative
    tolerance and iteration limit.  It keeps the same step rules and the
    same arithmetic order, so it evaluates ``f`` at the same points and
    returns the same root bits.  Raises RefinementStallError when the
    iteration limit runs out.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                # the denominator can underflow to 0, where C's division
                # gives inf or nan: either one bisects below
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RefinementStallError(
        "crossing refinement stalled: Brent's method did not converge in "
        f"{_BRENT_MAXITER} iterations on [{a:.12g}, {b:.12g}]")


def _balanced_crossings(curves: _CachedCurves,
                        alphas: tuple[float, ...]) -> list[Crossing]:
    roots, brackets = _scan(curves, alphas)
    if not roots and not brackets:
        # near-touches hide between grid points; densify around each local
        # minimum of the throughput gap until a sign change appears
        for d_min, lo, hi in _local_minima_windows(curves, alphas):
            r, b = _refine_window(curves, lo, hi, d_min, 0)
            roots.extend(r)
            brackets.extend(b)
    for lo, hi in brackets:
        root = _brent(curves.gap, float(lo), float(hi), xtol=1e-13)
        if not curves.balanced_at(root):
            raise RefinementStallError(
                "crossing refinement stalled above the requested balance "
                f"tolerance near alpha = {root:.12g}")
        roots.append(root)
    roots.sort()
    return [Crossing(alpha=r, t_ul=curves.point(r)[0].throughput,
                     t_dl=curves.point(r)[1].throughput)
            for r in _dedupe(roots)]


def _dedupe(sorted_roots: list[float]) -> list[float]:
    out: list[float] = []
    for r in sorted_roots:
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


def find_operating_points(sr: SweepResult) -> OperatingPoints:
    """Locate the balanced and unbalanced overlap fractions of a sweep.

    The balanced point is a root of t_ul(alpha) - t_dl(alpha), bracketed
    on (a densification of) the sweep grid, polished by Brent's method and
    accepted when |t_ul - t_dl| <= _REFINE_TOL * max(t_ul, t_dl); with
    several crossings the one with the largest total throughput wins and
    all are reported.
    The unbalanced point maximizes downlink throughput over the grid
    subject to t_ul(alpha) >= t_ul(0) (tiny relative slack); if no grid
    point qualifies it falls back to zero overlap.

    Raises NoCrossingError when the throughput gap keeps one sign over the
    swept range, and RefinementStallError when Brent's method runs out of
    iterations or a polished root misses that tolerance.
    """
    curves = _CachedCurves(sr)
    alphas = sr.alphas

    crossings = _balanced_crossings(curves, alphas)
    if not crossings:
        raise NoCrossingError("uplink and downlink throughput do not cross "
                              "on the swept overlap range")
    best = max(crossings, key=lambda c: (c.total, c.alpha))

    hd_ul, hd_dl = curves.point(0.0)
    fd_ul, fd_dl = curves.point(1.0)
    t_ul0 = hd_ul.throughput
    feasible = [(alpha, ul, dl) for alpha, ul, dl in sr.rows
                if ul.throughput >= t_ul0 * (1.0 - 1e-9)]
    if feasible:
        ub_alpha, ub_ul, ub_dl = max(feasible,
                                     key=lambda r: (r[2].throughput, r[0]))
    else:
        ub_alpha, (ub_ul, ub_dl) = 0.0, curves.point(0.0)

    return OperatingPoints(
        balanced_alpha=best.alpha,
        unbalanced_alpha=ub_alpha,
        hd_baseline=ThroughputPair(ul=t_ul0, dl=hd_dl.throughput),
        fd_point=ThroughputPair(ul=fd_ul.throughput, dl=fd_dl.throughput),
        balanced=ThroughputPair(ul=best.t_ul, dl=best.t_dl),
        unbalanced=ThroughputPair(ul=ub_ul.throughput, dl=ub_dl.throughput),
        crossings=tuple(crossings),
    )
