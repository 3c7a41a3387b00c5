"""Pulse spectra, band planning, and effective interference factors.

The uplink and downlink occupy adjacent bands that overlap by a fraction
controlled by the duplex parameter alpha: each direction's accessible band
grows from B_a at alpha=0 (half duplex) to B_a + B at alpha=1 (full overlap),
B = min(B_u, B_d), while the carrier spacing shrinks to match.  Cross-mode
interference is then scaled by the frequency-domain correlation between the
aggressor's transmit spectrum and the victim's matched filter, the effective
interference factor

    I_b->a(alpha) = integral over victim band of S_b(f - offset) S_a*(f) df.

Both spectra are normalized to unit energy inside their own allocated band,
which pins the co-channel factors I_u->u and I_d->d at exactly 1.

One kernel integrates the lobes between the shifted spectrum's nulls, for
every alpha asked for at once, in shared Gauss-Kronrod seed passes; each
factor stays bit-equal to integrating its lobes one at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import ClassVar

import numpy as np

from .model import Direction, SystemParams
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, adaptive_quad, quad_intervals

# Lobes per integrand call, 15 Kronrod nodes on each of their 8 seed panels:
# the lobes of an alpha grid are integrated this many at a time, in band
# order and across alpha boundaries, which bounds the memory of one call.
_LOBES_PER_CALL = 128


class PulseKind(enum.Enum):
    RECTANGULAR = "rectangular"   # sinc spectrum
    TRIANGULAR = "triangular"     # sinc^2 spectrum


@dataclass(frozen=True)
class PulsePair:
    """Pulse kinds for the two directions (the bands come from a BandPlan)."""

    uplink: PulseKind = PulseKind.TRIANGULAR
    downlink: PulseKind = PulseKind.RECTANGULAR


@dataclass(frozen=True)
class PulseShape:
    """A transmit pulse described in the frequency domain.

    ``allocated_band`` is the null-to-null main-lobe width the pulse is
    scaled to occupy; the spectrum is normalized so its energy inside
    [-allocated_band/2, +allocated_band/2] is exactly 1.
    """

    kind: PulseKind
    allocated_band: float  # Hz

    def __post_init__(self) -> None:
        if not self.allocated_band > 0.0:
            raise ValueError(
                f"allocated_band must be positive, got {self.allocated_band}")


@dataclass(frozen=True)
class BandPlan:
    """Spectrum layout for one value of the duplex parameter."""

    b_u: float      # Hz, uplink null-to-null band
    b_d: float      # Hz, downlink band
    alpha: float    # overlap fraction in [0, 1]
    b: float = field(init=False)               # min(b_u, b_d)
    carrier_offset: float = field(init=False)  # f_d - f_u, Hz

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", min(self.b_u, self.b_d))
        object.__setattr__(
            self, "carrier_offset", carrier_offset(self.b_u, self.b_d, self.alpha))

    def accessible_bandwidth(self, direction: Direction) -> float:
        if direction is Direction.UPLINK:
            return self.b_u + self.alpha * self.b
        return self.b_d + self.alpha * self.b


def link_throughput(p: SystemParams, direction: Direction, alpha: float,
                    ber: float) -> tuple[float, float]:
    """(accessible bandwidth, log2(M) * bandwidth * (1 - ber)) at ``alpha``."""
    bandwidth = BandPlan(p.b_u, p.b_d, alpha).accessible_bandwidth(direction)
    return bandwidth, math.log2(p.m_symbols) * bandwidth * (1.0 - ber)


@dataclass(frozen=True)
class InterferenceFactors:
    """The squared effective interference factors at one alpha.

    Two are stored: ``i_du_sq`` scales BS-on-uplink interference
    (|I_d->u|^2), ``i_ud_sq`` UE-on-downlink (|I_u->d|^2).  The other four
    are derived.  Residual self-interference is cross-mode interference
    from the receiver's own transmitter, so the SI factors ``i_su_sq`` and
    ``i_sd_sq`` read the corresponding cross factors; the co-channel
    factors ``i_uu_sq`` and ``i_dd_sq`` are unity by the in-band energy
    normalization.
    """

    i_du_sq: float
    i_ud_sq: float
    i_uu_sq: ClassVar[float] = 1.0
    i_dd_sq: ClassVar[float] = 1.0
    i_su_sq = property(lambda self: self.i_du_sq)
    i_sd_sq = property(lambda self: self.i_ud_sq)

    def __post_init__(self) -> None:
        for name in ("i_du_sq", "i_ud_sq"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def carrier_offset(b_u: float, b_d: float, alpha: float) -> float:
    """Carrier spacing f_d - f_u for overlap fraction alpha (Hz)."""
    if b_u <= 0.0 or b_d <= 0.0:
        raise ValueError("bandwidths must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return 0.5 * (b_u + b_d) - alpha * min(b_u, b_d)


@lru_cache(maxsize=None)
def _lobe_energy(kind: PulseKind) -> float:
    # integral over the main lobe, in units of the half-width: for a pulse
    # with nulls at +-1, int_{-1}^{1} sinc^2 or sinc^4.
    power = 2 if kind is PulseKind.RECTANGULAR else 4
    return adaptive_quad(lambda x: np.sinc(x) ** power, -1.0, 1.0,
                         QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15))


def _peak(pulse: PulseShape) -> float:
    # normalization constant c with S(f) = c * sinc^m(2 f / W):
    # 1 = c^2 (W/2) int_{-1}^{1} sinc^(2m)  =>  c = sqrt(2 / (W * J))
    return math.sqrt(2.0 / (pulse.allocated_band * _lobe_energy(pulse.kind)))


def _sinc_power(peak, band, squared, f):
    # peak * sinc(2 f / band)^m with m = 2 where ``squared``, else 1; the
    # arguments broadcast, one pulse per row in the batched factor kernel
    base = np.sinc(2.0 * f / band)
    return peak * np.where(squared, base * base, base)


def spectrum(pulse: PulseShape, f):
    """Pulse spectrum S(f), real-valued and even; scalar or ndarray ``f``.

    Rectangular time pulses give a sinc, triangular give a sinc^2, both
    scaled so the first nulls sit at +-allocated_band/2 and the in-band
    energy is 1.
    """
    f_arr = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f_arr)):
        raise ValueError("f must be finite")
    out = _sinc_power(_peak(pulse), pulse.allocated_band,
                      pulse.kind is PulseKind.TRIANGULAR, f_arr)
    return float(out) if out.ndim == 0 else out


def make_pulses(pair: PulsePair, plan: BandPlan) -> tuple[PulseShape, PulseShape]:
    """(uplink, downlink) pulses scaled to their alpha-dependent bands."""
    return (
        PulseShape(pair.uplink, plan.accessible_bandwidth(Direction.UPLINK)),
        PulseShape(pair.downlink, plan.accessible_bandwidth(Direction.DOWNLINK)),
    )


def _check_pulses(plan: BandPlan, pulse_u: PulseShape,
                  pulse_d: PulseShape) -> None:
    for pulse, direction in ((pulse_u, Direction.UPLINK),
                             (pulse_d, Direction.DOWNLINK)):
        expected = plan.accessible_bandwidth(direction)
        if not math.isclose(pulse.allocated_band, expected, rel_tol=1e-9):
            raise ValueError(
                f"{direction.value} pulse allocated_band {pulse.allocated_band} "
                f"does not match plan bandwidth {expected}")


def _lobes(victim: Direction, plan: BandPlan, pulse_u: PulseShape,
           pulse_d: PulseShape) -> list[tuple]:
    # One row (lo, hi, n_lobes, offset, then peak, band and sinc^2 flag of
    # the aggressor b and of the victim a) per lobe of I_b->a: the victim
    # band is cut at the nulls of the shifted aggressor spectrum, since one
    # adaptive pass over the whole band can stall on the oscillation.
    s_victim = pulse_u if victim is Direction.UPLINK else pulse_d
    s_aggr = pulse_d if victim is Direction.UPLINK else pulse_u
    # shift of the aggressor spectrum as seen in victim baseband: f_b - f_a
    offset = plan.carrier_offset
    if victim is Direction.DOWNLINK:
        offset = -offset

    half = 0.5 * s_victim.allocated_band
    edges = {-half, half}
    # nulls of the shifted aggressor spectrum: offset + k * W_b/2, k != 0
    half_b = 0.5 * s_aggr.allocated_band
    ks = range(math.ceil((-half - offset) / half_b),
               math.floor((half - offset) / half_b) + 1)
    nulls = (offset + k * half_b for k in ks if k != 0)  # k = 0: the peak
    edges.update(null for null in nulls if -half < null < half)
    bps = sorted(edges)
    params = (max(1, len(bps) - 1), offset,
              _peak(s_aggr), s_aggr.allocated_band,
              s_aggr.kind is PulseKind.TRIANGULAR,
              _peak(s_victim), s_victim.allocated_band,
              s_victim.kind is PulseKind.TRIANGULAR)
    return [(lo, hi, *params) for lo, hi in zip(bps[:-1], bps[1:])]


def _correlations(cases, spec: QuadratureSpec = DEFAULT_QUADRATURE
                  ) -> list[tuple[float, float]]:
    # (I_d->u, I_u->d) per (plan, pulse_u, pulse_d) case, bit-equal to
    # integrating the lobes one at a time: each lobe gets abs_tol / n_lobes,
    # and the lobes are summed in band order as Python floats.  The lobes
    # of all cases are integrated _LOBES_PER_CALL at a time, so one case
    # may span several calls.
    for case in cases:
        _check_pulses(*case)
    pending = (((i, k), lobe) for i, case in enumerate(cases)
               for k, victim in enumerate(Direction)
               for lobe in _lobes(victim, *case))
    totals = [[0.0, 0.0] for _ in cases]
    while chunk := list(islice(pending, _LOBES_PER_CALL)):
        owner, rows = zip(*chunk)
        for (j, k), value in zip(owner, _integrate_lobes(rows, spec)):
            totals[j][k] += value
    return [tuple(t) for t in totals]


def _integrate_lobes(rows, spec: QuadratureSpec) -> list[float]:
    table = np.array(rows, dtype=float)
    lo, hi, n_lobes = table[:, :3].T

    def integrand(sel):
        offset, peak_b, band_b, sq_b, peak_a, band_a, sq_a = (
            table[sel, 3:].T[..., None])

        def f(x):
            x = x.reshape(len(offset), -1)
            return (_sinc_power(peak_b, band_b, sq_b != 0.0, x - offset)
                    * _sinc_power(peak_a, band_a, sq_a != 0.0, x)).ravel()
        return f

    return quad_intervals(integrand, lo, hi, spec.abs_tol / n_lobes, spec)


def _squared(total: float) -> float:
    return min(max(total * total, 0.0), 1.0)


def interference_factors(plan: BandPlan, pulse_u: PulseShape,
                         pulse_d: PulseShape) -> InterferenceFactors:
    """The squared factors at the plan's alpha."""
    (du, ud), = _correlations([(plan, pulse_u, pulse_d)])
    return InterferenceFactors(_squared(du), _squared(ud))


def interference_factor_grid(b_u: float, b_d: float, pair: PulsePair,
                             alphas) -> list[InterferenceFactors]:
    """``interference_factors`` at every alpha, bit for bit, in one batch."""
    plans = [BandPlan(b_u, b_d, alpha) for alpha in alphas]
    return [InterferenceFactors(_squared(du), _squared(ud))
            for du, ud in _correlations(
                [(p, *make_pulses(pair, p)) for p in plans])]
