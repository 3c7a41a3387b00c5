"""System and campaign parameters, closed-form stochastic-geometry primitives.

Conventions used throughout the package:

* BS intensity is quoted per km^2 and map coordinates are in km (the scales
  people reason about), but the power law ``rho * r**eta`` and everything
  downstream of it evaluates distances in meters.
* Powers are watts internally; dBm/dB appear only at configuration
  boundaries (see the converters below).

The uplink uses truncated channel inversion: a UE at distance r from its BS
transmits rho * r**eta so the mean received power is rho, and stays silent
when that would exceed p_u_max.  This truncates the serving-distance
distribution at (p_u_max / rho)**(1/eta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import lower_gamma_2

__all__ = [
    "M_PER_KM",
    "Direction",
    "dbm_to_watts",
    "db_to_linear",
    "SystemParams",
    "SimConfig",
    "StarvationError",
    "max_inversion_radius_m",
    "check_closed_form_domain",
    "uplink_power_moment",
]

M_PER_KM = 1000.0


class Direction(enum.Enum):
    UPLINK = "uplink"
    DOWNLINK = "downlink"


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** (x_dbm / 10.0) * 1e-3


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Physical and network constants.

    Defaults reproduce the reference configuration: rho = -70 dBm,
    p_b = 5 W, lambda_bs = 3 BS/km^2, p_u_max = 1 W, 1 MHz bands,
    beta = -80 dB, n0 = -90 dBm, unit modulation constants.
    """

    lambda_bs: float = 3.0       # BS per km^2
    eta: float = 4.0             # path-loss exponent, > 2
    rho: float = 1e-10           # W, uplink power-control target
    p_b: float = 5.0             # W, BS transmit power
    p_u_max: float = 1.0         # W, UE maximum transmit power
    beta: float = 1e-8           # residual self-interference attenuation, linear
    n0: float = 1e-12            # W, noise power at the matched-filter output
    b_u: float = 1e6             # Hz, uplink null-to-null band
    b_d: float = 1e6             # Hz, downlink null-to-null band
    omega1_u: float = 1.0        # modulation constants: BER = w1*erfc(sqrt(w2*SINR))
    omega2_u: float = 1.0
    omega1_d: float = 1.0
    omega2_d: float = 1.0
    m_symbols: int = 2           # constellation size M

    def __post_init__(self) -> None:
        if not 2.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and exceed 2, got {self.eta}")
        positive = {
            "lambda_bs": self.lambda_bs, "rho": self.rho, "p_b": self.p_b,
            "p_u_max": self.p_u_max, "n0": self.n0, "b_u": self.b_u,
            "b_d": self.b_d, "omega1_u": self.omega1_u,
            "omega2_u": self.omega2_u, "omega1_d": self.omega1_d,
            "omega2_d": self.omega2_d,
        }
        for name, value in positive.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive, "
                                 f"got {value}")
        if self.rho > self.p_u_max:
            raise ValueError(
                f"rho ({self.rho} W) cannot exceed p_u_max ({self.p_u_max} W)")
        # b_u + alpha min(b_u, b_d), an accessible band, is at most this sum
        if not math.isfinite(self.b_u + self.b_d):
            raise ValueError("b_u + b_d must be finite, got "
                             f"{self.b_u} + {self.b_d} Hz")
        # half a band positive, and the pulse peaks sqrt(2 / (W J)) finite
        if not min(self.b_u, self.b_d) >= 1e-307:
            raise ValueError("b_u and b_d must be at least 1e-307 Hz, so that "
                             f"the pulse spectra are finite; got {self.b_u}, "
                             f"{self.b_d} Hz")
        # the interference factors integrate about twice this ratio in lobes
        if max(self.b_u, self.b_d) > 1e3 * min(self.b_u, self.b_d):
            raise ValueError("b_u and b_d must lie within a factor 1000 of "
                             f"each other, got {self.b_u} and {self.b_d} Hz")
        if max(self.omega1_u, self.omega1_d) > 1.0:
            raise ValueError("omega1_u and omega1_d scale a BER and must not "
                             f"exceed 1, got {self.omega1_u}, {self.omega1_d}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.m_symbols < 2:
            raise ValueError(f"m_symbols must be >= 2, got {self.m_symbols}")

    @property
    def lambda_per_m2(self) -> float:
        return self.lambda_bs * 1e-6

    @property
    def sigma_n_sq(self) -> float:
        """Post-matched-filter noise variance, sigma_n^2 = N_o / 2 watts."""
        return 0.5 * self.n0

    def omega(self, direction: Direction) -> tuple[float, float]:
        if direction is Direction.UPLINK:
            return self.omega1_u, self.omega2_u
        return self.omega1_d, self.omega2_d


@dataclass(frozen=True)
class SimConfig:
    """Campaign geometry and reproducibility knobs.

    region_side 20 km gives the 400 km^2 deployment; core_side 2 km keeps
    measurements inside the central 4 km^2 away from region edges.
    """

    n_realizations: int = 100
    seed: int = 1
    region_side: float = 20.0   # km
    core_side: float = 2.0      # km

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not 0.0 < self.core_side < self.region_side < math.inf:
            raise ValueError("core_side and region_side must satisfy "
                             "0 < core_side < region_side < inf")


class StarvationError(RuntimeError):
    """A BS exhausted its candidate budget without finding an admissible UE.

    Signals an infeasible power-control configuration (inversion radius
    far smaller than the typical cell) rather than silently leaving cells
    empty, which would bias interference downward.
    """


def max_inversion_radius_m(p: SystemParams) -> float:
    """Largest serving distance (meters) a UE can invert: (p_u_max/rho)^(1/eta)."""
    return (p.p_u_max / p.rho) ** (1.0 / p.eta)


def check_closed_form_domain(p: SystemParams) -> None:
    """Raise ValueError where the closed forms cannot evaluate p.

    Each bound is the exact condition under which they fail, so every
    value they can evaluate keeps its result.
    """
    if p.p_u_max / p.rho == math.inf:
        raise ValueError("p_u_max / rho must be finite, so that the "
                         f"inversion radius is; got {p.p_u_max} W / {p.rho} W")
    if 1.0 - 2.0 / p.eta == 1.0:   # the 2F1 kernel's b = 1 - 2/eta
        raise ValueError(f"eta must leave 1 - 2/eta below 1 in double "
                         f"precision, got {p.eta}")
    pi_lam, _, norm = _inversion_disk(p)
    if pi_lam * norm == 0.0:   # uplink_power_moment's denominator
        raise ValueError(f"lambda_bs is too small: pi lambda (1 - e^-c) "
                         f"underflows to 0 at {p.lambda_bs} /km2")
    try:
        # _ue_on_uplink's factor: a float power that overflows raises
        p.rho ** (-2.0 / p.eta)
    except OverflowError:
        raise ValueError(f"rho must keep rho^(-2/eta) below the largest "
                         f"double, got {p.rho} W at eta {p.eta}") from None


def uplink_power_moment(p: SystemParams) -> float:
    """E[P_u^(2/eta)] of the truncated channel-inversion uplink power.

    The one moment the UE-interference transforms need, in closed form via
    the lower incomplete gamma function of order 2:
        E[P_u^(2/eta)] = rho^(2/eta) * gamma(2, c) / (pi lam (1 - e^-c)),
    with c = pi lam (p_u_max/rho)^(2/eta) and lam in m^-2 (the power law
    reads distances in meters).
    """
    pi_lam, c, norm = _inversion_disk(p)
    return p.rho ** (2.0 / p.eta) * lower_gamma_2(c) / (pi_lam * norm)


def _inversion_disk(p: SystemParams) -> tuple[float, float, float]:
    # (pi lam, c, 1 - e^-c): c = pi lam (p_u_max/rho)^(2/eta) is the mean BS
    # count in the inversion disk, 1 - e^-c the chance that it holds one
    pi_lam = math.pi * p.lambda_per_m2
    c = pi_lam * (p.p_u_max / p.rho) ** (2.0 / p.eta)
    return pi_lam, c, -math.expm1(-c)
