"""Closed-form spatially averaged BER and throughput for both link directions.

The chain has three layers:

1. Laplace transforms of the normalized aggregate interference seen by an
   uplink receiver (its own BS) and a downlink receiver (a UE at serving
   distance r_o), one transform per interference source (BSs or UEs).  All
   four come from the PPP probability generating functional; the UE-driven
   ones carry exclusion regions induced by power control and association,
   which is where the 2F1(1, 1-2/eta; 2-2/eta; -x) kernel enters.  Every
   transform is exp(-exponent), and every exponent is written once, in one
   private factory per source that the BER assembly runs, in terms of the
   kernel x 2F1(1, b; b+1; -x); at eta = 4 (b = 1/2) the kernel is its
   closed form sqrt(x) arctan(sqrt(x)).
2. An averaging identity: for x ~ Exp(1), a nonnegative y independent of x,
   and a constant b,
       E[w1 erfc(sqrt(w2 x / (y + b)))]
         = w1 - (w1/sqrt(pi)) int_0^inf L_y(z/w2) e^(-z(1+b/w2)) / sqrt(z) dz,
   which turns the conditional-BER average into a single semi-infinite
   integral of the interference LT.
3. Assembly per direction, both through that one identity
   (``hamdi_average``): the uplink SINR is normalized by rho (power
   control pins the mean received power), with y its interference and b
   its self-interference and noise; the downlink is normalized by
   P_b r_o^(-eta), and its LT, with b = 0, is the serving-distance average
   of the conditional LT times e^(-s b(r_o)), one adaptive quadrature over
   r_o for the family of all z nodes at once.  The exponents' s-free
   constants, E[P_u^(2/eta)] among them, are computed once per BER, and
   each integrand point takes one exp of the summed exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Direction,
    SystemParams,
    max_inversion_radius_m,
    uplink_power_moment,
)
from .pulse import InterferenceFactors, link_throughput
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    adaptive_quad,
    hyp2f1_special,
    integrate_semi_infinite,
)

__all__ = [
    "LinkMetrics",
    "hamdi_average",
    "ber_uplink",
    "ber_downlink",
]

# ber_downlink's inner serving-distance integral, 100 times tighter than
# its outer z integral
_INNER_QUADRATURE = QuadratureSpec(rel_tol=0.01 * DEFAULT_QUADRATURE.rel_tol,
                                   abs_tol=0.01 * DEFAULT_QUADRATURE.abs_tol)


@dataclass(frozen=True)
class LinkMetrics:
    """BER and throughput of one direction at one overlap fraction."""

    direction: Direction
    alpha: float
    ber: float
    bandwidth: float   # Hz, accessible band B_a + alpha B
    throughput: float  # bits/s, log2(M) * bandwidth * (1 - ber)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must lie in [0, 1], got {self.ber}")
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")


def _metrics(direction: Direction, alpha: float, ber: float,
             p: SystemParams) -> LinkMetrics:
    bandwidth, throughput = link_throughput(p, direction, alpha, ber)
    return LinkMetrics(direction=direction, alpha=alpha, ber=ber,
                       bandwidth=bandwidth, throughput=throughput)


def _x_hyp2f1(b: float, x):
    """x 2F1(1, b; b+1; -x), the exclusion-region kernel of the LT exponents.

    b = 1/2 (eta = 4) is the closed form sqrt(x) arctan(sqrt(x)), which has
    no 0/0 at x = 0.
    """
    if b == 0.5:
        rt = np.sqrt(x)
        return rt * np.arctan(rt)
    return x * hyp2f1_special(b, x)


# Exponent factories: each binds the s-free constants of one source's LT
# exponent, -ln L, and returns it as a function of s (and of the serving
# distance r in meters for the downlink).  They are the transforms' only
# code: the BER integrands sum them inside one exp.

def _bs_on_uplink(factors: InterferenceFactors, p: SystemParams):
    # no exclusion around the receiver: the unthinned PPP gives the csc form
    q = 2.0 / p.eta
    k = (q * math.pi ** 2 * p.lambda_per_m2 / math.sin(math.pi * q)
         * (p.p_b * factors.i_du_sq / p.rho) ** q)
    return lambda s: k * s ** q


def _ue_on_uplink(p: SystemParams):
    # power control keeps an interfering UE's received power below rho: the
    # 2F1 exclusion together with E[P_u^(2/eta)]
    b = 1.0 - 2.0 / p.eta
    k = (2.0 * math.pi * p.lambda_per_m2 / (p.eta - 2.0)
         * p.rho ** (-2.0 / p.eta) * uplink_power_moment(p))
    return lambda s: k * _x_hyp2f1(b, s)


def _bs_on_downlink(p: SystemParams):
    # nearest-BS association excludes interfering BSs inside r
    b = 1.0 - 2.0 / p.eta
    k = 2.0 * math.pi * p.lambda_per_m2 / (p.eta - 2.0)
    return lambda s, r: k * r ** 2 * _x_hyp2f1(b, s)


def _ue_on_downlink(factors: InterferenceFactors, p: SystemParams):
    # interfering UEs taken as collocated with their BSs: the uplink UE
    # exponent, at the argument s |I_ud|^2 r^eta rho / P_b
    ue = _ue_on_uplink(p)
    c = factors.i_ud_sq * p.rho / p.p_b
    return lambda s, r: ue(c * s * r ** p.eta)


def hamdi_average(lt_y, omega1: float, omega2: float, b_const: float) -> float:
    """E[omega1 erfc(sqrt(omega2 x/(y+b)))] for x ~ Exp(1) via the LT of y.

    ``lt_y`` must accept ndarray arguments and return values in (0, 1].
    The result is clipped to [0, omega1] against quadrature roundoff.
    """
    if omega1 <= 0.0 or omega2 <= 0.0:
        raise ValueError("omega1 and omega2 must be positive")
    if b_const < 0.0:
        raise ValueError("b_const must be nonnegative")
    decay = 1.0 + b_const / omega2
    if decay == math.inf:
        return omega1  # the SINR is 0, and erfc(0) = 1

    def integrand(z):
        return lt_y(z / omega2) * np.exp(-decay * z) / np.sqrt(z)

    integral = integrate_semi_infinite(integrand, decay_rate=decay)
    ber = omega1 - (omega1 / math.sqrt(math.pi)) * integral
    return float(min(max(ber, 0.0), omega1))


def ber_uplink(alpha: float, factors: InterferenceFactors,
               p: SystemParams) -> LinkMetrics:
    """Spatially averaged uplink BER and throughput at overlap ``alpha``."""
    omega1, omega2 = p.omega(Direction.UPLINK)
    b_const = (p.beta * p.p_b * factors.i_su_sq + p.sigma_n_sq) / p.rho
    bs = _bs_on_uplink(factors, p)
    ue = _ue_on_uplink(p)

    def lt(s):
        return np.exp(-(bs(s) + ue(s)))

    ber = hamdi_average(lt, omega1, omega2, b_const)
    return _metrics(Direction.UPLINK, alpha, ber, p)


def ber_downlink(alpha: float, factors: InterferenceFactors,
                 p: SystemParams) -> LinkMetrics:
    """Spatially averaged downlink BER and throughput at overlap ``alpha``.

    The averaging identity with b = 0, applied to the interference LT
    averaged over the serving distance: the noise and self-interference
    scale with r_o, so they ride inside that average as e^(-s b(r_o)).
    """
    omega1, omega2 = p.omega(Direction.DOWNLINK)
    sigma_sq = p.sigma_n_sq
    r_max = max_inversion_radius_m(p)
    pi_lam = math.pi * p.lambda_per_m2
    norm = -math.expm1(-pi_lam * r_max * r_max)
    bs = _bs_on_downlink(p)
    ue = _ue_on_downlink(factors, p)

    def averaged_lt(s):
        # E over the serving distance of L(s | r) e^(-s b(r)), where
        # b(r) = (beta rho |I_sd|^2 r^(2 eta) + sigma^2 r^eta) / P_b
        s = s[:, None]

        def g(r):
            density = 2.0 * pi_lam * r * np.exp(-pi_lam * r * r) / norm
            b_r = (p.beta * p.rho * factors.i_sd_sq * r ** (2.0 * p.eta)
                   + sigma_sq * r ** p.eta) / p.p_b
            return density * np.exp(-(bs(s, r) + ue(s, r) + s * b_r))

        # beyond sqrt(745 / (pi lam)) the density is below the smallest
        # double: panels over a far larger r_max would step over all of it
        return adaptive_quad(g, 0.0, min(r_max, math.sqrt(745.0 / pi_lam)),
                             _INNER_QUADRATURE)

    # an overflowed s b(r) gives e^(-inf) = 0, its limit; nan stays loud
    with np.errstate(over="ignore"):
        ber = hamdi_average(averaged_lt, omega1, omega2, 0.0)
    return _metrics(Direction.DOWNLINK, alpha, ber, p)

