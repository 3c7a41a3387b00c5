"""System-level Monte Carlo simulator for the overlapped-spectrum network.

Independent validation path for the closed forms: sample Poisson BS
deployments on a square region, attach one active uplink UE per BS by
nearest-BS association under truncated channel inversion, then evaluate
per-link SINRs with i.i.d. unit-mean exponential gains and average the
conditional BER over links collected in a central measurement window
(edge effects die off as r^-eta, so a modest guard ring suffices).

Unlike the analysis, the simulator keeps the true dependent UE
configuration: exactly one UE per Voronoi cell, rather than an
independent PPP of interferers.  Agreement between the two paths is the
main cross-validation result.

Links are assembled per realization and direction as one block: the
(links x BSs) distances and fading gains of all core links at once, the
gains drawn in the order a link-by-link loop would draw them.

Common random numbers: geometry and gains are drawn once per
realization from substreams keyed by (seed, realization index), and the
interference sums are stored factored so that every overlap fraction
alpha reuses them; alpha sweeps are therefore variance-reduced and cost
almost nothing beyond the first point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    M_PER_KM,
    Direction,
    SystemParams,
    max_inversion_radius_m,
    noise_variance,
)
from .pulse import BandPlan, InterferenceFactors, PulsePair, interference_factor_grid
from .specfun import erfc

__all__ = [
    "StarvationError",
    "SimConfig",
    "NetworkRealization",
    "EmpiricalMetrics",
    "sample_realization",
    "sinr_uplink",
    "sinr_downlink",
    "run_campaign",
]


class StarvationError(RuntimeError):
    """A BS exhausted its candidate budget without finding an admissible UE.

    Signals an infeasible power-control configuration (inversion radius
    far smaller than the typical cell) rather than silently leaving cells
    empty, which would bias interference downward.
    """


@dataclass(frozen=True)
class SimConfig:
    """Campaign geometry and reproducibility knobs.

    region_side 20 km gives the 400 km^2 deployment; core_side 2 km keeps
    measurements inside the central 4 km^2 away from region edges.
    candidate_cap bounds the per-BS rejection draws for UE placement.
    """

    n_realizations: int
    seed: int
    region_side: float = 20.0   # km
    core_side: float = 2.0      # km
    candidate_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not 0.0 < self.core_side < self.region_side < math.inf:
            raise ValueError("core_side and region_side must satisfy "
                             "0 < core_side < region_side < inf")
        if self.candidate_cap < 1:
            raise ValueError("candidate_cap must be at least 1")


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled deployment; row i of the UE arrays is BS i's active UE."""

    bs_positions: np.ndarray      # (n_bs, 2), km
    ue_positions: np.ndarray      # (n_bs, 2), km
    tx_power: np.ndarray          # (n_bs,), W, equals rho * (serving distance in m)^eta
    serving_distance: np.ndarray  # (n_bs,), km
    region_side: float            # km
    core_side: float              # km

    def __post_init__(self) -> None:
        n = self.bs_positions.shape[0]
        if self.bs_positions.shape != (n, 2) or self.ue_positions.shape != (n, 2):
            raise ValueError("position arrays must have shape (n_bs, 2)")
        if self.tx_power.shape != (n,) or self.serving_distance.shape != (n,):
            raise ValueError("per-UE arrays must have one entry per BS")
        if not 0.0 < self.core_side < self.region_side:
            raise ValueError("core_side must satisfy 0 < core_side < region_side")
        if np.any(self.tx_power < 0.0) or np.any(self.serving_distance < 0.0):
            raise ValueError("powers and distances must be nonnegative")

    @property
    def n_bs(self) -> int:
        return self.bs_positions.shape[0]

    def core_bounds(self) -> tuple:
        lo = 0.5 * (self.region_side - self.core_side)
        return lo, lo + self.core_side

    def core_bs_indices(self) -> np.ndarray:
        lo, hi = self.core_bounds()
        inside = np.all((self.bs_positions >= lo) & (self.bs_positions <= hi), axis=1)
        return np.where(inside)[0]

    def core_ue_indices(self) -> np.ndarray:
        lo, hi = self.core_bounds()
        inside = np.all((self.ue_positions >= lo) & (self.ue_positions <= hi), axis=1)
        return np.where(inside)[0]


@dataclass(frozen=True)
class EmpiricalMetrics:
    """Pooled per-direction averages of one campaign at one alpha."""

    direction: Direction
    alpha: float
    mean_ber: float
    std_err: float
    n_links: int
    bandwidth: float   # Hz
    throughput: float  # bits/s, log2(M) * bandwidth * (1 - mean_ber)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.mean_ber <= 1.0:
            raise ValueError(f"mean_ber must lie in [0, 1], got {self.mean_ber}")
        if not (math.isfinite(self.std_err) and self.std_err >= 0.0):
            raise ValueError("std_err must be finite and nonnegative")
        if self.n_links < 1:
            raise ValueError("n_links must be at least 1")
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")


def sample_realization(p: SystemParams, cfg: SimConfig,
                       realization_index: int) -> NetworkRealization:
    """Draw one deployment, deterministic given (cfg.seed, realization_index).

    BS count is Poisson(lambda * area) with positions uniform on the
    square.  Each BS's active UE is uniform on the intersection of its
    Voronoi cell, the region, and its inversion disk of radius
    (P_u^max/rho)^(1/eta); sampled by drawing candidates uniformly in the
    disk and accepting those whose nearest BS is the owner.  That is
    distributionally identical to scattering candidates over the whole
    region and letting each cell keep its first admissible one, but the
    acceptance rate stays O(1) per BS.
    """
    from scipy.spatial import cKDTree  # deferred: only simulations need it

    if realization_index < 0:
        raise ValueError("realization_index must be nonnegative")
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(realization_index,)))
    area = cfg.region_side ** 2
    n_bs = int(rng.poisson(p.lambda_bs * area))
    if n_bs == 0:
        empty_pos = np.empty((0, 2))
        return NetworkRealization(empty_pos, np.empty((0, 2)), np.empty(0),
                                  np.empty(0), cfg.region_side, cfg.core_side)
    bs = rng.random((n_bs, 2)) * cfg.region_side
    tree = cKDTree(bs)
    r_max_km = max_inversion_radius_m(p) / M_PER_KM

    ue = np.zeros((n_bs, 2))
    dist = np.zeros(n_bs)
    unserved = np.arange(n_bs)
    for _ in range(cfg.candidate_cap):
        m = unserved.size
        radius = r_max_km * np.sqrt(rng.random(m))
        angle = 2.0 * math.pi * rng.random(m)
        cand = bs[unserved] + np.column_stack(
            (radius * np.cos(angle), radius * np.sin(angle)))
        inside = np.all((cand >= 0.0) & (cand <= cfg.region_side), axis=1)
        # the owner lies within r_max; the margin absorbs coordinate rounding
        _, nearest = tree.query(cand, distance_upper_bound=r_max_km * (1 + 1e-9))
        ok = inside & (nearest == unserved)
        won = unserved[ok]
        ue[won] = cand[ok]
        dist[won] = radius[ok]
        unserved = unserved[~ok]
        if unserved.size == 0:
            break
    else:
        raise StarvationError(
            f"{unserved.size} of {n_bs} BSs found no admissible UE within "
            f"{cfg.candidate_cap} candidates each")

    tx = p.rho * (M_PER_KM * dist) ** p.eta
    return NetworkRealization(bs, ue, tx, dist, cfg.region_side, cfg.core_side)


def _link_parts(rx_pos: np.ndarray, tagged: np.ndarray,
                real: NetworkRealization, p: SystemParams, rng) -> tuple:
    """Desired gains and factored interference sums of k links at once.

    Link i receives at rx_pos[i] (km) and belongs to BS tagged[i], whose
    BS and active UE it leaves out.  Its gains are row i of one
    (k, 2 n_bs - 1) block (h0, the other BSs', the other UEs'), as a
    link-by-link loop draws them.  Returns (h0, bs_sum, ue_sum), each of
    shape (k,): bs_sum is the full P_b r^-eta fading-weighted power of
    every other BS, ue_sum the same for every other active UE; cross
    factors multiply these afterwards.
    """
    k, n = tagged.size, real.n_bs
    if k == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    g = rng.standard_exponential(size=(k, 2 * n - 1))
    # row i keeps every BS index but tagged[i], in order
    others = np.ones((k, n), dtype=bool)
    others[np.arange(k), tagged] = False

    def compact(block):   # (k, n) -> (k, n - 1) without column tagged[i]
        return block[others].reshape(k, n - 1)

    def dist_m(pos):   # np.linalg.norm's sqrt(dx^2 + dy^2), bit for bit
        dx = pos[:, 0] - rx_pos[:, :1]
        dy = pos[:, 1] - rx_pos[:, 1:]
        return M_PER_KM * compact(np.sqrt(dx * dx + dy * dy))

    bs_terms = g[:, 1:n] * dist_m(real.bs_positions) ** -p.eta
    tx = compact(np.broadcast_to(real.tx_power, (k, n)))
    ue_terms = tx * g[:, n:] * dist_m(real.ue_positions) ** -p.eta
    h0 = g[:, 0].copy()   # a view would keep the whole block alive
    return h0, p.p_b * np.sum(bs_terms, axis=1), np.sum(ue_terms, axis=1)


def _uplink_sinr_from_parts(h0, bs_sum, ue_sum, factors: InterferenceFactors,
                            p: SystemParams, sigma_sq: float):
    denom = (factors.i_du_sq * bs_sum + factors.i_uu_sq * ue_sum
             + p.beta * p.p_b * factors.i_su_sq + sigma_sq)
    return p.rho * h0 / denom


def _downlink_sinr_from_parts(h0, bs_sum, ue_sum, r_o_m, own_tx,
                              factors: InterferenceFactors, p: SystemParams,
                              sigma_sq: float):
    num = p.p_b * h0 * r_o_m ** -p.eta
    denom = (factors.i_dd_sq * bs_sum + factors.i_ud_sq * ue_sum
             + p.beta * own_tx * factors.i_sd_sq + sigma_sq)
    return num / denom


def sinr_uplink(test_bs: int, real: NetworkRealization,
                factors: InterferenceFactors, p: SystemParams,
                rng=None) -> float:
    """Conditional uplink SINR at BS test_bs with fresh Exp(1) gains.

    Numerator rho h0 (exact channel inversion); denominator adds the
    cross-scaled DL interference of every other BS, the co-channel UL
    interference of every other active UE, the constant residual
    self-interference beta P_b |I_s|^2, and noise.
    """
    if not 0 <= test_bs < real.n_bs:
        raise IndexError(f"test_bs {test_bs} outside [0, {real.n_bs})")
    rng = np.random.default_rng() if rng is None else rng
    link = np.array([test_bs])
    parts = _link_parts(real.bs_positions[link], link, real, p, rng)
    sigma_sq = noise_variance(p).sigma_n_sq
    return float(_uplink_sinr_from_parts(*parts, factors, p, sigma_sq)[0])


def sinr_downlink(test_ue: int, real: NetworkRealization,
                  factors: InterferenceFactors, p: SystemParams,
                  rng=None) -> float:
    """Conditional downlink SINR at the active UE of BS test_ue.

    Numerator P_b h0 r_o^-eta; denominator adds co-channel DL
    interference of other BSs, cross-scaled UL interference of other
    active UEs, residual self-interference beta P_u_o |I_s|^2 with the
    UE's own inversion power, and noise.
    """
    if not 0 <= test_ue < real.n_bs:
        raise IndexError(f"test_ue {test_ue} outside [0, {real.n_bs})")
    rng = np.random.default_rng() if rng is None else rng
    link = np.array([test_ue])
    parts = _link_parts(real.ue_positions[link], link, real, p, rng) + (
        M_PER_KM * real.serving_distance[link], real.tx_power[link])
    sigma_sq = noise_variance(p).sigma_n_sq
    return float(_downlink_sinr_from_parts(*parts, factors, p, sigma_sq)[0])


def _pooled(direction: Direction, alpha: float, vals: np.ndarray,
            p: SystemParams) -> EmpiricalMetrics:
    n = vals.size
    mean = float(np.mean(vals))
    std_err = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    bandwidth = BandPlan(p.b_u, p.b_d, alpha).accessible_bandwidth(direction)
    throughput = math.log2(p.m_symbols) * bandwidth * (1.0 - mean)
    return EmpiricalMetrics(direction=direction, alpha=alpha, mean_ber=mean,
                            std_err=std_err, n_links=n, bandwidth=bandwidth,
                            throughput=throughput)


def run_campaign(p: SystemParams, cfg: SimConfig, alpha_list,
                 pulses: PulsePair) -> list:
    """Empirical BER/throughput for both directions at every alpha.

    Links are collected from BSs (uplink) and active UEs (downlink)
    inside the core window, pooled across realizations.  Geometry and
    gains are shared across alpha values (common random numbers); each
    alpha only reweights the stored interference sums by its factors.
    Returns one uplink and one downlink EmpiricalMetrics per alpha, in
    alpha_list order.
    """
    alphas = [float(a) for a in alpha_list]
    if not alphas:
        raise ValueError("alpha_list must be nonempty")
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {a}")

    facs = interference_factor_grid(p.b_u, p.b_d, pulses, alphas)

    ul_parts = []
    dl_parts = []
    for idx in range(cfg.n_realizations):
        real = sample_realization(p, cfg, idx)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(idx, 1)))
        bs, ue = real.core_bs_indices(), real.core_ue_indices()
        ul_parts.append(_link_parts(real.bs_positions[bs], bs, real, p, rng))
        dl_parts.append(_link_parts(real.ue_positions[ue], ue, real, p, rng) + (
            M_PER_KM * real.serving_distance[ue], real.tx_power[ue]))
    ul = np.concatenate(ul_parts, axis=1)   # rows: h0, bs_sum, ue_sum
    dl = np.concatenate(dl_parts, axis=1)   # and then r_o_m, own_tx
    if ul.shape[1] == 0 or dl.shape[1] == 0:
        raise ValueError("no measurement links fell inside the core window; "
                         "increase n_realizations or the region size")

    sigma_sq = noise_variance(p).sigma_n_sq
    w1_u, w2_u = p.omega(Direction.UPLINK)
    w1_d, w2_d = p.omega(Direction.DOWNLINK)

    out = []
    for a, fac in zip(alphas, facs):
        sinr_u = _uplink_sinr_from_parts(*ul, fac, p, sigma_sq)
        vals_u = w1_u * erfc(np.sqrt(w2_u * sinr_u))
        out.append(_pooled(Direction.UPLINK, a, vals_u, p))
        sinr_d = _downlink_sinr_from_parts(*dl, fac, p, sigma_sq)
        vals_d = w1_d * erfc(np.sqrt(w2_d * sinr_d))
        out.append(_pooled(Direction.DOWNLINK, a, vals_d, p))
    return out
