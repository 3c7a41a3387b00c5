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

UE placement runs in lockstep over a block of realizations: each keeps its
own generator and draws what placing it alone would draw, in the same
order, while one vectorised rejection round serves the whole block.  A
candidate is judged against its owner's neighbours within 2 r_max, listed
from a uniform cell grid where they fit the pair-table budget; a
realization with too many neighbour pairs, and a decision within a
relative 1e-12 of a tie, between two BSs or at the distance bound, go to a
cKDTree.query of that realization, so every decision is the tree's own.  A
realization's tree, and scipy.spatial with it, is built only when a
candidate first asks.  Each round compacts its arrays with index gathers
(``take``): numpy indexes with a random boolean mask several times slower.

A realization down to one unserved BS draws the (radius, angle) pairs of
its next rounds in one call, which yields the numbers those rounds would
draw one pair at a time, and tests them as that many rows; the first
winner in draw order is kept.  Nothing draws from a placement generator
after its last BS is placed, so the draws past the winner are never seen
and the placement is bit-equal to drawing round by round.  This removes
most of the short tail rounds that every block pays.

Placement has two budgets of entries (BSs plus directed neighbour pairs).
The pair-table budget bounds one realization's listed pairs: a table
places faster than the tree, so it admits realizations of 54,000 entries
(lambda = 10 /km^2).  The smaller block budget closes a block: the block's
first round, with every BS unserved, sets the peak memory of placement,
and fewer tail rounds pay for the extra blocks.  Placements depend on
neither.

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
import threading
from dataclasses import dataclass

import numpy as np

from .model import M_PER_KM, Direction, SystemParams, max_inversion_radius_m
from .pulse import (InterferenceFactors, PulsePair, interference_factor_grid,
                    link_throughput)
from .specfun import erfc

__all__ = [
    "StarvationError",
    "SimConfig",
    "NetworkRealization",
    "EmpiricalMetrics",
    "sample_realization",
    "run_campaign",
]


# BSs plus directed neighbour pairs of one realization beyond which it lists
# none and asks its k-d tree every round.
_TABLE_ENTRIES = 120_000
# Entries at which a block of realizations placed in lockstep closes (about
# 10 realizations at the reference config); a round holds
# O(_BLOCK_ENTRIES + _TABLE_ENTRIES + BSs) rows.
_BLOCK_ENTRIES = 60_000
# Relative gap of squared distances within which cKDTree.query decides a
# candidate; rounding is far smaller, so every decision is the tree's own.
_TIE_TOL = 1e-12
# Candidates per BS, not rounds: a BS still without a UE after drawing this
# many starves, whether they came one per round or in lone batches.
_CANDIDATE_CAP = 1_000_000
# Candidates a realization's lone unserved BS draws and tests in one round.
_LONE_BATCH = 16

# The rest of the last placed block, (p, cfg, index) -> realization or the
# StarvationError it raised; sample_realization serves and removes entries.
_block: dict = {}
_last = None   # the (p, cfg, index) of the last call
_block_lock = threading.Lock()


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


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled deployment; row i of the UE arrays is BS i's active UE."""

    bs_positions: np.ndarray      # (n_bs, 2), km
    ue_positions: np.ndarray      # (n_bs, 2), km
    tx_power: np.ndarray          # (n_bs,), W, equals rho * (serving distance in m)^eta
    serving_distance: np.ndarray  # (n_bs,), km

    def __post_init__(self) -> None:
        n = self.bs_positions.shape[0]
        if self.bs_positions.shape != (n, 2) or self.ue_positions.shape != (n, 2):
            raise ValueError("position arrays must have shape (n_bs, 2)")
        if self.tx_power.shape != (n,) or self.serving_distance.shape != (n,):
            raise ValueError("per-UE arrays must have one entry per BS")
        if np.any(self.tx_power < 0.0) or np.any(self.serving_distance < 0.0):
            raise ValueError("powers and distances must be nonnegative")

    @property
    def n_bs(self) -> int:
        return self.bs_positions.shape[0]


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
    disk (capped at the region's diagonal, a disk that already covers the
    region) and accepting those whose nearest BS is the owner.  That is
    distributionally identical to scattering candidates over the whole
    region and letting each cell keep its first admissible one, but the
    acceptance rate stays O(1) per BS.

    A miss that continues a scan (the previous call asked for
    realization_index - 1 under the same p and cfg) places the
    realizations from realization_index on, up to cfg.n_realizations, in
    one lockstep block and keeps the rest for later calls; any other miss
    places the realization alone.  Each served realization leaves that
    memo.  Draws and results are those of placing the realization alone,
    and StarvationError is raised when the starved realization is asked for.
    """
    global _last
    if realization_index < 0:
        raise ValueError("realization_index must be nonnegative")
    key = (p, cfg, realization_index)
    with _block_lock:
        if key not in _block:
            scan = _last == (p, cfg, realization_index - 1)
            stop = max(cfg.n_realizations if scan else 0, realization_index + 1)
            _block.clear()
            _block.update(_place_block(p, cfg, realization_index, stop))
        _last = key
        real = _block.pop(key)
    if isinstance(real, StarvationError):
        raise real
    return real


def _place_block(p: SystemParams, cfg: SimConfig, start: int, stop: int) -> dict:
    # Realizations start, start + 1, ... before stop, until the block holds
    # _BLOCK_ENTRIES: (p, cfg, index) -> realization, or its StarvationError.
    r_max_km = max_inversion_radius_m(p) / M_PER_KM
    # the owner lies within r_max; the margin absorbs coordinate rounding
    bound = r_max_km * (1 + 1e-9)
    # a disk about the BS as wide as the region's diagonal covers the
    # region, so a cap there leaves the admissible set, and the law, as is
    r_draw = min(r_max_km, cfg.region_side * math.sqrt(2.0))
    # a BS nearer a candidate than the owner lies within 2 r_max of it;
    # the expected such neighbours of a BS, an overcount near the edges
    per_bs = p.lambda_bs * math.pi * (2 * bound) ** 2
    block = []
    entries = 0
    for idx in range(start, stop):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(idx,)))
        n_bs = int(rng.poisson(p.lambda_bs * cfg.region_side ** 2))
        bs = rng.random((n_bs, 2)) * cfg.region_side
        # list the pairs only where they are expected to fit the table
        # budget, and do; other realizations ask a k-d tree
        near = None
        if n_bs * (1 + per_bs) <= _TABLE_ENTRIES:
            near = _near_pairs(bs, 2 * bound, cfg.region_side)
            if n_bs + 2 * near.shape[0] > _TABLE_ENTRIES:
                near = None
            else:
                entries += 2 * near.shape[0]
        block.append((idx, rng, bs, near))
        entries += n_bs
        if entries >= _BLOCK_ENTRIES:
            break
    used, rngs, positions, nears = zip(*block)
    trees = [None] * len(used)   # built when a candidate first asks

    sizes = np.array([bs.shape[0] for bs in positions])
    starts = np.cumsum(sizes) - sizes
    owner_block = np.repeat(np.arange(len(used)), sizes)
    # the BSs of realizations that listed no pairs: their trees decide
    asks_tree = np.repeat([near is None for near in nears], sizes)
    bx, by = np.concatenate(positions).T.copy()
    # one row per (unserved BS, neighbour) of the listing realizations:
    # the BS's slot in ``unserved`` and the neighbour's coordinates
    lo, hi = np.concatenate(
        [near + s for near, s in zip(nears, starts) if near is not None]
        + [np.empty((0, 2), dtype=np.intp)]).T
    slot = np.concatenate((lo, hi))
    px = np.concatenate((bx[hi], bx[lo]))
    py = np.concatenate((by[hi], by[lo]))
    # free the pair lists, which ``block`` holds too: rounds need only rows
    del block, nears, lo, hi

    ue = np.zeros((bx.size, 2))
    dist = np.zeros(bx.size)
    unserved = np.arange(bx.size)
    # candidates drawn so far by each unserved BS of a realization, and the
    # BSs it left starved
    drawn = [0] * len(used)
    left = np.zeros(len(used), dtype=np.intp)
    while unserved.size:
        owner = owner_block.take(unserved)
        # a realization with one unserved BS draws the (radius, angle) pairs
        # of its next rounds at once and tests them as that BS's rows; the
        # draws past its first winner are never seen
        draws, lone = [], {}
        for j, c in enumerate(np.bincount(owner, minlength=len(used)).tolist()):
            if c == 1:
                c = lone[j] = min(_LONE_BATCH, _CANDIDATE_CAP - drawn[j])
                u = rngs[j].random(2 * c)
                draws.append((u[0::2], u[1::2]))
                drawn[j] += c
            elif c:   # the radii, then the angles of its own BSs
                draws.append((rngs[j].random(c), rngs[j].random(c)))
                drawn[j] += 1
        radius = r_draw * np.sqrt(np.concatenate([r for r, _ in draws]))
        angle = 2.0 * math.pi * np.concatenate([a for _, a in draws])
        at = unserved   # the BS of each row
        batched = radius.size > unserved.size
        if batched:   # a lone BS's rows, repeated
            reps = np.ones(len(used), dtype=np.intp)
            reps[list(lone)] = list(lone.values())
            reps = reps.take(owner)
            first = np.cumsum(reps) - reps   # each BS's first row
            at = np.repeat(unserved, reps)
        ox, oy = bx.take(at), by.take(at)
        cx = ox + radius * np.cos(angle)
        cy = oy + radius * np.sin(angle)
        inside = (np.minimum(cx, cy) >= 0.0) & (np.maximum(cx, cy) <= cfg.region_side)
        # the rows of tree-side BSs and near ties are the trees' to decide,
        # one query per realization (rows are sorted by realization)
        tree = asks_tree.take(at)
        ask = inside & tree
        ok = np.zeros(at.size, dtype=bool)
        if not tree.all():   # skipped when only tree rows are left
            # squared distance to the nearest other listed BS (or the
            # bound), less d_own
            d_own = _sum_sq(ox - cx, oy - cy)
            gap = np.full(at.size, bound * bound)
            if batched:   # a lone BS's neighbour rows, once per row of it
                nb = reps.take(slot)
                _nearest_sq(gap, cx, cy, _runs(first.take(slot), nb),
                            np.repeat(px, nb), np.repeat(py, nb))
            else:
                _nearest_sq(gap, cx, cy, slot, px, py)
            gap -= d_own
            margin = _TIE_TOL * d_own
            ok = inside & (gap > margin) & ~tree
            ask |= inside & (np.abs(gap) <= margin)
        asked = np.flatnonzero(ask)
        own = owner_block.take(at.take(asked))
        head = 0
        while head < asked.size:
            j = int(own[head])
            end = int(np.searchsorted(own, j, side="right"))
            t = asked[head:end]
            if trees[j] is None:
                from scipy.spatial import cKDTree  # deferred: few runs ask
                trees[j] = cKDTree(positions[j])
            _, nearest = trees[j].query(np.column_stack((cx[t], cy[t])),
                                        distance_upper_bound=bound)
            ok[t] = nearest == at[t] - starts[j]
            head = end
        hit = np.flatnonzero(ok)
        won_slot = hit
        if batched:   # a BS's first winning row, in draw order
            won_slot = np.searchsorted(first, hit, side="right") - 1
            firsts = np.flatnonzero(np.diff(won_slot, prepend=-1))
            hit, won_slot = hit.take(firsts), won_slot.take(firsts)
        won = at.take(hit)
        ue[won, 0], ue[won, 1], dist[won] = cx.take(hit), cy.take(hit), radius.take(hit)
        keep = np.ones(unserved.size, dtype=bool)
        keep[won_slot] = False
        if max(drawn) >= _CANDIDATE_CAP:   # some BSs may have none left
            starved = keep & (np.array(drawn).take(owner) >= _CANDIDATE_CAP)
            left += np.bincount(owner[starved], minlength=len(used))
            keep &= ~starved
        kept = np.flatnonzero(keep)
        if kept.size < unserved.size and slot.size:   # else every row keeps its slot
            rows = np.flatnonzero(keep.take(slot))
            remap = np.empty(keep.size, dtype=np.intp)   # a kept row's new slot
            remap[kept] = np.arange(kept.size)
            slot = remap.take(slot.take(rows))
            px, py = px.take(rows), py.take(rows)
        unserved = unserved.take(kept)

    out = {}
    for j, idx in enumerate(used):
        if left[j]:
            out[p, cfg, idx] = StarvationError(
                f"{left[j]} of {sizes[j]} BSs found no admissible UE within "
                f"{_CANDIDATE_CAP} candidates each")
            continue
        span = slice(starts[j], starts[j] + sizes[j])
        d = dist[span].copy()
        out[p, cfg, idx] = NetworkRealization(
            positions[j], ue[span].copy(), p.rho * (M_PER_KM * d) ** p.eta, d)
    return out


def _nearest_sq(gap, cx, cy, row, px, py) -> None:
    # gap[i] = min(gap[i], (cx[i] - px[k])^2 + (cy[i] - py[k])^2 over the
    # k with row[k] == i), the differences formed in place
    dx = cx.take(row)
    dx -= px
    dy = cy.take(row)
    dy -= py
    np.minimum.at(gap, row, _sum_sq(dx, dy))


def _runs(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    # start[i], start[i] + 1, ..., start[i] + length[i] - 1 for each i, in turn
    end = np.cumsum(length)
    return (np.repeat(start - (end - length), length)
            + np.arange(end[-1] if end.size else 0))


def _near_pairs(pos: np.ndarray, r: float, side: float) -> np.ndarray:
    """Rows (i, j), i < j, of the points of [0, side]^2 within r > 0.

    The set ``cKDTree(pos).query_pairs(r)`` lists (squared distance at most
    r^2), in another row order.  The points are binned on a uniform grid of
    cells of side at least r, padded by one cell on each axis, and each
    point meets the later points of its own cell and the points of four
    forward neighbours, so that every pair within r is examined once.
    """
    n = pos.shape[0]
    # cells per axis: of side >= r with room for rounding, and no more
    # cells than about one per point
    per_axis = max(1, min(int(side / (r * (1 + 1e-9))), math.isqrt(n) + 1))
    cell = np.minimum((pos * (per_axis / side)).astype(np.intp), per_axis - 1) + 1
    width = per_axis + 2
    key = cell[:, 0] * width + cell[:, 1]
    # a stable sort of 16-bit keys is a radix sort: the same order, faster
    order = np.argsort(key.astype(np.uint16) if width <= 256 else key, kind="stable")
    count = np.bincount(key, minlength=width * width)
    first = np.cumsum(count) - count   # where each cell starts in ``order``
    # in cell order, point i meets the rows [lo, hi) of ``order`` in its own
    # cell after itself, the cell above, and the three of the next column
    near = key.take(order)[:, None] + np.array([0, 1, width - 1, width, width + 1])
    lo = first.take(near)
    hi = lo + count.take(near)
    lo[:, 0] = np.arange(1, n + 1)
    m = (hi - lo).ravel()
    a = np.repeat(np.arange(n), m.reshape(n, 5).sum(axis=1))
    b = np.repeat(lo.ravel() - (np.cumsum(m) - m), m) + np.arange(a.size)
    x, y = pos.take(order, axis=0).T
    keep = np.flatnonzero(
        _sum_sq(x.take(a) - x.take(b), y.take(a) - y.take(b)) <= r * r)
    a, b = order.take(a.take(keep)), order.take(b.take(keep))
    return np.column_stack((np.minimum(a, b), np.maximum(a, b)))


def _sum_sq(dx, dy):
    # dx^2 + dy^2, in place in dx and dy, which must be fresh arrays
    return np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)


def _link_parts(rx_pos: np.ndarray, tagged: np.ndarray,
                real: NetworkRealization, p: SystemParams, rng) -> tuple:
    """Desired gains and factored interference sums of k links at once.

    Link i receives at rx_pos[i] (km) and belongs to BS tagged[i], whose
    BS and active UE it leaves out.  Its gains are row i of one
    (k, 2 n_bs - 1) block (h0, the other BSs', the other UEs'), as a
    link-by-link loop draws them.  Returns (h0, bs_sum, ue_sum), each of
    shape (k,): bs_sum is the full P_b r^-eta fading-weighted power of
    every other BS, ue_sum the same for every other active UE; cross
    factors multiply these afterwards.  The arithmetic runs in place, in
    the operand order of g * (1000 d)^-eta, so that a campaign does not
    churn the heap with fresh (k, n_bs) temporaries.
    """
    k, n = tagged.size, real.n_bs
    if k == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    g = rng.standard_exponential(size=(k, 2 * n - 1))
    # row i keeps every BS index but tagged[i], in order
    others = np.ones((k, n), dtype=bool)
    others[np.arange(k), tagged] = False

    def path_gain(pos, gains):   # gains * (1000 d)^-eta, d as np.linalg.norm's
        sq = _sum_sq(pos[:, 0] - rx_pos[:, :1], pos[:, 1] - rx_pos[:, 1:])
        d = np.sqrt(sq, out=sq)[others].reshape(k, n - 1)
        d *= M_PER_KM
        d **= -p.eta
        d *= gains
        return d

    bs_terms = path_gain(real.bs_positions, g[:, 1:n])
    tx = np.broadcast_to(real.tx_power, (k, n))[others].reshape(k, n - 1)
    tx *= g[:, n:]
    ue_terms = path_gain(real.ue_positions, tx)
    h0 = g[:, 0].copy()   # a view would keep the whole block alive
    return h0, p.p_b * np.sum(bs_terms, axis=1), np.sum(ue_terms, axis=1)


def _core_link_parts(real: NetworkRealization, p: SystemParams,
                     cfg: SimConfig, rng) -> tuple:
    """(ul, dl) parts of the links received in the centred core window.

    Its BSs receive the uplink, whose gains are drawn first, and its active
    UEs the downlink; dl adds each UE's r_o in m and its transmit power.
    """
    lo = 0.5 * (cfg.region_side - cfg.core_side)
    hi = lo + cfg.core_side
    bs, ue = (np.flatnonzero(np.all((pos >= lo) & (pos <= hi), axis=1))
              for pos in (real.bs_positions, real.ue_positions))
    return (_link_parts(real.bs_positions[bs], bs, real, p, rng),
            _link_parts(real.ue_positions[ue], ue, real, p, rng) + (
                M_PER_KM * real.serving_distance[ue], real.tx_power[ue]))


def _uplink_sinr_from_parts(h0, bs_sum, ue_sum, factors: InterferenceFactors,
                            p: SystemParams):
    # rho h0 (exact inversion) over cross-scaled DL, co-channel UL,
    # residual self-interference beta P_b |I_s|^2 and noise
    denom = (factors.i_du_sq * bs_sum + factors.i_uu_sq * ue_sum
             + p.beta * p.p_b * factors.i_su_sq + p.sigma_n_sq)
    return p.rho * h0 / denom


def _downlink_sinr_from_parts(h0, bs_sum, ue_sum, r_o_m, own_tx,
                              factors: InterferenceFactors, p: SystemParams):
    # P_b h0 r_o^-eta over co-channel DL, cross-scaled UL, residual
    # self-interference beta P_u_o |I_s|^2 at the UE's own power and noise
    num = p.p_b * h0 * r_o_m ** -p.eta
    denom = (factors.i_dd_sq * bs_sum + factors.i_ud_sq * ue_sum
             + p.beta * own_tx * factors.i_sd_sq + p.sigma_n_sq)
    return num / denom


def _pooled(direction: Direction, alpha: float, sinr: np.ndarray,
            p: SystemParams) -> EmpiricalMetrics:
    # the per-link BER omega1 erfc(sqrt(omega2 SINR)), pooled over links
    w1, w2 = p.omega(direction)
    vals = w1 * erfc(np.sqrt(w2 * sinr))
    n = vals.size
    mean = float(np.mean(vals))
    std_err = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    bandwidth, throughput = link_throughput(p, direction, alpha, mean)
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
    factors = interference_factor_grid(p.b_u, p.b_d, pulses, alphas)

    parts = []
    for idx in range(cfg.n_realizations):
        real = sample_realization(p, cfg, idx)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(idx, 1)))
        parts.append(_core_link_parts(real, p, cfg, rng))
    ul = np.concatenate([u for u, _ in parts], axis=1)   # rows: h0, bs_sum, ue_sum
    dl = np.concatenate([d for _, d in parts], axis=1)   # and then r_o_m, own_tx
    if ul.shape[1] == 0 or dl.shape[1] == 0:
        raise ValueError("no measurement links fell inside the core window; "
                         "increase n_realizations or the region size")

    out = []
    for a, fac in zip(alphas, factors):
        out.append(_pooled(Direction.UPLINK, a,
                           _uplink_sinr_from_parts(*ul, fac, p), p))
        out.append(_pooled(Direction.DOWNLINK, a,
                           _downlink_sinr_from_parts(*dl, fac, p), p))
    return out
