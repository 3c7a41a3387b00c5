"""Deployment sampling, per-link SINR assembly, and campaign statistics.

The decisive check, empirical-vs-closed-form agreement over the full
alpha grid, lives in the acceptance suite; here a single spot comparison
plus structural, determinism, and scaling properties.
"""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import spatial

from alphaduplex.analytic import ber_downlink, ber_uplink
from alphaduplex import montecarlo
from alphaduplex.model import Direction, SystemParams, max_inversion_radius_m
from alphaduplex.montecarlo import (
    EmpiricalMetrics,
    NetworkRealization,
    SimConfig,
    StarvationError,
    _core_link_parts,
    _link_parts,
    run_campaign,
    sample_realization,
)
from alphaduplex.pulse import (
    BandPlan,
    InterferenceFactors,
    PulseKind,
    PulsePair,
    interference_factors,
    make_pulses,
)

from mc_oracles import (
    core_indices,
    link_parts_out_of_place,
    link_parts_per_link,
    sample_realization_per_round,
)

REF = SystemParams()
RT_PAIR = PulsePair(uplink=PulseKind.TRIANGULAR, downlink=PulseKind.RECTANGULAR)
ZERO = InterferenceFactors(0.0, 0.0)
FULL = InterferenceFactors(1.0, 1.0)
# a 2 km region whose 1 km core window holds single_bs_realization's links
SINGLE_CFG = SimConfig(n_realizations=1, region_side=2.0, core_side=1.0)


def single_bs_realization(serving_km: float = 0.1) -> NetworkRealization:
    bs = np.array([[1.0, 1.0]])
    ue = np.array([[1.0, 1.0 + serving_km]])
    tx = np.array([REF.rho * (1000.0 * serving_km) ** REF.eta])
    return NetworkRealization(bs, ue, tx, np.array([serving_km]))


def cap_candidates(monkeypatch, cap):
    # the memo's key does not see the cap: start a fresh one, so that no
    # realization placed under the default cap is served
    monkeypatch.setattr(montecarlo, "_CANDIDATE_CAP", cap)
    monkeypatch.setattr(montecarlo, "_block", {})


class TestSampling:
    def test_bs_count_in_poisson_band(self):
        # Poisson(1200): [1000, 1400] holds for all but ~1e-4 of seeds
        cfg = SimConfig(n_realizations=1, seed=7)
        for idx in range(30):
            n = sample_realization(REF, cfg, idx).n_bs
            assert 1000 <= n <= 1400

    def test_nearest_bs_association_exhaustive(self):
        real = sample_realization(REF, SimConfig(n_realizations=1, seed=5), 0)
        diff = real.ue_positions[:, None, :] - real.bs_positions[None, :, :]
        d_all = np.linalg.norm(diff, axis=2)          # (n_ue, n_bs), km
        own = np.diag(d_all)
        assert np.all(own <= d_all.min(axis=1) + 1e-12)
        np.testing.assert_allclose(own, real.serving_distance, rtol=1e-12)

    def test_power_control_invariant(self):
        real = sample_realization(REF, SimConfig(n_realizations=1, seed=5), 1)
        expected = REF.rho * (1000.0 * real.serving_distance) ** REF.eta
        np.testing.assert_allclose(real.tx_power, expected, rtol=1e-12)
        assert np.all(real.tx_power <= REF.p_u_max * (1 + 1e-12))
        r_max_km = max_inversion_radius_m(REF) / 1000.0
        assert np.all(real.serving_distance <= r_max_km * (1 + 1e-12))

    def test_one_ue_per_bs(self):
        real = sample_realization(REF, SimConfig(n_realizations=1, seed=9), 0)
        assert real.ue_positions.shape == (real.n_bs, 2)
        assert real.tx_power.shape == (real.n_bs,)

    def test_deterministic_given_seed_and_index(self):
        cfg = SimConfig(n_realizations=1, seed=11)
        a = sample_realization(REF, cfg, 4)
        b = sample_realization(REF, cfg, 4)
        assert np.array_equal(a.bs_positions, b.bs_positions)
        assert np.array_equal(a.ue_positions, b.ue_positions)
        assert np.array_equal(a.tx_power, b.tx_power)
        c = sample_realization(REF, cfg, 5)
        assert not np.array_equal(a.bs_positions, c.bs_positions)

    def test_starvation_raises(self, monkeypatch):
        cap_candidates(monkeypatch, 1)
        cfg = SimConfig(n_realizations=1, seed=3)
        with pytest.raises(StarvationError):
            sample_realization(REF, cfg, 0)

    def test_inversion_radius_beyond_the_region(self, monkeypatch):
        # r_max is about 1e62 km, so nearly every candidate drawn in the
        # inversion disk fell outside the 4 km region and the BSs starved;
        # drawn in the disk about the BS that covers the region, they land
        p = dataclasses.replace(REF, p_u_max=1e250)
        cap_candidates(monkeypatch, 10_000)
        cfg = SimConfig(n_realizations=2, seed=1, region_side=4.0)
        for idx in range(2):
            real = sample_realization(p, cfg, idx)
            assert_same_realization(real, sample_realization_per_round(p, cfg, idx))
            assert np.all(real.serving_distance <= 4.0 * math.sqrt(2.0))
            assert np.all((real.ue_positions >= 0.0) & (real.ue_positions <= 4.0))
            d_all = np.linalg.norm(real.ue_positions[:, None, :]
                                   - real.bs_positions[None, :, :], axis=2)
            assert np.array_equal(d_all.argmin(axis=1), np.arange(real.n_bs))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_realizations=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_realizations=1, seed=-2)
        with pytest.raises(ValueError):
            SimConfig(n_realizations=1, seed=1, region_side=2.0, core_side=2.0)


FIELDS = ("bs_positions", "ue_positions", "tx_power", "serving_distance")


def assert_same_realization(got, want):
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def oracle_with_rounds(p, cfg, idx, monkeypatch):
    # the per-round oracle's realization and its rounds: one query each
    queries = []

    class Counted(spatial.cKDTree):
        def query(self, *args, **kwargs):
            queries.append(1)
            return super().query(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(spatial, "cKDTree", Counted)
        real = sample_realization_per_round(p, cfg, idx)
    return real, len(queries)


def count_blocks(monkeypatch):
    # the realization count of every block placed from here on
    blocks = []
    real = montecarlo._place_block

    def counted(*args):
        out = real(*args)
        blocks.append(len(out))
        return out

    monkeypatch.setattr(montecarlo, "_place_block", counted)
    return blocks


def count_draw_calls(monkeypatch, place):
    # place() and the random() calls of the generators it seeds meanwhile
    calls = []

    class Counted(np.random.Generator):
        def random(self, *args, **kwargs):
            calls.append(1)
            return super().random(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng",
                  lambda seed: Counted(np.random.PCG64(seed)))
        out = place()
    return out, len(calls)


LONE_CASES = {
    "reference": (REF, 3),
    "eta3": (dataclasses.replace(REF, eta=3.0), 2),
    "lambda10": (dataclasses.replace(REF, lambda_bs=10.0), 2),
    "lambda30": (dataclasses.replace(REF, lambda_bs=30.0), 1),
}


class TestLockstepPlacement:
    """Blocks of realizations placed in lockstep against the per-round oracle."""

    @pytest.mark.parametrize("seed", [1, 5, 23])
    def test_bit_equal_across_block_boundaries(self, seed, monkeypatch):
        cfg = SimConfig(n_realizations=50, seed=seed)
        blocks = count_blocks(monkeypatch)
        for idx in range(cfg.n_realizations):
            assert_same_realization(sample_realization(REF, cfg, idx),
                                    sample_realization_per_round(REF, cfg, idx))
        # index 0 opens no scan and is placed alone; 1 continues one
        assert blocks[0] == 1 and blocks[1] > 1
        assert sum(blocks) == cfg.n_realizations and len(blocks) >= 3

    def test_out_of_order_requests(self, monkeypatch):
        cfg = SimConfig(n_realizations=20, seed=2)
        blocks = count_blocks(monkeypatch)
        for idx in (3, 4, 5, 0, 19, 18, 19, 7, 3):
            assert_same_realization(sample_realization(REF, cfg, idx),
                                    sample_realization_per_round(REF, cfg, idx))
        # 4 continues the scan from 3 and places a block that serves 5;
        # every other request is a miss placed alone, the second 19 too
        # (it follows 18, but is the last index)
        assert blocks[0] == 1 and blocks[1] > 2
        assert blocks[2:] == [1] * 6

    def test_repeated_index_is_placed_alone(self, monkeypatch):
        # random access, such as asking for one index again and again,
        # places one realization per call, not a block
        cfg = SimConfig(n_realizations=20, seed=2)
        blocks = count_blocks(monkeypatch)
        for _ in range(3):
            assert_same_realization(sample_realization(REF, cfg, 0),
                                    sample_realization_per_round(REF, cfg, 0))
        assert blocks == [1, 1, 1]

    def test_index_beyond_n_realizations(self, monkeypatch):
        cfg = SimConfig(n_realizations=3, seed=8)
        blocks = count_blocks(monkeypatch)
        for idx in (5, 9, 3):
            assert_same_realization(sample_realization(REF, cfg, idx),
                                    sample_realization_per_round(REF, cfg, idx))
        assert blocks == [1, 1, 1]

    def test_empty_realizations_inside_a_block(self, monkeypatch):
        # Poisson(0.8) BSs on 400 km^2: about half the realizations are
        # empty, and all ten share one block
        sparse = dataclasses.replace(REF, lambda_bs=0.002)
        cfg = SimConfig(n_realizations=10, seed=4)
        blocks = count_blocks(monkeypatch)
        reals = [sample_realization(sparse, cfg, i) for i in range(10)]
        assert blocks == [1, 9]
        assert {r.n_bs == 0 for r in reals} == {True, False}
        for idx, real in enumerate(reals):
            assert_same_realization(
                real, sample_realization_per_round(sparse, cfg, idx))

    def test_one_realization_per_block(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 1)
        cfg = SimConfig(n_realizations=4, seed=6)
        blocks = count_blocks(monkeypatch)
        for idx in range(cfg.n_realizations):
            assert_same_realization(sample_realization(REF, cfg, idx),
                                    sample_realization_per_round(REF, cfg, idx))
        assert blocks == [1, 1, 1, 1]

    def test_every_decision_by_the_tree(self, monkeypatch):
        # a tie margin of 1e300 * d_own leaves no candidate to the
        # neighbour rows: every one inside the region goes to cKDTree.query
        # (the cap turns a wrong decision into an error, not a long loop)
        monkeypatch.setattr(montecarlo, "_TIE_TOL", 1e300)
        cap_candidates(monkeypatch, 5000)
        cfg = SimConfig(n_realizations=3, seed=12)
        for idx in range(cfg.n_realizations):
            assert_same_realization(sample_realization(REF, cfg, idx),
                                    sample_realization_per_round(REF, cfg, idx))

    def test_untabulated_realizations_ask_the_tree(self, monkeypatch):
        # eta = 2.5 gives r_max = 10 km: about 196 BSs on 400 km^2, nearly
        # all of them neighbours.  Realizations with more than about 195
        # BSs are expected to pass _TABLE_ENTRIES and list no pairs, the
        # others list theirs; both kinds share blocks
        wide = dataclasses.replace(REF, eta=2.5, lambda_bs=0.49)
        cfg = SimConfig(n_realizations=8, seed=1)
        listed = []
        near_pairs = montecarlo._near_pairs

        def counted(pos, *args):
            listed.append(pos.shape[0])
            return near_pairs(pos, *args)

        monkeypatch.setattr(montecarlo, "_near_pairs", counted)
        blocks = count_blocks(monkeypatch)
        reals = [sample_realization(wide, cfg, i) for i in range(8)]
        assert 0 < len(listed) < 8 and max(blocks) > 1
        for idx, real in enumerate(reals):
            assert_same_realization(
                real, sample_realization_per_round(wide, cfg, idx))

    def test_listed_rows_served_before_tree_rows(self, monkeypatch):
        # a budget of 228 entries lists the pairs of realizations of at most
        # 47 BSs (about 3.8 neighbours each) on a 4 km side; larger ones ask
        # their trees.  Both kinds of rows share each round, in realization
        # order, and a win on either side remaps the neighbour rows' slots.
        # In some mixed block every listed BS is served while tree-side BSs
        # still wait: rounds then run with no neighbour rows
        monkeypatch.setattr(montecarlo, "_TABLE_ENTRIES", 228)
        monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 228)
        cfg = SimConfig(n_realizations=20, seed=1, region_side=4.0,
                        core_side=1.0)
        listed, blocks = [], []
        near_pairs, place_block = montecarlo._near_pairs, montecarlo._place_block

        def listing(pos, *args):
            near = near_pairs(pos, *args)
            assert pos.shape[0] + 2 * near.shape[0] <= 228   # it is listed
            listed.append(pos)
            return near

        def placing(*args):
            out = place_block(*args)
            blocks.append([idx for _, _, idx in out])
            return out

        monkeypatch.setattr(montecarlo, "_near_pairs", listing)
        monkeypatch.setattr(montecarlo, "_place_block", placing)
        reals = [sample_realization(REF, cfg, i) for i in range(20)]
        rounds = []
        for idx, real in enumerate(reals):
            oracle, n_rounds = oracle_with_rounds(REF, cfg, idx, monkeypatch)
            assert_same_realization(real, oracle)
            rounds.append(n_rounds)
        is_listed = [any(r.bs_positions is pos for pos in listed) for r in reals]
        tree_rows_left = []
        for block in blocks:
            tab = [rounds[i] for i in block if is_listed[i] and reals[i].n_bs]
            tree = [rounds[i] for i in block if not is_listed[i]]
            if tab and tree:
                tree_rows_left.append(max(tab) < max(tree))
        assert len(tree_rows_left) >= 3 and any(tree_rows_left)

    def test_listed_pairs_past_the_budget_ask_the_tree(self, monkeypatch):
        # realizations expected to fit a budget of 300 entries (48 BSs of
        # about 4.8 each on a 4 km side) whose listed pairs do not: each
        # pair reported twice leaves every decision as it is, but doubles
        # the rows, so some realizations drop their list and ask the tree
        monkeypatch.setattr(montecarlo, "_TABLE_ENTRIES", 300)
        monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 300)
        monkeypatch.setattr(montecarlo, "_block", {})
        cfg = SimConfig(n_realizations=10, seed=3, region_side=4.0,
                        core_side=1.0)
        near_pairs = montecarlo._near_pairs
        past, trees = [], []

        def twice(pos, *args):
            near = np.concatenate([near_pairs(pos, *args)] * 2)
            if pos.shape[0] + 2 * near.shape[0] > 300:
                past.append(pos)
            return near

        class Counted(spatial.cKDTree):
            def __init__(self, pos, *args, **kwargs):
                trees.append(pos)
                super().__init__(pos, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_near_pairs", twice)
        with monkeypatch.context() as m:
            m.setattr(spatial, "cKDTree", Counted)
            reals = [sample_realization(REF, cfg, i)
                     for i in range(cfg.n_realizations)]
        # the realizations past the budget, and only they, built a tree
        assert 0 < len(past) < cfg.n_realizations
        assert [id(pos) for pos in trees] == [id(pos) for pos in past]
        for idx, real in enumerate(reals):
            assert_same_realization(real,
                                    sample_realization_per_round(REF, cfg, idx))

    def test_pair_table_memory_stays_bounded(self):
        # eta = 3: r_max = 2.15 km, about 145 neighbours per BS.  Listing
        # them would keep some 170,000 rows (4 MB, and as much again per
        # round); asking the tree keeps O(BSs)
        wide = dataclasses.replace(REF, eta=3.0)
        cfg = SimConfig(n_realizations=1, seed=3)
        tracemalloc.start()
        try:
            real = sample_realization(wide, cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        assert_same_realization(real, sample_realization_per_round(wide, cfg, 0))

    @pytest.mark.parametrize("case", sorted(LONE_CASES))
    def test_lone_batches_equal_the_oracle(self, case, monkeypatch):
        # a realization's last unserved BS draws the (radius, angle) pairs
        # of up to _LONE_BATCH rounds in one random() call, where the oracle
        # makes two calls a round: fewer calls, and the same UEs
        p, n = LONE_CASES[case]
        cfg = SimConfig(n_realizations=n, seed=1)
        out, calls = count_draw_calls(
            monkeypatch, lambda: montecarlo._place_block(p, cfg, 0, n))
        assert sorted(idx for _, _, idx in out) == list(range(n))
        oracle_calls = 0
        for idx in range(n):
            want, c = count_draw_calls(
                monkeypatch, lambda: sample_realization_per_round(p, cfg, idx))
            assert_same_realization(out[p, cfg, idx], want)
            oracle_calls += c
        assert calls < oracle_calls

    def test_lone_batch_stops_at_the_cap(self, monkeypatch):
        # seed 84: 12 of 13 BSs are placed within 40 candidates, and the
        # last draws the rest of its 40 in lone batches and starves.  Its
        # 41st candidate or a later one of a full batch would be admissible,
        # so a batch that overran the cap would place it
        cap_candidates(monkeypatch, 40)
        cfg = SimConfig(n_realizations=1, seed=84, region_side=2.0,
                        core_side=1.0)
        with pytest.raises(StarvationError) as oracle:
            sample_realization_per_round(REF, cfg, 0)
        with pytest.raises(StarvationError) as got:
            sample_realization(REF, cfg, 0)
        assert str(got.value) == str(oracle.value) == (
            "1 of 13 BSs found no admissible UE within 40 candidates each")

    def test_reference_placement_memory_ceiling(self):
        # a block's first round, with all its BSs unserved, sets the peak:
        # about 5.2 MB when blocks close at 60,000 entries, 9.4 MB at 120,000
        cfg = SimConfig(n_realizations=300, seed=1)
        tracemalloc.start()
        try:
            start = 0
            while start < cfg.n_realizations:
                start += len(montecarlo._place_block(REF, cfg, start,
                                                     cfg.n_realizations))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_campaign_independent_of_the_block_budget(self, monkeypatch):
        cfg = SimConfig(n_realizations=24, seed=2)
        rows, blocks = [], []
        for budget in (1, montecarlo._BLOCK_ENTRIES, 120_000):
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_BLOCK_ENTRIES", budget)
                m.setattr(montecarlo, "_block", {})
                blocks.append(count_blocks(m))
                rows.append(run_campaign(REF, cfg, [0.0, 0.5], RT_PAIR))
        assert rows[0] == rows[1] == rows[2]
        assert blocks[0] == [1] * 24 and len(blocks[1]) > len(blocks[2]) > 2

    def test_later_starvation_spares_earlier_realizations(self, monkeypatch):
        # seed 14: realization 0 places all its UEs within 3 candidates,
        # realizations 1 and 2 do not
        cap_candidates(monkeypatch, 3)
        cfg = SimConfig(n_realizations=3, seed=14, region_side=2.0,
                        core_side=1.0)
        assert_same_realization(sample_realization(REF, cfg, 0),
                                sample_realization_per_round(REF, cfg, 0))
        for idx in (1, 2):
            with pytest.raises(StarvationError) as oracle:
                sample_realization_per_round(REF, cfg, idx)
            with pytest.raises(StarvationError) as got:
                sample_realization(REF, cfg, idx)
            assert str(got.value) == str(oracle.value)
        assert str(got.value) == ("4 of 15 BSs found no admissible UE "
                                  "within 3 candidates each")

    def test_repeated_call_returns_independent_arrays(self):
        cfg = SimConfig(n_realizations=5, seed=10)
        first = sample_realization(REF, cfg, 2)
        again = sample_realization(REF, cfg, 2)
        for name in FIELDS:
            a, b = getattr(first, name), getattr(again, name)
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
        before = again.ue_positions.copy()
        first.ue_positions[:] = -1.0
        assert np.array_equal(again.ue_positions, before)
        assert_same_realization(sample_realization(REF, cfg, 3),
                                sample_realization_per_round(REF, cfg, 3))

    def test_memo_keyed_by_params_and_config(self):
        cfg = SimConfig(n_realizations=4, seed=3)
        sample_realization(REF, cfg, 0)
        sample_realization(REF, cfg, 1)   # leaves 2.. in the memo
        other = dataclasses.replace(REF, p_u_max=0.5)
        assert_same_realization(sample_realization(other, cfg, 2),
                                sample_realization_per_round(other, cfg, 2))
        moved = SimConfig(n_realizations=4, seed=4)
        assert_same_realization(sample_realization(REF, moved, 2),
                                sample_realization_per_round(REF, moved, 2))

    def test_threads_share_the_memo_safely(self):
        # four threads on two cores interleave misses and hits of two
        # configs; every result must still equal placing it alone
        cfgs = [SimConfig(n_realizations=12, seed=s, region_side=4.0,
                          core_side=1.0) for s in (1, 2)]
        want = {(c.seed, i): sample_realization_per_round(REF, c, i)
                for c in cfgs for i in range(c.n_realizations)}
        got, errors = {}, []

        def work(offset):
            try:
                for k in range(24):
                    cfg = cfgs[(k + offset) % 2]
                    i = (k * 5 + offset) % cfg.n_realizations
                    got[offset, k] = (cfg.seed, i,
                                      sample_realization(REF, cfg, i))
            except Exception as exc:   # reported below, in the test thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(got) == 4 * 24
        for seed, i, real in got.values():
            assert_same_realization(real, want[seed, i])

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            sample_realization(REF, SimConfig(n_realizations=1, seed=1), -1)


def assert_pairs_as_k_d_tree(pos, r, side=20.0):
    got = montecarlo._near_pairs(np.asarray(pos, dtype=float), r, side)
    want = spatial.cKDTree(np.reshape(pos, (-1, 2))).query_pairs(r)
    assert got.shape == (len(want), 2) and np.all(got[:, 0] < got[:, 1])
    assert set(map(tuple, got.tolist())) == want


class TestNearPairs:
    """The cell-grid pair listing against cKDTree.query_pairs, as sets."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_few_points(self, n):
        pos = np.random.default_rng(n).random((n, 2)) * 20.0
        for r in (0.1, 5.0, 30.0):
            assert_pairs_as_k_d_tree(pos, r)

    @pytest.mark.parametrize("n, r", [(1_200, 0.64), (1_200, 3.0),
                                      (12_000, 0.2), (12_000, 0.64)])
    def test_random_points(self, n, r):
        pos = np.random.default_rng(n).random((n, 2)) * 20.0
        assert_pairs_as_k_d_tree(pos, r)

    @pytest.mark.parametrize("n, cells", [(64_009, 256 ** 2), (70_000, 267 ** 2)])
    def test_grids_about_65536_cells(self, n, cells):
        # cells per axis: min(20 / 0.05, isqrt(n) + 1) plus two of padding.
        # Up to 65,536 cells the keys are sorted as 16-bit integers, and
        # beyond as they are
        per_axis = min(int(20.0 / (0.05 * (1 + 1e-9))), math.isqrt(n) + 1)
        assert (per_axis + 2) ** 2 == cells
        pos = np.random.default_rng(n).random((n, 2)) * 20.0
        assert_pairs_as_k_d_tree(pos, 0.05)

    def test_points_on_the_region_edges(self):
        edges = [[0.0, 0.0], [20.0, 20.0], [0.0, 20.0], [20.0, 0.0],
                 [0.0, 10.0], [20.0, 10.0], [10.0, 0.0], [10.0, 20.0],
                 [0.3, 0.2], [19.7, 19.9]]
        for r in (0.5, 1.0, 10.0, 20.0):
            assert_pairs_as_k_d_tree(edges, r)

    def test_duplicate_points(self):
        pos = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [7.0, 3.0], [7.0, 3.0]]
        assert_pairs_as_k_d_tree(pos, 0.5)
        assert montecarlo._near_pairs(np.array(pos), 0.5, 20.0).shape == (4, 2)

    def test_pair_at_exactly_r(self):
        # 3-4-5 and a horizontal pair: squared distances equal r^2 exactly
        pos = [[2.0, 2.0], [5.0, 6.0], [12.0, 1.0], [17.0, 1.0]]
        assert_pairs_as_k_d_tree(pos, 5.0)
        assert montecarlo._near_pairs(np.array(pos), 5.0, 20.0).shape == (2, 2)
        assert_pairs_as_k_d_tree(pos, np.nextafter(5.0, 0.0))

    @pytest.mark.parametrize("r", [20.0, 28.0, 1e6])
    def test_radius_at_least_the_region(self, r):
        pos = np.random.default_rng(3).random((300, 2)) * 20.0
        assert_pairs_as_k_d_tree(pos, r)
        assert_pairs_as_k_d_tree([[0.0, 0.0], [20.0, 20.0]], r)


def core_sinrs(real, fac, p, cfg, rng):
    """Uplink and downlink SINRs of the core links, as run_campaign has them."""
    ul, dl = _core_link_parts(real, p, cfg, rng)
    return (montecarlo._uplink_sinr_from_parts(*ul, fac, p),
            montecarlo._downlink_sinr_from_parts(*dl, fac, p))


class TestSinr:
    def test_single_bs_uplink_reduces_to_snr(self):
        real = single_bs_realization()
        p0 = dataclasses.replace(REF, beta=0.0)
        sinr, _ = core_sinrs(real, ZERO, p0, SINGLE_CFG,
                             np.random.default_rng(5))
        h0 = float(np.random.default_rng(5).exponential())
        expected = p0.rho * h0 / p0.sigma_n_sq
        assert sinr.tolist() == pytest.approx([expected], rel=1e-12)

    def test_single_bs_downlink_reduces_to_snr(self):
        real = single_bs_realization(serving_km=0.1)
        p0 = dataclasses.replace(REF, beta=0.0)
        _, sinr = core_sinrs(real, ZERO, p0, SINGLE_CFG,
                             np.random.default_rng(6))
        # the uplink link draws its one gain first
        h0 = float(np.random.default_rng(6).exponential(size=2)[1])
        expected = p0.p_b * h0 * 100.0 ** -p0.eta / p0.sigma_n_sq
        assert sinr.tolist() == pytest.approx([expected], rel=1e-12)

    def test_uplink_independent_of_bs_power_when_decoupled(self):
        cfg = SimConfig(n_realizations=1, seed=17)
        real = sample_realization(REF, cfg, 0)
        fac = InterferenceFactors(0.0, 0.4)
        p0 = dataclasses.replace(REF, beta=0.0)
        p_big = dataclasses.replace(p0, p_b=50.0)
        a, _ = core_sinrs(real, fac, p0, cfg, np.random.default_rng(8))
        b, _ = core_sinrs(real, fac, p_big, cfg, np.random.default_rng(8))
        assert a.size >= 1 and np.array_equal(a, b)

    def test_downlink_ratio_homogeneity(self):
        cfg = SimConfig(n_realizations=2, seed=17)
        real = sample_realization(REF, cfg, 1)
        p0 = dataclasses.replace(REF, beta=0.0)
        p_scaled = dataclasses.replace(p0, p_b=7.0 * p0.p_b, n0=7.0 * p0.n0)
        _, a = core_sinrs(real, ZERO, p0, cfg, np.random.default_rng(8))
        _, b = core_sinrs(real, ZERO, p_scaled, cfg, np.random.default_rng(8))
        assert a.size >= 1
        assert a.tolist() == pytest.approx(b.tolist(), rel=1e-12)


class TestLinkAssembly:
    @pytest.mark.parametrize("seed, idx, region_side, core_side", [
        (23, 0, 20.0, 2.0),
        (23, 2, 20.0, 2.0),
        (5, 7, 20.0, 2.0),
        (3, 0, 2.0, 1.9),
    ])
    def test_batched_equals_per_link_oracle(self, seed, idx, region_side,
                                            core_side):
        cfg = SimConfig(n_realizations=idx + 1, seed=seed,
                        region_side=region_side, core_side=core_side)
        real = sample_realization(REF, cfg, idx)
        stream = np.random.SeedSequence(seed, spawn_key=(idx, 1))
        rng_oracle = np.random.default_rng(stream)
        rng_batched = np.random.default_rng(stream)
        ul_o, dl_o = link_parts_per_link(real, REF, cfg, rng_oracle)
        ul_b, dl_b = _core_link_parts(real, REF, cfg, rng_batched)
        assert ul_o.shape[0] >= 1 and dl_o.shape[0] >= 1
        assert np.array_equal(np.column_stack(ul_b), ul_o)
        assert np.array_equal(np.column_stack(dl_b), dl_o)
        # both consumed exactly the same stream
        assert rng_batched.bit_generator.state == rng_oracle.bit_generator.state

    @pytest.mark.parametrize("links", ["none", "one", "core"])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_in_place_equals_out_of_place(self, links, direction):
        cfg = SimConfig(n_realizations=1, seed=29)
        real = sample_realization(REF, cfg, 0)
        pos = (real.bs_positions if direction is Direction.UPLINK
               else real.ue_positions)
        core = core_indices(pos, cfg)
        tagged = {"none": core[:0], "one": core[:1], "core": core}[links]
        pos = pos[tagged]
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        got = _link_parts(pos, tagged, real, REF, rng_a)
        want = link_parts_out_of_place(pos, tagged, real, REF, rng_b)
        assert core.size > 1
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert all(part.shape == (tagged.size,) for part in got)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_parts_do_not_pin_the_gain_block(self):
        # a view into the (k, 2 n_bs - 1) gains would keep every block of a
        # campaign alive until the end, multiplying its peak memory
        cfg = SimConfig(n_realizations=1, seed=23)
        ul, dl = _core_link_parts(sample_realization(REF, cfg, 0), REF, cfg,
                                  np.random.default_rng(1))
        assert all(part.base is None for part in ul + dl)

    def test_empty_core_draws_no_gains(self):
        cfg = SimConfig(n_realizations=2, seed=0, region_side=6.0,
                        core_side=0.05)
        for idx in range(cfg.n_realizations):
            real = sample_realization(REF, cfg, idx)
            rng = np.random.default_rng(99)
            before = rng.bit_generator.state
            ul_b, dl_b = _core_link_parts(real, REF, cfg, rng)
            ul_o, dl_o = link_parts_per_link(real, REF, cfg,
                                             np.random.default_rng(99))
            assert np.column_stack(ul_b).shape == ul_o.shape == (0, 3)
            assert np.column_stack(dl_b).shape == dl_o.shape == (0, 5)
            assert rng.bit_generator.state == before

    def test_sinr_views_match_oracle_parts(self):
        # both helpers against the written-out SINRs on per-link oracle parts
        cfg = SimConfig(n_realizations=1, seed=17)
        real = sample_realization(REF, cfg, 0)
        fac = InterferenceFactors(0.3, 0.6)
        sigma_sq = REF.sigma_n_sq
        ul, dl = link_parts_per_link(real, REF, cfg, np.random.default_rng(4))
        assert ul.shape[0] >= 1 and dl.shape[0] >= 1
        h0, bs_sum, ue_sum = ul.T
        assert np.array_equal(
            montecarlo._uplink_sinr_from_parts(*ul.T, fac, REF),
            REF.rho * h0 / (fac.i_du_sq * bs_sum + fac.i_uu_sq * ue_sum
                            + REF.beta * REF.p_b * fac.i_su_sq + sigma_sq))
        h0, bs_sum, ue_sum, r_o_m, own_tx = dl.T
        assert np.array_equal(
            montecarlo._downlink_sinr_from_parts(*dl.T, fac, REF),
            REF.p_b * h0 * r_o_m ** -REF.eta / (
                fac.i_dd_sq * bs_sum + fac.i_ud_sq * ue_sum
                + REF.beta * own_tx * fac.i_sd_sq + sigma_sq))


class TestCampaign:
    def test_row_layout_and_ranges(self):
        cfg = SimConfig(n_realizations=3, seed=19)
        rows = run_campaign(REF, cfg, [0.0, 0.5, 1.0], RT_PAIR)
        assert len(rows) == 6
        for i, alpha in enumerate((0.0, 0.5, 1.0)):
            ul, dl = rows[2 * i], rows[2 * i + 1]
            assert ul.direction is Direction.UPLINK
            assert dl.direction is Direction.DOWNLINK
            assert ul.alpha == dl.alpha == alpha
            for m in (ul, dl):
                w1, _ = REF.omega(m.direction)
                assert 0.0 <= m.mean_ber <= w1
                assert m.n_links >= 1
                plan = BandPlan(REF.b_u, REF.b_d, alpha)
                assert m.bandwidth == plan.accessible_bandwidth(m.direction)
                assert m.throughput == pytest.approx(
                    math.log2(REF.m_symbols) * m.bandwidth * (1.0 - m.mean_ber),
                    rel=1e-15)

    def test_bitwise_deterministic(self):
        cfg = SimConfig(n_realizations=3, seed=23)
        a = run_campaign(REF, cfg, [0.0, 0.7], RT_PAIR)
        b = run_campaign(REF, cfg, [0.0, 0.7], RT_PAIR)
        assert a == b

    def test_frozen_common_random_numbers(self):
        # (mean_ber, std_err, n_links) per row, as first produced by the
        # per-link assembly; any change to the draw order or the sums shows
        cfg = SimConfig(n_realizations=3, seed=23)
        rows = run_campaign(REF, cfg, [0.0, 0.7], RT_PAIR)
        frozen = [
            (0.11177344601287344, 0.029640803083637184, 23),
            (0.1698157885160617, 0.04825131408722486, 24),
            (0.9371885611658862, 0.00596300846751318, 23),
            (0.3307289168282321, 0.06356222292819952, 24),
        ]
        assert [(m.mean_ber, m.std_err, m.n_links) for m in rows] == frozen

    def test_small_region_usually_has_links(self):
        # Poisson(~11) core BS count: missing links is a sub-percent event
        successes = 0
        for seed in range(40):
            cfg = SimConfig(n_realizations=1, seed=seed,
                            region_side=2.0, core_side=1.9)
            try:
                rows = run_campaign(REF, cfg, [0.3], RT_PAIR)
            except (ValueError, StarvationError):
                continue
            if all(m.n_links >= 1 for m in rows):
                successes += 1
        assert successes >= 38

    def test_no_core_links_is_an_error(self):
        cfg = SimConfig(n_realizations=2, seed=0, region_side=6.0,
                        core_side=0.05)
        with pytest.raises(ValueError, match="no measurement links fell "
                                             "inside the core window"):
            run_campaign(REF, cfg, [0.0], RT_PAIR)

    def test_stderr_shrinks_with_pooled_links(self):
        small = run_campaign(REF, SimConfig(n_realizations=8, seed=21),
                             [0.4], RT_PAIR)
        big = run_campaign(REF, SimConfig(n_realizations=32, seed=21),
                           [0.4], RT_PAIR)
        for m_small, m_big in zip(small, big):
            assert m_big.n_links > 3 * m_small.n_links
            ratio = m_small.std_err / m_big.std_err
            assert 1.4 < ratio < 2.9

    def test_matches_analytic_spot(self):
        cfg = SimConfig(n_realizations=60, seed=13)
        rows = run_campaign(REF, cfg, [0.4], RT_PAIR)
        plan = BandPlan(REF.b_u, REF.b_d, 0.4)
        fac = interference_factors(plan, *make_pulses(RT_PAIR, plan))
        for m in rows:
            fn = ber_uplink if m.direction is Direction.UPLINK else ber_downlink
            ana = fn(0.4, fac, REF).ber
            assert abs(m.mean_ber - ana) <= max(0.02, 4.0 * m.std_err)

    def test_fd_direction_of_change(self):
        rows = run_campaign(REF, SimConfig(n_realizations=40, seed=29),
                            [0.0, 1.0], RT_PAIR)
        t = {(m.direction, m.alpha): m.throughput for m in rows}
        assert t[(Direction.DOWNLINK, 1.0)] > t[(Direction.DOWNLINK, 0.0)]
        assert t[(Direction.UPLINK, 1.0)] < t[(Direction.UPLINK, 0.0)]

    def test_rejects_bad_arguments(self):
        cfg = SimConfig(n_realizations=1, seed=1)
        with pytest.raises(ValueError):
            run_campaign(REF, cfg, [], RT_PAIR)
        with pytest.raises(ValueError):
            run_campaign(REF, cfg, [0.5, 1.5], RT_PAIR)

    def test_empirical_metrics_validation(self):
        with pytest.raises(ValueError):
            EmpiricalMetrics(Direction.UPLINK, 0.5, 1.5, 0.0, 10, 1e6, 0.0)
        with pytest.raises(ValueError):
            EmpiricalMetrics(Direction.UPLINK, 0.5, 0.5, -1.0, 10, 1e6, 0.0)
        with pytest.raises(ValueError):
            EmpiricalMetrics(Direction.UPLINK, 0.5, 0.5, 0.1, 0, 1e6, 0.0)


class TestEdgeEffects:
    def test_distant_ring_contributes_below_one_stderr(self):
        # enlarge the region from 20 to 28 km: with shared geometry and
        # gains, the added ring's effect on core BER must drown in noise
        p0 = dataclasses.replace(REF, beta=0.0)
        cfg = SimConfig(n_realizations=4, seed=31, region_side=28.0)
        sigma_sq = p0.sigma_n_sq
        w1, w2 = p0.omega(Direction.UPLINK)
        full_vals, inner_vals = [], []
        for idx in range(cfg.n_realizations):
            real = sample_realization(p0, cfg, idx)
            rng = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(idx,)))
            # entities inside the centered 20 km square
            lo, hi = 4.0, 24.0
            bs_in20 = np.all((real.bs_positions >= lo) & (real.bs_positions <= hi), axis=1)
            ue_in20 = np.all((real.ue_positions >= lo) & (real.ue_positions <= hi), axis=1)
            for b in core_indices(real.bs_positions, cfg):
                rx = real.bs_positions[b]
                keep = np.arange(real.n_bs) != b
                h0 = float(rng.exponential())
                d_bs = 1000.0 * np.linalg.norm(real.bs_positions[keep] - rx, axis=1)
                g_bs = rng.exponential(size=d_bs.size)
                bs_terms = p0.p_b * g_bs * d_bs ** -p0.eta
                d_ue = 1000.0 * np.linalg.norm(real.ue_positions[keep] - rx, axis=1)
                g_ue = rng.exponential(size=d_ue.size)
                ue_terms = real.tx_power[keep] * g_ue * d_ue ** -p0.eta
                def ber(bs_mask, ue_mask):
                    denom = bs_terms[bs_mask].sum() + ue_terms[ue_mask].sum() + sigma_sq
                    return w1 * math.erfc(math.sqrt(w2 * p0.rho * h0 / denom))
                every = np.ones(d_bs.size, dtype=bool)
                full_vals.append(ber(every, every))
                inner_vals.append(ber(bs_in20[keep], ue_in20[keep]))
        full = np.asarray(full_vals)
        inner = np.asarray(inner_vals)
        std_err = full.std(ddof=1) / math.sqrt(full.size)
        assert abs(full.mean() - inner.mean()) < std_err
