"""Miner-engine tests: prefix selection, recommendation, rounds, horizon."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbook.market import (
    FeeProfile,
    Miner,
    MinerPolicy,
    RoundRecord,
    build_instance,
    miners_with_protocol_share,
    rank_feasible,
)
import chainbook.miners as miners_module
from chainbook.miners import (
    _HALL_ROWS,
    PendingPool,
    Selection,
    _Windows,
    _feasible_prefixes,
    _hall_counts,
    max_weight_assignment,
    recommend_matching,
    run_horizon,
    run_round,
    selfish_select,
    uniform_feasible_pairing,
)


def _pool(instance, buy_fees, sell_fees):
    return PendingPool.from_instance(
        instance, FeeProfile(buy_fees=tuple(buy_fees), sell_fees=tuple(sell_fees))
    )


def brute_force_best_fee(instance, pool):
    """Max fee total over ALL feasible equal-size subsets (not just prefixes)."""
    buyers = [i for i, f in zip(pool.buyer_ids, pool.buy_fees) if f > 0]
    sellers = [i for i, f in zip(pool.seller_ids, pool.sell_fees) if f > 0]
    best = 0.0
    cap = min(instance.block_size, len(buyers), len(sellers))
    for size in range(1, cap + 1):
        for bs in itertools.combinations(buyers, size):
            fee_b = sum(pool.buy_fees[pool.buyer_ids.index(b)] for b in bs)
            utils = instance.utility_array[list(bs)]
            for ss in itertools.combinations(sellers, size):
                costs = instance.cost_array[list(ss)]
                if rank_feasible(utils, costs):
                    fee_s = sum(pool.sell_fees[pool.seller_ids.index(s)] for s in ss)
                    best = max(best, fee_b + fee_s)
    return best


def test_selfish_select_empty_pool():
    inst = build_instance([0.9], [0.1], block_size=1)
    pool = _pool(inst, [0.0], [0.0])  # zero fees: nothing admissible
    sel = selfish_select(pool, inst, 0)
    assert sel.is_empty
    assert sel.total_fee == 0.0


def test_selfish_select_takes_full_feasible_prefix():
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=2)
    sel = selfish_select(_pool(inst, [5, 3], [4, 1]), inst, 0)
    assert sel.size == 2
    assert sel.total_fee == pytest.approx(13.0)
    assert set(sel.buyer_ids) == {0, 1}
    assert set(sel.seller_ids) == {0, 1}


def test_selfish_select_rejects_incompatible_pair():
    inst = build_instance([0.9], [0.95], block_size=1)
    sel = selfish_select(_pool(inst, [5.0], [4.0]), inst, 0)
    assert sel.is_empty


def test_selfish_select_skips_then_recovers_larger_prefix():
    # Rank 2 is infeasible but rank 3 dominates again; the scan must find it.
    inst = build_instance([0.9, 0.2, 0.95], [0.5, 0.3, 0.1], block_size=3)
    sel = selfish_select(_pool(inst, [9, 8, 7], [9, 8, 7]), inst, 0)
    assert sel.size == 3
    assert sel.total_fee == pytest.approx(48.0)


def test_prefix_equals_subset_optimum_on_aligned_fees():
    # When fees rank the same way as matchability (higher utility => higher fee,
    # lower cost => higher fee), the fee-ranked prefix is subset-optimal.
    rng = np.random.default_rng(42)
    for _ in range(150):
        nb, ns = rng.integers(1, 7), rng.integers(1, 7)
        a = int(rng.integers(1, 7))
        r = np.sort(rng.random(nb))[::-1]
        c = np.sort(rng.random(ns))
        buy_fees = np.sort(rng.random(nb) + 0.05)[::-1]
        sell_fees = np.sort(rng.random(ns) + 0.05)[::-1]
        inst = build_instance(r, c, block_size=a)
        pool = _pool(inst, buy_fees, sell_fees)
        sel = selfish_select(pool, inst, int(rng.integers(1 << 30)))
        assert sel.total_fee == pytest.approx(brute_force_best_fee(inst, pool))


def test_nonprefix_subset_can_beat_every_feasible_prefix():
    # With fees uncorrelated with valuations the top-fee prefix can be worth
    # strictly less than the best feasible equal-size subset; the engine keeps
    # the prefix behavior regardless.
    inst = build_instance([0.2, 0.9], [0.5], block_size=1)
    pool = _pool(inst, [5.0, 4.0], [6.0])
    sel = selfish_select(pool, inst, 0)
    assert sel.is_empty  # top-fee buyer is incompatible with the only seller
    assert brute_force_best_fee(inst, pool) == pytest.approx(10.0)


def test_feasible_prefixes_match_rank_feasible_on_every_prefix():
    # Values on a coarse grid, so utilities, costs and thresholds tie often.
    rng = np.random.default_rng(17)
    sizes = [int(n) for n in rng.integers(1, 12, size=300)] + [_HALL_ROWS + 1, 2 * _HALL_ROWS + 7, 3 * _HALL_ROWS]
    pools = [(rng.integers(0, 8, n) / 8.0, rng.integers(0, 8, n) / 8.0) for n in sizes]
    # Value-sorted, the last pair incompatible: every prefix but the full one
    # is feasible, so every block survives the screen.
    n = 3 * _HALL_ROWS + 5
    u, c = np.sort(rng.integers(4, 8, n))[::-1] / 8.0, np.sort(rng.integers(0, 5, n)) / 8.0
    u[-1], c[-1] = 0.0, 1.0
    pools.append((u, c))
    assert _feasible_prefixes(u, c).tolist() == [True] * (n - 1) + [False]
    # Feasible prefixes in blocks 0 and 2 but none in block 1: a buyer below
    # every cost fails every prefix from row 10 until a free seller in block 2
    # covers it, so block 2's carry is built across the skipped block 1.
    u, c = np.full(n, 0.75), np.full(n, 0.5)
    u[10], c[2 * _HALL_ROWS + 20] = 0.0, 0.0
    pools.append((u, c))
    assert _feasible_prefixes(u, c).tolist() == [i < 10 or i >= 2 * _HALL_ROWS + 20 for i in range(n)]
    for u, c in pools:
        got = _feasible_prefixes(u, c)
        want = [rank_feasible(np.sort(u[:i]), np.sort(c[:i])) for i in range(1, len(c) + 1)]
        assert got.tolist() == want


def test_hall_count_decides_feasibility_as_rank_feasible_does():
    # selfish_select takes the full prefix iff every count is >= 1, and its
    # pairing draws from the same counts.
    rng = np.random.default_rng(23)
    for _ in range(300):
        n, levels = int(rng.integers(1, 12)), int(rng.choice([4, 8, 64]))
        u, c = rng.integers(0, levels + 1, n) / levels, rng.integers(0, levels + 1, n) / levels
        for i in range(1, n + 1):
            lows, choices = _hall_counts(np.sort(u[:i]), np.sort(c[:i])[::-1])
            assert choices.dtype == np.intp and lows.shape == choices.shape == (i,)
            assert (choices.min() >= 1) == rank_feasible(u[:i], c[:i])


@st.composite
def _blockwise_values(draw):
    """Up to three full Hall blocks and a partial fourth, on a small grid.

    Each 64-row block draws its costs from its own window of the grid, so
    earlier blocks leave breakpoints the current block lacks.  Utilities copy
    a cost a few rows away, or draw from the window too: ties, values equal
    to thresholds and R = C all occur, and many prefixes sit at the edge of
    feasibility.  Some pools are value-sorted (buyers by utility descending,
    sellers by cost ascending), as when fees follow values.
    """
    n = draw(st.integers(1, 3 * _HALL_ROWS + 5), label="n")
    levels = draw(st.sampled_from([4, 8, 64]), label="levels")
    half = st.integers(0, levels // 2)
    window = np.repeat(draw(st.lists(half, min_size=-(-n // _HALL_ROWS), max_size=-(-n // _HALL_ROWS))),
                       _HALL_ROWS)[:n]
    c = window + np.array(draw(st.lists(half, min_size=n, max_size=n)))
    if draw(st.booleans(), label="copied"):
        shift = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        u = c[np.clip(np.arange(n) + shift, 0, n - 1)]
    else:
        u = window + np.array(draw(st.lists(half, min_size=n, max_size=n)))
    if draw(st.booleans(), label="value_sorted"):
        # Fees ranked by value: most prefixes are feasible and survive the screen.
        u, c = np.sort(u)[::-1], np.sort(c)
    return u / levels, c / levels


@settings(max_examples=80)
@given(_blockwise_values())
def test_feasible_prefixes_match_rank_feasible_property(values):
    u, c = values
    want = [rank_feasible(u[:i], c[:i]) for i in range(1, len(c) + 1)]
    assert _feasible_prefixes(u, c).tolist() == want


def _play_key(seed):
    """The Philox key of a play from ``default_rng(seed)``: that of its first spawned child."""
    return np.random.default_rng(seed).bit_generator.seed_seq.spawn(1)[0].generate_state(2, np.uint64)


def _window(key, round_number, purpose):
    """Window (round, purpose) of a play, built fresh."""
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, purpose, round_number]))


def _reference_select(pool, instance, key, round_number=0):
    """selfish_select with each prefix sorted and checked on its own, drawing
    from fresh windows of round ``round_number`` of the play keyed ``key``.

    Returns the selection and the number of tied prefix sizes drawn from.
    """
    tie_rng, choice_rng, pair_rng = (_window(key, round_number, purpose) for purpose in range(3))

    def ranked(fees):
        fees = np.asarray(fees)
        keep = np.flatnonzero(fees > 0.0)
        return keep[np.lexsort((tie_rng.random(len(keep)), -fees[keep]))]

    b_pos, s_pos = ranked(pool.buy_fees), ranked(pool.sell_fees)
    limit = min(instance.block_size, len(b_pos), len(s_pos))
    utilities = instance.utility_array[[pool.buyer_ids[p] for p in b_pos[:limit]]]
    costs = instance.cost_array[[pool.seller_ids[p] for p in s_pos[:limit]]]
    fee_totals = np.cumsum([pool.buy_fees[p] for p in b_pos[:limit]]) + np.cumsum(
        [pool.sell_fees[p] for p in s_pos[:limit]]
    )
    feasible = [
        i for i in range(1, limit + 1) if np.all(np.sort(utilities[:i]) >= np.sort(costs[:i]))
    ]
    if not feasible:
        return Selection(buyer_ids=(), seller_ids=(), pairing=(), total_fee=0.0), 0
    best = max(float(fee_totals[i - 1]) for i in feasible)
    tied = [i for i in feasible if fee_totals[i - 1] >= best - 1e-12 * max(1.0, abs(best))]
    size = tied[int(choice_rng.integers(len(tied)))] if len(tied) > 1 else tied[0]
    buyer_ids = np.array([pool.buyer_ids[p] for p in b_pos[:size]])
    seller_ids = np.array([pool.seller_ids[p] for p in s_pos[:size]])
    selection = Selection(
        buyer_ids=tuple(int(b) for b in buyer_ids),
        seller_ids=tuple(int(s) for s in seller_ids),
        pairing=uniform_feasible_pairing(
            buyer_ids, utilities[:size], seller_ids, costs[:size], pair_rng
        ),
        total_fee=float(fee_totals[size - 1]),
    )
    return selection, len(tied)


def test_selfish_select_matches_sorted_prefix_reference():
    # Zero fees, fees below the 1e-12 tie tolerance and exact ties, so the
    # tie rule and its choice_rng draw are exercised.
    fee_grid = np.array([0.0, 1e-13, 4e-13, 0.25, 0.5, 1.0])
    rng = np.random.default_rng(23)
    tie_draws = Counter()
    for seed in range(1500):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        inst = build_instance(
            rng.integers(0, 6, k) / 5.0,
            rng.integers(0, 6, n) / 5.0,
            block_size=int(rng.integers(1, 9)),
        )
        grid = fee_grid[:3] if seed % 4 == 0 else fee_grid
        pool = _pool(inst, rng.choice(grid, k), rng.choice(grid, n))
        want, num_tied = _reference_select(pool, inst, _play_key(seed), seed % 3)
        assert selfish_select(pool, inst, seed, seed % 3) == want
        tie_draws[want.total_fee < 1e-11] += num_tied > 1
    # Ties below the tolerance both among tiny totals and on top of large ones.
    assert tie_draws[True] > 0 and tie_draws[False] > 0


def test_selfish_select_matches_sorted_prefix_reference_on_big_pools():
    # Pools past one Hall block.  Odd seeds rank by value (ties in fees),
    # so long prefixes are feasible and the selection reaches later blocks.
    fee_grid = np.array([0.0, 1e-13, 0.25, 0.5, 1.0])
    rng = np.random.default_rng(31)
    sizes = []
    for seed in range(40):
        k, n = (int(x) for x in rng.integers(_HALL_ROWS + 1, 3 * _HALL_ROWS + 5, size=2))
        u, c = rng.integers(0, 9, k) / 8.0, rng.integers(0, 9, n) / 8.0
        inst = build_instance(u, c, block_size=int(rng.integers(_HALL_ROWS + 1, min(k, n) + 1)))
        if seed % 2:
            pool = _pool(inst, np.round(u * 4.0) + 1.0, np.round((1.0 - c) * 4.0) + 1.0)
        else:
            pool = _pool(inst, rng.choice(fee_grid, k), rng.choice(fee_grid, n))
        want, _ = _reference_select(pool, inst, _play_key(seed), seed % 3)
        assert selfish_select(pool, inst, seed, seed % 3) == want
        sizes.append(want.size)
    assert max(sizes) > 2 * _HALL_ROWS


def test_selection_tie_break_is_seeded():
    inst = build_instance([0.9, 0.8], [0.1], block_size=1)
    pool = _pool(inst, [5.0, 5.0], [4.0])
    picks = Counter()
    for seed in range(400):
        sel = selfish_select(pool, inst, seed)
        picks[sel.buyer_ids[0]] += 1
    assert abs(picks[0] - 200) < 60  # roughly even split across seeds
    first = selfish_select(pool, inst, 123)
    again = selfish_select(pool, inst, 123)
    assert first == again


def test_uniform_pairing_is_uniform_over_feasible_matchings():
    # Two feasible pairings: {(0.9, 0.1), (0.25, 0.2)} and {(0.9, 0.2), (0.25, 0.1)}.
    buyer_ids = np.array([0, 1])
    utils = np.array([0.9, 0.25])
    seller_ids = np.array([0, 1])
    costs = np.array([0.1, 0.2])
    rng = np.random.default_rng(5)
    counts = Counter()
    trials = 6000
    for _ in range(trials):
        pairing = uniform_feasible_pairing(buyer_ids, utils, seller_ids, costs, rng)
        counts[frozenset(pairing)] += 1
    assert len(counts) == 2
    for count in counts.values():
        assert abs(count - trials / 2) < 4 * np.sqrt(trials * 0.25)


def test_uniform_pairing_frequencies_match_enumeration():
    # All pairs compatible: every one of the 3! pairings appears ~uniformly.
    buyer_ids = np.arange(3)
    utils = np.array([0.9, 0.8, 0.7])
    seller_ids = np.arange(3)
    costs = np.array([0.1, 0.2, 0.3])
    rng = np.random.default_rng(6)
    counts = Counter()
    trials = 6000
    for _ in range(trials):
        counts[uniform_feasible_pairing(buyer_ids, utils, seller_ids, costs, rng)] += 1
    assert len(counts) == 6
    expected = trials / 6
    for count in counts.values():
        assert abs(count - expected) < 5 * np.sqrt(expected)


def test_uniform_pairing_stream_is_pinned():
    # Golden pairings for two seeds: the pairing stream (one integer draw per
    # seller) must not change, or seeded reports would change with it.
    buyer_ids = np.array([10, 11, 12, 13, 14, 15, 16, 17])
    utils = np.array([0.95, 0.40, 0.70, 0.40, 0.85, 0.55, 0.30, 0.90])
    seller_ids = np.array([20, 21, 22, 23, 24, 25, 26, 27])
    costs = np.array([0.10, 0.35, 0.50, 0.25, 0.30, 0.60, 0.20, 0.35])
    golden = {
        3: ((12, 25), (10, 22), (15, 21), (11, 27), (13, 24), (14, 23), (17, 26), (16, 20)),
        11: ((10, 25), (12, 22), (13, 21), (17, 27), (14, 24), (11, 23), (16, 26), (15, 20)),
    }
    for seed, pairing in golden.items():
        rng = np.random.default_rng(seed)
        got = uniform_feasible_pairing(buyer_ids, utils, seller_ids, costs, rng)
        assert got == pairing
        assert all(type(b) is int and type(s) is int for b, s in got)


def _scalar_pairing(buyer_ids, utilities, seller_ids, costs, rng):
    """uniform_feasible_pairing as one rng.integers call per seller."""
    order_b = np.argsort(utilities, kind="stable")
    r_sorted = utilities[order_b]
    b_sorted = buyer_ids[order_b].tolist()
    order_s = np.argsort(-costs, kind="stable")
    lows = np.searchsorted(r_sorted, costs[order_s], side="left").tolist()
    pairs, active, next_in = [], [], len(b_sorted)
    for lo, seller in zip(lows, seller_ids[order_s].tolist()):
        while next_in > lo:
            next_in -= 1
            active.append(next_in)
        pick = int(rng.integers(len(active)))
        active[pick], active[-1] = active[-1], active[pick]
        pairs.append((b_sorted[active.pop()], seller))
    return tuple(pairs)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_uniform_picks_equal_scalar_integer_draws(bit_generator):
    # The pairing's one bounded draw over its steps takes the values and the
    # words of one rng.integers call per step, also from a half-used output.
    maker = np.random.default_rng(17)
    for run in range(80):
        n = int(maker.integers(1, 40))
        utilities = maker.integers(1, 6, n) / 5.0
        costs = utilities * maker.random(n)  # seller i fits buyer i: a perfect matching exists
        maker.shuffle(costs)
        seed = int(maker.integers(2**32))
        want_rng, got_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if run % 2:  # leave half of a 64-bit output buffered
            for g in (want_rng, got_rng):
                g.integers(5)
        want = _scalar_pairing(np.arange(n), utilities, np.arange(n) + n, costs, want_rng)
        assert uniform_feasible_pairing(np.arange(n), utilities, np.arange(n) + n, costs, got_rng) == want
        assert got_rng.random() == want_rng.random()


def test_uniform_pairing_equals_scalar_draws_on_big_pools():
    maker = np.random.default_rng(23)
    for _ in range(40):
        n = int(maker.integers(65, 401))
        levels = int(maker.choice([5, 50, 10**6]))  # value ties at few levels
        utilities = maker.integers(1, levels + 1, n) / levels
        costs = utilities * maker.random(n) ** 0.2  # seller i fits buyer i: a perfect matching exists
        maker.shuffle(costs)
        buyer_ids, seller_ids = maker.permutation(n), maker.permutation(n) + n
        seed = int(maker.integers(2**32))
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _scalar_pairing(buyer_ids, utilities, seller_ids, costs, want_rng)
        assert uniform_feasible_pairing(buyer_ids, utilities, seller_ids, costs, got_rng) == want
        assert got_rng.random() == want_rng.random()


def test_uniform_pairing_respects_forced_structure():
    # Only one feasible pairing exists: the star buyer must take the pricey seller.
    pairing = uniform_feasible_pairing(
        np.array([0, 1]),
        np.array([0.9, 0.3]),
        np.array([0, 1]),
        np.array([0.1, 0.5]),
        np.random.default_rng(0),
    )
    assert set(pairing) == {(0, 1), (1, 0)}


def test_recommendation_prefers_single_best_pair():
    inst = build_instance([0.9, 0.3], [0.1, 0.5], block_size=2)
    sel = recommend_matching(_pool(inst, [1, 1], [1, 1]), inst)
    assert sel.pairing == ((0, 0),)


def test_recommendation_empty_pool():
    inst = build_instance([0.9], [0.1], block_size=1)
    sel = recommend_matching(_pool(inst, [0.0], [0.0]), inst)
    assert sel.is_empty


def test_recommendation_block_cap():
    inst = build_instance([0.8, 0.6], [0.2, 0.4], block_size=1)
    sel = recommend_matching(_pool(inst, [1, 1], [1, 1]), inst)
    assert sel.pairing == ((0, 0),)


def test_recommendation_heterogeneous_uses_assignment():
    # Quantity-aware pairing: matching like quantities doubles the gain.
    inst = build_instance(
        [0.9, 0.9],
        [0.1, 0.1],
        block_size=2,
        buy_quantities=[1.0, 3.0],
        sell_quantities=[3.0, 1.0],
    )
    sel = recommend_matching(_pool(inst, [1, 1], [1, 1]), inst)
    assert set(sel.pairing) == {(0, 1), (1, 0)}


def test_run_round_single_miner_deterministic():
    inst = build_instance([0.9], [0.1], block_size=1)
    record, pool = run_round(_pool(inst, [1.0], [1.0]), inst, 0)
    assert record.winner_id == 0
    assert record.pairs == ((0, 0),)
    assert pool.is_empty


def test_run_round_identical_selfish_miners_agree():
    # Whichever of two selfish miners wins, the block is the one a lone
    # selfish miner would fill at the same seed.
    miners = (Miner(0, 0.5), Miner(1, 0.5))
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=2, miners=miners)
    solo = build_instance([0.9, 0.8], [0.1, 0.2], block_size=2)
    for seed in range(20):
        record, pool = run_round(_pool(inst, [5, 3], [4, 1]), inst, seed)
        solo_record, _ = run_round(_pool(solo, [5, 3], [4, 1]), solo, seed)
        assert record.pairs == solo_record.pairs
        assert len(pool.buyer_ids) == 0


def test_run_round_winner_frequency():
    miners = miners_with_protocol_share(0.2)
    inst = build_instance([0.9, 0.3], [0.1, 0.5], block_size=2, miners=miners)
    pool = _pool(inst, [1, 1], [1, 1])
    protocol_ids = {m.id for m in miners if m.policy == MinerPolicy.PROTOCOL_FOLLOWING}
    wins = 0
    draws = 10_000
    for seed in range(draws):
        record, _ = run_round(pool, inst, seed)
        wins += record.winner_id in protocol_ids
    assert abs(wins / draws - 0.2) < 0.02


def test_run_round_winner_matches_generator_choice():
    powers = [0.1, 0.25, 0.0, 0.45, 0.2]
    miners = tuple(Miner(i, p) for i, p in enumerate(powers))
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=2, miners=miners)
    pool = _pool(inst, [5, 3], [4, 1])
    for seed in range(200):
        record, _ = run_round(pool, inst, seed)
        winner_rng = _window(_play_key(seed), 0, 3)
        assert record.winner_id == int(winner_rng.choice(len(powers), p=powers))


def test_run_round_policy_decides_outcome():
    # Selfish fills the block (both pairs); the recommendation keeps only the
    # positive-gain pair, so the winning policy is visible in the trace.
    miners = miners_with_protocol_share(0.5)
    inst = build_instance([0.9, 0.3], [0.1, 0.5], block_size=2, miners=miners)
    pool = _pool(inst, [1, 1], [1, 1])
    seen = set()
    for seed in range(50):
        record, _ = run_round(pool, inst, seed)
        seen.add(len(record.pairs))
    assert seen == {1, 2}


def test_run_horizon_fee_rank_sets_blocks():
    inst = build_instance([0.9, 0.8, 0.7, 0.6], [0.1, 0.2, 0.3, 0.4], block_size=2)
    profile = FeeProfile(buy_fees=(9, 7, 5, 3), sell_fees=(8, 6, 4, 2))
    trace = run_horizon(inst, profile, 0)
    assert len(trace.rounds) == 2
    buyer_blocks = {b: r.block for r in trace.rounds for b, _ in r.pairs}
    assert buyer_blocks == {0: 1, 1: 1, 2: 2, 3: 2}
    seller_blocks = {s: r.block for r in trace.rounds for _, s in r.pairs}
    assert seller_blocks == {0: 1, 1: 1, 2: 2, 3: 2}


def test_run_horizon_everything_fits_one_block():
    inst = build_instance([0.9, 0.8, 0.7], [0.1, 0.2, 0.3], block_size=5)
    profile = FeeProfile(buy_fees=(1, 2, 3), sell_fees=(3, 2, 1))
    trace = run_horizon(inst, profile, 1)
    assert len(trace.rounds) == 1
    assert all(r.block == 1 for r in trace.rounds if r.pairs)


def test_run_horizon_zero_fees_never_selected():
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=2)
    trace = run_horizon(inst, FeeProfile(buy_fees=(0, 0), sell_fees=(0, 0)), 2)
    assert trace.rounds == ()


def test_horizon_conservation_and_monotone_pool():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        inst = build_instance(
            rng.random(k), rng.random(n), block_size=int(rng.integers(1, 4))
        )
        profile = FeeProfile(
            buy_fees=tuple(rng.random(k)), sell_fees=tuple(rng.random(n))
        )
        trace = run_horizon(inst, profile, int(rng.integers(1 << 30)))
        pairs = [pair for r in trace.rounds for pair in r.pairs]
        buyers = [b for b, _ in pairs]
        sellers = [s for _, s in pairs]
        assert len(buyers) == len(set(buyers))
        assert len(sellers) == len(set(sellers))
        sizes = [len(r.pairs) for r in trace.rounds]
        assert all(s > 0 for s in sizes)  # progress every recorded round


def _reference_remove(pool, selection):
    """PendingPool.remove as a set difference, one element at a time."""
    chosen_b, chosen_s = set(selection.buyer_ids), set(selection.seller_ids)
    keep_b = [i for i, b in enumerate(pool.buyer_ids) if b not in chosen_b]
    keep_s = [i for i, s in enumerate(pool.seller_ids) if s not in chosen_s]
    return PendingPool(
        buyer_ids=tuple(pool.buyer_ids[i] for i in keep_b),
        buy_fees=tuple(pool.buy_fees[i] for i in keep_b),
        seller_ids=tuple(pool.seller_ids[i] for i in keep_s),
        sell_fees=tuple(pool.sell_fees[i] for i in keep_s),
    )


def _reference_horizon(instance, profile, rng):
    """run_horizon with every policy selecting in every round, each draw from
    a fresh window of the play keyed by rng's first spawned child."""
    key = _play_key(rng)
    pool = PendingPool.from_instance(instance, profile)
    powers = [m.power for m in instance.miners]
    policies = {m.policy for m in instance.miners}
    rounds = []
    for t in range(instance.horizon):
        if pool.is_empty:
            break
        selections = {}
        if MinerPolicy.SELFISH in policies:
            selections[MinerPolicy.SELFISH] = _reference_select(pool, instance, key, t)[0]
        if MinerPolicy.PROTOCOL_FOLLOWING in policies:
            selections[MinerPolicy.PROTOCOL_FOLLOWING] = recommend_matching(pool, instance)
        if all(sel.is_empty for sel in selections.values()):
            break
        winner = instance.miners[int(_window(key, t, 3).choice(len(powers), p=powers)) if len(powers) > 1 else 0]
        sel = selections[winner.policy]
        rounds.append(RoundRecord(block=t + 1, winner_id=winner.id, pairs=sel.pairing))
        if sel.is_empty:
            pool = PendingPool(pool.buyer_ids, pool.buy_fees, pool.seller_ids, pool.sell_fees)
        else:
            pool = _reference_remove(pool, sel)
    return tuple(rounds)


def test_windows_are_fresh_keyed_philox_generators():
    # Window (t, p) reads as a fresh Generator(Philox(key, counter)) whatever
    # other windows drew before it, and the play generator stays untouched.
    seeds = (
        lambda: np.random.SeedSequence(5),
        lambda: np.random.SeedSequence([3, 9]).spawn(3)[2],
        lambda: np.random.SeedSequence(123, pool_size=8),
        lambda: np.random.SeedSequence([0, 2**32 - 1]),  # list entropy of 32-bit words
        lambda: np.random.SeedSequence([2**40, 3]),
        lambda: np.random.SeedSequence(2**127 + 2**64 + 7),
        lambda: np.random.SeedSequence(0),
    )
    maker = np.random.default_rng(4)
    for make_seq in seeds:
        for bit_generator in (np.random.PCG64, np.random.MT19937):
            play = np.random.Generator(bit_generator(make_seq()))
            windows = _Windows(play)
            key = np.random.Generator(bit_generator(make_seq())).bit_generator.seed_seq.spawn(1)[0].generate_state(
                2, np.uint64
            )
            for t, p in maker.integers(0, 6, size=(12, 2)).tolist():
                windows(int(maker.integers(6)), int(maker.integers(4))).integers(7, size=int(maker.integers(4)))
                got = windows(t, p)
                want = _window(key, t, p)
                assert got.integers(1000, size=3).tolist() == want.integers(1000, size=3).tolist()
                assert got.random(5).tolist() == want.random(5).tolist()
            assert play.random(3).tolist() == np.random.Generator(bit_generator(make_seq())).random(3).tolist()
            assert play.bit_generator.seed_seq.n_children_spawned == 0


def test_play_builds_one_bit_generator(monkeypatch):
    built = Counter()

    def counted(name, real):
        def build(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)

        return build

    for name in ("Philox", "PCG64", "MT19937", "SFC64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
    # Several miners and fee ties: every round draws a winner, ties and a pairing.
    inst = build_instance([0.9, 0.8, 0.7, 0.6, 0.5, 0.4], [0.1, 0.2, 0.3, 0.1, 0.2, 0.3], block_size=2,
                          miners=miners_with_protocol_share(0.3))
    profile = FeeProfile(buy_fees=(0.2,) * 6, sell_fees=(0.1,) * 6)
    trace = run_horizon(inst, profile, np.random.default_rng(3))
    assert len(trace.rounds) == 3
    assert built == {"Philox": 1, "SeedSequence": 1}


def _key(seq):
    """The Philox key of the plays drawn from seed sequence ``seq``."""
    return np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, 0), pool_size=seq.pool_size).generate_state(
        2, np.uint64
    )


def test_key_cache_gives_the_same_play_cold_and_warm(monkeypatch):
    inst = build_instance([0.9, 0.8, 0.7, 0.6, 0.5, 0.4], [0.1, 0.2, 0.3, 0.1, 0.2, 0.3], block_size=2,
                          miners=miners_with_protocol_share(0.3))
    profile = FeeProfile(buy_fees=(0.2,) * 6, sell_fees=(0.1,) * 6)
    play = np.random.default_rng(3)
    monkeypatch.setattr(miners_module._Windows, "_last", (None, None, None))
    cold = run_horizon(inst, profile, play)
    built = Counter()
    real_philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.update(["Philox"]) or real_philox(*a, **k))
    warm = run_horizon(inst, profile, play)  # the same seed sequence: no new key
    assert built == {} and warm == cold
    assert run_horizon(inst, profile, np.random.default_rng(3)) == cold  # an equal sequence, keyed afresh
    assert built == {"Philox": 1}


def test_key_cache_follows_the_seed_sequence():
    # Interleaved sequences, and int or None seeds (a new sequence per call),
    # each read the windows of their own key.
    first, second = np.random.SeedSequence(11), np.random.SeedSequence([11, 1])
    plays = [np.random.default_rng(first), np.random.default_rng(second)] * 2 + [7, 7, 8, None, None]
    keys = []
    for play in plays:
        windows = _Windows(play)
        seq = miners_module._Windows._last[0]
        if isinstance(play, np.random.Generator):
            assert seq is play.bit_generator.seed_seq
        elif play is not None:
            assert seq.entropy == play
        key = _key(seq)
        keys.append(key.tolist())
        for t, p in ((0, 0), (3, 2), (1, 3)):
            assert windows(t, p).random(4).tolist() == _window(key, t, p).random(4).tolist()
    assert keys[0] == keys[2] != keys[1] == keys[3]
    assert keys[4] == keys[5] != keys[6] and keys[7] != keys[8]


def test_run_horizon_matches_window_reference():
    # Coarse value and fee grids (ties on both), zero fees, several miner sets.
    miner_sets = (
        None,
        miners_with_protocol_share(0.3),  # 4 selfish + 1 protocol-following
        (Miner(0, 0.5), Miner(1, 0.5)),
        miners_with_protocol_share(1.0),
    )
    fee_grid = np.array([0.0, 0.1, 0.2, 0.2, 0.5])
    rng = np.random.default_rng(71)
    seen = Counter()
    for case in range(200):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        miners = miner_sets[case % len(miner_sets)]
        inst = build_instance(
            rng.integers(0, 5, k) / 4.0,
            rng.integers(0, 5, n) / 4.0,
            block_size=int(rng.integers(1, 4)),
            buy_quantities=1 + rng.integers(0, 3, k) if case % 3 == 0 else None,
            sell_quantities=1 + rng.integers(0, 3, n) if case % 3 == 0 else None,
            miners=miners,
        )
        profile = FeeProfile(tuple(rng.choice(fee_grid, k)), tuple(rng.choice(fee_grid, n)))
        seeds = (
            lambda: case,
            lambda: np.random.SeedSequence([case, 3]),
            lambda: np.random.SeedSequence(case).spawn(2)[1],
        )
        make = seeds[case % len(seeds)]
        want = _reference_horizon(inst, profile, np.random.default_rng(make()))
        assert run_horizon(inst, profile, np.random.default_rng(make())).rounds == want
        seen["multi_round"] += len(want) > 1
        seen["ties"] += len(set(profile.buy_fees)) < k
    assert seen["multi_round"] > 20 and seen["ties"] > 50


@st.composite
def _distinct_fee_markets(draw):
    """Markets of up to 6 per side, values on a coarse grid, distinct fees (0 = rejected)."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = st.integers(0, 5).map(lambda v: v / 5.0)
    inst = build_instance(
        draw(st.lists(values, min_size=k, max_size=k)),
        draw(st.lists(values, min_size=n, max_size=n)),
        block_size=draw(st.integers(1, 6)),
    )
    fees = [
        tuple(f / 8.0 for f in draw(st.lists(st.integers(0, 24), min_size=m, max_size=m, unique=True)))
        for m in (k, n)
    ]
    return inst, _pool(inst, *fees), draw(st.integers(0, 2**32 - 1))


def _exhaustively_feasible(utilities, costs):
    return any(all(r >= c for r, c in zip(utilities, perm)) for perm in itertools.permutations(costs))


@settings(max_examples=300)
@given(_distinct_fee_markets())
def test_selfish_select_fee_total_is_best_feasible_prefix(market):
    inst, pool, seed = market
    ranked_b = sorted((b for b, f in zip(pool.buyer_ids, pool.buy_fees) if f > 0),
                      key=lambda b: -pool.buy_fees[b])
    ranked_s = sorted((s for s, f in zip(pool.seller_ids, pool.sell_fees) if f > 0),
                      key=lambda s: -pool.sell_fees[s])
    best = 0.0
    for size in range(1, min(inst.block_size, len(ranked_b), len(ranked_s)) + 1):
        top_b, top_s = ranked_b[:size], ranked_s[:size]
        if _exhaustively_feasible(inst.utility_array[top_b].tolist(), inst.cost_array[top_s].tolist()):
            best = max(best, sum(pool.buy_fees[b] for b in top_b) + sum(pool.sell_fees[s] for s in top_s))
    sel = selfish_select(pool, inst, seed)
    assert sel.total_fee == pytest.approx(best, abs=1e-12)
    assert set(sel.buyer_ids) == set(ranked_b[: sel.size])
    assert set(sel.seller_ids) == set(ranked_s[: sel.size])
    assert all(inst.utility_array[b] >= inst.cost_array[s] for b, s in sel.pairing)


@given(
    st.lists(st.integers(0, 11), unique=True),
    st.lists(st.integers(0, 11), unique=True),
    st.lists(st.integers(0, 13), unique=True),
    st.lists(st.integers(0, 13), unique=True),
)
def test_pool_remove_matches_set_difference(buyer_ids, seller_ids, chosen_b, chosen_s):
    pool = PendingPool(
        buyer_ids=tuple(buyer_ids),
        buy_fees=tuple(i / 7.0 for i in buyer_ids),
        seller_ids=tuple(seller_ids),
        sell_fees=tuple(i / 3.0 for i in seller_ids),
    )
    selection = Selection(tuple(chosen_b), tuple(chosen_s), pairing=(), total_fee=0.0)
    assert pool.remove(selection) == _reference_remove(pool, selection)


@pytest.mark.parametrize(
    "sides, name",
    [
        (((0, 1, 2), (0.5,), (0, 1), (0.3, 0.2)), "buyer"),
        (((0,), (0.5, 0.4, 0.3), (0, 1), (0.3, 0.2)), "buyer"),
        (((0, 1), (0.5, 0.4), (0, 1, 2), (0.3, 0.2)), "seller"),
    ],
)
def test_pool_rejects_ids_and_fees_of_unequal_length(sides, name):
    with pytest.raises(ValueError, match=f"{name} ids and fees differ in length"):
        PendingPool(*sides)


@pytest.mark.parametrize(
    "sides, name",
    [
        (((0, 0), (1.0, 1.0), (0, 1), (1.0, 1.0)), "buyer"),  # one buyer would fill two pairs
        (((0, 1), (1.0, 1.0), (1, 1), (1.0, 1.0)), "seller"),
        (((-1, 0), (1.0, 1.0), (0, 1), (1.0, 1.0)), "buyer"),  # -1 would index the last buyer
        (((0, 1), (1.0, 1.0), (0, -1), (1.0, 1.0)), "seller"),
    ],
)
def test_pool_rejects_negative_or_repeated_ids(sides, name):
    with pytest.raises(ValueError, match=f"{name} ids must be distinct nonnegative positions"):
        PendingPool(*sides)


def test_pool_from_instance_skips_the_id_check(monkeypatch):
    # Its ids are arange positions, so a play's pool never pays for the check.
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1)
    profile = FeeProfile(buy_fees=(0.2, 0.1), sell_fees=(0.1, 0.1))
    expected = PendingPool((0, 1), profile.buy_fees, (0, 1), profile.sell_fees)
    monkeypatch.setattr(PendingPool, "__init__", None)
    assert PendingPool.from_instance(inst, profile) == expected


def _pool_of(pool):
    return PendingPool(pool.buyer_ids, pool.buy_fees, pool.seller_ids, pool.sell_fees)


def test_pool_rank_order_never_changes_a_selection():
    # A pool reached by selfish rounds (head sliced off, ties redrawn in
    # place) selects exactly what a fresh pool of the same transactions does.
    fee_grid = np.array([0.0, 0.1, 0.2, 0.2, 0.5])
    rng = np.random.default_rng(41)
    sliced = 0
    for case in range(150):
        k, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        inst = build_instance(rng.integers(0, 5, k) / 4.0, rng.integers(0, 5, n) / 4.0,
                              block_size=int(rng.integers(1, 4)))
        pool = _pool(inst, rng.choice(fee_grid, k), rng.choice(fee_grid, n))
        for round_number in range(4):
            fresh = _pool_of(pool)
            sel = selfish_select(pool, inst, case, round_number)
            assert sel == selfish_select(fresh, inst, case, round_number)
            after = pool.remove(sel)
            assert after == _reference_remove(pool, sel)
            sliced += not sel.is_empty
            pool = after
    assert sliced > 100


def test_pool_order_is_position_order():
    # Ids are positions: a pool built from shuffled (id, fee) pairs reads
    # back, compares and selects as one built in ascending position.
    fee_grid = np.array([0.0, 0.1, 0.2, 0.2, 0.5])
    rng = np.random.default_rng(43)
    for case in range(100):
        k, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        quantities = rng.integers(1, 3, k) if case % 2 else None
        inst = build_instance(rng.integers(0, 5, k) / 4.0, rng.integers(0, 5, n) / 4.0,
                              block_size=int(rng.integers(1, 4)), buy_quantities=quantities)
        buy_fees, sell_fees = rng.choice(fee_grid, k), rng.choice(fee_grid, n)
        b, s = rng.permutation(k), rng.permutation(n)
        shuffled = PendingPool(b, buy_fees[b], s, sell_fees[s])
        ordered = _pool(inst, buy_fees, sell_fees)
        views = (tuple(range(k)), tuple(buy_fees.tolist()), tuple(range(n)), tuple(sell_fees.tolist()))
        assert (shuffled.buyer_ids, shuffled.buy_fees, shuffled.seller_ids, shuffled.sell_fees) == views
        assert shuffled == ordered
        assert recommend_matching(shuffled, inst) == recommend_matching(ordered, inst)
        assert selfish_select(shuffled, inst, case) == selfish_select(ordered, inst, case)


def test_pool_mask_keeps_rank_and_pool_order():
    # A protocol-following selection is not the rank head: it goes through the
    # id mask, and the rest keeps fee-rank order and its pool-order view.
    inst = build_instance([0.9, 0.8, 0.7, 0.6], [0.1, 0.2, 0.3, 0.4], block_size=4)
    pool = _pool(inst, [0.2, 0.5, 0.2, 0.0], [0.3, 0.3, 0.1, 0.4])
    sel = Selection(buyer_ids=(2,), seller_ids=(3, 0), pairing=(), total_fee=0.0)
    after = pool.remove(sel)
    assert after.buyer_ids == (0, 1, 3) and after.buy_fees == (0.2, 0.5, 0.0)
    assert after.seller_ids == (1, 2) and after.sell_fees == (0.3, 0.1)
    assert selfish_select(after, inst, 3) == selfish_select(_pool_of(after), inst, 3)


def _feasible_matchings(utilities, costs):
    """Every perfect matching with R >= C on all pairs, as buyer-per-seller tuples."""
    n = len(costs)
    return [perm for perm in itertools.permutations(range(n))
            if all(utilities[perm[j]] >= costs[j] for j in range(n))]


@pytest.mark.parametrize(
    "utilities, costs",
    [
        ([0.9, 0.8, 0.7], [0.1, 0.2, 0.3]),  # all 6 feasible
        ([0.5, 0.5, 0.75, 1.0], [0.25, 0.5, 0.5, 0.75]),  # value ties, R = C
        ([1.0, 0.75, 0.5, 0.5, 0.25], [0.25, 0.0, 0.5, 0.25, 0.5]),
        ([0.6, 0.6, 0.6, 0.6], [0.2, 0.6, 0.4, 0.6]),  # every buyer fits every seller
    ],
)
def test_uniform_pairing_chi_square_over_enumerated_matchings(utilities, costs):
    from scipy.stats import chisquare

    utilities, costs = np.array(utilities), np.array(costs)
    matchings = _feasible_matchings(utilities, costs)
    assert len(matchings) > 1
    buyer_ids, seller_ids = np.arange(len(utilities)) + 100, np.arange(len(costs)) + 200
    rng = np.random.default_rng(len(matchings))
    counts = Counter()
    trials = 200 * len(matchings)
    for _ in range(trials):
        pairing = dict((s - 200, b - 100) for b, s in
                       uniform_feasible_pairing(buyer_ids, utilities, seller_ids, costs, rng))
        counts[tuple(pairing[j] for j in range(len(costs)))] += 1
    assert set(counts) <= set(matchings)
    observed = [counts[m] for m in matchings]
    assert chisquare(observed).pvalue > 1e-3


def test_forced_and_one_pair_pairings_draw_nothing(monkeypatch):
    forced = (np.array([0, 1]), np.array([0.9, 0.3]), np.array([0, 1]), np.array([0.1, 0.5]))
    one_pair = (np.array([4]), np.array([0.5]), np.array([7]), np.array([0.5]))
    for sides, want in ((forced, {(0, 1), (1, 0)}), (one_pair, {(4, 7)})):
        rng = np.random.default_rng(9)
        assert set(uniform_feasible_pairing(*sides, rng)) == want
        assert rng.random() == np.random.default_rng(9).random()
    # A one-pair selection reads no pairing window.
    windows = []
    real_window = miners_module._Windows.__call__
    monkeypatch.setattr(miners_module._Windows, "__call__",
                        lambda self, t, p: windows.append((t, p)) or real_window(self, t, p))
    inst = build_instance([0.9, 0.8], [0.1], block_size=1)
    sel = selfish_select(_pool(inst, [5.0, 5.0], [4.0]), inst, 1, 3)
    assert sel.size == 1 and windows == [(3, miners_module._FEE_TIES)]  # the fee-tie draw only


@st.composite
def _tied_value_sides(draw):
    n = draw(st.integers(1, 6))
    values = st.integers(0, 4).map(lambda v: v / 4.0)
    return (draw(st.lists(values, min_size=n, max_size=n)), draw(st.lists(values, min_size=n, max_size=n)))


@settings(max_examples=400)
@given(_tied_value_sides())
def test_rank_feasible_matches_exhaustive_check(sides):
    utilities, costs = sides
    assert rank_feasible(np.array(utilities), np.array(costs)) == _exhaustively_feasible(utilities, costs)


def _assignment_oracle_matrices():
    rng = np.random.default_rng(23)
    shapes = lambda hi: (int(rng.integers(1, hi)), int(rng.integers(1, hi)))
    for _ in range(2500):  # small-integer weights: ties everywhere
        yield rng.integers(0, 4, shapes(9)).astype(float)
    for _ in range(2100):  # continuous weights, both orientations
        yield rng.random(shapes(26))
    for _ in range(300):  # forbidden pairs, some rows with none allowed
        w = rng.random(shapes(10))
        w[rng.random(w.shape) < 0.4] = -np.inf
        yield w
    for n in range(1, 26):
        yield from (rng.random((1, n)), rng.random((n, 1)), np.zeros((n, 7)), np.zeros((7, n)))
        yield from (np.full((n, n), 0.5), np.full((1, n), 2.0), np.full((n, 1), 2.0))
    for _ in range(12):  # above the port's size limit: the port stays exact there too
        w = rng.integers(0, 3, (int(rng.integers(20, 45)), int(rng.integers(20, 45)))).astype(float)
        yield from (w, w * rng.random(w.shape))
    yield from (np.zeros((0, 3)), np.zeros((3, 0)))


def test_max_weight_assignment_equals_scipy():
    from scipy.optimize import linear_sum_assignment

    solvers = (max_weight_assignment, miners_module._augmenting_path_assignment)
    count = 0
    for w in _assignment_oracle_matrices():
        count += 1
        try:
            want = linear_sum_assignment(w, maximize=True)
        except ValueError as err:
            for solve in solvers:
                with pytest.raises(ValueError, match=str(err)):
                    solve(w)
            continue
        for solve in solvers:
            rows, cols = solve(w)
            assert rows.dtype == want[0].dtype and cols.dtype == want[1].dtype
            assert rows.tolist() == want[0].tolist() and cols.tolist() == want[1].tolist()
    assert count >= 5000


def test_max_weight_assignment_hands_large_matrices_to_scipy(monkeypatch):
    # The port solves matrices of at most 576 entries; scipy the larger ones.
    solved = []
    real = miners_module._augmenting_path_assignment
    monkeypatch.setattr(miners_module, "_augmenting_path_assignment", lambda w: solved.append(w.shape) or real(w))
    rng = np.random.default_rng(4)
    for shape in ((24, 24), (2, 288), (25, 24), (3, 193), (60, 60)):
        max_weight_assignment(rng.random(shape))
    assert solved == [(24, 24), (2, 288)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_max_weight_assignment_rejects_what_scipy_rejects(bad):
    from scipy.optimize import linear_sum_assignment

    w = np.ones((3, 4))
    w[1, 2] = bad
    for solve in (lambda: linear_sum_assignment(w, maximize=True), lambda: max_weight_assignment(w)):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            solve()
    w[1, 2] = 1.0
    w[1] = -np.inf  # row 1 has no allowed pair
    for solve in (lambda: linear_sum_assignment(w, maximize=True), lambda: max_weight_assignment(w)):
        with pytest.raises(ValueError, match="infeasible"):
            solve()
