"""Market-core tests: surpluses, payoffs, feasibility, structural invariants."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from chainbook.equilibrium import _half_surpluses, _simulated_payoffs
from chainbook.market import (
    FeeProfile,
    MatchTrace,
    Miner,
    RoundRecord,
    build_instance,
    miners_with_protocol_share,
    rank_feasible,
)
from chainbook.welfare import social_welfare


def _halves(inst, i=0, j=0):
    """Buyer i's and seller j's half-surplus from trading with each other, as
    the equilibrium checker reads them from its half-surplus rows."""
    return _half_surpluses(inst, "buy", i)[j], _half_surpluses(inst, "sell", j)[i]


def test_pair_surplus_unit_quantities():
    buy, sell = _halves(build_instance([0.9], [0.1], 1))
    assert buy == pytest.approx(0.4)
    assert sell == pytest.approx(0.4)


def test_pair_surplus_zero_at_equal_values():
    for value, b, q in [(0.3, 1.0, 2.0), (0.7, 5.0, 1.5)]:
        inst = build_instance([value], [value], 1, buy_quantities=[b], sell_quantities=[q])
        assert _halves(inst) == (0.0, 0.0)


def test_pair_surplus_scales_with_min_quantity():
    buy, sell = _halves(build_instance([0.9], [0.1], 1, buy_quantities=[2.0], sell_quantities=[3.0]))
    assert buy == pytest.approx(0.8)
    assert sell == pytest.approx(0.8)


def test_mid_price_splits_gain_exactly():
    # Buyer i's entry for seller j plus seller j's entry for buyer i is the
    # pair's whole gain from trade, for every pair of random markets.
    rng = np.random.default_rng(3)
    pairs = 0
    while pairs < 200:
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        r, c = rng.random(k), rng.random(n)
        b, q = 1.0 + 2.0 * rng.random(k), 1.0 + 2.0 * rng.random(n)
        inst = build_instance(r, c, 1, buy_quantities=b, sell_quantities=q)
        for i, j in itertools.product(range(k), range(n)):
            buy, sell = _halves(inst, i, j)
            assert buy + sell == pytest.approx(min(b[i], q[j]) * (r[i] - c[j]), abs=1e-15)
            pairs += 1


def _payoff_in_block(side, fee, block, d):
    """The equilibrium checker's payoff of participant 0 of ``side`` paying
    ``fee`` < 1 while ``block - 1`` same-side rivals outbid it: utilities 0.9,
    costs 0.1 and one pair per block, so it trades in block ``block``."""
    inst = build_instance([0.9] * block, [0.1] * block, block_size=1, delay_cost=d)
    rivals = tuple(1.0 + i for i in range(block - 1))
    own, partners = (fee, *rivals), tuple(1.0 + i for i in range(block))
    profile = FeeProfile(own, partners) if side == "buy" else FeeProfile(partners, own)
    return _simulated_payoffs(inst, profile, 4, rng_seed=0)(side, 0, np.array(rivals), 1.0)(fee)


def test_buyer_payoff_first_block():
    assert _payoff_in_block("buy", 0.1, 1, 0.3) == pytest.approx(0.3)


def test_buyer_payoff_one_block_delay():
    assert _payoff_in_block("buy", 0.1, 2, 0.3) == pytest.approx(0.0)


def test_unmatched_payoffs_are_zero():
    # A zero fee is never included: no surplus, no fee, no delay.
    assert _payoff_in_block("buy", 0.0, 1, 0.3) == 0.0
    assert _payoff_in_block("sell", 0.0, 2, 0.3) == 0.0


def test_seller_payoff_mirrors_buyer():
    assert _payoff_in_block("sell", 0.05, 1, 0.3) == pytest.approx(0.35)
    assert _payoff_in_block("sell", 0.05, 3, 0.1) == pytest.approx(0.15)


def test_payoff_decomposition():
    # buyer payoff + seller payoff + pair fees == qty * (R - C) - both delay
    # terms: the welfare of a one-pair trace, whose winner collects both fees.
    rng = np.random.default_rng(11)
    for _ in range(100):
        r, c, b, q = rng.random(), rng.random(), 1 + rng.random(), 1 + rng.random()
        inst = build_instance([r], [c], 1, buy_quantities=[b], sell_quantities=[q], delay_cost=rng.random() * 0.2)
        profile = FeeProfile(buy_fees=(rng.random(),), sell_fees=(rng.random(),))
        block = int(rng.integers(1, 4))
        trace = MatchTrace((RoundRecord(block=block, winner_id=0, pairs=((0, 0),)),))
        expected = min(b, q) * (r - c) - 2 * (block - 1) * inst.delay_cost
        assert social_welfare(inst, trace, profile) == pytest.approx(expected, abs=1e-12)


def test_feasibility_examples():
    assert rank_feasible([0.9, 0.8], [0.1, 0.2])
    assert not rank_feasible([0.9], [0.95])
    assert rank_feasible([0.5, 0.9], [0.6, 0.1])


def test_feasibility_length_mismatch():
    with pytest.raises(ValueError, match="equally many"):
        rank_feasible([0.5, 0.9], [0.6])


def _brute_force_feasible(utils, costs):
    return any(
        all(r >= c for r, c in zip(utils, perm))
        for perm in itertools.permutations(costs)
    )


def test_feasibility_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 7))
        utils = rng.random(n).tolist()
        costs = rng.random(n).tolist()
        assert rank_feasible(utils, costs) == _brute_force_feasible(utils, costs)


def test_participant_validation():
    with pytest.raises(ValueError):
        Miner(0, 1.5)


def test_instance_power_and_horizon_validation():
    utilities, costs = [0.9, 0.8, 0.7], [0.1, 0.2]
    bad_miners = (Miner(0, 0.5), Miner(1, 0.4))
    with pytest.raises(ValueError, match="powers"):
        build_instance(utilities, costs, block_size=1, miners=bad_miners)
    good_miners = (Miner(0, 0.5), Miner(1, 0.5))
    inst = build_instance(utilities, costs, block_size=1, miners=good_miners)
    assert inst.horizon == 2  # ceil(min(3, 2) / 1)
    # Non-finite market terms would run to NaN welfare.
    for name, bad in (("delay_cost", math.inf), ("delay_cost", math.nan), ("delay_cost", -0.1),
                      ("fee_unit", math.inf), ("fee_unit", math.nan), ("fee_unit", 0.0)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build_instance(utilities, costs, block_size=1, **{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(inst, **{name: bad})


def test_fee_profile_quantization():
    profile = FeeProfile(buy_fees=(0.1234, 0.0), sell_fees=(0.077,))
    quant = profile.quantized(0.01)
    assert quant.buy_fees == pytest.approx((0.12, 0.0))
    assert quant.sell_fees == pytest.approx((0.08,))
    with pytest.raises(ValueError):
        FeeProfile(buy_fees=(-0.1,), sell_fees=())


def test_fee_profile_quantization_is_python_round_bit_for_bit():
    # np.round and round both take halves to even, and the fees are >= 0.
    rng = np.random.default_rng(41)
    for unit in (1e-6, 1e-3, 0.01, 2.0**-7):
        fees = np.concatenate((rng.random(100), (rng.integers(0, 2000, 60) + 0.5) * unit, [0.0]))
        rng.shuffle(fees)
        if unit == 2.0**-7:
            assert sum((f / unit) % 2 == 0.5 for f in fees) > 10 and sum((f / unit) % 2 == 1.5 for f in fees) > 10
        got = FeeProfile(fees[:90], fees[90:]).quantized(unit)
        want = np.array([round(f / unit) * unit for f in fees.tolist()])
        assert np.concatenate((got.buy_fees, got.sell_fees)).tobytes() == want.tobytes()


def test_fee_profile_sides_are_read_only_arrays():
    shared = np.array([0.3, 0.0])
    shared.flags.writeable = False
    writable = np.array([0.1, 0.2])
    profile = FeeProfile(buy_fees=shared, sell_fees=writable)
    for fees in (profile.buy_fees, profile.sell_fees):
        assert fees.dtype == np.float64 and not fees.flags.writeable
    # A read-only float array is shared; a writable one is copied, so the
    # caller's later writes do not reach the profile.
    assert profile.buy_fees is shared and profile.sell_fees is not writable
    writable[0] = 0.5
    assert profile.sell_fees[0] == 0.1
    assert FeeProfile((1, 2), [0]).buy_fees.dtype == np.float64
    with pytest.raises(ValueError):
        profile.buy_fees[0] = 1.0
    # Equality is elementwise, side by side.
    assert profile == FeeProfile((0.3, 0.0), (0.1, 0.2))
    assert profile != FeeProfile((0.3, 0.0), (0.1, 0.25))
    assert profile != FeeProfile((0.3,), (0.0, 0.1, 0.2))
    # with_*_fee copy the side they change.
    assert profile.with_buy_fee(1, 0.4) == FeeProfile((0.3, 0.4), (0.1, 0.2))
    assert profile.with_sell_fee(0, 0.0) == FeeProfile((0.3, 0.0), (0.0, 0.2))
    assert profile == FeeProfile((0.3, 0.0), (0.1, 0.2))


@pytest.mark.parametrize(
    "buy, sell, side",
    [((math.nan, 0.1), (0.2,), "buy_fees"), ((0.1,), (math.inf,), "sell_fees"),
     ((-math.inf,), (), "buy_fees"), ((0.1,), (0.2, -0.1), "sell_fees")],
)
def test_fee_profile_rejects_nonfinite_and_negative_fees(buy, sell, side):
    with pytest.raises(ValueError, match=side):
        FeeProfile(buy_fees=buy, sell_fees=sell)


def test_build_instance_roundtrip():
    inst = build_instance(
        utilities=[0.9, 0.4],
        costs=[0.1, 0.3, 0.5],
        block_size=2,
        buy_quantities=[2.0, 1.0],
        delay_cost=0.05,
    )
    assert inst.num_buyers == 2
    assert inst.num_sellers == 3
    assert inst.utility_array.tolist() == [0.9, 0.4]
    assert inst.sell_qty_array.tolist() == [1.0, 1.0, 1.0]
    resized = inst.with_block_size(1)
    assert resized.block_size == 1
    assert resized.horizon == 2


def test_value_arrays_are_shared_read_only_and_copied_out():
    inst = build_instance(utilities=[0.9, 0.4], costs=[0.1, 0.3], block_size=1)
    assert inst.utility_array is inst.utility_array  # built once
    with pytest.raises(ValueError):
        inst.cost_array[0] = 0.5
    assert inst == build_instance(utilities=[0.9, 0.4], costs=[0.1, 0.3], block_size=1)


def test_rank_and_quantity_arrays_are_built_once_per_population():
    inst = build_instance([0.4, 0.9, 0.4], [0.5, 0.1, 0.5], block_size=1, buy_quantities=[1.0, 2.0, 3.0])
    assert inst.buyer_rank.tolist() == [1, 0, 2]  # utility descending, ties by position
    assert inst.seller_rank.tolist() == [1, 0, 2]  # cost ascending, ties by position
    miners = miners_with_protocol_share(0.5)
    variant = inst.with_block_size(2, miners)
    assert variant == replace(inst, block_size=2, miners=miners)
    assert variant.horizon == 2 and inst.with_block_size(2).miners == inst.miners
    for name in ("utility_array", "cost_array", "buy_qty_array", "sell_qty_array", "buyer_rank", "seller_rank"):
        assert getattr(variant, name) is getattr(inst, name)
        with pytest.raises(ValueError):
            getattr(inst, name)[0] = 0
    assert inst.buy_qty_array.tolist() == [1.0, 2.0, 3.0]
    assert inst.sell_qty_array.tolist() == [1.0, 1.0, 1.0]


def test_variants_share_the_ranked_arrays():
    rng = np.random.default_rng(12)
    inst = build_instance(rng.random(7), rng.random(5), block_size=3, buy_quantities=1 + rng.integers(0, 3, 7))
    b, s = inst.buyer_rank, inst.seller_rank
    buyers = [inst.utility_array[b].tolist(), inst.buy_qty_array[b].tolist()]
    sellers = [inst.cost_array[s].tolist(), inst.sell_qty_array[s].tolist()]
    ranked = inst.ranked_sides
    assert [a.tolist() for a in ranked["buy"]] == buyers + sellers
    assert [a.tolist() for a in ranked["sell"]] == sellers + buyers
    for variant in (inst.with_block_size(1), inst.with_block_size(3, miners_with_protocol_share(0.5))):
        assert variant.ranked_sides is ranked
        assert variant.with_block_size(2).ranked_sides is ranked
    for array in ranked["buy"]:
        with pytest.raises(ValueError):
            array[0] = 0


def test_ranks_equal_lexsort_by_position():
    # With positions as ids, a stable argsort is the (value, id) lexsort.
    rng = np.random.default_rng(8)
    for _ in range(200):
        k, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        inst = build_instance(rng.integers(0, 5, k) / 4.0, rng.integers(0, 5, n) / 4.0, 1)
        assert inst.buyer_rank.tolist() == np.lexsort((np.arange(k), -inst.utility_array)).tolist()
        assert inst.seller_rank.tolist() == np.lexsort((np.arange(n), inst.cost_array)).tolist()


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"utilities": [0.9, math.nan]}, "buyer 1: utility nan outside [0, 1]"),
        ({"costs": [0.1, 1.2]}, "seller 1: cost 1.2 outside [0, 1]"),
        ({"buy_quantities": [1.0, 0.0]}, "buyer 1: quantity must be positive"),
        ({"sell_quantities": [math.nan, 1.0]}, "seller 0: quantity must be positive"),
        ({"buy_quantities": [1.0]}, "buyer values and quantities must be 1-D and of one length"),
    ],
)
def test_build_instance_names_the_first_bad_position(bad, message):
    args = {"utilities": [0.9, 0.4], "costs": [0.1, 0.3], "block_size": 1, **bad}
    with pytest.raises(ValueError, match=re.escape(message)):
        build_instance(**args)


@pytest.mark.parametrize(
    "pairs, block_size, message",
    [
        (((0, 0), (-2, -2)), 2, "out of range"),  # -2 would alias position 0
        (((0, 0), (2, 1)), 2, "out of range"),
        (((0, 1), (1, 2)), 2, "out of range"),
        (((0, 1), (0, 0)), 2, "matched more than once"),
        (((0, 0), (1, 0)), 2, "matched more than once"),
        (((1, 1),), 2, re.escape("infeasible match: R=0.3 < C=0.5")),
        (((0, 1), (1, 0)), 1, "pairs > block size"),
    ],
)
def test_match_trace_validate_rejects(pairs, block_size, message):
    inst = build_instance([0.9, 0.3], [0.1, 0.5], block_size=block_size)
    trace = MatchTrace((RoundRecord(block=1, winner_id=0, pairs=pairs),))
    with pytest.raises(ValueError, match=message):
        trace.validate(inst)


def test_match_trace_validate_accepts_feasible_traces():
    inst = build_instance([0.9, 0.3], [0.1, 0.5], block_size=1)
    MatchTrace(()).validate(inst)
    MatchTrace((RoundRecord(1, 0, ((0, 1),)), RoundRecord(2, 0, ((1, 0),)))).validate(inst)
