"""Market-core tests: surpluses, payoffs, feasibility, structural invariants."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from chainbook.market import (
    Buyer,
    FeeProfile,
    MatchTrace,
    Miner,
    RoundRecord,
    Seller,
    build_instance,
    buyer_payoff,
    feasible_matching_exists,
    miners_with_protocol_share,
    miner_round_payoff,
    pair_surplus,
    seller_payoff,
)


def test_pair_surplus_unit_quantities():
    buy, sell, qty = pair_surplus(Buyer(0, 0.9, 1.0), Seller(0, 0.1, 1.0))
    assert qty == 1.0
    assert buy == pytest.approx(0.4)
    assert sell == pytest.approx(0.4)


def test_pair_surplus_zero_at_equal_values():
    for value, b, q in [(0.3, 1.0, 2.0), (0.7, 5.0, 1.5)]:
        buy, sell, _ = pair_surplus(Buyer(0, value, b), Seller(0, value, q))
        assert buy == 0.0
        assert sell == 0.0


def test_pair_surplus_scales_with_min_quantity():
    buy, sell, qty = pair_surplus(Buyer(0, 0.9, 2.0), Seller(0, 0.1, 3.0))
    assert qty == 2.0
    assert buy == pytest.approx(0.8)
    assert sell == pytest.approx(0.8)


def test_mid_price_splits_gain_exactly():
    rng = np.random.default_rng(3)
    for _ in range(200):
        buyer = Buyer(0, rng.random(), 1.0 + 2.0 * rng.random())
        seller = Seller(0, rng.random(), 1.0 + 2.0 * rng.random())
        buy, sell, qty = pair_surplus(buyer, seller)
        assert buy + sell == pytest.approx(
            qty * (buyer.utility - seller.cost), abs=1e-15
        )


def test_buyer_payoff_first_block():
    buyer = Buyer(0, 0.9, 1.0)
    seller = Seller(0, 0.1, 1.0)
    assert buyer_payoff(buyer, 0.1, True, 1, seller, 0.3) == pytest.approx(0.3)


def test_buyer_payoff_one_block_delay():
    buyer = Buyer(0, 0.9, 1.0)
    seller = Seller(0, 0.1, 1.0)
    assert buyer_payoff(buyer, 0.1, True, 2, seller, 0.3) == pytest.approx(0.0)


def test_unmatched_payoffs_are_zero():
    assert buyer_payoff(Buyer(0, 0.9), 0.5, False) == 0.0
    assert seller_payoff(Seller(0, 0.1), 0.5, False) == 0.0


def test_seller_payoff_mirrors_buyer():
    buyer = Buyer(0, 0.9, 1.0)
    seller = Seller(0, 0.1, 1.0)
    assert seller_payoff(seller, 0.05, True, 1, buyer, 0.3) == pytest.approx(0.35)
    assert seller_payoff(seller, 0.05, True, 3, buyer, 0.1) == pytest.approx(0.15)


def test_payoff_decomposition():
    # buyer payoff + seller payoff + pair fees == qty * (R - C) - both delay terms
    rng = np.random.default_rng(11)
    for _ in range(100):
        buyer = Buyer(0, rng.random(), 1 + rng.random())
        seller = Seller(0, rng.random(), 1 + rng.random())
        bfee, sfee = rng.random(), rng.random()
        block = int(rng.integers(1, 4))
        d = rng.random() * 0.2
        total = (
            buyer_payoff(buyer, bfee, True, block, seller, d)
            + seller_payoff(seller, sfee, True, block, buyer, d)
            + bfee
            + sfee
        )
        qty = min(buyer.quantity, seller.quantity)
        expected = qty * (buyer.utility - seller.cost) - 2 * (block - 1) * d
        assert total == pytest.approx(expected, abs=1e-12)


def test_miner_round_payoff():
    assert miner_round_payoff([5, 3, 4, 1], 0.2) == pytest.approx(2.6)
    assert miner_round_payoff([], 0.7) == 0.0
    assert miner_round_payoff([1e-6], 1.0) == pytest.approx(1e-6)


def test_feasibility_examples():
    assert feasible_matching_exists([0.9, 0.8], [0.1, 0.2])
    assert not feasible_matching_exists([0.9], [0.95])
    assert feasible_matching_exists([0.5, 0.9], [0.6, 0.1])


def test_feasibility_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        feasible_matching_exists([0.5, 0.9], [0.6])


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
        assert feasible_matching_exists(utils, costs) == _brute_force_feasible(utils, costs)


def test_participant_validation():
    with pytest.raises(ValueError):
        Buyer(0, 1.2, 1.0)
    with pytest.raises(ValueError):
        Seller(0, -0.1, 1.0)
    with pytest.raises(ValueError):
        Buyer(0, 0.5, 0.0)
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
    with pytest.raises(ValueError, match="horizon"):
        build_instance(utilities, costs, block_size=1, miners=good_miners, horizon=1)


def test_fee_profile_quantization():
    profile = FeeProfile(buy_fees=(0.1234, 0.0), sell_fees=(0.077,))
    quant = profile.quantized(0.01)
    assert quant.buy_fees == pytest.approx((0.12, 0.0))
    assert quant.sell_fees == pytest.approx((0.08,))
    with pytest.raises(ValueError):
        FeeProfile(buy_fees=(-0.1,), sell_fees=())


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
    assert inst.utilities().tolist() == [0.9, 0.4]
    assert inst.sell_quantities().tolist() == [1.0, 1.0, 1.0]
    resized = inst.with_block_size(1)
    assert resized.block_size == 1
    assert resized.horizon == 2


def test_value_arrays_are_shared_read_only_and_copied_out():
    inst = build_instance(utilities=[0.9, 0.4], costs=[0.1, 0.3], block_size=1)
    assert inst.utility_array is inst.utility_array  # built once
    with pytest.raises(ValueError):
        inst.cost_array[0] = 0.5
    out = inst.utilities()
    out[0] = 0.0
    assert inst.utilities().tolist() == [0.9, 0.4]
    assert inst == build_instance(utilities=[0.9, 0.4], costs=[0.1, 0.3], block_size=1)


def test_rank_and_quantity_arrays_are_built_once_per_population():
    inst = build_instance([0.4, 0.9, 0.4], [0.5, 0.1, 0.5], block_size=1, buy_quantities=[1.0, 2.0, 3.0])
    assert inst.buyer_rank.tolist() == [1, 0, 2]  # utility descending, ties by position
    assert inst.seller_rank.tolist() == [1, 0, 2]  # cost ascending, ties by position
    miners = miners_with_protocol_share(0.5)
    variant = inst.with_block_size(2, miners)
    assert variant == replace(inst, block_size=2, miners=miners, horizon=None)
    assert variant.horizon == 2 and inst.with_block_size(2).miners == inst.miners
    for name in ("utility_array", "cost_array", "buy_qty_array", "sell_qty_array", "buyer_rank", "seller_rank"):
        assert getattr(variant, name) is getattr(inst, name)
        with pytest.raises(ValueError):
            getattr(inst, name)[0] = 0
    out = inst.buy_quantities()
    out[0] = 9.0
    assert inst.buy_quantities().tolist() == [1.0, 2.0, 3.0]
    assert inst.sell_quantities().tolist() == [1.0, 1.0, 1.0]


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


def test_participants_are_built_from_the_arrays_on_read():
    inst = build_instance([0.9, 0.4], [0.1, 0.3, 0.5], 1, buy_quantities=[2.0, 1.0])
    for i, (r, b) in enumerate(zip(inst.utility_array, inst.buy_qty_array)):
        assert inst.buyers[i] == Buyer(i, r, b)
    assert inst.buyers[-1] == Buyer(1, 0.4, 1.0)
    assert inst.buyers[:] == (Buyer(0, 0.9, 2.0), Buyer(1, 0.4, 1.0))
    assert list(inst.sellers) == [Seller(0, 0.1), Seller(1, 0.3), Seller(2, 0.5)]
    assert len(inst.buyers) == 2 and len(inst.sellers) == 3
    with pytest.raises(IndexError):
        inst.sellers[3]
    with pytest.raises(TypeError):
        inst.buyers[0] = Buyer(0, 0.1)


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
