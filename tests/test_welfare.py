"""Welfare accounting, the exact optimum oracle, ratios, and witnesses."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbook.equilibrium as eq
from chainbook.equilibrium import crossing_index, equilibrium_profile
from chainbook.market import (
    Buyer,
    FeeProfile,
    MatchTrace,
    RoundRecord,
    Seller,
    build_instance,
    buyer_payoff,
    miner_round_payoff,
    miners_with_protocol_share,
    seller_payoff,
)
from chainbook.miners import run_horizon
from chainbook.welfare import (
    performance_ratio,
    social_optimum,
    social_welfare,
    unbounded_poa_witness,
)


def _trace(*rounds):
    return MatchTrace(
        rounds=tuple(
            RoundRecord(block=block, winner_id=0, pairs=tuple(pairs))
            for block, pairs in rounds
        )
    )


def test_social_welfare_single_block():
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=2, delay_cost=0.3)
    profile = FeeProfile(buy_fees=(0.05, 0.04), sell_fees=(0.03, 0.02))
    report = social_welfare(inst, _trace((1, [(0, 0), (1, 1)])), profile)
    assert report.sw == pytest.approx(1.4)
    assert report.matched_surplus == pytest.approx(1.4)
    assert report.delay_total == 0.0
    assert report.fee_total == pytest.approx(0.14)


def test_social_welfare_with_delayed_pair():
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=0.3)
    profile = FeeProfile(buy_fees=(0.05, 0.04), sell_fees=(0.03, 0.02))
    report = social_welfare(inst, _trace((1, [(0, 0)]), (2, [(1, 1)])), profile)
    assert report.sw == pytest.approx(1.4 - 2 * 0.3)  # both sides of the pair wait


def test_social_welfare_no_matches():
    inst = build_instance([0.9], [0.1], block_size=1)
    report = social_welfare(inst, _trace(), FeeProfile(buy_fees=(0.1,), sell_fees=(0.1,)))
    assert report.sw == 0.0


def test_fees_cancel_in_welfare():
    rng = np.random.default_rng(14)
    for _ in range(40):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        inst = build_instance(
            rng.random(k),
            rng.random(n),
            block_size=int(rng.integers(1, 4)),
            buy_quantities=1 + rng.random(k),
            sell_quantities=1 + rng.random(n),
            delay_cost=0.05,
        )
        profile = FeeProfile(buy_fees=tuple(rng.random(k)), sell_fees=tuple(rng.random(n)))
        trace = run_horizon(inst, profile, int(rng.integers(1 << 30)))
        report = social_welfare(inst, trace, profile)
        assert report.sw == pytest.approx(
            report.matched_surplus - report.delay_total, abs=1e-9
        )


def _loop_social_welfare(instance, trace, profile):
    """social_welfare pair by pair, through the payoff functions."""
    payoffs = []
    fee_total = surplus_total = delay_total = 0.0
    d = instance.delay_cost
    for rec in trace.rounds:
        round_fees = []
        for buyer_id, seller_id in rec.pairs:
            buyer, seller = instance.buyers[buyer_id], instance.sellers[seller_id]
            bfee, sfee = profile.buy_fees[buyer_id], profile.sell_fees[seller_id]
            payoffs.append(
                buyer_payoff(buyer, bfee, True, rec.block, seller, d)
                + seller_payoff(seller, sfee, True, rec.block, buyer, d)
            )
            round_fees.extend((bfee, sfee))
            surplus_total += min(buyer.quantity, seller.quantity) * (buyer.utility - seller.cost)
            delay_total += 2 * (rec.block - 1) * d
        payoffs.append(miner_round_payoff(round_fees, 1.0))
        fee_total += math.fsum(round_fees)
    return math.fsum(payoffs), surplus_total, delay_total, fee_total


def test_social_welfare_equals_pair_loop_exactly():
    rng = np.random.default_rng(15)
    rounds_seen = 0
    for _ in range(300):
        k, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        inst = build_instance(
            rng.random(k),
            rng.random(n),
            block_size=int(rng.integers(1, 4)),
            buy_quantities=1 + 2 * rng.random(k),
            sell_quantities=1 + 2 * rng.random(n),
            delay_cost=float(rng.random()) * 0.1,
        )
        profile = FeeProfile(buy_fees=tuple(rng.random(k)), sell_fees=tuple(rng.random(n)))
        trace = run_horizon(inst, profile, int(rng.integers(1 << 30)))
        report = social_welfare(inst, trace, profile)
        got = (report.sw, report.matched_surplus, report.delay_total, report.fee_total)
        assert got == _loop_social_welfare(inst, trace, profile)
        rounds_seen += len(trace.rounds) > 1
    assert rounds_seen > 20


def test_social_optimum_examples():
    assert social_optimum(build_instance([0.9, 0.3], [0.1, 0.5], 1)) == pytest.approx(0.8)
    assert social_optimum(build_instance([0.2], [0.5], 1)) == 0.0
    assert social_optimum(
        build_instance([0.9], [0.1], 1, buy_quantities=[2.0], sell_quantities=[3.0])
    ) == pytest.approx(1.6)


def _brute_force_optimum(inst):
    k, n = inst.num_buyers, inst.num_sellers
    best = 0.0
    big = max(k, n)
    buyers = list(range(k)) + [None] * (big - k)
    for perm in itertools.permutations(range(n) if n == big else list(range(n)) + [None] * (big - n)):
        total = 0.0
        for b, s in zip(buyers, perm):
            if b is None or s is None:
                continue
            buyer, seller = inst.buyers[b], inst.sellers[s]
            if buyer.utility >= seller.cost:
                gain = min(buyer.quantity, seller.quantity) * (buyer.utility - seller.cost)
                total += max(gain, 0.0)
        best = max(best, total)
    return best


def test_social_optimum_matches_permutation_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(120):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        inst = build_instance(
            rng.random(k),
            rng.random(n),
            block_size=1,
            buy_quantities=1 + 2 * rng.random(k),
            sell_quantities=1 + 2 * rng.random(n),
        )
        assert social_optimum(inst) == pytest.approx(_brute_force_optimum(inst), abs=1e-12)


def test_homogeneous_fast_path_matches_assignment():
    rng = np.random.default_rng(29)
    for _ in range(60):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        qty = float(1 + rng.random())
        inst = build_instance(
            rng.random(k),
            rng.random(n),
            block_size=1,
            buy_quantities=[qty] * k,
            sell_quantities=[qty] * n,
        )
        assert social_optimum(inst) == pytest.approx(_brute_force_optimum(inst), abs=1e-12)


def test_performance_ratio_optimal_block_is_exact():
    inst = build_instance([0.9, 0.8, 0.5], [0.1, 0.2, 0.7], block_size=1, delay_cost=0.1)
    report = performance_ratio(inst, mechanism_block_size=2, mc_replications=4, rng_seed=0)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)
    assert report.sw == pytest.approx(report.sw_opt, abs=1e-9)


def test_performance_ratio_oversized_block():
    # One star pair plus one barely-compatible cross pair: the fee-stacked
    # block burns most of the gain from trade.
    inst = build_instance([0.9, 0.3], [0.1, 0.5], block_size=2)
    report = performance_ratio(inst, mechanism_block_size=2, mc_replications=4, rng_seed=1)
    assert report.sw == pytest.approx(0.6, abs=1e-12)
    assert report.ratio == pytest.approx(0.8 / 0.6, abs=1e-9)


def test_performance_ratio_undersized_block():
    total = 1.4
    d = 0.5 * total * (1 - 1e-3)  # just below half the surplus
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=d, horizon=2)
    report = performance_ratio(inst, mechanism_block_size=1, mc_replications=4, rng_seed=2)
    assert report.ratio > 500.0


def test_performance_ratio_infinite_flag():
    total = 1.4
    inst = build_instance(
        [0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=0.5 * total * 1.2, horizon=2
    )
    report = performance_ratio(inst, mechanism_block_size=1, mc_replications=4, rng_seed=3)
    assert report.sw < 0.0
    assert math.isinf(report.ratio)


def test_performance_ratio_empty_market_is_neutral():
    inst = build_instance([0.2], [0.5], block_size=1)
    report = performance_ratio(inst, mechanism_block_size=1, mc_replications=2, rng_seed=4)
    assert report.sw == 0.0
    assert report.sw_opt == 0.0
    assert report.ratio == 1.0


@pytest.mark.parametrize("target", [10.0, 100.0])
def test_witness_instances_reach_target(target):
    high, low = unbounded_poa_witness(target)

    high_report = performance_ratio(high, high.block_size, mc_replications=4, rng_seed=5)
    closed_form_high = (high.buyers[0].utility - high.sellers[0].cost) / (
        high.buyers[0].utility
        + high.buyers[1].utility
        - high.sellers[0].cost
        - high.sellers[1].cost
    )
    assert high_report.ratio >= target - 1e-9
    assert high_report.ratio == pytest.approx(closed_form_high, rel=1e-6)

    low_report = performance_ratio(low, low.block_size, mc_replications=4, rng_seed=6)
    total = sum(b.utility for b in low.buyers) - sum(s.cost for s in low.sellers)
    closed_form_low = total / (total - 2 * low.delay_cost)
    assert low_report.ratio >= target - 1e-9
    assert low_report.ratio == pytest.approx(closed_form_low, rel=1e-6)


def test_witness_target_one_is_trivial():
    high, low = unbounded_poa_witness(1.0)
    for inst in (high, low):
        report = performance_ratio(inst, inst.block_size, mc_replications=4, rng_seed=7)
        assert report.ratio >= 1.0 - 1e-9
    with pytest.raises(ValueError):
        unbounded_poa_witness(0.5)


def test_ratio_at_least_one_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(25):
        k, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        inst = build_instance(
            rng.random(k), rng.random(n), block_size=1, delay_cost=0.0
        )
        a = int(rng.integers(1, 4))
        report = performance_ratio(inst, a, mc_replications=30, rng_seed=int(rng.integers(1 << 30)))
        if report.sw > 0:
            assert report.ratio >= 1.0 - 1e-9


def test_equilibrium_profile_dispatch():
    pure_inst = build_instance([0.9, 0.3], [0.1, 0.5], block_size=1)
    mixed_inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=0.1, horizon=2)
    assert equilibrium_profile(pure_inst, 0) is not None
    profile = equilibrium_profile(mixed_inst, 0)
    assert all(f > 0 for f in profile.buy_fees)


def test_large_play_builds_no_participant_objects(monkeypatch):
    made = []
    for cls in (Buyer, Seller):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: (made.append(self), check(self)))
    rng = np.random.default_rng(4)
    inst = build_instance(rng.random(200), rng.random(200), 1, buy_quantities=1.0 + rng.integers(0, 3, 200),
                          delay_cost=0.01)
    a = crossing_index(inst)
    for block_size in (a, a // 3):  # a pure and a mixed equilibrium
        variant = inst.with_block_size(block_size)
        profile = equilibrium_profile(variant, 5)
        trace = run_horizon(variant, profile, 6)
        assert social_welfare(variant, trace, profile).matched_surplus > 0.0
        assert social_optimum(variant) > 0.0
    assert made == []
    assert made == [*inst.buyers, *inst.sellers]  # the count sees them built on first read


_values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
_quantities = st.one_of(st.just(1.0), st.sampled_from([0.5, 2.0, 3.0]), st.floats(0.1, 4.0))


@settings(max_examples=300)
@given(
    st.lists(st.tuples(_values, _quantities), min_size=1, max_size=6),
    st.lists(st.tuples(_values, _quantities), min_size=1, max_size=6),
)
def test_social_optimum_equals_permutation_maximum(buyers, sellers):
    # Value ties, the ends of [0, 1] and equal quantities on both sides (the
    # assortative branch) come up far more often than with uniform draws.
    (r, b), (c, q) = zip(*buyers), zip(*sellers)
    inst = build_instance(r, c, 1, buy_quantities=b, sell_quantities=q)
    assert social_optimum(inst) == pytest.approx(_brute_force_optimum(inst), rel=0, abs=1e-12)


def test_equilibrium_is_found_once_per_instance(monkeypatch):
    found = []
    for name in ("psne", "msne"):
        real = getattr(eq, name)
        monkeypatch.setattr(eq, name, lambda inst, _real=real, _name=name: found.append(_name) or _real(inst))
    rng = np.random.default_rng(8)
    inst = build_instance(rng.random(12), rng.random(12), block_size=1, delay_cost=0.01)
    a_th = crossing_index(inst)
    for a, want in ((a_th, ["psne"]), (1, ["psne", "msne"])):
        found.clear()
        performance_ratio(inst, a, mc_replications=50)
        assert found == want
        variant = inst.with_block_size(a)
        variant.equilibrium
        variant.equilibrium
        assert found == want * 2
        # A variant keeps a found equilibrium only at the same block size:
        # the miners do not enter it, the block size does.
        variant.with_block_size(a, miners_with_protocol_share(0.5)).equilibrium
        assert found == want * 2
        variant.with_block_size(a + 1).with_block_size(a).equilibrium
        assert found == want * 3
