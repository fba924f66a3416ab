"""Welfare accounting, the exact optimum oracle, ratios, and witnesses."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbook.equilibrium as eq
from chainbook.equilibrium import crossing_index, equilibrium_profile
from chainbook.market import FeeProfile, MatchTrace, RoundRecord, build_instance, miners_with_protocol_share
from chainbook.miners import PendingPool, recommend_matching, run_horizon
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
    assert social_welfare(inst, _trace((1, [(0, 0), (1, 1)])), profile) == pytest.approx(1.4)


def test_social_welfare_with_delayed_pair():
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=0.3)
    profile = FeeProfile(buy_fees=(0.05, 0.04), sell_fees=(0.03, 0.02))
    sw = social_welfare(inst, _trace((1, [(0, 0)]), (2, [(1, 1)])), profile)
    assert sw == pytest.approx(1.4 - 2 * 0.3)  # both sides of the pair wait


def test_social_welfare_no_matches():
    inst = build_instance([0.9], [0.1], block_size=1)
    assert social_welfare(inst, _trace(), FeeProfile(buy_fees=(0.1,), sell_fees=(0.1,))) == 0.0


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
        r, c = inst.utility_array.tolist(), inst.cost_array.tolist()
        b, q = inst.buy_qty_array.tolist(), inst.sell_qty_array.tolist()
        surplus_minus_delay = sum(
            min(b[i], q[j]) * (r[i] - c[j]) - 2 * (rec.block - 1) * inst.delay_cost
            for rec in trace.rounds for i, j in rec.pairs
        )
        assert social_welfare(inst, trace, profile) == pytest.approx(surplus_minus_delay, abs=1e-9)


def _loop_social_welfare(instance, trace, profile):
    """social_welfare pair by pair: each side's payoff qty * (R - mid) - fee -
    (block - 1) * d, plus each round's winner collecting that block's fees."""
    r, c = instance.utility_array.tolist(), instance.cost_array.tolist()
    b, q = instance.buy_qty_array.tolist(), instance.sell_qty_array.tolist()
    d = instance.delay_cost
    payoffs = []
    for rec in trace.rounds:
        round_fees = []
        for i, j in rec.pairs:
            qty, mid = min(b[i], q[j]), (r[i] + c[j]) / 2.0
            bfee, sfee = profile.buy_fees[i], profile.sell_fees[j]
            payoffs.append(
                (qty * (r[i] - mid) - bfee - (rec.block - 1) * d)
                + (qty * (mid - c[j]) - sfee - (rec.block - 1) * d)
            )
            round_fees.extend((bfee, sfee))
        payoffs.append(math.fsum(round_fees))
    return math.fsum(payoffs)


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
        assert social_welfare(inst, trace, profile) == _loop_social_welfare(inst, trace, profile)
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
    r, c = inst.utility_array.tolist(), inst.cost_array.tolist()
    bq, sq = inst.buy_qty_array.tolist(), inst.sell_qty_array.tolist()
    best = 0.0
    big = max(k, n)
    buyers = list(range(k)) + [None] * (big - k)
    for perm in itertools.permutations(range(n) if n == big else list(range(n)) + [None] * (big - n)):
        total = 0.0
        for b, s in zip(buyers, perm):
            if b is None or s is None:
                continue
            if r[b] >= c[s]:
                gain = min(bq[b], sq[s]) * (r[b] - c[s])
                total += max(gain, 0.0)
        best = max(best, total)
    return best


def test_social_optimum_matches_permutation_brute_force():
    rng = np.random.default_rng(23)
    # Constant but unequal sides (B = 1, Q = 2 and the reverse) take the sorting path: min(b, q) is one number.
    for quantities in (lambda k, n: (1 + 2 * rng.random(k), 1 + 2 * rng.random(n)),
                       lambda k, n: ([1.0] * k, [2.0] * n),
                       lambda k, n: ([2.0] * k, [1.0] * n)):
        for _ in range(120):
            k, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            r, c = rng.random(k), rng.random(n)
            buy_qty, sell_qty = quantities(k, n)
            inst = build_instance(r, c, block_size=1, buy_quantities=buy_qty, sell_quantities=sell_qty)
            assert social_optimum(inst) == pytest.approx(_brute_force_optimum(inst), abs=1e-12)


@pytest.mark.parametrize("homogeneous", [True, False])
def test_uncapped_recommendation_reaches_the_optimum(homogeneous):
    # One matching serves both: with every fee positive and A >= min(K, N),
    # the recommended block holds the optimum's whole gain.
    rng = np.random.default_rng(31)
    for _ in range(80):
        k, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        buy_qty = np.ones(k) if homogeneous else 1 + 2 * rng.random(k)
        sell_qty = np.ones(n) if homogeneous else 1 + 2 * rng.random(n)
        inst = build_instance(rng.random(k), rng.random(n), block_size=min(k, n) + int(rng.integers(0, 3)),
                              buy_quantities=buy_qty, sell_quantities=sell_qty)
        fees = FeeProfile(buy_fees=tuple(0.01 + rng.random(k)), sell_fees=tuple(0.01 + rng.random(n)))
        sel = recommend_matching(PendingPool.from_instance(inst, fees), inst)
        gain = sum(min(buy_qty[i], sell_qty[j]) * (inst.utility_array[i] - inst.cost_array[j]) for i, j in sel.pairing)
        assert gain == pytest.approx(social_optimum(inst), rel=0, abs=1e-12)


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
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=d)
    report = performance_ratio(inst, mechanism_block_size=1, mc_replications=4, rng_seed=2)
    assert report.ratio > 500.0


def test_performance_ratio_infinite_flag():
    total = 1.4
    inst = build_instance(
        [0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=0.5 * total * 1.2
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
    (r1, r2), (c1, c2) = high.utility_array.tolist(), high.cost_array.tolist()
    closed_form_high = (r1 - c1) / (r1 + r2 - c1 - c2)
    assert high_report.ratio >= target - 1e-9
    assert high_report.ratio == pytest.approx(closed_form_high, rel=1e-6)

    low_report = performance_ratio(low, low.block_size, mc_replications=4, rng_seed=6)
    total = sum(low.utility_array.tolist()) - sum(low.cost_array.tolist())
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
    mixed_inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=0.1)
    assert equilibrium_profile(pure_inst, 0) is not None
    profile = equilibrium_profile(mixed_inst, 0)
    assert all(f > 0 for f in profile.buy_fees)


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
