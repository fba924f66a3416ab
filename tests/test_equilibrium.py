"""Equilibrium tests: crossing index, thresholds, pure/mixed profiles, verification."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from chainbook.equilibrium import (
    MixedStrategy,
    ThresholdFees,
    _closed_form_payoffs,
    _expected_blocks,
    _simulated_payoffs,
    crossing_index,
    equilibrium_profile,
    expected_total_cost,
    msne,
    psne,
    realize_profile,
    threshold_fees,
    verify_equilibrium,
)
from chainbook.market import FeeProfile, build_instance, miners_with_protocol_share, pair_surplus
from chainbook.mechanism import optimal_block_size_complete
from chainbook.miners import run_horizon
from chainbook.welfare import social_welfare


def test_crossing_index_examples():
    assert crossing_index(build_instance([0.9, 0.3], [0.1, 0.5], 1)) == 1
    assert crossing_index(build_instance([0.8, 0.6], [0.2, 0.4], 1)) == 2
    assert crossing_index(build_instance([0.2], [0.5], 1)) == 0  # no profitable pair


def _last_covered_rank(utilities, costs) -> int:
    """The definition: the last rank i with R_(i) >= C_(i), else 0."""
    r, c = sorted(utilities, reverse=True), sorted(costs)
    return max((i + 1 for i in range(min(len(r), len(c))) if r[i] >= c[i]), default=0)


def test_crossing_index_matches_rank_loop():
    # On coarse grids, so that values tie within and across sides.
    rng = np.random.default_rng(44)
    for _ in range(500):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        inst = build_instance(rng.integers(0, 6, k) / 5.0, rng.integers(0, 6, n) / 5.0, 1)
        assert crossing_index(inst) == _last_covered_rank(inst.utilities(), inst.costs())


_tied_values = st.one_of(st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300)
@given(st.lists(_tied_values, min_size=1, max_size=12), st.lists(_tied_values, min_size=1, max_size=12))
def test_crossing_index_matches_definition(utilities, costs):
    # Value ties, K != N and dead markets (no rank pair profitable) included.
    inst = build_instance(utilities, costs, 1)
    assert crossing_index(inst) == _last_covered_rank(utilities, costs)


def test_dead_market_has_pure_equilibria():
    # No buyer covers any seller: the crossing is 0, both cuts and thresholds
    # are 0, and every block size has a pure equilibrium of one fee unit on
    # the top ranks, which trades nothing.
    inst = build_instance([0.1, 0.2, 0.3], [0.5, 0.6, 0.7], 1, delay_cost=0.01, fee_unit=1e-6)
    assert crossing_index(inst) == 0
    assert optimal_block_size_complete(inst) == 1
    assert threshold_fees(inst) == ThresholdFees(0.0, 0.0, 0, 0)
    for a in (1, 2, 3, 5):
        variant = inst.with_block_size(a)
        profile = psne(variant)
        assert profile is not None and variant.equilibrium == profile
        assert sorted(profile.buy_fees) == [0.0] * (3 - min(a, 3)) + [1e-6] * min(a, 3)
        with pytest.raises(ValueError, match="pure"):
            msne(variant)
        assert social_welfare(variant, run_horizon(variant, profile, 0), profile).sw == 0.0


def test_crossing_index_sorts_internally():
    assert crossing_index(build_instance([0.3, 0.9], [0.5, 0.1], 1)) == 1
    assert crossing_index(build_instance([0.6, 0.8], [0.4, 0.2], 1)) == 2


def test_threshold_fee_worked_example():
    # Marginal buyer (utility 0.5) averages (0.4 + 0.3) / 4 against the two
    # included sellers, minus the three-block delay penalty at d = 0.01.
    inst = build_instance([0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.01)
    fees = threshold_fees(inst)
    assert fees.sigma_buy == pytest.approx(0.145)
    assert fees.sigma_sell == 0.0  # no seller is excluded (cut covers all of them)
    assert fees.cut_buy == 2
    assert fees.cut_sell == 2


def test_threshold_fee_zero_when_nobody_excluded():
    inst = build_instance([0.8, 0.6], [0.2, 0.4], block_size=2, delay_cost=0.01)
    fees = threshold_fees(inst)
    assert fees.sigma_buy == 0.0
    assert fees.sigma_sell == 0.0


def test_threshold_fee_zero_when_marginal_incompatible():
    # Excluded buyer (utility 0.05) is below even the cheapest seller cost.
    inst = build_instance([0.9, 0.8, 0.05], [0.1, 0.2], block_size=2, delay_cost=0.01)
    assert threshold_fees(inst).sigma_buy == 0.0


def test_threshold_fee_clamps_at_zero():
    # Big delay swamps the marginal surplus; the max{., 0} clamp fires.
    inst = build_instance([0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.2)
    assert threshold_fees(inst).sigma_buy == 0.0


def test_psne_none_below_crossing():
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=1)
    assert crossing_index(inst) == 2
    assert psne(inst) is None


def test_psne_all_fee_unit_when_thresholds_vanish():
    inst = build_instance([0.8, 0.6], [0.2, 0.4], block_size=2, fee_unit=1e-6)
    profile = psne(inst)
    assert profile.buy_fees == pytest.approx((1e-6, 1e-6))
    assert profile.sell_fees == pytest.approx((1e-6, 1e-6))


def test_psne_threshold_plus_unit_for_top_ranks():
    eps = 1e-6
    inst = build_instance(
        [0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.01, fee_unit=eps
    )
    profile = psne(inst)
    assert profile.buy_fees == pytest.approx((0.145 + eps, 0.145 + eps, 0.145))
    assert profile.sell_fees == pytest.approx((eps, eps))


def test_psne_exists_exactly_at_or_above_crossing():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        inst = build_instance(
            rng.random(k), rng.random(n), block_size=int(rng.integers(1, 10))
        )
        exists = psne(inst) is not None
        assert exists == (inst.block_size >= crossing_index(inst))


def _direct_cost(p, fee, contenders, block_size, delay_cost):
    """Binomial-sum reference for the expected fee-plus-delay cost."""
    total = 0.0
    for n in range(contenders):
        weight = binom.pmf(n, contenders - 1, p)
        total += weight * (fee + math.ceil((n + 1) / block_size) * delay_cost)
    return total


def test_expected_cost_closed_forms():
    assert expected_total_cost(1.0, 0.3, 5, 2, 0.1) == pytest.approx(0.3 + 3 * 0.1)
    assert expected_total_cost(0.0, 0.3, 5, 2, 0.1) == pytest.approx(0.3 + 0.1)
    assert expected_total_cost(0.5, 0.0, 2, 1, 1.0) == pytest.approx(1.5)


def test_expected_cost_matches_binomial_sum():
    rng = np.random.default_rng(8)
    for _ in range(60):
        contenders = int(rng.integers(1, 40))
        block_size = int(rng.integers(1, 6))
        p = float(rng.random())
        fee = float(rng.random())
        d = float(rng.random())
        assert expected_total_cost(p, fee, contenders, block_size, d) == pytest.approx(
            _direct_cost(p, fee, contenders, block_size, d), abs=1e-10
        )


def _binom_sf_blocks(p, rivals, block_size):
    """1 + sum over k = A, 2A, ... <= rivals of P(n >= k), by scipy.stats.binom.sf."""
    k = np.arange(block_size, rivals + 1, block_size)[:, None]
    return 1.0 + binom.sf(k - 1, rivals, np.asarray(p, dtype=float)[None, :]).sum(axis=0)


def test_expected_blocks_matches_binom_sf_sum():
    # The numpy tail against scipy's survival functions: every block size up
    # to rivals + 1 on small markets, random ones up to 1000 rivals, and the
    # ends of the probability range.
    rng = np.random.default_rng(19)
    ends = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5]
    cases = [(m, a) for m in range(31) for a in range(1, m + 2)]
    cases += [(1000, 1), (1000, 7), (1000, 150), (1000, 151), (1000, 500), (1000, 1000), (1000, 1001)]
    for _ in range(400):
        m = int(rng.integers(31, 1001))
        cases.append((m, int(np.exp(rng.uniform(0.0, np.log(m + 1.0))))))
    for rivals, block_size in cases:
        p = np.concatenate((ends, rng.random(12), rng.random(3) ** 12, 1.0 - rng.random(3) ** 12))
        got = _expected_blocks(p, rivals, block_size)
        want = _binom_sf_blocks(p, rivals, block_size)
        assert got.shape == p.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got[0] == 1.0 and got[1] == 1 + rivals // block_size  # p = 0 and p = 1 exactly
        for q in (p[2], p[3], p[7]):  # scalar input, the same value as in an array
            assert np.ndim(_expected_blocks(q, rivals, block_size)) == 0
            assert float(_expected_blocks(q, rivals, block_size)) == got[p.tolist().index(q)]
    grid = rng.random((3, 4))  # any input shape is kept
    assert np.array_equal(_expected_blocks(grid, 200, 9), _expected_blocks(grid.ravel(), 200, 9).reshape(3, 4))


def test_expected_cost_monotone():
    ps = np.linspace(0, 1, 21)
    costs = expected_total_cost(ps, 0.2, 12, 3, 0.05)
    assert np.all(np.diff(costs) >= -1e-14)  # increasing in the outbid probability
    assert expected_total_cost(0.4, 0.3, 12, 3, 0.05) > expected_total_cost(
        0.4, 0.2, 12, 3, 0.05
    )


def _two_contender_instance():
    # Crossing at 2 with one pair per block: both sides mix over [0.1, 1.1].
    return build_instance(
        [0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=1.0, fee_unit=0.1, horizon=2
    )


def test_msne_support_and_linear_cdf():
    buy, sell = msne(_two_contender_instance())
    for strat in (buy, sell):
        assert strat.lower == pytest.approx(0.1)
        assert strat.upper == pytest.approx(1.1)
        assert strat.contenders == 2
        assert strat.cdf(strat.lower) == 0.0
        assert strat.cdf(strat.upper) == 1.0
        # With one rival and unit block the cost is f + 1 + (1 - F), so
        # indifference linearizes to F(f) = f - 0.1.
        assert strat.cdf(0.6) == pytest.approx(0.5, abs=1e-9)
        assert strat.cdf(0.35) == pytest.approx(0.25, abs=1e-9)


def test_mixers_are_positions():
    # Fees are indexed by position, and a participant's id is its position.
    inst = build_instance([0.9, 0.8, 0.3, 0.2], [0.1, 0.2, 0.6, 0.7], 1, delay_cost=0.05)
    assert [b.id for b in inst.buyers] == [0, 1, 2, 3] == [s.id for s in inst.sellers]
    buy, sell = msne(inst)  # crossing 2, so the top two ranks mix
    assert buy.mixer_ids == (0, 1) and sell.mixer_ids == (0, 1)
    want = realize_profile(inst, msne(inst), 5)
    assert realize_profile(inst, msne(inst), 5) == want
    assert want.buy_fees[2:] == (buy.non_mixer_fee,) * 2
    assert want.sell_fees[2:] == (sell.non_mixer_fee,) * 2


def test_msne_requires_small_block():
    inst = build_instance([0.9, 0.8], [0.1, 0.2], block_size=2)
    with pytest.raises(ValueError, match="pure"):
        msne(inst)


def test_msne_mixers_and_pure_fees():
    # Crossing 3 with block 2: cut = ceil(3/2)*2 = 4 covers every participant.
    inst = build_instance(
        [0.9, 0.8, 0.7, 0.2], [0.1, 0.2, 0.3, 0.8], block_size=2, delay_cost=0.05
    )
    buy, sell = msne(inst)
    assert set(buy.mixer_ids) == {0, 1, 2, 3}
    assert set(sell.mixer_ids) == {0, 1, 2, 3}
    assert buy.contenders == 4
    assert buy.upper == pytest.approx(buy.lower + 0.05)  # ceil(4/2) - 1 = 1 block


def test_quantiles_invert_cdf():
    buy, _ = msne(_two_contender_instance())
    assert buy.quantiles(0.5) == pytest.approx(0.6, abs=1e-9)
    assert buy.quantiles(1e-9) == pytest.approx(buy.lower, abs=1e-6)
    assert buy.quantiles(1.0 - 1e-9) == pytest.approx(buy.upper, abs=1e-6)
    # The support ends are the quantiles at 0 and 1.
    assert buy.quantiles([0.0, 1.0]) == pytest.approx([buy.lower, buy.upper], abs=1e-12)


def test_cdf_inverts_quantiles():
    buy, _ = msne(_two_contender_instance())
    us = np.linspace(0.01, 0.99, 17)
    assert np.allclose(buy.cdf(buy.quantiles(us)), us, atol=1e-9)


def _random_strategy(rng):
    contenders = int(rng.integers(2, 30))
    block_size = int(rng.integers(1, max(2, contenders)))
    d = 0.01 + rng.random() * 0.3
    sigma = rng.random() * 0.2
    eps = 1e-6
    lower = sigma + eps
    return MixedStrategy(
        role="buy",
        lower=lower,
        upper=lower + (math.ceil(contenders / block_size) - 1) * d,
        contenders=contenders,
        block_size=block_size,
        delay_cost=d,
        mixer_ids=(),
        non_mixer_fee=sigma,
        target_cost=lower + math.ceil(contenders / block_size) * d,
    )


def test_cdf_satisfies_indifference_equation():
    rng = np.random.default_rng(31)
    for _ in range(100):
        strat = _random_strategy(rng)
        if strat.upper <= strat.lower:  # degenerate: one block, no mixing spread
            continue
        fees = np.linspace(strat.lower, strat.upper, 22)[1:-1]
        costs = expected_total_cost(
            1.0 - strat.cdf(fees), fees, strat.contenders, strat.block_size, strat.delay_cost
        )
        assert costs == pytest.approx(np.full(len(fees), strat.target_cost), abs=1e-8)


def test_sampling_matches_cdf_distribution():
    buy, _ = msne(_two_contender_instance())
    rng = np.random.default_rng(17)
    n = 100_000
    draws = np.sort(buy.sample(rng, n))
    theoretical = buy.cdf(draws)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks_distance = max(
        np.max(np.abs(empirical_hi - theoretical)),
        np.max(np.abs(theoretical - empirical_lo)),
    )
    assert ks_distance < 0.01


def test_cdf_round_trips_and_clips_to_support():
    buy, _ = msne(_two_contender_instance())
    fees = np.linspace(buy.lower - 0.1, buy.upper + 0.1, 23)
    probs = buy.cdf(fees)
    inside = (fees > buy.lower) & (fees < buy.upper)
    assert np.all(probs[fees <= buy.lower] == 0.0) and np.all(probs[fees >= buy.upper] == 1.0)
    assert np.allclose(buy.quantiles(probs[inside]), fees[inside], atol=1e-9)


def test_support_spread_formula():
    rng = np.random.default_rng(99)
    for _ in range(50):
        strat = _random_strategy(rng)
        expected = (math.ceil(strat.contenders / strat.block_size) - 1) * strat.delay_cost
        assert strat.upper - strat.lower == pytest.approx(expected)
        if strat.block_size >= strat.contenders:
            assert strat.upper == strat.lower


def test_verify_psne_accepts_equilibrium():
    # Zero delay puts the engine exactly on the threshold formulas: the excluded
    # buyer's willingness to enter is then priced at its full matching surplus,
    # so that deviation breaks even.  Every pair is compatible and the block
    # covers both sellers, so the payoffs are exact and no deviation gains
    # more than the fee unit a top-ranked participant can shave off.
    inst = build_instance(
        [0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.0, fee_unit=1e-6
    )
    profile = psne(inst)
    assert profile.buy_fees[2] == pytest.approx(0.175)  # sigma = marginal surplus
    report = verify_equilibrium(
        inst, profile, grid_resolution=101, rng_seed=4, psne_replications=2000
    )
    assert report.replications == 0
    assert report.max_improvement <= inst.fee_unit + 1e-9


def test_verify_psne_flags_perturbed_profile():
    inst = build_instance(
        [0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.0, fee_unit=1e-6
    )
    profile = psne(inst)
    broken = profile.with_buy_fee(0, profile.buy_fees[0] / 2)  # drops below the threshold
    report = verify_equilibrium(
        inst, broken, grid_resolution=101, rng_seed=4, psne_replications=300
    )
    assert report.max_improvement > 10 * inst.fee_unit


def test_verify_psne_chooses_the_evaluator_by_market():
    # Exact payoffs need zero delay, every pair compatible, a block that covers
    # the short side and only selfish miners; failing any one, the report is
    # simulated with the requested replication count.
    admissible = build_instance([0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.0, fee_unit=1e-6)
    assert verify_equilibrium(admissible, psne(admissible), grid_resolution=5).replications == 0
    simulated = {
        "positive delay": build_instance(
            [0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.01, fee_unit=1e-6
        ),
        "one incompatible pair": build_instance(
            [0.9, 0.8, 0.15], [0.1, 0.2], block_size=2, delay_cost=0.0, fee_unit=1e-6
        ),
        "block below the short side": admissible.with_block_size(1),
        "a protocol-following miner": admissible.with_block_size(2, miners_with_protocol_share(0.5)),
    }
    for name, inst in simulated.items():
        report = verify_equilibrium(inst, equilibrium_profile(inst, 0), grid_resolution=5, psne_replications=3)
        assert report.replications == 3, name


def test_simulated_payoffs_agree_with_closed_form():
    # Inside the closed-form domain the Monte Carlo evaluator estimates the
    # same payoffs.  Fee ties and a zero fee exercise the tie lottery and the
    # slot count, unequal quantities the partner average.  A replication's
    # payoff is 0 or one of the participant's half-surpluses minus the fee, so
    # half the range of those values bounds its standard deviation; every gap
    # stays within 4 such standard errors.
    replications = 100
    markets = [
        (build_instance([0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.0, fee_unit=1e-6), None),
        (
            build_instance([0.95, 0.7], [0.05, 0.3, 0.4], block_size=2, delay_cost=0.0, fee_unit=1e-6,
                           buy_quantities=[1.0, 2.5], sell_quantities=[2.0, 1.0, 3.0]),
            FeeProfile(buy_fees=(0.03, 0.0), sell_fees=(0.01, 0.01, 0.01)),
        ),
    ]
    for inst, profile in markets:
        profile = profile or psne(inst)
        simulated = _simulated_payoffs(inst, profile, replications, rng_seed=3)
        exact = _closed_form_payoffs(inst, profile)
        for side, fees in (("buy", profile.buy_fees), ("sell", profile.sell_fees)):
            fees = np.asarray(fees)
            for pid in range(len(fees)):
                if side == "buy":
                    halves = [pair_surplus(inst.buyers[pid], s)[0] for s in inst.sellers]
                else:
                    halves = [pair_surplus(b, inst.sellers[pid])[1] for b in inst.buyers]
                others = np.delete(fees, pid)
                sim, ex = simulated(side, pid, others, 1.0), exact(side, pid, others, 1.0)
                levels = sorted({0.0, *others})
                probes = [*levels, *(0.5 * (lo + hi) for lo, hi in zip(levels, levels[1:])), levels[-1] + 0.01]
                for fee in probes:
                    outcomes = [0.0, *(h - fee for h in halves)]
                    stderr = (max(outcomes) - min(outcomes)) / 2 / math.sqrt(replications)
                    assert abs(sim(fee) - ex(fee)) <= 4 * stderr + 1e-12, (side, pid, fee)


def test_verify_psne_reports_displacement_gain_when_delay_positive():
    # With d > 0 the threshold subtracts a block-scaled delay penalty, but an
    # excluded buyer who outbids the top group lands in the first block and
    # never pays it; the verifier must surface that gain honestly.
    inst = build_instance(
        [0.9, 0.8, 0.5], [0.1, 0.2], block_size=2, delay_cost=0.02, fee_unit=1e-6
    )
    profile = psne(inst)
    report = verify_equilibrium(
        inst, profile, grid_resolution=101, rng_seed=4, psne_replications=300
    )
    # Entrant pays sigma + 2 eps = 0.115ish for an expected surplus of 0.175.
    assert report.buyer_improvements[2] == pytest.approx(0.06, abs=5e-3)


def test_verify_msne_costs_are_flat():
    inst = _two_contender_instance()
    strategies = msne(inst)
    buy_report, sell_report = verify_equilibrium(
        inst, strategies, grid_resolution=5, mc_samples=100_000, rng_seed=11
    )
    for report in (buy_report, sell_report):
        assert report.cdf_at_lower == 0.0
        assert report.cdf_at_upper == 1.0
        assert report.relative_spread < 0.01
        # The oversized d = 1 of this toy makes participation itself
        # unattractive, which the report surfaces as a positive drop-out gain.
        assert report.drop_out_gain > 0.0


def test_verify_msne_participation_rational_at_small_delay():
    inst = build_instance(
        [0.9, 0.8], [0.1, 0.2], block_size=1, delay_cost=0.05, fee_unit=1e-6, horizon=2
    )
    buy_report, sell_report = verify_equilibrium(
        inst, msne(inst), grid_resolution=5, mc_samples=50_000, rng_seed=2
    )
    for report in (buy_report, sell_report):
        assert report.relative_spread < 0.01
        assert report.drop_out_gain <= 0.0


def test_realize_profile_sets_all_fees():
    inst = build_instance(
        [0.9, 0.8, 0.7, 0.2], [0.1, 0.2, 0.3, 0.8], block_size=2, delay_cost=0.05
    )
    profile = realize_profile(inst, msne(inst), 3)
    buy, sell = msne(inst)
    for pid in buy.mixer_ids:
        assert buy.lower <= profile.buy_fees[pid] <= buy.upper
    for pid in sell.mixer_ids:
        assert sell.lower <= profile.sell_fees[pid] <= sell.upper


def _per_side_profile(instance, strategies, seed):
    """Each side's mixers drawn by its own ``MixedStrategy.sample``, buyers first."""
    rng = np.random.default_rng(seed)
    sides = []
    for strat, count in zip(strategies, (instance.num_buyers, instance.num_sellers)):
        fees = np.full(count, strat.non_mixer_fee)
        fees[list(strat.mixer_ids)] = strat.sample(rng, len(strat.mixer_ids))
        sides.append(tuple(fees.tolist()))
    return FeeProfile(*sides)


def test_realize_profile_equals_per_side_samples():
    # One draw and one expectation for both sides give exactly the two
    # per-side draws, on small markets (K != N, d = 0 included), on large ones
    # (the windowed binomial tail), and with fewer rivals than A.
    rng = np.random.default_rng(2024)
    seen = {"small": 0, "large": 0, "few_rivals": 0, "zero_delay": 0, "unequal": 0}
    cases = 0
    while cases < 1000:
        large = cases % 10 == 0
        k, n = (int(rng.integers(150, 320)), int(rng.integers(150, 320))) if large else (
            int(rng.integers(2, 13)), int(rng.integers(2, 13)))
        inst = build_instance(rng.random(k), rng.random(n), block_size=1,
                              delay_cost=0.0 if rng.random() < 0.25 else float(rng.uniform(0.001, 0.1)))
        if inst.crossing_index < 2:
            continue
        inst = inst.with_block_size(int(rng.integers(1, inst.crossing_index)))
        strategies = msne(inst)
        if rng.random() < 0.2:
            contenders = int(rng.integers(1, inst.block_size + 1))
            strategies = tuple(replace(s, contenders=contenders) for s in strategies)
            seen["few_rivals"] += 1
        seed = int(rng.integers(2**32))
        assert realize_profile(inst, strategies, seed) == _per_side_profile(inst, strategies, seed)
        cases += 1
        seen["large" if large else "small"] += 1
        seen["zero_delay"] += inst.delay_cost == 0.0
        seen["unequal"] += k != n
    assert min(seen.values()) >= 50, seen
