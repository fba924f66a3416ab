"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Two criteria are marked as strict expected failures after verification:

* ``test_c6_prefix_selection_is_subset_optimal``: when fees are drawn
  independently of valuations, a non-prefix equal-size subset beats every
  feasible fee-ranked prefix on roughly half of random pools, so the
  fee-ranked-prefix selection rule is not subset-optimal in general.  The
  engine keeps the prefix behavior: it is the selection rule the miners are
  modeled with, and it is subset-optimal whenever fees align with
  matchability, which unit tests pin separately.

* ``test_c7_distributional_rule_asymptotic_optimum``: the distributional
  block-size rule adds only an N**(1-psi) safety margin above the expected
  crossing index, while the realized crossing fluctuates on the sqrt(N)
  scale; with psi = 0.85 the margin is swamped, a large share of draws land
  below the crossing, everyone then mixes with fees independent of values,
  and the feasible-prefix engine stalls.  Measured mean performance ratios
  (printed by the test) sit far below the asymptotic-optimum expectation and
  are not monotone in N.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from chainbook import distributions as dist
from chainbook.equilibrium import (
    crossing_index,
    msne,
    psne,
    verify_equilibrium,
)
from chainbook.experiments import HarnessConfig, compare_mechanisms
from chainbook.market import FeeProfile, build_instance, rank_feasible
from chainbook.mechanism import (
    optimal_block_size_complete,
    optimal_block_size_distributional,
    solve_eta,
)
from chainbook.miners import PendingPool, selfish_select
from chainbook.welfare import (
    performance_ratio,
    simulate_once,
    social_optimum,
    unbounded_poa_witness,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# -----------------------------------------------------------------------
# 1. Homogeneous quantities at the complete-information block size: exact
#    social optimum (|sw - sw_opt| <= 1e-9 on every instance).
# -----------------------------------------------------------------------
def test_c1_homogeneous_quantities_reach_optimum():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        k, n = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        inst = build_instance(
            rng.random(k),
            rng.random(n),
            block_size=1,
            delay_cost=float(0.3 * rng.random()),
        )
        a = optimal_block_size_complete(inst)
        report = performance_ratio(inst, a, mc_replications=3, rng_seed=i)
        worst = max(worst, abs(report.sw - report.sw_opt))
    ok = worst <= 1e-9
    _verdict("c1 homogeneous optimum", ok, f"worst |sw - sw_opt| = {worst:.2e} (<= 1e-9)")
    assert ok


# -----------------------------------------------------------------------
# 2. Heterogeneous quantities in [1, 3]: expected welfare within a factor
#    3 + 0.05 of the optimum at the complete-information block size.
# -----------------------------------------------------------------------
def test_c2_heterogeneous_quantity_bound():
    rng = np.random.default_rng(202)
    worst = 1.0
    for i in range(100):
        while True:
            k, n = int(rng.integers(3, 13)), int(rng.integers(3, 13))
            r, c = rng.random(k), rng.random(n)
            if r.max() > c.min():  # at least one profitable pair
                break
        inst = build_instance(
            r,
            c,
            block_size=1,
            buy_quantities=1 + 2 * rng.random(k),
            sell_quantities=1 + 2 * rng.random(n),
            delay_cost=float(0.05 * rng.random()),
        )
        report = performance_ratio(
            inst, crossing_index(inst), mc_replications=500, rng_seed=1000 + i
        )
        if report.sw > 0:
            worst = max(worst, report.ratio)
    ok = worst <= 3.0 + 0.05
    _verdict("c2 heterogeneous bound", ok, f"worst sw_opt/sw = {worst:.4f} (<= 3.05)")
    assert ok


# -----------------------------------------------------------------------
# 3. Worst-case ratio witnesses at target 100, matching closed forms.
# -----------------------------------------------------------------------
def test_c3_unbounded_ratio_witnesses():
    target = 100.0
    high, low = unbounded_poa_witness(target)

    high_report = performance_ratio(high, high.block_size, mc_replications=4, rng_seed=3)
    r1, r2 = high.utility_array.tolist()
    c1, c2 = high.cost_array.tolist()
    closed_high = (r1 - c1) / (r1 + r2 - c1 - c2)

    low_report = performance_ratio(low, low.block_size, mc_replications=4, rng_seed=3)
    total = sum(low.utility_array.tolist()) - sum(low.cost_array.tolist())
    closed_low = total / (total - 2 * low.delay_cost)

    ok = (
        high_report.ratio >= target - 1e-9
        and low_report.ratio >= target - 1e-9
        and math.isclose(high_report.ratio, closed_high, rel_tol=1e-6)
        and math.isclose(low_report.ratio, closed_low, rel_tol=1e-6)
    )
    _verdict(
        "c3 ratio witnesses",
        ok,
        f"oversized block ratio {high_report.ratio:.6f} vs {closed_high:.6f}, "
        f"undersized {low_report.ratio:.6f} vs {closed_low:.6f}",
    )
    assert ok


# -----------------------------------------------------------------------
# 4. Mixed-strategy indifference: expected fee-plus-delay cost flat to 1%
#    across five in-support fees; CDF hits 0 and 1 exactly at the bounds.
# -----------------------------------------------------------------------
def test_c4_mixing_indifference():
    rng = np.random.default_rng(404)
    worst_spread = 0.0
    checked = 0
    while checked < 20:
        k, n = int(rng.integers(4, 13)), int(rng.integers(4, 13))
        inst = build_instance(
            rng.random(k),
            rng.random(n),
            block_size=1,
            delay_cost=float(0.05 + 0.15 * rng.random()),
            fee_unit=1e-6,
        )
        a_th = crossing_index(inst)
        if a_th < 2:
            continue
        inst = inst.with_block_size(int(rng.integers(1, a_th)))
        checked += 1
        reports = verify_equilibrium(
            inst, msne(inst), grid_resolution=5, mc_samples=100_000, rng_seed=checked
        )
        for report in reports:
            assert report.cdf_at_lower == 0.0
            assert report.cdf_at_upper == 1.0
            worst_spread = max(worst_spread, report.relative_spread)
    ok = worst_spread < 0.01
    _verdict(
        "c4 mixing indifference",
        ok,
        f"worst relative cost spread = {worst_spread:.5f} (< 0.01), support CDF bounds exact",
    )
    assert ok


# -----------------------------------------------------------------------
# 5. Pure-strategy stability: 201-point deviation grids improve nobody by
#    more than one fee unit + 1e-9.  Configurations sit in the engine-exact
#    domain (all pairs compatible, zero delay cost, homogeneous quantities)
#    where tie lotteries and pairings marginalize in closed form.
# -----------------------------------------------------------------------
def test_c5_pure_strategy_stability():
    rng = np.random.default_rng(505)
    worst = -math.inf
    for i in range(20):
        k, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        inst = build_instance(
            0.55 + 0.45 * rng.random(k),
            0.45 * rng.random(n),
            block_size=1,
            delay_cost=0.0,
            fee_unit=1e-6,
        )
        inst = inst.with_block_size(crossing_index(inst) + int(rng.integers(0, 2)))
        profile = psne(inst)
        assert profile is not None
        report = verify_equilibrium(inst, profile, grid_resolution=201)
        assert report.replications == 0  # exact payoffs
        worst = max(worst, report.max_improvement)
    tolerance = 1e-6 + 1e-9
    ok = worst <= tolerance
    _verdict(
        "c5 pure stability",
        ok,
        f"worst grid-deviation gain = {worst:.3e} (<= {tolerance:.3e})",
    )
    assert ok


# -----------------------------------------------------------------------
# 6. Fee-ranked prefix selection vs brute-force subset maximum on random
#    pools with distinct fees drawn independently of valuations.
# -----------------------------------------------------------------------
def _brute_force_best_fee(inst, pool):
    buyers = [i for i, f in zip(pool.buyer_ids, pool.buy_fees) if f > 0]
    sellers = [i for i, f in zip(pool.seller_ids, pool.sell_fees) if f > 0]
    best = 0.0
    for size in range(1, min(inst.block_size, len(buyers), len(sellers)) + 1):
        for bs in itertools.combinations(buyers, size):
            fee_b = sum(pool.buy_fees[b] for b in bs)
            utils = inst.utility_array[list(bs)]
            for ss in itertools.combinations(sellers, size):
                costs = inst.cost_array[list(ss)]
                if rank_feasible(utils, costs):
                    best = max(best, fee_b + sum(pool.sell_fees[s] for s in ss))
    return best


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with fees independent of valuations, a non-prefix equal-size subset "
        "beats every feasible fee-ranked prefix on roughly half of random pools; "
        "prefix selection is only subset-optimal when fees align with matchability"
    ),
)
def test_c6_prefix_selection_is_subset_optimal():
    rng = np.random.default_rng(606)
    mismatches = 0
    trials = 500
    for _ in range(trials):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        inst = build_instance(rng.random(k), rng.random(n), block_size=int(rng.integers(1, 7)))
        profile = FeeProfile(
            buy_fees=tuple(0.05 + rng.random(k)), sell_fees=tuple(0.05 + rng.random(n))
        )
        pool = PendingPool.from_instance(inst, profile)
        sel = selfish_select(pool, inst, int(rng.integers(1 << 30)))
        if abs(sel.total_fee - _brute_force_best_fee(inst, pool)) > 1e-9:
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        "c6 prefix subset-optimality",
        ok,
        f"{mismatches}/{trials} independent-fee pools admit a better non-prefix subset",
    )
    assert ok


# -----------------------------------------------------------------------
# 7. Distributional block-size rule on uniform values, homogeneous
#    quantities, K = N: mean performance ratio over 200 replications,
#    expected nondecreasing across N in {100, 400, 1600} and >= 0.95 at
#    N = 1600.
# -----------------------------------------------------------------------
_UNIFORM_UNIT = {"R": dist.uniform(0.0, 1.0), "C": dist.uniform(0.0, 1.0), "B": dist.point_mass(1.0),
                 "Q": dist.point_mass(1.0)}


def _mean_performance_ratio(n: int, replications: int, seed: int) -> float:
    config = HarnessConfig(num_buyers=n, num_sellers=n, psi=0.85, delay_cost=0.01, distributions=_UNIFORM_UNIT)
    a = optimal_block_size_distributional(config)
    sws, opts = [], []
    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence([seed, n, rep]))
        inst = build_instance(
            rng.random(n), rng.random(n), block_size=a, delay_cost=config.delay_cost
        )
        sws.append(simulate_once(inst, rng))
        opts.append(social_optimum(inst))
    return float(np.mean(sws) / np.mean(opts))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the N**(1-psi) block-size margin is below the sqrt(N)-scale sampling "
        "noise of the crossing index at psi = 0.85, and value-independent mixed "
        "fee draws stall the feasible-prefix selection, so mean performance "
        "ratios stay far below the asymptotic-optimum expectation"
    ),
)
def test_c7_distributional_rule_asymptotic_optimum():
    ratios = [_mean_performance_ratio(n, 200, seed=707) for n in (100, 400, 1600)]
    detail = ", ".join(f"N={n}: {r:.4f}" for n, r in zip((100, 400, 1600), ratios))
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    ok = nondecreasing and ratios[-1] >= 0.95
    _verdict("c7 asymptotic optimum", ok, f"mean sw/sw_opt: {detail}")
    assert ok


# -----------------------------------------------------------------------
# 8. Generated-population substitute properties: the adjustable block size
#    never loses to the maximal-block benchmark in mean welfare on paired
#    seeds (>= 95% of population cells), and routing 20% of mining power to
#    the recommendation never lowers mean welfare on homogeneous populations.
# -----------------------------------------------------------------------
def _population(name, r_span, c_span, qty=None, d=0.005):
    dists = {
        "R": dist.uniform(*r_span),
        "C": dist.uniform(*c_span),
        "B": qty or dist.point_mass(1.0),
        "Q": qty or dist.point_mass(1.0),
    }
    return name, HarnessConfig(delay_cost=d, distributions=dists)


def test_c8_generated_population_dominance():
    populations = [
        _population("separated_homog", (0.55, 1.0), (0.0, 0.45)),
        _population("separated_heterog", (0.55, 1.0), (0.0, 0.45), qty=dist.uniform(1.0, 3.0)),
        _population("edge_homog", (0.5, 1.0), (0.0, 0.5)),
        _population("mild_overlap_homog", (0.3, 1.0), (0.0, 0.7)),
        _population("full_overlap_homog", (0.0, 1.0), (0.0, 1.0)),
    ]
    cells = 0
    dominated = 0
    protocol_ok = True
    details = []
    grid = (20, 40)
    for name, config in populations:
        homogeneous = config.all_distributions["B"].kind == "point"
        comps = compare_mechanisms(config, grid, replications=200, seed=808)
        if homogeneous:
            selfish = compare_mechanisms(config, grid, replications=100, seed=809)
            helped = compare_mechanisms(replace(config, non_selfish_fraction=0.2), grid, replications=100, seed=809)
        for i, (n, comp) in enumerate(zip(grid, comps)):
            abs_mean = float(comp.samples["abs_distributional"].mean())
            bench_mean = float(comp.samples["benchmark_max_block"].mean())
            cells += 1
            dominated += abs_mean >= bench_mean - 1e-9
            details.append(f"{name}/N={n}: abs {abs_mean:.3f} vs bench {bench_mean:.3f}")
            if homogeneous:
                delta = (
                    helped[i].samples["abs_non_selfish"].mean()
                    - selfish[i].samples["abs_non_selfish"].mean()
                )
                protocol_ok &= delta >= -1e-9
                details[-1] += f", protocol delta {delta:+.4f}"
    share = dominated / cells
    ok = share >= 0.95 and protocol_ok
    _verdict(
        "c8 population dominance",
        ok,
        f"mean-welfare dominance in {dominated}/{cells} cells; "
        f"protocol share never harmful: {protocol_ok}",
    )
    for line in details:
        print("   ", line)
    assert ok


# -----------------------------------------------------------------------
# 9. Quantile solver and the block-size arithmetic it feeds.
# -----------------------------------------------------------------------
def test_c9_quantile_solver_and_block_arithmetic():
    config = HarnessConfig(num_buyers=100, num_sellers=100, psi=0.85, delay_cost=0.0, distributions=_UNIFORM_UNIT)
    eta = solve_eta(config)
    a = optimal_block_size_distributional(config)
    ok = abs(eta - 0.5) <= 1e-12 and a == 51
    _verdict("c9 quantile solver", ok, f"eta = {eta!r} (0.5 +- 1e-12), block size = {a} (51)")
    assert ok


# -----------------------------------------------------------------------
# 10. Exact optimum oracle vs permutation brute force on 1000 small markets.
# -----------------------------------------------------------------------
def _permutation_optimum(inst):
    k, n = inst.num_buyers, inst.num_sellers
    r, c = inst.utility_array.tolist(), inst.cost_array.tolist()
    bq, sq = inst.buy_qty_array.tolist(), inst.sell_qty_array.tolist()
    big = max(k, n)
    buyers = list(range(k)) + [None] * (big - k)
    sellers = list(range(n)) + [None] * (big - n)
    best = 0.0
    for perm in itertools.permutations(sellers):
        total = 0.0
        for b, s in zip(buyers, perm):
            if b is None or s is None:
                continue
            if r[b] >= c[s]:
                gain = min(bq[b], sq[s]) * (r[b] - c[s])
                total += max(gain, 0.0)
        best = max(best, total)
    return best


def test_c10_optimum_oracle_agreement():
    rng = np.random.default_rng(1010)
    mism = 0
    for _ in range(1000):
        k, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        inst = build_instance(
            rng.random(k),
            rng.random(n),
            block_size=1,
            buy_quantities=1 + 2 * rng.random(k),
            sell_quantities=1 + 2 * rng.random(n),
        )
        if abs(social_optimum(inst) - _permutation_optimum(inst)) > 1e-12:
            mism += 1
    ok = mism == 0
    _verdict("c10 optimum oracle", ok, f"{mism}/1000 disagreements with permutation search")
    assert ok
