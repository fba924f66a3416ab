"""Mechanism tests: block-size rules, the quantile solver, the capped search."""

import numpy as np
import pytest

from chainbook import distributions as dist
from chainbook.equilibrium import crossing_index
from chainbook.market import build_instance
from chainbook.mechanism import (
    HarnessConfig,
    PairedSamples,
    capped_search_report,
    optimal_block_size_complete,
    optimal_block_size_distributional,
    solve_eta,
)
from chainbook.welfare import mean_stderr


def _config(
    k=100,
    n=100,
    psi=0.85,
    utility=None,
    cost=None,
    qty=None,
    delay_cost=0.0,
):
    given = {"R": utility, "C": cost, "B": qty, "Q": qty}  # the rest: uniform values, unit quantities
    return HarnessConfig(
        num_buyers=k,
        num_sellers=n,
        psi=psi,
        delay_cost=delay_cost,
        distributions={key: d for key, d in given.items() if d is not None},
    )


def test_complete_information_examples():
    assert optimal_block_size_complete(build_instance([0.9, 0.3], [0.1, 0.5], 1)) == 1
    assert optimal_block_size_complete(build_instance([0.8, 0.6], [0.2, 0.4], 1)) == 2
    assert optimal_block_size_complete(build_instance([0.1, 0.2, 0.3], [0.5, 0.6, 0.7], 1)) == 1


def test_complete_information_matches_linear_scan():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        k, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        r = np.sort(rng.random(k))[::-1]
        c = np.sort(rng.random(n))
        inst = build_instance(r, c, block_size=1)
        scan = 0  # the last rank whose pair is profitable; 0 for a dead market
        for i in range(min(k, n)):
            if r[i] >= c[i]:
                scan = i + 1
        assert crossing_index(inst) == scan
        assert optimal_block_size_complete(inst) == max(scan, 1)  # at least one pair per block


def test_eta_symmetric_uniform():
    eta = solve_eta(_config())
    assert eta == pytest.approx(0.5, abs=1e-12)


def test_eta_twice_as_many_buyers():
    eta = solve_eta(_config(k=200, n=100))
    assert eta == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_eta_empirical_close_to_analytic():
    rng = np.random.default_rng(5)
    emp_r = dist.fit_empirical(rng.random(1000), (0.0, 1.0))
    emp_c = dist.fit_empirical(rng.random(1000), (0.0, 1.0))
    eta = solve_eta(_config(utility=emp_r, cost=emp_c))
    assert abs(eta - 0.5) < 0.05


def test_eta_balances_the_two_sides():
    rng = np.random.default_rng(41)
    for _ in range(25):
        k = int(rng.integers(10, 400))
        n = int(rng.integers(10, 400))
        config = _config(
            k=k,
            n=n,
            utility=dist.beta(1.0 + 2 * rng.random(), 1.0 + 2 * rng.random()),
            cost=dist.beta(1.0 + 2 * rng.random(), 1.0 + 2 * rng.random()),
        )
        eta = solve_eta(config)
        gap = abs(
            n * config.all_distributions["C"].cdf(eta) - k * (1.0 - config.all_distributions["R"].cdf(eta))
        )
        assert gap <= 1e-9 * max(k, n)


def test_eta_rejects_malformed_distributions():
    # All cost mass already at zero with fewer buyers than sellers: the
    # balance function starts positive and no root exists.
    bad_cost = dist.point_mass(0.0)
    with pytest.raises(ValueError, match="malformed"):
        solve_eta(_config(k=50, n=100, cost=bad_cost))


def test_eta_zero_when_balance_starts_at_zero():
    assert solve_eta(_config(cost=dist.point_mass(0.0))) == 0.0


def test_distributional_block_size_at_hundred():
    assert optimal_block_size_distributional(_config()) == 51


def test_distributional_block_size_redundancy_vanishes():
    config = _config(k=1_000_000, n=1_000_000, psi=0.99)
    a = optimal_block_size_distributional(config)
    assert a / config.num_sellers == pytest.approx(0.5, abs=1e-3)


def test_distributional_block_size_zero_trade_mass():
    # Costs sit entirely above utilities: the crossing quantile carries no
    # cost mass, leaving only the redundancy term.
    config = _config(
        n=100,
        utility=dist.uniform(0.0, 0.5),
        cost=dist.uniform(0.5, 1.0),
    )
    a = optimal_block_size_distributional(config)
    assert a == max(int(np.floor(100 * 100 ** (-0.85))), 1) == 1


def test_distributional_block_size_monotone_in_sellers():
    values = [
        optimal_block_size_distributional(_config(k=n, n=n)) for n in (20, 50, 100, 200, 400)
    ]
    assert values == sorted(values)


def test_capped_search_cap_one():
    assert capped_search_report(_config(k=6, n=6), 1, mc_replications=5, rng_seed=0).best_variant() == 1


def test_best_variant_ties_go_to_the_first_built():
    tied = PairedSamples(
        samples={3: np.array([1.0, 2.0]), 1: np.array([2.0, 1.0]), 2: np.array([0.0, 2.0])},
        block_sizes={a: np.array([a, a]) for a in (3, 1, 2)},
        optimum=np.array([2.0, 2.0]),
    )
    assert tied.best_variant() == 3


def test_capped_search_deterministic():
    config = _config(k=8, n=8)
    first = capped_search_report(config, 4, mc_replications=20, rng_seed=3)
    second = capped_search_report(config, 4, mc_replications=20, rng_seed=3)
    for field in ("samples", "block_sizes"):
        one, other = getattr(first, field), getattr(second, field)
        assert list(one) == list(other) == [1, 2, 3, 4]
        assert all(np.array_equal(one[a], other[a]) for a in one)
    assert np.array_equal(first.optimum, second.optimum)
    assert first.optimum.shape == (20,)
    assert all(np.all(first.block_sizes[a] == a) for a in first.block_sizes)


def test_capped_search_welfare_monotone_in_cap_without_delay():
    # With free delay and homogeneous quantities extra capacity cannot hurt;
    # candidate draws are paired, so the best welfare is nondecreasing in the cap.
    config = _config(k=10, n=10, delay_cost=0.0)
    best = []
    for cap in (1, 2, 4, 6):
        report = capped_search_report(config, cap, mc_replications=30, rng_seed=11)
        best.append(report.samples[report.best_variant()].mean())
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(best, best[1:]))


def test_capped_search_near_unconstrained_choice():
    # A generous cap should do at least as well as the unconstrained rule's
    # pick, up to one standard error.
    config = _config(k=12, n=12, delay_cost=0.01)
    report = capped_search_report(config, 10, mc_replications=60, rng_seed=7)
    a_free = min(optimal_block_size_distributional(config), 10)
    (mean_best, err_best), (mean_free, err_free) = (
        mean_stderr(report.samples[a]) for a in (report.best_variant(), a_free)
    )
    assert mean_best >= mean_free - (err_best + err_free)


def test_mechanism_config_validation():
    with pytest.raises(ValueError):
        _config(psi=1.0)
    with pytest.raises(ValueError):
        _config(k=0)
