"""Experiment orchestration: mechanism comparisons, random counts, capped sizes.

Every scenario reads its market from one type,
:class:`chainbook.mechanism.HarnessConfig`, and takes it at each N it sweeps
with ``config.at(n)`` (K = rho * N rounded, at least 1).  All its replications
are one task list for :func:`chainbook.mechanism.paired_samples`, which returns
one :class:`chainbook.mechanism.PairedSamples` per N.  Each replication draws a
population once, derives every variant from it, plays each distinct one once
through :func:`chainbook.welfare.simulate_once` (so ``quantize_fees`` holds
everywhere) and takes its exact optimum.  Replication r at N sellers is keyed
by (seed, N, r), so it is the same market in every scenario, and a
``random_counts`` period is replication t at its own count.
``blocksize_limit`` reads both of its rows, the capped choice and the
benchmark at min(benchmark, cap), from one capped search.  One helper,
:func:`welfare_row`, writes every welfare row, with
:func:`chainbook.welfare.mean_stderr` and
:func:`chainbook.welfare.welfare_quotient`.  Reports are byte-identical across
runs and worker counts."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .market import miners_with_protocol_share
# The market config is defined with the rules that read it; perfbench/child.py calls load_config by this name.
from .mechanism import (
    HarnessConfig,
    PairedSamples,
    capped_search_report,
    load_config,
    optimal_block_size_complete,
    optimal_block_size_distributional,
    paired_samples,
)
from .reporting import result_row
# simulate_once is not called here, but perfbench/tracer.py wraps every play by this name.
from .welfare import mean_stderr, simulate_once, welfare_quotient

__all__ = [
    "Scenario",
    "HarnessConfig",
    "ExperimentSpec",
    "load_config",
    "benchmark_block_size",
    "welfare_row",
    "compare_mechanisms",
    "run_mechanism_comparison",
    "run_random_counts",
    "run_blocksize_limit",
]


class Scenario(str, Enum):
    MECHANISM_COMPARISON = "mechanism_comparison"
    RANDOM_COUNTS = "random_counts"
    BLOCK_SIZE_LIMIT = "blocksize_limit"


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: scenario, replication budget, seller grid, worker count."""

    scenario: Scenario
    replications: int = 200
    seed: int = 0
    seller_grid: tuple[int, ...] = (50, 100, 200, 400)
    threads: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not self.seller_grid:
            raise ValueError("seller_grid must be nonempty")


def benchmark_block_size(num_buyers: int, num_sellers: int) -> int:
    """The maximal-block benchmark: every possible pair fits in one block.

    min(K, N) rounded up to an even pair count, so the cap never bites.
    """
    m = min(num_buyers, num_sellers)
    return m + (m % 2)


def welfare_row(scenario: str, mechanism: str, n: int, k: int, a, welfare, optimum=None, **extra) -> dict:
    """The report row of per-replication welfare samples: mean and standard error,
    and, given the optima of the same populations, their mean and sw / sw_opt."""
    mean, stderr = mean_stderr(welfare)
    if optimum is None:
        return result_row(scenario, mechanism, n, k, a, mean, stderr, **extra)
    opt = float(np.mean(optimum))
    return result_row(scenario, mechanism, n, k, a, mean, stderr, opt, welfare_quotient(mean, opt), **extra)


def _comparison_variants(a_dist: int, fraction: float, base) -> dict:
    """Every comparison variant of one population, for :func:`play_replication`."""
    dist = base.with_block_size(a_dist)
    dist.equilibrium  # found first, so the variant that differs only in its miners keeps it
    return {
        "abs_distributional": dist,
        "abs_non_selfish": dist.with_block_size(a_dist, miners_with_protocol_share(fraction)),
        "benchmark_max_block": base.with_block_size(benchmark_block_size(base.num_buyers, base.num_sellers)),
        "abs_complete": base.with_block_size(optimal_block_size_complete(base)),
    }


def compare_mechanisms(
    config: HarnessConfig,
    seller_grid,
    non_selfish_fraction: float,
    replications: int,
    seed: int,
    threads: int = 1,
) -> list[PairedSamples]:
    """Paired welfare samples of every comparison variant, one per N of ``seller_grid``."""
    markets = [config.at(n) for n in seller_grid]
    variants = [
        partial(_comparison_variants, optimal_block_size_distributional(m), non_selfish_fraction) for m in markets
    ]
    return paired_samples([markets] * replications, variants, seed, threads)


def run_mechanism_comparison(spec: ExperimentSpec, config: HarnessConfig) -> list[dict]:
    """Welfare of the adjustable mechanisms and the maximal-block benchmark per N.

    The reported ratio is the performance quotient mean(sw) / mean(sw_opt),
    at most 1 on-model.  The abs_non_selfish variant routes the configured
    power share to miners following the welfare-greedy matching
    recommendation (a stand-in policy, labeled as such in the row).  At a
    share of 0 its miners are all selfish and play as abs_distributional's
    one, so the two rows are equal.  The social_optimum row reports the
    benchmark's block size.
    """
    rows: list[dict] = []
    grid = spec.seller_grid
    comps = compare_mechanisms(config, grid, config.non_selfish_fraction, spec.replications, spec.seed, spec.threads)
    for n, comp in zip(grid, comps):
        k = config.at(n).num_buyers
        sizes = {**comp.block_sizes, "social_optimum": comp.block_sizes["benchmark_max_block"]}
        for variant, sw in {**comp.samples, "social_optimum": comp.optimum}.items():
            label = variant if variant != "abs_non_selfish" else "abs_non_selfish_recommending"
            a = float(np.mean(sizes[variant]))
            rows.append(welfare_row(Scenario.MECHANISM_COMPARISON.value, label, n, k, a, sw, comp.optimum))
    return rows


def _distributional_variant(a_fixed: int, base) -> dict:
    """The one random-counts variant of a population, for :func:`play_replication`."""
    return {"abs_distributional": base.with_block_size(a_fixed)}


def run_random_counts(
    spec: ExperimentSpec, config: HarnessConfig, count_sequence
) -> list[dict]:
    """Time series of performance under a block size fixed from the mean count.

    The block size comes from the distributional rule evaluated at the mean
    of ``count_sequence``; period t is then replication t at its own count,
    with its own population.  Emits one row per period plus a summary row,
    whose ratio is the mean of the period ratios.
    """
    counts = [int(n) for n in count_sequence]
    if not counts:
        raise ValueError("count_sequence must be nonempty")
    mean_market = config.at(max(1, round(float(np.mean(counts)))))
    a_fixed = optimal_block_size_distributional(mean_market)

    markets = [config.at(n) for n in counts]
    variant = partial(_distributional_variant, a_fixed)
    [periods] = paired_samples([[m] for m in markets], [variant], spec.seed, spec.threads)
    sw, opt = periods.samples["abs_distributional"], periods.optimum
    rows = [
        welfare_row(
            Scenario.RANDOM_COUNTS.value, "abs_distributional", market.num_sellers, market.num_buyers, a_fixed,
            [sw[t]], [opt[t]], period=t,
        )
        for t, market in enumerate(markets)
    ]
    ratios = [r["ratio"] for r in rows]
    sw_mean, sw_stderr = mean_stderr(sw)
    summary = result_row(
        Scenario.RANDOM_COUNTS.value, "summary", mean_market.num_sellers, mean_market.num_buyers, a_fixed,
        sw_mean, sw_stderr, float(np.mean(opt)), float(np.mean(ratios)),
        ratio_std=float(np.std(ratios)),
    )
    return [*rows, summary]


def run_blocksize_limit(
    spec: ExperimentSpec, config: HarnessConfig, max_block_size: int
) -> list[dict]:
    """Capped brute-force block-size choice vs the benchmark under the same cap.

    Both rows come from one capped search: the chosen size and the benchmark
    size min(benchmark, cap), on the same populations and against their optimum.
    """
    rows: list[dict] = []
    markets = [config.at(n) for n in spec.seller_grid]
    reports = capped_search_report(markets, max_block_size, spec.replications, spec.seed, spec.threads)
    for market, report in zip(markets, reports):
        n, k = market.num_sellers, market.num_buyers
        a_bench = min(benchmark_block_size(k, n), max_block_size)
        for mechanism, a in (("abs_capped", report.best_variant()), ("benchmark_max_block", a_bench)):
            rows.append(
                welfare_row(Scenario.BLOCK_SIZE_LIMIT.value, mechanism, n, k, a, report.samples[a], report.optimum)
            )
    return rows
