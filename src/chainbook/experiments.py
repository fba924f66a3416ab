"""Experiment orchestration: mechanism comparisons, random counts, capped sizes.

Scenarios sample populations from configured value distributions with
:func:`chainbook.mechanism.sample_instance`, pick block sizes per mechanism,
play each through :func:`chainbook.welfare.simulate_once` (so
``quantize_fees`` holds in every scenario), and report welfare against the
exact optimum.  Every scenario keys replication r at N sellers by
:func:`chainbook.mechanism.replication_rngs` (a ``random_counts`` period is
replication t at its own count), so replication r at (seed, N) is the same
market in every scenario, and reports are byte-identical across runs and
worker counts.  Paired replications run through
:func:`chainbook.mechanism.play_replication`, which draws a population once,
derives every variant from it and plays each distinct one once: with a
protocol-following share of 0 ``abs_non_selfish`` equals
``abs_distributional``, and ``abs_complete`` shares the play of any variant
whose size it picks.  ``blocksize_limit`` reads both of its rows, the capped
choice and the benchmark at min(benchmark, cap), from one capped search, so
they share populations, streams and optimum.  Every scenario summarizes its
samples with :func:`chainbook.welfare.mean_stderr` and
:func:`chainbook.welfare.welfare_quotient`, writes its rows with
:func:`chainbook.reporting.result_row`, and runs its replications through one
task runner, ``mechanism._run_tasks``, whose process workers receive
picklable arguments through ``functools.partial``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial

import numpy as np

from . import distributions as dist
from .distributions import ValueDistribution
from .market import miners_with_protocol_share
from .mechanism import (
    MechanismConfig,
    _run_tasks,
    capped_search_report,
    optimal_block_size_complete,
    optimal_block_size_distributional,
    play_replication,
    replication_rngs,
    sample_instance,
)
from .reporting import result_row
from .welfare import mean_stderr, simulate_once, social_optimum, welfare_quotient

__all__ = [
    "Scenario",
    "MechanismKind",
    "HarnessConfig",
    "ExperimentSpec",
    "load_config",
    "benchmark_block_size",
    "ComparisonSamples",
    "compare_mechanisms",
    "run_mechanism_comparison",
    "run_random_counts",
    "run_blocksize_limit",
]


class Scenario(str, Enum):
    MECHANISM_COMPARISON = "mechanism_comparison"
    RANDOM_COUNTS = "random_counts"
    BLOCK_SIZE_LIMIT = "blocksize_limit"
    POA_WITNESS = "poa_witness"


class MechanismKind(str, Enum):
    ABS_COMPLETE = "abs_complete"
    ABS_DISTRIBUTIONAL = "abs_distributional"
    BENCHMARK_MAX_BLOCK = "benchmark_max_block"


def _default_distributions() -> dict[str, ValueDistribution]:
    return {
        "R": dist.uniform(0.0, 1.0),
        "C": dist.uniform(0.0, 1.0),
        "B": dist.point_mass(1.0),
        "Q": dist.point_mass(1.0),
    }


# Config file key -> (HarnessConfig field, type); "distributions" is handled apart.
_CONFIG_KEYS = {
    "K": ("num_buyers", int),
    "N": ("num_sellers", int),
    "rho": ("rho", float),
    "d": ("delay_cost", float),
    "epsilon": ("fee_unit", float),
    "psi": ("psi", float),
    "b_lo": ("b_lo", float),
    "b_hi": ("b_hi", float),
    "non_selfish_fraction": ("non_selfish_fraction", float),
    "quantize_fees": ("quantize_fees", bool),
}


@dataclass(frozen=True)
class HarnessConfig:
    """Market-level knobs shared by all scenarios (the config file keys in ``_CONFIG_KEYS``).

    It pickles as is (each distribution pickles as its config), so scenario
    workers receive it directly.
    """

    num_buyers: int = 50
    num_sellers: int = 50
    rho: float = 1.0  # buyer count per seller when sweeping N
    delay_cost: float = 0.01
    fee_unit: float = 1e-6
    psi: float = 0.85
    b_lo: float = 1.0
    b_hi: float = 1.0
    non_selfish_fraction: float = 0.0
    quantize_fees: bool = False
    distributions: dict[str, ValueDistribution] = field(default_factory=_default_distributions)

    def __post_init__(self) -> None:
        if not 0.0 <= self.non_selfish_fraction <= 1.0:
            raise ValueError("non_selfish_fraction must lie in [0, 1]")
        if self.num_buyers < 1 or self.num_sellers < 1:
            raise ValueError(f"K and N must be >= 1, got K={self.num_buyers}, N={self.num_sellers}")
        if self.b_lo > self.b_hi:
            raise ValueError(f"b_lo {self.b_lo} exceeds b_hi {self.b_hi}")
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi {self.psi} must lie strictly inside (0, 1)")

    def mechanism_config(self, num_buyers: int, num_sellers: int) -> MechanismConfig:
        return MechanismConfig(
            num_buyers=num_buyers,
            num_sellers=num_sellers,
            psi=self.psi,
            utility_dist=self.distributions["R"],
            cost_dist=self.distributions["C"],
            buy_qty_dist=self.distributions["B"],
            sell_qty_dist=self.distributions["Q"],
            delay_cost=self.delay_cost,
            fee_unit=self.fee_unit,
            quantize_fees=self.quantize_fees,
        )

    def to_jsonable(self) -> dict:
        return {
            **{key: getattr(self, name) for key, (name, _) in _CONFIG_KEYS.items()},
            "distributions": {k: v.to_config() for k, v in self.distributions.items()},
        }


def load_config(path: str) -> HarnessConfig:
    """Read the key-value config file (JSON: K, N, rho, d, epsilon, psi, ...).

    Absent keys take the :class:`HarnessConfig` defaults, except that a bare
    ``b_lo`` also sets ``b_hi``; an unknown key is an error.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    accepted = [*_CONFIG_KEYS, "distributions"]
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise ValueError(f"unknown config keys {unknown} (accepted: {', '.join(accepted)})")
    if "b_lo" in raw:
        raw.setdefault("b_hi", raw["b_lo"])
    given = raw.get("distributions", {})
    dists = _default_distributions()
    for key, spec in given.items():
        if key not in dists:
            raise ValueError(f"unknown distribution key {key!r} (expected R, C, B, Q)")
        dists[key] = dist.from_config(spec)
    fields = {name: cast(raw[key]) for key, (name, cast) in _CONFIG_KEYS.items() if key in raw}
    config = HarnessConfig(**fields, distributions=dists)
    if "b_hi" in raw:  # b_lo or b_hi set: quantities U[b_lo, b_hi] unless B or Q is given
        derived = {k: dist.uniform(config.b_lo, config.b_hi) for k in ("B", "Q") if k not in given}
        config = replace(config, distributions={**dists, **derived})
    return config


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


def benchmark_block_size(num_buyers: int, num_sellers: int) -> int:
    """The maximal-block benchmark: every possible pair fits in one block.

    min(K, N) rounded up to an even pair count, so the cap never bites.
    """
    m = min(num_buyers, num_sellers)
    return m + (m % 2)


@dataclass(frozen=True)
class ComparisonSamples:
    """Per-replication welfare samples for each mechanism on shared populations."""

    num_buyers: int
    block_sizes: dict[str, float]
    samples: dict[str, np.ndarray]
    optimum: np.ndarray


_COMPARISON_VARIANTS = ("abs_distributional", "abs_non_selfish", "benchmark_max_block", "abs_complete")


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
    num_sellers: int,
    non_selfish_fraction: float,
    replications: int,
    seed: int,
    threads: int = 1,
) -> ComparisonSamples:
    """Paired-population welfare samples for every comparison variant at one N."""
    num_buyers = max(1, round(config.rho * num_sellers))
    mc = config.mechanism_config(num_buyers, num_sellers)
    variants = partial(_comparison_variants, optimal_block_size_distributional(mc), non_selfish_fraction)
    worker = partial(play_replication, mc, variants, seed)
    welfare, optima, sizes = zip(*_run_tasks(threads, worker, range(replications)))
    return ComparisonSamples(
        num_buyers=num_buyers,
        block_sizes={v: float(np.mean([s[v] for s in sizes])) for v in _COMPARISON_VARIANTS},
        samples={v: np.array([sw[v] for sw in welfare]) for v in _COMPARISON_VARIANTS},
        optimum=np.array(optima),
    )


def run_mechanism_comparison(spec: ExperimentSpec, config: HarnessConfig) -> list[dict]:
    """Welfare of the adjustable mechanisms and the maximal-block benchmark per N.

    The reported ratio is the performance quotient mean(sw) / mean(sw_opt),
    at most 1 on-model.  The abs_non_selfish variant routes the configured
    power share to miners following the welfare-greedy matching
    recommendation (a stand-in policy, labeled as such in the row).  At a
    share of 0 its miners are all selfish and play as abs_distributional's
    one, so the two rows are equal.
    """
    rows: list[dict] = []
    for n in spec.seller_grid:
        comp = compare_mechanisms(
            config, n, config.non_selfish_fraction, spec.replications, spec.seed, spec.threads
        )
        opt_mean = float(comp.optimum.mean())
        series = [
            (variant, comp.block_sizes[variant], comp.samples[variant])
            for variant in _COMPARISON_VARIANTS
        ]
        series.append(("social_optimum", comp.block_sizes["benchmark_max_block"], comp.optimum))
        for variant, a, sw in series:
            label = variant if variant != "abs_non_selfish" else "abs_non_selfish_recommending"
            mean, stderr = mean_stderr(sw)
            rows.append(
                result_row(
                    Scenario.MECHANISM_COMPARISON.value, label, n, comp.num_buyers, a,
                    mean, stderr, opt_mean, welfare_quotient(mean, opt_mean),
                )
            )
    return rows


def _random_counts_period(
    config: HarnessConfig, a_fixed: int, seed_key: int, period: int, n_t: int
) -> dict:
    """The report row of one period: replication ``period`` at its own count."""
    k_t = max(1, round(config.rho * n_t))
    draw_rng, rng = replication_rngs(seed_key, n_t, period)
    inst = sample_instance(config.mechanism_config(k_t, n_t), a_fixed, draw_rng)
    sw, opt = simulate_once(inst, rng).sw, social_optimum(inst)
    return result_row(
        Scenario.RANDOM_COUNTS.value, MechanismKind.ABS_DISTRIBUTIONAL.value, n_t, k_t, a_fixed,
        sw, 0.0, opt, welfare_quotient(sw, opt),
        period=period,
    )


def run_random_counts(
    spec: ExperimentSpec, config: HarnessConfig, count_sequence
) -> list[dict]:
    """Time series of performance under a block size fixed from the mean count.

    The block size comes from the distributional rule evaluated at the mean
    of ``count_sequence``; each period then draws its own participant counts
    and population.  Emits one row per period plus a summary row.
    """
    counts = [int(n) for n in count_sequence]
    if not counts:
        raise ValueError("count_sequence must be nonempty")
    mean_n = max(1, round(float(np.mean(counts))))
    mean_k = max(1, round(config.rho * mean_n))
    a_fixed = optimal_block_size_distributional(config.mechanism_config(mean_k, mean_n))

    worker = partial(_random_counts_period, config, a_fixed, spec.seed)
    rows = _run_tasks(spec.threads, worker, range(len(counts)), counts)
    ratios = [r["ratio"] for r in rows]
    sw_mean, sw_stderr = mean_stderr([r["sw_mean"] for r in rows])
    summary = result_row(
        Scenario.RANDOM_COUNTS.value, "summary", mean_n, mean_k, a_fixed,
        sw_mean, sw_stderr, float(np.mean([r["sw_opt"] for r in rows])), float(np.mean(ratios)),
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
    for n in spec.seller_grid:
        k = max(1, round(config.rho * n))
        mc = config.mechanism_config(k, n)
        report = capped_search_report(
            mc, max_block_size, mc_replications=spec.replications, rng_seed=spec.seed,
            threads=spec.threads,
        )
        a_bench = min(benchmark_block_size(k, n), max_block_size)
        for mechanism, a in (
            ("abs_capped", report.best_block_size),
            (MechanismKind.BENCHMARK_MAX_BLOCK.value, a_bench),
        ):
            i = report.block_sizes.index(a)
            sw, opt = report.mean_welfare[i], report.mean_optimum
            rows.append(
                result_row(
                    Scenario.BLOCK_SIZE_LIMIT.value, mechanism, n, k, a,
                    sw, report.stderr_welfare[i], opt, welfare_quotient(sw, opt),
                )
            )
    return rows
