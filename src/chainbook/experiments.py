"""Experiment orchestration: mechanism comparisons, random counts, capped sizes.

Every scenario runs its replications through
:func:`chainbook.mechanism.play_replication`, which draws a population once,
derives every variant from it, plays each distinct one once through
:func:`chainbook.welfare.simulate_once` (so ``quantize_fees`` holds
everywhere) and takes its exact optimum.  The samples come back as one result
type, :class:`chainbook.mechanism.PairedSamples`.  Replication r at N sellers
is keyed by (seed, N, r), so it is the same market in every scenario, and a
``random_counts`` period is replication t at its own count.
``blocksize_limit`` reads both of its rows, the capped choice and the
benchmark at min(benchmark, cap), from one capped search.  One helper,
:func:`welfare_row`, writes every welfare row, with
:func:`chainbook.welfare.mean_stderr` and
:func:`chainbook.welfare.welfare_quotient`.  Reports are byte-identical across
runs and worker counts."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from . import distributions as dist
from .distributions import ValueDistribution
from .market import miners_with_protocol_share
from .mechanism import (
    MechanismConfig,
    PairedSamples,
    capped_search_report,
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
    POA_WITNESS = "poa_witness"


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
_KIND_NAMES = {int: "a whole number", float: "a number", bool: "true or false"}


def _checked(key: str, kind: type, value):
    """``value`` as a ``kind`` config value, or a ValueError naming ``key``: a
    string ``"false"`` is not read as true, nor a ``K`` of 2.7 as 2."""
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = number and (kind is float or float(value).is_integer())
    if not ok:
        raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class HarnessConfig:
    """Market-level knobs shared by all scenarios (the config file keys in ``_CONFIG_KEYS``).

    Built in code or by :func:`load_config`, it checks its values and fills in
    the distributions not given: ``R`` and ``C`` uniform on [0, 1], ``B`` and
    ``Q`` uniform on [b_lo, b_hi] (a point mass at 1 by default).  It pickles
    as is, since each distribution pickles as its config.
    """

    num_buyers: int = 50
    num_sellers: int = 50
    rho: float = 1.0  # buyer count per seller when sweeping N
    delay_cost: float = 0.01
    fee_unit: float = 1e-6
    psi: float = 0.85
    b_lo: float = 1.0
    b_hi: float | None = None  # None: b_lo
    non_selfish_fraction: float = 0.0
    quantize_fees: bool = False
    distributions: dict[str, ValueDistribution] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.b_hi is None:
            object.__setattr__(self, "b_hi", self.b_lo)
        for key, (name, kind) in _CONFIG_KEYS.items():
            object.__setattr__(self, name, _checked(key, kind, getattr(self, name)))
        if not 0.0 <= self.non_selfish_fraction <= 1.0:
            raise ValueError("non_selfish_fraction must lie in [0, 1]")
        if self.num_buyers < 1 or self.num_sellers < 1:
            raise ValueError(f"K and N must be >= 1, got K={self.num_buyers}, N={self.num_sellers}")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho {self.rho} must be finite and > 0")
        if self.b_lo > self.b_hi:
            raise ValueError(f"b_lo {self.b_lo} exceeds b_hi {self.b_hi}")
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi {self.psi} must lie strictly inside (0, 1)")
        for key in self.distributions:
            if key not in ("R", "C", "B", "Q"):
                raise ValueError(f"unknown distribution key {key!r} (expected R, C, B, Q)")
        quantity = dist.uniform(self.b_lo, self.b_hi)
        defaults = {"R": dist.uniform(0.0, 1.0), "C": dist.uniform(0.0, 1.0), "B": quantity, "Q": quantity}
        object.__setattr__(self, "distributions", {**defaults, **self.distributions})

    def num_buyers_at(self, num_sellers: int) -> int:
        """K at N sellers when a scenario sweeps N: rho * N rounded, at least 1."""
        return max(1, round(self.rho * num_sellers))

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

    Absent keys take the :class:`HarnessConfig` defaults; an unknown key is an error.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    accepted = [*_CONFIG_KEYS, "distributions"]
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise ValueError(f"unknown config keys {unknown} (accepted: {', '.join(accepted)})")
    dists = {key: dist.from_config(spec) for key, spec in raw.get("distributions", {}).items()}
    fields = {name: raw[key] for key, (name, _) in _CONFIG_KEYS.items() if key in raw}
    return HarnessConfig(**fields, distributions=dists)


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
    num_sellers: int,
    non_selfish_fraction: float,
    replications: int,
    seed: int,
    threads: int = 1,
) -> PairedSamples:
    """Paired welfare samples of every comparison variant at one N."""
    mc = config.mechanism_config(config.num_buyers_at(num_sellers), num_sellers)
    variants = partial(_comparison_variants, optimal_block_size_distributional(mc), non_selfish_fraction)
    return paired_samples([mc] * replications, variants, seed, threads)


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
    for n in spec.seller_grid:
        k = config.num_buyers_at(n)
        comp = compare_mechanisms(
            config, n, config.non_selfish_fraction, spec.replications, spec.seed, spec.threads
        )
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
    mean_n = max(1, round(float(np.mean(counts))))
    mean_k = config.num_buyers_at(mean_n)
    a_fixed = optimal_block_size_distributional(config.mechanism_config(mean_k, mean_n))

    markets = [config.mechanism_config(config.num_buyers_at(n), n) for n in counts]
    periods = paired_samples(markets, partial(_distributional_variant, a_fixed), spec.seed, spec.threads)
    sw, opt = periods.samples["abs_distributional"], periods.optimum
    rows = [
        welfare_row(
            Scenario.RANDOM_COUNTS.value, "abs_distributional", mc.num_sellers, mc.num_buyers, a_fixed,
            [sw[t]], [opt[t]], period=t,
        )
        for t, mc in enumerate(markets)
    ]
    ratios = [r["ratio"] for r in rows]
    sw_mean, sw_stderr = mean_stderr(sw)
    summary = result_row(
        Scenario.RANDOM_COUNTS.value, "summary", mean_n, mean_k, a_fixed,
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
    for n in spec.seller_grid:
        k = config.num_buyers_at(n)
        report = capped_search_report(
            config.mechanism_config(k, n), max_block_size, mc_replications=spec.replications,
            rng_seed=spec.seed, threads=spec.threads,
        )
        a_bench = min(benchmark_block_size(k, n), max_block_size)
        for mechanism, a in (("abs_capped", report.best_variant()), ("benchmark_max_block", a_bench)):
            rows.append(
                welfare_row(Scenario.BLOCK_SIZE_LIMIT.value, mechanism, n, k, a, report.samples[a], report.optimum)
            )
    return rows
