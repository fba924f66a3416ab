"""Experiment orchestration: mechanism comparisons, random counts, capped sizes.

Scenarios sample populations from configured value distributions with
:func:`chainbook.mechanism.sample_instance`, pick block sizes per mechanism,
play each through :func:`chainbook.welfare.simulate_once` (so
``quantize_fees`` holds in every scenario), and report welfare against the
exact optimum.  Every replication's random stream is keyed by (seed, scenario
coordinates, replication), so results are byte-identical across runs and
across worker counts.  A population is drawn and built once per replication;
the variants a paired comparison needs (block size, miner set) are derived
from that one instance, and its optimum is computed once.  ``blocksize_limit``
reads both of its rows, the capped choice and the benchmark at
min(benchmark, cap), from one capped search, so they share populations,
streams and optimum.  Every scenario summarizes its samples with
:func:`chainbook.welfare.mean_stderr` and
:func:`chainbook.welfare.welfare_quotient`.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import distributions as dist
from .distributions import ValueDistribution
from .market import miners_with_protocol_share
from .mechanism import (
    MechanismConfig,
    capped_search_report,
    optimal_block_size_complete,
    optimal_block_size_distributional,
    sample_instance,
)
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


@dataclass(frozen=True)
class HarnessConfig:
    """Market-level knobs shared by all scenarios (mirrors the config file keys)."""

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
            "K": self.num_buyers,
            "N": self.num_sellers,
            "rho": self.rho,
            "d": self.delay_cost,
            "epsilon": self.fee_unit,
            "psi": self.psi,
            "b_lo": self.b_lo,
            "b_hi": self.b_hi,
            "non_selfish_fraction": self.non_selfish_fraction,
            "quantize_fees": self.quantize_fees,
            "distributions": {k: v.to_config() for k, v in self.distributions.items()},
        }


def load_config(path: str) -> HarnessConfig:
    """Read the key-value config file (JSON: K, N, rho, d, epsilon, psi, ...)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    dists = _default_distributions()
    for key, spec in raw.get("distributions", {}).items():
        if key not in dists:
            raise ValueError(f"unknown distribution key {key!r} (expected R, C, B, Q)")
        dists[key] = dist.from_config(spec)
    b_lo = float(raw.get("b_lo", 1.0))
    b_hi = float(raw.get("b_hi", b_lo))
    config = HarnessConfig(
        num_buyers=int(raw.get("K", 50)),
        num_sellers=int(raw.get("N", 50)),
        rho=float(raw.get("rho", 1.0)),
        delay_cost=float(raw.get("d", 0.01)),
        fee_unit=float(raw.get("epsilon", 1e-6)),
        psi=float(raw.get("psi", 0.85)),
        b_lo=b_lo,
        b_hi=b_hi,
        non_selfish_fraction=float(raw.get("non_selfish_fraction", 0.0)),
        quantize_fees=bool(raw.get("quantize_fees", False)),
        distributions=dists,
    )
    if "b_lo" in raw or "b_hi" in raw:  # quantities U[b_lo, b_hi] unless B or Q is given
        given = raw.get("distributions", {})
        derived = {k: dist.uniform(b_lo, b_hi) for k in ("B", "Q") if k not in given}
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


def benchmark_block_size(num_buyers: int, num_sellers: int) -> int:
    """The maximal-block benchmark: every possible pair fits in one block.

    min(K, N) rounded up to an even pair count, so the cap never bites.
    """
    m = min(num_buyers, num_sellers)
    return m + (m % 2)


@dataclass(frozen=True)
class ComparisonSamples:
    """Per-replication welfare samples for each mechanism on shared populations."""

    num_sellers: int
    num_buyers: int
    block_sizes: dict[str, float]
    samples: dict[str, np.ndarray]
    optimum: np.ndarray


_COMPARISON_VARIANTS = ("abs_distributional", "abs_non_selfish", "benchmark_max_block", "abs_complete")


def _comparison_replication(args) -> tuple[int, dict[str, float], float, dict[str, float]]:
    """One paired replication across all mechanism variants (worker-safe args)."""
    config_raw, n_sellers, a_dist, fraction, seed_key, rep = args
    config = _config_from_jsonable(config_raw)
    num_buyers = max(1, round(config.rho * n_sellers))
    draw_rng = np.random.default_rng(np.random.SeedSequence([seed_key, n_sellers, rep, 0]))
    base = sample_instance(config.mechanism_config(num_buyers, n_sellers), 1, draw_rng)

    sizes = {
        "abs_distributional": a_dist,
        "abs_non_selfish": a_dist,
        "benchmark_max_block": benchmark_block_size(num_buyers, n_sellers),
        "abs_complete": optimal_block_size_complete(base),
    }
    sw: dict[str, float] = {}
    for variant in _COMPARISON_VARIANTS:
        miners = miners_with_protocol_share(fraction) if variant == "abs_non_selfish" else None
        inst = base.with_block_size(sizes[variant], miners)
        # One simulation stream per replication, shared by every variant:
        # mechanisms that induce the same play produce identical welfare, so
        # paired comparisons are exact rather than coin flips on pairing luck.
        rng = np.random.default_rng(np.random.SeedSequence([seed_key, n_sellers, rep, 1]))
        sw[variant] = simulate_once(inst, rng).sw
    return rep, sw, social_optimum(base), sizes


def _config_from_jsonable(raw) -> HarnessConfig:
    if isinstance(raw, HarnessConfig):
        return raw
    dists = {k: dist.from_config(v) for k, v in raw["distributions"].items()}
    return HarnessConfig(
        num_buyers=raw["K"],
        num_sellers=raw["N"],
        rho=raw["rho"],
        delay_cost=raw["d"],
        fee_unit=raw["epsilon"],
        psi=raw["psi"],
        b_lo=raw["b_lo"],
        b_hi=raw["b_hi"],
        non_selfish_fraction=raw["non_selfish_fraction"],
        quantize_fees=raw["quantize_fees"],
        distributions=dists,
    )


def _run_tasks(tasks, worker, threads: int):
    if threads <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


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
    a_dist = optimal_block_size_distributional(config.mechanism_config(num_buyers, num_sellers))
    raw = config.to_jsonable()
    tasks = [
        (raw, num_sellers, a_dist, non_selfish_fraction, seed, rep) for rep in range(replications)
    ]
    results = _run_tasks(tasks, _comparison_replication, threads)
    results.sort(key=lambda t: t[0])

    samples = {v: np.array([r[1][v] for r in results]) for v in _COMPARISON_VARIANTS}
    optimum = np.array([r[2] for r in results])
    mean_sizes: dict[str, float] = {}
    for v in _COMPARISON_VARIANTS:
        mean_sizes[v] = float(np.mean([r[3][v] for r in results]))
    return ComparisonSamples(
        num_sellers=num_sellers,
        num_buyers=num_buyers,
        block_sizes=mean_sizes,
        samples=samples,
        optimum=optimum,
    )


def _row(scenario: str, mechanism: str, n: int, k: int, a: float, sw: np.ndarray, opt: float) -> dict:
    mean, stderr = mean_stderr(sw)
    return {
        "scenario": scenario,
        "mechanism": mechanism,
        "N": n,
        "K": k,
        "A": a,
        "sw_mean": mean,
        "sw_stderr": stderr,
        "sw_opt": opt,
        "ratio": welfare_quotient(mean, opt),
    }


def run_mechanism_comparison(spec: ExperimentSpec, config: HarnessConfig) -> list[dict]:
    """Welfare of the adjustable mechanisms and the maximal-block benchmark per N.

    The reported ratio is the performance quotient mean(sw) / mean(sw_opt),
    at most 1 on-model.  The abs_non_selfish variant routes the configured
    power share to miners following the welfare-greedy matching
    recommendation (a stand-in policy, labeled as such in the row).
    """
    rows: list[dict] = []
    for n in spec.seller_grid:
        comp = compare_mechanisms(
            config, n, config.non_selfish_fraction, spec.replications, spec.seed, spec.threads
        )
        opt_mean = float(comp.optimum.mean())
        for variant in _COMPARISON_VARIANTS:
            label = variant if variant != "abs_non_selfish" else "abs_non_selfish_recommending"
            rows.append(
                _row(
                    Scenario.MECHANISM_COMPARISON.value,
                    label,
                    n,
                    comp.num_buyers,
                    comp.block_sizes[variant],
                    comp.samples[variant],
                    opt_mean,
                )
            )
        rows.append(
            _row(
                Scenario.MECHANISM_COMPARISON.value,
                "social_optimum",
                n,
                comp.num_buyers,
                comp.block_sizes["benchmark_max_block"],
                comp.optimum,
                opt_mean,
            )
        )
    return rows


def _random_counts_period(args) -> tuple[int, float, float, int, int]:
    config_raw, n_t, a_fixed, seed_key, period = args
    config = _config_from_jsonable(config_raw)
    k_t = max(1, round(config.rho * n_t))
    rng = np.random.default_rng(np.random.SeedSequence([seed_key, period, 17]))
    inst = sample_instance(config.mechanism_config(k_t, n_t), a_fixed, rng)
    return period, simulate_once(inst, rng).sw, social_optimum(inst), n_t, k_t


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

    raw = config.to_jsonable()
    tasks = [(raw, n_t, a_fixed, spec.seed, t) for t, n_t in enumerate(counts)]
    results = _run_tasks(tasks, _random_counts_period, spec.threads)
    results.sort(key=lambda t: t[0])

    rows = []
    ratios = []
    for period, sw, opt, n_t, k_t in results:
        ratio = welfare_quotient(sw, opt)
        ratios.append(ratio)
        rows.append(
            {
                "scenario": Scenario.RANDOM_COUNTS.value,
                "mechanism": MechanismKind.ABS_DISTRIBUTIONAL.value,
                "period": period,
                "N": n_t,
                "K": k_t,
                "A": a_fixed,
                "sw_mean": sw,
                "sw_stderr": 0.0,
                "sw_opt": opt,
                "ratio": ratio,
            }
        )
    sw_mean, sw_stderr = mean_stderr([r[1] for r in results])
    rows.append(
        {
            "scenario": Scenario.RANDOM_COUNTS.value,
            "mechanism": "summary",
            "N": mean_n,
            "K": mean_k,
            "A": a_fixed,
            "sw_mean": sw_mean,
            "sw_stderr": sw_stderr,
            "sw_opt": float(np.mean([r[2] for r in results])),
            "ratio": float(np.mean(ratios)),
            "ratio_std": float(np.std(ratios)),
        }
    )
    return rows


def run_blocksize_limit(
    spec: ExperimentSpec, config: HarnessConfig, max_block_size: int
) -> list[dict]:
    """Capped brute-force block-size choice vs the benchmark under the same cap.

    Both rows come from one capped search: the chosen size and the benchmark
    size min(benchmark, cap), on the same populations and against their optimum.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    rows: list[dict] = []
    for n in spec.seller_grid:
        k = max(1, round(config.rho * n))
        mc = config.mechanism_config(k, n)
        report = capped_search_report(
            mc, max_block_size, mc_replications=spec.replications, rng_seed=spec.seed
        )
        a_bench = min(benchmark_block_size(k, n), max_block_size)
        for mechanism, a in (
            ("abs_capped", report.best_block_size),
            (MechanismKind.BENCHMARK_MAX_BLOCK.value, a_bench),
        ):
            i = report.block_sizes.index(a)
            rows.append(
                {
                    "scenario": Scenario.BLOCK_SIZE_LIMIT.value,
                    "mechanism": mechanism,
                    "N": n,
                    "K": k,
                    "A": a,
                    "sw_mean": report.mean_welfare[i],
                    "sw_stderr": report.stderr_welfare[i],
                    "sw_opt": report.mean_optimum,
                    "ratio": welfare_quotient(report.mean_welfare[i], report.mean_optimum),
                }
            )
    return rows
