"""Block-size mechanisms for the system designer, and the paired replications
every scenario runs.

Under complete information the welfare-optimal block size is the crossing
index of the realized utilities and costs.  Under distributional information
only, the designer solves N * C(eta) = K * (1 - R(eta)) for the market-
clearing quantile eta and sets A = floor(N * (C(eta) + N**-psi)): the
N**-psi term buys slack so that, as markets grow, all profitable pairs fit
into a single block with high probability.  A hard cap is handled by a
brute-force Monte Carlo search over block sizes.  Every scenario's
replications are keyed, drawn and played by :func:`play_replication` and
collected by :func:`paired_samples` into one result type, :class:`PairedSamples`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .distributions import ValueDistribution
from .equilibrium import crossing_index
from .market import MarketInstance, MinerPolicy, build_instance
from .welfare import simulate_once, social_optimum

__all__ = [
    "MechanismConfig",
    "optimal_block_size_complete",
    "solve_eta",
    "optimal_block_size_distributional",
    "capped_search_report",
    "PairedSamples",
    "paired_samples",
    "sample_instance",
    "play_replication",
]

ETA_TOL = 1e-12


@dataclass(frozen=True)
class MechanismConfig:
    """Designer-side knowledge: expected participant counts and value distributions."""

    num_buyers: int
    num_sellers: int
    psi: float
    utility_dist: ValueDistribution
    cost_dist: ValueDistribution
    buy_qty_dist: ValueDistribution
    sell_qty_dist: ValueDistribution
    delay_cost: float = 0.0
    fee_unit: float = 1e-6
    quantize_fees: bool = False  # passed on, with fee_unit, to every sampled market

    def __post_init__(self) -> None:
        if not 0.0 < self.psi < 1.0:
            raise ValueError("psi must lie strictly inside (0, 1)")
        if self.num_buyers < 1 or self.num_sellers < 1:
            raise ValueError("need at least one expected buyer and seller")


def optimal_block_size_complete(instance: MarketInstance) -> int:
    """Welfare-optimal block size with full knowledge of the realized values:
    the crossing index, and 1 for a dead market (crossing 0), where no block
    size matches anybody."""
    return max(crossing_index(instance), 1)


def solve_eta(config: MechanismConfig) -> float:
    """Leftmost root of N * C(eta) - K * (1 - R(eta)) on [0, 1], to 1e-12.

    The function is nondecreasing (C nondecreasing, R nondecreasing), so
    bisection on the sign predicate converges to the left edge of any flat
    zero stretch.
    """
    n, k = config.num_sellers, config.num_buyers

    def h(x: float) -> float:
        return n * float(config.cost_dist.cdf(x)) - k * (1.0 - float(config.utility_dist.cdf(x)))

    h0, h1 = h(0.0), h(1.0)
    if h0 > 0.0 or h1 < 0.0:
        raise ValueError(f"malformed distributions: h(0)={h0}, h(1)={h1}")
    if h0 >= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0  # h(lo) < 0 <= h(hi) throughout
    while hi - lo > ETA_TOL:
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def optimal_block_size_distributional(config: MechanismConfig) -> int:
    """floor(N * (C(eta) + N**-psi)), at least 1; deliberately never capped above."""
    eta = solve_eta(config)
    n = config.num_sellers
    raw = math.floor(n * (float(config.cost_dist.cdf(eta)) + n ** (-config.psi)))
    return max(raw, 1)


def sample_instance(
    config: MechanismConfig,
    block_size: int,
    rng: np.random.Generator,
) -> MarketInstance:
    """Draw one market realization from the configured distributions."""
    k, n = config.num_buyers, config.num_sellers
    return build_instance(
        utilities=config.utility_dist.sample(rng, k),
        costs=config.cost_dist.sample(rng, n),
        buy_quantities=config.buy_qty_dist.sample(rng, k),
        sell_quantities=config.sell_qty_dist.sample(rng, n),
        block_size=block_size,
        delay_cost=config.delay_cost,
        fee_unit=config.fee_unit,
        quantize_fees=config.quantize_fees,
    )


def play_replication(config: MechanismConfig, variants, seed: int, rep: int) -> tuple[dict, float, dict]:
    """One paired replication: welfare and block size per variant, and the optimum.

    The population is drawn from ``[seed, N, rep, 0]`` and played from
    ``[seed, N, rep, 1]``, so replication r at (seed, N) is the same market in
    every scenario.  ``variants`` (picklable, for process workers) maps the
    population to its instances by name.  Each plays from the rewound play
    generator, so a paired difference is the mechanism's, not pairing luck;
    variants with one block size and one policy mix (any all-selfish miner set
    plays as one) share one play.
    """
    draw_rng, rng = (np.random.default_rng(np.random.SeedSequence([seed, config.num_sellers, rep, s])) for s in (0, 1))
    base = sample_instance(config, 1, draw_rng)
    instances = variants(base)
    start = rng.bit_generator.state
    plays, sw = {}, {}  # welfare by (block size, policy mix), and by variant
    for variant, instance in instances.items():
        selfish = all(m.policy is MinerPolicy.SELFISH for m in instance.miners)
        key = instance.block_size, None if selfish else instance.miners
        if key not in plays:
            rng.bit_generator.state = start
            plays[key] = simulate_once(instance, rng).sw
        sw[variant] = plays[key]
    return sw, social_optimum(base), {variant: inst.block_size for variant, inst in instances.items()}


def _run_tasks(threads: int, worker, *iterables) -> list:
    """``map(worker, *iterables)`` in task order, over at most ``threads`` processes and one
    per task, each taking contiguous chunks: ``worker`` is pickled once per chunk."""
    threads = min(threads, len(iterables[0]))
    if threads <= 1:
        return list(map(worker, *iterables))
    from concurrent.futures import ProcessPoolExecutor  # a one-process run never loads it
    chunksize = math.ceil(len(iterables[0]) / threads)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, *iterables, chunksize=chunksize))


@dataclass(frozen=True, eq=False)
class PairedSamples:
    """Per variant (in the order ``variants`` built them), the welfare and block size
    of every replication, all on the same populations, and each one's optimum."""

    samples: dict[str | int, np.ndarray]
    block_sizes: dict[str | int, np.ndarray]
    optimum: np.ndarray

    def best_variant(self):
        """The variant of highest mean welfare; ties go to the first built."""
        means = [sw.mean() for sw in self.samples.values()]
        return list(self.samples)[int(np.argmax(means))]  # argmax returns the first maximizer


def paired_samples(configs, variants, seed: int, threads: int = 1) -> PairedSamples:
    """Replication r of the market ``configs[r]`` for every r, by :func:`play_replication`
    over ``threads`` processes; keyed by (seed, N, r), it does not depend on ``threads``."""
    if len(configs) < 1:
        raise ValueError("mc_replications must be >= 1")
    plays = _run_tasks(threads, play_replication, configs, repeat(variants), repeat(seed), range(len(configs)))
    welfare, optima, sizes = zip(*plays)
    return PairedSamples(
        samples={v: np.array([sw[v] for sw in welfare]) for v in welfare[0]},
        block_sizes={v: np.array([a[v] for a in sizes]) for v in sizes[0]},
        optimum=np.array(optima),
    )


def _candidate_sizes(max_block_size: int, base: MarketInstance) -> dict[int, MarketInstance]:
    return {a: base.with_block_size(a) for a in range(1, max_block_size + 1)}


def capped_search_report(
    config: MechanismConfig,
    max_block_size: int,
    mc_replications: int = 200,
    rng_seed: int = 0,
    threads: int = 1,
) -> PairedSamples:
    """Paired welfare samples of every block size A in 1..cap, keyed by A.

    Every replication plays every size on its one population, so the
    comparison is paired and the optimum is taken from the same populations.
    The capped choice is ``best_variant()``: ties go to the smaller size.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    candidates = partial(_candidate_sizes, max_block_size)
    return paired_samples([config] * mc_replications, candidates, rng_seed, threads)
