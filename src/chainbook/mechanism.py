"""Block-size mechanisms for the system designer.

Under complete information the welfare-optimal block size is the crossing
index of the realized utilities and costs.  Under distributional information
only, the designer solves N * C(eta) = K * (1 - R(eta)) for the market-
clearing quantile eta and sets A = floor(N * (C(eta) + N**-psi)): the
N**-psi term buys slack so that, as markets grow, all profitable pairs fit
into a single block with high probability.  A hard cap is handled by a
brute-force Monte Carlo search over block sizes; its report carries the
mean optimum of the populations it played on, so every size's welfare is
compared on paired populations.  Every scenario's replications are keyed,
drawn and played by :func:`play_replication` and run by ``_run_tasks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import ValueDistribution
from .equilibrium import crossing_index
from .market import MarketInstance, MinerPolicy, build_instance
from .welfare import mean_stderr, simulate_once, social_optimum

__all__ = [
    "MechanismConfig",
    "optimal_block_size_complete",
    "solve_eta",
    "optimal_block_size_distributional",
    "capped_search_report",
    "CappedSearchReport",
    "sample_instance",
    "replication_rngs",
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


def replication_rngs(seed: int, num_sellers: int, rep: int) -> list[np.random.Generator]:
    """Replication ``rep``'s draw and play generators at ``num_sellers`` sellers,
    keyed ``[seed, N, rep, 0]`` and ``[seed, N, rep, 1]``: replication r at
    (seed, N) is the same market, played from the same stream, in every scenario."""
    return [np.random.default_rng(np.random.SeedSequence([seed, num_sellers, rep, s])) for s in (0, 1)]


def play_replication(config: MechanismConfig, variants, seed: int, rep: int) -> tuple[dict, float, dict]:
    """One paired replication: welfare and block size per variant, and the optimum.

    ``variants`` (picklable, for process workers) maps the population, drawn
    once, to its instances by name.  Each plays from the rewound play generator,
    so a paired difference is the mechanism's, not pairing luck; variants with one
    block size and one policy mix (any all-selfish miner set plays as one) share one play.
    """
    draw_rng, rng = replication_rngs(seed, config.num_sellers, rep)
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


@dataclass(frozen=True)
class CappedSearchReport:
    """Welfare per candidate size; ``mean_optimum`` is the mean ``social_optimum``
    of the same populations the sizes were played on."""

    best_block_size: int
    block_sizes: tuple[int, ...]
    mean_welfare: tuple[float, ...]
    stderr_welfare: tuple[float, ...]
    mean_optimum: float


def _candidate_sizes(max_block_size: int, base: MarketInstance) -> dict[int, MarketInstance]:
    return {a: base.with_block_size(a) for a in range(1, max_block_size + 1)}


def capped_search_report(
    config: MechanismConfig,
    max_block_size: int,
    mc_replications: int = 200,
    rng_seed: int = 0,
    threads: int = 1,
) -> CappedSearchReport:
    """Estimate expected equilibrium welfare for each A in 1..cap and rank them.

    Each replication is a :func:`play_replication` keyed by (seed, N,
    replication) that plays every block size on its one population, so the
    comparison is paired, the optimum is taken from the same populations and
    the result does not depend on ``threads``.  Ties go to the smaller size.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    if mc_replications < 1:
        raise ValueError("mc_replications must be >= 1")
    worker = partial(play_replication, config, partial(_candidate_sizes, max_block_size), rng_seed)
    welfare, optima, _ = zip(*_run_tasks(threads, worker, range(mc_replications)))
    sizes = range(1, max_block_size + 1)
    means, errs = zip(*(mean_stderr([sw[a] for sw in welfare]) for a in sizes))
    best = sizes[int(np.argmax(means))]  # argmax returns the first, i.e. smallest, maximizer
    return CappedSearchReport(
        best_block_size=best,
        block_sizes=tuple(sizes),
        mean_welfare=means,
        stderr_welfare=errs,
        mean_optimum=float(np.mean(optima)),
    )
