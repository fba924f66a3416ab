"""Block-size mechanisms for the system designer.

Under complete information the welfare-optimal block size is the crossing
index of the realized utilities and costs.  Under distributional information
only, the designer solves N * C(eta) = K * (1 - R(eta)) for the market-
clearing quantile eta and sets A = floor(N * (C(eta) + N**-psi)): the
N**-psi term buys slack so that, as markets grow, all profitable pairs fit
into a single block with high probability.  A hard cap is handled by a
brute-force Monte Carlo search over block sizes; its report carries the
mean optimum of the populations it played on, so every size's welfare is
compared on paired populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ValueDistribution
from .equilibrium import crossing_index
from .market import MarketInstance, build_instance
from .welfare import mean_stderr, simulate_once, social_optimum

__all__ = [
    "MechanismConfig",
    "optimal_block_size_complete",
    "solve_eta",
    "optimal_block_size_distributional",
    "capped_search_report",
    "CappedSearchReport",
    "sample_instance",
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


@dataclass(frozen=True)
class CappedSearchReport:
    """Welfare per candidate size; ``mean_optimum`` is the mean ``social_optimum``
    of the same populations the sizes were played on."""

    best_block_size: int
    block_sizes: tuple[int, ...]
    mean_welfare: tuple[float, ...]
    stderr_welfare: tuple[float, ...]
    mean_optimum: float


def capped_search_report(
    config: MechanismConfig,
    max_block_size: int,
    mc_replications: int = 200,
    rng_seed: int = 0,
) -> CappedSearchReport:
    """Estimate expected equilibrium welfare for each A in 1..cap and rank them.

    Each replication draws one population (seeded by replication only) and
    plays every block size on it, each from the generator state right after
    the draws (plays leave the generator's seed sequence alone), so every
    size sees the same participants and the same stream position.  The
    comparison is paired and deterministic for a given seed, and the optimum
    is taken from the same populations.  Ties go to the smaller block size.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    if mc_replications < 1:
        raise ValueError("mc_replications must be >= 1")
    sizes = list(range(1, max_block_size + 1))
    samples: list[list[float]] = [[] for _ in sizes]
    optima = []
    for rep in range(mc_replications):
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, rep]))
        base = sample_instance(config, 1, rng)
        optima.append(social_optimum(base))
        drawn = rng.bit_generator.state
        for a, welfare in zip(sizes, samples):
            rng.bit_generator.state = drawn
            welfare.append(simulate_once(base.with_block_size(a), rng).sw)
    means, errs = zip(*(mean_stderr(welfare) for welfare in samples))
    best = sizes[int(np.argmax(means))]  # argmax returns the first, i.e. smallest, maximizer
    return CappedSearchReport(
        best_block_size=best,
        block_sizes=tuple(sizes),
        mean_welfare=means,
        stderr_welfare=errs,
        mean_optimum=float(np.mean(optima)),
    )
