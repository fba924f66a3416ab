"""The market, the designer's block-size mechanisms, and the paired replications
every scenario runs.

One type, :class:`HarnessConfig`, describes the market that the rules read
and the harness samples; a scenario takes it at N sellers with
:meth:`HarnessConfig.at`.  Under complete information the welfare-optimal
block size is the crossing index of the realized utilities and costs.  Under
distributional information only, the designer solves N * C(eta) = K * (1 -
R(eta)) for the market-clearing quantile eta and sets A = floor(N * (C(eta) +
N**-psi)): the N**-psi term buys slack so that, as markets grow, all
profitable pairs fit into a single block with high probability.  A hard cap
is handled by a brute-force Monte Carlo search over block sizes.  Every
scenario's replications are keyed, drawn and played by
:func:`play_replication`, and :func:`paired_samples` runs a scenario's whole grid
as one task list into one result type, :class:`PairedSamples`, per grid point."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from . import distributions as dist
from .distributions import ValueDistribution
from .equilibrium import crossing_index
from .market import MarketInstance, MinerPolicy, build_instance
from .welfare import simulate_once, social_optimum

__all__ = [
    "HarnessConfig",
    "load_config",
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
    """The market, for the designer's rules and every scenario (file keys in ``_CONFIG_KEYS``).

    A scenario that sweeps N takes it at N sellers with :meth:`at`.  Built in code or by
    :func:`load_config`, it checks its values.  ``distributions`` holds those given, and
    :attr:`all_distributions` adds ``R`` and ``C`` uniform on [0, 1] and ``B`` and ``Q``
    uniform on [b_lo, b_hi] (a point mass at 1 by default), so a ``replace`` derives them
    anew.  ``b_hi`` likewise stays None unless given, and reads as ``b_lo`` where it is used
    (the config echo of :meth:`to_jsonable` too).  It pickles as is, since each distribution
    pickles as its config.
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
        for key, (name, kind) in _CONFIG_KEYS.items():
            if name != "b_hi" or self.b_hi is not None:
                object.__setattr__(self, name, _checked(key, kind, getattr(self, name)))
        if not 0.0 <= self.non_selfish_fraction <= 1.0:
            raise ValueError("non_selfish_fraction must lie in [0, 1]")
        if self.num_buyers < 1 or self.num_sellers < 1:
            raise ValueError(f"K and N must be >= 1, got K={self.num_buyers}, N={self.num_sellers}")
        b_lo, b_hi = self._quantity_range
        for key, value in (("rho", self.rho), ("epsilon", self.fee_unit), ("b_lo", b_lo), ("b_hi", b_hi)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        if not (math.isfinite(self.delay_cost) and self.delay_cost >= 0.0):
            raise ValueError(f"d must be finite and >= 0, got {self.delay_cost}")
        if b_lo > b_hi:
            raise ValueError(f"b_lo {b_lo} exceeds b_hi {b_hi}")
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi {self.psi} must lie strictly inside (0, 1)")
        for key in self.distributions:
            if key not in ("R", "C", "B", "Q"):
                raise ValueError(f"unknown distribution key {key!r} (expected R, C, B, Q)")

    @property
    def _quantity_range(self) -> tuple[float, float]:
        """[b_lo, b_hi], with b_hi = b_lo when not given."""
        return self.b_lo, self.b_lo if self.b_hi is None else self.b_hi

    @cached_property
    def all_distributions(self) -> dict[str, ValueDistribution]:
        """R, C, B and Q: the ones given, and the defaults for the rest."""
        quantity = dist.uniform(*self._quantity_range)
        defaults = {"R": dist.uniform(0.0, 1.0), "C": dist.uniform(0.0, 1.0), "B": quantity, "Q": quantity}
        return {**defaults, **self.distributions}

    def at(self, num_sellers: int) -> HarnessConfig:
        """The market at N sellers when a scenario sweeps N: K is rho * N rounded, at least 1."""
        return replace(self, num_sellers=num_sellers, num_buyers=max(1, round(self.rho * num_sellers)))

    def to_jsonable(self) -> dict:
        return {
            **{key: getattr(self, name) for key, (name, _) in _CONFIG_KEYS.items()},
            "b_hi": self._quantity_range[1],
            "distributions": {k: v.to_config() for k, v in self.all_distributions.items()},
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


def optimal_block_size_complete(instance: MarketInstance) -> int:
    """Welfare-optimal block size with full knowledge of the realized values:
    the crossing index, and 1 for a dead market (crossing 0), where no block
    size matches anybody."""
    return max(crossing_index(instance), 1)


def solve_eta(config: HarnessConfig) -> float:
    """Leftmost root of N * C(eta) - K * (1 - R(eta)) on [0, 1], to 1e-12.

    The function is nondecreasing (C nondecreasing, R nondecreasing), so
    bisection on the sign predicate converges to the left edge of any flat
    zero stretch.
    """
    n, k = config.num_sellers, config.num_buyers
    utility, cost = config.all_distributions["R"], config.all_distributions["C"]

    def h(x: float) -> float:
        return n * float(cost.cdf(x)) - k * (1.0 - float(utility.cdf(x)))

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


def optimal_block_size_distributional(config: HarnessConfig) -> int:
    """floor(N * (C(eta) + N**-psi)), at least 1; deliberately never capped above."""
    eta = solve_eta(config)
    n = config.num_sellers
    raw = math.floor(n * (float(config.all_distributions["C"].cdf(eta)) + n ** (-config.psi)))
    return max(raw, 1)


def sample_instance(
    config: HarnessConfig,
    block_size: int,
    rng: np.random.Generator,
) -> MarketInstance:
    """Draw one market realization from the configured distributions."""
    k, n, dists = config.num_buyers, config.num_sellers, config.all_distributions
    return build_instance(
        utilities=dists["R"].sample(rng, k),
        costs=dists["C"].sample(rng, n),
        buy_quantities=dists["B"].sample(rng, k),
        sell_quantities=dists["Q"].sample(rng, n),
        block_size=block_size,
        delay_cost=config.delay_cost,
        fee_unit=config.fee_unit,
        quantize_fees=config.quantize_fees,
    )


def play_replication(config: HarnessConfig, variants, seed: int, rep: int) -> tuple[dict, float, dict]:
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
            plays[key] = simulate_once(instance, rng)
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


def paired_samples(rows, variants, seed: int, threads: int = 1) -> list[PairedSamples]:
    """One :class:`PairedSamples` per grid point g, whose replication r is the market ``rows[r][g]``
    played with ``variants[g]`` by :func:`play_replication`.  All replications are one task list over
    ``threads`` processes (one pool at most), row by row: each process's contiguous chunk mixes the grid."""
    if len(rows) < 1 or len(variants) < 1:
        raise ValueError("mc_replications must be >= 1 and the grid nonempty")
    tasks = [(config, v, seed, r) for r, row in enumerate(rows) for config, v in zip(row, variants, strict=True)]
    plays = _run_tasks(threads, play_replication, *map(list, zip(*tasks)))
    results = []
    for g in range(len(variants)):
        welfare, optima, sizes = zip(*plays[g :: len(variants)])
        results.append(PairedSamples(
            samples={v: np.array([sw[v] for sw in welfare]) for v in welfare[0]},
            block_sizes={v: np.array([a[v] for a in sizes]) for v in sizes[0]},
            optimum=np.array(optima),
        ))
    return results


def _candidate_sizes(max_block_size: int, base: MarketInstance) -> dict[int, MarketInstance]:
    return {a: base.with_block_size(a) for a in range(1, max_block_size + 1)}


def capped_search_report(
    configs,
    max_block_size: int,
    mc_replications: int = 200,
    rng_seed: int = 0,
    threads: int = 1,
) -> list[PairedSamples]:
    """Per market of ``configs``, paired welfare samples of every block size A in 1..cap, keyed by A.

    Every replication plays every size on its one population, so the
    comparison is paired and the optimum is taken from the same populations.
    The capped choice is ``best_variant()``: ties go to the smaller size.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    candidates = partial(_candidate_sizes, max_block_size)
    return paired_samples([list(configs)] * mc_replications, [candidates] * len(configs), rng_seed, threads)
