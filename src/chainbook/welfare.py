"""Equilibrium play, welfare accounting, the exact optimum, and worst-case ratios.

:func:`simulate_once` is the only play path (equilibrium fees, rounded to
whole fee units when the market quantizes; the horizon; welfare): the capped
block-size search, :func:`performance_ratio` and the experiment scenarios
all play through it.  Social welfare is the sum of all buyer, seller, and
miner payoffs.  Fees are pure transfers from participants to the winning
miners, so realized welfare reduces to matched surplus minus delay costs.
The social optimum is free to use one arbitrarily large block, which kills
the delay term and reduces the problem to a maximum-weight bipartite
matching with edge weight min(b, q) * (R - C) over compatible pairs, solved
by sorting when quantities are homogeneous and otherwise by
:func:`chainbook.miners.max_weight_assignment`, which returns exactly the
assignment of scipy's ``linear_sum_assignment`` and imports scipy only for
matrices above 24 x 24 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import (
    FeeProfile,
    MarketInstance,
    MatchTrace,
    build_instance,
    miner_round_payoff,
)
from .miners import max_weight_assignment, run_horizon
from . import equilibrium as eq

__all__ = [
    "WelfareReport",
    "simulate_once",
    "social_welfare",
    "social_optimum",
    "performance_ratio",
    "mean_stderr",
    "welfare_quotient",
    "unbounded_poa_witness",
]


@dataclass(frozen=True)
class WelfareReport:
    """Realized welfare, its components, and (optionally) the optimum and ratio.

    ``ratio`` is the anarchy-style quotient sw_opt / sw (>= 1 on-model); the
    harness separately reports the performance quotient sw / sw_opt (<= 1).
    """

    sw: float
    matched_surplus: float
    delay_total: float
    fee_total: float
    sw_opt: float | None = None
    ratio: float | None = None
    sw_stderr: float = 0.0


def social_welfare(
    instance: MarketInstance, trace: MatchTrace, profile: FeeProfile
) -> WelfareReport:
    """Sum all participant payoffs plus the miners' realized fee revenue.

    The winning miner of each round collects exactly the fees the matched
    participants pay, so the fee terms cancel and sw also equals matched
    surplus minus both sides' delay costs (reported as components).
    """
    flat = [x for rec in trace.rounds for b, s in rec.pairs for x in (rec.block, b, s)]
    blocks, b, s = np.array(flat, dtype=np.intp).reshape(-1, 3).T
    r, c = instance.utility_array[b], instance.cost_array[s]
    qty = np.minimum(instance.buy_qty_array[b], instance.sell_qty_array[s])
    mid = (r + c) / 2.0
    d = instance.delay_cost
    delay = (blocks - 1) * d
    # buyer_payoff + seller_payoff of every pair, element by element.
    payoffs = (qty * (r - mid) - np.asarray(profile.buy_fees, dtype=float)[b] - delay) + (
        qty * (mid - c) - np.asarray(profile.sell_fees, dtype=float)[s] - delay
    )
    # The winner of each round collects exactly that block's fees.
    block_fees = [
        miner_round_payoff([profile.buy_fees[i] for i, _ in rec.pairs]
                           + [profile.sell_fees[j] for _, j in rec.pairs], 1.0)
        for rec in trace.rounds
    ]
    # fsum is correctly rounded, so the order of its terms does not matter;
    # the components keep their left-to-right accumulation.
    sw = math.fsum(payoffs.tolist() + block_fees)
    fee_total = surplus_total = delay_total = 0.0
    for fees in block_fees:
        fee_total += fees
    for surplus, delay_cost in zip((qty * (r - c)).tolist(), (2 * (blocks - 1) * d).tolist()):
        surplus_total += surplus
        delay_total += delay_cost
    return WelfareReport(
        sw=sw, matched_surplus=surplus_total, delay_total=delay_total, fee_total=fee_total
    )


def simulate_once(instance: MarketInstance, rng: np.random.Generator) -> WelfareReport:
    """Realized welfare of one equilibrium play-through of ``instance``.

    The fees are the pure equilibrium when one exists, else a mixed draw
    from ``rng``; with ``instance.quantize_fees`` they are rounded to whole
    ``fee_unit``s before the horizon is played from the same ``rng``.
    """
    profile = eq.equilibrium_profile(instance, rng)
    if instance.quantize_fees:
        profile = profile.quantized(instance.fee_unit)
    trace = run_horizon(instance, profile, rng)
    return social_welfare(instance, trace, profile)


def social_optimum(instance: MarketInstance) -> float:
    """Exact optimum welfare: max-weight matching, unmatched participants allowed.

    With homogeneous quantities the optimum is assortative, so the positive
    part of the sorted rank differences is summed directly; otherwise
    ``max_weight_assignment`` runs on the zero-clamped weight matrix.
    """
    r = instance.utility_array
    c = instance.cost_array
    bq = instance.buy_qty_array
    sq = instance.sell_qty_array

    if np.all(bq == bq[0]) and np.all(sq == sq[0]) and bq[0] == sq[0]:
        qty = float(bq[0])
        r_desc = np.sort(r)[::-1]
        c_asc = np.sort(c)
        m = min(len(r_desc), len(c_asc))
        diffs = r_desc[:m] - c_asc[:m]
        return qty * float(np.sum(diffs[diffs > 0.0]))

    weights = np.minimum(bq[:, None], sq[None, :]) * (r[:, None] - c[None, :])
    weights = np.where(r[:, None] >= c[None, :], weights, 0.0)
    weights = np.maximum(weights, 0.0)
    rows, cols = max_weight_assignment(weights)
    return float(weights[rows, cols].sum())


def mean_stderr(samples) -> tuple[float, float]:
    """Sample mean and its standard error (ddof=1); the error is 0 for one sample."""
    x = np.asarray(samples, dtype=float)
    stderr = float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return float(x.mean()), stderr


def welfare_quotient(sw: float, sw_opt: float) -> float:
    """The performance quotient sw / sw_opt reported in result rows.

    With no positive optimum, nothing is lost when sw <= 0 (quotient 1) and
    a positive sw is flagged as infinite.
    """
    if sw_opt > 0:
        return sw / sw_opt
    return 1.0 if sw <= 0 else math.inf


def performance_ratio(
    instance: MarketInstance,
    mechanism_block_size: int,
    mc_replications: int = 1,
    rng_seed: int = 0,
) -> WelfareReport:
    """Equilibrium welfare under a given block size, against the exact optimum.

    Sets A and plays the stage-one equilibrium (pure when it exists, mixed
    draws otherwise) once per replication, each from its own spawned seed,
    and reports the mean realized welfare, the optimum, and their quotient.
    A nonpositive mean with a positive optimum is flagged as an infinite ratio.
    """
    inst = instance.with_block_size(mechanism_block_size)
    sw_opt = social_optimum(inst)
    seeds = np.random.SeedSequence(rng_seed).spawn(mc_replications)
    reports = [simulate_once(inst, np.random.default_rng(seed)) for seed in seeds]
    samples = [rep.sw for rep in reports]

    n = len(samples)
    sw_mean, stderr = mean_stderr(samples)
    if sw_mean > 0.0:
        ratio = sw_opt / sw_mean
    elif sw_opt <= 1e-15:
        ratio = 1.0  # nothing tradable: both sides of the quotient vanish
    else:
        ratio = math.inf
    return WelfareReport(
        sw=sw_mean,
        matched_surplus=sum(rep.matched_surplus for rep in reports) / n,
        delay_total=sum(rep.delay_total for rep in reports) / n,
        fee_total=sum(rep.fee_total for rep in reports) / n,
        sw_opt=sw_opt,
        ratio=ratio,
        sw_stderr=stderr,
    )


def unbounded_poa_witness(
    target_ratio: float,
) -> tuple[MarketInstance, MarketInstance]:
    """Two 2x2 unit-quantity markets whose optimum-to-equilibrium ratio hits a target.

    The first drives the ratio up with an oversized block: the fee-ranked
    block pairs the star buyer with the expensive seller, wasting almost the
    whole gain from trade.  The second drives it up with an undersized block:
    half the trades slip to the second block and the delay cost eats almost
    all the surplus.  Both are validated by simulation in the tests.
    """
    if target_ratio < 1.0:
        raise ValueError("target_ratio must be at least 1")

    # Oversized block: C1 < R2 < C2 < R1 with a tiny compatible margin on both
    # cross pairs; ratio = (R1 - C1) / ((R1 - C2) + (R2 - C1)) = target.
    margin = 1.0 / (2.0 * target_ratio)
    c1 = 0.0
    r2 = margin
    r1 = 1.0
    c2 = 1.0 - margin
    high = build_instance(
        utilities=[r1, r2],
        costs=[c1, c2],
        block_size=2,
        delay_cost=0.0,
        fee_unit=min(1e-6, margin * 1e-3),
    )

    # Undersized block: all four orders compatible but only one pair per block;
    # delay just below half the total surplus makes the leftover vanish.
    r = [0.9, 0.8]
    c = [0.1, 0.2]
    total = sum(r) - sum(c)
    d = 0.5 * total * (1.0 - 1.0 / target_ratio)
    low = build_instance(utilities=r, costs=c, block_size=1, delay_cost=d, horizon=2)
    return high, low
