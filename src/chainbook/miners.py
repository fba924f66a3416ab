"""Miner block filling: selfish prefix selection and the matching recommendation.

A selfish miner ranks pending transactions by fee (ties shuffled with the
round's seed, zero-fee transactions rejected) and keeps, among prefix sizes
i = 1..min(A, pending buyers, pending sellers), the feasible prefix with the
largest fee total.  Feasibility of every prefix comes from one all-prefix
Hall check: O(A^2) element operations in A / ``_HALL_ROWS`` vectorized numpy
blocks, in O(_HALL_ROWS * A) memory.  A protocol-following miner instead
adopts the welfare-greedy matching recommendation.  One winner per round is
drawn with the miners' power weights; its selection is appended to the chain
and removed from the pending pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .market import (
    FeeProfile,
    MarketInstance,
    MatchTrace,
    MinerPolicy,
    RoundRecord,
)

__all__ = [
    "PendingPool",
    "Selection",
    "selfish_select",
    "recommend_matching",
    "uniform_feasible_pairing",
    "run_round",
    "run_horizon",
]


@dataclass(frozen=True)
class PendingPool:
    """Transactions still waiting for inclusion at the start of round ``round_index``."""

    buyer_ids: tuple[int, ...]
    buy_fees: tuple[float, ...]
    seller_ids: tuple[int, ...]
    sell_fees: tuple[float, ...]
    round_index: int = 1

    @classmethod
    def from_instance(cls, instance: MarketInstance, profile: FeeProfile) -> "PendingPool":
        if len(profile.buy_fees) != instance.num_buyers or len(profile.sell_fees) != instance.num_sellers:
            raise ValueError("fee profile does not match instance participant counts")
        return cls(
            buyer_ids=tuple(range(instance.num_buyers)),
            buy_fees=profile.buy_fees,
            seller_ids=tuple(range(instance.num_sellers)),
            sell_fees=profile.sell_fees,
        )

    @property
    def is_empty(self) -> bool:
        return not self.buyer_ids or not self.seller_ids

    def remove(self, selection: "Selection") -> "PendingPool":
        chosen_buyers = set(selection.buyer_ids)
        chosen_sellers = set(selection.seller_ids)
        keep_b = [i for i, bid in enumerate(self.buyer_ids) if bid not in chosen_buyers]
        keep_s = [i for i, sid in enumerate(self.seller_ids) if sid not in chosen_sellers]
        return PendingPool(
            buyer_ids=tuple(self.buyer_ids[i] for i in keep_b),
            buy_fees=tuple(self.buy_fees[i] for i in keep_b),
            seller_ids=tuple(self.seller_ids[i] for i in keep_s),
            sell_fees=tuple(self.sell_fees[i] for i in keep_s),
            round_index=self.round_index + 1,
        )


@dataclass(frozen=True)
class Selection:
    """One miner's chosen transactions for a block, with a realized pairing."""

    buyer_ids: tuple[int, ...]
    seller_ids: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...]
    total_fee: float

    @property
    def size(self) -> int:
        return len(self.buyer_ids)

    @property
    def is_empty(self) -> bool:
        return not self.buyer_ids


_EMPTY = Selection(buyer_ids=(), seller_ids=(), pairing=(), total_fee=0.0)

# Prefixes per block of the all-prefix Hall check; bounds its working memory.
_HALL_ROWS = 64


def uniform_feasible_pairing(
    buyer_ids: np.ndarray,
    utilities: np.ndarray,
    seller_ids: np.ndarray,
    costs: np.ndarray,
    rng: np.random.Generator,
) -> tuple[tuple[int, int], ...]:
    """Draw a uniform random perfect matching among those with R >= C pairwise.

    Compatibility is a threshold relation, so seller neighborhoods are nested:
    working through sellers from most to least expensive, every buyer already
    assigned would also have been compatible with the current seller.  Picking
    uniformly among the not-yet-used compatible buyers at each step therefore
    samples exactly uniformly over all feasible perfect matchings.
    """
    order_b = np.argsort(utilities, kind="stable")
    r_sorted = utilities[order_b]
    b_sorted = buyer_ids[order_b].tolist()
    order_s = np.argsort(-costs, kind="stable")
    # Buyers at sorted position >= lo are compatible with the seller.
    lows = np.searchsorted(r_sorted, costs[order_s], side="left").tolist()

    pairs: list[tuple[int, int]] = []
    active: list[int] = []  # positions into b_sorted, compatible and unused
    next_in = len(b_sorted)  # buyers with index >= next_in already activated
    for lo, seller in zip(lows, seller_ids[order_s].tolist()):
        while next_in > lo:
            next_in -= 1
            active.append(next_in)
        if not active:
            raise ValueError("no feasible perfect matching for the given sides")
        pick = int(rng.integers(len(active)))
        active[pick], active[-1] = active[-1], active[pick]
        chosen = active.pop()
        pairs.append((b_sorted[chosen], seller))
    return tuple(pairs)


def _fee_ranked(
    ids: tuple[int, ...], fees: tuple[float, ...], rng: np.random.Generator
) -> np.ndarray:
    """Positions sorted by fee descending, equal fees shuffled uniformly."""
    fees_arr = np.asarray(fees)
    keep = np.flatnonzero(fees_arr > 0.0)  # zero-fee transactions are rejected
    tiebreak = rng.random(len(keep))
    order = np.lexsort((tiebreak, -fees_arr[keep]))
    return keep[order]


def _feasible_prefixes(utilities: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Feasibility of every prefix of the ranked buyers and sellers at once.

    Entry i - 1 is True iff the first i buyers and the first i sellers admit
    a perfect matching with R >= C on every pair.

    Hall's condition for the threshold graph: a prefix is feasible iff at
    every threshold x it holds no more buyers with R < x than sellers with
    C < x, and the sorted costs are enough thresholds.  The slack
    #{C < x} - #{R < x} of each (prefix, threshold) pair is a cumulative sum
    over the prefixes; it is built ``_HALL_ROWS`` prefixes at a time, each
    block starting from the last slack row of the one before.
    """
    n = len(costs)
    thresholds = np.sort(costs)
    cols = np.arange(n)
    # A participant counts at every threshold from this position on.
    pos_b = np.searchsorted(thresholds, utilities, side="right")
    pos_s = np.searchsorted(thresholds, costs, side="right")
    feasible = np.empty(n, dtype=bool)
    carry = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _HALL_ROWS):
        block = slice(start, start + _HALL_ROWS)
        slack = (pos_s[block, None] <= cols).astype(np.int64)
        slack -= pos_b[block, None] <= cols
        np.cumsum(slack, axis=0, out=slack)
        slack += carry
        feasible[block] = slack.min(axis=1) >= 0
        carry = slack[-1]
    return feasible


def selfish_select(
    pool: PendingPool,
    instance: MarketInstance,
    rng: np.random.Generator | int | None = None,
) -> Selection:
    """Fee-maximizing feasible prefix selection for one block.

    Checks every prefix i = 1..min(A, pending buyers, pending sellers) of the
    fee-ranked transactions at once with the all-prefix Hall check (O(A^2)
    element operations in A / _HALL_ROWS numpy blocks, O(_HALL_ROWS * A)
    memory) and returns the feasible prefix with the highest fee total.
    Totals within a relative 1e-12 of it are tied, and ties are broken
    uniformly at random.  The pairing inside the selection is drawn
    uniformly among all feasible pairings (the fee total does not depend on
    it).
    """
    rng = np.random.default_rng(rng)
    if pool.is_empty:
        return _EMPTY
    # Separate substreams so the realized pairing depends only on the selected
    # set, not on how many tie-break draws the ranking consumed.
    tie_rng, choice_rng, pair_rng = rng.spawn(3)

    b_pos = _fee_ranked(pool.buyer_ids, pool.buy_fees, tie_rng)
    s_pos = _fee_ranked(pool.seller_ids, pool.sell_fees, tie_rng)
    limit = min(instance.block_size, len(b_pos), len(s_pos))
    if limit == 0:
        return _EMPTY

    utilities = np.array([instance.buyers[pool.buyer_ids[p]].utility for p in b_pos[:limit]])
    costs = np.array([instance.sellers[pool.seller_ids[p]].cost for p in s_pos[:limit]])
    buy_fees = np.array([pool.buy_fees[p] for p in b_pos[:limit]])
    sell_fees = np.array([pool.sell_fees[p] for p in s_pos[:limit]])
    fee_totals = np.cumsum(buy_fees) + np.cumsum(sell_fees)

    feasible_sizes = np.flatnonzero(_feasible_prefixes(utilities, costs)) + 1
    if feasible_sizes.size == 0:
        return _EMPTY

    feasible_totals = fee_totals[feasible_sizes - 1]
    best = float(feasible_totals.max())
    tied = feasible_sizes[feasible_totals >= best - 1e-12 * max(1.0, abs(best))]
    size = int(tied[choice_rng.integers(len(tied))] if len(tied) > 1 else tied[0])

    buyer_ids = np.array([pool.buyer_ids[p] for p in b_pos[:size]])
    seller_ids = np.array([pool.seller_ids[p] for p in s_pos[:size]])
    pairing = uniform_feasible_pairing(buyer_ids, utilities[:size], seller_ids, costs[:size], pair_rng)
    return Selection(
        buyer_ids=tuple(int(b) for b in buyer_ids),
        seller_ids=tuple(int(s) for s in seller_ids),
        pairing=pairing,
        total_fee=float(fee_totals[size - 1]),
    )


def recommend_matching(pool: PendingPool, instance: MarketInstance) -> Selection:
    """Welfare-greedy recommendation: best-gain assignment, capped at A pairs.

    Solves the assignment maximizing sum of min(b, q) * (R - C) over compatible
    pending pairs, keeps only strictly positive gains, and truncates to the A
    highest-gain pairs.  Zero-fee transactions stay excluded and the block cap
    still applies: the recommendation works within the same protocol limits.
    """
    buy_keep = [i for i, f in enumerate(pool.buy_fees) if f > 0.0]
    sell_keep = [i for i, f in enumerate(pool.sell_fees) if f > 0.0]
    if not buy_keep or not sell_keep:
        return _EMPTY

    buyers = [instance.buyers[pool.buyer_ids[i]] for i in buy_keep]
    sellers = [instance.sellers[pool.seller_ids[i]] for i in sell_keep]
    r = np.array([b.utility for b in buyers])
    bq = np.array([b.quantity for b in buyers])
    c = np.array([s.cost for s in sellers])
    sq = np.array([s.quantity for s in sellers])

    gain = np.minimum(bq[:, None], sq[None, :]) * (r[:, None] - c[None, :])
    gain = np.where(r[:, None] >= c[None, :], gain, -np.inf)

    if np.all(bq == bq[0]) and np.all(sq == sq[0]):
        # Homogeneous quantities: assortative pairing of positive-gain ranks is optimal.
        order_b = np.argsort(-r, kind="stable")
        order_s = np.argsort(c, kind="stable")
        chosen = []
        for i, j in zip(order_b, order_s):
            if gain[i, j] > 0.0:
                chosen.append((i, j, gain[i, j]))
        chosen.sort(key=lambda t: -t[2])
    else:
        clamped = np.maximum(gain, 0.0)
        rows, cols = linear_sum_assignment(clamped, maximize=True)
        chosen = [(i, j, gain[i, j]) for i, j in zip(rows, cols) if gain[i, j] > 0.0]
        chosen.sort(key=lambda t: -t[2])

    chosen = chosen[: instance.block_size]
    if not chosen:
        return _EMPTY
    pairing = tuple(
        (int(pool.buyer_ids[buy_keep[i]]), int(pool.seller_ids[sell_keep[j]])) for i, j, _ in chosen
    )
    buyer_ids = tuple(p[0] for p in pairing)
    seller_ids = tuple(p[1] for p in pairing)
    total = math.fsum(pool.buy_fees[buy_keep[i]] for i, _, _ in chosen) + math.fsum(
        pool.sell_fees[sell_keep[j]] for _, j, _ in chosen
    )
    return Selection(buyer_ids=buyer_ids, seller_ids=seller_ids, pairing=pairing, total_fee=total)


def run_round(
    pool: PendingPool,
    instance: MarketInstance,
    rng: np.random.Generator | int | None = None,
) -> tuple[RoundRecord | None, PendingPool]:
    """Play one mining round: per-policy selections, a power-weighted winner draw.

    All selfish miners compute identical selections (the selection does not
    depend on miner identity), so each policy's selection is computed once.
    Returns ``(None, pool)`` when no miner can include anything, leaving the
    pool untouched.
    """
    rng = np.random.default_rng(rng)
    select_rng, winner_rng = rng.spawn(2)

    policies = {m.policy for m in instance.miners}
    selections: dict[MinerPolicy, Selection] = {}
    if MinerPolicy.SELFISH in policies:
        selections[MinerPolicy.SELFISH] = selfish_select(pool, instance, select_rng)
    if MinerPolicy.PROTOCOL_FOLLOWING in policies:
        selections[MinerPolicy.PROTOCOL_FOLLOWING] = recommend_matching(pool, instance)

    if all(sel.is_empty for sel in selections.values()):
        return None, pool

    if len(instance.miners) == 1:
        winner = instance.miners[0]
    else:
        # The arithmetic of winner_rng.choice(n, p=powers), without its checks:
        # MarketInstance already validated the powers.
        cdf = np.cumsum([m.power for m in instance.miners])
        cdf /= cdf[-1]
        winner = instance.miners[int(np.searchsorted(cdf, winner_rng.random(), side="right"))]
    sel = selections[winner.policy]

    record = RoundRecord(
        block=pool.round_index,
        winner_id=winner.id,
        pairs=sel.pairing,
    )
    next_pool = pool.remove(sel) if not sel.is_empty else replace(pool, round_index=pool.round_index + 1)
    return record, next_pool


def run_horizon(
    instance: MarketInstance,
    profile: FeeProfile,
    rng: np.random.Generator | int | None = None,
) -> MatchTrace:
    """Simulate rounds 1..T (stopping early once nothing more can be included)."""
    rng = np.random.default_rng(rng)
    pool = PendingPool.from_instance(instance, profile)
    rounds: list[RoundRecord] = []
    for _ in range(instance.horizon):
        if pool.is_empty:
            break
        record, pool = run_round(pool, instance, rng)
        if record is None:
            break
        rounds.append(record)
    trace = MatchTrace(rounds=tuple(rounds))
    trace.validate(instance)
    return trace
