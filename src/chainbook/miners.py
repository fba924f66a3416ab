"""Miner block filling: selfish prefix selection and the matching recommendation.

A selfish miner ranks pending transactions by fee (ties shuffled with the
round's seed, zero-fee transactions rejected) and keeps, among prefix sizes
i = 1..min(A, pending buyers, pending sellers), the feasible prefix with the
largest fee total.  Feasibility of every prefix comes from one all-prefix
Hall check in A / ``_HALL_ROWS`` vectorized numpy blocks, each evaluated
only at its own breakpoints: O(_HALL_ROWS * A + A^2 / _HALL_ROWS) element
operations in O(_HALL_ROWS^2 + A) memory.  A protocol-following miner instead
adopts the welfare-greedy matching recommendation.  One winner per round is
drawn with the miners' power weights; its selection is appended to the chain
and removed from the pending pool.

Randomness: round t (from 0) of a play draws only from children of the play
generator's seed sequence, at the spawn keys ``(2t, 0)`` (fee ties),
``(2t, 1)`` (size ties), ``(2t, 2)`` (pairing) and ``(2t + 1,)`` (winner):
the children that spawning from a fresh generator hands out.  ``PendingPool``
keeps plain tuples of ids and fees in its four public fields; the engine
reads them as arrays.
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
        buyer_ids, buy_fees = _drop(self.buyer_ids, self.buy_fees, selection.buyer_ids)
        seller_ids, sell_fees = _drop(self.seller_ids, self.sell_fees, selection.seller_ids)
        return PendingPool(buyer_ids, buy_fees, seller_ids, sell_fees, self.round_index + 1)


def _drop(ids: tuple[int, ...], fees: tuple[float, ...], chosen: tuple[int, ...]):
    """(ids, fees) without the chosen ids, in pool order, through one id mask."""
    ids_arr = np.asarray(ids, dtype=np.intp)
    unchosen = np.ones(max(int(ids_arr.max(initial=-1)), *chosen, -1) + 1, dtype=bool)
    unchosen[list(chosen)] = False
    keep = unchosen[ids_arr]
    return tuple(ids_arr[keep].tolist()), tuple(np.asarray(fees)[keep].tolist())


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


def _substream(rng: np.random.Generator, *key: int) -> np.random.Generator:
    """The child at index path ``key`` (one index per nesting level) that
    spawning from a fresh rng hands out, built alone; rng stays untouched."""
    seq = rng.bit_generator.seed_seq
    child = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + key, pool_size=seq.pool_size)
    return np.random.Generator(type(rng.bit_generator)(child))


def _has_equal(sorted_values: np.ndarray) -> bool:
    return bool(np.any(sorted_values[1:] == sorted_values[:-1]))


def _feasible_prefixes(utilities: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Feasibility of every prefix of the ranked buyers and sellers at once.

    Entry i - 1 is True iff the first i buyers and the first i sellers admit
    a perfect matching with R >= C on every pair.

    Hall's condition for the threshold graph: a prefix is feasible iff at
    every threshold x it holds no more buyers with R < x than sellers with
    C < x, and the sorted costs are enough thresholds.  The slack
    #{C < x} - #{R < x} of each (prefix, threshold) pair is a cumulative sum
    over the prefixes.  A pool of at most ``_HALL_ROWS`` rows is one block,
    evaluated at every threshold: for one block that is cheaper than the
    breakpoint bookkeeping below.  A larger pool is built ``_HALL_ROWS``
    prefixes at a time, each block starting from the slack ``carry`` of the
    prefixes before it.  A block's own rows step the slack only at their
    positions, so between two of its <= 2 * _HALL_ROWS + 1 breakpoints the
    step is constant: the block needs the step at the breakpoints plus the
    minimum of ``carry`` over each segment between them.  That is
    O(_HALL_ROWS * A + A^2 / _HALL_ROWS) element operations in
    A / _HALL_ROWS blocks, in O(_HALL_ROWS^2 + A) memory; all integer, so
    the result equals the check at every threshold.
    """
    n = len(costs)
    thresholds = np.sort(costs)
    # A participant counts at every threshold from this position on.
    pos_b = np.searchsorted(thresholds, utilities, side="right")
    pos_s = np.searchsorted(thresholds, costs, side="right")
    if n <= _HALL_ROWS:
        cols = np.arange(n)
        slack = (pos_s[:, None] <= cols).astype(np.int64)
        slack -= pos_b[:, None] <= cols
        np.cumsum(slack, axis=0, out=slack)
        return slack.min(axis=1) >= 0

    feasible = np.empty(n, dtype=bool)
    # Slack at thresholds 0..n.  Every participant counts at column n, so
    # carry and step are 0 there, and a 0 never fails the check: positions
    # equal to n need not be dropped from the breakpoints.
    carry = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, n, _HALL_ROWS):
        block = slice(start, start + _HALL_ROWS)
        ps, pb = pos_s[block], pos_b[block]
        cuts = np.sort(np.concatenate((ps, pb, [0])))
        step = (ps[:, None] <= cuts).astype(np.int64)
        step -= pb[:, None] <= cuts
        np.cumsum(step, axis=0, out=step)
        # A repeated breakpoint reads one carry entry, never below its segment's minimum.
        step += np.minimum.reduceat(carry, cuts)
        feasible[block] = step.min(axis=1) >= 0
        carry += np.cumsum(np.bincount(ps, minlength=n + 1) - np.bincount(pb, minlength=n + 1))
    return feasible


def selfish_select(
    pool: PendingPool,
    instance: MarketInstance,
    rng: np.random.Generator | int | None = None,
    key: tuple[int, ...] = (),
) -> Selection:
    """Fee-maximizing feasible prefix selection for one block.

    Checks every prefix i = 1..min(A, pending buyers, pending sellers) of the
    fee-ranked transactions at once with the all-prefix Hall check
    (O(_HALL_ROWS * A + A^2 / _HALL_ROWS) element operations in
    A / _HALL_ROWS numpy blocks, O(_HALL_ROWS^2 + A) memory) and returns the
    feasible prefix with the highest fee total.
    Totals within a relative 1e-12 of it are tied, and ties are broken
    uniformly at random.  The pairing inside the selection is drawn
    uniformly among all feasible pairings (the fee total does not depend on
    it).

    Draws come from the substreams ``key + (0,)`` (fee ties), ``key + (1,)``
    (size ties) and ``key + (2,)`` (the pairing), each built only when needed.
    """
    if pool.is_empty:
        return _EMPTY
    rng = np.random.default_rng(rng)
    buy_fees = np.asarray(pool.buy_fees)
    sell_fees = np.asarray(pool.sell_fees)
    b_keep = np.flatnonzero(buy_fees > 0.0)  # zero-fee transactions are rejected
    s_keep = np.flatnonzero(sell_fees > 0.0)
    limit = min(instance.block_size, len(b_keep), len(s_keep))
    if limit == 0:
        return _EMPTY

    # Fee descending; a tie-break draw per transaction only matters on equal fees.
    b_neg, s_neg = -buy_fees[b_keep], -sell_fees[s_keep]
    b_order, s_order = np.argsort(b_neg, kind="stable"), np.argsort(s_neg, kind="stable")
    if _has_equal(b_neg[b_order]) or _has_equal(s_neg[s_order]):
        tie_rng = _substream(rng, *key, 0)
        b_order = np.lexsort((tie_rng.random(len(b_neg)), b_neg))
        s_order = np.lexsort((tie_rng.random(len(s_neg)), s_neg))
    b_pos, s_pos = b_keep[b_order[:limit]], s_keep[s_order[:limit]]
    buyer_ids = np.asarray(pool.buyer_ids)[b_pos]
    seller_ids = np.asarray(pool.seller_ids)[s_pos]
    utilities = instance.utility_array[buyer_ids]
    costs = instance.cost_array[seller_ids]
    fee_totals = np.cumsum(buy_fees[b_pos]) + np.cumsum(sell_fees[s_pos])

    feasible_sizes = np.flatnonzero(_feasible_prefixes(utilities, costs)) + 1
    if feasible_sizes.size == 0:
        return _EMPTY

    feasible_totals = fee_totals[feasible_sizes - 1]
    best = float(feasible_totals.max())
    tied = feasible_sizes[feasible_totals >= best - 1e-12 * max(1.0, abs(best))]
    size = int(tied[_substream(rng, *key, 1).integers(len(tied))] if len(tied) > 1 else tied[0])

    buyer_ids, seller_ids = buyer_ids[:size], seller_ids[:size]
    pair_rng = _substream(rng, *key, 2)
    pairing = uniform_feasible_pairing(buyer_ids, utilities[:size], seller_ids, costs[:size], pair_rng)
    return Selection(
        buyer_ids=tuple(buyer_ids.tolist()),
        seller_ids=tuple(seller_ids.tolist()),
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
    buy_fees = np.asarray(pool.buy_fees)
    sell_fees = np.asarray(pool.sell_fees)
    buy_keep = np.flatnonzero(buy_fees > 0.0)
    sell_keep = np.flatnonzero(sell_fees > 0.0)
    if not buy_keep.size or not sell_keep.size:
        return _EMPTY

    b_ids = np.asarray(pool.buyer_ids)[buy_keep]
    s_ids = np.asarray(pool.seller_ids)[sell_keep]
    r = instance.utility_array[b_ids]
    bq = instance.buy_qty_array[b_ids]
    c = instance.cost_array[s_ids]
    sq = instance.sell_qty_array[s_ids]

    gain = np.minimum(bq[:, None], sq[None, :]) * (r[:, None] - c[None, :])
    gain = np.where(r[:, None] >= c[None, :], gain, -np.inf)

    if np.all(bq == bq[0]) and np.all(sq == sq[0]):
        # Homogeneous quantities: assortative pairing of positive-gain ranks is optimal.
        rows, cols = np.argsort(-r, kind="stable"), np.argsort(c, kind="stable")
    else:
        rows, cols = linear_sum_assignment(np.maximum(gain, 0.0), maximize=True)
    chosen = [(i, j, gain[i, j]) for i, j in zip(rows, cols) if gain[i, j] > 0.0]
    chosen.sort(key=lambda t: -t[2])

    chosen = chosen[: instance.block_size]
    if not chosen:
        return _EMPTY
    pairing = tuple((int(b_ids[i]), int(s_ids[j])) for i, j, _ in chosen)
    buyer_ids = tuple(p[0] for p in pairing)
    seller_ids = tuple(p[1] for p in pairing)
    total = math.fsum(buy_fees[buy_keep[i]] for i, _, _ in chosen) + math.fsum(
        sell_fees[sell_keep[j]] for _, j, _ in chosen
    )
    return Selection(buyer_ids=buyer_ids, seller_ids=seller_ids, pairing=pairing, total_fee=total)


def run_round(
    pool: PendingPool,
    instance: MarketInstance,
    rng: np.random.Generator | int | None = None,
    round_number: int = 0,
) -> tuple[RoundRecord | None, PendingPool]:
    """Play one mining round: per-policy selections, a power-weighted winner draw.

    All selfish miners compute identical selections (the selection does not
    depend on miner identity), so each policy's selection is computed once.
    Returns ``(None, pool)`` when no miner can include anything, leaving the
    pool untouched.  Draws come from the substreams ``(2 * round_number,)``
    (selection) and ``(2 * round_number + 1,)`` (winner, with several miners).
    """
    rng = np.random.default_rng(rng)
    policies = {m.policy for m in instance.miners}
    selections: dict[MinerPolicy, Selection] = {}
    if MinerPolicy.SELFISH in policies:
        selections[MinerPolicy.SELFISH] = selfish_select(pool, instance, rng, (2 * round_number,))
    if MinerPolicy.PROTOCOL_FOLLOWING in policies:
        selections[MinerPolicy.PROTOCOL_FOLLOWING] = recommend_matching(pool, instance)

    if all(sel.is_empty for sel in selections.values()):
        return None, pool

    if len(instance.miners) == 1:
        winner = instance.miners[0]
    else:
        # The arithmetic of Generator.choice(n, p=powers), without its checks:
        # MarketInstance already validated the powers.
        cdf = np.cumsum([m.power for m in instance.miners])
        cdf /= cdf[-1]
        draw = _substream(rng, 2 * round_number + 1).random()
        winner = instance.miners[int(np.searchsorted(cdf, draw, side="right"))]
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
    """Simulate rounds 1..T (stopping early once nothing more can be included).

    Substreams depend on rng's seed sequence, not its state: one play per seed.
    """
    rng = np.random.default_rng(rng)
    pool = PendingPool.from_instance(instance, profile)
    rounds: list[RoundRecord] = []
    for round_number in range(instance.horizon):
        if pool.is_empty:
            break
        record, pool = run_round(pool, instance, rng, round_number)
        if record is None:
            break
        rounds.append(record)
    trace = MatchTrace(rounds=tuple(rounds))
    trace.validate(instance)
    return trace
