"""Miner block filling: selfish prefix selection and the matching recommendation.

A selfish miner ranks pending transactions by fee (ties shuffled with the
round's draws, zero-fee transactions rejected) and keeps, among prefix sizes
i = 1..min(A, pending buyers, pending sellers), the feasible prefix with the
largest fee total.  Feasibility of every prefix comes from one all-prefix
Hall check: a screen at ``_SCREEN_COLS`` evenly spaced thresholds drops
prefixes that fail there, and only the ``_HALL_ROWS``-prefix blocks holding a
survivor are evaluated exactly, each at its own breakpoints.  That is
O(_SCREEN_COLS * A) element operations plus O(_HALL_ROWS * A + A) per
evaluated block, in O(_HALL_ROWS^2 + _SCREEN_COLS * A) memory.  A
protocol-following miner instead adopts the welfare-greedy matching
recommendation: the pairs of :func:`best_pairs`, the maximum-weight
matching whose gains also sum to the social optimum, capped at A.  One
winner per round is drawn with the miners' power weights; its selection
is appended to the chain and removed from the pending pool.

Randomness: a play draws from one ``Philox`` generator, keyed from child
``(0,)`` of the play generator's seed sequence (derived once per sequence,
so plays that rewind one play generator share it).  Round t (from 0) reads
purpose p (0 fee ties, 1 size ties, 2 pairing, 3 winner) from its window,
the counter ``(0, 0, p, t)``, so no window's draws move another's: the
pairing ignores the tie draws, and rounds align across block sizes and
variants.  A round draws its winner first and only that policy selects.
A full prefix that is feasible and clears every shorter total skips the
all-prefix check; a pairing takes its picks in one bounded integer draw,
and a one-pair selection draws none.

``PendingPool`` holds positions and keeps each side ranked once per play:
positive fees first, fee descending, ties by position.  A selection reads
its candidates as the head of that order, redraws fee ties only while equal
positive fees remain, and one stable sort per side of the prefix and one
Hall count (:func:`_hall_counts`) serve the full-prefix check and the
pairing's draw.  A selfish selection leaves the pool by slicing off the
head; a protocol-following one through an id mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily, on first use; load it with the package

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
    "max_weight_assignment",
    "best_pairs",
    "recommend_matching",
    "uniform_feasible_pairing",
    "run_round",
    "run_horizon",
]


class PendingPool:
    """Transactions still waiting for inclusion.

    Built from id and fee arrays per side; an id is the participant's
    position in the market, so a negative or repeated id is an error, and
    pool order is ascending position whatever order the ids came in.
    ``buyer_ids``, ``buy_fees``, ``seller_ids`` and ``sell_fees`` read each
    side back in pool order, as tuples.  Each side is held in fee-rank
    order (see ``_RankedSide``): ``selfish_select`` reads its candidate
    prefix by slicing, and ``remove`` slices a selfish selection off the
    head.
    """

    __slots__ = ("_buyers", "_sellers")

    def __init__(self, buyer_ids, buy_fees, seller_ids, sell_fees) -> None:
        for side, ids in (("buyer", buyer_ids), ("seller", seller_ids)):
            if min(ids, default=0) < 0 or _has_equal(np.sort(ids)):
                raise ValueError(f"{side} ids must be distinct nonnegative positions, got {np.asarray(ids).tolist()}")
        self._buyers = _RankedSide.ranked("buyer", buyer_ids, buy_fees)
        self._sellers = _RankedSide.ranked("seller", seller_ids, sell_fees)

    @classmethod
    def from_instance(cls, instance: MarketInstance, profile: FeeProfile) -> "PendingPool":
        """The pool of every transaction in ``profile``; its ids are ``arange``
        positions, distinct by construction, so only the side lengths are checked."""
        pool = object.__new__(cls)
        pool._buyers = _RankedSide.ranked("buyer", np.arange(instance.num_buyers), profile.buy_fees)
        pool._sellers = _RankedSide.ranked("seller", np.arange(instance.num_sellers), profile.sell_fees)
        return pool

    buyer_ids = property(lambda self: tuple(self._buyers.by_position()[0].tolist()))
    buy_fees = property(lambda self: tuple(self._buyers.by_position()[1].tolist()))
    seller_ids = property(lambda self: tuple(self._sellers.by_position()[0].tolist()))
    sell_fees = property(lambda self: tuple(self._sellers.by_position()[1].tolist()))

    @property
    def is_empty(self) -> bool:
        return self._buyers.ids.size == 0 or self._sellers.ids.size == 0

    def remove(self, selection: "Selection") -> "PendingPool":
        """The pool of the next round: this one without the selection's ids.

        A side whose chosen ids are the head of its rank order, as a selfish
        selection's are, drops them by slicing; any other through one id mask.
        """
        pool = object.__new__(PendingPool)
        pool._buyers = self._buyers.without(selection.buyer_ids)
        pool._sellers = self._sellers.without(selection.seller_ids)
        return pool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PendingPool):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in ("buyer_ids", "buy_fees", "seller_ids", "sell_fees")
        )

    def __repr__(self) -> str:
        return (
            f"PendingPool(buyer_ids={self.buyer_ids}, buy_fees={self.buy_fees}, seller_ids={self.seller_ids}, "
            f"sell_fees={self.sell_fees})"
        )


class _RankedSide:
    """One side of a pending pool in fee-rank order.

    The ``positive`` entries with a positive fee come first, fee descending,
    equal fees in the order of the last tie draw, else by position; the rest
    follow in an order nothing reads.  ``ties`` stays True while equal
    positive fees remain: dropping entries never makes two fees equal.
    """

    __slots__ = ("ids", "fees", "positive", "ties")

    def __init__(self, ids, fees, positive, ties) -> None:
        self.ids, self.fees = ids, fees
        self.positive, self.ties = positive, ties

    @classmethod
    def ranked(cls, side: str, ids, fees) -> "_RankedSide":
        ids, fees = np.asarray(ids, dtype=np.intp), np.asarray(fees, dtype=float)
        if ids.shape != fees.shape:
            raise ValueError(f"{side} ids and fees differ in length: {ids.size} vs {fees.size}")
        # Fee descending puts every positive fee first (nan sorts last).
        order = np.lexsort((ids, -fees))
        positive = int(np.count_nonzero(fees > 0.0))  # zero-fee transactions are rejected
        ranked = fees[order]
        return cls(ids[order], ranked, positive, _has_equal(ranked[:positive]))

    def by_position(self, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(ids, fees) of the first ``n`` entries (all by default), by position."""
        order = self.ids[:n].argsort()
        return self.ids[order], self.fees[order]

    def redrawn(self, draws: np.ndarray) -> "_RankedSide":
        """This side with its positive entries ranked by fee descending, then
        by ``draws``, one per positive entry in position order."""
        n = self.positive
        in_pool = self.ids[:n].argsort()
        order = np.concatenate((in_pool[np.lexsort((draws, -self.fees[in_pool]))], np.arange(n, self.ids.size)))
        return _RankedSide(self.ids[order], self.fees[order], n, True)

    def without(self, chosen: tuple[int, ...]) -> "_RankedSide":
        """This side without the chosen ids."""
        size = len(chosen)
        if chosen == tuple(self.ids[:size].tolist()):
            keep = slice(size, None)
            positive = max(self.positive - size, 0)
        else:
            chosen = np.asarray(chosen, dtype=np.intp)
            unchosen = np.ones(max(self.ids.max(initial=-1), chosen.max(initial=-1)) + 1, dtype=bool)
            unchosen[chosen] = False
            keep = unchosen[self.ids]
            positive = int(np.count_nonzero(keep[: self.positive]))
        fees = self.fees[keep]
        return _RankedSide(self.ids[keep], fees, positive, self.ties and _has_equal(fees[:positive]))


def _has_equal(sorted_values: np.ndarray) -> bool:
    return bool((sorted_values[1:] == sorted_values[:-1]).any())


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

# Prefixes per block of the all-prefix Hall check, and the evenly spaced
# thresholds at which it screens a pool of more than _HALL_ROWS prefixes
# before evaluating only the blocks holding a survivor; together they bound
# its working memory.  Its time on large blocks is flat from 16 to 32 columns.
_HALL_ROWS = 64
_SCREEN_COLS = 24


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
    samples exactly uniformly over all feasible perfect matchings.  The number
    of choices at each step is the sides' Hall count (:func:`_hall_counts`),
    known up front, so every pick comes from one ``rng.integers`` call over
    the steps with more than one choice; a forced pairing draws nothing.
    """
    order_b = utilities.argsort(kind="stable")
    order_s = (-costs).argsort(kind="stable")
    lows, choices = _hall_counts(utilities[order_b], costs[order_s])
    if choices.min(initial=1) < 1:
        raise ValueError("no feasible perfect matching for the given sides")
    return _draw_pairing(buyer_ids[order_b], seller_ids[order_s], lows, choices, rng)


def _hall_counts(r_sorted: np.ndarray, c_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lows, choices)`` of utilities ascending and costs descending: buyers from ``lows[j]`` on
    are compatible with seller j, and ``choices[j]`` of them are left after the j costlier sellers.
    All >= 1 is Hall's condition: the sides admit a perfect matching with R >= C."""
    lows = r_sorted.searchsorted(c_sorted, side="left")
    return lows, len(r_sorted) - lows - np.arange(len(lows))


def _draw_pairing(b_sorted: np.ndarray, s_sorted: np.ndarray, lows: np.ndarray, choices: np.ndarray, rng):
    """:func:`uniform_feasible_pairing`'s draw, for ids sorted as :func:`_hall_counts` sorts values."""
    drawn = choices > 1
    picks = np.zeros_like(choices)
    if drawn.any():
        picks[drawn] = rng.integers(choices[drawn])
    picks = picks.tolist()
    b_sorted = b_sorted.tolist()

    pairs: list[tuple[int, int]] = []
    active: list[int] = []  # positions into b_sorted, compatible and unused
    next_in = len(b_sorted)  # buyers with index >= next_in already activated
    for lo, pick, seller in zip(lows.tolist(), picks, s_sorted.tolist()):
        if next_in > lo:
            active.extend(range(next_in - 1, lo - 1, -1))
            next_in = lo
        active[pick], active[-1] = active[-1], active[pick]
        pairs.append((b_sorted[active.pop()], seller))
    return tuple(pairs)


# A window's purpose: the third word of its counter.
_FEE_TIES, _SIZE_TIES, _PAIRING, _WINNER = range(4)


class _Windows:
    """The keyed draws of one play: ``windows(t, p)`` is one generator reset
    to ``Generator(Philox(key=key, counter=(0, 0, p, t)))``, where ``key`` is
    that of a ``Philox`` seeded with child ``(0,)`` of rng's seed sequence.
    ``_last`` holds the last sequence keyed, by strong reference (so identity
    cannot match a recycled object), with its generator and fresh state."""

    __slots__ = ("_generator", "_state")
    _last: tuple = (None, None, None)

    def __init__(self, rng: np.random.Generator | int | None) -> None:
        seq = np.random.default_rng(rng).bit_generator.seed_seq
        if seq is not _Windows._last[0]:
            child = np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, 0), pool_size=seq.pool_size)
            generator = np.random.Generator(np.random.Philox(child))
            _Windows._last = seq, generator, generator.bit_generator.state  # a fresh state: nothing buffered
        _, self._generator, self._state = _Windows._last

    @classmethod
    def of(cls, rng) -> "_Windows":
        return rng if isinstance(rng, cls) else cls(rng)

    def __call__(self, round_number: int, purpose: int) -> np.random.Generator:
        self._state["state"]["counter"][2:] = purpose, round_number
        self._generator.bit_generator.state = self._state
        return self._generator


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
    breakpoint bookkeeping below.

    A larger pool is first screened at ``_SCREEN_COLS`` evenly spaced
    thresholds, one A x _SCREEN_COLS cumulative sum: a prefix with negative
    slack there is infeasible, so the screen only drops prefixes the exact
    check would reject.  Only the ``_HALL_ROWS``-prefix blocks that hold a
    survivor are evaluated exactly, each from the slack ``carry`` of the
    prefixes before it (one prefix ``bincount``).  A block's own rows step
    the slack only at their positions, so between two of its
    <= 2 * _HALL_ROWS + 1 breakpoints the step is constant: the block needs
    the step at the breakpoints plus the minimum of ``carry`` over each
    segment between them.  That is O(_SCREEN_COLS * A) element operations
    for the screen plus O(_HALL_ROWS * A + A) per evaluated block, in
    O(_HALL_ROWS^2 + _SCREEN_COLS * A) memory; all integer, so the result
    equals the check at every threshold.
    """
    n = len(costs)
    thresholds = np.sort(costs)
    # A participant counts at every threshold from this position on.
    pos_b = np.searchsorted(thresholds, utilities, side="right")
    pos_s = np.searchsorted(thresholds, costs, side="right")
    # A pool of at most _HALL_ROWS is checked at every threshold; a larger
    # one is screened at _SCREEN_COLS of them.
    cols = np.arange(n) if n <= _HALL_ROWS else np.arange(_SCREEN_COLS) * n // _SCREEN_COLS
    slack = (pos_s[:, None] <= cols).astype(np.int64)
    slack -= pos_b[:, None] <= cols
    np.cumsum(slack, axis=0, out=slack)
    survivors = slack.min(axis=1) >= 0
    if n <= _HALL_ROWS:
        return survivors

    feasible = np.zeros(n, dtype=bool)
    # Slack at thresholds 0..n.  Every participant counts at column n, so
    # carry and step are 0 there, and a 0 never fails the check: positions
    # equal to n need not be dropped from the breakpoints.
    starts = np.arange(0, n, _HALL_ROWS)
    for start in starts[np.logical_or.reduceat(survivors, starts)].tolist():
        carry = np.cumsum(np.bincount(pos_s[:start], minlength=n + 1) - np.bincount(pos_b[:start], minlength=n + 1))
        block = slice(start, start + _HALL_ROWS)
        ps, pb = pos_s[block], pos_b[block]
        cuts = np.sort(np.concatenate((ps, pb, [0])))
        step = (ps[:, None] <= cuts).astype(np.int64)
        step -= pb[:, None] <= cuts
        np.cumsum(step, axis=0, out=step)
        # A repeated breakpoint reads one carry entry, never below its segment's minimum.
        step += np.minimum.reduceat(carry, cuts)
        feasible[block] = step.min(axis=1) >= 0
    return feasible


def selfish_select(
    pool: PendingPool,
    instance: MarketInstance,
    rng: np.random.Generator | int | None = None,
    round_number: int = 0,
) -> Selection:
    """Fee-maximizing feasible prefix selection for one block.

    Checks every prefix i = 1..min(A, positive-fee buyers, positive-fee
    sellers) of the fee-ranked transactions at once with the all-prefix Hall
    check (:func:`_feasible_prefixes`) and returns the feasible prefix with
    the highest fee total.
    Totals within a relative 1e-12 of it are tied, and ties are broken
    uniformly at random.  When the full prefix is feasible (no choice count
    of its :func:`_hall_counts` is below 1) and no shorter total ties with
    it, it is taken without the all-prefix check.  The pairing inside the
    selection is drawn uniformly among all feasible pairings (the fee total
    does not depend on it), from the same counts.

    The candidates are the head of the pool's fee-rank order, read by
    slicing.  Fee ties are redrawn only while the pool holds equal positive
    fees: one uniform draw per positive-fee transaction, buyers then sellers,
    each side in pool order, and a side with equal fees is re-ranked by fee,
    then draw.  The re-ranked order becomes the pool's rank order, so
    ``PendingPool.remove`` slices the selection off its head.

    Draws come from round ``round_number``'s windows of the play generator
    rng (see the module docstring): fee ties, size ties and the pairing (not
    drawn for one pair), each read only when needed.
    """
    if pool.is_empty:
        return _EMPTY
    buyers, sellers = pool._buyers, pool._sellers
    limit = min(instance.block_size, buyers.positive, sellers.positive)
    if limit == 0:
        return _EMPTY
    windows = _Windows.of(rng)
    if buyers.ties or sellers.ties:
        # A side without equal fees keeps its order whatever it draws.
        draws = windows(round_number, _FEE_TIES).random(buyers.positive + sellers.positive)
        if buyers.ties:
            buyers = pool._buyers = buyers.redrawn(draws[: buyers.positive])
        if sellers.ties:
            sellers = pool._sellers = sellers.redrawn(draws[buyers.positive :])
    buyer_ids, seller_ids = buyers.ids[:limit], sellers.ids[:limit]
    utilities = instance.utility_array[buyer_ids]
    costs = instance.cost_array[seller_ids]
    fee_totals = buyers.fees[:limit].cumsum() + sellers.fees[:limit].cumsum()
    # One stable sort per side and one Hall count serve the full-prefix check
    # and the pairing: buyers by utility ascending, sellers by cost descending.
    order_b = utilities.argsort(kind="stable")
    order_s = (-costs).argsort(kind="stable")
    lows, choices = _hall_counts(utilities[order_b], costs[order_s])

    # Kept fees are positive, so fee_totals never decreases: a feasible full
    # prefix whose total is not tied with the next shorter one is the only
    # top-tied size, and the all-prefix check cannot change the choice.
    best = float(fee_totals[-1])
    if choices.min() >= 1 and (limit == 1 or fee_totals[-2] < best - 1e-12 * max(1.0, abs(best))):
        size = limit
    else:
        feasible_sizes = np.flatnonzero(_feasible_prefixes(utilities, costs)) + 1
        if feasible_sizes.size == 0:
            return _EMPTY
        feasible_totals = fee_totals[feasible_sizes - 1]
        best = float(feasible_totals.max())
        tied = feasible_sizes[feasible_totals >= best - 1e-12 * max(1.0, abs(best))]
        size = int(tied[windows(round_number, _SIZE_TIES).integers(len(tied))] if len(tied) > 1 else tied[0])
        # A stable order restricted to a prefix is that prefix's stable order.
        order_b, order_s = order_b[order_b < size], order_s[order_s < size]
        lows, choices = _hall_counts(utilities[order_b], costs[order_s])

    buyer_ids, seller_ids = buyer_ids[:size], seller_ids[:size]
    if size == 1:
        pairing = ((int(buyer_ids[0]), int(seller_ids[0])),)
    else:
        pairing = _draw_pairing(buyer_ids[order_b], seller_ids[order_s], lows, choices, windows(round_number, _PAIRING))
    return Selection(
        buyer_ids=tuple(buyer_ids.tolist()),
        seller_ids=tuple(seller_ids.tolist()),
        pairing=pairing,
        total_fee=float(fee_totals[size - 1]),
    )


# The port costs O(min(K, N)^2 * max(K, N)) Python steps, against scipy's
# compiled solver and its one-time import (0.2-0.45 s on a 2-vCPU x86 box).
# Measured there on market-shaped weight matrices, port against scipy:
# 0.65 against 0.035 ms at 24 x 24, 4 against 0.18 ms at 50 x 50, 125
# against 4.6 ms at 200 x 200 and 1.5 s against 24 ms at 400 x 400.  So the
# port takes matrices of up to 576 entries (24 x 24), where a run needs
# several hundred solves to spend what the import costs, and scipy the rest.
_PORT_MAX_ENTRIES = 24 * 24


def max_weight_assignment(weights) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-weight assignment of a weight matrix: ``(rows, cols)`` index arrays.

    Exactly the ``(rows, cols)`` of ``linear_sum_assignment(weights,
    maximize=True)``: rows ascending, each matched to one column.  A ``-inf``
    weight forbids its pair; NaN or ``+inf``, or no full assignment without
    forbidden pairs, raise ``ValueError``.  Matrices of at most
    ``_PORT_MAX_ENTRIES`` (24 x 24) entries are solved in the package by
    :func:`_augmenting_path_assignment`, so small heterogeneous markets load
    no scipy; larger ones by scipy itself, imported on first need, as the
    port grows too slow there.
    """
    w = np.asarray(weights, dtype=float)
    if w.size > _PORT_MAX_ENTRIES:
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment(w, maximize=True)
    return _augmenting_path_assignment(w)


def _augmenting_path_assignment(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`max_weight_assignment` in Python, for a float array ``w``.

    A step-for-step port of the shortest augmenting path algorithm behind
    ``scipy.optimize.linear_sum_assignment`` (Crouse 2016, *On implementing 2D
    rectangular assignment algorithms*), with its transpose of tall matrices,
    its negation for maximizing, its reverse scan order and its tie rule (an
    unassigned column wins a tie), so it returns exactly scipy's assignment
    and raises its errors.
    """
    if w.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {w.ndim} array")
    transpose = w.shape[1] < w.shape[0]
    cost = -(w.T if transpose else w)
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    nr, nc = cost.shape
    cost = cost.tolist()
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Dijkstra from cur_row over reduced costs until a free column is reached.
        shortest = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        seen_rows, seen_cols = [], []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in seen_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        cols = np.argsort(col4row)
        return np.asarray(col4row, dtype=np.intp)[cols], cols.astype(np.intp)
    return np.arange(nr, dtype=np.intp), np.asarray(col4row, dtype=np.intp)


def best_pairs(utilities, buy_qty, costs, sell_qty) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-weight matching, gain min(b, q) * (R - C) per pair: ``(rows, cols, gains)``.

    Buyer ``rows[k]`` and seller ``cols[k]`` trade for ``gains[k]``; the
    gains sum to the social optimum.  When each side's quantities are
    constant, min(b, q) is one number, so the sorted ranks pair up and only
    the positive-gain pairs return.  Otherwise :func:`max_weight_assignment`
    solves the zero-clamped gain matrix and every assigned pair returns.
    """
    if np.all(buy_qty == buy_qty[0]) and np.all(sell_qty == sell_qty[0]):
        rows = np.argsort(-utilities, kind="stable")[: costs.size]
        cols = np.argsort(costs, kind="stable")[: utilities.size]
        gains = min(buy_qty[0], sell_qty[0]) * (utilities[rows] - costs[cols])
        positive = gains > 0.0
        return rows[positive], cols[positive], gains[positive]
    weights = np.maximum(np.minimum(buy_qty[:, None], sell_qty[None, :]) * (utilities[:, None] - costs[None, :]), 0.0)
    rows, cols = max_weight_assignment(weights)
    return rows, cols, weights[rows, cols]


def recommend_matching(pool: PendingPool, instance: MarketInstance) -> Selection:
    """Welfare-greedy recommendation: the optimum's pairs, capped at A.

    Runs :func:`best_pairs` on the pending positive-fee transactions, keeps
    its strictly positive gains and truncates to the A highest-gain pairs
    (ties in matching order).  Zero-fee transactions stay excluded and the
    block cap still applies: the recommendation works within the same
    protocol limits.
    """
    if not pool._buyers.positive or not pool._sellers.positive:
        return _EMPTY
    b_ids, buy_fees = pool._buyers.by_position(pool._buyers.positive)
    s_ids, sell_fees = pool._sellers.by_position(pool._sellers.positive)
    rows, cols, gains = best_pairs(instance.utility_array[b_ids], instance.buy_qty_array[b_ids],
                                   instance.cost_array[s_ids], instance.sell_qty_array[s_ids])
    top = np.argsort(-gains, kind="stable")[: instance.block_size]
    top = top[gains[top] > 0.0]
    if not top.size:
        return _EMPTY
    rows, cols = rows[top], cols[top]
    buyer_ids, seller_ids = tuple(b_ids[rows].tolist()), tuple(s_ids[cols].tolist())
    total = math.fsum(buy_fees[rows]) + math.fsum(sell_fees[cols])
    return Selection(buyer_ids, seller_ids, tuple(zip(buyer_ids, seller_ids)), total)


def run_round(
    pool: PendingPool,
    instance: MarketInstance,
    rng: np.random.Generator | int | None = None,
    round_number: int = 0,
) -> tuple[RoundRecord | None, PendingPool]:
    """Play one mining round: a power-weighted winner draw, then its selection.

    All selfish miners compute identical selections (the selection does not
    depend on miner identity), so only the winner's policy selects.  The
    other policy selects only when the winner's selection is empty: if every
    selection is empty, no miner can include anything and the result is
    ``(None, pool)``, the pool untouched; otherwise the empty block is
    recorded, as block ``round_number + 1``.  Draws come from round
    ``round_number``'s windows of the play generator rng: the winner's (with
    several miners) and the selection's.
    """
    windows = _Windows.of(rng)
    miners = instance.miners
    if len(miners) == 1:
        winner = miners[0]
    else:
        # The arithmetic of Generator.choice(n, p=powers), without its checks:
        # MarketInstance already validated the powers.
        cdf = np.cumsum([m.power for m in miners])
        cdf /= cdf[-1]
        draw = windows(round_number, _WINNER).random()
        winner = miners[int(np.searchsorted(cdf, draw, side="right"))]

    def select(policy: MinerPolicy) -> Selection:
        if policy is MinerPolicy.SELFISH:
            return selfish_select(pool, instance, windows, round_number)
        return recommend_matching(pool, instance)

    sel = select(winner.policy)
    if sel.is_empty and all(select(p).is_empty for p in {m.policy for m in miners} - {winner.policy}):
        return None, pool
    return RoundRecord(block=round_number + 1, winner_id=winner.id, pairs=sel.pairing), pool.remove(sel)


def run_horizon(
    instance: MarketInstance,
    profile: FeeProfile,
    rng: np.random.Generator | int | None = None,
) -> MatchTrace:
    """Simulate rounds 1..T (stopping early once nothing more can be included).

    Every round reads its windows of one ``Philox`` generator keyed from
    rng's seed sequence, not its state: one play per seed.  ``rng`` may also
    be a play's windows, built once and replayed.
    """
    windows = _Windows.of(rng)
    pool = PendingPool.from_instance(instance, profile)
    rounds: list[RoundRecord] = []
    for round_number in range(instance.horizon):
        if pool.is_empty:
            break
        record, pool = run_round(pool, instance, windows, round_number)
        if record is None:
            break
        rounds.append(record)
    trace = MatchTrace(rounds=tuple(rounds))
    trace.validate(instance)
    return trace
