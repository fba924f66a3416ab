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
the children that spawning from a fresh generator hands out.  A selection
whose full prefix is feasible and clears every shorter total skips the
all-prefix check, and a pairing takes all its picks from one draw of raw
32-bit words, with the values and stream of one bounded draw per seller; a
one-pair selection draws no pairing at all.

``PendingPool`` keeps each side ranked once per play: positive fees first,
fee descending, each entry with its pool position.  A selection reads its
candidates as the head of that order, redraws fee ties only while equal
positive fees remain, and one stable sort per side of the prefix serves
both the full-prefix check and the pairing.  A selfish selection leaves the
pool by slicing off the head; a protocol-following one through an id mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class PendingPool:
    """Transactions still waiting for inclusion at the start of round ``round_index``.

    Built from id and fee arrays per side in pool order; ``buyer_id_array``,
    ``buy_fee_array``, ``seller_id_array`` and ``sell_fee_array`` read them
    back (read-only), and ``buyer_ids``, ``buy_fees``, ``seller_ids`` and
    ``sell_fees`` as tuples.  Each side is held in fee-rank order (see
    ``_RankedSide``): ``selfish_select`` reads its candidate prefix by
    slicing, and ``remove`` slices a selfish selection off the head.
    """

    __slots__ = ("_buyers", "_sellers", "round_index")

    def __init__(self, buyer_ids, buy_fees, seller_ids, sell_fees, round_index: int = 1) -> None:
        self._buyers = _RankedSide.from_pool_order("buyer", buyer_ids, buy_fees)
        self._sellers = _RankedSide.from_pool_order("seller", seller_ids, sell_fees)
        self.round_index = round_index

    @classmethod
    def from_instance(cls, instance: MarketInstance, profile: FeeProfile) -> "PendingPool":
        if len(profile.buy_fees) != instance.num_buyers or len(profile.sell_fees) != instance.num_sellers:
            raise ValueError("fee profile does not match instance participant counts")
        return cls(np.arange(instance.num_buyers), profile.buy_fees, np.arange(instance.num_sellers), profile.sell_fees)

    buyer_id_array = property(lambda self: self._buyers.pool_order()[0])
    buy_fee_array = property(lambda self: self._buyers.pool_order()[1])
    seller_id_array = property(lambda self: self._sellers.pool_order()[0])
    sell_fee_array = property(lambda self: self._sellers.pool_order()[1])
    buyer_ids = property(lambda self: tuple(self.buyer_id_array.tolist()))
    buy_fees = property(lambda self: tuple(self.buy_fee_array.tolist()))
    seller_ids = property(lambda self: tuple(self.seller_id_array.tolist()))
    sell_fees = property(lambda self: tuple(self.sell_fee_array.tolist()))

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
        pool.round_index = self.round_index + 1
        return pool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PendingPool):
            return NotImplemented
        return self.round_index == other.round_index and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("buyer_id_array", "buy_fee_array", "seller_id_array", "sell_fee_array")
        )

    def __repr__(self) -> str:
        return (
            f"PendingPool(buyer_ids={self.buyer_ids}, buy_fees={self.buy_fees}, seller_ids={self.seller_ids}, "
            f"sell_fees={self.sell_fees}, round_index={self.round_index})"
        )


class _RankedSide:
    """One side of a pending pool in fee-rank order.

    The ``positive`` entries with a positive fee come first, fee descending,
    equal fees in the order of the last tie draw, else by pool position; the
    rest follow in an order nothing reads.  ``pos`` holds each entry's pool
    position (its index when the pool was built), so sorting by it restores
    pool order.  ``ties`` stays True while equal positive fees remain:
    dropping entries never makes two fees equal.
    """

    __slots__ = ("ids", "fees", "pos", "positive", "ties", "_pool_order")

    def __init__(self, ids, fees, pos, positive, ties, pool_order=None) -> None:
        self.ids, self.fees, self.pos = ids, fees, pos
        self.positive, self.ties = positive, ties
        self._pool_order = pool_order

    @classmethod
    def from_pool_order(cls, side: str, ids, fees) -> "_RankedSide":
        ids, fees = _frozen(ids, np.intp), _frozen(fees, float)
        if ids.shape != fees.shape:
            raise ValueError(f"{side} ids and fees differ in length: {ids.size} vs {fees.size}")
        # Fee descending puts every positive fee first (nan sorts last).
        order = (-fees).argsort(kind="stable")
        positive = int(np.count_nonzero(fees > 0.0))  # zero-fee transactions are rejected
        ranked = fees[order]
        return cls(ids[order], ranked, order, positive, _has_equal(ranked[:positive]), (ids, fees))

    def pool_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, fees) in pool order, read-only."""
        if self._pool_order is None:
            order = self.pos.argsort()
            ids, fees = self.ids[order], self.fees[order]
            ids.flags.writeable = fees.flags.writeable = False
            self._pool_order = (ids, fees)
        return self._pool_order

    def redrawn(self, draws: np.ndarray) -> "_RankedSide":
        """This side with its positive entries ranked by fee descending, then
        by ``draws``, one per positive entry in pool order."""
        n = self.positive
        in_pool = self.pos[:n].argsort()
        order = np.concatenate((in_pool[np.lexsort((draws, -self.fees[in_pool]))], np.arange(n, self.ids.size)))
        return _RankedSide(self.ids[order], self.fees[order], self.pos[order], n, True, self._pool_order)

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
        return _RankedSide(self.ids[keep], fees, self.pos[keep], positive, self.ties and _has_equal(fees[:positive]))


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


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

# Prefixes per block of the all-prefix Hall check; bounds its working memory.
_HALL_ROWS = 64

_LOW_WORD, _HIGH_SHIFT = np.uint64(0xFFFFFFFF), np.uint64(32)


def _uniform_picks(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """``[rng.integers(k) for k in counts]`` (each 1 <= k < 2**32) from one draw,
    leaving rng where those calls leave it.

    For such k the scalar call takes one 32-bit word u per attempt, returns
    (u * k) >> 32, and rejects u (Lemire) when the low 32 bits of u * k fall
    below (2**32 - k) % k; k = 1 takes no word.  A full-range uint32 array
    draw returns exactly the next words the scalar calls would take.  A
    rejection is possible only where the low bits fall below k (probability
    below k / 2**32 per draw); then the picks are redone one by one over the
    same words, drawing further words as rejections use them up.
    """
    drawn = counts > 1
    k = counts[drawn].astype(np.uint64)
    picks = np.zeros(counts.size, dtype=np.int64)
    if not k.size:
        return picks
    words = rng.integers(0, 2**32, size=k.size, dtype=np.uint32)
    scaled = words * k
    if ((scaled & _LOW_WORD) < k).any():
        stream = iter(words.tolist())

        def word() -> int:
            u = next(stream, None)
            return int(rng.integers(0, 2**32, dtype=np.uint32)) if u is None else u

        redone = []
        for bound in k.tolist():
            threshold = (2**32 - bound) % bound
            m = word() * bound
            while (m & 0xFFFFFFFF) < threshold:
                m = word() * bound
            redone.append(m >> 32)
        picks[drawn] = redone
    else:
        picks[drawn] = scaled >> _HIGH_SHIFT
    return picks


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
    of choices at step j, (buyers compatible with seller j) - j, is known up
    front, so every pick comes from one draw; the stream is that of one
    ``rng.integers(choices)`` call per seller.
    """
    order_b = utilities.argsort(kind="stable")
    r_sorted = utilities[order_b]
    b_sorted = buyer_ids[order_b].tolist()
    order_s = (-costs).argsort(kind="stable")
    # Buyers at sorted position >= lo are compatible with the seller.
    lows = r_sorted.searchsorted(costs[order_s], side="left")
    choices = len(b_sorted) - lows - np.arange(len(lows))
    if (choices < 1).any():
        raise ValueError("no feasible perfect matching for the given sides")
    picks = _uniform_picks(rng, choices).tolist()

    pairs: list[tuple[int, int]] = []
    active: list[int] = []  # positions into b_sorted, compatible and unused
    next_in = len(b_sorted)  # buyers with index >= next_in already activated
    for lo, pick, seller in zip(lows.tolist(), picks, seller_ids[order_s].tolist()):
        if next_in > lo:
            active.extend(range(next_in - 1, lo - 1, -1))
            next_in = lo
        active[pick], active[-1] = active[-1], active[pick]
        pairs.append((b_sorted[active.pop()], seller))
    return tuple(pairs)


def _substream(rng: np.random.Generator, *key: int) -> np.random.Generator:
    """The child at index path ``key`` (one index per nesting level) that
    spawning from a fresh rng hands out, built alone; rng stays untouched."""
    seq = rng.bit_generator.seed_seq
    entropy = seq.entropy
    if isinstance(entropy, list) and all(0 <= word < 2**32 for word in entropy):
        # The words SeedSequence would make of the list, without its per-entry coercion.
        entropy = np.array(entropy, dtype=np.uint32)
    child = np.random.SeedSequence(entropy, spawn_key=seq.spawn_key + key, pool_size=seq.pool_size)
    return np.random.Generator(type(rng.bit_generator)(child))


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

    Checks every prefix i = 1..min(A, positive-fee buyers, positive-fee
    sellers) of the fee-ranked transactions at once with the all-prefix Hall
    check (O(_HALL_ROWS * A + A^2 / _HALL_ROWS) element operations in
    A / _HALL_ROWS numpy blocks, O(_HALL_ROWS^2 + A) memory) and returns the
    feasible prefix with the highest fee total.
    Totals within a relative 1e-12 of it are tied, and ties are broken
    uniformly at random.  When the full prefix is feasible (one sorted-rank
    check) and no shorter total ties with it, it is taken without the
    all-prefix check.  The pairing inside the selection is drawn
    uniformly among all feasible pairings (the fee total does not depend on
    it).

    The candidates are the head of the pool's fee-rank order, read by
    slicing.  Fee ties are redrawn only while the pool holds equal positive
    fees: one uniform draw per positive-fee transaction, buyers then sellers,
    each side in pool order, and a side with equal fees is re-ranked by fee,
    then draw.  The re-ranked order becomes the pool's rank order, so
    ``PendingPool.remove`` slices the selection off its head.

    Draws come from the substreams ``key + (0,)`` (fee ties), ``key + (1,)``
    (size ties) and ``key + (2,)`` (the pairing, not built for one pair),
    each built only when needed.
    """
    if pool.is_empty:
        return _EMPTY
    buyers, sellers = pool._buyers, pool._sellers
    limit = min(instance.block_size, buyers.positive, sellers.positive)
    if limit == 0:
        return _EMPTY
    rng = np.random.default_rng(rng)
    if buyers.ties or sellers.ties:
        # A side without equal fees keeps its order whatever it draws.
        draws = _substream(rng, *key, 0).random(buyers.positive + sellers.positive)
        if buyers.ties:
            buyers = pool._buyers = buyers.redrawn(draws[: buyers.positive])
        if sellers.ties:
            sellers = pool._sellers = sellers.redrawn(draws[buyers.positive :])
    buyer_ids, seller_ids = buyers.ids[:limit], sellers.ids[:limit]
    utilities = instance.utility_array[buyer_ids]
    costs = instance.cost_array[seller_ids]
    fee_totals = buyers.fees[:limit].cumsum() + sellers.fees[:limit].cumsum()
    # One stable sort per side serves the full-prefix check and the pairing:
    # buyers by utility ascending, sellers by cost descending.
    order_b = utilities.argsort(kind="stable")
    order_s = (-costs).argsort(kind="stable")

    # Kept fees are positive, so fee_totals never decreases: a feasible full
    # prefix whose total is not tied with the next shorter one is the only
    # top-tied size, and the all-prefix check cannot change the choice.
    best = float(fee_totals[-1])
    if (utilities[order_b] >= costs[order_s[::-1]]).all() and (
        limit == 1 or fee_totals[-2] < best - 1e-12 * max(1.0, abs(best))
    ):
        size = limit
    else:
        feasible_sizes = np.flatnonzero(_feasible_prefixes(utilities, costs)) + 1
        if feasible_sizes.size == 0:
            return _EMPTY
        feasible_totals = fee_totals[feasible_sizes - 1]
        best = float(feasible_totals.max())
        tied = feasible_sizes[feasible_totals >= best - 1e-12 * max(1.0, abs(best))]
        size = int(tied[_substream(rng, *key, 1).integers(len(tied))] if len(tied) > 1 else tied[0])
        # A stable order restricted to a prefix is that prefix's stable order.
        order_b, order_s = order_b[order_b < size], order_s[order_s < size]

    buyer_ids, seller_ids = buyer_ids[:size], seller_ids[:size]
    if size == 1:
        pairing = ((int(buyer_ids[0]), int(seller_ids[0])),)
    else:
        # Sorted already, so the pairing's own stable sorts keep this order.
        pairing = uniform_feasible_pairing(
            buyer_ids[order_b], utilities[order_b], seller_ids[order_s], costs[order_s], _substream(rng, *key, 2)
        )
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
    buy_fees, sell_fees = pool.buy_fee_array, pool.sell_fee_array
    buy_keep = np.flatnonzero(buy_fees > 0.0)
    sell_keep = np.flatnonzero(sell_fees > 0.0)
    if not buy_keep.size or not sell_keep.size:
        return _EMPTY

    b_ids = pool.buyer_id_array[buy_keep]
    s_ids = pool.seller_id_array[sell_keep]
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
    return record, pool.remove(sel)


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
