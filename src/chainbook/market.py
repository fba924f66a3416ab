"""Core market model: value arrays, miners, fee profiles and match traces.

Buyers post purchase orders (per-unit utility R in [0, 1], quantity b) and
sellers post sale orders (per-unit cost C in [0, 1], quantity q).  A matched
pair trades min(b, q) units at the mid price (R + C) / 2, so the gain from
trade splits equally.  Transactions are confirmed by miners in blocks of up
to ``block_size`` pairs; a transaction confirmed in block l bears a delay
cost of (l - 1) * d.

A ``MarketInstance`` stores each side as read-only value arrays, checked
once: utilities and buy quantities, costs and sell quantities.  They are the
only representation of the participants.  A participant's position is its
id, and the engine indexes by it: fee profiles, pending pools, selections,
pairings, mixer sets and the value, quantity and rank arrays all use
positions.

All types are immutable after construction and all operations are pure
functions, so they are safe to use concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "MinerPolicy",
    "Miner",
    "MarketInstance",
    "FeeProfile",
    "RoundRecord",
    "MatchTrace",
    "rank_feasible",
    "build_instance",
    "single_selfish_miner",
    "miners_with_protocol_share",
]


class MinerPolicy(Enum):
    """How a miner fills its block."""

    SELFISH = "selfish"
    PROTOCOL_FOLLOWING = "protocol_following"


@dataclass(frozen=True)
class Miner:
    """A miner with win probability ``power`` and a block-filling policy."""

    id: int
    power: float
    policy: MinerPolicy = MinerPolicy.SELFISH

    def __post_init__(self) -> None:
        if not 0.0 <= self.power <= 1.0:
            raise ValueError(f"miner {self.id}: power {self.power} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """A complete market parameterization.

    Each side is two read-only float arrays indexed by position: utilities
    and buy quantities, costs and sell quantities.  They are checked once
    (values in [0, 1], quantities positive), and ``with_block_size`` variants
    share them.

    ``block_size`` counts buyer/seller *pairs* per block (2A transactions).
    With ``quantize_fees`` every play rounds its equilibrium fees to whole
    ``fee_unit``s (see :func:`chainbook.welfare.simulate_once`).
    ``horizon`` is derived: the smallest number of blocks that could record
    every possible pair, ceil(min(K, N) / A).
    """

    utility_array: np.ndarray
    cost_array: np.ndarray
    buy_qty_array: np.ndarray
    sell_qty_array: np.ndarray
    miners: tuple[Miner, ...]
    block_size: int
    delay_cost: float = 0.0
    fee_unit: float = 1e-6
    quantize_fees: bool = False

    def __post_init__(self) -> None:
        utilities, buy_qty = _side_arrays(self.utility_array, self.buy_qty_array, "buyer", "utility")
        costs, sell_qty = _side_arrays(self.cost_array, self.sell_qty_array, "seller", "cost")
        object.__setattr__(self, "utility_array", utilities)
        object.__setattr__(self, "buy_qty_array", buy_qty)
        object.__setattr__(self, "cost_array", costs)
        object.__setattr__(self, "sell_qty_array", sell_qty)
        if len(utilities) < 1 or len(costs) < 1:
            raise ValueError("need at least one buyer and one seller")
        self._check_terms()

    def _check_terms(self) -> None:
        """Check the block size, delay cost, fee unit and miners."""
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.delay_cost < 0.0:
            raise ValueError("delay_cost must be nonnegative")
        if self.fee_unit <= 0.0:
            raise ValueError("fee_unit must be positive")
        if not self.miners:
            raise ValueError("need at least one miner")
        total_power = math.fsum(m.power for m in self.miners)
        if abs(total_power - 1.0) > 1e-12:
            raise ValueError(f"miner powers sum to {total_power}, expected 1")

    def __eq__(self, other: object) -> bool:
        """Field by field, the value arrays elementwise."""
        if not isinstance(other, MarketInstance):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _VALUE_ARRAYS) and (
            tuple(getattr(self, n) for n in _SCALAR_FIELDS)
            == tuple(getattr(other, n) for n in _SCALAR_FIELDS)
        )

    @property
    def num_buyers(self) -> int:
        return len(self.utility_array)

    @property
    def num_sellers(self) -> int:
        return len(self.cost_array)

    @property
    def horizon(self) -> int:
        """Blocks played: ceil(min(K, N) / A), enough to record every possible pair."""
        return math.ceil(min(self.num_buyers, self.num_sellers) / self.block_size)

    # Built on first use and shared with every with_block_size variant, the
    # arrays read-only.
    @cached_property
    def buyer_rank(self) -> np.ndarray:
        """The buyers' positions by utility descending, ties by position."""
        return _read_only(np.argsort(-self.utility_array, kind="stable"))

    @cached_property
    def seller_rank(self) -> np.ndarray:
        """The sellers' positions by cost ascending, ties by position."""
        return _read_only(np.argsort(self.cost_array, kind="stable"))

    @cached_property
    def ranked_sides(self) -> dict[str, tuple[np.ndarray, ...]]:
        """Per side ("buy", "sell"): own values and quantities, then the partner's, in rank order."""
        b, s = self.buyer_rank, self.seller_rank
        buyers = _read_only(self.utility_array[b]), _read_only(self.buy_qty_array[b])
        sellers = _read_only(self.cost_array[s]), _read_only(self.sell_qty_array[s])
        return {"buy": (*buyers, *sellers), "sell": (*sellers, *buyers)}

    @cached_property
    def crossing_index(self) -> int:
        """Last rank i with R_(i) >= C_(i); 0 when no rank pair is profitable.

        The rank-i utility is nonincreasing and the rank-i cost nondecreasing,
        so the covered ranks form a prefix and the crossing is their count.
        """
        utilities, _, costs, _ = self.ranked_sides["buy"]
        return int(np.count_nonzero(utilities[: len(costs)] >= costs[: len(utilities)]))

    @cached_property
    def equilibrium(self):
        """The pure equilibrium ``FeeProfile`` if one exists, else the two mixed
        strategies; found once, and shared only with ``with_block_size``
        variants of the same block size (it does not read the miners)."""
        from .equilibrium import msne, psne

        return psne(self) or msne(self)

    def with_block_size(
        self, block_size: int, miners: Sequence[Miner] | None = None
    ) -> "MarketInstance":
        """Same market under a different block size and, if given, another
        miner set.  The variant shares this instance's arrays, already checked,
        its rank arrays, ranked sides and crossing index, and its equilibrium
        if already found and the block size is unchanged."""
        variant = object.__new__(MarketInstance)
        shared = (*_VALUE_ARRAYS, *_SCALAR_FIELDS, "buyer_rank", "seller_rank", "ranked_sides", "crossing_index")
        variant.__dict__.update({name: getattr(self, name) for name in shared}, block_size=block_size)
        if block_size == self.block_size and "equilibrium" in self.__dict__:
            variant.__dict__["equilibrium"] = self.equilibrium
        if miners is not None:
            variant.__dict__["miners"] = tuple(miners)
        variant._check_terms()
        return variant


_VALUE_ARRAYS = ("utility_array", "cost_array", "buy_qty_array", "sell_qty_array")
_SCALAR_FIELDS = ("miners", "block_size", "delay_cost", "fee_unit", "quantize_fees")


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _value_array(values) -> np.ndarray:
    """``values`` as a read-only float array; one that already is one is shared."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable:
        return values
    return _read_only(np.array(values, dtype=float))


def _side_arrays(values, quantities, role: str, value_name: str) -> tuple[np.ndarray, np.ndarray]:
    """One side's value and quantity arrays, checked: values in [0, 1] and
    quantities positive; the error names the first bad position."""
    values, quantities = _value_array(values), _value_array(quantities)
    if values.ndim != 1 or values.shape != quantities.shape:
        raise ValueError(
            f"{role} values and quantities must be 1-D and of one length, "
            f"got shapes {values.shape} and {quantities.shape}"
        )
    bad = ~((values >= 0.0) & (values <= 1.0) & (quantities > 0.0))  # True for NaN too
    if bad.any():
        i = int(bad.argmax())
        if not 0.0 <= values[i] <= 1.0:
            raise ValueError(f"{role} {i}: {value_name} {float(values[i])} outside [0, 1]")
        raise ValueError(f"{role} {i}: quantity must be positive")
    return values, quantities


def build_instance(
    utilities: Sequence[float],
    costs: Sequence[float],
    block_size: int,
    buy_quantities: Sequence[float] | None = None,
    sell_quantities: Sequence[float] | None = None,
    miners: Sequence[Miner] | None = None,
    delay_cost: float = 0.0,
    fee_unit: float = 1e-6,
    quantize_fees: bool = False,
) -> MarketInstance:
    """Assemble a MarketInstance from plain value arrays (unit quantities and
    one selfish miner by default); its horizon follows from the side sizes
    and the block size."""
    if buy_quantities is None:
        buy_quantities = np.ones(len(utilities))
    if sell_quantities is None:
        sell_quantities = np.ones(len(costs))
    if miners is None:
        miners = single_selfish_miner()
    return MarketInstance(
        utility_array=utilities,
        cost_array=costs,
        buy_qty_array=buy_quantities,
        sell_qty_array=sell_quantities,
        miners=tuple(miners),
        block_size=block_size,
        delay_cost=delay_cost,
        fee_unit=fee_unit,
        quantize_fees=quantize_fees,
    )


def single_selfish_miner() -> tuple[Miner, ...]:
    return (Miner(id=0, power=1.0, policy=MinerPolicy.SELFISH),)


def miners_with_protocol_share(protocol_share: float) -> tuple[Miner, ...]:
    """A small miner set whose protocol-following power share equals ``protocol_share``:
    four selfish miners of equal power, then one protocol-following miner.

    Per-block selections depend only on policy, not on miner identity, so a
    compact set with the right power split stands in for an arbitrarily large
    population.  With share 0 the four selfish miners play exactly like
    ``single_selfish_miner()``: the winner draw reads its own window, so the
    selections, pairings and welfare are the same and only the rounds'
    ``winner_id``s differ.  ``mechanism.play_replication`` relies on
    this to play such a variant once.
    """
    if not 0.0 <= protocol_share <= 1.0:
        raise ValueError("protocol_share must lie in [0, 1]")
    miners: list[Miner] = []
    selfish_power = 1.0 - protocol_share
    if selfish_power > 0.0:
        for i in range(4):
            miners.append(Miner(id=i, power=selfish_power / 4, policy=MinerPolicy.SELFISH))
    if protocol_share > 0.0:
        miners.append(
            Miner(id=len(miners), power=protocol_share, policy=MinerPolicy.PROTOCOL_FOLLOWING)
        )
    return tuple(miners)


@dataclass(frozen=True)
class FeeProfile:
    """One transaction fee per buyer and per seller (by participant index)."""

    buy_fees: tuple[float, ...]
    sell_fees: tuple[float, ...]

    def __post_init__(self) -> None:
        fees = np.array((*self.buy_fees, *self.sell_fees), dtype=float)
        valid = (fees >= 0.0) & (fees < math.inf)  # False for NaN, -inf and inf
        if not valid.all():
            first = int(np.argmin(valid))
            side = "buy_fees" if first < len(self.buy_fees) else "sell_fees"
            raise ValueError(f"{side} must be finite and nonnegative, got {fees[first]}")

    def quantized(self, fee_unit: float) -> "FeeProfile":
        """Round every fee to the nearest integer multiple of ``fee_unit``."""
        return FeeProfile(
            buy_fees=tuple(round(f / fee_unit) * fee_unit for f in self.buy_fees),
            sell_fees=tuple(round(f / fee_unit) * fee_unit for f in self.sell_fees),
        )

    def with_buy_fee(self, index: int, fee: float) -> "FeeProfile":
        fees = list(self.buy_fees)
        fees[index] = fee
        return FeeProfile(buy_fees=tuple(fees), sell_fees=self.sell_fees)

    def with_sell_fee(self, index: int, fee: float) -> "FeeProfile":
        fees = list(self.sell_fees)
        fees[index] = fee
        return FeeProfile(buy_fees=self.buy_fees, sell_fees=tuple(fees))


@dataclass(frozen=True)
class RoundRecord:
    """Outcome of one mining round: who won and what got included."""

    block: int
    winner_id: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MatchTrace:
    """Per-round record of matches over a full horizon."""

    rounds: tuple[RoundRecord, ...]

    def validate(self, instance: MarketInstance) -> None:
        """Check structural invariants against the originating instance."""
        utilities, costs = instance.utility_array.tolist(), instance.cost_array.tolist()
        num_buyers, num_sellers = len(utilities), len(costs)
        seen_buyers: set[int] = set()
        seen_sellers: set[int] = set()
        for rec in self.rounds:
            if len(rec.pairs) > instance.block_size:
                raise ValueError(f"block {rec.block} holds {len(rec.pairs)} pairs > block size")
            for buyer_id, seller_id in rec.pairs:
                if not (0 <= buyer_id < num_buyers and 0 <= seller_id < num_sellers):
                    raise ValueError(
                        f"participant id out of range: buyer {buyer_id} of {num_buyers}, "
                        f"seller {seller_id} of {num_sellers}"
                    )
                if buyer_id in seen_buyers or seller_id in seen_sellers:
                    raise ValueError("participant matched more than once")
                seen_buyers.add(buyer_id)
                seen_sellers.add(seller_id)
                if utilities[buyer_id] < costs[seller_id]:
                    raise ValueError(
                        f"infeasible match: R={utilities[buyer_id]} < C={costs[seller_id]}"
                    )


def rank_feasible(utilities: np.ndarray, costs: np.ndarray) -> bool:
    """True iff equal-size value arrays admit a perfect matching with R >= C.

    Sorting both sides ascending and requiring elementwise dominance is the
    Hall condition for this threshold-compatibility graph.
    """
    r = np.sort(np.asarray(utilities, dtype=float))
    c = np.sort(np.asarray(costs, dtype=float))
    if r.shape != c.shape:
        raise ValueError("need equally many utilities and costs")
    return bool(np.all(r >= c))  # True when both are empty
