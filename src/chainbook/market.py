"""Core market model: participants, payoffs, and matching feasibility.

Buyers post purchase orders (per-unit utility R in [0, 1], quantity b) and
sellers post sale orders (per-unit cost C in [0, 1], quantity q).  A matched
pair trades min(b, q) units at the mid price (R + C) / 2, so the gain from
trade splits equally.  Transactions are confirmed by miners in blocks of up
to ``block_size`` pairs; a transaction confirmed in block l bears a delay
cost of (l - 1) * d.

A ``MarketInstance`` stores each side as read-only value arrays, checked
once: utilities and buy quantities, costs and sell quantities.  A
participant's position is its id, and the engine indexes by it: fee
profiles, pending pools, selections, pairings, mixer sets and the value,
quantity and rank arrays all use positions.  ``MarketInstance.buyers`` and
``.sellers`` are tuples of ``Buyer``/``Seller`` (id = position) built from the
arrays on first read; the engine reads the arrays and builds none.

All types are immutable after construction and all operations are pure
functions, so they are safe to use concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MinerPolicy",
    "Buyer",
    "Seller",
    "Miner",
    "MarketInstance",
    "FeeProfile",
    "RoundRecord",
    "MatchTrace",
    "pair_surplus",
    "buyer_payoff",
    "seller_payoff",
    "miner_round_payoff",
    "rank_feasible",
    "feasible_matching_exists",
    "build_instance",
    "single_selfish_miner",
    "miners_with_protocol_share",
]


class MinerPolicy(Enum):
    """How a miner fills its block."""

    SELFISH = "selfish"
    PROTOCOL_FOLLOWING = "protocol_following"


@dataclass(frozen=True)
class Buyer:
    """A buy order: per-unit utility ``utility`` for ``quantity`` units."""

    id: int
    utility: float
    quantity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.utility <= 1.0:
            raise ValueError(f"buyer {self.id}: utility {self.utility} outside [0, 1]")
        if not self.quantity > 0.0:  # NaN too
            raise ValueError(f"buyer {self.id}: quantity must be positive")


@dataclass(frozen=True)
class Seller:
    """A sell order: per-unit cost ``cost`` for ``quantity`` units."""

    id: int
    cost: float
    quantity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cost <= 1.0:
            raise ValueError(f"seller {self.id}: cost {self.cost} outside [0, 1]")
        if not self.quantity > 0.0:  # NaN too
            raise ValueError(f"seller {self.id}: quantity must be positive")


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
    and buy quantities, costs and sell quantities.  They are checked once, as
    ``Buyer``/``Seller`` check one participant, and ``with_block_size``
    variants share them.  The ``buyers`` and ``sellers`` tuples are built from
    them on first read.

    ``block_size`` counts buyer/seller *pairs* per block (2A transactions).
    With ``quantize_fees`` every play rounds its equilibrium fees to whole
    ``fee_unit``s (see :func:`chainbook.welfare.simulate_once`).
    ``horizon`` defaults to the smallest number of blocks that could record
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
    horizon: int | None = None

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
        """Check the block size, delay cost, fee unit and miners; derive or check the horizon."""
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
        min_side = min(len(self.utility_array), len(self.cost_array))
        floor_horizon = math.ceil(min_side / self.block_size)
        if self.horizon is None:
            object.__setattr__(self, "horizon", floor_horizon)
        elif self.horizon < floor_horizon:
            raise ValueError(
                f"horizon {self.horizon} too short to record all pairs "
                f"(needs >= {floor_horizon})"
            )

    def __eq__(self, other: object) -> bool:
        """Field by field, the value arrays elementwise."""
        if not isinstance(other, MarketInstance):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _VALUE_ARRAYS) and (
            tuple(getattr(self, n) for n in _SCALAR_FIELDS)
            == tuple(getattr(other, n) for n in _SCALAR_FIELDS)
        )

    # Built from the arrays on first read, never by the engine.
    @cached_property
    def buyers(self) -> tuple[Buyer, ...]:
        """Buyer i has id i and row i of the buyer arrays."""
        return tuple(map(Buyer, range(self.num_buyers), self.utility_array.tolist(), self.buy_qty_array.tolist()))

    @cached_property
    def sellers(self) -> tuple[Seller, ...]:
        """Seller j has id j and row j of the seller arrays."""
        return tuple(map(Seller, range(self.num_sellers), self.cost_array.tolist(), self.sell_qty_array.tolist()))

    @property
    def num_buyers(self) -> int:
        return len(self.utility_array)

    @property
    def num_sellers(self) -> int:
        return len(self.cost_array)

    # Built on first use and shared with every with_block_size variant, the
    # arrays read-only.  The engine reads the arrays directly; utilities(),
    # costs() and the quantity getters hand out copies.
    @cached_property
    def buyer_rank(self) -> np.ndarray:
        """Buyer positions by utility descending, ties by position."""
        return _read_only(np.argsort(-self.utility_array, kind="stable"))

    @cached_property
    def seller_rank(self) -> np.ndarray:
        """Seller positions by cost ascending, ties by position."""
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

    def utilities(self) -> np.ndarray:
        return self.utility_array.copy()

    def buy_quantities(self) -> np.ndarray:
        return self.buy_qty_array.copy()

    def costs(self) -> np.ndarray:
        return self.cost_array.copy()

    def sell_quantities(self) -> np.ndarray:
        return self.sell_qty_array.copy()

    def with_block_size(
        self, block_size: int, miners: Sequence[Miner] | None = None
    ) -> "MarketInstance":
        """Same market under a different block size (horizon re-derived) and,
        if given, another miner set.  The variant shares this instance's arrays,
        already checked, its rank arrays, ranked sides and crossing index, and
        its equilibrium if already found and the block size is unchanged."""
        variant = object.__new__(MarketInstance)
        shared = (*_VALUE_ARRAYS, *_SCALAR_FIELDS, "buyer_rank", "seller_rank", "ranked_sides", "crossing_index")
        variant.__dict__.update({name: getattr(self, name) for name in shared}, block_size=block_size, horizon=None)
        if block_size == self.block_size and "equilibrium" in self.__dict__:
            variant.__dict__["equilibrium"] = self.equilibrium
        if miners is not None:
            variant.__dict__["miners"] = tuple(miners)
        variant._check_terms()
        return variant


_VALUE_ARRAYS = ("utility_array", "cost_array", "buy_qty_array", "sell_qty_array")
_SCALAR_FIELDS = ("miners", "block_size", "delay_cost", "fee_unit", "quantize_fees", "horizon")


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _value_array(values) -> np.ndarray:
    """``values`` as a read-only float array; one that already is one is shared."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable:
        return values
    return _read_only(np.array(values, dtype=float))


def _side_arrays(values, quantities, role: str, value_name: str) -> tuple[np.ndarray, np.ndarray]:
    """One side's value and quantity arrays, checked as ``Buyer``/``Seller`` check
    one participant; the error names the first bad position."""
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
    horizon: int | None = None,
) -> MarketInstance:
    """Assemble a MarketInstance from plain value arrays (unit quantities by default)."""
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
        horizon=horizon,
    )


def single_selfish_miner() -> tuple[Miner, ...]:
    return (Miner(id=0, power=1.0, policy=MinerPolicy.SELFISH),)


def miners_with_protocol_share(protocol_share: float, num_selfish: int = 4) -> tuple[Miner, ...]:
    """A small miner set whose protocol-following power share equals ``protocol_share``.

    Per-block selections depend only on policy, not on miner identity, so a
    compact set with the right power split stands in for an arbitrarily large
    population.
    """
    if not 0.0 <= protocol_share <= 1.0:
        raise ValueError("protocol_share must lie in [0, 1]")
    miners: list[Miner] = []
    selfish_power = 1.0 - protocol_share
    if selfish_power > 0.0:
        for i in range(num_selfish):
            miners.append(Miner(id=i, power=selfish_power / num_selfish, policy=MinerPolicy.SELFISH))
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


def pair_surplus(buyer: Buyer, seller: Seller) -> tuple[float, float, float]:
    """Surpluses of a matched pair trading min(b, q) units at the mid price.

    Returns ``(buy_surplus, sell_surplus, trade_qty)``.  The two surpluses
    always sum to ``trade_qty * (R - C)`` exactly: the mid price splits the
    gain from trade equally.
    """
    qty = min(buyer.quantity, seller.quantity)
    mid = (buyer.utility + seller.cost) / 2.0
    return qty * (buyer.utility - mid), qty * (mid - seller.cost), qty


def buyer_payoff(
    buyer: Buyer,
    fee: float,
    matched: bool,
    inclusion_block: int | None = None,
    paired_seller: Seller | None = None,
    delay_cost: float = 0.0,
) -> float:
    """Realized payoff of a buyer: surplus minus fee minus per-block delay.

    An unmatched buyer pays nothing and bears no delay, so the payoff is 0.
    """
    if not matched:
        return 0.0
    if inclusion_block is None or paired_seller is None:
        raise ValueError("matched buyer needs an inclusion block and a paired seller")
    surplus, _, _ = pair_surplus(buyer, paired_seller)
    return surplus - fee - (inclusion_block - 1) * delay_cost


def seller_payoff(
    seller: Seller,
    fee: float,
    matched: bool,
    inclusion_block: int | None = None,
    paired_buyer: Buyer | None = None,
    delay_cost: float = 0.0,
) -> float:
    """Mirror of :func:`buyer_payoff` with the seller-side surplus."""
    if not matched:
        return 0.0
    if inclusion_block is None or paired_buyer is None:
        raise ValueError("matched seller needs an inclusion block and a paired buyer")
    _, surplus, _ = pair_surplus(paired_buyer, seller)
    return surplus - fee - (inclusion_block - 1) * delay_cost


def miner_round_payoff(selected_fees: Iterable[float], power: float) -> float:
    """Expected fee revenue of one miner for one block: power * sum(fees)."""
    return power * math.fsum(selected_fees)


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


def feasible_matching_exists(
    buyer_utils: Sequence[float], seller_costs: Sequence[float]
) -> bool:
    """True iff a one-to-one matching with R >= C on every pair exists."""
    if len(buyer_utils) != len(seller_costs):
        raise ValueError(
            f"length mismatch: {len(buyer_utils)} utilities vs {len(seller_costs)} costs"
        )
    return rank_feasible(np.asarray(buyer_utils), np.asarray(seller_costs))
