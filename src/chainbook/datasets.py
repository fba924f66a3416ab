"""CSV order-data ingestion and price normalization.

Input files carry one row per order book snapshot with bid/ask prices and
quantities.  Quoted prices overstate true willingness to pay, so utilities
and costs are prices divided by a fixed price-to-value ratio,
``PRICE_TO_VALUE_RATIO`` (1.05).
The model needs values in [0, 1]; a single affine map over the pooled
bid/ask-derived values does that, and its parameters are recorded so that
reported welfare can be mapped back to the raw price scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .distributions import ValueDistribution, fit_empirical

__all__ = ["OrderDataset", "ingest_csv", "DEFAULT_COLUMNS", "PRICE_TO_VALUE_RATIO"]

DEFAULT_COLUMNS = {
    "bid_price": "bid_price",
    "ask_price": "ask_price",
    "bid_qty": "bid_qty",
    "ask_qty": "ask_qty",
}
PRICE_TO_VALUE_RATIO = 1.05


@dataclass(frozen=True)
class OrderDataset:
    """Parsed order rows plus the affine normalization into [0, 1] value units."""

    bid_prices: tuple[float, ...]
    ask_prices: tuple[float, ...]
    bid_qtys: tuple[float, ...]
    ask_qtys: tuple[float, ...]
    price_to_value_ratio: float = PRICE_TO_VALUE_RATIO
    norm_offset: float = 0.0
    norm_scale: float = 1.0

    def __len__(self) -> int:
        return len(self.bid_prices)

    def utilities(self) -> np.ndarray:
        """Normalized per-unit buyer utilities."""
        raw = np.asarray(self.bid_prices) / self.price_to_value_ratio
        return (raw - self.norm_offset) / self.norm_scale

    def costs(self) -> np.ndarray:
        """Normalized per-unit seller costs."""
        raw = np.asarray(self.ask_prices) / self.price_to_value_ratio
        return (raw - self.norm_offset) / self.norm_scale

    def denormalize_welfare(self, welfare: float) -> float:
        """Map welfare in normalized value units back to the raw price scale.

        Welfare is a sum of value differences times quantities, so the affine
        offset cancels and only the scale matters.
        """
        return welfare * self.norm_scale

    def normalize_delay_cost(self, raw_delay_cost: float) -> float:
        return raw_delay_cost / self.norm_scale

    def to_distributions(self) -> dict[str, ValueDistribution]:
        """Fit empirical distributions for utilities, costs, and both quantity sides."""
        utils = self.utilities()
        costs = self.costs()
        qty = np.concatenate([self.bid_qtys, self.ask_qtys])
        return {
            "R": fit_empirical(utils, (0.0, 1.0)),
            "C": fit_empirical(costs, (0.0, 1.0)),
            "B": fit_empirical(self.bid_qtys, (min(qty), max(qty))),
            "Q": fit_empirical(self.ask_qtys, (min(qty), max(qty))),
        }


def _parse_positive(raw: str, column: str, row_number: int) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"row {row_number}: column {column!r} is not numeric: {raw!r}") from None
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"row {row_number}: column {column!r} must be positive, got {raw!r}")
    return value


def ingest_csv(path: str, column_map: dict[str, str] | None = None) -> OrderDataset:
    """Load an order CSV into an OrderDataset.

    ``column_map`` remaps the logical names (bid_price, ask_price, bid_qty,
    ask_qty) onto the file's header.  Errors (missing column, non-numeric or
    nonpositive cell, empty file) carry the offending row number.
    """
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown logical columns: {sorted(unknown)}")
        columns.update(column_map)

    bid_p, ask_p, bid_q, ask_q = [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file (no header row)")
        missing = [name for name in columns.values() if name not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing} (found {reader.fieldnames})")
        row_number = 1  # header is row 1
        for row in reader:
            row_number += 1
            bid_p.append(_parse_positive(row[columns["bid_price"]], columns["bid_price"], row_number))
            ask_p.append(_parse_positive(row[columns["ask_price"]], columns["ask_price"], row_number))
            bid_q.append(_parse_positive(row[columns["bid_qty"]], columns["bid_qty"], row_number))
            ask_q.append(_parse_positive(row[columns["ask_qty"]], columns["ask_qty"], row_number))
    if not bid_p:
        raise ValueError(f"{path}: no data rows")

    values = np.concatenate([np.asarray(bid_p), np.asarray(ask_p)]) / PRICE_TO_VALUE_RATIO
    offset = float(values.min())
    scale = float(values.max() - values.min())
    if scale == 0.0:
        scale = 1.0  # all orders at one price; utilities and costs collapse to 0
    return OrderDataset(
        bid_prices=tuple(bid_p),
        ask_prices=tuple(ask_p),
        bid_qtys=tuple(bid_q),
        ask_qtys=tuple(ask_q),
        norm_offset=offset,
        norm_scale=scale,
    )
