"""Dataset ingestion tests: parsing, errors, normalization round-trips."""

import numpy as np
import pytest

from chainbook.datasets import ingest_csv


def _write(tmp_path, text, name="orders.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


WELL_FORMED = """bid_price,ask_price,bid_qty,ask_qty
105.0,94.5,2.0,1.5
110.25,99.75,1.0,3.0
120.75,89.25,0.5,0.5
"""


def test_ingest_well_formed(tmp_path):
    ds = ingest_csv(_write(tmp_path, WELL_FORMED))
    assert len(ds) == 3
    assert ds.bid_prices == (105.0, 110.25, 120.75)
    assert ds.ask_qtys == (1.5, 3.0, 0.5)


def test_ingest_non_numeric_cell_names_row(tmp_path):
    text = "bid_price,ask_price,bid_qty,ask_qty\n105,94.5,2,1.5\n110,oops,1,3\n"
    with pytest.raises(ValueError, match="row 3"):
        ingest_csv(_write(tmp_path, text))


def test_ingest_nonpositive_cell_names_row(tmp_path):
    text = "bid_price,ask_price,bid_qty,ask_qty\n105,94.5,2,1.5\n-1,95,1,3\n"
    with pytest.raises(ValueError, match="row 3"):
        ingest_csv(_write(tmp_path, text))


def test_ingest_missing_column(tmp_path):
    text = "bid_price,ask_price,bid_qty\n105,94.5,2\n"
    with pytest.raises(ValueError, match="missing columns"):
        ingest_csv(_write(tmp_path, text))


def test_ingest_empty_file(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        ingest_csv(_write(tmp_path, ""))
    with pytest.raises(ValueError, match="no data rows"):
        ingest_csv(_write(tmp_path, "bid_price,ask_price,bid_qty,ask_qty\n"))


def test_ingest_column_remapping(tmp_path):
    text = "Bid,Ask,BQ,AQ\n105,94.5,2,1.5\n"
    ds = ingest_csv(
        _write(tmp_path, text),
        column_map={"bid_price": "Bid", "ask_price": "Ask", "bid_qty": "BQ", "ask_qty": "AQ"},
    )
    assert ds.bid_prices == (105.0,)
    with pytest.raises(ValueError, match="unknown logical"):
        ingest_csv(_write(tmp_path, text), column_map={"bid": "Bid"})


def test_price_to_value_ratio(tmp_path):
    # Prices are divided by 1.05 before the affine map onto [0, 1].
    ds = ingest_csv(_write(tmp_path, "bid_price,ask_price,bid_qty,ask_qty\n105.0,94.5,2,1\n110.25,99.75,1,3\n"))
    assert ds.price_to_value_ratio == 1.05
    bids, asks = np.array([105.0, 110.25]) / 1.05, np.array([94.5, 99.75]) / 1.05
    pooled = np.concatenate([bids, asks])
    assert ds.norm_offset == pooled.min()
    assert ds.norm_scale == pooled.max() - pooled.min()
    assert ds.utilities().tolist() == ((bids - pooled.min()) / (pooled.max() - pooled.min())).tolist()
    assert ds.costs().tolist() == ((asks - pooled.min()) / (pooled.max() - pooled.min())).tolist()


def test_values_normalized_to_unit_interval(tmp_path):
    ds = ingest_csv(_write(tmp_path, WELL_FORMED))
    utils = ds.utilities()
    costs = ds.costs()
    pooled = np.concatenate([utils, costs])
    assert pooled.min() == pytest.approx(0.0)
    assert pooled.max() == pytest.approx(1.0)
    assert np.all((pooled >= 0) & (pooled <= 1))
    # Ordering preserved by the affine map.
    assert np.argmax(utils) == np.argmax(ds.bid_prices)


def test_normalization_roundtrip(tmp_path):
    ds = ingest_csv(_write(tmp_path, WELL_FORMED))
    # Welfare of a probe matching computed on both scales.
    utils = ds.utilities()
    costs = ds.costs()
    qty = np.minimum(ds.bid_qtys, ds.ask_qtys)
    normalized = float(np.sum(qty * (utils - costs)))
    raw_utils = np.asarray(ds.bid_prices) / ds.price_to_value_ratio
    raw_costs = np.asarray(ds.ask_prices) / ds.price_to_value_ratio
    raw = float(np.sum(qty * (raw_utils - raw_costs)))
    assert ds.denormalize_welfare(normalized) == pytest.approx(raw, rel=1e-9)


def test_delay_cost_normalization(tmp_path):
    ds = ingest_csv(_write(tmp_path, WELL_FORMED))
    assert ds.normalize_delay_cost(0.3) * ds.norm_scale == pytest.approx(0.3)


def test_to_distributions(tmp_path):
    ds = ingest_csv(_write(tmp_path, WELL_FORMED))
    fitted = ds.to_distributions()
    assert set(fitted) == {"R", "C", "B", "Q"}
    assert fitted["R"].support == (0.0, 1.0)
    assert 0.0 <= fitted["C"].ppf(0.5) <= 1.0
