"""The benchmark tracer wraps functions by name; every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from chainbook.market import FeeProfile, build_instance
from chainbook.miners import PendingPool, run_round, selfish_select

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    missing = []
    for layer, attrs in _load_tracer().TRACED.items():
        module = importlib.import_module(f"chainbook.{layer}")
        for attr in attrs:
            target = module
            for part in attr.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"chainbook.{layer}.{attr}")
    assert missing == []


def test_selection_attr_reads_a_mid_play_pool():
    # The tracer iterates the pool's fee tuples and tests its id tuples for truth.
    rng = np.random.default_rng(3)
    inst = build_instance(rng.random(40), rng.random(30), block_size=8)
    # Fees rise with the gain from trade, so the top prefixes are feasible; some are zero.
    fees = np.where(rng.random(70) < 0.2, 0.0, np.concatenate((inst.utility_array, 1.0 - inst.cost_array)))
    profile = FeeProfile(buy_fees=tuple(fees[:40]), sell_fees=tuple(fees[40:]))
    record, pool = run_round(PendingPool.from_instance(inst, profile), inst, 5)
    assert record is not None and pool.round_index == 2
    selection = selfish_select(pool, inst, 7, (2,))
    limit = min(8, int(np.count_nonzero(np.array(pool.buy_fees) > 0)), int(np.count_nonzero(np.array(pool.sell_fees) > 0)))
    assert 0 < selection.size <= limit < len(pool.sell_fees)
    selection_attr = _load_tracer()._selection_attr
    assert selection_attr((pool, inst, 7), {}, selection) == [selection.size, limit]
    assert selection_attr((), {"pool": pool, "instance": inst}, selection) == [selection.size, limit]
