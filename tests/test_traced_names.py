"""The benchmark tracer wraps functions by name; every name must still resolve."""

import importlib
import importlib.util
import json
import subprocess
import sys
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
    selection = selfish_select(pool, inst, 7, 1)
    limit = min(8, int(np.count_nonzero(np.array(pool.buy_fees) > 0)), int(np.count_nonzero(np.array(pool.sell_fees) > 0)))
    assert 0 < selection.size <= limit < len(pool.sell_fees)
    selection_attr = _load_tracer()._selection_attr
    assert selection_attr((pool, inst, 7), {}, selection) == [selection.size, limit]
    assert selection_attr((), {"pool": pool, "instance": inst}, selection) == [selection.size, limit]


_SPAN_COUNT_SCRIPT = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
import chainbook.cli  # loads every traced module
from tracer import Tracer
from chainbook import miners
from chainbook.market import FeeProfile, Miner, MinerPolicy, build_instance, miners_with_protocol_share

tracer = Tracer()
tracer.install()
miner_sets = (None, miners_with_protocol_share(0.3), (Miner(0, 0.5), Miner(1, 0.5)), miners_with_protocol_share(1.0))
rng = np.random.default_rng(11)
plays = []
for case in range(80):
    k, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    inst = build_instance(rng.integers(0, 5, k) / 4.0, rng.integers(0, 5, n) / 4.0,
                          block_size=int(rng.integers(1, 4)), miners=miner_sets[case % 4])
    fees = np.array([0.0, 0.1, 0.2, 0.2, 0.5])
    profile = FeeProfile(tuple(rng.choice(fees, k)), tuple(rng.choice(fees, n)))
    first = len(tracer.spans)
    trace = miners.run_horizon(inst, profile, np.random.default_rng(case))
    spans = [(tracer.names[s[2]], s[1]) for s in tracer.spans[first:]]
    ids = {s[0]: tracer.names[s[2]] for s in tracer.spans[first:]}
    matched = [pair for r in trace.rounds for pair in r.pairs]
    policy_of = {m.id: m.policy for m in inst.miners}
    plays.append({
        "rounds": len(trace.rounds),
        "horizon": inst.horizon,
        "pool_left": len({b for b, _ in matched}) < k and len({s for _, s in matched}) < n,
        "policies": sorted({m.policy.value for m in inst.miners}),
        "selfish_wins": sum(policy_of[r.winner_id] == MinerPolicy.SELFISH for r in trace.rounds),
        "names": [name for name, _ in spans],
        "parents": [[name, ids.get(parent)] for name, parent in spans],
    })
print(json.dumps(plays))
"""


def test_traced_horizon_counts_rounds_and_selections():
    # perfbench's rounds_per_horizon and select_fill_ratio read these counts.
    # A subprocess, because installing the tracer rebinds module globals.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _SPAN_COUNT_SCRIPT, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    plays = json.loads(out)
    ended_empty = 0
    for play in plays:
        empty_round = play["rounds"] < play["horizon"] and play["pool_left"]
        ended_empty += empty_round
        rounds = play["names"].count("miners.run_round")
        assert play["names"].count("miners.run_horizon") == 1
        assert rounds == play["rounds"] + empty_round
        # Only the winner's policy selects, unless its selection is empty.
        selections = play["names"].count("miners.selfish_select")
        if play["policies"] == ["selfish"]:
            assert selections == rounds
        elif "selfish" in play["policies"]:
            assert play["selfish_wins"] <= selections <= rounds
        else:
            assert selections == 0
        for name, parent in play["parents"]:
            if name in ("miners.selfish_select", "miners.recommend_matching"):
                assert parent == "miners.run_round"
            elif name == "miners.run_round":
                assert parent == "miners.run_horizon"
    assert 0 < ended_empty < len(plays)


_PLAY_PATH_SCRIPT = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
import chainbook.cli  # loads every traced module
from tracer import Tracer
from chainbook import experiments as xp, welfare
from chainbook.market import build_instance

tracer = Tracer()
tracer.install()

def play_spans(run):
    first = len(tracer.spans)
    run()
    spans = tracer.spans[first:]
    names = {s[0]: tracer.names[s[2]] for s in spans}
    return {
        "simulate_once": sum(name == "experiments.simulate_once" for name in names.values()),
        "horizon_parents": [names.get(s[1]) for s in spans if names[s[0]] == "miners.run_horizon"],
    }

spec = xp.ExperimentSpec(scenario=xp.Scenario.BLOCK_SIZE_LIMIT, replications=3, seed=1, seller_grid=(6, 10))
rng = np.random.default_rng(5)
inst = build_instance(rng.random(8), rng.random(8), block_size=1, delay_cost=0.05)
print(json.dumps({
    "blocksize_limit": play_spans(lambda: xp.run_blocksize_limit(spec, xp.HarnessConfig(), 4)),
    "performance_ratio": play_spans(lambda: welfare.performance_ratio(inst, 2, mc_replications=5, rng_seed=3)),
}))
"""


def test_every_play_runs_through_simulate_once():
    # A second play path would show as a run_horizon span with another parent.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _PLAY_PATH_SCRIPT, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    runs = json.loads(out)
    for run in runs.values():
        assert run["horizon_parents"]
        assert set(run["horizon_parents"]) == {"experiments.simulate_once"}
    assert runs["blocksize_limit"]["simulate_once"] == 3 * 4 * 2  # replications x cap x grid
    assert runs["performance_ratio"]["simulate_once"] == 5
