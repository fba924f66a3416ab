"""Harness tests: scenarios, pairing, reproducibility, config handling."""

import hashlib
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import chainbook.equilibrium as eq
import chainbook.mechanism as mechanism
from chainbook import distributions as dist
from chainbook.cli import main
from chainbook.experiments import (
    ExperimentSpec,
    HarnessConfig,
    Scenario,
    _comparison_variants,
    benchmark_block_size,
    compare_mechanisms,
    load_config,
    run_blocksize_limit,
    run_mechanism_comparison,
    run_random_counts,
)
from chainbook.market import miners_with_protocol_share
from chainbook.mechanism import _run_tasks, play_replication, sample_instance
from chainbook.miners import PendingPool
from chainbook.reporting import emit_report
from chainbook.welfare import simulate_once


def _separated_config(**overrides):
    defaults = dict(
        num_buyers=12,
        num_sellers=12,
        delay_cost=0.005,
        distributions={
            "R": dist.uniform(0.55, 1.0),
            "C": dist.uniform(0.0, 0.45),
            "B": dist.point_mass(1.0),
            "Q": dist.point_mass(1.0),
        },
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


def test_benchmark_block_size_even_rounding():
    assert benchmark_block_size(10, 13) == 10
    assert benchmark_block_size(7, 13) == 8
    assert benchmark_block_size(5, 5) == 6


def test_comparison_shares_populations_across_variants():
    [comp] = compare_mechanisms(
        _separated_config(), seller_grid=(10,), non_selfish_fraction=0.2, replications=12, seed=5
    )
    # On separated values every mechanism clears the whole market in block 1.
    assert np.allclose(comp.samples["abs_distributional"], comp.optimum)
    assert np.allclose(comp.samples["benchmark_max_block"], comp.optimum)
    assert np.allclose(comp.samples["abs_non_selfish"], comp.optimum)


def _comparison_replication(config, a_dist, fraction, rep):
    """Replication ``rep`` of the paired comparison at N = 12, seed 5, with
    abs_distributional's size ``a_dist``, through the replication engine."""
    variants = partial(_comparison_variants, a_dist, fraction)
    return play_replication(config.at(12), variants, 5, rep)


def test_comparison_replication_finds_three_equilibria(monkeypatch):
    # abs_non_selfish differs from abs_distributional only in its miners, so
    # it keeps that variant's equilibrium: three found per replication, not four.
    found = []
    real = eq.psne
    monkeypatch.setattr(eq, "psne", lambda inst: found.append(inst.block_size) or real(inst))
    config = _heterog()
    sw, _, sizes = _comparison_replication(config, 3, 0.3, 2)
    assert len(found) == 3 and found[0] == sizes["abs_distributional"] == 3
    base = _assert_fresh_plays(config, 0.3, 2, sw, sizes)
    assert base.crossing_index > 3  # mixed: the shared equilibrium is drawn from
    assert len(found) == 7


def _assert_fresh_plays(config, fraction, rep, sw, sizes):
    """Each variant's welfare in replication ``rep`` (N = 12, seed 5) is that
    of a play on a fresh instance of its own; returns the population."""
    seeds = np.random.SeedSequence([5, 12, rep, 0]), np.random.SeedSequence([5, 12, rep, 1])
    base = sample_instance(config.at(12), 1, np.random.default_rng(seeds[0]))
    for variant, a in sizes.items():
        miners = miners_with_protocol_share(fraction) if variant == "abs_non_selfish" else None
        assert simulate_once(base.with_block_size(a, miners), np.random.default_rng(seeds[1])).sw == sw[variant]
    return base


@pytest.mark.parametrize(
    "a_dist, rep, fraction, plays",
    [
        (3, 2, 0.0, 3),  # abs_non_selfish's four selfish miners play as one
        (3, 2, 0.3, 4),  # a protocol-following miner: a play of its own
        (10, 0, 0.0, 2),  # abs_complete's size is abs_distributional's too
        (10, 0, 0.3, 3),
    ],
)
def test_comparison_replication_plays_each_distinct_mechanism_once(monkeypatch, a_dist, rep, fraction, plays):
    # A play is fixed by the block size and the policy mix, so variants that
    # agree on both share one play; a_dist 3 is a mixed equilibrium at rep 2.
    played = []
    monkeypatch.setattr(mechanism, "simulate_once", lambda inst, rng: played.append(inst) or simulate_once(inst, rng))
    config = _heterog()
    sw, _, sizes = _comparison_replication(config, a_dist, fraction, rep)
    assert len(played) == plays
    assert (sizes["abs_complete"] == a_dist) == (rep == 0)
    if fraction == 0.0:
        assert sw["abs_non_selfish"] == sw["abs_distributional"]
    if rep == 0:
        assert sw["abs_complete"] == sw["abs_distributional"]
    _assert_fresh_plays(config, fraction, rep, sw, sizes)


def test_mechanism_comparison_rows():
    spec = ExperimentSpec(
        scenario=Scenario.MECHANISM_COMPARISON,
        replications=6,
        seed=3,
        seller_grid=(8, 12),
    )
    rows = run_mechanism_comparison(spec, _separated_config())
    assert len(rows) == 2 * 5  # four mechanisms + the optimum row per N
    for row in rows:
        assert set(row) >= {"scenario", "mechanism", "N", "K", "A", "sw_mean", "sw_stderr", "sw_opt", "ratio"}
        assert row["ratio"] <= 1.0 + 1e-9


def test_random_counts_reduces_to_comparison_when_constant():
    config = _separated_config()
    spec = ExperimentSpec(scenario=Scenario.RANDOM_COUNTS, replications=1, seed=9)
    rows = run_random_counts(spec, config, [10, 10, 10, 10])
    periods = [r for r in rows if r["mechanism"] != "summary"]
    assert len(periods) == 4
    assert all(r["A"] == periods[0]["A"] for r in periods)
    summary = rows[-1]
    assert summary["mechanism"] == "summary"
    assert summary["ratio"] == pytest.approx(1.0, abs=1e-9)  # separated: exact clears


def test_random_counts_periods_are_comparison_replications():
    # Period t at count N is replication t at (seed, N): the comparison's
    # population, optimum and abs_distributional play.
    config = _heterog()
    rows = run_random_counts(ExperimentSpec(scenario=Scenario.RANDOM_COUNTS, seed=9), config, [12] * 4)
    [comp] = compare_mechanisms(config, (12,), 0.0, replications=4, seed=9)
    periods = rows[:-1]
    assert [r["sw_opt"] for r in periods] == comp.optimum.tolist()
    assert [r["sw_mean"] for r in periods] == comp.samples["abs_distributional"].tolist()
    assert [r["A"] for r in periods] == comp.block_sizes["abs_distributional"].tolist()


def test_random_counts_empty_sequence():
    spec = ExperimentSpec(scenario=Scenario.RANDOM_COUNTS, replications=1, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        run_random_counts(spec, _separated_config(), [])


def test_blocksize_limit_cap_binds():
    spec = ExperimentSpec(
        scenario=Scenario.BLOCK_SIZE_LIMIT, replications=4, seed=1, seller_grid=(8,)
    )
    rows = run_blocksize_limit(spec, _separated_config(), max_block_size=2)
    abs_row = next(r for r in rows if r["mechanism"] == "abs_capped")
    assert 1 <= abs_row["A"] <= 2
    bench_row = next(r for r in rows if r["mechanism"] == "benchmark_max_block")
    assert bench_row["A"] <= 2


def test_blocksize_limit_cap_one():
    spec = ExperimentSpec(
        scenario=Scenario.BLOCK_SIZE_LIMIT, replications=3, seed=2, seller_grid=(6,)
    )
    rows = run_blocksize_limit(spec, _separated_config(), max_block_size=1)
    abs_row = next(r for r in rows if r["mechanism"] == "abs_capped")
    assert abs_row["A"] == 1


def test_blocksize_limit_draws_new_populations_at_each_n(monkeypatch):
    # Keyed by replication alone, the N = 12 buyers' values would begin with
    # the N = 10 buyers' values of the same replication.
    drawn = []
    real = mechanism.sample_instance
    monkeypatch.setattr(mechanism, "sample_instance", lambda *args: drawn.append(real(*args)) or drawn[-1])
    spec = ExperimentSpec(scenario=Scenario.BLOCK_SIZE_LIMIT, replications=3, seed=4, seller_grid=(10, 12))
    run_blocksize_limit(spec, HarnessConfig(), max_block_size=2)
    assert [population.num_sellers for population in drawn] == [10, 12] * 3  # replication-major
    for small, large in zip(drawn[::2], drawn[1::2]):
        assert not np.array_equal(large.utility_array[:10], small.utility_array)


def test_blocksize_limit_optimum_is_the_comparisons():
    # Replication r at (seed, N) is the same market in every scenario.
    config = HarnessConfig()
    capped = run_blocksize_limit(
        ExperimentSpec(scenario=Scenario.BLOCK_SIZE_LIMIT, replications=20, seed=2, seller_grid=(60,)), config, 3
    )
    compared = run_mechanism_comparison(
        ExperimentSpec(scenario=Scenario.MECHANISM_COMPARISON, replications=20, seed=2, seller_grid=(60,)), config
    )
    optimum = next(r for r in compared if r["mechanism"] == "social_optimum")
    assert capped[0]["sw_opt"] == capped[1]["sw_opt"] == optimum["sw_mean"] == optimum["sw_opt"]
    assert optimum["sw_opt"] == pytest.approx(14.5365, abs=1e-4)


@pytest.mark.parametrize("seed", range(8))
def test_blocksize_limit_rows_are_paired(seed):
    spec = ExperimentSpec(
        scenario=Scenario.BLOCK_SIZE_LIMIT, replications=2, seed=seed, seller_grid=(20,)
    )
    rows = run_blocksize_limit(spec, HarnessConfig(), max_block_size=10)
    for capped, bench in zip(rows[::2], rows[1::2]):
        assert (capped["mechanism"], bench["mechanism"]) == ("abs_capped", "benchmark_max_block")
        assert capped["sw_opt"] == bench["sw_opt"]
        assert capped["ratio"] <= 1.0 and bench["ratio"] <= 1.0
        assert capped["sw_mean"] >= bench["sw_mean"]


@pytest.mark.parametrize("path", ["blocksize_limit", "cli_simulate", "cli_mechanism"])
def test_every_play_quantizes_fees(path, tmp_path, monkeypatch):
    unit = 1e-3
    played = []
    from_instance = PendingPool.from_instance.__func__

    def recording(cls, instance, profile):
        played.append(profile.buy_fees + profile.sell_fees)
        return from_instance(cls, instance, profile)

    monkeypatch.setattr(PendingPool, "from_instance", classmethod(recording))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epsilon": unit, "quantize_fees": True}), encoding="utf-8")
    if path == "blocksize_limit":
        spec = ExperimentSpec(
            scenario=Scenario.BLOCK_SIZE_LIMIT, replications=3, seed=1, seller_grid=(10,)
        )
        run_blocksize_limit(spec, load_config(str(config_path)), max_block_size=5)
    elif path == "cli_simulate":
        _cli_rows(tmp_path, "simulate", "--config", str(config_path), "--replications", "3")
    else:
        _cli_rows(
            tmp_path, "mechanism", "--config", str(config_path), "--a-max", "3", "--replications", "2"
        )
    off_grid = [fees for fees in played if any(f != round(f / unit) * unit for f in fees)]
    assert played and off_grid == []


def test_raising_protocol_share_never_lowers_welfare_here():
    config = _separated_config(num_buyers=10, num_sellers=8)
    [selfish] = compare_mechanisms(config, (8,), 0.0, replications=20, seed=13)
    [helped] = compare_mechanisms(config, (8,), 0.2, replications=20, seed=13)
    assert np.all(
        helped.samples["abs_non_selfish"] >= selfish.samples["abs_non_selfish"] - 1e-12
    )


def _beta_empirical_config(**overrides):
    return _separated_config(
        distributions={
            "R": dist.beta(2.0, 2.0, 0.5, 1.0),
            "C": dist.fit_empirical([0.05, 0.2, 0.3, 0.3, 0.45], (0.0, 0.5)),
            "B": dist.point_mass(1.0),
            "Q": dist.uniform(1.0, 2.0),
        },
        **overrides,
    )


def test_reports_reproducible_across_runs_and_threads():
    # Workers receive the config by pickle, so every distribution kind must
    # arrive rebuilt to the same numbers.
    for config in (_separated_config(), _beta_empirical_config(non_selfish_fraction=0.2)):
        spec1 = ExperimentSpec(
            scenario=Scenario.MECHANISM_COMPARISON, replications=6, seed=21, seller_grid=(8,)
        )
        rows_a = run_mechanism_comparison(spec1, config)
        rows_b = run_mechanism_comparison(spec1, config)
        spec2 = ExperimentSpec(
            scenario=Scenario.MECHANISM_COMPARISON,
            replications=6,
            seed=21,
            seller_grid=(8,),
            threads=2,
        )
        rows_c = run_mechanism_comparison(spec2, config)
        text_a = emit_report(rows_a, "json", None, config.to_jsonable(), 21)
        text_b = emit_report(rows_b, "json", None, config.to_jsonable(), 21)
        text_c = emit_report(rows_c, "json", None, config.to_jsonable(), 21)
        assert text_a == text_b == text_c


def _run_scenario(scenario, config, threads, grid=(6, 10)):
    spec = ExperimentSpec(scenario=scenario, replications=3, seed=8, seller_grid=grid, threads=threads)
    if scenario is Scenario.RANDOM_COUNTS:
        return run_random_counts(spec, config, [6, 10, 8, 12])
    if scenario is Scenario.BLOCK_SIZE_LIMIT:
        return run_blocksize_limit(spec, config, 4)
    return run_mechanism_comparison(spec, config)


@pytest.mark.parametrize(
    "config", [_separated_config(), _beta_empirical_config()], ids=["uniform", "beta_empirical"]
)
@pytest.mark.parametrize(
    "scenario",
    [Scenario.RANDOM_COUNTS, Scenario.BLOCK_SIZE_LIMIT, Scenario.MECHANISM_COMPARISON],
    ids=lambda scenario: scenario.value,
)
def test_every_scenario_same_bytes_on_two_threads(scenario, config):
    texts = [
        emit_report(_run_scenario(scenario, config, threads), "json", None, config.to_jsonable(), 8)
        for threads in (1, 2)
    ]
    assert texts[0] == texts[1]


_PICKLED = []


class _CountedPickle:
    """Counts, in the process that pickles it, how often it is pickled."""

    def __reduce__(self):
        _PICKLED.append(1)
        return _CountedPickle, ()


def _task_echo(config, task):
    return task


_GRID_TASKS = [(6, 0), (10, 0), (6, 1), (10, 1), (6, 2), (10, 2)]


@pytest.mark.parametrize(
    "scenario, tasks",
    [(Scenario.MECHANISM_COMPARISON, _GRID_TASKS), (Scenario.BLOCK_SIZE_LIMIT, _GRID_TASKS),
     (Scenario.RANDOM_COUNTS, [(6, 0), (10, 1), (8, 2), (12, 3)])],
    ids=["mechanism_comparison", "blocksize_limit", "random_counts"],
)
def test_every_scenario_replication_is_a_play_replication(monkeypatch, scenario, tasks):
    # Three replications at each N of the grid, and one per random-counts period, as (N, r),
    # replication-major: a process's contiguous chunk of tasks then mixes small and large N.
    calls = []
    real = mechanism.play_replication
    monkeypatch.setattr(
        mechanism, "play_replication", lambda *args: calls.append((args[0].num_sellers, args[-1])) or real(*args)
    )
    _run_scenario(scenario, _separated_config(), 1)
    assert calls == tasks


def test_compare_mechanisms_rejects_zero_replications():
    with pytest.raises(ValueError, match="mc_replications must be >= 1"):
        compare_mechanisms(_separated_config(), (8,), 0.0, replications=0, seed=1)
    with pytest.raises(ValueError, match="the grid nonempty"):
        compare_mechanisms(_separated_config(), (), 0.0, replications=3, seed=1)


def test_process_pool_pickles_the_worker_once_per_chunk():
    _PICKLED.clear()
    assert _run_tasks(2, partial(_task_echo, _CountedPickle()), range(40)) == list(range(40))
    assert 1 <= len(_PICKLED) <= 2  # two chunks of 20 tasks


def test_run_tasks_starts_at_most_one_worker_per_task(recording_pool):
    assert _run_tasks(8, abs, [-1, -2]) == [1, 2]
    assert _run_tasks(2, abs, range(-5, 0)) == [5, 4, 3, 2, 1]
    assert _run_tasks(8, abs, [-3]) == [3]  # one task runs in this process
    assert recording_pool == [2, 2]


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda scenario: scenario.value)
def test_every_scenario_starts_one_pool(recording_pool, scenario):
    # Every replication of a 4-point grid (or of 4 random-counts periods) is one task list.
    _run_scenario(scenario, _separated_config(), 2, grid=(6, 8, 10, 12))
    assert recording_pool == [2]


def test_load_config_roundtrip(tmp_path):
    raw = {
        "K": 30,
        "N": 40,
        "rho": 0.75,
        "d": 0.02,
        "epsilon": 1e-5,
        "psi": 0.9,
        "b_lo": 1.0,
        "b_hi": 3.0,
        "non_selfish_fraction": 0.2,
        "distributions": {
            "R": {"kind": "beta", "a": 2.0, "b": 1.0},
            "C": {"kind": "uniform", "lo": 0.0, "hi": 0.5},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = load_config(str(path))
    assert config.num_buyers == 30
    assert config.num_sellers == 40
    assert config.rho == 0.75
    assert config.fee_unit == 1e-5
    assert config.distributions["R"].kind == "beta"
    assert config.all_distributions["B"].kind == "uniform"  # derived from b_lo/b_hi
    assert config.all_distributions["B"].support == (1.0, 3.0)
    assert config.to_jsonable()["psi"] == 0.9
    assert config.quantize_fees is False

    raw["quantize_fees"] = True
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert load_config(str(path)).quantize_fees is True


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(scenario=Scenario.MECHANISM_COMPARISON, replications=0)
    with pytest.raises(ValueError, match="seller_grid must be nonempty"):  # once a report of zero rows
        ExperimentSpec(scenario=Scenario.BLOCK_SIZE_LIMIT, seller_grid=())
    for threads in (0, -2):  # once ran silently in one process
        with pytest.raises(ValueError, match="threads must be >= 1"):
            ExperimentSpec(scenario=Scenario.BLOCK_SIZE_LIMIT, threads=threads)


def test_config_validation():
    with pytest.raises(ValueError, match="non_selfish_fraction"):
        HarnessConfig(non_selfish_fraction=1.5)


@pytest.mark.parametrize(
    "overrides, field",
    [({"num_buyers": 0}, "K and N"), ({"num_sellers": 0}, "K and N"),
     ({"b_lo": 2.0, "b_hi": 1.0}, "b_lo"), ({"psi": 1.0}, "psi"), ({"psi": -0.2}, "psi"),
     ({"rho": -1.0}, "rho"), ({"rho": 0.0}, "rho"), ({"rho": float("nan")}, "rho"), ({"rho": float("inf")}, "rho"),
     ({"num_buyers": 2.7}, "K must be a whole number"), ({"num_sellers": True}, "N must be a whole number"),
     ({"quantize_fees": "false"}, "quantize_fees must be true or false"), ({"quantize_fees": 1}, "quantize_fees"),
     ({"delay_cost": float("inf")}, "d must be finite"), ({"delay_cost": float("nan")}, "d must be finite"),
     ({"delay_cost": -0.1}, "d must be finite"), ({"fee_unit": float("inf")}, "epsilon must be finite"),
     ({"fee_unit": float("nan")}, "epsilon must be finite"), ({"fee_unit": 0.0}, "epsilon must be finite"),
     ({"b_lo": -1.0}, "b_lo must be finite"), ({"b_lo": 0.0, "b_hi": 1.0}, "b_lo must be finite"),
     ({"b_hi": float("inf")}, "b_hi must be finite"), ({"b_lo": float("nan")}, "b_lo must be finite")],
)
def test_config_rejects_bad_values(overrides, field):
    with pytest.raises(ValueError, match=field):
        HarnessConfig(**overrides)


def test_load_config_b_hi_defaults_to_b_lo(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"b_lo": 2.0}), encoding="utf-8")
    config = load_config(str(path))
    assert (config.b_lo, config.b_hi, config.to_jsonable()["b_hi"]) == (2.0, None, 2.0)  # derived where read
    assert config.all_distributions["B"].support == (2.0, 2.0)


@pytest.mark.parametrize(
    "raw, given",
    [({"b_lo": 1.0, "b_hi": 3.0}, {}), ({"b_lo": 2.0}, {}), ({"b_hi": 2.5}, {}),
     ({"b_lo": 1.0, "b_hi": 3.0}, {"B": dist.point_mass(2.0)})],
)
def test_code_built_config_derives_quantities_like_a_file(tmp_path, raw, given):
    # b_lo and b_hi mean the same in code as in a config file.
    path = tmp_path / "config.json"
    dists = {k: v.to_config() for k, v in given.items()}
    path.write_text(json.dumps({**raw, "distributions": dists}), encoding="utf-8")
    in_code = HarnessConfig(**raw, distributions=given)
    assert load_config(str(path)).to_jsonable() == in_code.to_jsonable()
    echo = in_code.to_jsonable()
    assert in_code.all_distributions["Q"].support == (echo["b_lo"], echo["b_hi"])


def test_replace_derives_quantities_anew():
    # B and Q not given are derived again from b_lo and b_hi; a given one is kept.
    widened = replace(HarnessConfig(), b_lo=1.0, b_hi=3.0)
    assert widened.to_jsonable() == HarnessConfig(b_lo=1.0, b_hi=3.0).to_jsonable()
    assert widened.all_distributions["B"].support == (1.0, 3.0)
    given = replace(HarnessConfig(distributions={"B": dist.point_mass(2.0)}), b_lo=1.0, b_hi=3.0)
    assert given.all_distributions["B"].support == (2.0, 2.0)
    assert given.all_distributions["Q"].support == (1.0, 3.0)
    at = widened.at(10)  # the market a scenario plays at N = 10
    assert (at.num_sellers, at.num_buyers, at.all_distributions["Q"].support) == (10, 10, (1.0, 3.0))
    assert [HarnessConfig(rho=0.1).at(n).num_buyers for n in (1, 20, 25)] == [1, 2, 2]


def test_replace_derives_b_hi_anew():
    # b_hi not given reads as the new b_lo; a given one is kept.
    raised = replace(HarnessConfig(), b_lo=2.0)
    assert raised.all_distributions["B"].support == (2.0, 2.0)
    assert raised.to_jsonable()["b_hi"] == 2.0
    assert replace(HarnessConfig(b_hi=3.0), b_lo=2.0).all_distributions["B"].support == (2.0, 3.0)


def test_load_config_rejects_unknown_keys(tmp_path):
    # A misspelt key would otherwise run the default market silently (d = 0.01 here).
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"delay_cost": 0.5, "Kx": 3, "d": 0.02}), encoding="utf-8")
    with pytest.raises(ValueError, match=r"unknown config keys \['Kx', 'delay_cost'\]") as info:
        load_config(str(path))
    assert "accepted: K, N, rho, d, epsilon, psi, b_lo, b_hi, non_selfish_fraction, quantize_fees, distributions" in str(info.value)


def _heterog(**overrides):
    return HarnessConfig(
        delay_cost=0.005,
        distributions={
            "R": dist.uniform(0.3, 1.0),
            "C": dist.uniform(0.0, 0.7),
            "B": dist.uniform(1.0, 3.0),
            "Q": dist.uniform(1.0, 3.0),
        },
        **overrides,
    )


def _rows_sha256(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


_ORDERS_CSV = """bid_price,ask_price,bid_qty,ask_qty
105.0,94.5,2.0,1.5
110.25,99.75,1.0,3.0
120.75,89.25,0.5,0.5
98.0,101.5,1.5,2.0
"""


def _cli_rows(tmp_path, *argv):
    out = tmp_path / f"{argv[0]}.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["results"]


# SHA-256 of json.dumps(rows, sort_keys=True), taken with numpy 2.4.6 and
# scipy 1.17.1.  A refactor that keeps the sampling order, the random streams
# and the summary rules leaves every hash unchanged.  The hashes of rows whose
# plays draw (ties, pairings of heterogeneous quantities, winners) were last
# re-taken when plays moved to keyed Philox windows; cli_mechanism's, whose
# mixed plays draw fees through the binomial tail, when that tail moved from
# scipy's survival function to numpy log-pmf terms; random_counts',
# blocksize_limit's and cli_mechanism's when every scenario moved to the
# one replication key [seed, N, r, 0 | 1].
PINNED_ROWS = {
    "comparison": "caa2c2e31f8c8d7cd902758004f27018b5f6f5e2bf7dfac0f506112b149a8332",
    "comparison_quantized": "2cb98df1ea5736568a036dd9ba86efe68b030f2b50a12f493418f29a21db59c4",
    "random_counts": "1f4052d21f5b76ebd40c7b993a7b892ad20d2b7f7ebcbc35406b4ed13cdc4a09",
    # Both rows read from one capped search, on its populations and their optimum.
    "blocksize_limit": "815a1f88bdc332da149c9de1c07152f36ec1c5319217872d226931c7c4e5f21d",
    "cli_simulate": "75bfebf819c04adb5486833f70e2eb7b5bac0885b9e58c22f3454471b2e872c5",
    "cli_equilibrium": "b3ae3214702ff605c5c7e948e1b32c9b88726c0413687cbf77758c0e7fa746ab",
    "cli_mechanism": "0b9f6444a6c4e43cdc3090985596dc3d0d5a3f534f52b18a4f07f0bb7c68bf38",
    "cli_poa": "70adcd3ce64838c2d790ccac752b727dfece58c8a068d9a902ce1516d119e8d9",
    "cli_ingest": "412a1a3e30c2e5c5cc0f33f2cd10436b48e16803953a3f18bb882e491f2a4aa7",
}


def test_report_rows_pinned(tmp_path):
    orders = tmp_path / "orders.csv"
    orders.write_text(_ORDERS_CSV, encoding="utf-8")
    comparison = Scenario.MECHANISM_COMPARISON
    rows = {
        "comparison": run_mechanism_comparison(
            ExperimentSpec(scenario=comparison, replications=6, seed=3, seller_grid=(8, 12)),
            _heterog(non_selfish_fraction=0.2),
        ),
        "comparison_quantized": run_mechanism_comparison(
            ExperimentSpec(scenario=comparison, replications=4, seed=3, seller_grid=(10,)),
            HarnessConfig(quantize_fees=True, fee_unit=1e-3),
        ),
        "random_counts": run_random_counts(
            ExperimentSpec(scenario=Scenario.RANDOM_COUNTS, seed=4), _heterog(), [8, 12, 8]
        ),
        "blocksize_limit": run_blocksize_limit(
            ExperimentSpec(
                scenario=Scenario.BLOCK_SIZE_LIMIT, replications=5, seed=5, seller_grid=(10,)
            ),
            HarnessConfig(),
            4,
        ),
        "cli_simulate": _cli_rows(tmp_path, "simulate", "--replications", "3", "--seed", "2"),
        "cli_equilibrium": _cli_rows(tmp_path, "equilibrium", "--seed", "2"),
        "cli_mechanism": _cli_rows(
            tmp_path, "mechanism", "--a-max", "3", "--replications", "4", "--seed", "2"
        ),
        "cli_poa": _cli_rows(tmp_path, "poa", "--target", "50", "--seed", "1"),
        "cli_ingest": _cli_rows(tmp_path, "ingest", "--input", str(orders)),
    }
    assert {case: _rows_sha256(r) for case, r in rows.items()} == PINNED_ROWS


def test_large_comparison_rows_pinned():
    # Selections of up to 300 rows reach the third 64-row block of the
    # all-prefix Hall check.  Hash taken with numpy 2.4.6 and scipy 1.17.1,
    # on the keyed Philox windows.
    rows = run_mechanism_comparison(
        ExperimentSpec(
            scenario=Scenario.MECHANISM_COMPARISON, replications=4, seed=7, seller_grid=(150, 300)
        ),
        HarnessConfig(non_selfish_fraction=0.2),
    )
    assert _rows_sha256(rows) == "8dfd7821589ce14529eeee99707219fd4ad0e1e087ca07e15d3f8237497846ae"
