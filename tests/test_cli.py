"""CLI and reporting tests: subcommand smoke runs, formats, determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chainbook
from chainbook.cli import build_parser, main
from chainbook.reporting import CSV_COLUMNS, emit_report


CSV_TEXT = """bid_price,ask_price,bid_qty,ask_qty
105.0,94.5,2.0,1.5
110.25,99.75,1.0,3.0
120.75,89.25,0.5,0.5
115.5,92.4,1.0,1.0
"""


@pytest.fixture()
def config_path(tmp_path):
    config = {
        "K": 10,
        "N": 10,
        "d": 0.005,
        "epsilon": 1e-6,
        "psi": 0.85,
        "distributions": {
            "R": {"kind": "uniform", "lo": 0.55, "hi": 1.0},
            "C": {"kind": "uniform", "lo": 0.0, "hi": 0.45},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


def test_emit_report_json_roundtrip():
    rows = [{"scenario": "s", "mechanism": "m", "N": 3, "K": 2, "A": 1,
             "sw_mean": 0.5, "sw_stderr": 0.0, "sw_opt": 0.5, "ratio": 1.0}]
    text = emit_report(rows, "json", None, {"K": 2}, seed=7)
    payload = json.loads(text)
    assert payload["results"] == rows
    assert payload["seed"] == 7
    assert payload["config"] == {"K": 2}
    assert payload["version"] == f"chainbook-{chainbook.__version__}"


def test_pyproject_version_is_the_package_version():
    # A regex, not tomllib, which Python 3.10 lacks.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, re.MULTILINE) == [chainbook.__version__]


def test_source_lines_fit_120_columns():
    # Keeps line counts comparable: a change cannot shrink the code by packing lines.
    src = Path(__file__).resolve().parents[1] / "src"
    long = [f"{p.name}:{i}" for p in sorted(src.rglob("*.py"))
            for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 120]
    assert long == []


def test_emit_report_csv_shape():
    rows = [
        {"scenario": "s", "mechanism": "m", "N": 3, "K": 2, "A": 1,
         "sw_mean": 0.5, "sw_stderr": 0.0, "sw_opt": 0.5, "ratio": 1.0},
        {"scenario": "s", "mechanism": "m2", "N": 4, "K": 4, "A": 2,
         "sw_mean": 0.25, "sw_stderr": 0.0, "sw_opt": 0.5, "ratio": 0.5},
    ]
    text = emit_report(rows, "csv", None, seed=0)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == CSV_COLUMNS
    assert len(parsed) == len(rows) + 1


def test_emit_report_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit_report([], "yaml", None)


def test_cli_ingest(tmp_path):
    data = tmp_path / "orders.csv"
    data.write_text(CSV_TEXT, encoding="utf-8")
    text = _run(tmp_path, "ingest", "--input", str(data))
    payload = json.loads(text)
    row = payload["results"][0]
    assert row["N"] == 4
    assert set(row["distributions"]) == {"R", "C", "B", "Q"}


def test_cli_ingest_rejects_a_malformed_column_pair(tmp_path):
    data = tmp_path / "orders.csv"
    data.write_text(CSV_TEXT, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape("--columns pair 'bid_price' is not of the form logical=Header")):
        main(["ingest", "--input", str(data), "--columns", "bid_qty=bid_qty,bid_price", "--out", str(tmp_path / "o")])


def test_cli_equilibrium(tmp_path, config_path):
    text = _run(tmp_path, "equilibrium", "--config", config_path, "--seed", "3")
    row = json.loads(text)["results"][0]
    assert row["mechanism"] in {"psne", "msne"}
    assert row["crossing_index"] >= 1


def test_cli_simulate(tmp_path, config_path):
    text = _run(tmp_path, "simulate", "--config", config_path, "--seed", "3",
                "--replications", "4")
    row = json.loads(text)["results"][0]
    assert row["sw_opt"] > 0
    assert 0.0 <= row["ratio"] <= 1.0 + 1e-9


def test_cli_mechanism_with_cap(tmp_path, config_path):
    text = _run(tmp_path, "mechanism", "--config", config_path, "--a-max", "3",
                "--replications", "5")
    rows = json.loads(text)["results"]
    kinds = {r["mechanism"] for r in rows}
    assert {"abs_distributional", "abs_complete", "abs_capped"} <= kinds
    capped = next(r for r in rows if r["mechanism"] == "abs_capped")
    assert 1 <= capped["A"] <= 3


def test_cli_poa(tmp_path):
    text = _run(tmp_path, "poa", "--target", "25")
    rows = json.loads(text)["results"]
    assert len(rows) == 2
    for row in rows:
        assert row["poa"] >= 25 - 1e-6
        assert row["ratio"] == pytest.approx(1.0 / row["poa"], rel=1e-12)


def test_cli_poa_writes_the_performance_quotient_in_ratio(tmp_path):
    # As every other command does: ratio is sw / sw_opt; the anarchy quotient is the extra poa.
    rows = json.loads(_run(tmp_path, "poa", "--target", "100"))["results"]
    assert [row["mechanism"] for row in rows] == ["oversized_block", "undersized_block"]
    for row in rows:
        assert row["ratio"] == pytest.approx(0.01, rel=1e-9)
        assert row["ratio"] == pytest.approx(row["sw_mean"] / row["sw_opt"], rel=1e-15)
        assert row["poa"] == pytest.approx(100.0, rel=1e-9)


def test_cli_experiment_comparison(tmp_path, config_path):
    text = _run(
        tmp_path,
        "experiment",
        "--scenario",
        "mechanism_comparison",
        "--config",
        config_path,
        "--sellers",
        "8",
        "--replications",
        "4",
        "--seed",
        "11",
    )
    payload = json.loads(text)
    assert payload["seed"] == 11
    assert len(payload["results"]) == 5


def test_cli_experiment_random_counts_csv(tmp_path, config_path):
    out = tmp_path / "out.csv"
    code = main([
        "experiment", "--scenario", "random_counts", "--config", config_path,
        "--counts", "8,10,8", "--replications", "1", "--seed", "2",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert parsed[0] == CSV_COLUMNS
    assert len(parsed) == 1 + 3 + 1  # header + periods + summary


def test_cli_reports_byte_identical_for_same_seed(tmp_path, config_path):
    args = ["experiment", "--scenario", "mechanism_comparison", "--config", config_path,
            "--sellers", "8", "--replications", "3", "--seed", "5"]
    first = _run(tmp_path, *args)
    second = _run(tmp_path, *args)
    assert first == second


def test_cli_non_selfish_flag_overrides_config(tmp_path):
    # Mixed values, so the recommending miners change the welfare.
    def config(fraction):
        path = tmp_path / f"config_{fraction}.json"
        path.write_text(json.dumps({"K": 10, "N": 10, "non_selfish_fraction": fraction}),
                        encoding="utf-8")
        return str(path)

    args = ["experiment", "--scenario", "mechanism_comparison", "--sellers", "8",
            "--replications", "4", "--seed", "1"]
    flagged = json.loads(_run(tmp_path, *args, "--config", config(0.5), "--non-selfish", "0"))
    plain = json.loads(_run(tmp_path, *args, "--config", config(0.0)))
    helped = json.loads(_run(tmp_path, *args, "--config", config(0.5)))
    assert flagged["results"] != helped["results"]
    assert flagged["results"] == plain["results"]
    assert flagged["config"]["non_selfish_fraction"] == 0.0


def test_cli_threads_flag_belongs_to_experiment(tmp_path):
    # Only experiment reads --threads; any other subcommand rejects it.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--threads", "2"])
    assert exc.value.code == 2
    args = ["experiment", "--scenario", "random_counts", "--counts", "3,4", "--replications", "1"]
    assert _run(tmp_path, *args, "--threads", "2") == _run(tmp_path, *args, "--threads", "1")


@pytest.mark.parametrize("flag", ["--sellers", "--counts"])
@pytest.mark.parametrize("value", ["50,,100", "50,x", ""])
def test_cli_rejects_a_malformed_number_list(capsys, flag, value):
    # Once a raw int('') traceback; now a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--scenario", "random_counts", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: expected comma-separated whole numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--scenario", "mechanism_comparison", "--sellers", "0"],
        ["experiment", "--scenario", "random_counts", "--counts", "5,-3"],
        ["experiment", "--scenario", "random_counts", "--counts", "3", "--threads", "0"],
        ["experiment", "--scenario", "blocksize_limit", "--sellers", "6", "--a-max", "0"],
        ["mechanism", "--a-max", "0"],
        ["equilibrium", "--block-size", "0"],
        ["simulate", "--block-size", "0"],
        ["simulate", "--block-size", "-1"],
        # An empty sample has no mean: simulate once divided by zero, mechanism wrote NaN.
        ["experiment", "--scenario", "mechanism_comparison", "--replications", "0"],
        ["experiment", "--scenario", "mechanism_comparison", "--replications", "-3"],
        ["simulate", "--replications", "0"],
        ["simulate", "--replications", "-3"],
        ["mechanism", "--a-max", "3", "--replications", "0"],
        ["mechanism", "--a-max", "3", "--replications", "-3"],
    ],
    ids=lambda argv: " ".join(argv[-2:]) + f" ({argv[0]})",
)
def test_cli_rejects_counts_below_one(capsys, argv):
    # Once a raw ValueError traceback, or for --block-size 0 a silent run at
    # the distributional size; now a usage error.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: expected " in capsys.readouterr().err


def test_readme_cli_examples_parse():
    # Every command line of the README's CLI block parses, so the examples cannot go stale.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line.split() for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) == 8 and all(words[0] == "chainbook" for words in commands)
    for words in commands:
        build_parser().parse_args(words[1:])


def test_readme_library_example_runs(capsys):
    # The README's library example runs as written, and its first print shows the value its comment gives.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    comment = block.split("print(", 1)[1].splitlines()[0].split("#", 1)[1].strip()
    assert comment == "2"
    assert capsys.readouterr().out.splitlines()[0] == comment


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats takes about 0.5 s to import; only beta and lognormal
    # distributions need it, and they load it when built.  The process pool
    # loads only for --threads above 1, and the report version is read
    # without the packaging metadata, so a one-process run loads neither.
    config = tmp_path / "beta.json"
    config.write_text(json.dumps({"distributions": {"R": {"kind": "beta", "a": 2.0, "b": 3.0}}}),
                      encoding="utf-8")
    args = ["experiment", "--scenario", "mechanism_comparison", "--sellers", "6", "--replications", "2",
            "--non-selfish", "0.3", "--threads", "1", "--out", str(tmp_path / "out.json")]
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import chainbook.cli\n"
        "unwanted = ('scipy.stats', 'concurrent.futures.process', 'multiprocessing', 'importlib.metadata')\n"
        "loaded = lambda: [m for m in unwanted if m in sys.modules]\n"
        "assert loaded() == [], loaded()\n"
        f"assert chainbook.cli.main({args!r}) == 0\n"
        "assert loaded() == [], loaded()\n"
        "from chainbook.experiments import load_config\n"
        f"x = load_config({str(config)!r}).distributions['R'].sample(np.random.default_rng(0), 50)\n"
        "assert x.shape == (50,) and 0.0 <= x.min() and x.max() <= 1.0 and x.std() > 0\n"
    )
    src = str(Path(chainbook.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_uniform_runs_load_no_scipy_module(tmp_path):
    # The binomial tail and, up to 24 x 24, the assignment solver are in the
    # package, so uniform markets, homogeneous or small and heterogeneous
    # (mixed equilibria and the solver both run here), never import scipy.
    # Nor does the play path import numpy.ma (np.unique's first call does):
    # an N = 80 benchmark_max_block play screens a Hall check of 80 prefixes,
    # and a pool built from ids checks that they are distinct.
    heterogeneous = tmp_path / "heterogeneous.json"
    heterogeneous.write_text(json.dumps({"K": 6, "N": 6, "b_lo": 1.0, "b_hi": 3.0}), encoding="utf-8")
    args = ["experiment", "--scenario", "mechanism_comparison", "--sellers", "6", "--replications", "2",
            "--non-selfish", "0.3", "--out", str(tmp_path / "out.json")]
    large = ["experiment", "--scenario", "mechanism_comparison", "--sellers", "80", "--replications", "1",
             "--out", str(tmp_path / "large.json")]
    code = (
        "import sys\n"
        "import chainbook.cli\n"
        "from chainbook import equilibrium, miners\n"
        "calls = {'tail': 0, 'solver': 0}\n"
        "tail, solve = equilibrium._expected_blocks, miners.max_weight_assignment\n"
        "def counted_tail(*a):\n    calls['tail'] += 1\n    return tail(*a)\n"
        "def counted_solve(*a):\n    calls['solver'] += 1\n    return solve(*a)\n"
        "equilibrium._expected_blocks, miners.max_weight_assignment = counted_tail, counted_solve\n"
        "scipy_modules = lambda: [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert scipy_modules() == [], scipy_modules()\n"
        f"assert chainbook.cli.main({args!r}) == 0\n"
        "assert scipy_modules() == [] and calls['tail'] > 0, (scipy_modules(), calls)\n"
        f"assert chainbook.cli.main({[*args, '--config', str(heterogeneous)]!r}) == 0\n"
        "assert scipy_modules() == [] and calls['solver'] > 0, (scipy_modules(), calls)\n"
        "prefixes, checked = miners._feasible_prefixes, []\n"
        "def counted_prefixes(u, c):\n    checked.append(len(c))\n    return prefixes(u, c)\n"
        "miners._feasible_prefixes = counted_prefixes\n"
        f"assert chainbook.cli.main({large!r}) == 0\n"
        "assert max(checked) > miners._HALL_ROWS, checked\n"
        "miners.PendingPool((0, 2), (1.0, 0.5), (1, 0), (0.5, 1.0))\n"
        "assert scipy_modules() == [] and 'numpy.ma' not in sys.modules, scipy_modules()\n"
    )
    src = str(Path(chainbook.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize(
    "raw, field",
    [({"K": 0}, "K and N"), ({"N": 0}, "K and N"), ({"b_lo": 3.0, "b_hi": 2.0}, "b_lo"),
     ({"psi": 1.5}, "psi"), ({"psi": 0.0}, "psi"), ({"K": 2.7}, "K must be a whole number"),
     ({"N": "40"}, "N must be a whole number"), ({"quantize_fees": "false"}, "quantize_fees must be true or false"),
     ({"rho": -1.0}, "rho"), ({"rho": float("nan")}, "rho"), ({"d": float("inf")}, "d must be finite"),
     ({"d": float("nan")}, "d must be finite"), ({"d": -0.5}, "d must be finite"),
     ({"epsilon": float("inf")}, "epsilon must be finite"), ({"epsilon": 0.0}, "epsilon must be finite"),
     ({"b_lo": -1.0}, "b_lo must be finite"), ({"b_hi": float("inf")}, "b_hi must be finite")],
)
def test_cli_rejects_bad_config_on_load(tmp_path, raw, field):
    # poa reads no market from the config, so only the load-time check can catch it.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        main(["poa", "--target", "2", "--config", str(path), "--out", str(tmp_path / "out.json")])


def test_python_m_chainbook_runs_the_cli():
    src = str(Path(chainbook.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "chainbook", "--help"], check=True, env=env, capture_output=True, text=True
    )
    assert out.stdout.startswith("usage: chainbook") and "experiment" in out.stdout
