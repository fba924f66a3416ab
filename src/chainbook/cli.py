"""Command-line interface.

Subcommands::

    chainbook ingest      --input orders.csv [--columns bid_price=Bid,...]
    chainbook equilibrium [--config cfg.json] [--block-size A]
    chainbook simulate    [--config cfg.json] [--block-size A]
    chainbook mechanism   [--config cfg.json] [--a-max CAP]
    chainbook poa         --target RATIO
    chainbook experiment  --scenario mechanism_comparison|random_counts|blocksize_limit ...

Global flags (valid on every subcommand): --seed, --config, --out, --format.
``experiment`` alone takes --threads.  Reports are deterministic for a fixed
seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import equilibrium as eq
from . import experiments as xp
from .datasets import ingest_csv
from .market import FeeProfile
from .mechanism import (
    capped_search_report,
    optimal_block_size_complete,
    optimal_block_size_distributional,
    sample_instance,
)
from .reporting import emit_report, result_row
from .welfare import performance_ratio, unbounded_poa_witness, welfare_quotient


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def _whole_number(text: str) -> int:
    """A whole number >= 1: a count, a block size or a number of workers."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return n


def _whole_numbers(text: str) -> tuple[int, ...]:
    """A comma-separated list of whole numbers >= 1, such as ``50,100,200``."""
    try:
        return tuple(_whole_number(n) for n in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected comma-separated whole numbers >= 1, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainbook",
        description="Order-book market simulator with fee-maximizing miners and block-size mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load an order CSV and fit value distributions")
    p.add_argument("--input", required=True, help="CSV with bid/ask prices and quantities")
    p.add_argument(
        "--columns",
        default=None,
        help="remap columns, e.g. bid_price=BidPrice,ask_price=AskPrice",
    )
    _common_flags(p)

    p = sub.add_parser("equilibrium", help="crossing index, threshold fees, equilibrium kind")
    p.add_argument("--block-size", type=_whole_number, default=None, help="override the block size")
    _common_flags(p)

    p = sub.add_parser("simulate", help="simulate one equilibrium play-through")
    p.add_argument("--block-size", type=_whole_number, default=None)
    p.add_argument("--replications", type=_whole_number, default=1)
    _common_flags(p)

    p = sub.add_parser("mechanism", help="block sizes from the designer's rules")
    p.add_argument("--a-max", type=_whole_number, default=None, help="hard cap: brute-force search up to it")
    p.add_argument("--replications", type=_whole_number, default=50, help="Monte Carlo draws per candidate")
    _common_flags(p)

    p = sub.add_parser("poa", help="construct and verify worst-case ratio witnesses")
    p.add_argument("--target", type=float, required=True, help="ratio the witnesses must reach")
    _common_flags(p)

    p = sub.add_parser("experiment", help="run a full study scenario")
    p.add_argument(
        "--scenario",
        required=True,
        choices=[s.value for s in xp.Scenario],
    )
    p.add_argument("--replications", type=_whole_number, default=200)
    p.add_argument("--sellers", type=_whole_numbers, default="50,100,200,400", help="comma-separated N grid")
    p.add_argument("--counts", type=_whole_numbers, default=None, help="comma-separated per-period N sequence")
    p.add_argument("--a-max", type=_whole_number, default=None, help="block size cap for blocksize_limit")
    p.add_argument("--non-selfish", type=float, default=None, help="protocol-following power share")
    p.add_argument("--threads", type=_whole_number, default=1, help="worker processes, at most one per replication")
    _common_flags(p)

    return parser


def _load(args) -> xp.HarnessConfig:
    return xp.load_config(args.config) if args.config else xp.HarnessConfig()


def _sample_market(config: xp.HarnessConfig, block_size: int | None, seed: int):
    a = optimal_block_size_distributional(config) if block_size is None else block_size  # draws nothing
    return sample_instance(config, a, np.random.default_rng(np.random.SeedSequence([seed, 7])))


def _write(args, rows: list[dict], config: xp.HarnessConfig | None) -> None:
    text = emit_report(
        rows, args.format, args.out, config.to_jsonable() if config else {}, args.seed
    )
    if not args.out:
        sys.stdout.write(text)


def _cmd_ingest(args) -> None:
    column_map = None
    if args.columns:
        column_map = {}
        for pair in args.columns.split(","):
            logical, sep, header = pair.partition("=")
            if not sep:
                raise ValueError(f"--columns pair {pair!r} is not of the form logical=Header")
            column_map[logical] = header
    ds = ingest_csv(args.input, column_map=column_map)
    row = result_row(
        "ingest", "dataset", len(ds), len(ds),
        norm_offset=ds.norm_offset,
        norm_scale=ds.norm_scale,
        price_to_value_ratio=ds.price_to_value_ratio,
        distributions={k: v.to_config() for k, v in ds.to_distributions().items()},
    )
    _write(args, [row], None)


def _cmd_equilibrium(args) -> None:
    config = _load(args)
    inst = _sample_market(config, args.block_size, args.seed)
    fees = eq.threshold_fees(inst)
    found = inst.equilibrium
    pure = isinstance(found, FeeProfile)
    row = result_row(
        "equilibrium", "psne" if pure else "msne",
        inst.num_sellers, inst.num_buyers, inst.block_size,
        crossing_index=eq.crossing_index(inst), sigma_buy=fees.sigma_buy, sigma_sell=fees.sigma_sell,
    )
    if not pure:
        buy, sell = found
        row.update(
            buy_support=[buy.lower, buy.upper],
            sell_support=[sell.lower, sell.upper],
            contenders=buy.contenders,
        )
    _write(args, [row], config)


def _cmd_simulate(args) -> None:
    config = _load(args)
    inst = _sample_market(config, args.block_size, args.seed)
    report = performance_ratio(
        inst, inst.block_size, mc_replications=args.replications, rng_seed=args.seed
    )
    row = result_row(
        "simulate", "equilibrium", inst.num_sellers, inst.num_buyers, inst.block_size,
        report.sw, report.sw_stderr, report.sw_opt, welfare_quotient(report.sw, report.sw_opt),
    )
    _write(args, [row], config)


def _cmd_mechanism(args) -> None:
    config = _load(args)
    n, k = config.num_sellers, config.num_buyers
    a_dist = optimal_block_size_distributional(config)
    inst = _sample_market(config, a_dist, args.seed)
    rows = [
        result_row("mechanism", "abs_distributional", n, k, a_dist),
        result_row("mechanism", "abs_complete", n, k, optimal_block_size_complete(inst)),
    ]
    if args.a_max is not None:
        [report] = capped_search_report([config], args.a_max, mc_replications=args.replications, rng_seed=args.seed)
        a = report.best_variant()
        rows.append(xp.welfare_row("mechanism", "abs_capped", n, k, a, report.samples[a]))
    _write(args, rows, config)


def _cmd_poa(args) -> None:
    config = _load(args)
    high, low = unbounded_poa_witness(args.target)
    rows = []
    for name, inst in (("oversized_block", high), ("undersized_block", low)):
        report = performance_ratio(inst, inst.block_size, mc_replications=8, rng_seed=args.seed)
        rows.append(result_row(
            "poa_witness", name, inst.num_sellers, inst.num_buyers, inst.block_size,
            report.sw, report.sw_stderr, report.sw_opt, welfare_quotient(report.sw, report.sw_opt), poa=report.ratio,
        ))
    _write(args, rows, config)


def _cmd_experiment(args) -> None:
    config = _load(args)
    if args.non_selfish is not None:
        config = replace(config, non_selfish_fraction=args.non_selfish)
    spec = xp.ExperimentSpec(
        scenario=xp.Scenario(args.scenario),
        replications=args.replications,
        seed=args.seed,
        seller_grid=args.sellers,
        threads=args.threads,
    )
    if spec.scenario == xp.Scenario.MECHANISM_COMPARISON:
        rows = xp.run_mechanism_comparison(spec, config)
    elif spec.scenario == xp.Scenario.RANDOM_COUNTS:
        if not args.counts:
            raise SystemExit("random_counts needs --counts N1,N2,...")
        rows = xp.run_random_counts(spec, config, args.counts)
    else:
        if args.a_max is None:
            raise SystemExit("blocksize_limit needs --a-max")
        rows = xp.run_blocksize_limit(spec, config, args.a_max)
    _write(args, rows, config)


_HANDLERS = {
    "ingest": _cmd_ingest,
    "equilibrium": _cmd_equilibrium,
    "simulate": _cmd_simulate,
    "mechanism": _cmd_mechanism,
    "poa": _cmd_poa,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _HANDLERS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
