"""chainbook: blockchain order-book market simulator and solver suite.

Buyers and sellers set transaction fees; fee-maximizing miners match and
confirm them under a block-size cap; a system designer tunes that cap to
protect social welfare.  The package provides the market model (each side
as value and quantity arrays), the miner engine, the fee-setting
equilibria, welfare accounting with an exact optimum oracle, block-size
mechanisms, and a reproducible experiment harness with a CLI.
"""

from .market import FeeProfile, MarketInstance, MatchTrace, Miner, MinerPolicy, build_instance
from .miners import PendingPool, Selection, recommend_matching, run_horizon, run_round, selfish_select
from .equilibrium import (
    MixedStrategy,
    ThresholdFees,
    crossing_index,
    expected_total_cost,
    msne,
    psne,
    threshold_fees,
    verify_equilibrium,
)
from .welfare import (
    WelfareReport,
    performance_ratio,
    social_optimum,
    social_welfare,
    unbounded_poa_witness,
)
from .distributions import ValueDistribution, fit_empirical
from .mechanism import (
    HarnessConfig,
    optimal_block_size_complete,
    optimal_block_size_distributional,
    solve_eta,
)
from .datasets import OrderDataset, ingest_csv

__version__ = "0.1.0"

__all__ = [
    "Miner",
    "MinerPolicy",
    "MarketInstance",
    "FeeProfile",
    "MatchTrace",
    "build_instance",
    "PendingPool",
    "Selection",
    "selfish_select",
    "recommend_matching",
    "run_round",
    "run_horizon",
    "crossing_index",
    "ThresholdFees",
    "threshold_fees",
    "psne",
    "msne",
    "MixedStrategy",
    "expected_total_cost",
    "verify_equilibrium",
    "WelfareReport",
    "social_welfare",
    "social_optimum",
    "performance_ratio",
    "unbounded_poa_witness",
    "ValueDistribution",
    "fit_empirical",
    "HarnessConfig",
    "solve_eta",
    "optimal_block_size_complete",
    "optimal_block_size_distributional",
    "OrderDataset",
    "ingest_csv",
    "__version__",
]
