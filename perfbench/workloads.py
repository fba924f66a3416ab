"""The benchmark's workloads: one `chainbook experiment` invocation each.

Every workload is a config file plus CLI flags; the seed comes from the
benchmark's command line.  The sizes are chosen so that one invocation runs
for a few seconds on a 2-CPU machine, long enough that the per-seed input
mix averages out and short enough that a timed run holds several of them.
"""

from __future__ import annotations

from dataclasses import dataclass

_UNIFORM_01 = {"kind": "uniform", "lo": 0.0, "hi": 1.0}

# Mechanism variants per N in a comparison report (see experiments.py), and
# the two rows per N of a blocksize_limit report.
COMPARISON_MECHANISMS = (
    "abs_distributional",
    "abs_non_selfish_recommending",
    "benchmark_max_block",
    "abs_complete",
    "social_optimum",
)
BLOCKSIZE_MECHANISMS = ("abs_capped", "benchmark_max_block")

# Rows whose ratio divides welfare on one set of populations by the optimum
# of another.  For them, ratio <= 1 is not an invariant of the program:
# capped-search welfare is drawn on populations seeded [seed, rep], and the
# optimum it is divided by on populations seeded [seed, n, rep, 99].
UNPAIRED_RATIO_MECHANISMS = frozenset({"abs_capped"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    config: dict
    sellers: tuple[int, ...]
    replications: int
    tiny_replications: int
    non_selfish: float
    a_max: int | None = None

    def replications_for(self, size: str) -> int:
        return self.tiny_replications if size == "tiny" else self.replications

    def argv(self, seed: int, size: str, config_path: str, out_path: str) -> list[str]:
        """The exact `chainbook` argv of one invocation."""
        argv = [
            "experiment",
            "--scenario", self.scenario,
            "--config", config_path,
            "--sellers", ",".join(str(n) for n in self.sellers),
            "--replications", str(self.replications_for(size)),
            "--non-selfish", repr(self.non_selfish),
            "--seed", str(seed),
            "--threads", "1",
            "--format", "json",
            "--out", out_path,
        ]
        if self.a_max is not None:
            argv += ["--a-max", str(self.a_max)]
        return argv

    def plays(self, size: str) -> int:
        """Equilibrium play-throughs (fee profile, horizon, welfare) per invocation."""
        per_n = 4 if self.scenario == "mechanism_comparison" else self.a_max + 1
        return self.replications_for(size) * len(self.sellers) * per_n

    def mechanisms(self) -> tuple[str, ...]:
        """The mechanism rows the report holds for each N, in order."""
        if self.scenario == "mechanism_comparison":
            return COMPARISON_MECHANISMS
        return BLOCKSIZE_MECHANISMS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare_large",
            why=(
                "few rounds, big blocks (A about N/2), mostly pure equilibria: "
                "the O(A^2) selfish_select prefix scan dominates"
            ),
            scenario="mechanism_comparison",
            config={
                "rho": 1.0,
                "d": 0.01,
                "non_selfish_fraction": 0.0,
                "distributions": {"R": _UNIFORM_01, "C": _UNIFORM_01},
            },
            sellers=(400, 800),
            replications=16,
            tiny_replications=1,
            non_selfish=0.0,
        ),
        Workload(
            name="compare_small_heterog",
            why=(
                "thousands of tiny heterogeneous markets: per-round overhead, "
                "and the only workload that runs the assignment solver"
            ),
            scenario="mechanism_comparison",
            config={
                "rho": 1.0,
                "d": 0.005,
                "b_lo": 1.0,
                "b_hi": 3.0,
                "non_selfish_fraction": 0.2,
                "distributions": {
                    "R": {"kind": "uniform", "lo": 0.3, "hi": 1.0},
                    "C": {"kind": "uniform", "lo": 0.0, "hi": 0.7},
                },
            },
            sellers=(12, 24),
            replications=150,
            tiny_replications=4,
            non_selfish=0.2,
        ),
        Workload(
            name="capped_search",
            why=(
                "capped brute-force block-size search: short rounds, small A, "
                "mostly mixed equilibria (msne and realize_profile)"
            ),
            scenario="blocksize_limit",
            config={
                "rho": 1.0,
                "d": 0.01,
                "non_selfish_fraction": 0.0,
                "distributions": {"R": _UNIFORM_01, "C": _UNIFORM_01},
            },
            sellers=(60,),
            replications=20,
            tiny_replications=2,
            non_selfish=0.0,
            a_max=30,
        ),
    )
}
