"""Fee-setting equilibria of the order-book game.

With transactions ranked by value (utilities descending, costs ascending,
ties broken by position), the crossing index is the last rank at which the
buyer utility still covers the seller cost.  Block sizes at or above the
crossing admit a pure-strategy equilibrium in which the top-ranked
participants pay a threshold fee plus one fee unit and everyone else pays
the threshold fee.  Below the crossing no pure equilibrium exists and
contenders mix over a fee interval whose CDF is pinned down by an
indifference condition: the expected fee-plus-delay cost must be constant
across the support.

The cost of bidding f against ``contenders - 1`` rivals who each outbid with
probability p is ``f + delay_cost * E[ceil((n + 1) / A)]`` with n binomial.
The expectation is a sum of binomial probabilities computed in numpy from
log-pmf terms: all of them for small rival counts, and for large ones only
the terms within sqrt(22.5 * rivals) of each block boundary, which by
Hoeffding's bound leaves out less than 2 exp(-45).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .market import FeeProfile, MarketInstance, MinerPolicy, pair_surplus
from .miners import run_horizon

__all__ = [
    "crossing_index",
    "ThresholdFees",
    "threshold_fees",
    "psne",
    "expected_total_cost",
    "MixedStrategy",
    "msne",
    "realize_profile",
    "equilibrium_profile",
    "DeviationReport",
    "IndifferenceReport",
    "verify_equilibrium",
]

def crossing_index(instance: MarketInstance) -> int:
    """Last rank i with R_(i) >= C_(i); 0 when no rank pair is profitable.

    Found once per population (``MarketInstance.crossing_index``).
    """
    return instance.crossing_index


@dataclass(frozen=True)
class ThresholdFees:
    """Threshold fees and the marginal cut ranks they are computed from."""

    sigma_buy: float
    sigma_sell: float
    cut_buy: int  # min(ceil(crossing / A) * A, N)
    cut_sell: int  # min(ceil(crossing / A) * A, K)


def _average_marginal_surplus(
    marginal_value: float,
    marginal_qty: float,
    partner_values: np.ndarray,
    partner_qtys: np.ndarray,
    side: str,
) -> float:
    """Mean half-surplus of the marginal entrant against its compatible partners.

    Averages min(b, q) * |R - C| / 2 over partners the entrant could trade
    with; returns 0.0 when no partner is compatible.
    """
    gaps = marginal_value - partner_values
    compatible = gaps >= 0.0 if side == "buy" else gaps <= 0.0
    count = int(np.count_nonzero(compatible))
    if count == 0:
        return 0.0
    qty = np.minimum(marginal_qty, partner_qtys[compatible])
    return float(np.sum(qty * np.abs(gaps[compatible])) / (2.0 * count))


def _side_threshold(instance: MarketInstance, side: str) -> tuple[float, int]:
    """(threshold fee, cut rank) of one side, as laid out in ``threshold_fees``."""
    own, own_qty, partner, partner_qty = instance.ranked_sides[side]
    a = instance.block_size
    cut = min(math.ceil(instance.crossing_index / a) * a, len(partner))
    if cut >= len(own):
        return 0.0, cut
    avg = _average_marginal_surplus(own[cut], own_qty[cut], partner[:cut], partner_qty[:cut], side)
    delay = (math.ceil((cut + 1) / a) * a - 1) * instance.delay_cost
    return max(avg - delay, 0.0), cut


def threshold_fees(instance: MarketInstance) -> ThresholdFees:
    """Threshold fees: the marginal excluded entrant's willingness to pay.

    Each side is cut at the crossing rounded up to whole blocks, capped at the
    partner count.  Its threshold is the average surplus the first excluded
    entrant would earn against the included partners, minus the delay cost
    of the block that entrant would land in, clamped at zero; 0 when nobody
    is excluded or the entrant is incompatible with every included partner.
    """
    (sigma_buy, cut_buy), (sigma_sell, cut_sell) = (
        _side_threshold(instance, side) for side in ("buy", "sell")
    )
    return ThresholdFees(
        sigma_buy=sigma_buy, sigma_sell=sigma_sell, cut_buy=cut_buy, cut_sell=cut_sell
    )


def psne(instance: MarketInstance) -> FeeProfile | None:
    """The pure-strategy equilibrium profile, or None when none exists (A below crossing).

    Buyers ranked within min(A, N) pay the buy threshold plus one fee unit,
    the rest pay the bare threshold; sellers mirror with min(A, K).  A dead
    market (crossing 0) has thresholds 0, so every A >= 1 is pure.
    """
    if instance.block_size < crossing_index(instance):
        return None
    fees = threshold_fees(instance)
    eps = instance.fee_unit

    buy = np.full(instance.num_buyers, fees.sigma_buy)
    top_buy = min(instance.block_size, instance.num_sellers)
    buy[instance.buyer_rank[:top_buy]] = fees.sigma_buy + eps
    sell = np.full(instance.num_sellers, fees.sigma_sell)
    top_sell = min(instance.block_size, instance.num_buyers)
    sell[instance.seller_rank[:top_sell]] = fees.sigma_sell + eps

    return FeeProfile(buy_fees=tuple(buy.tolist()), sell_fees=tuple(sell.tolist()))


# Hoeffding: Bin(m, p) lies more than sqrt(22.5 m) from its mean with
# probability below 2 exp(-45), so ranks beyond that window are left out.
_WINDOW = 22.5


@functools.lru_cache(maxsize=256)
def _ranks(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log C(m, i), i, m - i) for i = 0..m as float arrays, cached per m.

    The logs are taken of the exact integer coefficients, within half an ulp.
    """
    logs, c = [], 1
    for i in range(m // 2 + 1):
        logs.append(math.log(c))
        c = c * (m - i) // (i + 1)
    logs += logs[: (m + 1) // 2][::-1]
    ranks = np.arange(m + 1.0)
    return np.array(logs), ranks, m - ranks


@functools.lru_cache(maxsize=1024)
def _weighted_ranks(m: int, block_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_ranks`` from i = A on, the log coefficient plus log floor(i / A):
    the blocks that n = i rivals ahead add."""
    log_choose, i, rest = _ranks(m)
    steps = np.arange(block_size, m + 1) // block_size
    return log_choose[block_size:] + np.log(steps), i[block_size:], rest[block_size:]


def _pmf(log_p, log_q, log_choose, i, rest) -> np.ndarray:
    """exp(log_choose + i log p + (m - i) log(1 - p)): one row per p, one
    column per rank i (the Binomial(m, p) pmf, times any weight folded into
    ``log_choose``)."""
    x = np.multiply.outer(log_p, i)
    x += np.multiply.outer(log_q, rest)
    x += log_choose
    return np.exp(x, out=x)


def _steps_beyond(p: np.ndarray, m: int, a: int) -> np.ndarray:
    """E[floor(n / A)] for n ~ Binomial(m, p), 0 < p < 1, from log-pmf terms.

    That is the sum over k = A, 2A, ... <= m of P(n >= k).  When the windows
    of w = ceil(sqrt(22.5 m)) ranks around each k cover every rank (m <= 2w)
    or overlap many times over (A <= w / 4), one pmf matrix over ranks A..m
    carries weights floor(i / A).  Otherwise each k sums the w + 1 terms from
    k up for rows whose mean lies within w below it, and 1 minus the w terms
    below k for rows whose mean lies within w above it; a row whose mean
    lies further from k adds exactly 0 or 1.
    """
    log_p = np.log(p)
    log_q = np.log1p(-p)
    w = math.ceil(math.sqrt(_WINDOW * m))
    if m <= 2 * w or 4 * a <= w:
        return _pmf(log_p, log_q, *_weighted_ranks(m, a)).sum(axis=1)
    log_choose, i, rest = _ranks(m)
    mean = m * p
    out = np.zeros_like(p)
    for k in range(a, m + 1, a):
        out += mean - w >= k
        below = np.flatnonzero((mean < k) & (mean + w >= k))
        if below.size:
            r = slice(k, min(m, k + w) + 1)
            out[below] += _pmf(log_p[below], log_q[below], log_choose[r], i[r], rest[r]).sum(axis=1)
        above = np.flatnonzero((mean >= k) & (mean - w < k))
        if above.size:
            r = slice(max(k - w, 0), k)
            out[above] += 1.0 - _pmf(log_p[above], log_q[above], log_choose[r], i[r], rest[r]).sum(axis=1)
    return out


def _expected_blocks(outbid_prob, rivals: int, block_size: int):
    """E[ceil((n + 1) / A)] = 1 + E[floor(n / A)] for n ~ Binomial(rivals, p).

    p = 0 and p = 1 are exact (1 and 1 + floor(rivals / A)); any other p
    goes through ``_steps_beyond``, within 1e-13 relative of the sum of
    ``scipy.stats.binom.sf`` terms.
    """
    p = np.asarray(outbid_prob, dtype=float)
    if rivals < block_size:
        return np.ones_like(p)
    flat = p.reshape(-1)
    if flat.size and 0.0 < flat.min() and flat.max() < 1.0:
        return 1.0 + _steps_beyond(flat, rivals, block_size).reshape(p.shape)
    total = np.where(flat == 1.0, 1.0 + rivals // block_size, 1.0)
    inner = (flat != 0.0) & (flat != 1.0)
    total[inner] += _steps_beyond(flat[inner], rivals, block_size)
    return total.reshape(p.shape)


def expected_total_cost(
    outbid_prob: float,
    fee: float,
    contenders: int,
    block_size: int,
    delay_cost: float,
):
    """Expected fee-plus-delay cost against independently outbidding rivals.

    Each of the ``contenders - 1`` rivals outbids with probability
    ``outbid_prob``; with n rivals ahead the transaction lands in block
    ceil((n + 1) / A), costing ``fee + ceil((n + 1) / A) * delay_cost``.
    Accepts scalar or array ``outbid_prob``/``fee`` (broadcast).
    """
    if contenders < 1:
        raise ValueError("contenders must be >= 1")
    blocks = _expected_blocks(outbid_prob, contenders - 1, block_size)
    out = np.asarray(fee, dtype=float) + delay_cost * blocks
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MixedStrategy:
    """Equilibrium fee distribution shared by one side's contenders.

    Contenders mix over [lower, upper] with the CDF defined implicitly by
    the constant-cost condition; the remaining participants bid the pure
    fee ``non_mixer_fee`` (and are never included when that fee is zero).
    """

    role: str  # "buy" | "sell"
    lower: float
    upper: float
    contenders: int
    block_size: int
    delay_cost: float
    mixer_ids: tuple[int, ...]  # participant positions
    non_mixer_fee: float
    target_cost: float  # cost at the lower support against all rivals ahead

    def quantiles(self, u) -> np.ndarray:
        """Vectorized inverse CDF: cost is linear in the fee, so invert directly."""
        u = np.asarray(u, dtype=float)
        delay_term = self.delay_cost * _expected_blocks(1.0 - u, self.contenders - 1, self.block_size)
        return np.clip(self.target_cost - delay_term, self.lower, self.upper)

    def cdf(self, fees) -> np.ndarray:
        """Vectorized P(mixed fee <= fee), by bisection on the rivals' outbid
        probability; exactly 0 at the lower and 1 at the upper support end."""
        fees = np.asarray(fees, dtype=float)
        lo = np.zeros_like(fees)
        hi = np.ones_like(fees)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            costs = expected_total_cost(mid, fees, self.contenders, self.block_size, self.delay_cost)
            too_low = costs < self.target_cost
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        out = 1.0 - 0.5 * (lo + hi)
        return np.where(fees <= self.lower, 0.0, np.where(fees >= self.upper, 1.0, out))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.quantiles(rng.random(size))


def msne(instance: MarketInstance) -> tuple[MixedStrategy, MixedStrategy]:
    """Mixed-strategy equilibrium for block sizes below the crossing index.

    Both sides share the contender count I = min(ceil(crossing / A) * A, K, N)
    and mix over [sigma + eps, sigma + eps + (ceil(I / A) - 1) * d]; the CDF
    solves a constant expected-cost condition against I - 1 rivals.
    """
    a_th = crossing_index(instance)
    a = instance.block_size
    if a >= a_th:
        raise ValueError(f"block size {a} admits a pure equilibrium (crossing {a_th}); no mixing")
    fees = threshold_fees(instance)
    eps = instance.fee_unit
    d = instance.delay_cost
    contenders = min(fees.cut_buy, fees.cut_sell)
    spread = (math.ceil(contenders / a) - 1) * d

    def build(role: str, sigma: float, cut: int, order: np.ndarray) -> MixedStrategy:
        lower = sigma + eps
        return MixedStrategy(
            role=role,
            lower=lower,
            upper=lower + spread,
            contenders=contenders,
            block_size=a,
            delay_cost=d,
            mixer_ids=tuple(order[:cut].tolist()),
            non_mixer_fee=sigma,
            target_cost=lower + math.ceil(contenders / a) * d,
        )

    return (
        build("buy", fees.sigma_buy, fees.cut_buy, instance.buyer_rank),
        build("sell", fees.sigma_sell, fees.cut_sell, instance.seller_rank),
    )


def realize_profile(
    instance: MarketInstance,
    strategies: tuple[MixedStrategy, MixedStrategy],
    rng: np.random.Generator | int | None = None,
) -> FeeProfile:
    """Draw one fee profile: mixers sample their CDF, the rest bid the pure fee;
    one draw, buyers first, and one expectation (the sides share contenders, A
    and d) give exactly what one ``MixedStrategy.sample`` per side would."""
    rng = np.random.default_rng(rng)
    buy, sell = strategies
    delay = buy.delay_cost * _expected_blocks(
        1.0 - rng.random(len(buy.mixer_ids) + len(sell.mixer_ids)), buy.contenders - 1, buy.block_size
    )
    fees = []
    for strat, count in zip(strategies, (instance.num_buyers, instance.num_sellers)):
        terms, delay = delay[: len(strat.mixer_ids)], delay[len(strat.mixer_ids) :]
        side = np.full(count, strat.non_mixer_fee)
        side[list(strat.mixer_ids)] = np.clip(strat.target_cost - terms, strat.lower, strat.upper)
        fees.append(tuple(side.tolist()))
    return FeeProfile(*fees)


def equilibrium_profile(
    instance: MarketInstance,
    rng: np.random.Generator | int | None = None,
) -> FeeProfile:
    """One equilibrium fee profile: the pure one if it exists, else a mixed
    draw.  The equilibrium itself is found once per instance."""
    found = instance.equilibrium
    return found if isinstance(found, FeeProfile) else realize_profile(instance, found, rng)


# --------------------------------------------------------------------------
# Numeric equilibrium verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationReport:
    """Best unilateral grid deviation found against a pure profile."""

    max_improvement: float
    buyer_improvements: tuple[float, ...]
    seller_improvements: tuple[float, ...]
    grid_size: int
    replications: int


@dataclass(frozen=True)
class IndifferenceReport:
    """Expected-cost flatness of a mixed strategy across its support."""

    role: str
    grid_fees: tuple[float, ...]
    expected_costs: tuple[float, ...]
    spread: float
    relative_spread: float
    cdf_at_lower: float
    cdf_at_upper: float
    drop_out_gain: float
    samples: int


def _half_surplus(instance: MarketInstance, side: str, pid: int, partner: int) -> float:
    """The half-surplus participant ``pid`` of ``side`` earns trading with ``partner``."""
    if side == "buy":
        return pair_surplus(instance.buyers[pid], instance.sellers[partner])[0]
    return pair_surplus(instance.buyers[partner], instance.sellers[pid])[1]


def _participant_outcome(trace, instance, side: str, pid: int) -> tuple[bool, float, int]:
    """(matched, realized half-surplus, inclusion block) for one participant."""
    column = 0 if side == "buy" else 1
    for rec in trace.rounds:
        for pair in rec.pairs:
            if pair[column] == pid:
                return True, _half_surplus(instance, side, pid, pair[1 - column]), rec.block
    return False, 0.0, 0


def _class_representatives(levels: list[float], span: float) -> list[float]:
    """Probe fees covering every outcome-equivalent band of ``levels`` (zero,
    then the others' distinct positive fees ascending): each level, each open
    interval between levels, and one point beyond the top level."""
    reps = [0.0]
    for lo, hi in zip(levels, levels[1:]):
        reps += [0.5 * (lo + hi), hi]
    return reps + [levels[-1] + max(span, 1.0)]


def _classify(fee: float, levels: list[float]) -> int:
    """Index of the outcome band containing ``fee`` (bands as laid out above):
    twice the number of levels below it, plus one if it lies on a level, less one."""
    return bisect.bisect_left(levels, fee) + bisect.bisect_right(levels, fee) - 1


def _simulated_payoffs(instance: MarketInstance, profile: FeeProfile, replications: int, rng_seed: int):
    """Deviation payoffs estimated by simulation with shared seeds.

    A deviator's outcome distribution only depends on where the fee sits
    relative to the other same-side fees, so the payoff is linear in the fee
    within each band; one simulation batch per band covers the whole grid.
    Common random numbers across bands make equal-outcome comparisons exact.
    """
    d = instance.delay_cost
    # One keyed seed per replication, rebuilt for every fee band: a play's
    # draws are keyed by its seed sequence, so each band replays the same
    # replications (common random numbers) and replications differ.
    seed_keys = [(rng_seed, rep) for rep in range(replications)]

    def payoffs(side: str, pid: int, others: np.ndarray, span: float):
        levels = [0.0, *sorted({f for f in others if f > 0.0})]
        stats = []  # per band: (P(matched), E[matched * (surplus - delay)])
        for probe in _class_representatives(levels, span):
            devp = profile.with_buy_fee(pid, probe) if side == "buy" else profile.with_sell_fee(pid, probe)
            matched_sum = 0.0
            value_sum = 0.0
            for key in seed_keys:
                rng = np.random.default_rng(np.random.SeedSequence(list(key)))
                trace = run_horizon(instance, devp, rng)
                matched, surplus, block = _participant_outcome(trace, instance, side, pid)
                if matched:
                    matched_sum += 1.0
                    value_sum += surplus - (block - 1) * d
            stats.append((matched_sum / replications, value_sum / replications))

        def payoff(fee: float) -> float:
            p_match, value = stats[_classify(fee, levels)]
            return value - p_match * fee

        return payoff

    return payoffs


def _inclusion_probability(own_fee: float, other_fees: np.ndarray, slots: int) -> float:
    """P(a positive fee wins one of ``slots`` places against ``other_fees``),
    fee ties shuffled uniformly."""
    if own_fee <= 0.0 or slots <= 0:
        return 0.0
    above = int(np.count_nonzero(other_fees > own_fee))
    if above >= slots:
        return 0.0
    tied = 1 + int(np.count_nonzero(other_fees == own_fee))
    remaining = slots - above
    return 1.0 if remaining >= tied else remaining / tied


def _closed_form_applies(instance: MarketInstance) -> bool:
    """Zero delay, every pair compatible, a block that covers the short side
    and only selfish miners: one fee-ranked round with a uniform pairing."""
    return (
        instance.delay_cost == 0.0
        and instance.utility_array.min() >= instance.cost_array.max()
        and instance.block_size >= min(instance.num_buyers, instance.num_sellers)
        and all(m.policy is MinerPolicy.SELFISH for m in instance.miners)
    )


def _closed_form_payoffs(instance: MarketInstance, profile: FeeProfile):
    """Exact deviation payoffs where ``_closed_form_applies``.

    There the engine's only randomness is the uniform tie-shuffle and the
    uniform pairing; both marginalize exactly: a participant tied with t
    others for s remaining slots is included with probability s / t, and a
    matched participant's partner is uniform over the other side's included
    set.  Exact payoffs are what a nano-tolerance stability check needs
    (Monte Carlo noise would swamp it).
    """
    fees = {"buy": np.asarray(profile.buy_fees, dtype=float), "sell": np.asarray(profile.sell_fees, dtype=float)}

    def payoffs(side: str, pid: int, others: np.ndarray, span: float):
        partner_fees = fees["sell" if side == "buy" else "buy"]
        own_active = others[others > 0.0]
        partner_active = np.flatnonzero(partner_fees > 0.0)
        matched = min(instance.block_size, len(own_active) + 1, len(partner_active))
        partner_in = np.zeros(len(partner_fees))
        for j in partner_active:
            rivals = partner_fees[partner_active[partner_active != j]]
            partner_in[j] = _inclusion_probability(partner_fees[j], rivals, matched)
        surpluses = np.array([_half_surplus(instance, side, pid, j) for j in range(len(partner_fees))])
        # With nobody to match (matched 0) every payoff is 0 and this goes unread.
        expected_surplus = float(np.dot(partner_in, surpluses)) / max(matched, 1)

        def payoff(fee: float) -> float:
            p_in = _inclusion_probability(fee, own_active, matched)
            return p_in * (expected_surplus - fee) if p_in else 0.0

        return payoff

    return payoffs


def _deviation_report(
    instance: MarketInstance, profile: FeeProfile, grid_resolution: int, payoffs, replications: int
) -> DeviationReport:
    """Best unilateral grid deviation of every participant.

    ``payoffs(side, pid, others, span)`` returns the participant's payoff as a
    function of its own fee, given the other same-side fees.  The grid runs
    from 0 to span (the top other fee plus 5 d plus one fee unit) and adds
    the participant's own fee, one fee unit below it and one and two above.
    """
    d = instance.delay_cost
    eps = instance.fee_unit
    improvements = []
    for side, fees in (("buy", profile.buy_fees), ("sell", profile.sell_fees)):
        fees = np.asarray(fees, dtype=float)
        gains = []
        for pid, own in enumerate(fees):
            others = np.delete(fees, pid)
            span = others.max(initial=0.0) + 5.0 * d + eps
            payoff = payoffs(side, pid, others, span)
            grid = [*np.linspace(0.0, span, grid_resolution), max(own - eps, 0.0), own, own + eps, own + 2 * eps]
            gains.append(max(payoff(f) for f in grid) - payoff(own))
        improvements.append(tuple(gains))
    buyer_improvements, seller_improvements = improvements
    return DeviationReport(
        max_improvement=max(buyer_improvements + seller_improvements),
        buyer_improvements=buyer_improvements,
        seller_improvements=seller_improvements,
        grid_size=grid_resolution,
        replications=replications,
    )


def _matching_utilities(instance: MarketInstance, strategy: MixedStrategy) -> np.ndarray:
    """Model expected half-surplus of each mixer against the included other side."""
    own, own_qty, partner, partner_qty = instance.ranked_sides[strategy.role]
    _, cut = _side_threshold(instance, strategy.role)
    return np.array([
        _average_marginal_surplus(own[rank], own_qty[rank], partner[:cut], partner_qty[:cut], strategy.role)
        for rank in range(len(strategy.mixer_ids))
    ])


def _msne_indifference_report(
    instance: MarketInstance,
    strategy: MixedStrategy,
    grid_resolution: int,
    mc_samples: int,
    rng: np.random.Generator,
) -> IndifferenceReport:
    """Monte Carlo the expected fee-plus-delay cost at fees across the support.

    Rivals draw their fees from the equilibrium CDF (one shared panel across
    grid fees); the transaction of a contender outbid by n rivals lands in
    block ceil((n + 1) / A).  At equilibrium the cost curve is flat.
    """
    grid = np.linspace(strategy.lower, strategy.upper, grid_resolution)
    rivals = strategy.contenders - 1
    panel = strategy.sample(rng, mc_samples * rivals).reshape(mc_samples, rivals)  # no draw without rivals
    costs = []
    for fee in grid:
        n_above = np.count_nonzero(panel > fee, axis=1)
        blocks = np.ceil((n_above + 1) / strategy.block_size)
        costs.append(float(fee + strategy.delay_cost * np.mean(blocks)))
    spread = max(costs) - min(costs)
    mean_cost = float(np.mean(costs))
    drop_out_gain = float(np.max(strategy.target_cost - _matching_utilities(instance, strategy)))
    return IndifferenceReport(
        role=strategy.role,
        grid_fees=tuple(float(f) for f in grid),
        expected_costs=tuple(costs),
        spread=spread,
        relative_spread=spread / mean_cost if mean_cost > 0 else math.inf,
        cdf_at_lower=float(strategy.cdf(strategy.lower)),
        cdf_at_upper=float(strategy.cdf(strategy.upper)),
        drop_out_gain=drop_out_gain,
        samples=mc_samples,
    )


def verify_equilibrium(
    instance: MarketInstance,
    profile_or_strategies,
    grid_resolution: int = 201,
    mc_samples: int = 100_000,
    rng_seed: int = 0,
    psne_replications: int = 400,
):
    """Numerically check an equilibrium.

    A FeeProfile is checked for profitable unilateral grid deviations
    (returns a DeviationReport).  Its payoffs are exact where the market
    admits a closed form (zero delay, every pair compatible, a block that
    covers the short side, only selfish miners; ``replications`` is then 0)
    and estimated from ``psne_replications`` simulated plays otherwise.  A
    (buy, sell) MixedStrategy pair is checked for cost indifference across
    the support (returns a pair of IndifferenceReports).
    """
    if isinstance(profile_or_strategies, FeeProfile):
        profile = profile_or_strategies
        if _closed_form_applies(instance):
            payoffs, replications = _closed_form_payoffs(instance, profile), 0
        else:
            payoffs = _simulated_payoffs(instance, profile, psne_replications, rng_seed)
            replications = psne_replications
        return _deviation_report(instance, profile, grid_resolution, payoffs, replications)
    buy_strat, sell_strat = profile_or_strategies
    rng = np.random.default_rng(rng_seed)
    return (
        _msne_indifference_report(instance, buy_strat, grid_resolution, mc_samples, rng),
        _msne_indifference_report(instance, sell_strat, grid_resolution, mc_samples, rng),
    )
