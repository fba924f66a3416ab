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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .market import FeeProfile, MarketInstance, pair_surplus
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
    """Last rank i with R_(i) >= C_(i); min(K, N) when the ranks never cross.

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
    if side == "buy":
        compatible = marginal_value >= partner_values
        diffs = marginal_value - partner_values
    else:
        compatible = partner_values >= marginal_value
        diffs = partner_values - marginal_value
    count = int(np.count_nonzero(compatible))
    if count == 0:
        return 0.0
    qty = np.minimum(marginal_qty, partner_qtys[compatible])
    return float(np.sum(qty * diffs[compatible]) / (2.0 * count))


def threshold_fees(
    instance: MarketInstance,
    a_th: int | None = None,
    block_size: int | None = None,
) -> ThresholdFees:
    """Threshold fees: the marginal excluded entrant's willingness to pay.

    The buy-side threshold is the average surplus the first excluded buyer
    would earn against the included sellers, minus the delay cost of the
    block that entrant would land in, clamped at zero; 0 when nobody is
    excluded or the entrant is incompatible with every included seller.
    """
    if a_th is None:
        a_th = crossing_index(instance)
    if block_size is None:
        block_size = instance.block_size
    k = instance.num_buyers
    n = instance.num_sellers
    d = instance.delay_cost
    blocks_needed = math.ceil(a_th / block_size)

    b_order = instance.buyer_rank
    s_order = instance.seller_rank
    r_sorted = instance.utility_array[b_order]
    c_sorted = instance.cost_array[s_order]
    bq_sorted = instance.buy_qty_array[b_order]
    sq_sorted = instance.sell_qty_array[s_order]

    cut_buy = min(blocks_needed * block_size, n)
    sigma_buy = 0.0
    if cut_buy < k and r_sorted[cut_buy] >= c_sorted[0]:
        avg = _average_marginal_surplus(
            r_sorted[cut_buy], bq_sorted[cut_buy], c_sorted[:cut_buy], sq_sorted[:cut_buy], "buy"
        )
        delay = (math.ceil((cut_buy + 1) / block_size) * block_size - 1) * d
        sigma_buy = max(avg - delay, 0.0)

    cut_sell = min(blocks_needed * block_size, k)
    sigma_sell = 0.0
    if cut_sell < n and c_sorted[cut_sell] <= r_sorted[0]:
        avg = _average_marginal_surplus(
            c_sorted[cut_sell], sq_sorted[cut_sell], r_sorted[:cut_sell], bq_sorted[:cut_sell], "sell"
        )
        delay = (math.ceil((cut_sell + 1) / block_size) * block_size - 1) * d
        sigma_sell = max(avg - delay, 0.0)

    return ThresholdFees(
        sigma_buy=sigma_buy, sigma_sell=sigma_sell, cut_buy=cut_buy, cut_sell=cut_sell
    )


def psne(instance: MarketInstance) -> FeeProfile | None:
    """The pure-strategy equilibrium profile, or None when none exists (A below crossing).

    Buyers ranked within min(A, N) pay the buy threshold plus one fee unit,
    the rest pay the bare threshold; sellers mirror with min(A, K).
    """
    a_th = crossing_index(instance)
    if instance.block_size < a_th:
        return None
    fees = threshold_fees(instance, a_th)
    eps = instance.fee_unit

    buy = np.full(instance.num_buyers, fees.sigma_buy)
    top_buy = min(instance.block_size, instance.num_sellers)
    buy[instance.buyer_rank[:top_buy]] = fees.sigma_buy + eps
    sell = np.full(instance.num_sellers, fees.sigma_sell)
    top_sell = min(instance.block_size, instance.num_buyers)
    sell[instance.seller_rank[:top_sell]] = fees.sigma_sell + eps

    return FeeProfile(buy_fees=tuple(buy), sell_fees=tuple(sell))


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
    fees = threshold_fees(instance, a_th)
    eps = instance.fee_unit
    d = instance.delay_cost
    k, n = instance.num_buyers, instance.num_sellers
    contenders = min(math.ceil(a_th / a) * a, k, n)
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

    buy = build("buy", fees.sigma_buy, min(math.ceil(a_th / a) * a, n), instance.buyer_rank)
    sell = build("sell", fees.sigma_sell, min(math.ceil(a_th / a) * a, k), instance.seller_rank)
    return buy, sell


def realize_profile(
    instance: MarketInstance,
    strategies: tuple[MixedStrategy, MixedStrategy],
    rng: np.random.Generator | int | None = None,
) -> FeeProfile:
    """Draw one fee profile: mixers sample their CDF, the rest bid the pure fee."""
    rng = np.random.default_rng(rng)
    buy_strat, sell_strat = strategies
    buy = np.full(instance.num_buyers, buy_strat.non_mixer_fee)
    buy[list(buy_strat.mixer_ids)] = buy_strat.sample(rng, len(buy_strat.mixer_ids))
    sell = np.full(instance.num_sellers, sell_strat.non_mixer_fee)
    sell[list(sell_strat.mixer_ids)] = sell_strat.sample(rng, len(sell_strat.mixer_ids))
    return FeeProfile(buy_fees=tuple(buy), sell_fees=tuple(sell))


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


def _participant_outcome(trace, instance, side: str, pid: int) -> tuple[bool, float, int]:
    """(matched, realized half-surplus, inclusion block) for one participant."""
    for rec in trace.rounds:
        for buyer_id, seller_id in rec.pairs:
            if side == "buy" and buyer_id == pid:
                surplus, _, _ = pair_surplus(instance.buyers[buyer_id], instance.sellers[seller_id])
                return True, surplus, rec.block
            if side == "sell" and seller_id == pid:
                _, surplus, _ = pair_surplus(instance.buyers[buyer_id], instance.sellers[seller_id])
                return True, surplus, rec.block
    return False, 0.0, 0


def _class_representatives(breakpoints: list[float], span: float) -> list[float]:
    """Probe fees covering every outcome-equivalent band: each others' fee level,
    each open interval between levels, zero, and one point beyond the top level."""
    reps = [0.0]
    prev = 0.0
    for bp in breakpoints:
        if bp > prev:
            reps.append(0.5 * (prev + bp))
        reps.append(bp)
        prev = bp
    reps.append(prev + max(span, 1.0) if prev > 0 else max(span, 1.0))
    return reps


def _classify(fee: float, breakpoints: list[float]) -> int:
    """Index of the outcome band containing ``fee`` (bands as laid out above)."""
    if fee == 0.0:
        return 0
    idx = 1
    prev = 0.0
    for bp in breakpoints:
        if bp > prev:
            if fee < bp:
                return idx
            idx += 1
        if fee == bp:
            return idx
        idx += 1
        prev = bp
    return idx


def _psne_deviation_report(
    instance: MarketInstance,
    profile: FeeProfile,
    grid_resolution: int,
    replications: int,
    rng_seed: int,
) -> DeviationReport:
    """Grid-search unilateral deviations, estimating payoffs with shared seeds.

    A deviator's outcome distribution only depends on where the fee sits
    relative to the other same-side fees, so the payoff is linear in the fee
    within each band; one simulation batch per band covers the whole grid.
    Common random numbers across bands make equal-outcome comparisons exact.
    """
    d = instance.delay_cost
    eps = instance.fee_unit
    # One keyed seed per replication, rebuilt for every fee band: a play's
    # draws are keyed by its seed sequence, so each band replays the same
    # replications (common random numbers) and replications differ.
    seed_keys = [(rng_seed, rep) for rep in range(replications)]

    def best_improvement(side: str, pid: int, own_fee: float, others: list[float]) -> float:
        breakpoints = sorted({f for f in others if f > 0.0})
        span = (max(breakpoints) if breakpoints else 0.0) + 5.0 * d + eps
        grid = list(np.linspace(0.0, span, grid_resolution))
        grid += [max(own_fee - eps, 0.0), own_fee, own_fee + eps, own_fee + 2 * eps]

        stats: dict[int, tuple[float, float]] = {}  # band -> (P(matched), E[matched*(surplus - delay)])
        reps = _class_representatives(breakpoints, span)
        for band, probe in enumerate(reps):
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
            stats[band] = (matched_sum / replications, value_sum / replications)

        def payoff(fee: float) -> float:
            p_match, value = stats[_classify(fee, breakpoints)]
            return value - p_match * fee

        base = payoff(own_fee)
        return max(payoff(f) for f in grid) - base

    buyer_improvements = []
    for pid in range(instance.num_buyers):
        others = [f for j, f in enumerate(profile.buy_fees) if j != pid]
        buyer_improvements.append(best_improvement("buy", pid, profile.buy_fees[pid], others))
    seller_improvements = []
    for pid in range(instance.num_sellers):
        others = [f for j, f in enumerate(profile.sell_fees) if j != pid]
        seller_improvements.append(best_improvement("sell", pid, profile.sell_fees[pid], others))

    return DeviationReport(
        max_improvement=max(buyer_improvements + seller_improvements),
        buyer_improvements=tuple(buyer_improvements),
        seller_improvements=tuple(seller_improvements),
        grid_size=grid_resolution,
        replications=replications,
    )


def _exact_psne_deviation_report(
    instance: MarketInstance, profile: FeeProfile, grid_resolution: int
) -> DeviationReport:
    """Closed-form deviation sweep for zero-delay, fully-compatible markets.

    When every buyer can trade with every seller, the block covers the short
    side, and delay is free, the engine's only randomness is the uniform
    tie-shuffle and the uniform pairing; both marginalize exactly: a
    participant tied with t others for s remaining slots is included with
    probability s / t, and a matched participant's partner is uniform over
    the other side's included set.  Payoffs are then exact, which a
    nano-tolerance stability check needs (Monte Carlo noise would swamp it).
    """
    if instance.delay_cost != 0.0:
        raise ValueError("exact deviation evaluation requires zero delay cost")
    r = instance.utilities()
    c = instance.costs()
    if r.min() < c.max():
        raise ValueError("exact deviation evaluation requires all pairs compatible")
    if instance.block_size < min(instance.num_buyers, instance.num_sellers):
        raise ValueError("exact deviation evaluation requires the block to cover the short side")
    eps = instance.fee_unit

    def inclusion_probability(own_fee: float, other_fees: np.ndarray, slots: int) -> float:
        if own_fee <= 0.0 or slots <= 0:
            return 0.0
        above = int(np.count_nonzero(other_fees > own_fee))
        if above >= slots:
            return 0.0
        tied = 1 + int(np.count_nonzero(other_fees == own_fee))
        remaining = slots - above
        return 1.0 if remaining >= tied else remaining / tied

    def side_inclusion(fees: np.ndarray, slots: int) -> np.ndarray:
        probs = np.zeros(len(fees))
        for i, fee in enumerate(fees):
            others = np.delete(fees, i)
            probs[i] = inclusion_probability(fee, others, slots)
        return probs

    def best_improvement(side: str, pid: int) -> float:
        if side == "buy":
            own = profile.buy_fees[pid]
            others = np.array([f for j, f in enumerate(profile.buy_fees) if j != pid])
            partner_fees = np.asarray(profile.sell_fees)
            surpluses = np.array(
                [pair_surplus(instance.buyers[pid], s)[0] for s in instance.sellers]
            )
        else:
            own = profile.sell_fees[pid]
            others = np.array([f for j, f in enumerate(profile.sell_fees) if j != pid])
            partner_fees = np.asarray(profile.buy_fees)
            surpluses = np.array(
                [pair_surplus(b, instance.sellers[pid])[1] for b in instance.buyers]
            )
        own_active = others[others > 0.0]
        partner_active = partner_fees > 0.0

        def payoff(fee: float) -> float:
            if fee <= 0.0:
                return 0.0
            n_own = len(own_active) + 1
            n_partner = int(np.count_nonzero(partner_active))
            matched = min(instance.block_size, n_own, n_partner)
            p_in = inclusion_probability(fee, own_active, matched)
            if p_in == 0.0:
                return 0.0
            partner_in = np.zeros(len(partner_fees))
            partner_in[partner_active] = side_inclusion(partner_fees[partner_active], matched)
            expected_surplus = float(np.dot(partner_in, surpluses)) / matched
            return p_in * (expected_surplus - fee)

        span = (own_active.max() if len(own_active) else 0.0) + eps
        grid = list(np.linspace(0.0, span, grid_resolution))
        grid += [max(own - eps, 0.0), own, own + eps, own + 2 * eps]
        return max(payoff(f) for f in grid) - payoff(own)

    buyer_improvements = [best_improvement("buy", pid) for pid in range(instance.num_buyers)]
    seller_improvements = [best_improvement("sell", pid) for pid in range(instance.num_sellers)]
    return DeviationReport(
        max_improvement=max(buyer_improvements + seller_improvements),
        buyer_improvements=tuple(buyer_improvements),
        seller_improvements=tuple(seller_improvements),
        grid_size=grid_resolution,
        replications=0,
    )


def _matching_utilities(instance: MarketInstance, strategy: MixedStrategy) -> np.ndarray:
    """Model expected half-surplus of each mixer against the included other side."""
    b_order = instance.buyer_rank
    s_order = instance.seller_rank
    r_sorted = instance.utility_array[b_order]
    c_sorted = instance.cost_array[s_order]
    bq_sorted = instance.buy_qty_array[b_order]
    sq_sorted = instance.sell_qty_array[s_order]
    a_th = crossing_index(instance)
    blocks_needed = math.ceil(a_th / strategy.block_size)

    out = []
    if strategy.role == "buy":
        cut = min(blocks_needed * strategy.block_size, instance.num_sellers)
        for rank in range(len(strategy.mixer_ids)):
            out.append(
                _average_marginal_surplus(
                    r_sorted[rank], bq_sorted[rank], c_sorted[:cut], sq_sorted[:cut], "buy"
                )
            )
    else:
        cut = min(blocks_needed * strategy.block_size, instance.num_buyers)
        for rank in range(len(strategy.mixer_ids)):
            out.append(
                _average_marginal_surplus(
                    c_sorted[rank], sq_sorted[rank], r_sorted[:cut], bq_sorted[:cut], "sell"
                )
            )
    return np.array(out)


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
    if rivals > 0:
        panel = strategy.sample(rng, mc_samples * rivals).reshape(mc_samples, rivals)
    else:
        panel = np.empty((mc_samples, 0))
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
    payoff_evaluation: str = "simulate",
):
    """Numerically check an equilibrium.

    A FeeProfile is checked for profitable unilateral grid deviations
    (returns a DeviationReport); a (buy, sell) MixedStrategy pair is checked
    for cost indifference across the support (returns a pair of
    IndifferenceReports).  ``payoff_evaluation="exact"`` replaces the Monte
    Carlo payoff estimates with closed-form expectations where the market
    structure admits them (zero delay, all pairs compatible, single round).
    """
    if isinstance(profile_or_strategies, FeeProfile):
        if payoff_evaluation == "exact":
            return _exact_psne_deviation_report(instance, profile_or_strategies, grid_resolution)
        if payoff_evaluation != "simulate":
            raise ValueError(f"unknown payoff evaluation {payoff_evaluation!r}")
        return _psne_deviation_report(
            instance, profile_or_strategies, grid_resolution, psne_replications, rng_seed
        )
    buy_strat, sell_strat = profile_or_strategies
    rng = np.random.default_rng(rng_seed)
    return (
        _msne_indifference_report(instance, buy_strat, grid_resolution, mc_samples, rng),
        _msne_indifference_report(instance, sell_strat, grid_resolution, mc_samples, rng),
    )
