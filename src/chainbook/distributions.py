"""Value distributions for population sampling: parametric and empirical.

Utilities and costs live on [0, 1]; quantities on [b_lo, b_hi].  Each
distribution exposes a CDF, an inverse CDF, a support, and sampling via
inverse transform.  Objects are immutable and pickle as their config
(:meth:`ValueDistribution.to_config`), so they travel to process workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ValueDistribution",
    "uniform",
    "beta",
    "lognormal_truncated",
    "fit_empirical",
    "point_mass",
    "from_config",
]


@dataclass(frozen=True)
class ValueDistribution:
    kind: str
    support: tuple[float, float]
    _cdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _ppf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    params: dict = field(default_factory=dict)

    def cdf(self, x):
        out = self._cdf(np.asarray(x, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0.0) | (u > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        out = self._ppf(u)
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.asarray(self.ppf(rng.random(size)), dtype=float).reshape(size)

    def to_config(self) -> dict:
        """Round-trippable description: ``from_config(d.to_config())`` rebuilds ``d``."""
        if self.kind == "empirical":
            return {"kind": "empirical", "samples": list(self.params["samples"]),
                    "support": list(self.support)}
        return {"kind": self.kind, **{k: v for k, v in self.params.items() if k != "n"}}

    def __reduce__(self):
        # The CDF and inverse are closures, which don't pickle; the config does.
        return from_config, (self.to_config(),)


def uniform(lo: float, hi: float) -> ValueDistribution:
    if hi < lo:
        raise ValueError("need lo <= hi")
    width = hi - lo
    if width == 0.0:
        return point_mass(lo)
    return ValueDistribution(
        kind="uniform",
        support=(lo, hi),
        _cdf=lambda x: np.clip((x - lo) / width, 0.0, 1.0),
        _ppf=lambda u: lo + u * width,
        params={"lo": lo, "hi": hi},
    )


def beta(a: float, b: float, lo: float = 0.0, hi: float = 1.0) -> ValueDistribution:
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"need beta shapes a > 0 and b > 0, got a={a}, b={b}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    from scipy import stats  # imported on use: it costs about 0.5 s to load

    dist = stats.beta(a, b, loc=lo, scale=hi - lo)
    return ValueDistribution(
        kind="beta",
        support=(lo, hi),
        _cdf=dist.cdf,
        _ppf=dist.ppf,
        params={"a": a, "b": b, "lo": lo, "hi": hi},
    )


def lognormal_truncated(mu: float, sigma: float, lo: float, hi: float) -> ValueDistribution:
    """Lognormal conditioned on [lo, hi] (mass outside the window renormalized away)."""
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    if not sigma > 0.0:
        raise ValueError(f"need sigma > 0, got {sigma}")
    from scipy import stats

    dist = stats.lognorm(s=sigma, scale=np.exp(mu))
    c_lo, c_hi = dist.cdf(lo), dist.cdf(hi)
    mass = c_hi - c_lo
    if mass <= 0.0:
        raise ValueError("no lognormal mass inside the truncation window")
    return ValueDistribution(
        kind="lognormal_truncated",
        support=(lo, hi),
        _cdf=lambda x: np.clip((dist.cdf(np.clip(x, lo, hi)) - c_lo) / mass, 0.0, 1.0),
        _ppf=lambda u: np.clip(dist.ppf(c_lo + u * mass), lo, hi),
        params={"mu": mu, "sigma": sigma, "lo": lo, "hi": hi},
    )


def point_mass(value: float) -> ValueDistribution:
    return ValueDistribution(
        kind="point",
        support=(value, value),
        _cdf=lambda x: (np.asarray(x, dtype=float) >= value).astype(float),
        _ppf=lambda u: np.full_like(np.asarray(u, dtype=float), value),
        params={"value": value},
    )


def fit_empirical(samples: Sequence[float], support: tuple[float, float]) -> ValueDistribution:
    """Empirical CDF through the sorted samples at midpoint plotting positions.

    Linear interpolation between the knots (x_(i), (i - 0.5) / n); the inverse
    interpolates the same knots the other way, so quantiles stay clamped to
    the observed range (and hence the support).  Constant samples degenerate
    to a step.
    """
    xs = np.sort(np.asarray(list(samples), dtype=float))
    if xs.size == 0:
        raise ValueError("need at least one sample")
    lo, hi = support
    if xs[0] < lo or xs[-1] > hi:
        raise ValueError("samples fall outside the declared support")
    if xs[0] == xs[-1]:
        return point_mass(float(xs[0]))
    positions = (np.arange(xs.size) + 0.5) / xs.size

    def cdf(x):
        return np.interp(x, xs, positions, left=0.0, right=1.0)

    def ppf(u):
        return np.interp(u, positions, xs)

    return ValueDistribution(
        kind="empirical",
        support=(lo, hi),
        _cdf=cdf,
        _ppf=ppf,
        params={"n": int(xs.size), "samples": tuple(float(x) for x in xs), "support": (lo, hi)},
    )


def from_config(spec: dict) -> ValueDistribution:
    """Build a distribution from a config mapping, e.g. {"kind": "uniform", "lo": 0, "hi": 1}."""
    kind = spec.get("kind")
    if kind == "uniform":
        return uniform(spec["lo"], spec["hi"])
    if kind == "beta":
        return beta(spec["a"], spec["b"], spec.get("lo", 0.0), spec.get("hi", 1.0))
    if kind == "lognormal_truncated":
        return lognormal_truncated(spec["mu"], spec["sigma"], spec["lo"], spec["hi"])
    if kind == "point":
        return point_mass(spec["value"])
    if kind == "empirical":
        return fit_empirical(spec["samples"], tuple(spec["support"]))
    raise ValueError(f"unknown distribution kind {kind!r}")
