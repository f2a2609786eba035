"""Zero sets of Ornstein-Uhlenbeck processes driven by strictly
alpha-stable Levy motions.

For stability index alpha in (0, 1] the zero set collapses to the
single starting point.  For alpha in (1, 2] it is an unbounded random
cutout set of Hausdorff dimension 1/alpha: after the logarithmic time
change s = log t, z = log(1 + x/t) the excursion straddles become a
Poisson rain of cuts with intensity ds times a cutting measure whose
density in the lag z is (1 - beta) e^z / (e^z - 1)^2, beta = 1 - 1/alpha.
The mean-reversion rate only rescales the time axis and the cutting
measure is free of it, so simulations fix the rate to 1.  Only strictly
stable drivers are modeled; the asymmetric Cauchy case (alpha = 1 with
drift-like skew) is outside the self-similar framework and excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .classify import RECURRENT, TRIVIAL_POINT
from .cutout import CutoutError, DurationSampler, UncoveredSet, \
    cutout_with_sampler
from .mechanisms import MechanismDomainError

PUSHFORWARD_LOG_SPAN = 10.0


def _require_index(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 < alpha <= 2.0:
        raise MechanismDomainError("stability index must lie in (0, 2]")
    return alpha


def _require_cutout_index(alpha: float) -> float:
    alpha = _require_index(alpha)
    if alpha <= 1.0:
        raise MechanismDomainError(
            "zero set is a single point for index <= 1; "
            "no cutting measure exists")
    return alpha


def _require_lag(z: float) -> float:
    z = float(z)
    if math.isnan(z) or z <= 0.0:
        raise MechanismDomainError("lag must be positive")
    return z


@dataclass(frozen=True)
class StableOUSpec:
    """Ornstein-Uhlenbeck process driven by a strictly stable motion.

    The mean-reversion rate only rescales the time axis, so nothing
    below depends on it and the spec does not carry it.
    """

    alpha: float

    def __post_init__(self) -> None:
        _require_index(self.alpha)

    @property
    def beta(self) -> Optional[float]:
        """1 - 1/alpha, or None when the zero set is a single point."""
        if self.alpha <= 1.0:
            return None
        return 1.0 - 1.0 / self.alpha


@dataclass(frozen=True)
class OUClassification:
    zero_class: str
    dim: float
    beta: Optional[float]

    def as_dict(self) -> dict:
        return {"class": self.zero_class, "dim": self.dim,
                "beta": self.beta}


def ou_classify(alpha: float) -> OUClassification:
    """Dichotomy for the zero set of a stable OU process.

    Index at most 1 leaves only the starting point; above 1 the zero
    set is unbounded (recurrent) with dimension 1/alpha.
    """
    alpha = _require_index(alpha)
    if alpha <= 1.0:
        return OUClassification(zero_class=TRIVIAL_POINT, dim=0.0,
                                beta=None)
    return OUClassification(zero_class=RECURRENT, dim=1.0 / alpha,
                            beta=1.0 - 1.0 / alpha)


def cutting_density(z: float, alpha: float) -> float:
    """Density (1 - beta) e^z / (e^z - 1)^2 of the cutting measure."""
    alpha = _require_cutout_index(alpha)
    z = _require_lag(z)
    # e^z/(e^z-1)^2 rewritten from e^{-z} so large lags underflow to 0
    # instead of overflowing
    emz = math.exp(-z)
    one_minus = -math.expm1(-z)
    return (1.0 / alpha) * emz / (one_minus * one_minus)


def cutting_tail(z: float, alpha: float) -> float:
    """Mass (1 - beta)/(e^z - 1) of the cutting measure on [z, inf)."""
    alpha = _require_cutout_index(alpha)
    z = _require_lag(z)
    return (1.0 / alpha) * math.exp(-z) / (-math.expm1(-z))


def levy_tail(x: float, alpha: float, scale: float = 1.0) -> float:
    """Subordinator Levy tail scale/(e^x - 1)^{1 - beta}.

    The true constant is not pinned down by the gap structure; only the
    shape matters, so callers pick the scale.
    """
    alpha = _require_cutout_index(alpha)
    x = _require_lag(x)
    if not scale > 0.0:
        raise MechanismDomainError("scale must be positive")
    log_gap = x + math.log1p(-math.exp(-x))
    return scale * math.exp(-log_gap / alpha)


@lru_cache(maxsize=64)
def ou_sampler(alpha: float, eps: float) -> DurationSampler:
    """Duration sampler for the cutting measure restricted to [eps, inf)."""
    alpha = _require_cutout_index(alpha)
    return DurationSampler.from_tail(lambda z: cutting_tail(z, alpha), eps)


def sample_ou_cutout(alpha: float, T: float, eps: float,
                     seed) -> UncoveredSet:
    """One realization of the OU zero set on [0, T] at truncation eps.

    Cuts arrive at rate ``cutting_tail(eps, alpha)`` with durations
    drawn from the normalized cutting measure; the representation and
    the statistics are shared with the cutout module.
    """
    return cutout_with_sampler(ou_sampler(alpha, eps), T, seed)


def pushforward_samples(alpha: float, eps: float, n: int,
                        seed) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws (t, x, z) from the pre-image of the cutting measure.

    (t, x) follows dt (x) (1-beta) x^{-2} dx on t in [1, e^10]
    restricted to lags z = log(1 + x/t) >= eps; the time change makes
    log t uniform and z an exact draw from the normalized cutting
    measure, independent of t.
    """
    alpha = _require_cutout_index(alpha)
    if eps <= 0.0:
        raise CutoutError("eps must be positive")
    if n < 1:
        raise CutoutError("need at least one draw")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    t = np.exp(PUSHFORWARD_LOG_SPAN * rng.random(n))
    u = 1.0 - rng.random(n)     # (0, 1]; u = 1 hits the smallest lag eps
    x = t * math.expm1(eps) / u
    z = np.log1p(x / t)
    return t, x, z


def pushforward_ks(alpha: float, eps: float, n: int, seed) -> float:
    """KS distance between pushforward lags and the cutting measure.

    Validates the change of variables (t, x) -> (log t, log(1 + x/t));
    the normalized law on [eps, inf) has tail (e^eps - 1)/(e^z - 1).
    The one-sample statistic is max(D+, D-) over the sorted sample.
    """
    z = np.sort(pushforward_samples(alpha, eps, n, seed)[2])
    cdf = 1.0 - np.exp(math.log(math.expm1(eps)) - z - np.log1p(-np.exp(-z)))
    d_plus = (np.arange(1.0, z.size + 1) / z.size - cdf).max()
    d_minus = (cdf - np.arange(0.0, z.size) / z.size).max()
    return float(max(d_plus, d_minus))
