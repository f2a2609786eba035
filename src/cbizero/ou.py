"""Zero sets of Ornstein-Uhlenbeck processes driven by strictly
alpha-stable Levy motions.

The zero set is the cutout of the CBI pair Psi(q) = q + q^2,
Phi(q) = q/alpha.  After the logarithmic time change s = log t,
z = log(1 + x/t) the excursion straddles become a Poisson rain of cuts
with intensity ds times a cutting measure of tail (1/alpha)/(e^z - 1)
in the lag z, which is Phi(v_z) for the flow v_z = 1/expm1(z) of Psi.
So the pair classifies and samples it.  For stability index alpha in
(0, 1] the zero set collapses to the single starting point (the pair is
polar).  For alpha in (1, 2] it is an unbounded random cutout set of
Hausdorff dimension 1 - 1/alpha, the dimension of the zero set of an
alpha-stable process (Blumenthal & Getoor 1962).  The mean-reversion
rate only rescales the time axis and the cutting measure is free of it,
so simulations fix the rate to 1.  Only strictly stable drivers are
modeled; the asymmetric Cauchy case (alpha = 1 with drift-like skew) is
outside the self-similar framework and excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .classify import TRIVIAL_POINT, classify_zero_state
from .cutout import CutoutError, DurationSampler, UncoveredSet, \
    _cached_sampler, cutout_with_sampler
from .mechanisms import MechanismDomainError, QuadraticBranching, \
    StableImmigration

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


def _pair(alpha: float) -> Tuple[QuadraticBranching, StableImmigration]:
    """The CBI pair (q + q^2, q/alpha) whose zero set is the OU zero set."""
    return (QuadraticBranching(b=1.0, sigma2=2.0),
            StableImmigration(dprime=1.0 / alpha, beta=1.0))


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

    Index at most 1 leaves only the starting point; above 1 the class
    and the dimension 1 - 1/alpha are those of the pair.
    """
    alpha = _require_index(alpha)
    if alpha <= 1.0:
        return OUClassification(zero_class=TRIVIAL_POINT, dim=0.0,
                                beta=None)
    report = classify_zero_state(*_pair(alpha))
    return OUClassification(zero_class=report.zero_class,
                            dim=report.dim_upper, beta=1.0 - 1.0 / alpha)


def ou_sampler(alpha: float, eps: float) -> DurationSampler:
    """Duration sampler of the pair's cuts on [eps, inf)."""
    return _cached_sampler(*_pair(_require_cutout_index(alpha)), eps)


def sample_ou_cutout(alpha: float, T: float, eps: float,
                     seed) -> UncoveredSet:
    """One realization of the OU zero set on [0, T] at truncation eps,
    the pair's cutout drawn by the cutout module's sampler and sweep.
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
    if not 0.0 < eps < math.inf:
        raise CutoutError(f"eps {eps} must be finite and positive")
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
