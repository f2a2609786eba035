"""Regenerative-set descriptors of the zero set.

For a non-polar zero set Z the closure of Z is the range of a
subordinator; this module computes its Laplace exponent L(q), the law of
the last zero g (bounded Z only), the stable index of the self-similar
critical family, and the Lamperti-stable exponent arising from
Ornstein-Uhlenbeck type processes.

Everything is driven by the weight

    W(t) = int_{v_1}^{v_t} Phi(u)/Psi(u) du,

where v_t is the boundary flow started from infinity.  exp(W(t)) is the
unnormalized density of the last zero, and L(q) is the reciprocal of its
Laplace transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .classify import (
    INCONCLUSIVE_CLASS,
    NO_IMMIGRATION,
    POLAR,
    RECURRENT,
    TRANSIENT,
    TRIVIAL_POINT,
    classify_zero_state,
    weight_between,
)
from .flow import solver
from .mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    MechanismDomainError,
    Verdict,
    largest_root,
)
from .quadrature import FINITE, INFINITE, adaptive, tail_verdict_upper

DEFAULT_L_GRID = (1.0, 10.0, 100.0)
DRIFT_PROBE = 1e6

# flow values this close to the largest root are beyond float resolution;
# past that point the weight decays exactly linearly in t (rate Phi(root))
_ROOT_PAD = 1e-9


class ZeroSetError(ValueError):
    """A requested descriptor is undefined for this mechanism pair."""


@dataclass(frozen=True)
class SubordinatorSummary:
    """Diagnostics of the subordinator whose closed range is the zero set."""

    l_samples: Tuple[Tuple[float, float], ...]
    gamma_fit: float
    gamma_residual: float
    drift_estimate: float
    killed: Verdict
    l_zero: float


@lru_cache(maxsize=256)
def _zero_class(psi: BranchingMechanism, phi: ImmigrationMechanism) -> str:
    return classify_zero_state(psi, phi).zero_class


def _require_subordinator(psi, phi) -> str:
    if phi is None:
        raise ZeroSetError(
            "no immigration: the zero set is a terminal ray, not the range "
            "of a subordinator; run classify for diagnostics")
    cls = _zero_class(psi, phi)
    if cls == POLAR:
        raise ZeroSetError(
            "zero set is polar (never revisits 0); no Laplace exponent "
            "exists; run classify for diagnostics")
    if cls == TRIVIAL_POINT:
        raise ZeroSetError(
            "zero set is the single point {0}; run classify for diagnostics")
    if cls == NO_IMMIGRATION:
        raise ZeroSetError(
            "immigration vanishes identically: the zero set is a terminal "
            "ray; run classify for diagnostics")
    if cls == INCONCLUSIVE_CLASS:
        raise ZeroSetError(
            "classification is inconclusive for this pair; run classify "
            "for diagnostics")
    return cls


def log_weight(psi, phi, t: float) -> float:
    """W(t), the log of the unnormalized last-zero density."""
    if t <= 0.0:
        raise MechanismDomainError("time must be positive")
    fs = solver(psi)
    v1 = fs.v_from_infinity(1.0)
    vt = fs.v_from_infinity(t)
    if vt <= 0.0:
        return -math.inf
    return weight_between(psi, phi, v1, vt)


class _WeightTransform:
    """Laplace-transform machinery for exp(W(t))."""

    def __init__(self, psi, phi):
        self.psi = psi
        self.phi = phi
        self.flow = solver(psi)
        self.v1 = self.flow.v_from_infinity(1.0)
        self.root = largest_root(psi)
        if self.root > 0.0:
            edge = self.root * (1.0 + _ROOT_PAD)
            self.t_star: Optional[float] = self.flow.tail_time(edge)
            self.w_star = weight_between(psi, phi, self.v1, edge)
            self.rate = phi(self.root)
        else:
            self.t_star = None

    def density(self, t: float) -> float:
        vt = self.flow.v_from_infinity(t)
        if vt <= 0.0:
            return 0.0
        w = weight_between(self.psi, self.phi, self.v1, vt)
        try:
            return math.exp(w)
        except OverflowError:
            return math.inf

    def _breakpoints(self, q: float, end: float):
        # geometric ladder through the exp(-q t) boundary layer; a single
        # breakpoint at 1/q leaves the rest of [1/q, 1] invisible to the
        # quadrature nodes and the decay mass is silently dropped
        points = {0.0, min(1.0, end), end}
        if q > 1.0:
            step = min(1.0 / q, end)
            while step < min(1.0, end):
                points.add(step)
                step *= 4.0
        return sorted(points)

    def transform(self, q: float) -> float:
        """int_0^inf exp(-q t) exp(W(t)) dt for q > 0."""
        f = lambda t: math.exp(-q * t) * self.density(t)
        if self.t_star is not None:
            points = self._breakpoints(q, self.t_star)
            total = sum(adaptive(f, lo, hi)
                        for lo, hi in zip(points, points[1:]))
            return total + self._analytic_tail(q)
        points = self._breakpoints(q, 1.0)
        total = sum(adaptive(f, lo, hi)
                    for lo, hi in zip(points, points[1:]))
        return total + adaptive(f, points[-1], math.inf)

    def _analytic_tail(self, q: float) -> float:
        # beyond t_star the flow sits at the root for all float purposes and
        # W decreases at the exact rate Phi(root)
        return math.exp(self.w_star - q * self.t_star) / (q + self.rate)

    @cached_property
    def transform_at_zero(self):
        """(value, verdict) for int_0^inf exp(W(t)) dt."""
        if self.t_star is not None:
            return self.transform(0.0), Verdict.yes({"tail": "exponential"})
        estimate = tail_verdict_upper(self.density, 1.0)
        if estimate.verdict == INFINITE:
            return math.inf, Verdict.no(estimate.evidence())
        if estimate.verdict == FINITE:
            head = adaptive(self.density, 0.0, 1.0)
            tail = adaptive(self.density, 1.0, math.inf)
            return head + tail, Verdict.yes(estimate.evidence())
        return math.nan, Verdict.inconclusive(estimate.evidence())


@lru_cache(maxsize=256)
def _transform_machine(psi, phi) -> _WeightTransform:
    return _WeightTransform(psi, phi)


def laplace_exponent(psi, phi, q: float) -> float:
    """Laplace exponent L(q) of the subordinator spanning the zero set.

    L(0) follows the boundedness protocol: it is positive exactly when
    the zero set is bounded (killed subordinator) and 0.0 otherwise.
    """
    if q < 0.0:
        raise MechanismDomainError("Laplace argument must be nonnegative")
    _require_subordinator(psi, phi)
    machine = _transform_machine(psi, phi)
    if q == 0.0:
        value, _ = machine.transform_at_zero
        if math.isnan(value):
            raise ZeroSetError(
                "boundedness of the zero set could not be certified")
        return 0.0 if math.isinf(value) else 1.0 / value
    return 1.0 / machine.transform(q)


def gzero_density(psi, phi, t: float) -> float:
    """Density of the last zero g_inf; defined for bounded zero sets."""
    if t <= 0.0:
        raise MechanismDomainError("density argument must be positive")
    cls = _require_subordinator(psi, phi)
    if cls == RECURRENT:
        raise ZeroSetError("g∞ undefined (unbounded zero set)")
    machine = _transform_machine(psi, phi)
    density = machine.density(t)
    norm, _ = machine.transform_at_zero
    if not (0.0 < norm < math.inf):
        raise ZeroSetError(
            "last-zero normalization diverged; quadrature disagrees with "
            "the transience classification")
    return density / norm


def selfsimilar_index(alpha: float, d: float, dprime: float) -> float:
    """Stable index gamma of the zero-set subordinator for the critical
    self-similar family (branching d q^alpha, immigration d' q^(alpha-1))."""
    if not (1.0 < alpha <= 2.0):
        raise MechanismDomainError("alpha must lie in (1, 2]")
    if d <= 0.0 or dprime <= 0.0:
        raise MechanismDomainError("scale parameters must be positive")
    if dprime / d >= alpha - 1.0:
        raise ZeroSetError("polar regime, no subordinator")
    return 1.0 - dprime / (d * (alpha - 1.0))


def lamperti_kappa(gamma_arg: float, beta: float) -> float:
    """Laplace exponent of the Lamperti-stable subordinator at gamma_arg."""
    if gamma_arg <= 0.0:
        raise MechanismDomainError("exponent argument must be positive")
    if not (0.0 < beta < 1.0):
        raise MechanismDomainError("beta must lie in (0, 1)")
    return math.exp(math.lgamma(1.0 - beta + gamma_arg)
                    - math.lgamma(1.0 - beta) - math.lgamma(gamma_arg))


def least_squares_line(xs: Sequence[float],
                       ys: Sequence[float]) -> Tuple[float, float, float]:
    """(slope, intercept, slope stderr) of the OLS line, computed as
    ``scipy.stats.linregress`` computes them; x values must not all agree,
    and a flat y gives stderr 0."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    if x.size == 2 or ssym == 0.0:
        return slope, intercept, 0.0
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return slope, intercept, np.sqrt((1 - r ** 2) * ssym / ssxm
                                     / (x.size - 2))


def subordinator_summary(psi, phi,
                         q_values: Sequence[float] = DEFAULT_L_GRID,
                         drift_probe: float = DRIFT_PROBE) -> SubordinatorSummary:
    """Sampled view of the zero-set subordinator: L values, index fit,
    drift diagnostic, and the killed verdict."""
    _require_subordinator(psi, phi)
    qs = sorted(set(float(q) for q in q_values))
    if len(qs) < 2 or qs[0] <= 0.0:
        raise MechanismDomainError("need at least two positive sample points")
    samples = tuple((q, laplace_exponent(psi, phi, q)) for q in qs)
    for (_, a), (_, b) in zip(samples, samples[1:]):
        if not b > a:
            raise ZeroSetError("Laplace exponent samples are not increasing; "
                               "quadrature failure")

    logs_q = [math.log(q) for q, _ in samples]
    logs_l = [math.log(l) for _, l in samples]
    slope, intercept, _ = least_squares_line(logs_q, logs_l)
    residual = max(abs(ll - (slope * lq + intercept))
                   for lq, ll in zip(logs_q, logs_l))

    drift = laplace_exponent(psi, phi, drift_probe) / drift_probe

    machine = _transform_machine(psi, phi)
    value, certified = machine.transform_at_zero
    if math.isnan(value):
        killed = Verdict.inconclusive(certified.evidence)
        l_zero = math.nan
    elif math.isinf(value):
        killed = Verdict.no(certified.evidence)
        l_zero = 0.0
    else:
        l_zero = 1.0 / value
        killed = Verdict.yes({"l_zero": l_zero})

    return SubordinatorSummary(
        l_samples=samples, gamma_fit=slope, gamma_residual=residual,
        drift_estimate=drift, killed=killed, l_zero=l_zero)
