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
Laplace transform, taken over the level v = v_t as two panel scans
(``_WeightTransform``): no quadrature runs inside an integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence, Tuple

import numpy as np

from .classify import (
    INCONCLUSIVE_CLASS,
    NO_IMMIGRATION,
    POLAR,
    RECURRENT,
    TRANSIENT,
    TRIVIAL_POINT,
    _inner_estimate,
    _outer_estimate,
    _over,
    classify_zero_state,
)
from .flow import _ratio, solver
from .mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    MechanismDomainError,
    Verdict,
    largest_root,
)
from .quadrature import FINITE, INFINITE, _lower_scans, _settled

DEFAULT_L_GRID = (1.0, 10.0, 100.0)
DRIFT_PROBE = 1e6

# a level this close (relatively) to a positive root keeps few digits of its
# distance to it; first order in that distance is exact to its square
_ROOT_PAD = 1e-6


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


_NO_SUBORDINATOR = {
    POLAR: "zero set is polar (never revisits 0); no Laplace exponent exists",
    TRIVIAL_POINT: "zero set is the single point {0}",
    NO_IMMIGRATION: "immigration vanishes identically: the zero set is a terminal ray",
    INCONCLUSIVE_CLASS: "classification is inconclusive for this pair",
}


def _require_subordinator(psi, phi) -> str:
    cls = _zero_class(psi, phi)
    if cls in _NO_SUBORDINATOR:
        raise ZeroSetError(f"{_NO_SUBORDINATOR[cls]}; run classify for diagnostics")
    return cls


def log_weight(psi, phi, t: float) -> float:
    """W(t), the log of the unnormalized last-zero density."""
    if t <= 0.0:
        raise MechanismDomainError("time must be positive")
    if not math.isfinite(t):
        raise MechanismDomainError(f"time t must be finite, got {t}")
    machine = _transform_machine(psi, phi)
    return machine.log_weight(t, machine.flow.v_from_infinity(t))


class _WeightTransform:
    """The Laplace transform of exp(W(t)), taken over the level v = v_t.

    With t = F(v), dt = -dv/Psi and W - q t has derivative R_q = (Phi + q)/Psi
    in v.  Split at a = v_s, the transform is e^{W(a) - q s} times the upper
    piece, the classifier's outer integral from a with phi + q for phi, and
    the lower piece, int_s^inf e^{W(t) - W(s) - q(t - s)} dt.  As R_q
    e^{-int_x^a R_q} integrates to 1 over (root, a) when Phi(root) + q > 0,
    by parts the lower piece is (1 - J)/(Phi(root) + q), J the scan of
    (Phi - Phi(root))/Psi against the same weight, which has no pole at the
    root.  At a zero root and q = 0 the inner integral of 1/Psi is left;
    its verdict tells a bounded zero set from an unbounded one.
    """

    def __init__(self, psi, phi):
        self.psi = psi
        self.phi = phi
        self.flow = solver(psi)
        self.v1 = self.flow.v_from_infinity(1.0)
        self.root = largest_root(psi)
        slope = psi.derivative_at_zero()
        # past 1/psi'(0) a subcritical flow decays exponentially and a level
        # octave is a fixed stretch of time, too short to see exp(-q t) fall
        self.horizon = 1.0 / slope if slope > 0.0 else math.inf

    def log_weight(self, t, vt):
        """W(t) = -int_1^t Phi(v_s) ds, given vt = v_t."""
        return -self.flow.phi_integral(self.phi, self.v1, t - 1.0, vt)

    def lower(self, q, a):
        """(the lower piece at a, the scan behind it): inf when it diverges
        at q = 0, nan when undecided."""
        if self.root == 0.0:
            scan = _inner_estimate(self.psi, lambda u: self.phi.values(u) + q, a, 0.0)
            # 1 - J carries J/(1 - J) times J's error: a direct scan decided
            # by a strict rule goes first
            if scan.verdict == FINITE and (q == 0.0 or scan.rule != "slow-geometric"):
                return scan.total, scan
            if q == 0.0:
                return (math.inf if scan.verdict == INFINITE else math.nan), scan
        base, gap = self.phi(self.root), a - self.root
        if gap <= _ROOT_PAD * self.root:        # J to first order in the gap
            j = 0.0 if gap == 0.0 else ((self.phi(a) - base) * gap
                                         / (self.psi(a) + (base + q) * gap))
            return (1.0 - j) / (base + q), None

        def read(x):    # J's integrand and its weight R_q share one evaluation
            den, num = self.psi.values(x), self.phi.values(x)
            return (num - base) * _over(den), _ratio(den, num + q)
        parts = _settled(_lower_scans(a, self.root, read, [(0, 1)])[0])
        return ((1.0 - parts.total) / (base + q) if parts.verdict == FINITE else math.nan), parts

    def transform(self, q: float):
        """(int_0^inf exp(-q t) exp(W(t)) dt, the scan that decided it), q >= 0:
        inf when a scan diverges at q = 0, nan when one is undecided.

        The split is at s = min(1, 1/q), within the subcritical horizon, and
        at a positive root no lower than 2 root.  s = 1/q at small q would
        put a fast-falling weight's e^{W(t) - W(s)} past the blow-up bound.
        """
        s = min(1.0 / max(q, 1.0), self.horizon)
        a = self.v1 if s == 1.0 else self.flow.v_from_infinity(s)
        if a < 2.0 * self.root:
            a = 2.0 * self.root
            s = self.flow.tail_time(a)
        upper = _outer_estimate(self.psi, lambda u: self.phi.values(u) + q, a)
        if upper.verdict != FINITE:
            return (math.inf if upper.verdict == INFINITE and q == 0.0 else math.nan), upper
        lower, scan = self.lower(q, a)
        return math.exp(self.log_weight(s, a) - q * s) * (upper.total + lower), scan

    @cached_property
    def transform_at_zero(self):
        """(value, verdict) for int_0^inf exp(W(t)) dt."""
        value, scan = self.transform(0.0)
        return value, Verdict.of_scan(scan, scan.evidence())


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
    if not math.isfinite(q):
        raise MechanismDomainError(f"Laplace argument q must be finite, got {q}")
    if _require_subordinator(psi, phi) == RECURRENT and q == 0.0:
        return 0.0                  # an unbounded zero set: int exp(W) diverges
    machine = _transform_machine(psi, phi)
    value, _ = machine.transform_at_zero if q == 0.0 else machine.transform(q)
    # only a bounded zero set has a finite transform at q = 0
    if math.isnan(value) or (q > 0.0 and math.isinf(value)):
        raise ZeroSetError(f"the Laplace transform at q = {q} could not be certified")
    return 1.0 / value


def _last_zero_law(psi, phi):
    """(transform machine, norm) of the last zero of a bounded zero set."""
    cls = _require_subordinator(psi, phi)
    if cls == RECURRENT:
        raise ZeroSetError("g∞ undefined (unbounded zero set)")
    machine = _transform_machine(psi, phi)
    norm, _ = machine.transform_at_zero
    if not (0.0 < norm < math.inf):
        raise ZeroSetError(
            "last-zero normalization diverged; quadrature disagrees with "
            "the transience classification")
    return machine, norm


def gzero_density(psi, phi, t: float) -> float:
    """Density of the last zero g_inf; defined for bounded zero sets."""
    if t <= 0.0:
        raise MechanismDomainError("density argument must be positive")
    if not math.isfinite(t):
        raise MechanismDomainError(f"density argument t must be finite, got {t}")
    _, norm = _last_zero_law(psi, phi)
    try:
        return math.exp(log_weight(psi, phi, t)) / norm
    except OverflowError:
        return math.inf


def _gzero_tail(psi, phi, T: float) -> float:
    """P(g_inf > T) for a bounded zero set: e^{W(T)} times the lower piece
    at v_T, over the norm."""
    machine, norm = _last_zero_law(psi, phi)
    vT = machine.flow.v_from_infinity(T)
    lower, _ = machine.lower(0.0, vT)
    if not math.isfinite(lower):
        raise ZeroSetError("last-zero mass past the horizon is undecided")
    return math.exp(machine.log_weight(T, vT)) * lower / norm


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
                         q_values: Sequence[float] = DEFAULT_L_GRID) -> SubordinatorSummary:
    """Sampled view of the zero-set subordinator: L values, index fit,
    drift diagnostic, and the killed verdict."""
    cls = _require_subordinator(psi, phi)
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

    drift = laplace_exponent(psi, phi, DRIFT_PROBE) / DRIFT_PROBE

    if cls == RECURRENT:            # unbounded: the subordinator is not killed
        l_zero, killed = 0.0, Verdict.no({"zero_class": cls})
    else:
        value, certified = _transform_machine(psi, phi).transform_at_zero
        l_zero = 1.0 / value        # nan if undecided
        killed = Verdict.yes({"l_zero": l_zero}) if certified.is_yes else certified

    return SubordinatorSummary(
        l_samples=samples, gamma_fit=slope, gamma_residual=residual,
        drift_estimate=drift, killed=killed, l_zero=l_zero)
