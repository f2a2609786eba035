"""Branching and immigration mechanisms.

Two families of Laplace exponents drive everything in this package: a
convex branching exponent (``psi`` throughout, vanishing at 0) and a
concave nondecreasing immigration exponent (``phi``, also vanishing at
0).

Each family is one frozen, callable dataclass that owns what only it
knows: its numpy form over an array of points (``values``), its growth
profile (indices and leading coefficients at infinity and at zero), its
largest root, its derivative at 0 or its drift, its compound-Poisson
verdict, its scaling, closed-form flow hooks and its spec-string
grammar.  The base classes ``BranchingMechanism`` and
``ImmigrationMechanism`` carry the generic route every user-supplied
mechanism takes: one handle call per point for ``values``, log-log slope
probes with an explicit inconclusive flag, positivity probes, finite
differences and one check that a user handle vanishes at 0.  Callers
ask the mechanism for these facts, so no caller dispatches on the family.

A small text grammar (``parse_mechanism`` / ``mech.spec()``) reads
each family's ``spec_family`` and ``spec_keys`` to round-trip the
built-in families for the command line and config files.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .quadrature import (FINITE, INCONCLUSIVE, INFINITE, RangeEnd, brent,
                         tail_verdict_lower, tail_verdict_upper)


class MechanismDomainError(ValueError):
    """Argument or parameter outside a mechanism's admissible range."""


class PositivityError(ValueError):
    """No threshold found past which the branching exponent stays positive."""


class EvaluationError(RuntimeError):
    """A user-supplied mechanism handle failed or returned unusable values."""


class VerdictValue(str, Enum):
    YES = "Yes"
    NO = "No"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Tri-state answer bundled with the numeric evidence behind it."""

    value: VerdictValue
    evidence: dict

    @property
    def is_yes(self):
        return self.value is VerdictValue.YES

    @property
    def is_no(self):
        return self.value is VerdictValue.NO

    @property
    def is_inconclusive(self):
        return self.value is VerdictValue.INCONCLUSIVE

    @staticmethod
    def yes(evidence: dict) -> "Verdict":
        return Verdict(VerdictValue.YES, evidence)

    @staticmethod
    def no(evidence: dict) -> "Verdict":
        return Verdict(VerdictValue.NO, evidence)

    @staticmethod
    def inconclusive(evidence: dict) -> "Verdict":
        return Verdict(VerdictValue.INCONCLUSIVE, evidence)

    @staticmethod
    def of_scan(est, evidence: dict, yes: str = FINITE) -> "Verdict":
        """Yes when a scan's verdict is ``yes``, No if certain otherwise."""
        if est.verdict == INCONCLUSIVE:
            return Verdict.inconclusive(evidence)
        return Verdict(VerdictValue.YES if est.verdict == yes else VerdictValue.NO, evidence)


@dataclass(frozen=True)
class GrowthProfile:
    """Growth of a mechanism at infinity and at zero.

    The lower and upper indices bound the log-log slope at each end;
    ``coeff_inf`` and ``coeff_0`` are the leading coefficients of the
    power law there, None when unknown.  ``closed_form`` means every
    value is family data, and ``inconclusive`` that the probed slopes
    spread too widely to name an index.
    """

    ind_lower_inf: float
    ind_upper_inf: float
    ind_lower_0: float
    ind_upper_0: float
    inconclusive: bool
    coeff_inf: Optional[float] = None
    coeff_0: Optional[float] = None
    closed_form: bool = False

    @staticmethod
    def power(ind_inf, coeff_inf, ind_0, coeff_0) -> "GrowthProfile":
        """Closed-form family data: one index and coefficient at each end."""
        return GrowthProfile(ind_inf, ind_inf, ind_0, ind_0, inconclusive=False,
                             coeff_inf=coeff_inf, coeff_0=coeff_0, closed_form=True)

    @property
    def at_inf(self):
        return self.ind_lower_inf, self.ind_upper_inf, self.coeff_inf

    @property
    def at_0(self):
        return self.ind_lower_0, self.ind_upper_0, self.coeff_0


_PROBE_INF = tuple(10.0 ** k for k in range(2, 9))
_PROBE_ZERO = tuple(10.0 ** (-k) for k in range(8, 1, -1))
_PROBE_SPREAD = 0.02


def _loglog_slopes(fn, grid):
    """(min, max) log-log slope of fn over the grid: (nan, nan), no slope,
    at a finite value <= 0, and an error at a NaN or infinite one."""
    values = []
    for x in grid:
        v = fn(x)
        if math.isfinite(v) and v <= 0:
            return math.nan, math.nan
        if not (v > 0) or math.isinf(v):
            raise EvaluationError(
                f"index probe needs positive finite values, got {v} at {x}")
        values.append(v)
    slopes = []
    for i in range(len(grid) - 1):
        slopes.append((math.log(values[i + 1]) - math.log(values[i]))
                      / (math.log(grid[i + 1]) - math.log(grid[i])))
    return min(slopes), max(slopes)


def _probe_profile(fn) -> GrowthProfile:
    # a supercritical psi is negative near 0, and at the first probes at
    # infinity when its root lies past them: no index there, and the
    # profile is inconclusive so index arithmetic abstains
    lo_inf, hi_inf = _loglog_slopes(fn, _PROBE_INF)
    lo_0, hi_0 = _loglog_slopes(fn, _PROBE_ZERO)
    inconclusive = (math.isnan(lo_0 + lo_inf) or hi_inf - lo_inf > _PROBE_SPREAD
                    or hi_0 - lo_0 > _PROBE_SPREAD)
    return GrowthProfile(lo_inf, hi_inf, lo_0, hi_0, inconclusive=inconclusive)


_THETA_MAX_EXP = 100
_THETA_SAMPLES = 50


def _positive_beyond(psi, theta):
    # 50 log-spaced samples over [theta, 1e6 * theta]
    step = 1e6 ** (1.0 / (_THETA_SAMPLES - 1))
    q = theta
    for _ in range(_THETA_SAMPLES):
        if not psi(q) > 0:
            return False
        q *= step
    return True


class Mechanism:
    """What every mechanism answers, with the generic probed route.

    A family with a spec-string form sets ``spec_family`` and
    ``spec_keys`` (spec key -> field name, in spec-string order) and is
    listed in ``_SPEC_FAMILIES``.
    """

    spec_family: Optional[str] = None
    spec_keys: dict = {}
    # the field of a user handle that __call__ wraps
    _handle_field: Optional[str] = None

    def __post_init__(self):
        # every number a mechanism is built from is finite and a user
        # handle vanishes at 0; then the family checks its own range
        for field in fields(self):
            value = getattr(self, field.name)
            if not (value is None or callable(value) or math.isfinite(value)):
                raise MechanismDomainError(
                    f"{type(self).__name__} needs a finite {field.name}, got {value}")
        handle = self._handle_field and getattr(self, self._handle_field)
        if handle is not None:
            _check_vanishes(handle, type(self).__name__)
        self._check_range()

    def _check_range(self):
        pass

    def __call__(self, q: float) -> float:
        raise NotImplementedError

    def values(self, qs: np.ndarray) -> np.ndarray:
        """The exponent at every point of an array, one call per point; a
        family with a numpy form overrides this.  A user handle is called
        bare; on any exception ``__call__`` redoes the array, which reads
        an overflow as it does and names the point that failed."""
        handle = self._handle_field and getattr(self, self._handle_field)
        if handle is not None and qs.min() >= 0:
            with suppress(Exception):
                return np.array([handle(q) for q in qs.tolist()], dtype=float)
        return np.array([self(q) for q in qs.tolist()], dtype=float)

    def profile(self) -> GrowthProfile:
        """Growth profile; probed from log-log slopes unless known."""
        return _probe_profile(self)

    def spec(self) -> str:
        if self.spec_family is None:
            raise MechanismDomainError(f"{type(self).__name__} has no spec-string form")
        params = ",".join(f"{key}={getattr(self, field)!r}"
                          for key, field in self.spec_keys.items())
        return f"{self.spec_family}:{params}"


class BranchingMechanism(Mechanism):
    """Base class for convex branching exponents."""

    kind = "branching"

    def closed_root(self) -> Optional[float]:
        """Largest root in closed form; None leaves it to the numeric search."""
        return None

    def probed_threshold(self) -> float:
        """Smallest power of two >= 1 past which probes of psi stay positive."""
        theta = 1.0
        for _ in range(_THETA_MAX_EXP):
            if _positive_beyond(self, theta):
                return theta
            theta *= 2.0
        raise PositivityError("no positivity threshold found up to 2**100")

    def derivative_at_zero(self) -> float:
        # psi < 0 below a positive root, so a step inside it keeps the sign
        root = largest_root(self)
        h = min(1e-8, root / 2.0) if root > 0 else 1e-8
        return self(h) / h

    # Closed-form flow hooks.  None sends FlowSolver to its numeric route;
    # arguments arrive validated (a > 0; t > 0, and lam > 0 finite).

    def closed_tail_time(self, a: float) -> Optional[float]:
        return None

    def closed_v_from_lambda(self, t: float, lam: float) -> Optional[float]:
        return None

    def closed_v_from_infinity(self, t: float) -> Optional[float]:
        return None


_CPP_PROBES = (1e4, 1e6, 1e8)
_CPP_REL = 1e-3


class ImmigrationMechanism(Mechanism):
    """Base class for concave nondecreasing immigration exponents."""

    kind = "immigration"

    def linear_drift(self) -> float:
        return 0.0

    def compound_poisson(self) -> Verdict:
        """Bounded exponent and no drift, judged from probes at large q."""
        drift = self.linear_drift()
        if drift > 0:
            return Verdict.no({"drift": drift})
        probes = [self(q) for q in _CPP_PROBES]
        evidence = {"drift": drift, "probes": dict(zip(_CPP_PROBES, probes))}
        if probes[-1] == 0.0:
            return Verdict.no({**evidence, "note": "exponent vanishes at the probes"})
        changes = [abs(b - a) / abs(a) if a != 0 else math.inf
                   for a, b in zip(probes, probes[1:])]
        evidence["relative_changes"] = changes
        if all(c < _CPP_REL for c in changes):
            return Verdict.yes(evidence)
        if all(c >= _CPP_REL for c in changes):
            return Verdict.no(evidence)
        return Verdict.inconclusive(evidence)

    def scaled(self, c: float) -> "ImmigrationMechanism":
        """q -> c * phi(q) as a custom mechanism declaring this profile."""
        idx = self.profile()
        if idx.inconclusive:  # nothing to declare: the copy probes its own
            idx = GrowthProfile(None, None, None, None, inconclusive=True)
        return CustomImmigration(
            eval=lambda q, _p=self, _c=c: _c * _p(q),
            drift=c * self.linear_drift(),
            ind_lower=idx.ind_lower_inf, ind_upper=idx.ind_upper_inf,
            ind0_lower=idx.ind_lower_0, ind0_upper=idx.ind_upper_0,
        )


def _check_arg(q):
    if q < 0:
        raise MechanismDomainError(f"mechanism argument must be >= 0, got {q}")


def _check_vanishes(handle, name: str) -> None:
    """A user-supplied exponent must vanish at 0."""
    try:
        at_zero = handle(0.0)
    except Exception as exc:
        raise EvaluationError(f"{name} handle failed at 0") from exc
    if not abs(at_zero) <= 1e-9:  # NaN fails too
        raise MechanismDomainError(f"{name} exponent must vanish at 0, got {at_zero}")


@dataclass(frozen=True)
class StableBranching(BranchingMechanism):
    """psi(q) = d * q**alpha with d > 0 and alpha in (1, 2]."""

    d: float
    alpha: float

    spec_family = "stable"
    spec_keys = {"d": "d", "alpha": "alpha"}

    def _check_range(self):
        if not self.d > 0:
            raise MechanismDomainError(f"stable branching needs d > 0, got {self.d}")
        if not (1.0 < self.alpha <= 2.0):
            raise MechanismDomainError(
                f"stable branching needs alpha in (1, 2], got {self.alpha}")

    def __call__(self, q: float) -> float:
        _check_arg(q)
        if q == 0.0:
            return 0.0
        try:
            return self.d * q ** self.alpha
        except OverflowError:
            return math.inf

    def values(self, qs):
        _check_arg(qs.min())
        return self.d * qs ** self.alpha

    def profile(self):
        return GrowthProfile.power(self.alpha, self.d, self.alpha, self.d)

    def closed_root(self):
        return 0.0

    def derivative_at_zero(self):
        return 0.0

    def closed_tail_time(self, a):
        return a ** (1.0 - self.alpha) / (self.d * (self.alpha - 1.0))

    def closed_v_from_lambda(self, t, lam):
        am1 = self.alpha - 1.0
        return (lam ** -am1 + self.d * am1 * t) ** (-1.0 / am1)

    def closed_v_from_infinity(self, t):
        am1 = self.alpha - 1.0
        return (self.d * am1 * t) ** (-1.0 / am1)


# below the smallest normal float b has lost digits, and dividing by it
# costs more than its term is worth: the root and the closed flow forms
# take the b -> 0 limit
_NORMAL_MIN = 2.0 ** -1022


@dataclass(frozen=True)
class QuadraticBranching(BranchingMechanism):
    """psi(q) = b*q + (sigma2/2)*q**2; b may be negative, sigma2 >= 0."""

    b: float
    sigma2: float

    spec_family = "quadratic"
    spec_keys = {"b": "b", "sigma2": "sigma2"}

    def _check_range(self):
        if self.sigma2 < 0:
            raise MechanismDomainError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.sigma2 == 0.0 and self.b == 0.0:
            raise MechanismDomainError("degenerate branching: b and sigma2 both zero")

    def __call__(self, q: float) -> float:
        _check_arg(q)
        return self.b * q + 0.5 * self.sigma2 * q * q

    def values(self, qs):
        _check_arg(qs.min())
        return self.b * qs + 0.5 * self.sigma2 * qs * qs

    def profile(self):
        # the leading coefficient at 0 is b, negative when supercritical
        half = 0.5 * self.sigma2
        at_inf = (2.0, half) if half > 0 else (1.0, self.b)
        at_0 = (1.0, self.b) if self.b != 0 else (2.0, half)
        return GrowthProfile.power(*at_inf, *at_0)

    def closed_root(self):
        if self.sigma2 == 0.0:
            if self.b > 0:
                return 0.0
            raise PositivityError("branching exponent is nonpositive everywhere")
        if abs(self.b) < _NORMAL_MIN:
            return 0.0
        return max(0.0, -2.0 * self.b / self.sigma2)

    def derivative_at_zero(self):
        return self.b

    def closed_tail_time(self, a):
        if self.sigma2 == 0.0:
            return None  # pure drift fails Grey's condition
        if abs(self.b) < _NORMAL_MIN:
            return 2.0 / (self.sigma2 * a)
        ratio = 2.0 * self.b / (self.sigma2 * a)
        if ratio <= -1.0:  # at or below the supercritical root
            raise MechanismDomainError(
                f"tail_time needs a above the largest root, got {a}")
        return math.log1p(ratio) / self.b

    def closed_v_from_lambda(self, t, lam):
        if self.sigma2 == 0.0:  # pure drift
            return lam * math.exp(-self.b * t)
        # 1/v satisfies a linear ODE; this form is stable for either sign of b
        if abs(self.b) < _NORMAL_MIN:
            return 1.0 / (1.0 / lam + 0.5 * self.sigma2 * t)
        try:
            growth = math.exp(self.b * t)
            spread = math.expm1(self.b * t)
        except OverflowError:
            return 0.0  # b > 0 and t huge: level underflows
        denom = growth / lam + self.sigma2 / (2.0 * self.b) * spread
        if math.isinf(denom):
            return 0.0
        return 1.0 / denom

    def closed_v_from_infinity(self, t):
        if self.sigma2 == 0.0:
            return None  # pure drift fails Grey's condition
        if abs(self.b) < _NORMAL_MIN:
            return 2.0 / (self.sigma2 * t)
        try:
            spread = math.expm1(self.b * t)
        except OverflowError:
            return 0.0
        if math.isinf(spread):
            return 0.0
        if spread == 0.0:  # b*t underflowed; b -> 0 limit
            return 2.0 / (self.sigma2 * t)
        return 2.0 * self.b / (self.sigma2 * spread)


@dataclass(frozen=True)
class CustomBranching(BranchingMechanism):
    """User-supplied branching exponent.

    Its positivity threshold, growth profile, largest root and derivative
    at 0 are probed, located or differenced numerically from the handle.
    """

    eval: Callable[[float], float]
    _handle_field = "eval"

    def __call__(self, q: float) -> float:
        _check_arg(q)
        try:
            return self.eval(q)
        except (OverflowError, FloatingPointError):
            return math.inf
        except Exception as exc:
            raise EvaluationError(f"custom branching handle failed at q={q}") from exc


@dataclass(frozen=True)
class StableImmigration(ImmigrationMechanism):
    """phi(q) = dprime * q**beta with dprime > 0 and beta in (0, 1]."""

    dprime: float
    beta: float

    spec_family = "stable"
    spec_keys = {"d": "dprime", "beta": "beta"}

    def _check_range(self):
        if not self.dprime > 0:
            raise MechanismDomainError(f"stable immigration needs d > 0, got {self.dprime}")
        if not (0.0 < self.beta <= 1.0):
            raise MechanismDomainError(
                f"stable immigration needs beta in (0, 1], got {self.beta}")

    def __call__(self, q: float) -> float:
        _check_arg(q)
        if q == 0.0:
            return 0.0
        try:
            return self.dprime * q ** self.beta
        except OverflowError:
            return math.inf

    def values(self, qs):
        _check_arg(qs.min())
        return self.dprime * qs ** self.beta

    def profile(self):
        return GrowthProfile.power(self.beta, self.dprime, self.beta, self.dprime)

    def linear_drift(self):
        return self.dprime if self.beta == 1.0 else 0.0

    def scaled(self, c):
        return StableImmigration(dprime=c * self.dprime, beta=self.beta)


@dataclass(frozen=True)
class GammaImmigration(ImmigrationMechanism):
    """phi(q) = a * log(1 + q/b), the gamma-process exponent."""

    a: float
    b: float

    spec_family = "gamma"
    spec_keys = {"a": "a", "b": "b"}

    def _check_range(self):
        if not (self.a > 0 and self.b > 0):
            raise MechanismDomainError("gamma immigration needs a > 0 and b > 0")

    def __call__(self, q: float) -> float:
        _check_arg(q)
        return self.a * math.log1p(q / self.b)

    def values(self, qs):
        _check_arg(qs.min())
        return self.a * np.log1p(qs / self.b)

    def profile(self):
        # slowly varying (log) at infinity: index 0, no power coefficient
        return GrowthProfile.power(0.0, None, 1.0, self.a / self.b)

    def scaled(self, c):
        return GammaImmigration(a=c * self.a, b=self.b)


# Bernoulli numbers B_0 ... B_12, with B_1 = -1/2
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0,
              -691 / 2730)
# log Gamma(z + beta) - log Gamma(z) is its asymptotic series from z = 16
# on; below, Gamma(x + 1) = x Gamma(x) carries the ratio from z = q + 16
_SHIFT = 16
_STEPS = np.arange(float(_SHIFT))[:, None]


@dataclass(frozen=True)
class LampertiImmigration(ImmigrationMechanism):
    """phi(q) = Gamma(beta + q) / (Gamma(beta) * Gamma(q)).

    Behaves like q**beta / Gamma(beta) at infinity and like q at 0.  The
    endpoint beta = 1 degenerates to the pure drift phi(q) = q and is
    accepted so the family closes over its own limiting case.
    """

    beta: float

    spec_family = "lamperti"
    spec_keys = {"beta": "beta"}

    def _check_range(self):
        if not (0.0 < self.beta <= 1.0):
            raise MechanismDomainError(
                f"lamperti immigration needs beta in (0, 1], got {self.beta}")

    @cached_property
    def _series(self):
        """The coefficients a_12 ... a_1 of log Gamma(z + beta) - log Gamma(z)
        - beta log z = sum_k a_k z**-k (DLMF 5.11.8, whose next term is under
        1e-17 from z = 16 on), a_k = (-1)**(k+1) (B_{k+1}(beta) - B_{k+1}(0))
        / (k (k + 1)), and 1/Gamma(beta)."""
        coefs = [(-1) ** n * sum(math.comb(n, m) * b * self.beta ** (n - m)
                                 for m, b in enumerate(_BERNOULLI[:n])) / (n * (n - 1))
                 for n in range(len(_BERNOULLI), 1, -1)]
        return coefs, 1.0 / math.gamma(self.beta)

    def __call__(self, q: float) -> float:
        # the arithmetic of values, in its order
        _check_arg(q)
        coefs, inv_gamma = self._series
        z = q + _SHIFT if q < _SHIFT else q
        w = 1.0 / z
        series = coefs[0] * w
        for a in coefs[1:]:
            series = (series + a) * w
        value = z ** self.beta * math.exp(series) * inv_gamma
        if q < _SHIFT:
            ratio = 1.0
            for j in range(_SHIFT):
                ratio *= (q + j) / (q + j + self.beta)
            value *= ratio
        return value

    def values(self, qs):
        _check_arg(qs.min())
        coefs, inv_gamma = self._series
        small = qs < _SHIFT
        z = np.where(small, qs + _SHIFT, qs)
        w = 1.0 / z
        series = coefs[0] * w
        for a in coefs[1:]:     # Horner, in place
            series += a
            series *= w
        out = z ** self.beta * np.exp(series) * inv_gamma
        if small.any():
            steps = qs[small] + _STEPS
            out[small] *= np.multiply.reduce(steps / (steps + self.beta))
        return out

    def profile(self):
        return GrowthProfile.power(self.beta, 1.0 / math.gamma(self.beta), 1.0, 1.0)

    def linear_drift(self):
        return 1.0 if self.beta == 1.0 else 0.0


@dataclass(frozen=True)
class CompoundPoissonImmigration(ImmigrationMechanism):
    """Driftless immigration with finite jump-measure mass and unit-mean
    exponential jumps: phi(q) = mass * q / (1 + q).  Any other bounded
    exponent is a ``CustomImmigration``.
    """

    mass: float

    spec_family = "cpp"
    spec_keys = {"mass": "mass"}

    def _check_range(self):
        if not self.mass > 0:
            raise MechanismDomainError(f"compound Poisson mass must be > 0, got {self.mass}")

    def __call__(self, q: float) -> float:
        _check_arg(q)
        return self.mass * q / (1.0 + q)

    def values(self, qs):
        _check_arg(qs.min())
        return self.mass * qs / (1.0 + qs)

    def profile(self):
        return GrowthProfile.power(0.0, self.mass, 1.0, self.mass)

    def compound_poisson(self):
        return Verdict.yes({"family": "compound-poisson", "mass": self.mass})

    def scaled(self, c):
        return CompoundPoissonImmigration(mass=c * self.mass)


@dataclass(frozen=True)
class CustomImmigration(ImmigrationMechanism):
    """User-supplied immigration exponent with optional declarations."""

    eval: Callable[[float], float]
    drift: float = 0.0
    ind_lower: Optional[float] = None
    ind_upper: Optional[float] = None
    ind0_lower: Optional[float] = None
    ind0_upper: Optional[float] = None
    _handle_field = "eval"

    def _check_range(self):
        if self.drift < 0:
            raise MechanismDomainError("immigration drift must be >= 0")

    def __call__(self, q: float) -> float:
        _check_arg(q)
        try:
            return self.eval(q)
        except (OverflowError, FloatingPointError):
            return math.inf
        except Exception as exc:
            raise EvaluationError(f"custom immigration handle failed at q={q}") from exc

    def profile(self):
        declared = (self.ind_lower, self.ind_upper, self.ind0_lower, self.ind0_upper)
        if all(v is not None for v in declared):
            return GrowthProfile(*declared, inconclusive=False)
        probed = _probe_profile(self)
        merged = [d if d is not None else p
                  for d, p in zip(declared, (probed.ind_lower_inf, probed.ind_upper_inf,
                                             probed.ind_lower_0, probed.ind_upper_0))]
        return GrowthProfile(*merged, inconclusive=probed.inconclusive)

    def linear_drift(self):
        return self.drift


@lru_cache(maxsize=512)
def positivity_threshold(psi) -> float:
    """Smallest power of two >= 1 past which psi stays positive."""
    root = psi.closed_root()
    if root is None:
        return psi.probed_threshold()
    theta = 1.0
    while theta <= root:
        theta *= 2.0
    return theta


@lru_cache(maxsize=512)
def largest_root(psi) -> float:
    """Largest root of the branching exponent (0 unless supercritical)."""
    root = psi.closed_root()
    if root is not None:
        return root
    hi = positivity_threshold(psi)
    lo = hi / 2.0
    while lo >= 1e-290:
        # bracket on the sign alone: an exact 0.0 may be psi underflowing
        if psi(lo) < 0:
            # the root lies in [lo, 2 lo]: a tolerance scaled by lo keeps tiny roots
            return brent(psi, lo, hi, xtol=1e-14 * lo, rtol=1e-14)
        hi = lo
        lo /= 2.0
    return 0.0


def _safe_recip(values):
    """1/|values|, inf at 0; an overflowed value ends a scan's range."""
    if np.isinf(values).any():
        raise RangeEnd
    return 1.0 / np.abs(values)


@lru_cache(maxsize=512)
def tail_scan(psi, k: int = 0):
    """The panel scan of int_a^inf dq/psi from a = theta 2^k, theta the
    positivity threshold.  Its range ends where psi overflows."""
    start = positivity_threshold(psi) * 2.0 ** k
    return tail_verdict_upper(lambda q: _safe_recip(psi.values(q)), start)


def grey_check(psi) -> Verdict:
    """Does int^inf dq/psi(q) converge (extinction in finite time)?"""
    est = tail_scan(psi)
    return Verdict.of_scan(est, {"theta": positivity_threshold(psi), **est.evidence()})


@lru_cache(maxsize=512)
def conservativity_check(psi) -> Verdict:
    """Does int_0 dq/|psi(q)| diverge (no explosion from finite mass)?"""
    stop = 1.0
    try:
        root = largest_root(psi)
    except PositivityError:
        root = 0.0
    if root > 0:
        stop = root / 2.0
    est = tail_verdict_lower(lambda q: _safe_recip(psi.values(q)), stop)
    return Verdict.of_scan(est, {"stop": stop, **est.evidence()}, yes=INFINITE)


def scale_immigration(phi, c: float):
    """Return the immigration mechanism q -> c * phi(q)."""
    if not c > 0:
        raise MechanismDomainError(f"scale factor must be > 0, got {c}")
    return phi.scaled(c)


# --- mechanism mini-grammar ---------------------------------------------

# families with a spec string; "stable" tries branching before immigration
_SPEC_FAMILIES = (StableBranching, QuadraticBranching, StableImmigration,
                  GammaImmigration, LampertiImmigration, CompoundPoissonImmigration)


class MechanismParseError(ValueError):
    """Malformed mechanism spec string; carries the character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _parse_params(body, offset):
    # positions count the raw text: offset is where body starts in the spec
    params = {}
    cursor = offset
    if not body:
        raise MechanismParseError("missing parameter list", cursor)
    for item in body.split(","):
        if "=" not in item:
            raise MechanismParseError(f"expected key=value, got {item!r}", cursor)
        key, _, raw = item.partition("=")
        name = key.strip()
        if not name:
            raise MechanismParseError("empty parameter name", cursor)
        if name in params:
            raise MechanismParseError(f"duplicate parameter {name!r}", cursor)
        try:
            params[name] = float(raw)
        except ValueError:
            value_at = cursor + len(key) + 1 + len(raw) - len(raw.lstrip())
            raise MechanismParseError(
                f"bad number {raw!r} for {name!r}", value_at) from None
        cursor += len(item) + 1
    return params


def parse_mechanism(spec: str):
    """Parse a mechanism spec string like ``stable:d=1.0,alpha=2.0``."""
    if not isinstance(spec, str):
        raise MechanismParseError("mechanism spec must be a string", 0)
    text = spec.strip()
    if ":" not in text:
        raise MechanismParseError("expected family:params", 0)
    family_at = len(spec) - len(spec.lstrip())
    family, _, body = text.partition(":")
    body_at = family_at + len(family) + 1
    family = family.strip()
    params = _parse_params(body, body_at)
    candidates = [cls for cls in _SPEC_FAMILIES if cls.spec_family == family]
    if not candidates:
        raise MechanismParseError(f"unknown mechanism family {family!r}", family_at)
    matches = [cls for cls in candidates if set(cls.spec_keys) == set(params)]
    if not matches:
        if len(candidates) == 1:
            message = f"{family} needs exactly {sorted(candidates[0].spec_keys)}"
        else:
            message = f"{family} needs either " + " or ".join(
                f"{','.join(cls.spec_keys)} ({cls.kind})" for cls in candidates)
        raise MechanismParseError(message, body_at)
    cls = matches[0]
    try:
        return cls(**{field: params[key] for key, field in cls.spec_keys.items()})
    except MechanismDomainError as exc:
        raise MechanismParseError(str(exc), body_at) from exc


def parse_branching(spec: str) -> BranchingMechanism:
    mech = parse_mechanism(spec)
    if not isinstance(mech, BranchingMechanism):
        raise MechanismParseError(f"{spec!r} is not a branching mechanism", 0)
    return mech


def parse_immigration(spec: str) -> ImmigrationMechanism:
    mech = parse_mechanism(spec)
    if not isinstance(mech, ImmigrationMechanism):
        raise MechanismParseError(f"{spec!r} is not an immigration mechanism", 0)
    return mech
