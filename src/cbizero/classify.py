"""Classification of the zero set of a branching process with immigration.

The trichotomy (polar / transient / recurrent) for the state 0, along
with heaviness (positive Lebesgue measure), interval structure,
stationarity, and box-counting dimension bounds.

Two routes produce a classification.  The regular-variation fast path
applies closed-form index arithmetic when both mechanisms have exactly
known growth profiles; it decides strictly by the index comparisons and
abstains on uncovered boundary configurations.  The numeric route
evaluates the two criterion integrals

    outer:  int_theta^inf exp( int_theta^z R ) dz / Psi(z)
    inner:  int_v^s       exp( -int_x^s R ) dx / Psi(x)

with R = Phi/Psi, v the largest root of Psi and s = min(theta, 2 v), or
theta at v = 0, using the octave-panel divergence protocol.  Each is one
scan of the panel rule with R as its weight: the exponent comes from the
rule's cumulative integration at the same nodes, so no quadrature runs
inside an integrand.  Outer divergent means 0 is polar; otherwise the
inner integral separates transient (finite) from recurrent (infinite).
Each scan reads Psi and Phi once per node, and carries a second stream
on its panels: heaviness's int_theta^inf R upward, whose panel values
are the outer weight's spans, and at v = 0 stationarity's int_0^theta R
downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import FlowError, _ratio, _ratio_func, solver
from .mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    Verdict,
    conservativity_check,
    grey_check,
    largest_root,
    positivity_threshold,
)
from .quadrature import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    _lower_scans,
    _settled,
    _upper_scans,
    tail_verdict_lower,
    tail_verdict_upper,
)

TRIVIAL_POINT = "TrivialPoint"
POLAR = "Polar"
TRANSIENT = "Transient"
RECURRENT = "Recurrent"
INCONCLUSIVE_CLASS = "Inconclusive"
NO_IMMIGRATION = "NoImmigration"

METHOD_NUMERIC = "NumericIntegral"
METHOD_FASTPATH = "RVFastPath"
METHOD_CLOSED = "ClosedForm"

# index comparisons from probed (inexact) data abstain inside this margin;
# an index is an exponent, unmoved by a time change c psi, c phi or a space
# scaling, so an absolute margin on it is scale-free
_BOUNDARY_MARGIN = 1e-3

# the dimension slopes are read at the levels theta 2^k: theta is a sign
# threshold and F(a) Phi(a) is unmoved by a time change (F/c times c Phi),
# so the levels and the slopes are scale-free, and so is the spread allowed
_DIM_OCTAVES = (40, 50, 60)
_DIM_SPREAD = 1e-6


class ClassificationError(ValueError):
    """Requested quantity is undefined for this zero-set class."""


@dataclass(frozen=True)
class RegVarSummary:
    """Power-law profile of the ratio R = Phi/Psi at both ends.

    ``rho`` and ``kappa`` are the indices of R at infinity and at zero,
    and ``r`` and ``k`` the limits of sR(s) there (s -> infinity and
    s -> 0).  None means unknown.  ``exact`` is True when every value
    comes from closed-form family data rather than probes.
    """

    rho: Optional[float]
    kappa: Optional[float]
    r: Optional[float]
    k: Optional[float]
    ind_upper_inf: float
    ind_lower_inf: float
    ind_upper_0: float
    ind_lower_0: float
    exact: bool

    def as_dict(self) -> dict:
        return {
            "rho": self.rho, "kappa": self.kappa,
            "r_upper": self.r, "r_lower": self.r,
            "k_upper": self.k, "k_lower": self.k,
            "Ind_upper": self.ind_upper_inf, "Ind_lower": self.ind_lower_inf,
            "ind_upper": self.ind_upper_0, "ind_lower": self.ind_lower_0,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class ZeroSetReport:
    """Full classification record with the numeric evidence behind it."""

    grey: Verdict
    conservative: Verdict
    zero_class: str
    heavy: Verdict
    intervals: Verdict
    stationary: Verdict
    dim_upper: Optional[float]
    dim_lower: Optional[float]
    method: str
    evidence: dict

    def as_dict(self) -> dict:
        return {
            "grey": self.grey.value.value,
            "conservative": self.conservative.value.value,
            "zero_class": self.zero_class,
            "heavy": self.heavy.value.value,
            "intervals": self.intervals.value.value,
            "stationary": self.stationary.value.value,
            "dim_upper": self.dim_upper,
            "dim_lower": self.dim_lower,
            "method": self.method,
            "evidence": self.evidence,
        }


# --- index arithmetic ------------------------------------------------------

def _power_index(lower: float, upper: float, coeff: Optional[float]) -> Optional[float]:
    """The one power index at an end of a profile, None when ill-defined."""
    # a negative leading term (a supercritical psi near 0) makes R = Phi/Psi
    # negative there, which no power law describes; a sign is scale-free
    if coeff is not None and coeff < 0:
        return None
    # probe slopes carry float jitter; only a real spread means unequal
    # indices, and indices do not move under scaling
    if upper - lower <= 1e-6:
        return 0.5 * (lower + upper)
    return None


def _ratio_end(psi_end, phi_end):
    """(index, sR(s) bound) of R = Phi/Psi at one end, None where unknown.

    Each argument is a profile's (lower index, upper index, coefficient)
    at that end.
    """
    psi_idx, phi_idx = _power_index(*psi_end), _power_index(*phi_end)
    if psi_idx is None or phi_idx is None:
        return None, None
    index = phi_idx - psi_idx
    if index != -1.0:
        return index, math.inf if index > -1.0 else 0.0
    psi_coeff, phi_coeff = psi_end[2], phi_end[2]
    if psi_coeff is None or phi_coeff is None:
        return index, None
    return index, phi_coeff / psi_coeff


def is_supercritical(psi: BranchingMechanism) -> bool:
    """A positive largest root, so the zero set is bounded.  The root is
    scale-free: c psi keeps the answer at every c > 0."""
    return largest_root(psi) > 0


def regvar_summary(psi, phi) -> Optional[RegVarSummary]:
    """Index data of R = Phi/Psi; None when a profile is inconclusive."""
    pp, fp = psi.profile(), phi.profile()
    if pp.inconclusive or fp.inconclusive:
        return None
    rho, r = _ratio_end(pp.at_inf, fp.at_inf)
    kappa, k = _ratio_end(pp.at_0, fp.at_0)
    return RegVarSummary(
        rho=rho, kappa=kappa, r=r, k=k,
        ind_upper_inf=pp.ind_upper_inf, ind_lower_inf=pp.ind_lower_inf,
        ind_upper_0=pp.ind_upper_0, ind_lower_0=pp.ind_lower_0,
        exact=pp.closed_form and fp.closed_form,
    )


# --- component verdicts ----------------------------------------------------

def _scan_verdict(outcome, **where) -> Verdict:
    """A scan's verdict with ``where`` in its evidence, or its exception raised."""
    est = _settled(outcome)
    return Verdict.of_scan(est, {**where, **est.evidence()})


def heaviness(psi, phi) -> Verdict:
    """Positive Lebesgue measure of the zero set: does int_theta^inf R converge?"""
    theta = positivity_threshold(psi)
    return _scan_verdict(tail_verdict_upper(_ratio_func(psi, phi), theta), theta=theta)


def stationary_exists(psi, phi) -> Verdict:
    """Stationary law: not supercritical and int_0 R finite."""
    root = largest_root(psi)
    if is_supercritical(psi):
        return Verdict.no({"root": root, "reason": "supercritical"})
    theta = positivity_threshold(psi)
    return _scan_verdict(tail_verdict_lower(_ratio_func(psi, phi), theta),
                         root=root, theta=theta)


# --- criterion integrals ----------------------------------------------------

def _over(den):
    """1/Psi over an array, as the criterion integrands read it: NaN where
    Psi <= 0 or is NaN."""
    # a sign test: c Psi > 0 exactly where Psi > 0
    return np.where(den > 0.0, 1.0 / den, math.nan)


def _levels(psi, phi):
    """1/Psi and R = Phi/Psi at an array of levels, from one evaluation of each
    mechanism there; ``phi`` is a mechanism or an array function."""
    numerator = getattr(phi, "values", phi)

    def read(u):
        den = psi.values(u)
        return _over(den), _ratio(den, numerator(u))
    return read


# the streams of a criterion scan: 1/Psi weighted by R, and R alone
_CRITERION, _RATIO = (0, 1), (1, None)


def _outer_estimate(psi, phi, theta):
    """Divergence verdict for int_theta^inf exp(W(z)) dz/Psi(z), W(z)=int_theta^z R."""
    return _settled(_upper_scans(theta, _levels(psi, phi), [_CRITERION])[0])


def _inner_estimate(psi, phi, theta, floor):
    """Divergence verdict for int_floor^theta exp(-int_x^theta R) dx/Psi(x)."""
    return _settled(_lower_scans(theta, floor, _levels(psi, phi), [_CRITERION])[0])


# --- dimensions -------------------------------------------------------------

def _clip_unit(x: float) -> float:
    return min(1.0, max(0.0, x))


def _dims_from_summary(summary: RegVarSummary):
    """Interval bounds on the box dimensions from the index data."""
    r = summary.r
    if r is None or math.isinf(r):
        return None  # unknown, or the polar regime with no dimensions
    ind_up = summary.ind_upper_inf
    ind_lo = summary.ind_lower_inf
    if ind_lo <= 1.0 or ind_up <= 1.0:
        return None
    upper = 1.0 - r / (ind_up - 1.0)
    lower = 1.0 - r / (ind_lo - 1.0)
    return _clip_unit(upper), _clip_unit(lower)


def _dims_numeric(psi, phi):
    """(upper, lower) box dimensions from the local slopes 1 - F(a) Phi(a) at
    a = theta 2^k, with their evidence: at u = F(a) the derivative of W(u) in
    log(1/u) is u Phi(v_u).  None unless the slopes agree to _DIM_SPREAD."""
    theta, fs = positivity_threshold(psi), solver(psi)
    slopes = {}
    for k in _DIM_OCTAVES:
        a = theta * 2.0 ** k
        slopes[k] = 1.0 - fs.tail_time(a) * phi(a)
    hi, lo = max(slopes.values()), min(slopes.values())
    evidence = {"theta": theta, "slopes": slopes, "spread": hi - lo}
    return (_clip_unit(hi), _clip_unit(lo)) if hi - lo <= _DIM_SPREAD else None, evidence


def box_dims(psi, phi):
    """Upper and lower box-counting dimension of the zero set, as its
    report gives them; raises unless the class is transient or recurrent."""
    report = classify_zero_state(psi, phi)
    if report.zero_class not in (TRANSIENT, RECURRENT):
        raise ClassificationError(
            f"dimensions undefined for zero-set class {report.zero_class}")
    return report.dim_upper, report.dim_lower


# --- fast path ---------------------------------------------------------------

def rv_fastpath(psi, phi) -> Optional[ZeroSetReport]:
    """Classification by regular-variation index arithmetic.

    Returns None (no fast path) whenever the indices are unknown, a
    comparison lands inside the abstention margin for probed data, or
    the configuration falls in a gap the index theorems do not decide.
    Exact family data decides boundary cases via the theorems' own
    non-strict clauses.
    """
    summary = regvar_summary(psi, phi)
    if summary is None or summary.rho is None:
        return None
    margin = 0.0 if summary.exact else _BOUNDARY_MARGIN
    rho, r = summary.rho, summary.r

    if rho > -1.0 + margin:
        polar = True
        heavy = Verdict.no({"rho": rho, "reason": "ratio integral diverges"})
    elif rho < -1.0 - margin:
        polar = False
        heavy = Verdict.yes({"rho": rho, "reason": "ratio integral converges"})
    elif margin > 0.0 or r is None:
        return None  # probed data too close to the boundary, or sR(s) unknown
    # rho == -1 exactly: compare sR(s) against the growth indices; the
    # limits of sR(s) do not move under a time change or a space scaling,
    # so these absolute comparisons (and r > 0 below) are scale-free
    elif r >= summary.ind_upper_inf - 1.0:
        polar = True
        heavy = Verdict.no({"rho": rho, "r_lower": r})
    elif r < summary.ind_lower_inf - 1.0:
        polar = False
        if r > 0:
            heavy = Verdict.no({"rho": rho, "r_lower": r,
                                "reason": "sR(s) bounded away from 0"})
        else:
            heavy = Verdict.inconclusive({"rho": rho, "r_lower": 0.0})
    else:
        return None  # gap between the polar and non-polar clauses

    grey = grey_check(psi)
    if not grey.is_yes:
        return None  # trivial or undecided extinction: fast path does not apply
    evidence = {"regvar": summary.as_dict(), "margin": margin}
    if polar:
        return _report(psi, phi, grey, POLAR, heavy, None, METHOD_FASTPATH, evidence)

    k = summary.k
    if is_supercritical(psi):
        zero_class = TRANSIENT
        evidence["recurrence_rule"] = "supercritical: zero set is bounded"
    elif summary.kappa is None:
        return None
    elif summary.kappa < -1.0 - margin:
        zero_class = TRANSIENT
        evidence["recurrence_rule"] = "kappa < -1"
    elif summary.kappa > -1.0 + margin:
        zero_class = RECURRENT
        evidence["recurrence_rule"] = "kappa > -1"
    elif margin > 0.0 or k is None:
        return None
    elif k - summary.ind_lower_0 <= -1.0:
        zero_class = RECURRENT
        evidence["recurrence_rule"] = "kappa = -1, k_upper <= ind_lower - 1"
    elif k - summary.ind_upper_0 > -1.0:
        zero_class = TRANSIENT
        evidence["recurrence_rule"] = "kappa = -1, k_lower > ind_upper - 1"
    else:
        return None

    dims = _dims_from_summary(summary) if summary.exact else None
    return _report(psi, phi, grey, zero_class, heavy, dims, METHOD_FASTPATH, evidence)


# --- main entry ---------------------------------------------------------------

def _is_zero_immigration(phi) -> bool:
    # exact zeros: c phi and phi(k .) vanish exactly where phi does
    return phi is None or (phi(1.0) == 0.0 and phi(1e6) == 0.0)


def _report(psi, phi, grey, zero_class, heavy, dims, method, evidence,
            stationary=None) -> ZeroSetReport:
    """A route's answer, with the verdicts every route shares added:
    conservativity, intervals (a compound-Poisson phi) and stationarity,
    unless ``stationary()`` gives it from a scan already run, and dimension 1
    for a heavy set (Fitzsimmons, Fristedt & Shepp 1985)."""
    if heavy.is_yes and zero_class in (TRANSIENT, RECURRENT):
        dims = 1.0, 1.0
    dim_upper, dim_lower = dims or (None, None)
    return ZeroSetReport(
        grey=grey, conservative=conservativity_check(psi), zero_class=zero_class,
        heavy=heavy, intervals=phi.compound_poisson(),
        stationary=stationary_exists(psi, phi) if stationary is None else stationary(),
        dim_upper=dim_upper, dim_lower=dim_lower, method=method, evidence=evidence)


def classify_zero_state(psi: BranchingMechanism,
                        phi: Optional[ImmigrationMechanism],
                        *, numeric_only: bool = False) -> ZeroSetReport:
    """Full zero-set classification; ``numeric_only`` skips the fast path."""
    grey = grey_check(psi)
    if _is_zero_immigration(phi):
        note = {"note": "no immigration: started at 0 the process stays at 0"}
        return ZeroSetReport(
            grey=grey, conservative=conservativity_check(psi), zero_class=NO_IMMIGRATION,
            heavy=Verdict.yes(dict(note)), intervals=Verdict.yes(dict(note)),
            stationary=Verdict.no(dict(note)) if is_supercritical(psi)
            else Verdict.yes(dict(note)),
            dim_upper=1.0, dim_lower=1.0, method=METHOD_CLOSED, evidence=note)

    if grey.is_no:
        return _report(psi, phi, grey, TRIVIAL_POINT,
                       Verdict.no({"reason": "zero set is the single point 0"}),
                       (0.0, 0.0), METHOD_CLOSED, {"grey": grey.evidence})
    if grey.is_inconclusive:
        return _report(psi, phi, grey, INCONCLUSIVE_CLASS,
                       Verdict.inconclusive({"reason": "extinction test undecided"}),
                       None, METHOD_NUMERIC, {"grey": grey.evidence})

    if not numeric_only:
        fast = rv_fastpath(psi, phi)
        if fast is not None:
            return fast

    # each outcome is settled where its standalone verdict ran: heaviness,
    # the outer and the inner integral here, stationarity in _report
    theta = positivity_threshold(psi)
    read = _levels(psi, phi)
    # the outer integral's weight R gives heaviness's int_theta^inf R
    outer, heavy = _upper_scans(theta, read, [_CRITERION, _RATIO])
    heavy = _scan_verdict(heavy, theta=theta)
    outer = _settled(outer)
    evidence = {"theta": theta, "outer": outer.evidence()}
    zero_class = {INFINITE: POLAR, INCONCLUSIVE: INCONCLUSIVE_CLASS}.get(outer.verdict)
    if zero_class == POLAR and heavy.is_yes:
        # under Grey a finite int R bounds e^W, so the outer integral is
        # finite; octave sums that rise for long read as divergent here
        zero_class = INCONCLUSIVE_CLASS
        evidence["note"] = ("outer integral read as divergent for a heavy set; "
                            "a heavy zero set is not polar")
    stationary = None
    if zero_class is None:
        root = largest_root(psi)
        supercritical = is_supercritical(psi)
        # above 2 root the integrand is bounded, so starting there keeps the
        # verdict and skips octaves where 1/Psi may still grow; at root 0 the
        # inner scan's panels are those of stationarity's int_0^theta R
        inner, *scan = _lower_scans(min(theta, 2.0 * root) if supercritical else theta, root,
                                    read, [_CRITERION] if supercritical else [_CRITERION, _RATIO])
        inner = _settled(inner)
        if scan:
            stationary = lambda: _scan_verdict(*scan, root=root, theta=theta)
        evidence.update(inner=inner.evidence(), root=root, supercritical=supercritical)
        zero_class = {FINITE: TRANSIENT, INFINITE: RECURRENT}.get(inner.verdict,
                                                                 INCONCLUSIVE_CLASS)
        if zero_class == RECURRENT and supercritical:
            # theory forbids recurrence for supercritical branching; a
            # divergent inner integral here means the numerics are off
            zero_class = INCONCLUSIVE_CLASS
            evidence["note"] = ("inner integral diverged for a supercritical "
                                "mechanism; recurrence is impossible")

    dims = None
    if zero_class in (TRANSIENT, RECURRENT) and heavy.is_yes:
        evidence["dims"] = {"rule": "heavy: positive Lebesgue measure, dimension 1"}
    elif zero_class in (TRANSIENT, RECURRENT):
        try:
            dims, evidence["dims"] = _dims_numeric(psi, phi)
        except FlowError as exc:    # F unresolved, as where psi overflows at a level
            evidence["dims"] = {"error": str(exc), **exc.evidence}
    return _report(psi, phi, grey, zero_class, heavy, dims, METHOD_NUMERIC, evidence,
                   stationary)
