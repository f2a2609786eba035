"""Deterministic flow of the branching ODE and the marginal transform.

The flow ``v_t(lam)`` solves dv/dt = -psi(v) from v_0 = lam, or from
infinity.  It is found by inverting t = int_v^lam dq/psi(q), not by
stepping the ODE, which is stiff as t -> 0 where the boundary flow blows up.

Each solve first asks the mechanism's closed-form flow hook (``closed_*``;
one that overflows raises ``FlowError``), else inverts on the panel rule
with the level written root + s e^w (s = +1 above the largest root, -1
below).  F(a) = int_a^inf dq/psi is read at the edges theta 2^k off the
scan of 1/psi that decides Grey's condition (``mechanisms.tail_scan``),
summed from the top; an edge far below its scan's total, or past its
range, is scanned afresh.  A scan's range ends where psi overflows, and
a v_t past it raises ``FlowError``.  v_t lies in the octave whose edge
values bracket t, or below the first edge, as the flow from it for the
rest of t.  Newton steps on log time solve in w, each integrating only
the span from the last iterate, as dT/dw = -e^w/|psi| is exact.  As
ds = -dv/Psi, ``phi_integral`` takes int_0^t Phi(v_s) ds as Phi(root) t
plus ``weight_between`` of Phi - Phi(root) from v_t to lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    MechanismDomainError,
    largest_root,
    positivity_threshold,
    tail_scan,
)
from .quadrature import FINITE, quad

ROOT_TOL = 1e-12
# initial levels at or above V_CAP count as the boundary condition at infinity
V_CAP = 1e300
# an edge whose F is below this share of its scan's total is scanned afresh
RESCAN_SHARE = 1e-3
# the relative error of an answer that the panels' error estimates may imply
ERR_LIMIT = 1e-6


class GreyConditionError(ValueError):
    """Raised when an operation needs finite extinction times but Grey fails."""


class FlowError(RuntimeError):
    """Flow inversion could not certify a bracket; carries numeric evidence."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence or {}


@dataclass(frozen=True)
class FlowSolver:
    """Inverts the branching flow for one mechanism."""

    psi: BranchingMechanism

    @staticmethod
    def _closed(hook, *args):
        """A closed-form flow hook's value, with float overflow as a FlowError."""
        try:
            return hook(*args)
        except OverflowError:
            raise FlowError("closed flow form overflows",
                            {"hook": hook.__name__, "args": args}) from None

    def _edge_times(self, k):
        """F at the edges theta 2^k, theta 2^(k+1), ... of the scan from theta 2^k."""
        scan = tail_scan(self.psi, k)
        if scan.verdict != FINITE:
            if k == 0:
                raise GreyConditionError("v from infinity undefined: Grey's condition fails")
            why = ", as psi overflows below v_t (above a, for F(a))"
            raise FlowError("scan of 1/psi undecided" + why * (scan.rule == "range-end"),
                            {"k": k, **scan.evidence()})
        return scan.remainders()

    def _time(self, root, sign, w_near, w_far):
        """(int dq/|psi| over the levels root + sign e^u, u from w_near to w_far, abserr)."""
        def pace(u):        # e^u/|psi|, not e^u (1/|psi|): 1/psi overflows first
            e = np.exp(u)
            return e / np.abs(self.psi.values(root + sign * e))
        return quad(pace, w_near, w_far)

    # -- F(a) = int_a^inf dq/psi ------------------------------------------

    def tail_time(self, a: float) -> float:
        """Time for the boundary flow to descend to level a."""
        if not a > 0:
            raise MechanismDomainError(f"tail_time needs a > 0, got {a}")
        closed = self._closed(self.psi.closed_tail_time, a)
        if closed is not None:
            return closed
        times, at_a = self._edge_times(0), self.psi(a)
        if not at_a > 0:
            raise MechanismDomainError(
                f"tail_time needs psi positive at a, got psi({a}) = {at_a}")
        if math.isinf(at_a):
            raise FlowError("psi overflows at a", {"a": a})
        # F at the first edge above a, plus the time from a up to it
        root, theta = largest_root(self.psi), positivity_threshold(self.psi)
        j = 0 if a < theta else math.floor(math.log2(a / theta)) + 1
        top = (times[j] if j < len(times) and times[j] >= RESCAN_SHARE * times[0]
               else self._edge_times(j)[0])
        between, err = self._time(root, 1.0, math.log(a - root),
                                  math.log(theta * 2.0 ** j - root))
        if not err <= ERR_LIMIT * (top + between):
            raise FlowError("panel error estimate too large", {"a": a, "abserr": err})
        return top + between

    # -- flow from a finite level ------------------------------------------

    def v_from_lambda(self, t: float, lam: float) -> float:
        """Flow level after time t started from lam (lam at or above V_CAP means infinity)."""
        if not t >= 0:
            raise MechanismDomainError(f"time must be >= 0, got {t}")
        if not lam >= 0:
            raise MechanismDomainError(f"initial level must be >= 0, got {lam}")
        if lam >= V_CAP:
            return self.v_from_infinity(t) if t > 0 else math.inf
        if lam == 0.0 or t == 0.0:
            return lam
        closed = self._closed(self.psi.closed_v_from_lambda, t, lam)
        if closed is not None:
            return closed
        psi = self.psi
        root = largest_root(psi)
        at_lam = psi(lam)
        if at_lam == 0.0 or lam == root:
            return lam
        if lam > root and at_lam < 0:
            raise FlowError(
                "branching exponent negative above its largest root",
                {"lam": lam, "root": root, "psi(lam)": at_lam})
        if lam < root and at_lam > 0:
            raise FlowError(
                "branching exponent positive below its largest root",
                {"lam": lam, "root": root, "psi(lam)": at_lam})
        # the flow runs toward the root: down from above it, up from below
        sign = 1.0 if lam > root else -1.0
        start = math.log(abs(lam - root))
        return self._invert(t, root, sign, start, 0.0, -math.inf, start)

    # -- flow from infinity ------------------------------------------------

    def v_from_infinity(self, t: float) -> float:
        """Boundary flow level v_t with v_{0+} = infinity; needs Grey."""
        if not t > 0:
            raise MechanismDomainError(f"time must be > 0, got {t}")
        closed = self._closed(self.psi.closed_v_from_infinity, t)
        if closed is not None:
            return closed
        root, theta = largest_root(self.psi), positivity_threshold(self.psi)
        top = math.floor(math.log2(V_CAP / theta))      # theta 2^top <= V_CAP
        k = 0
        while k <= top:
            times = self._edge_times(k)
            if t >= times[0]:   # below the first edge: the flow from it for the rest of t
                w = math.log(theta * 2.0 ** k - root)
                return self._invert(t - times[0], root, 1.0, w, 0.0, -math.inf, w)
            i = sum(f >= t for f in times) - 1      # F(edge i) >= t > F(edge i + 1)
            if i + 1 < len(times) and (i == 0 or times[i] >= RESCAN_SHARE * times[0]):
                lo, hi = (math.log(theta * 2.0 ** (k + j) - root) for j in (i, i + 1))
                level = self._invert(t, root, 1.0, lo, times[i], lo, hi)
                if level >= V_CAP:
                    break
                return level
            k += i      # the next scan starts at the last edge with F >= t
        raise FlowError("v_t lies beyond V_CAP", {"t": t, "v_cap": V_CAP})

    def _invert(self, t, root, sign, w, time, lo, hi):
        """The level root + sign e^w where the flow has run for time t, given
        ``time`` at the first w; time falls in w, >= t at lo and < t at hi.
        Newton steps on log time (from time 0, log1p of Newton's on time)
        bisect where they leave (lo, hi) and stop at the floor, below which
        levels round onto the root.  A span where psi vanishes lies past the
        answer, and at a zero root (psi underflowed there) that raises."""
        err, underflow, floor = 0.0, False, math.log(math.ulp(root))
        for _ in range(100):
            level = root + sign * math.exp(w)
            rate = math.exp(w) / abs(self.psi(level))       # -dT/dw
            step = -(math.log1p(t / rate) if time == 0.0
                     else math.log(t / time) * time / rate)
            # an error dw in w moves the level by e^w dw: near the root w needs
            # fewer digits, and none finer than its own spacing
            xtol = max(ROOT_TOL * abs(level) / math.exp(w), 2.0 * math.ulp(w))
            if hi - lo <= xtol and underflow:
                raise FlowError("psi underflows above v_t", {"t": t, "level": level})
            if abs(step) <= xtol or hi - lo <= xtol:
                v = root + sign * math.exp(w + step)
                if abs(self.psi(v)) * err > ERR_LIMIT * v:
                    raise FlowError("panel error estimate too large", {"t": t, "abserr": err})
                return v
            ahead = max(w + step if lo < w + step < hi else 0.5 * (lo + hi), floor)
            span, span_err = self._time(root, sign, ahead, w)
            if not math.isfinite(span):
                lo, underflow = ahead, root == 0.0
                continue
            w, time, err = ahead, time + span, err + span_err
            if w == floor and time < t:
                return root
            lo, hi, underflow = (w, hi, False) if time >= t else (lo, w, underflow)
        raise FlowError("flow inversion did not converge", {"t": t, "bracket": (lo, hi)})

    # -- probabilities -------------------------------------------------------

    def extinction_prob(self, x: float, t: float) -> float:
        """P[the branching population from mass x dies by time t] = exp(-x v_t)."""
        if x < 0:
            raise MechanismDomainError(f"mass must be >= 0, got {x}")
        if x == 0.0:
            if not t > 0:
                raise MechanismDomainError(f"time must be > 0, got {t}")
            return 1.0
        return math.exp(-x * self.v_from_infinity(t))

    def cbi_laplace(self, x: float, q: float, t: float,
                    phi: ImmigrationMechanism) -> float:
        """Marginal transform E_x[exp(-q Y_t)] of the process with immigration."""
        if x < 0 or q < 0:
            raise MechanismDomainError("x and q must be >= 0")
        if not t > 0:
            raise MechanismDomainError(f"time must be > 0, got {t}")
        if q == 0.0:
            return 1.0
        v_end = self.v_from_lambda(t, q)
        return math.exp(-x * v_end - self.phi_integral(phi, q, t, v_end))

    def phi_integral(self, phi: ImmigrationMechanism, lam: float, t: float,
                     v_end: float) -> float:
        """int_0^t Phi(v_s) ds along the flow from lam, given v_end = v_t(lam):
        Phi(root) t plus int_{v_end}^lam (Phi - Phi(root))/Psi, as dv = -Psi ds.
        That integrand has no pole at a positive root, near which v_end keeps
        few digits."""
        rate = phi(largest_root(self.psi))
        return rate * t + weight_between(self.psi, lambda u: phi.values(u) - rate,
                                         v_end, lam)


def _ratio(den, num):
    """R = num/den over arrays of Psi and Phi: inf where Psi is 0, 0 where both
    are, 0 where only Psi is inf."""
    ratio = num / den
    if not den.all():
        zero = den == 0.0
        ratio[zero] = np.where(num[zero] == 0.0, 0.0, math.inf)
    return ratio


def _ratio_func(psi, phi):
    """R = Phi/Psi over an array of levels; ``phi`` is a mechanism or an
    array function."""
    numerator = getattr(phi, "values", phi)
    return lambda u: _ratio(psi.values(u), numerator(u))


def weight_between(psi, phi, a: float, b: float) -> float:
    """int_a^b R(u) du for a and b on one side of the largest root, in x with
    u = root + s e^x: well conditioned over decades, and the panels' nodes
    next to the root carry weights of the size of their distance to it.  An
    end on the root (or at 0) counts as one float spacing away."""
    if not (a >= 0 and b >= 0):
        raise MechanismDomainError("weight integral needs nonnegative endpoints")
    root = largest_root(psi)
    sign = 1.0 if max(a, b) > root else -1.0
    R = _ratio_func(psi, phi)
    ends = (math.log(max(abs(u - root), math.ulp(root))) for u in (a, b))
    def integrand(x):
        e = np.exp(x)
        return R(root + sign * e) * e
    value, err = quad(integrand, *ends)
    if not err <= ERR_LIMIT * max(1.0, abs(value)):
        raise FlowError("weight integral unresolved", {"a": a, "b": b, "abserr": err})
    return sign * value


def solver(psi: BranchingMechanism) -> FlowSolver:
    """The flow solver of a mechanism."""
    return FlowSolver(psi=psi)
