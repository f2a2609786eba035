"""Deterministic flow of the branching ODE and the marginal transform.

The central object is the solution ``v_t(lam)`` of dv/dt = -psi(v) with
v_0 = lam, together with its boundary version started from infinity.
Both are computed by inverting the time integral t = int_v^lam dq/psi(q)
rather than by stepping the ODE, which sidesteps the stiffness near
t -> 0 where the boundary solution blows up.

Each solve first asks the mechanism's closed-form flow hook
(``closed_tail_time``, ``closed_v_from_lambda``,
``closed_v_from_infinity``); when the family has none, the solver falls
back to one numeric inversion.  It writes the level as root + s e^w,
with s = +1 above the largest root and -1 below it, and solves
gap(w) = 0, where gap is the time the flow spends past the level less
t.  Steps that double from a start edge bracket the sign change of the
gap, and ``brentq`` finishes it in w.  ``v_from_infinity`` starts at
w = log max(1, root) with gap = F(level) - t, F(a) = int_a^inf dq/psi;
``v_from_lambda`` starts at w = log|lam - root| with the time between
the level and lam as one quadrature in w.  A closed form that overflows
raises ``FlowError`` too.  As ds = -dv/Psi along the flow, ``phi_integral``
takes int_0^t Phi(v_s) ds as Phi(root) t plus ``weight_between`` of
Phi - Phi(root), int_{v_t}^lam (Phi - Phi(root))/Psi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy import optimize

from .mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    MechanismDomainError,
    grey_check,
    largest_root,
)
from .quadrature import adaptive

ROOT_TOL = 1e-12
# initial levels at or above V_CAP count as the boundary condition at infinity
V_CAP = 1e300


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

    # -- F(a) = int_a^inf dq/psi ------------------------------------------

    def tail_time(self, a: float) -> float:
        """Time for the boundary flow to descend to level a."""
        if not a > 0:
            raise MechanismDomainError(f"tail_time needs a > 0, got {a}")
        closed = self._closed(self.psi.closed_tail_time, a)
        if closed is not None:
            return closed
        psi = self.psi
        if not grey_check(psi).is_yes:
            raise GreyConditionError("v from infinity undefined: Grey's condition fails")
        at_a = psi(a)
        if not at_a > 0:
            raise MechanismDomainError(
                f"tail_time needs psi positive at a, got psi({a}) = {at_a}")
        if math.isinf(at_a):
            raise FlowError("psi overflows at a", {"a": a})

        # u = 1/q turns the improper tail into a proper integral on (0, 1/a];
        # its integrand 1/(u^2 psi(1/u)) is formed as q/psi(q)*q, since u^2
        # underflows long before q/psi(q) does
        def integrand(u):
            if u <= 0.0:
                return 0.0
            q = 1.0 / u
            value = psi(q)
            if not math.isfinite(value) or value <= 0.0:
                return 0.0
            return q / value * q

        return adaptive(integrand, 0.0, 1.0 / a)

    # -- flow from a finite level ------------------------------------------

    def v_from_lambda(self, t: float, lam: float) -> float:
        """Flow level after time t started from lam (lam at or above V_CAP means infinity)."""
        if t < 0:
            raise MechanismDomainError(f"time must be >= 0, got {t}")
        if lam < 0:
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

        def pace(u):            # dq/|psi(q)| at q = root + sign*e^u
            dq = math.exp(u)
            return dq / abs(psi(root + sign * dq))

        return self._invert(lambda w: adaptive(pace, w, start) - t, root, sign, start, t)

    # -- flow from infinity ------------------------------------------------

    def v_from_infinity(self, t: float) -> float:
        """Boundary flow level v_t with v_{0+} = infinity; needs Grey."""
        if not t > 0:
            raise MechanismDomainError(f"time must be > 0, got {t}")
        closed = self._closed(self.psi.closed_v_from_infinity, t)
        if closed is not None:
            return closed
        if not grey_check(self.psi).is_yes:
            raise GreyConditionError("v from infinity undefined: Grey's condition fails")
        root = largest_root(self.psi)
        return self._invert(lambda w: self.tail_time(root + math.exp(w)) - t,
                            root, 1.0, math.log(max(1.0, root)), t)

    def _invert(self, gap, root, sign, edge, t):
        """The level root + sign*e^w at which the time gap(w), falling in w, is 0.

        Steps that double from w = edge bracket the sign change, and
        ``brentq`` solves in w.  A step that lands where psi overflows
        (upward) or underflows to 0.0 (downward) is halved.
        """
        psi = self.psi

        def level(w):
            return root + sign * math.exp(w)

        top = math.log(V_CAP)
        upward = gap(edge) > 0          # v_t lies farther from the root than the edge
        step = 1.0
        ceiling = None                  # a w where psi overflows
        while True:
            if upward and edge >= top:
                raise FlowError("v_t lies beyond V_CAP",
                                {"t": t, "v_cap": V_CAP, "root": root})
            w = min(edge + step, top) if upward else edge - step
            if not upward and level(w) == root:
                return root  # the flow sits on the root to float precision
            at_w = psi(level(w))
            # 1/psi has no value where psi overflows or underflows to 0.0:
            # step less far
            if (not math.isfinite(at_w)) if upward else at_w == 0.0:
                ceiling = w if upward else None
                step /= 2.0
                if edge + step == edge:
                    raise FlowError("psi overflows below v_t" if upward
                                    else "psi underflows above v_t",
                                    {"t": t, "level": level(edge), "root": root})
                continue
            if (gap(w) > 0) != upward:
                break
            edge, step = w, 2.0 * step
        if ceiling is not None:
            # F misses the time above the level where psi overflows; an
            # e-fold below that level x the flow spends about x/psi(x)
            below = w
            while ceiling - below > 1.0:
                mid = 0.5 * (below + ceiling)
                below, ceiling = (mid, ceiling) if math.isfinite(psi(level(mid))) else (below, mid)
            if level(below) / psi(level(below)) > ROOT_TOL * t:
                raise FlowError("psi overflows below v_t",
                                {"t": t, "level": level(ceiling), "root": root})
        lo, hi = sorted((edge, w))
        # an error dw in w moves the level by e^w dw: near the root w needs fewer digits
        xtol = ROOT_TOL * abs(level(hi)) / math.exp(hi)
        return level(optimize.brentq(gap, lo, hi, xtol=xtol, rtol=ROOT_TOL))

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
        few digits; a level that underflowed to 0 counts as the least normal float."""
        rate = phi(largest_root(self.psi))
        return rate * t + weight_between(self.psi, lambda u: phi(u) - rate,
                                         max(v_end, sys.float_info.min), lam)


def _ratio_func(psi, phi):
    """R = Phi/Psi as a function of the level: inf where Psi is 0, 0 where both are."""
    def R(u):
        den, num = psi(u), phi(u)
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        if math.isinf(den):
            return math.nan if math.isinf(num) else 0.0
        return num / den
    return R


def weight_between(psi, phi, a: float, b: float) -> float:
    """int_a^b R(u) du computed on a log grid (well conditioned over decades)."""
    if not (a > 0 and b > 0):
        raise MechanismDomainError("weight integral needs positive endpoints")
    R = _ratio_func(psi, phi)
    return adaptive(lambda z: R(math.exp(z)) * math.exp(z),
                    math.log(a), math.log(b))


def solver(psi: BranchingMechanism) -> FlowSolver:
    """The flow solver of a mechanism."""
    return FlowSolver(psi=psi)
