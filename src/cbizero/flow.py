"""Deterministic flow of the branching ODE and the marginal transform.

The central object is the solution ``v_t(lam)`` of dv/dt = -psi(v) with
v_0 = lam, together with its boundary version started from infinity.
Both are computed by inverting the time integral t = int_v^lam dq/psi(q)
rather than by stepping the ODE, which sidesteps the stiffness near
t -> 0 where the boundary solution blows up.

Each solve first asks the mechanism's closed-form flow hook
(``closed_tail_time``, ``closed_v_from_lambda``,
``closed_v_from_infinity``); when the family has none, the solver falls
back to numerics.  ``v_from_lambda`` accumulates the time integral
octave by octave and refines the root inside the crossing octave.
``v_from_infinity`` solves F(root + e^w) = t for w directly, with
F(a) = int_a^inf dq/psi: steps that double from w = log max(1, root)
bracket the solution, and ``brentq`` finishes it in w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from scipy import optimize

from .mechanisms import (
    BranchingMechanism,
    ImmigrationMechanism,
    MechanismDomainError,
    grey_check,
    largest_root,
)
from .quadrature import adaptive


class GreyConditionError(ValueError):
    """Raised when an operation needs finite extinction times but Grey fails."""


class FlowError(RuntimeError):
    """Flow inversion could not certify a bracket; carries numeric evidence."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence or {}


_MAX_OCTAVES = 2400


@dataclass(frozen=True)
class FlowSolver:
    """Inverts the branching flow for one mechanism.

    ``v_cap`` is the overflow guard: initial values above it are treated
    as the boundary condition at infinity.
    """

    psi: BranchingMechanism
    quad_tol: float = 1e-9
    root_tol: float = 1e-12
    v_cap: float = 1e300

    def __post_init__(self):
        if not (0.0 < self.quad_tol <= 1e-4):
            raise MechanismDomainError(f"quad_tol must be in (0, 1e-4], got {self.quad_tol}")
        if not (0.0 < self.root_tol <= 1e-4):
            raise MechanismDomainError(f"root_tol must be in (0, 1e-4], got {self.root_tol}")
        if not self.v_cap > 0:
            raise MechanismDomainError("v_cap must be positive")

    # -- F(a) = int_a^inf dq/psi ------------------------------------------

    def tail_time(self, a: float) -> float:
        """Time for the boundary flow to descend to level a."""
        if not a > 0:
            raise MechanismDomainError(f"tail_time needs a > 0, got {a}")
        closed = self.psi.closed_tail_time(a)
        if closed is not None:
            return closed
        psi = self.psi
        if not grey_check(psi).is_yes:
            raise GreyConditionError("v from infinity undefined: Grey's condition fails")
        if not psi(a) > 0:
            raise MechanismDomainError(
                f"tail_time needs psi positive at a, got psi({a}) = {psi(a)}")

        # u = 1/q turns the improper tail into a proper integral on (0, 1/a]
        def integrand(u):
            if u <= 0.0:
                return 0.0
            value = psi(1.0 / u)
            if not math.isfinite(value) or value <= 0.0:
                return 0.0
            return 1.0 / (u * u * value)

        return adaptive(integrand, 0.0, 1.0 / a, rel_tol=self.quad_tol)

    # -- flow from a finite level ------------------------------------------

    def v_from_lambda(self, t: float, lam: float) -> float:
        """Flow level after time t started from lam (lam above v_cap means infinity)."""
        if t < 0:
            raise MechanismDomainError(f"time must be >= 0, got {t}")
        if lam < 0:
            raise MechanismDomainError(f"initial level must be >= 0, got {lam}")
        if lam >= self.v_cap:
            return self.v_from_infinity(t) if t > 0 else math.inf
        if lam == 0.0 or t == 0.0:
            return lam
        closed = self.psi.closed_v_from_lambda(t, lam)
        return self._v_numeric(t, lam) if closed is None else closed

    def _v_numeric(self, t: float, lam: float) -> float:
        psi = self.psi
        root = largest_root(psi)
        at_lam = psi(lam)
        if at_lam == 0.0:
            return lam
        if lam > root:
            if at_lam < 0:
                raise FlowError(
                    "branching exponent negative above its largest root",
                    {"lam": lam, "root": root, "psi(lam)": at_lam})
            return self._walk(t, base=root, span=lam - root, sign=+1.0)
        if at_lam > 0:
            raise FlowError(
                "branching exponent positive below its largest root",
                {"lam": lam, "root": root, "psi(lam)": at_lam})
        return self._walk(t, base=root, span=root - lam, sign=-1.0)

    def _walk(self, t, base, span, sign):
        """Accumulate int dq/|psi| octave by octave until the clock t is spent.

        sign +1: decreasing flow, levels base + span*2^-k walking down
        toward base.  sign -1: increasing flow (supercritical start below
        the root), levels base - span*2^-k walking up toward base.
        """
        psi = self.psi

        def pace(q):
            value = psi(q)
            if value == 0.0 or not math.isfinite(value):
                return 0.0 if not math.isfinite(value) else math.inf
            return sign / value

        acc = 0.0
        prev = base + sign * span
        for k in range(1, _MAX_OCTAVES):
            level = base + sign * span * 2.0 ** (-k)
            if level == base or level == prev:
                break
            lo, hi = (level, prev) if sign > 0 else (prev, level)
            piece = adaptive(pace, lo, hi, rel_tol=self.quad_tol)
            if math.isnan(piece) or piece < 0:
                raise FlowError(
                    "time integral lost its sign inside an octave",
                    {"octave": k, "piece": piece, "lo": lo, "hi": hi})
            if acc + piece >= t:
                return self._refine(t - acc, level, prev, sign, pace)
            acc += piece
            prev = level
        return base

    def _refine(self, remaining, level, prev, sign, pace):
        """Solve for the level spending exactly `remaining` within one octave."""
        def clock(v):
            if sign > 0:
                return adaptive(pace, v, prev, rel_tol=self.quad_tol) - remaining
            return adaptive(pace, prev, v, rel_tol=self.quad_tol) - remaining

        if remaining == 0.0:
            return prev
        lo, hi = (level, prev) if sign > 0 else (prev, level)
        return optimize.brentq(clock, lo, hi, rtol=max(self.root_tol, 1e-15),
                               xtol=1e-300)

    # -- flow from infinity ------------------------------------------------

    def v_from_infinity(self, t: float) -> float:
        """Boundary flow level v_t with v_{0+} = infinity; needs Grey."""
        if not t > 0:
            raise MechanismDomainError(f"time must be > 0, got {t}")
        closed = self.psi.closed_v_from_infinity(t)
        if closed is not None:
            return closed
        if not grey_check(self.psi).is_yes:
            raise GreyConditionError("v from infinity undefined: Grey's condition fails")
        # v_t = root + e^w solves F(root + e^w) = t; F is strictly decreasing,
        # so the gap falls with w.  Bracket by steps that double from
        # w0 = log max(1, root), then solve in w.
        root = largest_root(self.psi)

        def level(w):
            return root + math.exp(w)

        def gap(w):
            return self.tail_time(level(w)) - t

        top = math.log(self.v_cap)
        edge = math.log(max(1.0, root))
        upward = gap(edge) > 0          # v_t lies above root + e^edge
        step = 1.0
        while True:
            if upward:
                if edge >= top:
                    raise FlowError("v_t lies beyond v_cap",
                                    {"t": t, "v_cap": self.v_cap, "root": root})
                w = min(edge + step, top)
                if not math.isfinite(self.psi(level(w))):
                    # F misses the range where psi overflows
                    raise FlowError("psi overflows below v_t",
                                    {"t": t, "level": level(w), "root": root})
            else:
                w = edge - step
                if level(w) == root:
                    return root  # the flow sits on the root to float precision
            if (gap(w) > 0) != upward:
                break
            edge, step = w, 2.0 * step
        lo, hi = sorted((edge, w))
        return level(optimize.brentq(gap, lo, hi, rtol=max(self.root_tol, 1e-15)))

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
        accumulated = adaptive(lambda s: phi(self.v_from_lambda(s, q)), 0.0, t,
                               rel_tol=self.quad_tol)
        return math.exp(-x * v_end - accumulated)


@lru_cache(maxsize=256)
def solver(psi: BranchingMechanism) -> FlowSolver:
    """Shared default-tolerance solver for a mechanism."""
    return FlowSolver(psi=psi)
