"""Improper integrals with explicit convergence verdicts.

Whether an integral such as ``int_a^inf f`` or ``int_0^a f`` converges
cannot be settled by a single adaptive-quadrature call: the interesting
inputs in this package sit arbitrarily close to the finite/infinite
boundary, and blind truncation silently picks a side.  Instead the
domain is split into geometric panels, one octave wide, and the sequence
of panel contributions is inspected:

* a running sum past ``SUM_BLOWUP`` times the scan's first positive
  contribution, or contributions that fail to decrease over a full
  window, certify divergence; as every rule compares contributions with
  each other, f and c f get the same verdict;
* contributions decaying geometrically certify convergence once the
  tails that the window's largest and smallest ratios give differ by
  less than ``REL_TOL`` of the total; the tail is the last ratio's;
* a stable geometric ratio that is below 1 but above the strict 0.9
  cutoff still certifies convergence at the end of the scan (the value
  then carries a larger extrapolation error);
* anything else is reported as inconclusive rather than guessed.

The relaxed end-of-scan rule exists because integrands of the form
``z**(-1-m)`` with a small positive margin ``m`` decay too slowly for
the strict rule to fire within 61 octaves, yet they are exactly the
near-critical cases the classifier must still decide.

Each panel is integrated by one fixed-order rule: Clenshaw-Curtis on
the ``PANEL_ORDER + 1`` Chebyshev-Lobatto nodes, with the difference to
the nested rule of half the order as its error estimate.  A panel that
misses ``REL_TOL`` is bisected, at most ``MAX_BISECTIONS`` times; the
summed estimates and the count of pieces still unresolved at that depth
reach the verdict's ``evidence``.  In a scan an error below ``REL_TOL``
times ``EXHAUSTED_FRACTION`` of the total so far also passes: such a
panel is dead to the verdict, and the floor scales with the integrand.
An optional ``weight`` R turns the integrand into ``f(x) exp(W(x))``
with W the running integral of R from the scan's first edge
(``int_start^x R`` upward, ``-int_x^stop R`` downward).  W comes at
every node from the spectral cumulative-integration matrix on the same
nodes, so one pass over the panels integrates both, where nesting a
quadrature of R inside every call of the integrand would cost a whole
rule per node.  W sits in an exponent, so its error estimate is held to
``REL_TOL`` in absolute terms.

Panels are integrated in blocks of ``WINDOW + 1``, the fewest a rule
can fire on: one call of the integrand, and one of the weight, takes a
block's nodes; the verdict reads the panels one by one, and a bisected
panel is a block of its halves.  Integrands and weights take a 1-D array
of nodes of any length and return one of the same length, under
``np.errstate(all="ignore")``, so an overflow reads as inf.  An
integrand raises ``RangeEnd`` where it has no value (the flow's 1/psi
where psi overflows): a block that raises is cut down to that panel,
the panels before it count first, and there the scan's range ends and
the end-of-scan rule decides; any other exception propagates from it.
``quad`` takes a finite range as one panel.  ``brent`` is the package's
one root solve, a port of scipy's ``brentq`` with the same iterates.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

FINITE = "finite"
INFINITE = "infinite"
INCONCLUSIVE = "inconclusive"

SUM_BLOWUP = 1e12
WINDOW = 10
GEOMETRIC_RATIO = 0.9
MAX_PANELS = 61
RATIO_CEILING = 0.999
RATIO_DRIFT = 1e-3
EXHAUSTED_FRACTION = 1e-15

PANEL_ORDER = 32
MAX_BISECTIONS = 7
# relative tolerance of every integral in the package
REL_TOL = 1e-9


@dataclass(frozen=True)
class TailEstimate:
    """Outcome of a panelled improper integral.

    ``abserr`` sums the panel rules' error estimates (the truncated tail
    is not in it); ``unresolved_panels`` counts the pieces that missed
    the tolerance at the bisection cap; ``tail`` is the part past the last.
    """

    verdict: str
    total: float
    contributions: tuple
    rule: str
    abserr: float = 0.0
    unresolved_panels: int = 0
    tail: float = 0.0

    @property
    def panels_used(self) -> int:
        return len(self.contributions)

    def remainders(self) -> list:
        """The integral from each panel edge on, summed from the far end:
        the tail plus the later panels."""
        return list(accumulate(reversed(self.contributions), initial=self.tail))[::-1]

    def evidence(self) -> dict:
        return {"verdict": self.verdict, "total": self.total, "panels": self.panels_used,
                "rule": self.rule, "last_contributions": list(self.contributions[-5:]),
                "abserr": self.abserr, "unresolved_panels": self.unresolved_panels}


class RangeEnd(Exception):
    """Raised by an integrand that has no value at its argument."""


# --- the panel rule ----------------------------------------------------------

def _integral_of_chebyshev(k, angle):
    """int_{-1}^{cos(angle)} T_k, from T_k(cos a) = cos(k a)."""
    if k == 0:
        return math.cos(angle) + 1.0
    if k == 1:
        return (math.cos(2.0 * angle) - 1.0) / 4.0
    # T_k = (T_{k+1}'/(k+1) - T_{k-1}'/(k-1))/2, less its value at -1
    at_minus_one = ((-1.0) ** (k + 1) / (k + 1) - (-1.0) ** (k - 1) / (k - 1)) / 2.0
    return ((math.cos((k + 1) * angle) / (k + 1) - math.cos((k - 1) * angle) / (k - 1))
            / 2.0 - at_minus_one)


def _lobatto_rule(n):
    """Nodes, Clenshaw-Curtis weights and cumulative matrix of order n on [-1, 1].

    The nodes t_j = -cos(j pi / n) ascend.  Row i of the matrix maps the
    values at the nodes to int_{-1}^{t_i} of their interpolating
    polynomial, so its last row holds the weights.  Built with the math
    module: numpy routines that no classification otherwise runs would
    add their code pages to every process that imports the package.
    """
    angles = [math.pi * (n - j) / n for j in range(n + 1)]     # t_j = cos(angles[j])
    ends = [0.5 if j in (0, n) else 1.0 for j in range(n + 1)]
    # Chebyshev coefficients of the interpolant: a_k = sum_j columns[j][k] f_j
    columns = [[2.0 / n * ends[k] * ends[j] * math.cos(k * angles[j])
                for k in range(n + 1)] for j in range(n + 1)]
    cumulative = [[0.0] * (n + 1)]
    for angle in angles[1:]:
        row = [_integral_of_chebyshev(k, angle) for k in range(n + 1)]
        cumulative.append([sum(map(operator.mul, row, column)) for column in columns])
    nodes = [-math.cos(math.pi * j / n) for j in range(n + 1)]
    return np.array(nodes), np.array(cumulative[-1]), np.array(cumulative)


_NODES, _WEIGHTS, _CUMULATIVE = _lobatto_rule(PANEL_ORDER)
# the nested rule of half the order sits on every other node
_HALF_WEIGHTS = _lobatto_rule(PANEL_ORDER // 2)[1]


def _nodes(lo, hi):
    """The rule's nodes on [lo, hi], its ends exact."""
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES
    xs[0], xs[-1] = lo, hi
    return xs


def _block(f, weight, lo, hi):
    """f at the nodes of the panels [lo_i, hi_i], a row each, from one call,
    and with a weight int_lo^x R there and its error per panel, from one.
    A block that raises comes back cut to its first half, down to one panel."""
    xs = np.concatenate([_nodes(a, b) for a, b in zip(lo, hi)])
    try:
        values = np.asarray(f(xs), dtype=float).reshape(len(lo), -1)
        rates = None if weight is None else np.asarray(weight(xs), dtype=float)
    except Exception:
        if len(lo) == 1:
            raise
        return _block(f, weight, lo[:len(lo) // 2], hi[:len(lo) // 2])
    if rates is None:
        return values, None, [0.0] * len(lo)
    rates = rates.reshape(values.shape)
    half = np.array([0.5 * (b - a) for a, b in zip(lo, hi)])
    run = half[:, None] * (_CUMULATIVE * rates[:, None]).sum(axis=2)       # int_lo^x R
    w_err = np.abs(run[:, -1] - half * (_HALF_WEIGHTS * rates[:, ::2]).sum(axis=1))
    return values, run, w_err.tolist()


def _sums(values):
    """The rule's and the nested rule's sums over the last axis, as floats:
    of products, as a first BLAS dot maps buffers nothing else here needs."""
    return ((_WEIGHTS * values).sum(axis=-1).tolist(),
            (_HALF_WEIGHTS * values[..., ::2]).sum(axis=-1).tolist())


def _finish(values, run, w_edge, upward):
    """Each panel's two sums of its values times exp(W), and W at its far
    edge, from W = ``w_edge`` where the first is entered (lo upward)."""
    if run is None:
        w_far = [w_edge] * len(values)
    else:
        # one running sum in scan order: the bits of adding panel by panel
        span = run[:, -1]
        w_edges = np.cumsum(np.concatenate(([w_edge], span if upward else -span)))
        w_nodes = (w_edges[:-1, None] + run if upward
                   else w_edges[:-1, None] - (span[:, None] - run))
        # scale-free: exp(W) times an exact 0 is 0 at any scale of f
        values = np.where(values == 0.0, 0.0, values * np.exp(w_nodes))
        w_far = w_edges[1:].tolist()
    return (*_sums(values), w_far)


def _panel(f, weight, lo, hi, full, nested, w_err, w_edge, w_far, upward, depth, err_floor):
    """A panel's (value, error estimate, W at its far edge, unresolved pieces)
    from its two sums, its halves a block where it misses REL_TOL and the floor."""
    half = 0.5 * (hi - lo)
    value = half * full
    err = abs(value - half * nested)
    if not math.isfinite(value) or not math.isfinite(w_far):
        return value, 0.0, w_far, 0
    resolved = err <= max(REL_TOL * abs(value), err_floor) and w_err <= REL_TOL
    if resolved or depth == MAX_BISECTIONS:
        # an error w_err in W is a relative error w_err in the integrand
        return value, err + w_err * abs(value), w_far, 0 if resolved else 1
    mid = 0.5 * (lo + hi)
    halves = ([lo, mid], [mid, hi]) if upward else ([mid, lo], [hi, mid])
    (v1, e1, _, u1), (v2, e2, w_far, u2) = _rows(f, weight, *halves, w_edge, upward,
                                                 depth + 1, lambda: err_floor)
    return v1 + v2, e1 + e2, w_far, u1 + u2


def _rows(f, weight, lo, hi, w_edge, upward, depth, floor):
    """Each ``_panel`` of [lo_i, hi_i] (lists, in scan order), with the floor
    ``floor()``, in blocks of ``WINDOW + 1`` entered at W = ``w_edge``; a
    panel's exception comes after those before it.  Callers hold errstate."""
    start = 0
    while start < len(lo):
        los, his = lo[start:start + WINDOW + 1], hi[start:start + WINDOW + 1]
        values, run, w_errs = _block(f, weight, los, his)
        start += len(values)
        full, nested, w_fars = _finish(values, run, w_edge, upward)
        for j in range(len(values)):
            row = _panel(f, weight, los[j], his[j], full[j], nested[j], w_errs[j], w_edge,
                         w_fars[j], upward, depth, floor())
            yield row
            if run is not None and row[2] != w_fars[j]:
                # bisected: the later panels enter from the W its pieces left
                full[j + 1:], nested[j + 1:], w_fars[j + 1:] = _finish(
                    values[j + 1:], run[j + 1:], row[2], upward)
            w_edge = row[2]


def quad(f, a, b):
    """(int_a^b f, its error estimate) on one panel, orientation kept: the
    panel rule on a block of one, whose values need no block around them."""
    lo, hi = min(a, b), max(a, b)
    with np.errstate(all="ignore"):
        full, nested = _sums(np.asarray(f(_nodes(lo, hi)), dtype=float))
        # no weight, so W and its error are 0 throughout; depth 0, no floor
        value, err, _, _ = _panel(f, None, lo, hi, full, nested, 0.0, 0.0, 0.0, True, 0, 0.0)
    return (value if a < b else -value), err


# --- the root solve ------------------------------------------------------------

def brent(f, a, b, xtol, rtol=4.0 * math.ulp(1.0)):
    """A root of f between a and b, where f takes opposite signs.

    Brent's method (1973, ch. 4) as scipy's ``brentq`` runs it, step for
    step, so the iterates agree bitwise.  Raises ValueError for a bracket
    of one sign or a NaN value, and RuntimeError after 100 iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        # the first pass always enters here, which sets xblk, fblk, spre, scur
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # where C divides by 0 it gets inf or nan, which bisects as inf does
            with suppress(ZeroDivisionError):
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if not 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            stry = scur = sbis          # bisect
        spre, scur = scur, stry
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur}")


# --- the verdict protocol --------------------------------------------------------

def _ratios(contributions):
    if any(c <= 0.0 for c in contributions[:-1]):
        return None
    return [cur / prev for prev, cur in zip(contributions, contributions[1:])]


def _decide(contributions, total, at_end=False):
    """Apply the verdict rules to the contribution sequence seen so far;
    ``at_end``, once the panels are spent, adds the relaxed rule.

    Returns (verdict, rule, tail_estimate) or None when no rule fires yet.
    """
    # blow-up is judged against the scan's own scale, so f and c f agree
    first = next((c for c in contributions if c > 0.0), math.inf)
    if total > SUM_BLOWUP * first or math.isinf(total):
        return INFINITE, "sum-blowup", math.inf
    if len(contributions) < WINDOW + 1:
        return None
    window = contributions[-(WINDOW + 1):]
    # Dead tail: the integrand has effectively run out of mass.  Scale-free:
    # EXHAUSTED_FRACTION is a fraction of the scan's own total
    if total > 0 and all(c <= total * EXHAUSTED_FRACTION for c in window):
        return FINITE, "exhausted"
    # scale-free: c times an exact 0 is 0
    if total == 0.0 and all(c == 0.0 for c in window):
        return FINITE, "exhausted"
    ratios = _ratios(window)
    if ratios is None:
        return None
    # scale-free: a ratio of two contributions carries no unit
    if all(r >= 1.0 - 1e-9 for r in ratios) and window[-1] > 0:
        return INFINITE, "non-decreasing", math.inf
    if all(r <= GEOMETRIC_RATIO for r in ratios):
        high, low = (window[-1] * r / (1.0 - r) for r in (max(ratios), min(ratios)))
        if total > 0 and high - low < REL_TOL * total:
            return FINITE, "geometric", _tail(window[-1], ratios, high - low)
    # Stable sub-unit ratio: geometric decay too slow for the strict rule
    # but still conclusive.  An upward-drifting ratio (harmonic-type decay
    # creeping toward 1) stays inconclusive.
    if at_end and (all(r <= RATIO_CEILING for r in ratios)
                   and ratios[-1] <= ratios[0] + RATIO_DRIFT):
        r = max(ratios)
        return FINITE, "slow-geometric", window[-1] * r / (1.0 - r)
    return None


def _tail(last, ratios, spread):
    """The tail after ``last``: the last ratio's, corrected by at most
    ``spread`` where the last three ratios still converge geometrically
    (as ratios drifting like v^-p do; uncorrected, about 1e-11 of the total)."""
    r = ratios[-1]
    step, before = r - ratios[-2], ratios[-2] - ratios[-3]
    rho = step / before if before != 0.0 else 0.0
    drift = last * step * rho / ((1.0 - r) ** 2 * (1.0 - rho * r)) if 0.0 < rho < 1.0 else 0.0
    return last * r / (1.0 - r) + min(max(drift, -spread), spread)


def _run_panels(f, lo, hi, weight, upward):
    contributions = []
    total = abserr = 0.0
    unresolved = 0

    def estimate(verdict, rule, tail=0.0):
        return TailEstimate(verdict, total + tail, tuple(contributions), rule, abserr,
                            unresolved, tail)

    # a panel carrying under EXHAUSTED_FRACTION of the total is dead to the
    # verdict: its error need not fall below REL_TOL of that.  Scale-free:
    # the floor is a fraction of the scan's own total, as c f's is of c f's
    rows = _rows(f, weight, lo, hi, 0.0, upward, 0,
                 lambda: REL_TOL * EXHAUSTED_FRACTION * abs(total))
    rule = "no-rule"
    try:
        with np.errstate(all="ignore"):
            for c, err, _, missed in rows:
                abserr += err
                unresolved += missed
                if math.isnan(c):
                    return estimate(INCONCLUSIVE, "nan-contribution")
                contributions.append(c)
                total += c
                decided = _decide(contributions, total)
                if decided is not None:
                    return estimate(*decided)
    except RangeEnd:
        rule = "range-end"
    decided = _decide(contributions, total, at_end=True)
    if decided is not None:
        return estimate(*decided)
    return estimate(INCONCLUSIVE, rule)


def tail_verdict_upper(f, start, *, weight=None):
    """Convergence verdict for int_start^inf f over octave panels.

    With ``weight`` R the integrand is f(z) exp(int_start^z R).
    """
    if not start > 0:
        raise ValueError("panel start must be positive")
    edges = [start * 2.0 ** k for k in range(MAX_PANELS + 1)]
    return _run_panels(f, edges[:-1], edges[1:], weight, upward=True)


def tail_verdict_lower(f, stop, *, floor=0.0, weight=None):
    """Convergence verdict for int_floor^stop f, panelled toward floor.

    Panels shrink geometrically toward ``floor`` (default 0), so an
    endpoint singularity at the floor is probed octave by octave.  With
    ``weight`` R the integrand is f(x) exp(-int_x^stop R).
    """
    if not stop > floor:
        raise ValueError("panel stop must exceed the floor")
    span = stop - floor
    edges = [floor + span * 2.0 ** -k for k in range(MAX_PANELS + 1)]
    return _run_panels(f, edges[1:], edges[:-1], weight, upward=False)
