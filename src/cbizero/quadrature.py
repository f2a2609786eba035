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
A weight R is another array of the stream's read: the integrand becomes
``f(x) exp(W(x))``, W the running integral of R from the scan's first
edge (``int_start^x R`` upward, ``-int_x^stop R`` downward).  W comes at
every node from the spectral cumulative-integration matrix on the same
nodes, so one pass over the panels integrates both, where nesting a
quadrature of R inside every call of the integrand would cost a whole
rule per node.  W sits in an exponent, so its error estimate is held to
``REL_TOL`` in absolute terms.

Panels are read in blocks of ``WINDOW + 1``, the fewest a rule can fire
on: one call of a read takes a block's nodes and returns the arrays of
integrands and weights, so that they share one evaluation of what they
are made of.  A scan serves one or more streams, each an integrand with
an optional weight among those arrays; it reads blocks while a stream is
open, and each stream bisects by its own rule and decides by its own
verdict, whose state grows panel by panel, so it gets the bits of its
scan alone.  A bisected panel is a block of its halves.  Reads take a
1-D array of nodes of any length, under ``np.errstate(all="ignore")``,
so an overflow reads as inf.  A read raises ``RangeEnd`` where it has no
value (the flow's 1/psi where psi overflows): a block that raises is cut
down to that panel, the panels before it count first, and there each
open stream's range ends and the end-of-scan rule decides; any other
exception is the outcome of the streams that meet it, and a verdict
raises it.  ``_rows`` alone integrates and resolves panels: ``quad`` is
one row of it, a finite range unweighted and with no floor.  ``brent``
is the package's one root solve, a port of ``brentq`` with its iterates.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate, repeat

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


_NODES, _, _CUMULATIVE = _lobatto_rule(PANEL_ORDER)
# The nested rule of half the order sits on every other node: its weights
# there, 0 at the others, are one more row under the cumulative matrix, whose
# last two rows are then the two rules' weights.  A 0 times an inf or a NaN
# is NaN, but then the rule's own sum is not finite either, and a panel
# without a finite value or span carries no error estimate.
_CUMULATIVE = np.vstack((_CUMULATIVE, np.zeros(PANEL_ORDER + 1)))
_CUMULATIVE[-1, ::2] = _lobatto_rule(PANEL_ORDER // 2)[1]
_WEIGHTS = _CUMULATIVE[-2:]


def _nodes(lo, hi):
    """The rule's nodes on each panel [lo_i, hi_i], a row each, ends exact, and
    the half widths; on a block's few panels float arithmetic (numpy's bits)
    costs less than ufunc calls."""
    half = np.array([0.5 * (b - a) for a, b in zip(lo, hi)])
    xs = np.array([0.5 * (a + b) for a, b in zip(lo, hi)])[:, None] + half[:, None] * _NODES
    xs[:, 0], xs[:, -1] = lo, hi
    return xs, half


# The sums here are np.einsum contractions over a panel's nodes, with no
# broadcast product and no BLAS (einsum's default path calls none).  A row's
# bits do not depend on how many rows the call holds.  Those of a BLAS
# product (``@``, ``np.dot``) do, and with them would the bits of a panel
# read alone, in a block or as a bisected half.

def _block(read, lo, hi, weights):
    """The panels [lo_i, hi_i] read at their nodes by one call of ``read``: half
    widths, the read's arrays, a row per panel, and by array k in ``weights``
    int_lo^x at the nodes, its span and the span's error (a plain tuple, as a
    namedtuple's constructor is a frame), halved while it raises, to one panel."""
    xs, half = _nodes(lo, hi)
    try:
        arrays = []
        for a in read(xs.ravel()):      # a loop, as a comprehension is a frame
            arrays.append(np.asarray(a, dtype=float).reshape(len(lo), -1))
    except Exception:
        if len(lo) == 1:
            raise
        return _block(read, lo[:len(lo) // 2], hi[:len(lo) // 2], weights)
    spans = {}
    for k in weights:
        run = half[:, None] * np.einsum("jk,ik->ij", _CUMULATIVE, arrays[k])
        spans[k] = run[:, :-1], run[:, -2], np.abs(run[:, -2] - run[:, -1])
    return half, arrays, spans


def _integrals(block, stream, j, w_edge, upward):
    """A stream's panels j on of a block entered at W = ``w_edge``, a tuple each:
    value, error estimate, W at the far edge and W's error estimate, from the
    rule's and the nested half rule's sums over each panel's nodes."""
    (f, w), (half, arrays, spans) = stream, block
    values = arrays[f]
    if j:
        half, values = half[j:], values[j:]
    if w is None:
        # W keeps its entry value and has no error
        w_edges, w_errs = repeat(w_edge), repeat(0.0)
    else:
        run, span, w_err = (a[j:] for a in spans[w])
        # one running sum in scan order: the bits of adding panel by panel
        w_edges = np.cumsum(np.concatenate(([w_edge], span if upward else -span)))
        w_nodes = (w_edges[:-1, None] + run if upward
                   else w_edges[:-1, None] - (span[:, None] - run))
        # scale-free: exp(W) times an exact 0 is 0 at any scale of f
        values = np.where(values == 0.0, 0.0, values * np.exp(w_nodes))
        w_edges, w_errs = w_edges[1:].tolist(), w_err.tolist()
    value, nested = half * np.einsum("jk,ik->ji", _WEIGHTS, values)
    err = np.abs(value - nested)
    return list(zip(value.tolist(), err.tolist(), w_edges, w_errs))


def _rows(read, stream, lo, hi, w_edge, upward, depth, floor, block=None):
    """A stream's (value, error estimate, W at the far edge, unresolved pieces)
    of each panel [lo_i, hi_i], in blocks of ``WINDOW + 1`` (the first may be
    given) entered at W = ``w_edge``; a panel that misses REL_TOL and
    ``floor()`` is a block of its halves, down to MAX_BISECTIONS."""
    start = 0
    while start < len(lo):
        block = block or _block(read, lo[start:start + WINDOW + 1],
                                hi[start:start + WINDOW + 1], {stream[1]} - {None})
        first, rows = 0, _integrals(block, stream, 0, w_edge, upward)
        for j in range(len(block[0])):
            value, err, w_far, w_err = rows[j - first]
            if not (math.isfinite(value) and math.isfinite(w_far)):
                row = value, 0.0, w_far, 0
            else:
                resolved = (err <= REL_TOL * abs(value) or err <= floor()) and w_err <= REL_TOL
                if resolved or depth == MAX_BISECTIONS:
                    # an error w_err in W is a relative error w_err in the integrand
                    row = value, err + w_err * abs(value), w_far, 0 if resolved else 1
                else:
                    row = _bisect(read, stream, lo[start + j], hi[start + j], w_edge, upward,
                                  depth, floor)
                    if row[2] != w_far:
                        # the later panels enter from the W its pieces left
                        first, rows = j + 1, _integrals(block, stream, j + 1, row[2], upward)
            yield row
            w_edge = row[2]
        start += len(block[0])
        block = None


def _bisect(read, stream, lo, hi, w_edge, upward, depth, floor):
    """A panel's row from its two halves, integrated as a block one level deeper."""
    mid = 0.5 * (lo + hi)
    halves = ([lo, mid], [mid, hi]) if upward else ([mid, lo], [hi, mid])
    (v1, e1, _, u1), (v2, e2, w_far, u2) = _rows(read, stream, *halves, w_edge, upward,
                                                 depth + 1, floor)
    return v1 + v2, e1 + e2, w_far, u1 + u2


@np.errstate(all="ignore")       # as a decorator: one Python frame, not three
def quad(f, a, b):
    """(int_a^b f, its error estimate), orientation kept: one row of ``_rows``
    on [min(a, b), max(a, b)], with no weight and no floor."""
    [(value, err, _, _)] = _rows(lambda xs: (f(xs),), (0, None), [min(a, b)], [max(a, b)],
                                 0.0, True, 0, lambda: 0.0)
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

def _tail(last, ratios, spread):
    """The tail after ``last``: the last ratio's, corrected by at most
    ``spread`` where the last three ratios still converge geometrically
    (as ratios drifting like v^-p do; uncorrected, about 1e-11 of the total)."""
    r = ratios[-1]
    step, before = r - ratios[-2], ratios[-2] - ratios[-3]
    rho = step / before if before != 0.0 else 0.0
    drift = last * step * rho / ((1.0 - r) ** 2 * (1.0 - rho * r)) if 0.0 < rho < 1.0 else 0.0
    return last * r / (1.0 - r) + min(max(drift, -spread), spread)


class _Scan:
    """A stream's verdict state, kept as its contributions come; ``outcome``
    is its estimate once a rule fires, or the exception it met."""

    def __init__(self):
        self.contributions, self.ratios, self.outcome = [], [], None
        self.total = self.abserr = self.w_edge = 0.0
        self.unresolved, self.first = 0, math.inf        # the first positive one

    def err_floor(self):
        # a panel carrying under EXHAUSTED_FRACTION of the total is dead to
        # the verdict: its error need not fall below REL_TOL of that.  Scale-
        # free: the floor is a fraction of the scan's own total
        return REL_TOL * EXHAUSTED_FRACTION * abs(self.total)

    def read(self, c, err, w_far, missed):
        """Takes a panel's row; True once the stream has its outcome."""
        self.abserr += err
        self.unresolved += missed
        self.w_edge = w_far
        if math.isnan(c):
            return self.close(INCONCLUSIVE, "nan-contribution")
        if self.contributions:      # a ratio after a contribution <= 0 is NaN
            prev = self.contributions[-1]
            self.ratios.append(c / prev if prev > 0.0 else math.nan)
        if c > 0.0 and self.first == math.inf:
            self.first = c
        self.contributions.append(c)
        self.total += c
        decided = self.decide()
        return decided is not None and self.close(*decided)

    def end(self, rule, exc=None):
        """The outcome where the panels stop: an exception ``exc`` but RangeEnd,
        else the end-of-scan rule, or inconclusive by ``rule``."""
        if exc is None or isinstance(exc, RangeEnd):
            self.close(*(self.decide(at_end=True) or (INCONCLUSIVE, rule)))
        else:
            self.outcome = exc

    def close(self, verdict, rule, tail=0.0):
        self.outcome = TailEstimate(verdict, self.total + tail, tuple(self.contributions),
                                    rule, self.abserr, self.unresolved, tail)
        return True

    def decide(self, at_end=False):
        """The verdict rules on the contributions so far, with the relaxed one
        ``at_end``: (verdict, rule, tail), or None while no rule fires."""
        total, window = self.total, self.contributions[-(WINDOW + 1):]
        # blow-up is judged against the scan's own scale, so f and c f agree
        if total > SUM_BLOWUP * self.first or math.isinf(total):
            return INFINITE, "sum-blowup", math.inf
        if len(window) < WINDOW + 1:
            return None
        # Dead tail: the integrand has effectively run out of mass.  Scale-free:
        # EXHAUSTED_FRACTION is a fraction of the scan's own total, and c
        # times an exact 0 is 0
        if (total > 0 and max(window) <= total * EXHAUSTED_FRACTION
                or total == 0.0 and min(window) == max(window) == 0.0):
            return FINITE, "exhausted"
        ratios = self.ratios[-WINDOW:]
        if any(map(math.isnan, ratios)):
            return None         # a contribution <= 0 leaves a ratio undefined
        high, low = max(ratios), min(ratios)
        # scale-free: a ratio of two contributions carries no unit
        if low >= 1.0 - 1e-9 and window[-1] > 0:
            return INFINITE, "non-decreasing", math.inf
        if high <= GEOMETRIC_RATIO:
            upper, lower = (window[-1] * r / (1.0 - r) for r in (high, low))
            if total > 0 and upper - lower < REL_TOL * total:
                return FINITE, "geometric", _tail(window[-1], ratios, upper - lower)
        # Stable sub-unit ratio: geometric decay too slow for the strict rule
        # but still conclusive.  An upward-drifting ratio (harmonic-type decay
        # creeping toward 1) stays inconclusive.
        if at_end and high <= RATIO_CEILING and ratios[-1] <= ratios[0] + RATIO_DRIFT:
            return FINITE, "slow-geometric", window[-1] * high / (1.0 - high)
        return None


@np.errstate(all="ignore")
def _run_panels(read, lo, hi, upward, streams):
    """Each stream's ``TailEstimate``, or the exception it met, from one scan
    of the panels [lo_i, hi_i] (lists, in scan order); a stream is (index of
    its integrand in what ``read`` returns, of its weight or None)."""
    scans = [_Scan() for _ in streams]
    start = 0
    while start < len(lo) and any(scan.outcome is None for scan in scans):
        serve = [(stream, scan) for stream, scan in zip(streams, scans)
                 if scan.outcome is None]
        try:
            block = _block(read, lo[start:start + WINDOW + 1], hi[start:start + WINDOW + 1],
                           {w for (_, w), _ in serve} - {None})
        except Exception as exc:
            for _, scan in serve:
                scan.end("range-end", exc)
            break
        stop = start + len(block[0])
        for stream, scan in serve:
            try:
                for row in _rows(read, stream, lo[start:stop], hi[start:stop], scan.w_edge,
                                 upward, 0, scan.err_floor, block):
                    if scan.read(*row):
                        break
            except Exception as exc:        # from the stream's own bisections
                scan.end("range-end", exc)
        start = stop
    for scan in scans:
        if scan.outcome is None:
            scan.end("no-rule")
    return [scan.outcome for scan in scans]


def _settled(outcome):
    """A scan's estimate, or the exception it met raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _upper_scans(start, read, streams):
    """``_run_panels`` over the octaves from ``start`` up."""
    if not start > 0:
        raise ValueError("panel start must be positive")
    edges = [start * 2.0 ** k for k in range(MAX_PANELS + 1)]
    return _run_panels(read, edges[:-1], edges[1:], True, streams)


def _lower_scans(stop, floor, read, streams):
    """``_run_panels`` over the octaves from ``stop`` down toward ``floor``."""
    if not stop > floor:
        raise ValueError("panel stop must exceed the floor")
    edges = [floor + (stop - floor) * 2.0 ** -k for k in range(MAX_PANELS + 1)]
    return _run_panels(read, edges[1:], edges[:-1], False, streams)


def tail_verdict_upper(f, start):
    """Convergence verdict for int_start^inf f over octave panels."""
    return _settled(_upper_scans(start, lambda xs: (f(xs),), [(0, None)])[0])


def tail_verdict_lower(f, stop):
    """Convergence verdict for int_0^stop f, panelled toward 0: an endpoint
    singularity at 0 is probed octave by octave."""
    return _settled(_lower_scans(stop, 0.0, lambda xs: (f(xs),), [(0, None)])[0])
