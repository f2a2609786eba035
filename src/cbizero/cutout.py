"""Random-cutout simulation of the zero set.

The zero set is recovered as the complement of a Poisson collection of
open cut intervals ]t_i, t_i + z_i[ with birth intensity dt and duration
tail mu_bar(t) = Phi(v_t).  Durations below a truncation length eps are
discarded (the full intensity has infinite mass near 0), which biases
the uncovered set upward; every estimator therefore reports eps, and
the tests include eps-sensitivity checks.

Two kernels draw the same law of the uncovered intervals exactly, and a
frontier past T exactly when T is covered (see `_sweep`):

* The mark sweep streams every birth as exponential spacings and sweeps
  a coverage frontier chunk by chunk.  It draws one duration per mark,
  T * rate of them, in bounded memory.
* The frontier ladder draws only the cuts that push the frontier
  forward (Mandelbrot 1972; Fitzsimmons, Fristedt & Shepp 1985).
  Uncovered stretches last Exp(rate) and each covered stretch is a busy
  period opened by one cut.  Given frontiers f' < f, the births in
  ]f', f[ that end beyond f are Poisson with mean rate * G(f - f'),
  where G(x) is the integral of the conditional duration tail S over
  [0, x].  G is closed form on the sampler's piecewise power-law table,
  so each step draws every such birth by one table inversion, vectorised
  over the busy periods of a batch of replicates.  Its cost follows the
  frontier records (a few thousand where the sweep draws millions of
  marks) plus a fixed cost per step, 0.5-1.5 ms for a lone replicate.

`_sweep` runs the ladder on one replicate when the expected mark count
T * rate exceeds LADDER_MIN_MARKS and the mark sweep otherwise.
`empirical_gzero` runs its replicates through the ladder in batches at
any mark count, which spreads the fixed cost of a step over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .flow import FlowError, solver
from .mechanisms import largest_root
from .quadrature import brent
from .zeroset import _gzero_tail, least_squares_line

MAX_EXPECTED_MARKS = 1e8
TABLE_POINTS_PER_DECADE = 24
TABLE_TAIL_FLOOR = 1e-12
TABLE_MAX_DECADES = 48
GZERO_TAIL_BOUND = 1e-3

# Expected marks T * rate above which _sweep runs the ladder.  Median ms
# per realization, eps = 1e-4, ladder / mark sweep, 200 realizations
# each, one process on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4), median
# of 8 such runs:
#
#   T * rate            750        3e3        1e4        2e4        5e4
#   feller sqrt(q)   0.35/0.05  0.37/0.13  0.43/0.50  0.42/0.99  0.47/2.52
#   feller drift     0.70/0.05  1.06/0.15  1.49/0.43  1.28/0.67  1.54/2.60
#   stable ou 1.8    0.72/0.05  0.98/0.12  1.14/0.34  1.50/0.67  1.95/2.50
#
# Transient pairs cross near 1e4, recurrent ones (longer ladders) near
# 3e4-4e4.  Around 2e4 the slower choice costs at most 2.2x for
# recurrent pairs (just above it) and 2.4x for transient ones (just
# below it).
LADDER_MIN_MARKS = 2e4

_CHUNK = 1 << 18
# Busy periods per ladder batch in empirical_gzero, which fixes the
# replicates per batch.  At T_max = 30, eps = 1e-4 (a round of 100
# periods per replicate, so 81 replicates per batch) 500 replicates reach
# a tracemalloc peak of 1.0 MB; 1 << 14 reaches 2.0 MB for no gain in
# time, one batch of all 500 6.1 MB.
_BATCH_PERIODS = 1 << 13
_MAX_HORIZON_DOUBLINGS = 16


class CutoutError(ValueError):
    """Simulation request outside the supported regime."""


@dataclass(frozen=True, eq=False)
class UncoveredSet:
    """Exact interval representation of Z intersected with [0, horizon].

    ``intervals`` is a float array of shape (k, 2): sorted, pairwise
    disjoint closed intervals (singletons allowed).  0 is always
    uncovered because cuts are open and births are strictly positive.
    """

    horizon: float
    eps: float
    intervals: np.ndarray
    seed: Optional[int]

    @property
    def starts(self) -> np.ndarray:
        return self.intervals[:, 0]

    @property
    def ends(self) -> np.ndarray:
        return self.intervals[:, 1]

    def validate(self) -> "UncoveredSet":
        iv = self.intervals
        if iv.ndim != 2 or iv.shape[1] != 2 or iv.shape[0] == 0:
            raise CutoutError("interval array must have shape (k, 2), k >= 1")
        if not (iv[0, 0] == 0.0):
            raise CutoutError("0 must be uncovered")
        # count_nonzero: on a few hundred intervals it costs a third of .any()
        if np.count_nonzero(iv[:, 1] < iv[:, 0]):
            raise CutoutError("intervals must have nonnegative length")
        if np.count_nonzero(iv[1:, 0] <= iv[:-1, 1]):
            raise CutoutError("intervals must be sorted and disjoint")
        if iv[-1, 1] > self.horizon or np.count_nonzero(iv < 0.0):
            raise CutoutError("intervals must lie within [0, horizon]")
        # a NaN fails every comparison above
        if np.count_nonzero(np.isfinite(iv)) < iv.size:
            raise CutoutError("interval endpoints must be finite")
        if not 0.0 < self.horizon < math.inf:
            raise CutoutError(f"horizon {self.horizon} must be finite and positive")
        if not 0.0 < self.eps < math.inf:
            raise CutoutError(f"eps {self.eps} must be finite and positive")
        return self


@dataclass(frozen=True, eq=False)
class DurationSampler:
    """Inverse-transform sampler for cut durations on [eps, inf).

    ``rate`` is mu_bar(eps); the conditional tail S(t) = mu_bar(t)/rate
    is tabulated log-log on [eps, t_max] (exact for power-law tails) and
    inverted by its linear interpolant, found by an indexed search with
    np.interp's bits, with a Brent solve beyond the table.
    ``atom`` is the conditional mass of infinite durations, positive
    exactly when the branching has a positive largest root.
    """

    eps: float
    rate: float
    atom: float
    log_tail_rev: np.ndarray
    log_time_rev: np.ndarray
    tail: Callable[[float], float]

    @classmethod
    def from_mechanisms(cls, psi, phi, eps: float) -> "DurationSampler":
        flow = solver(psi)

        def tail(t: float) -> float:
            return phi(flow.v_from_infinity(t))

        return cls.from_tail(tail, eps,
                             atom_mass=phi(largest_root(psi)))

    @classmethod
    def from_tail(cls, tail: Callable[[float], float], eps: float,
                  atom_mass: float = 0.0) -> "DurationSampler":
        if not 0.0 < eps < math.inf:
            raise CutoutError(f"eps {eps} must be finite and positive")
        rate = tail(eps)
        if math.isnan(rate):
            raise CutoutError(f"tail is NaN at eps = {eps!r}")
        if rate < 0.0:
            raise CutoutError(f"tail is negative at eps = {eps!r}: {rate!r}")
        if rate == math.inf:
            raise CutoutError("decrease ε not possible, tail infinite")
        if not 0.0 <= atom_mass <= rate:
            raise CutoutError(f"atom mass {atom_mass!r} must lie in [0, rate = {rate!r}]")
        atom = atom_mass / rate if rate > 0.0 else 0.0
        times, tails = [eps], [1.0]
        if rate > 0.0:
            stop = max(TABLE_TAIL_FLOOR, atom * (1.0 + 1e-9))
            step = 10.0 ** (1.0 / TABLE_POINTS_PER_DECADE)
            t = eps
            for _ in range(TABLE_POINTS_PER_DECADE * TABLE_MAX_DECADES):
                t *= step
                value = tail(t)
                if not math.isfinite(value):
                    raise CutoutError(f"tail is {value!r} at t = {t!r}, "
                                      "not a finite number")
                s = value / rate
                times.append(t)
                tails.append(s)
                if s <= stop:
                    break
        log_tail_rev = np.log(np.maximum(tails[::-1], 1e-300))
        log_time_rev = np.log(times[::-1])
        return cls(eps=eps, rate=rate, atom=atom,
                   log_tail_rev=log_tail_rev, log_time_rev=log_time_rev,
                   tail=tail)

    def sample_array(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._inverse(1.0 - rng.random(n))  # (0, 1]; 1 maps to eps

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        """Durations whose conditional tail S equals u, for u in (0, 1]:
        exp(np.interp(log u, log_tail_rev, log_time_rev)) bit for bit,
        clamped to eps, inf at or below the atom, exact below the table.
        """
        scale, cells, knots, rows, eps = self._guide
        x = np.log(u)
        cell = cells.take((x * scale).astype(np.intp), 1, None, "clip")
        first = cell[0]
        row = first + (x >= knots.take(first))
        slow = cell[1].nonzero()[0]
        if slow.size:
            row[slow] = self.log_tail_rev.searchsorted(x[slow], "right")
        seg = rows.take(row, 1)
        out = np.maximum(np.exp(seg[1] * (x - seg[0]) + seg[2]), eps)
        if slow.size:
            tail = u[slow]
            if self.atom > 0.0:
                out[slow[tail <= self.atom]] = math.inf
            floor = math.exp(self.log_tail_rev[0])
            for i in slow[(tail < floor) & (tail > self.atom)]:
                out[i] = self._invert_beyond(float(u[i]))
        return out

    @cached_property
    def _guide(self):
        """Indexed search on the log-S axis (Chen & Asau 1974; Devroye
        1986, III.2.4).  Row r of ``rows`` is np.interp's segment (knot,
        slope, value) for an x with r knots at or below it, padded with
        slope 0 below the floor and at the top.  x and every knot land in
        cell trunc(x * scale), clipped (scale < 0: cell 0 is at the top);
        that map is monotone, so cells[0] counts the knots in deeper
        cells, and one comparison with the next knot finds the row.  cells[1] flags for searchsorted the cells
        with two knots or more (a tail flattening toward an atom) and
        those that can meet the floor or the atom, checked exactly.
        """
        xp, fp = self.log_tail_rev, self.log_time_rev
        last = 8 * xp.size                     # 8 cells per knot
        # any positive bound on the span keeps x * scale inside int64
        scale = -last / max(-float(xp[0]), 1e-3)
        count = np.bincount(np.minimum((xp * scale).astype(np.intp), last),
                            minlength=last + 1)
        slow = count > 1
        deep = max(xp[0], math.log(self.atom) if self.atom > 0.0 else -1e300)
        # log u against exp(xp[0]) and the atom: a margin far above the
        # rounding of log and exp, far below a cell
        floor_cell = int((deep + 1e-9 * (1.0 - deep)) * scale)
        slow[min(max(floor_cell, 0), last):] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.diff(fp) / np.diff(xp)  # never read at a repeated knot
        rows = np.array([np.r_[xp[0], xp], np.r_[0.0, slope, 0.0],
                         np.r_[fp[0], fp]])
        # 0-d arrays: a small call spends less on them than on floats
        return (np.array(scale), np.array([xp.size - np.cumsum(count), slow]),
                np.append(xp, math.inf), rows, np.array(self.eps))

    def _invert_beyond(self, u: float) -> float:
        """The duration whose conditional tail is u, below the table: the
        bound its doubling bracket reached where that passes 1e280 or the
        tail raises FlowError (a numeric flow, once psi is subnormal); the
        last knot where u is above the exact tail there (a rounded floor)."""
        lo = math.exp(self.log_time_rev[0])
        hi = 2.0 * lo

        def excess(log_t):
            return self.tail(math.exp(log_t)) / self.rate - u

        try:
            if excess(math.log(lo)) < 0.0:
                return lo
            while self.tail(hi) / self.rate >= u:
                hi *= 2.0
                if hi > 1e280:
                    return hi
            log_t = brent(excess, math.log(lo), math.log(hi), xtol=1e-12)
        except FlowError:
            return hi
        return math.exp(log_t)

    @cached_property
    def _cumulative_tail(self) -> "_CumulativeTail":
        return _CumulativeTail(self)


class _CumulativeTail:
    """G(x), the integral of the conditional tail S over [0, x], in
    closed form on a sampler's table.

    S is 1 on [0, eps] and the table's log-log interpolant
    S_i (t / t_i)^(h_i - 1) on each segment [t_i, t_(i+1)], which is the
    law the mark sweep inverts.  With L = log(t / t_i) and c_i = S_i t_i,
    G = B_i + c_i expm1(h_i L) / h_i there, inverted by
    L = log1p(h_i v) / h_i with v = (G - B_i) / c_i.  Both forms stay
    exact as h_i tends to 0 (tails near 1/t, such as the Feller drift);
    an exact 0 is stored as 1e-30, which changes no digit of either.  G
    stops at the last knot t_max: offsets beyond it are thinned from the
    exact tail.
    """

    LOG_T, LOG_S, WIDTH, SLOPE, H, C, CUM = range(7)

    def __init__(self, sampler: DurationSampler):
        log_t = sampler.log_time_rev[::-1]
        log_s = sampler.log_tail_rev[::-1]
        width = np.diff(log_t)
        slope = np.diff(log_s) / width
        h = slope + 1.0
        h[h == 0.0] = 1e-30
        c = np.exp(log_s[:-1] + log_t[:-1])
        cum = sampler.eps + np.concatenate(
            ([0.0], np.cumsum(c * np.expm1(h * width) / h)))
        self.eps = sampler.eps
        self.knots = np.exp(log_t)
        self.t_max = float(self.knots[-1])
        self.segments = np.column_stack(
            (log_t[:-1], log_s[:-1], width, slope, h, c, cum[:-1]))
        # interior edges: searchsorted on them gives the segment index
        self._knot_edges = self.knots[1:-1]
        self._cum_edges = cum[1:-1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        p = self.segments.take(np.searchsorted(self._knot_edges, x, "right"),
                               axis=0)
        L = np.minimum(np.log(np.maximum(x, self.eps)) - p[..., self.LOG_T],
                       p[..., self.WIDTH])
        h = p[..., self.H]
        G = p[..., self.CUM] + p[..., self.C] * np.expm1(h * L) / h
        return np.where(x <= self.eps, x, G)

    def inverse(self, g: np.ndarray):
        """(x, S(x)) with G(x) = g, for g in [0, G(t_max)]."""
        p = self.segments.take(np.searchsorted(self._cum_edges, g, "right"),
                               axis=0)
        h = p[..., self.H]
        # rounding can put h v at or below -1 on a steep segment's top
        hv = np.maximum(h * (g - p[..., self.CUM]) / p[..., self.C],
                        -1.0 + 1e-16)
        L = np.minimum(np.maximum(np.log1p(hv) / h, 0.0), p[..., self.WIDTH])
        inside = g <= self.eps
        x = np.where(inside, g, np.exp(p[..., self.LOG_T] + L))
        tail = np.where(inside, 1.0,
                        np.exp(p[..., self.LOG_S] + p[..., self.SLOPE] * L))
        return x, tail


@lru_cache(maxsize=64)
def _cached_sampler(psi, phi, eps: float) -> DurationSampler:
    return DurationSampler.from_mechanisms(psi, phi, eps)


def sample_durations(sampler: DurationSampler, n: int, seed) -> np.ndarray:
    """n i.i.d. cut durations, deterministic given the seed."""
    if n < 1:
        raise CutoutError("need at least one draw")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return sampler.sample_array(n, rng)


def _mark_sweep(T: float, sampler: DurationSampler, rng: np.random.Generator):
    """Mark-sweep kernel: every birth on [0, T], chunk by chunk."""
    starts, ends = [], []
    frontier = 0.0
    clock = 0.0
    if sampler.rate > 0.0:
        expected = T * sampler.rate
        chunk = int(min(_CHUNK,
                        max(1024.0, 1.25 * expected
                            + 10.0 * math.sqrt(expected + 1.0) + 64.0)))
        while clock <= T and frontier < math.inf:
            births = rng.standard_exponential(chunk)
            births /= sampler.rate
            births.cumsum(out=births)
            if clock:
                births += clock
            clock = float(births[-1])
            if clock > T:                      # births are sorted
                births = births[:births.searchsorted(T, "right")]
            n = births.size
            if n == 0:
                break
            durations = sampler.sample_array(n, rng)
            # run[i] is the frontier before birth i, run[n] the one after;
            # made after the draws, it reuses their freed temporaries (made
            # before, a 5e4-mark chunk page-faults twice as often)
            run = np.empty(n + 1)
            run[0] = frontier
            np.add(births, durations, out=run[1:])
            np.maximum.accumulate(run, out=run)
            gap = (births > run[:n]).nonzero()[0]
            starts.append(run.take(gap))
            ends.append(births.take(gap))
            frontier = float(run[n])
    return _uncovered(T, starts, ends, frontier), frontier


def _ladder_step(sampler: DurationSampler, lo: np.ndarray, hi: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One ladder step for each busy period with frontiers lo < hi.

    Draws the births at offsets x in ]0, hi - lo[ behind hi that end
    beyond hi: Poisson with mean rate * G(hi - lo), each offset by
    inverting G and each duration from S conditioned past its offset.
    Returns hi plus the largest overshoot, or hi where no birth reaches
    past it.
    """
    table = sampler._cumulative_tail
    delta = hi - lo
    g_hi = table(delta)
    # the births of all periods at once: one Poisson count over the
    # stacked masses, each birth placed uniformly in the stack
    edges = np.cumsum(sampler.rate * g_hi)
    top = np.zeros(hi.size)
    births = rng.poisson(edges[-1])
    if births:
        at = np.sort(edges[-1] * rng.random(births))  # sorted: fast lookup
        owner = np.minimum(np.searchsorted(edges, at, "right"), hi.size - 1)
        x, tail = table.inverse(g_hi[owner]
                                - (edges[owner] - at) / sampler.rate)
        over = sampler._inverse(tail * (1.0 - rng.random(births))) - x
        np.maximum.at(top, owner, over)
    # offsets past the table: thin a rate * S(t_max) Poisson rain by the
    # exact tail, which lies below S(t_max) there
    floor = math.exp(sampler.log_tail_rev[0])
    for j in np.nonzero(delta > table.t_max)[0]:
        span = float(delta[j]) - table.t_max
        x = table.t_max + span * rng.random(rng.poisson(sampler.rate * floor * span))
        tail = np.array([sampler.tail(v) for v in x]) / sampler.rate
        keep = floor * rng.random(x.size) < tail
        if keep.any():
            u = tail[keep] * (1.0 - rng.random(int(keep.sum())))
            top[j] = max(top[j],
                         float(np.max(sampler._inverse(u) - x[keep])))
    return hi + top


def _busy_periods(sampler: DurationSampler, gaps: np.ndarray,
                  clock: np.ndarray, T: float, rng: np.random.Generator):
    """Busy periods laid out from clock with the uncovered gaps before
    each, every period opened by one cut; row r of gaps (replicates x
    periods) and clock[r] are replicate r's.

    Returns the lengths, inf for each period dropped once it or an
    earlier one of its replicate surely ended past T (it cannot change
    [0, T] any more), and each replicate's first such period (n if none).
    """
    R, n = gaps.shape
    reach = sampler.sample_array(gaps.size, rng)   # frontier so far, then length
    ids, lo, hi = np.arange(gaps.size), np.zeros(gaps.size), reach.copy()
    span, cols = reach.reshape(R, n), np.arange(n)
    late = np.ones((R, n + 1), dtype=bool)     # a last column that is always late
    while ids.size:
        np.greater(_births(clock, gaps, span) + span, T, out=late[:, :n])
        # drop a replicate's first late period (n if none) and every later one
        keep = (cols < late.argmax(axis=1, keepdims=True)).take(ids)
        if not keep.all():
            reach[ids[~keep]] = math.inf
            ids, lo, hi = ids[keep], lo[keep], hi[keep]
            if not ids.size:
                break
        nxt = _ladder_step(sampler, lo, hi, rng)
        going = nxt > hi
        ids, lo, hi = ids[going], hi[going], nxt[going]
        reach[ids] = hi
    # no period moved since late was last set, and a dropped one was late
    return span, late.argmax(axis=1)


def _births(clock: np.ndarray, gaps: np.ndarray,
            length: np.ndarray) -> np.ndarray:
    """Births of each row's busy periods from clock: gap, then period."""
    born = gaps.copy()
    born[:, 1:] += length[:, :-1]
    born.cumsum(axis=1, out=born)
    born += clock[:, None]
    return born


def _expected_busy_periods(sampler: DurationSampler, horizon: float) -> float:
    """Mean number of busy periods opening in [0, horizon].

    A birth opens one exactly when it lands on an uncovered point, and t
    is uncovered with probability exp(-rate G(t)), so the mean is
    rate * int_0^horizon exp(-rate G); trapezoids on the table knots
    (G is flat past the last one).
    """
    table = sampler._cumulative_tail
    t = np.concatenate(([0.0], table.knots[table.knots < horizon],
                        [horizon]))
    w = np.exp(-sampler.rate * table(t))
    return sampler.rate * 0.5 * float(np.dot(np.diff(t), w[1:] + w[:-1]))


def _round_size(sampler: DurationSampler, span: float) -> int:
    """Periods per replicate in a ladder round over span: mean, margin."""
    m = _expected_busy_periods(sampler, span)
    return int(1.25 * m + 3.0 * math.sqrt(m) + 16.0)


def _ladder(T: float, sampler: DurationSampler, replicates: int,
            rng: np.random.Generator):
    """Frontier ladder of a batch of replicates from 0 until each has a
    busy period ending past T, in rounds of periods with Exp(rate) gaps.

    Yields per round the open replicates, their clocks, their periods'
    births and deaths (replicates x periods) and the index of each one's
    first period dying past T (the row length if none: it goes on from
    its last death).
    """
    rows, clock = np.arange(replicates), np.zeros(replicates)
    while rows.size:
        n = _round_size(sampler, T - float(clock.min()))
        gaps = rng.standard_exponential((rows.size, n)) / sampler.rate
        length, j = _busy_periods(sampler, gaps, clock, T, rng)
        born = _births(clock, gaps, length)
        died = born + length
        yield rows, clock, born, died, j
        going = j == n
        rows, clock = rows[going], died[going, -1]


def _ladder_sweep(T: float, sampler: DurationSampler,
                  rng: np.random.Generator):
    """Frontier-ladder kernel: the ladder of one replicate; its frontier
    is inf where a busy period covers T."""
    starts, ends = [], []
    for _, clock, born, died, j in _ladder(T, sampler, 1, rng):
        born, j = born[0], int(j[0])
        prev = np.concatenate((clock, died[0, :-1]))
        last = j if j == born.size or born[j] > T else j + 1
        gap = born[:last] > prev[:last]
        starts.append(prev[:last][gap])
        ends.append(born[:last][gap])
    frontier = float(prev[j]) if last == j else math.inf
    return _uncovered(T, starts, ends, frontier), frontier


def _uncovered(T: float, starts: list, ends: list,
               frontier: float) -> np.ndarray:
    """Interval array from the gaps before each busy period and the
    frontier after the last one."""
    k = sum(map(len, starts))
    tail = frontier <= T
    first = next((s[0] for s in starts if s.size),
                 frontier if tail else math.inf)
    # a birth at exactly 0.0 cannot cover the point 0 (cuts are open):
    # row 0 is [0, 0] unless a gap starts at 0
    row = int(first > 0.0)
    intervals = np.empty((row + k + tail, 2))
    intervals[0] = 0.0
    for s, e in zip(starts, ends):
        intervals[row:row + s.size, 0] = s
        intervals[row:row + s.size, 1] = e
        row += s.size
    if tail:
        intervals[row] = frontier, T
    return intervals


def _sweep(T: float, sampler: DurationSampler, rng: np.random.Generator):
    """Draw the cutout over [0, T]; returns (intervals, frontier).

    A frontier at most T starts the uncovered tail [frontier, T]; one
    past T means T is covered, and is then the supremum of the cuts born
    by T from the mark sweep and inf from the ladder.  Both kernels draw
    the intervals' law exactly; the ladder wins once T * rate exceeds
    LADDER_MIN_MARKS.
    """
    if T * sampler.rate > LADDER_MIN_MARKS:
        return _ladder_sweep(T, sampler, rng)
    return _mark_sweep(T, sampler, rng)


def cutout_with_sampler(sampler: DurationSampler, T: float,
                        seed) -> UncoveredSet:
    """One cutout realization driven by an externally built sampler."""
    if not 0.0 < T < math.inf:
        raise CutoutError(f"horizon {T} must be finite and positive")
    if T * sampler.rate > MAX_EXPECTED_MARKS:
        raise CutoutError("ε too small for horizon")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    intervals, _ = _sweep(T, sampler, rng)
    return UncoveredSet(horizon=T, eps=sampler.eps, intervals=intervals,
                        seed=seed)


def sample_cutout(psi, phi, T: float, eps: float, seed) -> UncoveredSet:
    """One realization of Z intersected with [0, T] at truncation eps."""
    return cutout_with_sampler(_cached_sampler(psi, phi, eps), T, seed)


def intersect(sets: Sequence[UncoveredSet]) -> UncoveredSet:
    """Exact intersection of uncovered sets on a common horizon."""
    if not sets:
        raise CutoutError("nothing to intersect")
    first = sets[0]
    result = first.intervals
    for other in sets[1:]:
        if other.horizon != first.horizon or other.eps != first.eps:
            raise CutoutError("mismatched horizons or truncation lengths")
        result = _intersect_pair(result, other.intervals)
    return UncoveredSet(horizon=first.horizon, eps=first.eps,
                        intervals=result, seed=None)


def _intersect_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # both inputs are sorted and disjoint, so the b-intervals meeting
    # a[i] form the index range [first[i], first[i] + counts[i]); the
    # ndarray methods skip numpy's dispatch, which dominates on the few
    # intervals a multi-way intersection narrows down to
    first = b[:, 1].searchsorted(a[:, 0])
    counts = b[:, 0].searchsorted(a[:, 1], "right") - first
    i = np.arange(len(a)).repeat(counts)
    j = (first - counts.cumsum() + counts).take(i)
    j += np.arange(i.size)
    ai, bj = a.take(i, axis=0), b.take(j, axis=0)
    out = np.minimum(ai, bj)
    np.maximum(ai[:, 0], bj[:, 0], out=out[:, 0])
    return out


def statistics(uncovered: UncoveredSet, grid_sizes: Sequence[float]) -> dict:
    """Lebesgue measure, box counts, dimension fit, and last uncovered point."""
    deltas = [float(d) for d in grid_sizes]
    if len(deltas) < 2:
        raise CutoutError("need at least two grid sizes for a dimension fit")
    for delta in deltas:
        if not math.isfinite(delta):
            raise CutoutError(f"grid size {delta} is not finite")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise CutoutError("grid sizes must be strictly decreasing")
    if deltas[-1] < uncovered.eps:
        raise CutoutError("grid size below the truncation length")

    iv = uncovered.intervals
    lebesgue = float((iv[:, 1] - iv[:, 0]).sum())
    g_last = float(iv[-1, 1]) if iv.shape[0] else 0.0

    box_counts = []
    for delta in deltas:
        lo = np.floor(iv[:, 0] / delta).astype(np.int64)
        # covering count: a right endpoint on a grid line does not spill
        # into the next cell, so [0,1] at delta=2^-k needs exactly 2^k cells
        hi = np.maximum(lo, np.ceil(iv[:, 1] / delta).astype(np.int64) - 1)
        prev = np.concatenate(([np.int64(-1)], hi[:-1]))
        fresh = hi - np.maximum(lo - 1, prev)
        box_counts.append((delta, int(np.maximum(fresh, 0).sum())))

    xs = [math.log(1.0 / d) for d, _ in box_counts]
    ys = [math.log(n) for _, n in box_counts]
    if max(ys) == min(ys):
        slope, stderr = 0.0, 0.0
    else:
        slope, _, stderr = least_squares_line(xs, ys)
    dim_fit = {"slope": slope, "stderr": stderr,
               "ci95": (slope - 1.96 * stderr, slope + 1.96 * stderr)}
    return {"lebesgue": lebesgue, "box_counts": tuple(box_counts),
            "dim_fit": dim_fit, "g_last": g_last}


def empirical_gzero(psi, phi, n_samples: int, T_max: float, eps: float,
                    seed) -> np.ndarray:
    """Per-replicate last zero for a bounded zero set.

    A replicate whose horizon is uncovered at T is censored (the true
    last zero lies at or beyond T) and is redrawn with the horizon
    doubled; coverage at T leaves at most the g-tail mass, which the
    horizon precondition bounds by 10^-3.

    Replicates go through the ladder in batches of about _BATCH_PERIODS
    busy periods, each on one generator spawned from SeedSequence(seed);
    a replicate keeps the birth of its period straddling T, its last
    zero, or inf when none does.  The output is deterministic given seed
    and n_samples; its first k values are not the k-replicate run.
    """
    if n_samples < 1:
        raise CutoutError("need at least one replicate")
    if not 0.0 < T_max < math.inf:
        raise CutoutError(f"horizon {T_max} must be finite and positive")
    tail = _gzero_tail(psi, phi, T_max)
    if tail >= GZERO_TAIL_BOUND:
        raise CutoutError(
            f"horizon too short: P(g > T_max) = {tail:.2e} "
            f"exceeds {GZERO_TAIL_BOUND:.0e}")
    sampler = _cached_sampler(psi, phi, eps)
    master = np.random.SeedSequence(seed)
    values = np.full(n_samples, math.inf)
    todo = np.arange(n_samples)
    T = T_max
    for _ in range(_MAX_HORIZON_DOUBLINGS):
        if T * sampler.rate > MAX_EXPECTED_MARKS:
            raise CutoutError("ε too small for horizon")
        size = max(1, _BATCH_PERIODS // _round_size(sampler, T))
        for batch in np.split(todo, range(size, todo.size, size)):
            rng = np.random.Generator(np.random.PCG64(master.spawn(1)[0]))
            for rows, _, born, _, j in _ladder(T, sampler, batch.size, rng):
                done = j < born.shape[1]
                g = born[done, j[done]]
                values[batch[rows[done]]] = np.where(g <= T, g, math.inf)
        todo = np.flatnonzero(values == math.inf)
        if not todo.size:
            return values
        T *= 2.0
    raise CutoutError("replicate censored at maximal horizon")
