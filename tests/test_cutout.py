"""Cutout simulation: duration law, coverage sweep, statistics, g_inf."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq

from cbizero import cutout as cutout_module
from cbizero.cutout import (
    LADDER_MIN_MARKS,
    CutoutError,
    DurationSampler,
    UncoveredSet,
    _cached_sampler,
    _expected_busy_periods,
    _intersect_pair,
    _ladder,
    _ladder_sweep,
    _mark_sweep,
    _sweep,
    cutout_with_sampler,
    empirical_gzero,
    intersect,
    sample_cutout,
    sample_durations,
    statistics,
)
from cbizero.mechanisms import (
    CustomBranching,
    CustomImmigration,
    QuadraticBranching,
    StableBranching,
    StableImmigration,
    scale_immigration,
)
from cbizero.ou import sample_ou_cutout
from cbizero.zeroset import least_squares_line

FELLER = StableBranching(d=1.0, alpha=2.0)
HALF_DRIFT = StableImmigration(dprime=0.5, beta=1.0)   # tail 0.5/t, Pareto(1)
ROOT_HALF = StableImmigration(dprime=1.0, beta=0.5)    # tail t^{-1/2}, Pareto(1/2)


class TestDurationSampler:
    def test_rate_oracle(self):
        s = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, 1e-3)
        assert s.rate == pytest.approx(500.0, rel=1e-9)
        s2 = DurationSampler.from_mechanisms(FELLER, ROOT_HALF, 1e-4)
        assert s2.rate == pytest.approx(100.0, rel=1e-9)

    def test_pareto_one_conditional_tail(self):
        s = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, 1e-3)
        draws = sample_durations(s, 10_000, 42)
        assert draws.min() >= 1e-3
        # tail eps/t means eps/draw is uniform on (0, 1)
        ks = stats.kstest(1e-3 / draws, "uniform")
        assert ks.statistic < 0.02
        assert np.median(draws) == pytest.approx(2e-3, rel=0.05)

    def test_pareto_half_conditional_tail(self):
        s = DurationSampler.from_mechanisms(FELLER, ROOT_HALF, 1e-4)
        draws = sample_durations(s, 10_000, 7)
        ks = stats.kstest(np.sqrt(1e-4 / draws), "uniform")
        assert ks.statistic < 0.02

    def test_deterministic_given_seed(self):
        s = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, 1e-3)
        a = sample_durations(s, 1000, 11)
        b = sample_durations(s, 1000, 11)
        assert np.array_equal(a, b)
        c = sample_durations(s, 1000, 12)
        assert not np.array_equal(a, c)

    def test_infinite_tail_message(self):
        with pytest.raises(CutoutError,
                           match="decrease ε not possible, tail infinite"):
            DurationSampler.from_tail(lambda t: math.inf, 1e-3)

    @pytest.mark.parametrize("mass", [math.nan, -0.25, 1e9])
    def test_atom_mass_outside_the_rate_rejected(self, mass):
        # the conditional atom mass / rate would be NaN, negative or above 1
        with pytest.raises(CutoutError, match=rf"atom mass {mass!r} must lie in \[0, rate = 1000\.0\]"):
            DurationSampler.from_tail(lambda t: 1.0 / t, 1e-3, atom_mass=mass)

    def test_negative_rate_has_its_own_message(self):
        with pytest.raises(CutoutError, match=r"tail is negative at eps = 0\.001: -1\.0$"):
            DurationSampler.from_tail(lambda t: -1.0, 1e-3)

    def test_supercritical_atom(self):
        # tail with a positive floor: infinite durations appear
        s = DurationSampler.from_tail(lambda t: 0.25 + 1.0 / t, 0.1,
                                      atom_mass=0.25)
        draws = sample_durations(s, 4000, 3)
        frac = np.isinf(draws).mean()
        assert frac == pytest.approx(s.atom, abs=0.02)
        assert 0.0 < s.atom < 1.0

    def test_custom_copy_builds_the_closed_form_table(self):
        copy = CustomBranching(eval=lambda q: q * q)
        family = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, 1e-3)
        custom = DurationSampler.from_mechanisms(copy, HALF_DRIFT, 1e-3)
        assert (custom.eps, custom.atom) == (family.eps, family.atom)
        assert custom.rate == pytest.approx(family.rate, rel=1e-9)
        np.testing.assert_array_equal(custom.log_time_rev, family.log_time_rev)
        np.testing.assert_allclose(np.exp(custom.log_tail_rev),
                                   np.exp(family.log_tail_rev), rtol=1e-9)

    def test_beyond_table_inversion_never_raises(self):
        # the copy's numeric flow fails here and there once psi is subnormal
        # at its level (t past 1e159), in the doubling or, at u = 4e-163, in
        # the Brent solve: the answer is the bound the bracket reached
        us = (1e-30, 1e-100, 4e-163, 1e-200, 1e-300, 5e-324)
        answers = {}
        for name, psi in (("family", FELLER), ("copy", CustomBranching(eval=lambda q: q * q))):
            sampler = DurationSampler.from_mechanisms(psi, HALF_DRIFT, 1e-3)
            answers[name] = [sampler._invert_beyond(u) for u in us]
            assert answers[name] == sorted(answers[name])
        for family, copy in zip(answers["family"][:2], answers["copy"][:2]):
            assert copy == pytest.approx(family, rel=1e-9)

    def test_draw_between_exact_tail_and_rounded_floor(self):
        # S(t_max) = 9.99999999999996e-13 lies below the table's floor
        # exp(log_tail_rev[0]) = 9.999999999999974e-13: a draw between them
        # brackets no root and answers the last knot
        s = _cached_sampler(QuadraticBranching(b=0.0, sigma2=2.0), ROOT_HALF, 1e-4)
        floor = math.exp(s.log_tail_rev[0])
        t_max = math.exp(s.log_time_rev[0])
        u = np.nextafter(floor, 0.0)
        assert s.tail(t_max) / s.rate < u < floor
        assert s._inverse(np.array([u])).tolist() == [t_max]

    def test_beyond_table_draws_solve_as_brentq(self, brent_calls, brentq_twin):
        draws = sample_durations(_short_table_sampler(), 2000, 5)
        assert len(brent_calls) == np.count_nonzero(draws > 0.1 * (1.0 + 1e-12))
        assert len(brent_calls) > 500           # S = 0.32 at the table end; measured 607
        for args, kwargs in brent_calls:
            ours, reference = brentq_twin(*args, **kwargs)
            assert ours == reference

    def test_draw_count_validated(self):
        s = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, 1e-3)
        with pytest.raises(CutoutError):
            sample_durations(s, 0, 1)


class TestSampleCutout:
    def test_deterministic_and_valid(self):
        a = sample_cutout(FELLER, HALF_DRIFT, 10.0, 1e-4, 123)
        b = sample_cutout(FELLER, HALF_DRIFT, 10.0, 1e-4, 123)
        assert np.array_equal(a.intervals, b.intervals)
        a.validate()
        assert a.intervals[0, 0] == 0.0
        assert a.intervals[-1, 1] <= 10.0

    def test_zero_rate_leaves_horizon_uncovered(self):
        silent = CustomImmigration(eval=lambda q: 0.0)
        z = sample_cutout(FELLER, silent, 5.0, 1e-3, 1)
        assert np.array_equal(z.intervals, [[0.0, 5.0]])

    def test_mark_bound_message(self):
        with pytest.raises(CutoutError, match="ε too small for horizon"):
            sample_cutout(FELLER, HALF_DRIFT, 1e6, 1e-9, 1)

    def test_recurrent_pair_meets_late_window(self):
        hits = 0
        for seed in range(120):
            z = sample_cutout(FELLER, HALF_DRIFT, 10.0, 1e-4, seed)
            iv = z.intervals
            meets = (iv[:, 1] >= 1.0) & (iv[:, 1] > iv[:, 0])
            hits += bool(meets.any())
        assert hits / 120 > 0.6

    def test_heavy_pair_measure_stable_under_eps_halving(self):
        measures = []
        for eps in (4e-4, 2e-4, 1e-4):
            values = [statistics(sample_cutout(FELLER, ROOT_HALF, 20.0, eps, s),
                                 [0.5, 0.25])["lebesgue"]
                      for s in range(800)]
            measures.append(np.mean(values))
        assert measures[0] > 0.0
        assert abs(measures[1] - measures[0]) / measures[0] < 0.05
        assert abs(measures[2] - measures[1]) / measures[1] < 0.05

    def test_light_pair_measure_shrinks_with_eps(self):
        values = []
        for eps in (1e-2, 1e-3, 1e-4):
            reps = [statistics(sample_cutout(FELLER, HALF_DRIFT, 10.0, eps, s),
                               [0.5, 0.25])["lebesgue"]
                    for s in range(40)]
            values.append(np.mean(reps))
        assert values[0] > values[1] > values[2]


class TestIntersect:
    def test_singleton(self):
        a = sample_cutout(FELLER, HALF_DRIFT, 10.0, 1e-3, 5)
        assert np.array_equal(intersect([a]).intervals, a.intervals)

    def test_with_full_horizon(self):
        a = sample_cutout(FELLER, HALF_DRIFT, 10.0, 1e-3, 5)
        full = UncoveredSet(10.0, 1e-3, np.array([[0.0, 10.0]]), None)
        assert np.array_equal(intersect([a, full]).intervals, a.intervals)

    def test_commutative_and_associative(self):
        sets = [sample_cutout(FELLER, ROOT_HALF, 10.0, 1e-3, s)
                for s in (1, 2, 3)]
        abc = intersect(sets)
        cba = intersect(sets[::-1])
        nested = intersect([intersect(sets[:2]), sets[2]])
        assert np.array_equal(abc.intervals, cba.intervals)
        assert np.array_equal(abc.intervals, nested.intervals)
        abc.validate()

    def test_zero_always_in_intersection(self):
        sets = [sample_cutout(FELLER, HALF_DRIFT, 5.0, 1e-3, s)
                for s in (7, 8, 9, 10)]
        out = intersect(sets)
        assert out.intervals[0, 0] == 0.0

    def test_mismatched_horizons_rejected(self):
        a = sample_cutout(FELLER, HALF_DRIFT, 10.0, 1e-3, 1)
        b = sample_cutout(FELLER, HALF_DRIFT, 20.0, 1e-3, 1)
        with pytest.raises(CutoutError):
            intersect([a, b])
        c = sample_cutout(FELLER, HALF_DRIFT, 10.0, 1e-4, 1)
        with pytest.raises(CutoutError):
            intersect([a, c])


def _intervals_from_sorted(xs, singles=()):
    # consecutive distinct points pair up; a True in singles collapses
    # that pair to the singleton at its left end
    pts = sorted(set(xs))
    pairs = [[pts[2 * i], pts[2 * i] if i < len(singles) and singles[i]
              else pts[2 * i + 1]] for i in range(len(pts) // 2)]
    return np.array(pairs, dtype=float) if pairs else np.empty((0, 2))


def _intersect_pair_merge(a, b):
    """Two-pointer merge: the reference for the vectorised intersection."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i, 0], b[j, 0])
        hi = min(a[i, 1], b[j, 1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i, 1] < b[j, 1]:
            i += 1
        else:
            j += 1
    return np.array(out) if out else np.empty((0, 2))


# integer endpoints make shared and touching endpoints common
_POINTS = st.lists(st.integers(0, 30).map(float), max_size=20)


@given(_POINTS, _POINTS, st.lists(st.booleans(), max_size=10),
       st.lists(st.booleans(), max_size=10))
@settings(max_examples=200, deadline=None)
def test_pair_intersection_properties(xs, ys, a_singles, b_singles):
    a = _intervals_from_sorted(xs, a_singles)
    b = _intervals_from_sorted(ys, b_singles)
    ab = _intersect_pair(a, b)
    ba = _intersect_pair(b, a)
    reference = _intersect_pair_merge(a, b)
    assert ab.shape == reference.shape
    assert np.array_equal(ab, reference)
    assert np.array_equal(ab, ba)
    assert np.array_equal(_intersect_pair(a, a), a)
    # every output interval is contained in an interval of both inputs
    for lo, hi in ab:
        assert any(s <= lo and hi <= e for s, e in a)
        assert any(s <= lo and hi <= e for s, e in b)


class TestValidate:
    @pytest.mark.parametrize("intervals, message", [
        (np.zeros((0, 2)), r"shape \(k, 2\)"),
        ([[0.5, 1.0]], "0 must be uncovered"),
        ([[0.0, 0.5], [0.8, 0.7]], "nonnegative length"),
        ([[0.0, 0.5], [0.5, 0.7]], "sorted and disjoint"),
        ([[0.0, 1.5]], r"within \[0, horizon\]"),
        ([[0.0, 0.0], [math.nan, math.nan]], "endpoints must be finite"),
        ([[0.0, math.nan]], "endpoints must be finite"),
    ], ids=["empty", "zero-covered", "reversed", "overlapping", "past-horizon", "nan-interval",
            "nan-end"])
    def test_each_defect_has_its_message(self, intervals, message):
        with pytest.raises(CutoutError, match=message):
            UncoveredSet(1.0, 1e-3, np.array(intervals, dtype=float), None).validate()

    def test_valid_set_passes(self):
        z = UncoveredSet(1.0, 1e-3, np.array([[0.0, 0.0], [0.25, 1.0]]), None)
        assert z.validate() is z

    @pytest.mark.parametrize("horizon, eps, message", [
        (math.nan, 1e-3, "horizon nan must be finite and positive"),
        (1.0, math.nan, "eps nan must be finite and positive"),
        (1.0, -1.0, "eps -1.0 must be finite and positive"),
        (math.inf, 1e-3, "horizon inf must be finite and positive"),
        (1.0, 0.0, "eps 0.0 must be finite and positive"),
        (1.0, math.inf, "eps inf must be finite and positive"),
    ], ids=["nan-horizon", "nan-eps", "negative-eps", "inf-horizon", "zero-eps", "inf-eps"])
    def test_horizon_and_eps_are_checked(self, horizon, eps, message):
        with pytest.raises(CutoutError, match=message):
            UncoveredSet(horizon, eps, np.array([[0.0, 0.5]]), None).validate()

    def test_interval_checks_come_first(self):
        # a nonpositive horizon keeps the message the intervals give
        with pytest.raises(CutoutError, match=r"within \[0, horizon\]"):
            UncoveredSet(-1.0, math.nan, np.array([[0.0, 0.0]]), None).validate()

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    @pytest.mark.parametrize("sample", [
        lambda T: sample_cutout(FELLER, ROOT_HALF, T, 1e-4, 1),
        lambda T: sample_ou_cutout(1.8, T, 1e-3, 1),
    ], ids=["cbi", "ou"])
    def test_non_finite_horizon_rejected(self, sample, T):
        with pytest.raises(CutoutError, match=f"horizon {T} must be finite"):
            sample(T)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
    @pytest.mark.parametrize("build", [
        lambda eps: sample_cutout(FELLER, ROOT_HALF, 10.0, eps, 1),
        lambda eps: sample_ou_cutout(1.8, 10.0, eps, 1),
        lambda eps: DurationSampler.from_tail(lambda t: t ** -0.5, eps),
    ], ids=["cbi", "ou", "from_tail"])
    def test_eps_not_finite_and_positive_rejected(self, build, eps):
        # an infinite eps gave a rate-0 sampler and a set validate() rejects,
        # a NaN one an error from the flow
        with pytest.raises(CutoutError, match=f"eps {eps} must be finite and positive"):
            build(eps)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_gzero_horizon_checked_before_any_flow_work(self, T):
        with pytest.raises(CutoutError, match=f"horizon {T} must be finite and positive"):
            empirical_gzero(FELLER, ROOT_HALF, 10, T, 1e-3, 1)

    # sqrt(q) that is NaN below level 1: with Feller, v_t = 1/t is below 1 past t = 1
    NAN_BELOW_ONE = CustomImmigration(eval=lambda q: math.sqrt(q) if q == 0 or q >= 1 else math.nan)

    @pytest.mark.parametrize("build", [
        lambda: DurationSampler.from_tail(lambda t: 1 / t if t < 0.1 else math.nan, 1e-3),
        lambda: DurationSampler.from_mechanisms(FELLER, TestValidate.NAN_BELOW_ONE, 1e-7),
        lambda: sample_cutout(FELLER, TestValidate.NAN_BELOW_ONE, 1.0, 1e-7, 1),
    ], ids=["from_tail", "from_mechanisms", "sample_cutout"])
    def test_nan_tail_rejected_at_build(self, build):
        # a NaN knot would fail the first draw inside the guide's bincount
        with pytest.raises(CutoutError, match=r"tail is nan at t = (0\.1|1\.0)000\d*, not a finite"):
            build()

    def test_nan_rate_has_its_own_message(self):
        with pytest.raises(CutoutError, match=r"tail is NaN at eps = 0\.001$"):
            DurationSampler.from_tail(lambda t: math.nan if t <= 1e-3 else 1 / t, 1e-3)


class TestStatistics:
    GRID = [2.0 ** -k for k in range(1, 11)]

    def test_full_interval(self):
        full = UncoveredSet(1.0, 1e-6, np.array([[0.0, 1.0]]), None)
        out = statistics(full, self.GRID)
        assert out["lebesgue"] == 1.0
        assert out["g_last"] == 1.0
        assert out["dim_fit"]["slope"] == pytest.approx(1.0, abs=1e-12)
        for delta, count in out["box_counts"]:
            assert count == round(1.0 / delta)

    def test_single_point(self):
        point = UncoveredSet(1.0, 1e-6, np.array([[0.0, 0.0]]), None)
        out = statistics(point, self.GRID)
        assert out["dim_fit"]["slope"] == 0.0
        assert out["lebesgue"] == 0.0
        assert all(count == 1 for _, count in out["box_counts"])

    def test_grid_validation(self):
        z = UncoveredSet(1.0, 1e-2, np.array([[0.0, 1.0]]), None)
        with pytest.raises(CutoutError):
            statistics(z, [0.25, 0.5])
        with pytest.raises(CutoutError):
            statistics(z, [0.5])
        with pytest.raises(CutoutError):
            statistics(z, [0.5, 1e-3])

    @pytest.mark.parametrize("grid, bad", [([0.5, math.nan], "nan"), ([math.inf, 0.5], "inf")],
                             ids=["nan", "inf"])
    def test_non_finite_grid_size_rejected(self, grid, bad):
        z = UncoveredSet(1.0, 1e-2, np.array([[0.0, 1.0]]), None)
        with pytest.raises(CutoutError, match=f"grid size {bad} is not finite"):
            statistics(z, grid)

    def test_recurrent_dimension_estimate(self):
        z = sample_cutout(FELLER, HALF_DRIFT, 100.0, 1e-4, 9)
        out = statistics(z, [2.0 ** -k for k in range(2, 13)])
        assert out["dim_fit"]["slope"] == pytest.approx(0.5, abs=0.1)
        lo, hi = out["dim_fit"]["ci95"]
        assert lo <= out["dim_fit"]["slope"] <= hi


class TestEmpiricalGZero:
    def test_matches_density_law(self):
        g = empirical_gzero(FELLER, ROOT_HALF, 3000, 30.0, 1e-4, 555)
        cdf = lambda t: 1.0 - (2.0 * np.sqrt(t) + 1.0) * np.exp(-2.0 * np.sqrt(t))
        ks = stats.kstest(g, cdf)
        assert ks.statistic < 0.03
        median = brentq(
            lambda t: (2 * math.sqrt(t) + 1) * math.exp(-2 * math.sqrt(t)) - 0.5,
            0.1, 3.0)
        assert np.median(g) == pytest.approx(median, rel=0.05)
        assert (g > 1.0).mean() == pytest.approx(3 * math.exp(-2.0), abs=0.02)

    def test_matches_one_sweep_per_replicate(self):
        # the batched ladder against one _sweep per replicate (the mark
        # sweep here): a sweep covered at T ends its last uncovered
        # interval at g; the few censored sweeps (P(g > 30) = 2e-4) drop out
        sampler = _cached_sampler(FELLER, ROOT_HALF, 1e-3)
        loop = []
        for i in range(1000):
            intervals, frontier = _sweep(30.0, sampler, _rng([35, i]))
            if frontier > 30.0:
                loop.append(intervals[-1, 1])
        batch = empirical_gzero(FELLER, ROOT_HALF, 1000, 30.0, 1e-3, 36)
        assert stats.ks_2samp(batch, loop, method="asymp").pvalue > 1e-4

    def test_deterministic(self):
        a = empirical_gzero(FELLER, ROOT_HALF, 50, 30.0, 1e-3, 99)
        b = empirical_gzero(FELLER, ROOT_HALF, 50, 30.0, 1e-3, 99)
        assert np.array_equal(a, b)

    def test_eps_sensitivity_of_law(self):
        # the truncation cancels from the normalized last-zero law, so
        # halving eps moves the empirical distribution only by MC noise;
        # the KS p-value tests the law identity, the median is a 2-sigma rail
        g1 = empirical_gzero(FELLER, ROOT_HALF, 2000, 30.0, 1e-3, 777)
        g2 = empirical_gzero(FELLER, ROOT_HALF, 2000, 30.0, 5e-4, 778)
        ks = stats.ks_2samp(g1, g2)
        assert ks.pvalue > 0.005
        assert abs(np.median(g1) - np.median(g2)) / np.median(g1) < 0.12

    def test_recurrent_rejected(self):
        with pytest.raises(ValueError, match="unbounded zero set"):
            empirical_gzero(FELLER, HALF_DRIFT, 10, 30.0, 1e-3, 1)

    def test_short_horizon_rejected(self):
        with pytest.raises(CutoutError, match="horizon too short"):
            empirical_gzero(FELLER, ROOT_HALF, 10, 1.0, 1e-3, 1)

    def test_short_horizon_rejected_at_positive_root(self):
        # psi = u^2 - u, phi = u/4: P(g > T) = I_{e^{-T}}(1/4, 3/4), 2.6e-1 at T = 5
        super_ = QuadraticBranching(b=-1.0, sigma2=2.0)
        quarter = StableImmigration(dprime=0.25, beta=1.0)
        with pytest.raises(CutoutError, match=r"P\(g > T_max\) = 2.58e-01"):
            empirical_gzero(super_, quarter, 10, 5.0, 1e-3, 1)


class TestSuperposition:
    def test_quarter_immigration_intersection_matches(self):
        quarter = scale_immigration(ROOT_HALF, 0.25)
        g_one, g_four = [], []
        for i in range(400):
            one = sample_cutout(FELLER, ROOT_HALF, 30.0, 1e-3, 10_000 + i)
            g_one.append(statistics(one, [0.5, 0.25])["g_last"])
            parts = [sample_cutout(FELLER, quarter, 30.0, 1e-3,
                                   (20_000 + i) * 4 + j) for j in range(4)]
            g_four.append(statistics(intersect(parts), [0.5, 0.25])["g_last"])
        ks = stats.ks_2samp(g_one, g_four)
        assert ks.statistic < 0.1


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _atom_sampler():
    return DurationSampler.from_tail(lambda t: 0.25 + 1.0 / t, 0.1,
                                     atom_mass=0.25)


def _ou_sampler():
    # the stable OU cutting measure at alpha = 1.8 from its closed-form tail
    # (1/alpha)/(e^z - 1), on whose table the kernels' digests were taken
    return DurationSampler.from_tail(
        lambda z: (1.0 / 1.8) * math.exp(-z) / (-math.expm1(-z)), 1e-3)


def _short_table_sampler():
    # a table cut one decade above eps, so most offsets and durations
    # fall beyond it and go through the exact tail
    base = DurationSampler.from_tail(lambda t: t ** -0.5, 0.01)
    return dataclasses.replace(base, log_tail_rev=base.log_tail_rev[-25:],
                               log_time_rev=base.log_time_rev[-25:])


SAMPLERS = {
    "feller drift": lambda: DurationSampler.from_mechanisms(
        FELLER, HALF_DRIFT, 1e-3),
    "feller sqrt": lambda: DurationSampler.from_mechanisms(
        FELLER, ROOT_HALF, 1e-4),
    "atom": _atom_sampler,
    "ou 1.8": _ou_sampler,
}
# tails that are exact power laws make the log-log table exact; the
# others carry its interpolation error, about 1e-4 of G at 24 knots
# per decade
G_TOLERANCE = {"feller drift": 1e-9, "feller sqrt": 1e-9, "atom": 1e-3,
               "ou 1.8": 1e-3}


class TestCumulativeTail:
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_table_matches_quadrature_of_tail(self, name):
        s = SAMPLERS[name]()
        table = s._cumulative_tail
        knots = table.knots
        S = lambda y: min(1.0, s.tail(y) / s.rate)
        # G at every knot, then at eps/2 and every segment's midpoint
        at_knots = s.eps + np.concatenate(([0.0], np.cumsum(
            [quad(S, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
             for a, b in zip(knots[:-1], knots[1:])])))
        mids = np.sqrt(knots[:-1] * knots[1:])
        at_mids = at_knots[:-1] + [quad(S, a, m, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                                   for a, m in zip(knots[:-1], mids)]
        x = np.concatenate(([0.5 * s.eps], knots, mids))
        ref = np.concatenate(([0.5 * s.eps], at_knots, at_mids))
        np.testing.assert_allclose(table(x), ref, rtol=G_TOLERANCE[name])

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_inverse_round_trip_on_every_segment(self, name):
        s = SAMPLERS[name]()
        table = s._cumulative_tail
        knots = table.knots
        x = np.concatenate((s.eps * np.array([1e-3, 0.25, 0.5, 0.999]),
                            knots, np.sqrt(knots[:-1] * knots[1:]),
                            knots[:-1] + 0.01 * np.diff(knots)))
        g = table(x)
        back, tail = table.inverse(g)
        # G flattens where S is small: allow the rounding of g over S
        slack = 1e-12 * x + 8.0 * np.spacing(g) / tail
        assert np.all(np.abs(back - x) <= slack)
        expected_tail = np.where(
            back <= s.eps, 1.0,
            np.exp(np.interp(np.log(back), s.log_time_rev[::-1],
                             s.log_tail_rev[::-1])))
        np.testing.assert_allclose(tail, expected_tail, rtol=1e-12)
        assert table(0.0) == 0.0
        assert table(s.eps) == s.eps


def _uncovered_measures(kernel, sampler, T, reps, seed):
    return np.array([
        np.diff(kernel(T, sampler, _rng([seed, i]))[0], axis=1).sum()
        for i in range(reps)])


Z_LEVEL_1E6 = 4.89      # two-sided normal quantile at level 1e-6


class TestKernelsAgree:
    """The ladder and the mark sweep against the coverage oracle and
    against each other.  A point t is uncovered with probability
    exp(-rate G(t)), so the mean uncovered measure of [0, T] is the
    integral of that over [0, T]."""

    @pytest.mark.parametrize("kernel, eps, reps", [
        (_ladder_sweep, 1e-5, 200),
        (_ladder_sweep, 1e-3, 400),
        (_mark_sweep, 1e-3, 400),
    ])
    def test_mean_uncovered_measure_feller_drift(self, kernel, eps, reps):
        # S = eps/t gives
        # (1 - e^-1/2)/rate + 2 e^-1/2 sqrt(eps)(sqrt(T) - sqrt(eps))
        T = 30.0
        s = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, eps)
        exact = ((1.0 - math.exp(-0.5)) / s.rate + 2.0 * math.exp(-0.5)
                 * math.sqrt(eps) * (math.sqrt(T) - math.sqrt(eps)))
        if eps == 1e-5:
            assert exact == pytest.approx(0.0210, abs=5e-5)
        values = _uncovered_measures(kernel, s, T, reps, 31)
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - exact) < Z_LEVEL_1E6 * se

    @pytest.mark.parametrize("kernel", [_ladder_sweep, _mark_sweep])
    def test_mean_uncovered_measure_with_atom(self, kernel):
        T, reps = 30.0, 2000
        s = _atom_sampler()

        def uncovered(t):  # exp(-rate G(t)) for the tail 0.25 + 1/t
            if t <= s.eps:
                return math.exp(-s.rate * t)
            return math.exp(-s.rate * s.eps - 0.25 * (t - s.eps)) * s.eps / t

        exact = (quad(uncovered, 0.0, s.eps, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                 + quad(uncovered, s.eps, T, epsabs=0.0, epsrel=1e-12, limit=200)[0])
        values = _uncovered_measures(kernel, s, T, reps, 32)
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - exact) < Z_LEVEL_1E6 * se

    @pytest.mark.parametrize("name, T, reps", [
        ("feller drift", 10.0, 400),
        ("feller sqrt", 30.0, 400),
        ("atom", 30.0, 1000),
        ("ou 1.8", 30.0, 300),
        ("short table", 20.0, 300),
    ])
    def test_two_sample_ks_between_kernels(self, name, T, reps):
        s = (_short_table_sampler() if name == "short table"
             else SAMPLERS[name]())
        draws = {}
        for kernel in (_ladder_sweep, _mark_sweep):
            runs = [kernel(T, s, _rng([33, i])) for i in range(reps)]
            draws[kernel] = (
                [iv[-1, 1] for iv, _ in runs],
                [iv.shape[0] for iv, _ in runs],
                [min(frontier, T) for _, frontier in runs])
        # three tests per case at level 1e-4 each; interval counts are
        # discrete, which only makes the KS test conservative.  Past T the
        # kernels' frontiers differ (the ladder's is inf), so the third
        # compares min(frontier, T), the part [0, T] shows
        for ladder, mark in zip(draws[_ladder_sweep], draws[_mark_sweep]):
            assert stats.ks_2samp(ladder, mark, method="asymp").pvalue > 1e-4

    def test_sweep_selects_by_expected_marks(self):
        s = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, 1e-3)
        small = 0.5 * LADDER_MIN_MARKS / s.rate
        large = 2.0 * LADDER_MIN_MARKS / s.rate
        for T, kernel in ((small, _mark_sweep), (large, _ladder_sweep)):
            got, frontier = _sweep(T, s, _rng(5))
            want, want_frontier = kernel(T, s, _rng(5))
            assert np.array_equal(got, want) and frontier == want_frontier

    def test_ladder_deterministic_given_seed(self):
        T, eps = 30.0, 1e-4
        assert T * 0.5 / eps > LADDER_MIN_MARKS
        a = sample_cutout(FELLER, HALF_DRIFT, T, eps, 2024)
        b = sample_cutout(FELLER, HALF_DRIFT, T, eps, 2024)
        c = sample_cutout(FELLER, HALF_DRIFT, T, eps, 2025)
        assert np.array_equal(a.intervals, b.intervals)
        assert not np.array_equal(a.intervals, c.intervals)
        a.validate()
        c.validate()


def _batched_ladder_counts(sampler, T, reps, seed):
    """Per replicate of one batch through the ladder: whether T is
    uncovered and the number of busy periods opening in [0, T]."""
    uncovered, opened = np.zeros(reps, dtype=bool), np.zeros(reps)
    for rows, _, born, _, j in _ladder(T, sampler, reps, _rng(seed)):
        opened[rows] += (born <= T).sum(axis=1)
        done = j < born.shape[1]
        uncovered[rows[done]] = born[done, j[done]] > T
    return uncovered, opened


def _mark_sweep_counts(sampler, T, reps, seed):
    """Per replicate through the mark sweep, one seed each: whether T is
    uncovered and the number of busy periods opening in [0, T], which
    are the uncovered intervals that end before T."""
    uncovered, opened = np.zeros(reps, dtype=bool), np.zeros(reps)
    for i in range(reps):
        intervals, frontier = _mark_sweep(T, sampler, _rng([seed, i]))
        uncovered[i] = frontier <= T
        opened[i] = np.count_nonzero(intervals[:, 1] < T)
    return uncovered, opened


def _uncovered_probability(sampler):
    """p(t) = exp(-rate G(t)), the chance that t is uncovered: G from the
    table up to its last knot, and past it by quadrature of the exact
    tail, from which the kernels thin the offsets there."""
    table = sampler._cumulative_tail

    def p(t):
        g = float(table(min(t, table.t_max)))
        if t > table.t_max:
            g += quad(lambda y: sampler.tail(y) / sampler.rate, table.t_max, t,
                      epsabs=0.0, epsrel=1e-10)[0]
        return math.exp(-sampler.rate * g)
    return p


def _uncovered_at(intervals, points):
    """Whether each point lies in one of the sorted closed intervals."""
    i = np.searchsorted(intervals[:, 0], points, "right") - 1
    return (i >= 0) & (intervals[i, 1] >= points)


class TestBatchedLadderLaw:
    """Identities of the eps-cutout that need no second kernel, on one
    batch of replicates at a horizon where a fifth to a half of them
    are uncovered: T is uncovered with probability exp(-rate G(T)), and
    a birth opens a busy period exactly when it lands on an uncovered
    point, so the mean count of busy periods opening in [0, T] is rate
    times the integral of that.
    The integral is taken by quadrature: _expected_busy_periods, which
    sizes the ladder's rounds, puts one trapezoid on [0, eps], 7% high
    here for the atom sampler (rate * eps = 1.025), and keeps G flat
    past the table's last knot, 15% high for the short table at T = 0.3.
    The mark sweep is gated on the same identities, one seed per replicate."""

    # (replicates, seed) per sampler: at T = 0.3, three times the short
    # table's last knot, most offsets are thinned from the exact tail, one
    # Python call each, hence fewer replicates
    RUNS = {"feller sqrt": (20_000, 34), "atom": (20_000, 34),
            "feller drift": (20_000, 36), "ou 1.8": (20_000, 36),
            "short table": (5_000, 36)}
    # replicates through the mark sweep, 3,000 unless listed: one call
    # each, about 80 us at these horizons and 130 us for the short table
    MARK_REPS = {"short table": 2_000}
    HORIZONS = [("feller sqrt", 0.2), ("atom", 0.15), ("feller drift", 0.003),
                ("ou 1.8", 0.003), ("short table", 0.3)]

    @staticmethod
    def _sampler(name):
        return _short_table_sampler() if name == "short table" else SAMPLERS[name]()

    @staticmethod
    def _check_identities(s, T, uncovered, opened):
        reps, t_max = uncovered.size, s._cumulative_tail.t_max
        p = _uncovered_probability(s)
        assert 0.2 < p(T) < 0.5
        assert (abs(uncovered.mean() - p(T))
                < Z_LEVEL_1E6 * math.sqrt(p(T) * (1.0 - p(T)) / reps))
        pieces = ((0.0, s.eps), (s.eps, min(T, t_max)), (t_max, max(T, t_max)))
        count = s.rate * sum(quad(p, a, b, epsabs=0.0, epsrel=1e-10)[0] for a, b in pieces)
        if T <= t_max:
            assert count == pytest.approx(_expected_busy_periods(s, T), rel=0.1)
        se = opened.std(ddof=1) / math.sqrt(reps)
        assert abs(opened.mean() - count) < Z_LEVEL_1E6 * se

    @pytest.mark.parametrize("name, T", HORIZONS)
    def test_uncovered_fraction_and_busy_period_count(self, name, T):
        reps, seed = self.RUNS[name]
        s = self._sampler(name)
        self._check_identities(s, T, *_batched_ladder_counts(s, T, reps, seed))

    @pytest.mark.parametrize("name, T", HORIZONS)
    def test_mark_sweep_keeps_the_identities(self, name, T):
        s = self._sampler(name)
        reps = self.MARK_REPS.get(name, 3_000)
        self._check_identities(s, T, *_mark_sweep_counts(s, T, reps, 38))

    @pytest.mark.parametrize("kernel", [_mark_sweep, _ladder_sweep])
    def test_uncovered_pairs_are_regenerative(self, kernel):
        # a cut born before s that covers t > s also covers s, so the
        # uncovered set starts afresh at s: P(s and t uncovered) is
        # p(s) p(t - s), which is 0.44 here where independence gives 0.28.
        # t is the horizon, where the ladder stops
        s = SAMPLERS["feller sqrt"]()
        p, points, reps = _uncovered_probability(s), np.array([0.1, 0.11]), 3000
        both = np.mean([_uncovered_at(kernel(points[1], s, _rng([37, i]))[0], points).all()
                        for i in range(reps)])
        want = p(points[0]) * p(points[1] - points[0])
        assert abs(both - want) < Z_LEVEL_1E6 * math.sqrt(want * (1.0 - want) / reps)


class TestLadderStopsAtHorizon:
    """The ladder draws nothing once the period straddling T is known,
    and both kernels report a covered horizon by a frontier past T."""

    @pytest.mark.parametrize("name, T", TestBatchedLadderLaw.HORIZONS)
    def test_sweep_draws_only_the_ladder(self, name, T):
        # the generator leaves _ladder_sweep where it leaves the bare
        # ladder, at a covered and at an uncovered horizon
        s = TestBatchedLadderLaw._sampler(name)
        seen = set()
        for seed in range(40):
            sweep, ladder = _rng([39, seed]), _rng([39, seed])
            _, frontier = _ladder_sweep(T, s, sweep)
            for _ in _ladder(T, s, 1, ladder):
                pass
            assert sweep.bit_generator.state == ladder.bit_generator.state
            seen.add(frontier > T)
            if len(seen) == 2:
                break
        assert seen == {False, True}

    @pytest.mark.parametrize("kernel", [_ladder_sweep, _mark_sweep])
    @pytest.mark.parametrize("name, T", TestBatchedLadderLaw.HORIZONS)
    def test_frontier_past_T_exactly_when_T_is_covered(self, name, T, kernel):
        s = TestBatchedLadderLaw._sampler(name)
        covered = []
        for seed in range(40):
            intervals, frontier = kernel(T, s, _rng([40, seed]))
            assert (frontier > T) == (intervals[-1, 1] < T)
            if kernel is _ladder_sweep and frontier > T:
                assert frontier == math.inf
            covered.append(frontier > T)
        assert 0 < sum(covered) < len(covered)


def _column_stack_uncovered(T, starts, ends, frontier):
    """The column_stack assembly that ``_uncovered`` must reproduce byte
    for byte."""
    starts, ends = list(starts), list(ends)
    if frontier < T:
        starts.append(np.array([frontier]))
        ends.append(np.array([T]))
    elif frontier == T:
        starts.append(np.array([T]))
        ends.append(np.array([T]))
    if starts:
        intervals = np.column_stack((np.concatenate(starts),
                                     np.concatenate(ends)))
    else:
        intervals = np.empty((0, 2))
    if intervals.shape[0] == 0 or intervals[0, 0] > 0.0:
        intervals = np.vstack(([0.0, 0.0], intervals))
    return intervals


def _assert_interval_array(intervals):
    assert intervals.dtype == np.float64
    assert intervals.ndim == 2 and intervals.shape[1] == 2
    assert intervals.flags.c_contiguous


class TestUncoveredAssembly:
    """``_uncovered`` and the sweeps' outputs against the column_stack
    assembly."""

    @pytest.mark.parametrize("starts, ends, frontier", [
        ([[0.0, 1.0]], [[0.5, 2.0]], 2.5),
        ([[0.0, 1.0]], [[0.5, 2.0]], 3.0),
        ([[0.0, 1.0]], [[0.5, 2.0]], 3.5),
        ([[0.0, 1.0]], [[0.5, 2.0]], math.inf),
        ([], [], 0.0),
        ([], [], 3.0),
        ([[]], [[]], 3.5),
        ([[0.7]], [[1.0]], 3.5),
        ([[0.0], [], [1.2, 2.0]], [[0.1], [], [1.5, 2.2]], 2.9),
    ], ids=["below", "at", "past", "inf", "no births", "at, no gaps",
            "past, no gaps", "birth at 0", "chunks"])
    def test_layouts(self, starts, ends, frontier):
        starts = [np.array(s, dtype=float) for s in starts]
        ends = [np.array(e, dtype=float) for e in ends]
        ours = cutout_module._uncovered(3.0, list(starts), list(ends), frontier)
        _assert_interval_array(ours)
        assert ours.tobytes() == _column_stack_uncovered(
            3.0, starts, ends, frontier).tobytes()

    def test_zero_rate(self):
        silent = DurationSampler.from_tail(lambda t: 0.0, 1e-3)
        intervals, frontier = _mark_sweep(5.0, silent, _rng(0))
        _assert_interval_array(intervals)
        assert frontier == 0.0
        assert intervals.tobytes() == _column_stack_uncovered(
            5.0, [], [], 0.0).tobytes()

    @pytest.mark.parametrize("kernel, marks", [
        (_mark_sweep, 750.0), (_mark_sweep, 3e3), (_ladder_sweep, 3e3)])
    def test_realizations(self, kernel, marks, monkeypatch):
        sampler = DurationSampler.from_mechanisms(FELLER, ROOT_HALF, 1e-4)
        T = marks / sampler.rate
        ours = [kernel(T, sampler, _rng(seed)) for seed in range(20)]
        monkeypatch.setattr(cutout_module, "_uncovered", _column_stack_uncovered)
        for seed, (intervals, frontier) in enumerate(ours):
            _assert_interval_array(intervals)
            want, want_frontier = kernel(T, sampler, _rng(seed))
            assert intervals.tobytes() == want.tobytes()
            assert frontier == want_frontier


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_draws_write_into_no_array_they_read(name):
    s = SAMPLERS[name]()
    u = np.concatenate((_edge_queries(s, np.exp(s.log_tail_rev)),
                        1.0 - _rng(4).random(2000)))
    read = (u, s.log_tail_rev, s.log_time_rev, *s._guide)
    before = [a.tobytes() for a in read]
    s._inverse(u)
    s.sample_array(2000, _rng(4))
    assert [a.tobytes() for a in read] == before


def _interp_inverse(self, u):
    """The np.interp inversion: the reference that
    ``DurationSampler._inverse`` must reproduce bit for bit."""
    out = np.exp(np.interp(np.log(u), self.log_tail_rev,
                           self.log_time_rev))
    np.maximum(out, self.eps, out=out)
    if self.atom > 0.0:
        out[u <= self.atom] = math.inf
    floor = math.exp(self.log_tail_rev[0])
    beyond = (u < floor) & (u > self.atom)
    for i in np.nonzero(beyond)[0]:
        out[i] = self._invert_beyond(float(u[i]))
    return out


class _BeyondProbe(DurationSampler):
    """Answers -u below the table instead of solving the exact tail, so
    a comparison sees which draws went there and runs on any table."""

    def _invert_beyond(self, u):
        return -u


def _probe(sampler):
    return _BeyondProbe(**{f.name: getattr(sampler, f.name)
                           for f in dataclasses.fields(sampler)})


def _edge_queries(sampler, tails):
    """The knots, their neighbours, u = 1, the floor times (1 +- 1e-12),
    2^-53, the least double and the atom with its neighbours."""
    floor = math.exp(sampler.log_tail_rev[0])
    atom = [sampler.atom, np.nextafter(sampler.atom, 0.0),
            np.nextafter(sampler.atom, 1.0)] if sampler.atom > 0.0 else []
    u = np.concatenate((tails, np.nextafter(tails, 0.0),
                        np.nextafter(tails, 2.0), np.exp(sampler.log_tail_rev),
                        [1.0, floor * (1.0 + 1e-12), floor * (1.0 - 1e-12),
                         2.0 ** -53, 5e-324], atom))
    return u[(u > 0.0) & (u <= 1.0)]


def _assert_same_bits(sampler, u):
    probe = _probe(sampler)
    assert probe._inverse(u).tobytes() == _interp_inverse(probe, u).tobytes()


@st.composite
def _tail_tables(draw):
    """Decreasing conditional tails from 1 with repeated knots, steps of
    one ulp, steep drops, an optional stretch flattening toward an atom
    and an optional last tail of 0 (the table's 1e-300 floor)."""
    ratios = draw(st.lists(st.one_of(
        st.just(1.0), st.just(1.0 - 2.0 ** -52),
        st.floats(1e-6, 1.0, exclude_max=True)), min_size=1, max_size=60))
    tails = list(np.cumprod([1.0] + ratios))
    atom = 0.0
    if draw(st.booleans()):
        atom = draw(st.floats(1e-3, 0.9)) * tails[-1]
        q = draw(st.floats(0.3, 0.95))
        gap = tails[-1] - atom
        while gap > 1e-9 * atom:
            gap *= q
            tails.append(atom + gap)
    elif draw(st.booleans()):
        tails.append(0.0)
    # knots evenly spaced in log time over at most TABLE_MAX_DECADES
    decades = draw(st.floats(1e-3, 48.0))
    eps = draw(st.floats(1e-8, 1.0))
    times = eps * 10.0 ** np.linspace(0.0, decades, len(tails))
    sampler = DurationSampler(
        eps=eps, rate=1.0, atom=atom,
        log_tail_rev=np.log(np.maximum(tails[::-1], 1e-300)),
        log_time_rev=np.log(times[::-1]), tail=lambda t: 0.0)
    return sampler, np.array(tails)


class TestIndexedInverse:
    """The guide's inverse against np.interp, bit for bit."""

    @given(table=_tail_tables(),
           extra=st.lists(st.floats(5e-324, 1.0), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, table, extra):
        sampler, tails = table
        _assert_same_bits(sampler, np.concatenate(
            (_edge_queries(sampler, tails), extra)))

    @pytest.mark.parametrize("name", sorted(SAMPLERS) + ["custom q^2"])
    def test_samplers(self, name):
        s = (DurationSampler.from_mechanisms(
                CustomBranching(eval=lambda q: q * q), HALF_DRIFT, 1e-3)
             if name == "custom q^2" else SAMPLERS[name]())
        u = 1.0 - _rng(9).random(20_000)
        _assert_same_bits(s, np.concatenate(
            (_edge_queries(s, np.exp(s.log_tail_rev)), u, u ** 40)))


def _seeded_outputs():
    """Seeded outputs of every entry point that draws durations."""
    drift = DurationSampler.from_mechanisms(FELLER, HALF_DRIFT, 1e-3).rate
    supercritical = QuadraticBranching(b=-1.0, sigma2=2.0)
    atom_rate = DurationSampler.from_mechanisms(
        supercritical, ROOT_HALF, 1e-3).rate
    out = []
    for seed in range(10):
        for marks in (0.5 * LADDER_MIN_MARKS, 2.0 * LADDER_MIN_MARKS):
            out.append(sample_cutout(FELLER, HALF_DRIFT, marks / drift,
                                     1e-3, seed).intervals)
            out.append(sample_cutout(supercritical, ROOT_HALF,
                                     marks / atom_rate, 1e-3, seed).intervals)
        out.append(sample_ou_cutout(1.8, 10.0, 1e-3, seed).intervals)
        out.append(sample_ou_cutout(1.8, 100.0, 1e-3, seed).intervals)
        out.append(empirical_gzero(FELLER, ROOT_HALF, 20, 30.0, 1e-4, seed))
    return [a.tobytes() for a in out]


# SHA-256 of the intervals of seeds 0-9, one after the other, as the
# ladder drew them before it carried replicates in batches
LADDER_DIGESTS = {
    "feller drift": "1e215870ed76a8b7cb9d48edf99366cb09497cd34b2a821f3b656cd2ef21a7cd",
    "atom": "fdc40fb7293933fcea298ab1bce54863d2933ccf67dcc7e88d4598f648f15d2e",
    "ou 1.8": "3d7995dfd269dc2a6588c9375d38fc09a246a7364b10c8121b2945ea0487b9cd",
}


@pytest.mark.parametrize("name", sorted(LADDER_DIGESTS))
def test_ladder_realizations_keep_their_bits(name):
    supercritical = QuadraticBranching(b=-1.0, sigma2=2.0)
    draw = {
        "feller drift": lambda seed: sample_cutout(
            FELLER, HALF_DRIFT, 2.0 * LADDER_MIN_MARKS / 500.0, 1e-3, seed),
        "atom": lambda seed: sample_cutout(
            supercritical, ROOT_HALF, 2.0 * LADDER_MIN_MARKS
            / _cached_sampler(supercritical, ROOT_HALF, 1e-3).rate, 1e-3, seed),
        "ou 1.8": lambda seed, ou=_ou_sampler(): cutout_with_sampler(ou, 100.0, seed),
    }[name]
    digest = hashlib.sha256()
    for seed in range(10):
        digest.update(draw(seed).intervals.tobytes())
    assert digest.hexdigest() == LADDER_DIGESTS[name]


def _mark_draws(name):
    """(T, sampler) of each pinned mark-sweep case."""
    feller = QuadraticBranching(b=0.0, sigma2=2.0)
    return {
        "short sqrt(q)": lambda: (30.0, _cached_sampler(
            feller, StableImmigration(dprime=1.0, beta=0.5), 1e-4)),
        "short sqrt(q)/4": lambda: (30.0, _cached_sampler(
            feller, StableImmigration(dprime=0.25, beta=0.5), 1e-4)),
        "atom": lambda: (30.0, _atom_sampler()),
        "feller drift": lambda: (10.0, DurationSampler.from_mechanisms(
            FELLER, HALF_DRIFT, 1e-3)),
        "ou 1.8": lambda: (10.0, _ou_sampler()),
        # the first birth lies near 1e-2, past the horizon
        "before first birth": lambda: (1e-6, DurationSampler.from_mechanisms(
            FELLER, ROOT_HALF, 1e-4)),
    }[name]()


# SHA-256 of the intervals and frontier of seeds 0-9 of _mark_sweep, one
# after the other; "chunks of 64" draws "feller drift" 64 marks at a time
MARK_DIGESTS = {
    "short sqrt(q)":
        "bbd116a870c9bb00026677cbaf01edb237c60fcb19dbb7887d6c7f46545e8b85",
    "short sqrt(q)/4":
        "ee255a59967d1514d195c5575987737e35c18a17aaedbc58cece00e6d422e321",
    "atom":
        "907be467a852c61f58b9a590b5a197e7153d799d2940769a509443113db34bd4",
    "feller drift":
        "db5c3fcc28e28ce8d55f1eed088adfa5c93e30ef322911e2bb5e21b84fce927b",
    "ou 1.8":
        "24569058fcc85a78530a784bd3f56a959d0d3db25af6d6041df5ae5938207780",
    "before first birth":
        "49cb7951a20e5ce73bcdb8a003822b5120e3a1280b9496dcf48ef245fbdd0cdc",
    "chunks of 64":
        "26ce23b3a0a73db28adf417071b0e24616388dd3a2159a06b5cb57ff94eb44f8",
}


@pytest.mark.parametrize("name", sorted(MARK_DIGESTS))
def test_mark_sweep_realizations_keep_their_bits(name, monkeypatch):
    if name == "chunks of 64":
        monkeypatch.setattr(cutout_module, "_CHUNK", 64)
    T, sampler = _mark_draws("feller drift" if name == "chunks of 64" else name)
    digest = hashlib.sha256()
    for seed in range(10):
        intervals, frontier = _mark_sweep(T, sampler, _rng(seed))
        digest.update(intervals.tobytes())
        digest.update(np.float64(frontier).tobytes())
    assert digest.hexdigest() == MARK_DIGESTS[name]


def test_seeded_realizations_match_the_interp_inverse(monkeypatch):
    ours = _seeded_outputs()
    monkeypatch.setattr(DurationSampler, "_inverse", _interp_inverse)
    assert _seeded_outputs() == ours


def test_least_squares_line_matches_linregress():
    rng = np.random.default_rng(8)
    for n in (2, 3, 10, 40):
        xs = np.sort(rng.normal(size=n)) * 5.0
        ys = 0.7 * xs + rng.normal(size=n)
        fit = stats.linregress(xs, ys)
        slope, intercept, stderr = least_squares_line(xs, ys)
        assert slope == pytest.approx(fit.slope, rel=1e-12, abs=1e-12)
        assert intercept == pytest.approx(fit.intercept, rel=1e-12, abs=1e-12)
        assert stderr == pytest.approx(fit.stderr, rel=1e-12, abs=1e-12)
    flat = least_squares_line([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert flat == (0.0, 4.0, 0.0)
