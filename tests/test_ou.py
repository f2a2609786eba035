"""Stable OU zero sets: the CBI pair (q + q^2, q/alpha), its cutting
measure, simulation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from cbizero.classify import RECURRENT, TRIVIAL_POINT, classify_zero_state
from cbizero.cutout import (
    CutoutError,
    DurationSampler,
    sample_cutout,
    sample_durations,
    statistics,
)
from cbizero.mechanisms import MechanismDomainError, QuadraticBranching, StableImmigration
from cbizero.ou import (
    ou_classify,
    ou_sampler,
    pushforward_ks,
    pushforward_samples,
    sample_ou_cutout,
)
from cbizero.zeroset import lamperti_kappa


def pair(alpha):
    # psi = q + q^2 has v_t = 1/expm1(t), so phi(q) = q/alpha cuts with the
    # tail (1/alpha)/(e^z - 1) of the cutting measure
    return QuadraticBranching(b=1.0, sigma2=2.0), StableImmigration(dprime=1.0 / alpha, beta=1.0)


def cutting_tail(alpha):
    """Closed-form mass (1/alpha)/(e^z - 1) of the cutting measure on
    [z, inf), from e^{-z} so that large lags underflow to 0."""
    return lambda z: (1.0 / alpha) * math.exp(-z) / (-math.expm1(-z))


def cutting_density(z, alpha):
    return (1.0 / alpha) * math.exp(-z) / math.expm1(-z) ** 2


class TestClassify:
    def test_low_index_is_a_point(self):
        for alpha in (0.3, 0.7, 1.0):
            rep = ou_classify(alpha)
            assert rep.zero_class == TRIVIAL_POINT
            assert rep.dim == 0.0
            assert rep.beta is None

    def test_brownian_case(self):
        rep = ou_classify(2.0)
        assert rep.zero_class == RECURRENT
        assert rep.dim == pytest.approx(0.5)
        assert rep.beta == pytest.approx(0.5)

    def test_dim_formula(self):
        # 1 - 1/alpha, the dimension of the zero set of an alpha-stable process
        rep = ou_classify(1.8)
        assert rep.dim == pytest.approx(1.0 - 1.0 / 1.8, rel=1e-12)
        assert rep.beta == pytest.approx(1.0 - 1.0 / 1.8)

    @pytest.mark.parametrize("alpha", [1.0001, 1.05, 1.3, 1.5, 1.8, 1.95, 2.0])
    def test_reads_the_pair(self, alpha):
        rep = ou_classify(alpha)
        report = classify_zero_state(*pair(alpha))
        assert rep.zero_class == report.zero_class == RECURRENT
        assert rep.dim == report.dim_upper == report.dim_lower

    def test_domain(self):
        for bad in (0.0, -1.0, 2.5, math.nan):
            with pytest.raises(MechanismDomainError):
                ou_classify(bad)

    def test_as_dict_keys(self):
        d = ou_classify(1.5).as_dict()
        assert set(d) == {"class", "dim", "beta"}


class TestCuttingMeasure:
    """The cutting measure is the pair's duration tail; its closed-form
    values, read through ``ou_sampler(alpha, eps).tail``."""

    def test_density_substitution(self):
        # alpha=2: 0.5 * 2 / (2-1)^2 = 1, minus the tail's slope at log 2
        tail, z, h = ou_sampler(2.0, 1e-3).tail, math.log(2.0), 1e-5
        assert (tail(z - h) - tail(z + h)) / (2.0 * h) == pytest.approx(1.0, rel=1e-8)

    def test_tail_antiderivative(self):
        assert ou_sampler(2.0, 1e-3).tail(math.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_tail_integrates_density(self):
        for alpha, z in ((2.0, 0.3), (1.5, 1.7), (1.2, 0.05)):
            value = quad(lambda v: cutting_density(v, alpha), z, math.inf,
                         epsabs=0.0, epsrel=1e-12, limit=200)[0]
            assert value == pytest.approx(ou_sampler(alpha, 1e-3).tail(z), rel=1e-9)

    def test_large_lag_asymptotics(self):
        # tail ~ (1-beta) e^{-z}
        assert ou_sampler(2.0, 1e-3).tail(40.0) == pytest.approx(0.5 * math.exp(-40.0), rel=1e-6)

    def test_small_lag_asymptotics(self):
        # tail ~ (1-beta)/z
        assert ou_sampler(2.0, 1e-3).tail(1e-9) == pytest.approx(0.5e9, rel=1e-6)

    def test_huge_lag_underflows_to_zero(self):
        assert ou_sampler(1.5, 1e-3).tail(1e4) == 0.0

    def test_domain(self):
        with pytest.raises(CutoutError, match="eps 0.0 must be finite and positive"):
            ou_sampler(2.0, 0.0)
        with pytest.raises(MechanismDomainError, match="single point"):
            ou_sampler(1.0, 1e-3)
        with pytest.raises(MechanismDomainError):
            ou_sampler(0.8, 1e-3)


class TestLevyTail:
    def test_kappa_index_at_infinity(self):
        # the pair's L(q) is (1 - e^{-1})^{-1/alpha} Gamma(q + beta)/(Gamma(q) Gamma(beta)),
        # a constant times lamperti_kappa(q, 1/alpha), which grows like
        # q^{1 - 1/alpha} = q^beta: the subordinator's Levy tail has index beta at 0
        for alpha in (1.5, 2.0):
            slope = math.log(lamperti_kappa(2000.0, 1.0 / alpha)
                             / lamperti_kappa(1000.0, 1.0 / alpha)) / math.log(2.0)
            assert slope == pytest.approx(1.0 - 1.0 / alpha, rel=0.01)


class TestDurationLaw:
    def test_rate_matches_tail(self):
        s = ou_sampler(2.0, 1e-3)
        assert s.rate == pytest.approx(cutting_tail(2.0)(1e-3), rel=1e-12)
        assert s.atom == 0.0
        assert ou_sampler(2, 1e-3) is s          # one cache entry for 2 and 2.0

    def test_conditional_law(self):
        eps = 1e-3
        d = sample_durations(ou_sampler(2.0, eps), 10000, 4242)
        assert d.min() >= eps and np.isfinite(d).all()
        mass = math.log(math.expm1(eps))

        def cdf(v):
            v = np.asarray(v, dtype=float)
            return 1.0 - np.exp(mass - v - np.log1p(-np.exp(-v)))

        assert kstest(d, cdf).statistic < 0.02

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    @pytest.mark.parametrize("alpha", [1.3, 1.8, 2.0])
    def test_is_the_cutout_of_a_cbi(self, alpha, eps):
        # the pair's table against the closed-form cutting measure's
        want = DurationSampler.from_tail(cutting_tail(alpha), eps)
        got = ou_sampler(alpha, eps)
        assert got.rate == pytest.approx(want.rate, rel=1e-15, abs=0.0)
        assert got.atom == want.atom == 0.0
        assert got.log_tail_rev.size == want.log_tail_rev.size
        np.testing.assert_allclose(got.log_tail_rev, want.log_tail_rev, rtol=0.0, atol=1e-14)
        assert np.array_equal(got.log_time_rev, want.log_time_rev)

    @pytest.mark.parametrize("alpha", [1.3, 2.0])
    @pytest.mark.parametrize("T", [10.0, 100.0], ids=["mark sweep", "ladder"])
    def test_sample_is_the_pairs_cutout(self, alpha, T):
        for seed in range(3):
            ours = sample_ou_cutout(alpha, T, 1e-3, seed)
            theirs = sample_cutout(*pair(alpha), T, 1e-3, seed)
            assert ours.intervals.tobytes() == theirs.intervals.tobytes()
            assert (ours.horizon, ours.eps, ours.seed) == (theirs.horizon, theirs.eps, theirs.seed)

    def test_matches_pushforward_law(self):
        # both pipelines target the truncated normalized cutting measure
        d = sample_durations(ou_sampler(1.5, 1e-3), 10000, 31)
        _, _, z = pushforward_samples(1.5, 1e-3, 10000, 32)
        assert ks_2samp(d, z).statistic < 0.03


class TestPushforward:
    def test_geometry(self):
        eps = 1e-3
        t, x, z = pushforward_samples(1.8, eps, 5000, 7)
        assert t.min() >= 1.0 and t.max() <= math.exp(10.0)
        assert (x >= t * math.expm1(eps) * (1 - 1e-12)).all()
        assert np.allclose(z, np.log1p(x / t))
        assert z.min() >= eps

    def test_deterministic(self):
        a = pushforward_samples(2.0, 1e-3, 100, 5)
        b = pushforward_samples(2.0, 1e-3, 100, 5)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_ks_against_cutting_measure(self):
        assert pushforward_ks(2.0, 1e-3, 10000, 99) < 0.05

    @pytest.mark.parametrize("alpha, eps, n, seed", [(2.0, 1e-3, 10000, 99),
                                                     (1.5, 0.1, 1, 3), (1.2, 1e-5, 777, 8)])
    def test_ks_statistic_matches_scipy(self, alpha, eps, n, seed):
        z = pushforward_samples(alpha, eps, n, seed)[2]
        log_mass = math.log(math.expm1(eps))
        want = kstest(z, lambda v: 1.0 - np.exp(log_mass - v - np.log1p(-np.exp(-v))))
        assert pushforward_ks(alpha, eps, n, seed) == pytest.approx(want.statistic,
                                                                    rel=1e-15, abs=1e-15)

    def test_validation(self):
        for eps in (0.0, math.inf, math.nan):
            with pytest.raises(CutoutError, match=f"eps {eps} must be finite and positive"):
                pushforward_samples(2.0, eps, 10, 1)
            with pytest.raises(CutoutError, match=f"eps {eps} must be finite and positive"):
                pushforward_ks(2.0, eps, 100, 1)
        with pytest.raises(CutoutError, match="at least one"):
            pushforward_samples(2.0, 1e-3, 0, 1)
        with pytest.raises(MechanismDomainError):
            pushforward_samples(1.0, 1e-3, 10, 1)


class TestSampleOUCutout:
    def test_deterministic_and_valid(self):
        a = sample_ou_cutout(1.8, 50.0, 1e-3, 11)
        b = sample_ou_cutout(1.8, 50.0, 1e-3, 11)
        assert np.array_equal(a.intervals, b.intervals)
        assert a.horizon == 50.0 and a.eps == 1e-3
        a.validate()

    def test_lebesgue_matches_survival_integral(self):
        # E[leb] = int_0^T exp(-N(t)) dt with N(t) the expected number of
        # truncated cuts straddling t; strong end-to-end engine oracle
        alpha, eps, T = 1.8, 1e-3, 20.0
        c = 1.0 / alpha
        rate = ou_sampler(alpha, eps).rate

        def survival(t):
            if t <= eps:
                return math.exp(-t * rate)
            n = eps * rate + c * (math.log(math.expm1(t) / math.expm1(eps))
                                  - (t - eps))
            return math.exp(-n)

        exact = quad(survival, 0.0, T, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        vals = [statistics(sample_ou_cutout(alpha, T, eps, s),
                           [1.0, 0.01])["lebesgue"] for s in range(150)]
        assert float(np.mean(vals)) == pytest.approx(exact, rel=0.08)

    def test_recurrence_fraction_grows_to_one(self):
        # unbounded zero set: the last uncovered point crowds the horizon
        fracs = []
        for T in (25.0, 50.0, 100.0):
            hits = sum(
                statistics(sample_ou_cutout(2.0, T, 1e-2, s),
                           [1.0, 0.1])["g_last"] > 0.9 * T
                for s in range(200))
            fracs.append(hits / 200.0)
        assert fracs[0] > 0.7
        assert fracs == sorted(fracs)
        assert fracs[-1] >= 0.99

    def test_fine_scale_dimension(self):
        # with the grid kept two decades above eps the fit tracks the
        # fine-scale box dimension 1 - 1/alpha of the cutting measure
        grids = [0.3, 0.03, 3e-3, 3e-4, 3e-5]
        slopes = [statistics(sample_ou_cutout(1.8, 3.0, 3e-7, s),
                             grids)["dim_fit"]["slope"] for s in range(6)]
        beta = 1.0 - 1.0 / 1.8
        assert abs(float(np.mean(slopes)) - beta) < 0.09

    def test_horizon_scale_dimension_estimate(self):
        # fitting across every available decade (T/10 down to eps) mixes
        # in saturated horizon-scale boxes; values land between the
        # fine-scale dimension and the saturation slope 1
        grids = [10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4]
        slopes = [statistics(sample_ou_cutout(2.0, 100.0, 1e-4, s),
                             grids)["dim_fit"]["slope"] for s in range(5)]
        assert 0.45 < float(np.mean(slopes)) < 0.70

    def test_mark_bound_message(self):
        with pytest.raises(CutoutError, match="too small for horizon"):
            sample_ou_cutout(2.0, 1e6, 1e-9, 1)

    def test_validation(self):
        with pytest.raises(CutoutError, match="horizon"):
            sample_ou_cutout(2.0, 0.0, 1e-3, 1)
        with pytest.raises(CutoutError, match="eps"):
            sample_ou_cutout(2.0, 10.0, -1e-3, 1)
        for eps in (1e-3, math.inf, math.nan):       # the index is checked first
            with pytest.raises(MechanismDomainError):
                sample_ou_cutout(0.9, 10.0, eps, 1)
