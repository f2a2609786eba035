"""Stable OU zero sets: classification, cutting measure, simulation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest, linregress

from cbizero.classify import RECURRENT, TRIVIAL_POINT
from cbizero.cutout import CutoutError, DurationSampler, sample_durations, statistics
from cbizero.mechanisms import MechanismDomainError, QuadraticBranching, StableImmigration
from cbizero.ou import (
    StableOUSpec,
    cutting_density,
    cutting_tail,
    levy_tail,
    ou_classify,
    ou_sampler,
    pushforward_ks,
    pushforward_samples,
    sample_ou_cutout,
)
from cbizero.zeroset import lamperti_kappa


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
        rep = ou_classify(1.8)
        assert rep.dim == pytest.approx(1.0 / 1.8)
        assert rep.beta == pytest.approx(1.0 - 1.0 / 1.8)

    def test_domain(self):
        for bad in (0.0, -1.0, 2.5, math.nan):
            with pytest.raises(MechanismDomainError):
                ou_classify(bad)

    def test_as_dict_keys(self):
        d = ou_classify(1.5).as_dict()
        assert set(d) == {"class", "dim", "beta"}


class TestStableOUSpec:
    def test_beta_property(self):
        assert StableOUSpec(alpha=0.9).beta is None
        assert StableOUSpec(alpha=1.0).beta is None
        assert StableOUSpec(alpha=1.6).beta == pytest.approx(1 - 1 / 1.6)

    def test_validation(self):
        with pytest.raises(MechanismDomainError):
            StableOUSpec(alpha=3.0)


class TestCuttingMeasure:
    def test_density_substitution(self):
        # alpha=2: 0.5 * 2 / (2-1)^2 = 1
        assert cutting_density(math.log(2.0), 2.0) == pytest.approx(1.0)

    def test_tail_antiderivative(self):
        assert cutting_tail(math.log(2.0), 2.0) == pytest.approx(0.5)

    def test_tail_integrates_density(self):
        for alpha, z in ((2.0, 0.3), (1.5, 1.7), (1.2, 0.05)):
            value = quad(lambda v: cutting_density(v, alpha), z, math.inf,
                         epsabs=0.0, epsrel=1e-12, limit=200)[0]
            assert value == pytest.approx(cutting_tail(z, alpha), rel=1e-9)

    def test_large_lag_asymptotics(self):
        beta = 0.5
        assert cutting_density(40.0, 2.0) == pytest.approx(
            (1 - beta) * math.exp(-40.0), rel=1e-6)

    def test_small_lag_asymptotics(self):
        # density ~ (1-beta)/z^2, tail ~ (1-beta)/z
        assert cutting_density(1e-9, 2.0) == pytest.approx(0.5e18, rel=1e-6)
        assert cutting_tail(1e-9, 2.0) == pytest.approx(0.5e9, rel=1e-6)

    def test_huge_lag_underflows_to_zero(self):
        assert cutting_density(1e4, 1.5) == 0.0
        assert cutting_tail(1e4, 1.5) == 0.0

    def test_domain(self):
        with pytest.raises(MechanismDomainError):
            cutting_density(0.0, 2.0)
        with pytest.raises(MechanismDomainError):
            cutting_tail(-1.0, 2.0)
        with pytest.raises(MechanismDomainError, match="single point"):
            cutting_density(1.0, 1.0)
        with pytest.raises(MechanismDomainError):
            cutting_tail(1.0, 0.8)


class TestLevyTail:
    def test_decreasing(self):
        xs = np.geomspace(1e-4, 10.0, 40)
        vals = [levy_tail(float(x), 1.7) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_lag_slope(self):
        # nu(x, inf) ~ C x^{-(1-beta)} as x -> 0; 1 - beta = 1/alpha
        xs = np.geomspace(1e-3, 1e-2, 9)
        for alpha in (1.5, 2.0):
            ys = [math.log(levy_tail(float(x), alpha)) for x in xs]
            slope = linregress(np.log(xs), ys).slope
            assert slope == pytest.approx(-1.0 / alpha, rel=0.02)

    def test_scale_multiplies(self):
        assert levy_tail(0.7, 1.5, scale=3.0) == pytest.approx(
            3.0 * levy_tail(0.7, 1.5), rel=1e-12)

    def test_no_overflow_at_huge_lag(self):
        assert 0.0 <= levy_tail(1000.0, 2.0) < 1e-200

    def test_domain(self):
        with pytest.raises(MechanismDomainError):
            levy_tail(0.0, 2.0)
        with pytest.raises(MechanismDomainError):
            levy_tail(1.0, 2.0, scale=0.0)

    def test_kappa_index_at_infinity(self):
        # the subordinator exponent grows like gamma^{1-beta}
        for alpha in (1.5, 2.0):
            beta = 1.0 - 1.0 / alpha
            slope = math.log(lamperti_kappa(2000.0, beta)
                             / lamperti_kappa(1000.0, beta)) / math.log(2.0)
            assert slope == pytest.approx(1.0 - beta, rel=0.01)


class TestDurationLaw:
    def test_rate_matches_tail(self):
        s = ou_sampler(2.0, 1e-3)
        assert s.rate == pytest.approx(cutting_tail(1e-3, 2.0), rel=1e-12)
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
        # psi = q + q^2 has v_t = 1/expm1(t), so phi(q) = q/alpha cuts with the
        # tail (1/alpha)/(e^z - 1) of the cutting measure
        want = ou_sampler(alpha, eps)
        got = DurationSampler.from_mechanisms(QuadraticBranching(b=1.0, sigma2=2.0),
                                              StableImmigration(dprime=1.0 / alpha, beta=1.0),
                                              eps)
        assert got.rate == pytest.approx(want.rate, rel=1e-15, abs=0.0)
        assert got.atom == want.atom == 0.0
        assert got.log_tail_rev.size == want.log_tail_rev.size
        np.testing.assert_allclose(got.log_tail_rev, want.log_tail_rev, rtol=0.0, atol=1e-14)

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
        with pytest.raises(CutoutError, match="eps"):
            pushforward_samples(2.0, 0.0, 10, 1)
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
        rate = cutting_tail(eps, alpha)

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
        with pytest.raises(MechanismDomainError):
            sample_ou_cutout(0.9, 10.0, 1e-3, 1)
