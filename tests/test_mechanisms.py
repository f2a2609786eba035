"""Mechanism families, analytic checks, and the spec-string grammar."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import poch

from cbizero.mechanisms import (
    BranchingMechanism,
    CompoundPoissonImmigration,
    CustomBranching,
    CustomImmigration,
    EvaluationError,
    GammaImmigration,
    LampertiImmigration,
    MechanismDomainError,
    MechanismParseError,
    PositivityError,
    QuadraticBranching,
    StableBranching,
    StableImmigration,
    conservativity_check,
    grey_check,
    largest_root,
    parse_branching,
    parse_immigration,
    parse_mechanism,
    positivity_threshold,
    scale_immigration,
)


class TestEvaluation:
    def test_stable_branching_values(self):
        psi = StableBranching(d=2.0, alpha=1.5)
        assert psi(0.0) == 0.0
        assert psi(4.0) == pytest.approx(16.0)

    def test_stable_branching_overflow_is_inf(self):
        psi = StableBranching(d=1.0, alpha=2.0)
        assert psi(1e200) == math.inf

    def test_quadratic_values(self):
        psi = QuadraticBranching(b=-1.0, sigma2=2.0)
        assert psi(1.0) == 0.0
        assert psi(2.0) == pytest.approx(2.0)
        assert psi(0.5) == pytest.approx(-0.25)

    def test_gamma_immigration(self):
        phi = GammaImmigration(a=2.0, b=3.0)
        assert phi(0.0) == 0.0
        assert phi(3.0) == pytest.approx(2.0 * math.log(2.0))

    def test_lamperti_immigration_exact_point(self):
        # Gamma(1.5) / (Gamma(0.5) * Gamma(1)) = 1/2
        phi = LampertiImmigration(beta=0.5)
        assert phi(1.0) == pytest.approx(0.5, rel=1e-12)
        assert phi(0.0) == 0.0

    def test_lamperti_beta_one_is_identity(self):
        phi = LampertiImmigration(beta=1.0)
        for q in (0.5, 1.0, 7.0):
            assert phi(q) == pytest.approx(q, rel=1e-12)

    def test_lamperti_large_argument_power_law(self):
        # phi(q) ~ q**beta / Gamma(beta); the lgamma-difference form loses
        # all precision by q ~ 1e18, so check against the limit directly
        phi = LampertiImmigration(beta=0.999)
        for q in (1e8, 1e12, 2.0**60):
            target = math.exp(0.999 * math.log(q) - math.lgamma(0.999))
            assert phi(q) == pytest.approx(target, rel=1e-6)
        # continuity across the switch from the shifted form to the series
        lo, hi = LampertiImmigration(beta=0.4)(16.0 * (1 - 1e-9)), \
            LampertiImmigration(beta=0.4)(16.0 * (1 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-8)

    def test_compound_poisson_default_jumps(self):
        phi = CompoundPoissonImmigration(mass=3.0)
        assert phi(1.0) == pytest.approx(1.5)
        assert phi(1e12) == pytest.approx(3.0, rel=1e-9)

    def test_negative_argument_rejected(self):
        psi = StableBranching(d=1.0, alpha=2.0)
        with pytest.raises(MechanismDomainError):
            psi(-1.0)

    def test_parameter_validation(self):
        with pytest.raises(MechanismDomainError):
            StableBranching(d=1.0, alpha=1.0)
        with pytest.raises(MechanismDomainError):
            StableBranching(d=0.0, alpha=1.5)
        with pytest.raises(MechanismDomainError):
            StableImmigration(dprime=1.0, beta=0.0)
        with pytest.raises(MechanismDomainError):
            StableImmigration(dprime=1.0, beta=1.5)
        with pytest.raises(MechanismDomainError):
            QuadraticBranching(b=0.0, sigma2=0.0)
        with pytest.raises(MechanismDomainError):
            LampertiImmigration(beta=0.0)

    def test_custom_branching_must_vanish_at_zero(self):
        with pytest.raises(MechanismDomainError):
            CustomBranching(eval=lambda q: q + 1.0)
        # abs(nan) > 1e-9 is False: a NaN at 0 must not pass for a zero
        with pytest.raises(MechanismDomainError, match="vanish at 0"):
            CustomBranching(eval=lambda q: math.nan)
        with pytest.raises(MechanismDomainError, match="vanish at 0"):
            CustomImmigration(eval=lambda q: math.nan)

    @pytest.mark.parametrize("spec", [
        "stable:d=inf,alpha=2", "stable:d=inf,beta=0.5", "quadratic:b=nan,sigma2=2",
        "quadratic:b=0,sigma2=inf", "quadratic:b=-inf,sigma2=2", "gamma:a=inf,b=1",
        "gamma:a=1,b=inf", "cpp:mass=inf"])
    def test_non_finite_spec_parameter_rejected(self, spec):
        with pytest.raises(MechanismParseError, match="needs a finite"):
            parse_mechanism(spec)

    @pytest.mark.parametrize("family, declared", [
        (CustomImmigration, {"drift": math.inf}),
        (CustomImmigration, {"ind_upper": math.nan}),
        (CustomImmigration, {"ind0_lower": math.nan}),
    ])
    def test_non_finite_declaration_rejected(self, family, declared):
        name, = declared
        with pytest.raises(MechanismDomainError, match=f"needs a finite {name}"):
            family(eval=lambda q: q * q, **declared)

    def test_scaled_copy_of_an_inconclusive_profile_declares_nothing(self):
        # phi underflows at the probes near 0, so its slope there is NaN
        phi = CustomImmigration(eval=lambda q: 1e-320 * q)
        assert phi.profile().inconclusive
        copy = scale_immigration(phi, 2.0)
        assert copy.ind_lower is None and copy.ind0_upper is None
        assert copy.profile().inconclusive


# --- evaluation over an array of points ------------------------------------

# 0, then 1e-300 ... 1e300 a decade apart, then the scale of the scans
NODES = np.concatenate([[0.0], np.logspace(-300, 300, 121), np.linspace(0.05, 8.0, 40)])
ARRAY_FAMILIES = {
    "stable-1.3": StableBranching(d=2.5, alpha=1.3),
    "feller": StableBranching(d=1.0, alpha=2.0),
    "quadratic": QuadraticBranching(b=-1.0, sigma2=2.0),
    "drift-only": QuadraticBranching(b=1.0, sigma2=0.0),
    "stable-0.3": StableImmigration(dprime=1.0, beta=0.3),
    "drift": StableImmigration(dprime=0.5, beta=1.0),
    "gamma": GammaImmigration(a=2.0, b=1e-3),
    "cpp": CompoundPoissonImmigration(mass=2.0),
    "lamperti": LampertiImmigration(beta=0.5),
}
# families whose values are the pointwise calls bit for bit
FALLBACK_FAMILIES = {
    # a user-written compound-Poisson exponent is a custom immigration
    "cpp-tail": CustomImmigration(eval=lambda q: 2.0 * -math.expm1(-q)),
}


def _undeclared_copy(mech):
    if isinstance(mech, BranchingMechanism):
        return CustomBranching(eval=lambda q: mech(q))
    return CustomImmigration(eval=lambda q: mech(q))


COPIES = {f"custom-{name}": _undeclared_copy(mech)
          for name, mech in {**ARRAY_FAMILIES, **FALLBACK_FAMILIES}.items()}
EVERY = {**ARRAY_FAMILIES, **FALLBACK_FAMILIES, **COPIES}


def _array_and_pointwise(mech):
    with np.errstate(over="ignore"):
        array = mech.values(NODES)
    return array.tolist(), [mech(q) for q in NODES.tolist()]


class TestArrayEvaluation:
    @pytest.mark.parametrize("name", sorted(ARRAY_FAMILIES))
    def test_numpy_form_matches_pointwise_calls(self, name):
        array, pointwise = _array_and_pointwise(ARRAY_FAMILIES[name])
        for q, got, want in zip(NODES.tolist(), array, pointwise):
            if q == 0.0:
                assert got == want == 0.0
            elif math.isinf(want):
                assert got == want, q
            else:
                assert abs(got - want) <= 4.0 * math.ulp(want), q

    @pytest.mark.parametrize("name", sorted({**FALLBACK_FAMILIES, **COPIES}))
    def test_fallback_is_bitwise_pointwise(self, name):
        array, pointwise = _array_and_pointwise(EVERY[name])
        assert array == pointwise

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.999, 1.0])
    def test_lamperti_values_match_calls_on_every_branch(self, beta):
        # q = 0, the shift to q + 16 below 16 and the series from 16 on,
        # with the neighbours of the switch
        edge = np.array([0.0, 5e-324, 16.0, np.nextafter(16.0, 0.0),
                         np.nextafter(16.0, 32.0), 1e300, math.inf])
        qs = np.concatenate((edge, 10.0 ** np.random.default_rng(45).uniform(
            -300.0, 300.0, 20_000)))
        mech = LampertiImmigration(beta=beta)
        got, want = mech.values(qs), np.array([mech(q) for q in qs.tolist()])
        finite = np.isfinite(want)
        assert got[0] == want[0] == 0.0
        assert got[~finite].tolist() == want[~finite].tolist() == [math.inf]
        got, want = got[finite], want[finite]
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 1.0])
    def test_lamperti_matches_the_pochhammer_ratio(self, beta):
        # Gamma(q + beta) / (Gamma(q) Gamma(beta)), which scipy's poch gives
        # within 2.7e-11 of 50 digits on this grid
        qs = np.logspace(-7.0, 14.0, 2101)
        want = poch(qs, beta) / math.gamma(beta)
        mech = LampertiImmigration(beta=beta)
        for got in (mech.values(qs), np.array([mech(q) for q in qs.tolist()])):
            assert np.max(np.abs(got / want - 1.0)) <= 1e-10

    def test_overflow_is_inf(self):
        with np.errstate(over="ignore"):
            values = StableBranching(d=1.0, alpha=2.0).values(np.array([1.0, 1e200]))
        assert values.tolist() == [1.0, math.inf]

    @staticmethod
    def _failing(q):
        if q == 3.0:
            raise OverflowError("too large")
        if q == 5.0:
            raise ValueError("no value")
        return 0.5 * q

    @staticmethod
    def _outcome(evaluate):
        try:
            return evaluate()
        except EvaluationError as exc:
            return str(exc)

    @pytest.mark.parametrize("make", [
        lambda h: CustomBranching(eval=h), lambda h: CustomImmigration(eval=h)],
        ids=["branching", "immigration"])
    def test_failing_handle_reads_as_pointwise_calls(self, make):
        # a bare handle that raises anywhere hands the array to __call__:
        # the values, or the error naming the first point that fails, are
        # those of one call per point
        mech = make(self._failing)
        for qs in ([1.0, 2.0], [1.0, 3.0, 4.0], [1.0, 3.0, 5.0, 6.0], [5.0, 3.0],
                   [3.0, 6.0, 5.0]):
            assert self._outcome(lambda: mech.values(np.array(qs)).tolist()) == \
                self._outcome(lambda: [mech(q) for q in qs])

    @pytest.mark.parametrize("custom", [CustomBranching, CustomImmigration])
    def test_custom_handle_overflow_is_inf_and_errors_name_the_point(self, custom):
        calls = []

        def handle(q):
            calls.append(q)
            return self._failing(q)
        mech = custom(eval=handle)
        calls.clear()
        assert mech.values(np.array([1.0, 2.0])).tolist() == [0.5, 1.0]
        assert calls == [1.0, 2.0]           # bare: one call per point
        assert mech.values(np.array([1.0, 3.0, 4.0])).tolist() == [0.5, math.inf, 2.0]
        with pytest.raises(EvaluationError, match=r"at q=5\.0$"):
            mech.values(np.array([1.0, 3.0, 5.0, 6.0]))

    @pytest.mark.parametrize("name", sorted(EVERY))
    def test_negative_point_rejected(self, name):
        with pytest.raises(MechanismDomainError):
            EVERY[name].values(np.array([0.5, -1e-300, 2.0]))


class TestIndices:
    def test_stable_exact(self):
        idx = StableBranching(d=1.0, alpha=1.7).profile()
        assert idx.closed_form and not idx.inconclusive
        assert idx.ind_lower_inf == idx.ind_upper_inf == 1.7
        assert idx.ind_lower_0 == idx.ind_upper_0 == 1.7

    def test_quadratic_with_diffusion(self):
        idx = QuadraticBranching(b=1.0, sigma2=2.0).profile()
        assert (idx.ind_lower_inf, idx.ind_upper_inf) == (2.0, 2.0)
        assert (idx.ind_lower_0, idx.ind_upper_0) == (1.0, 1.0)

    def test_quadratic_critical_pure_diffusion(self):
        idx = QuadraticBranching(b=0.0, sigma2=2.0).profile()
        assert (idx.ind_lower_0, idx.ind_upper_0) == (2.0, 2.0)

    def test_gamma_slowly_varying_at_infinity(self):
        idx = GammaImmigration(a=1.0, b=1.0).profile()
        assert (idx.ind_lower_inf, idx.ind_upper_inf) == (0.0, 0.0)
        assert (idx.ind_lower_0, idx.ind_upper_0) == (1.0, 1.0)

    def test_lamperti(self):
        idx = LampertiImmigration(beta=0.3).profile()
        assert (idx.ind_lower_inf, idx.ind_upper_inf) == (0.3, 0.3)
        assert (idx.ind_lower_0, idx.ind_upper_0) == (1.0, 1.0)

    def test_custom_declared_indices_trusted(self):
        phi = CustomImmigration(eval=lambda q: q / (1.0 + q), ind_lower=0.0,
                                ind_upper=0.0, ind0_lower=1.0, ind0_upper=1.0)
        idx = phi.profile()
        assert not idx.closed_form and not idx.inconclusive
        assert (idx.ind_lower_inf, idx.ind_upper_inf) == (0.0, 0.0)
        assert (idx.ind_lower_0, idx.ind_upper_0) == (1.0, 1.0)

    def test_custom_probe_recovers_power(self):
        phi = CustomImmigration(eval=lambda q: 2.0 * q ** 0.4 if q > 0 else 0.0)
        idx = phi.profile()
        assert not idx.closed_form
        assert idx.ind_lower_inf == pytest.approx(0.4, abs=1e-6)
        assert idx.ind_upper_0 == pytest.approx(0.4, abs=1e-6)
        assert not idx.inconclusive

    def test_custom_probe_flags_oscillation(self):
        # log-periodic wobble: slope spread stays above the certainty margin
        phi = CustomBranching(
            eval=lambda q: q ** 1.5 * (1.0 + 0.5 * math.sin(math.log(q))) if q > 0 else 0.0)
        idx = phi.profile()
        assert idx.inconclusive


class TestThresholdAndRoots:
    def test_stable_threshold(self):
        assert positivity_threshold(StableBranching(d=1.0, alpha=1.5)) == 1.0

    def test_supercritical_quadratic_threshold_above_root(self):
        psi = QuadraticBranching(b=-1.0, sigma2=2.0)  # root at 1
        assert positivity_threshold(psi) == 2.0
        assert largest_root(psi) == pytest.approx(1.0)

    def test_root_on_power_of_two(self):
        psi = QuadraticBranching(b=-4.0, sigma2=2.0)  # root at 4
        assert positivity_threshold(psi) == 8.0
        assert largest_root(psi) == pytest.approx(4.0)

    def test_subcritical_roots_at_zero(self):
        assert largest_root(StableBranching(d=1.0, alpha=2.0)) == 0.0
        assert largest_root(QuadraticBranching(b=2.0, sigma2=1.0)) == 0.0

    def test_custom_root_found(self):
        psi = CustomBranching(eval=lambda q: q * q - 3.0 * q)
        assert largest_root(psi) == pytest.approx(3.0, rel=1e-10)

    @pytest.mark.parametrize("c", [1e-100, 1e-6, 1e6, 1e12])
    def test_custom_root_far_from_one(self, c, brent_calls, brentq_twin):
        # at c = 1e-100 the solve meets interpolation denominators that
        # underflow to 0, where it must bisect as brentq does
        psi = CustomBranching(eval=lambda q: q * q - c * q)
        assert largest_root(psi) == pytest.approx(c, rel=1e-12)
        [(args, kwargs)] = brent_calls
        ours, reference = brentq_twin(*args, **kwargs)
        assert ours == reference

    def test_everywhere_nonpositive_raises(self):
        psi = QuadraticBranching(b=-1.0, sigma2=0.0)
        with pytest.raises(PositivityError):
            positivity_threshold(psi)

    def test_derivative_at_zero(self):
        assert StableBranching(d=1.0, alpha=1.5).derivative_at_zero() == 0.0
        assert QuadraticBranching(b=-2.0, sigma2=1.0).derivative_at_zero() == -2.0
        # a custom handle's derivative is derived: psi(h)/h at h = 1e-8
        psi = CustomBranching(eval=lambda q: 3.0 * q + q * q)
        assert psi.derivative_at_zero() == pytest.approx(3.0, rel=1e-7)


class TestGreyAndConservativity:
    def test_grey_holds_for_stable(self):
        # int_1^inf q**-1.5 dq = 2
        verdict = grey_check(StableBranching(d=1.0, alpha=1.5))
        assert verdict.is_yes
        assert verdict.evidence["total"] == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("psi", [StableBranching(d=1e-13, alpha=2.0),
                                     QuadraticBranching(b=0.0, sigma2=2e-13),
                                     CustomBranching(eval=lambda q: 1e-13 * q * q)],
                             ids=["stable", "quadratic", "custom"])
    def test_grey_is_scale_free(self, psi):
        # int_1^inf dq/psi = 1e13: a large total is not a divergent one
        verdict = grey_check(psi)
        assert verdict.is_yes
        assert verdict.evidence["total"] == pytest.approx(1e13, rel=1e-9)

    def test_grey_fails_for_pure_drift(self):
        verdict = grey_check(QuadraticBranching(b=1.0, sigma2=0.0))
        assert verdict.is_no

    def test_grey_borderline_never_claims_convergence(self):
        # int dq/(q log q) diverges, but only log-log slowly; the honest
        # verdict here is No or Inconclusive, never Yes
        psi = CustomBranching(eval=lambda q: q * math.log1p(q))
        assert not grey_check(psi).is_yes

    def test_grey_fails_for_linear_custom(self):
        psi = CustomBranching(eval=lambda q: 2.0 * q)
        assert grey_check(psi).is_no

    def test_conservative_stable(self):
        assert conservativity_check(StableBranching(d=1.0, alpha=2.0)).is_yes

    def test_conservative_supercritical_quadratic(self):
        assert conservativity_check(QuadraticBranching(b=-1.0, sigma2=2.0)).is_yes

    def test_nonconservative_custom(self):
        # psi(q) = -sqrt(q): int_0 dq/sqrt(q) converges, so mass can explode
        psi = CustomBranching(eval=lambda q: -math.sqrt(q))
        assert conservativity_check(psi).is_no


class TestImmigrationStructure:
    def test_drift_detection(self):
        assert StableImmigration(dprime=2.0, beta=1.0).linear_drift() == 2.0
        assert StableImmigration(dprime=2.0, beta=0.5).linear_drift() == 0.0
        assert LampertiImmigration(beta=1.0).linear_drift() == 1.0
        assert GammaImmigration(a=1.0, b=1.0).linear_drift() == 0.0

    def test_compound_poisson_family_is_yes(self):
        assert CompoundPoissonImmigration(mass=1.0).compound_poisson().is_yes

    def test_unbounded_exponents_are_no(self):
        assert GammaImmigration(a=1.0, b=1.0).compound_poisson().is_no
        assert StableImmigration(dprime=1.0, beta=0.5).compound_poisson().is_no

    def test_drift_blocks_compound_poisson(self):
        assert StableImmigration(dprime=1.0, beta=1.0).compound_poisson().is_no

    def test_custom_bounded_probe_is_yes(self):
        phi = CustomImmigration(eval=lambda q: 2.0 * (1.0 - math.exp(-q)))
        assert phi.compound_poisson().is_yes

    def test_scaling_preserves_family(self):
        phi = scale_immigration(StableImmigration(dprime=1.0, beta=0.5), 3.0)
        assert isinstance(phi, StableImmigration)
        assert phi(4.0) == pytest.approx(6.0)
        gam = scale_immigration(GammaImmigration(a=1.0, b=2.0), 2.0)
        assert isinstance(gam, GammaImmigration)
        assert gam(2.0) == pytest.approx(2.0 * math.log(2.0))

    def test_scaling_wraps_lamperti(self):
        base = LampertiImmigration(beta=0.5)
        phi = scale_immigration(base, 4.0)
        assert phi(1.0) == pytest.approx(2.0)
        idx = phi.profile()
        assert idx.ind_lower_inf == 0.5 and idx.ind_lower_0 == 1.0


class TestGrammar:
    def test_parse_branching_families(self):
        psi = parse_branching("stable:d=1.0,alpha=1.5")
        assert isinstance(psi, StableBranching) and psi.alpha == 1.5
        psi = parse_branching("quadratic:b=-1.0,sigma2=2.0")
        assert isinstance(psi, QuadraticBranching) and psi.b == -1.0

    def test_parse_immigration_families(self):
        phi = parse_immigration("stable:d=0.5,beta=0.5")
        assert isinstance(phi, StableImmigration) and phi.dprime == 0.5
        assert isinstance(parse_immigration("gamma:a=1,b=2"), GammaImmigration)
        assert isinstance(parse_immigration("lamperti:beta=0.7"), LampertiImmigration)
        assert isinstance(parse_immigration("cpp:mass=2"), CompoundPoissonImmigration)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(MechanismParseError):
            parse_branching("gamma:a=1,b=2")
        with pytest.raises(MechanismParseError):
            parse_immigration("quadratic:b=1,sigma2=1")

    def test_errors_carry_position(self):
        with pytest.raises(MechanismParseError) as info:
            parse_mechanism("stable:d=abc,alpha=2")
        assert info.value.position > 0
        with pytest.raises(MechanismParseError):
            parse_mechanism("nosuch:a=1")
        with pytest.raises(MechanismParseError):
            parse_mechanism("stable")
        with pytest.raises(MechanismParseError):
            parse_mechanism("stable:d=1,d=2,alpha=2")
        with pytest.raises(MechanismParseError):
            parse_mechanism("stable:d=1,alpha=2,extra=3")

    @pytest.mark.parametrize("spec, position, message", [
        ("gamma:a=zz", 8, "bad number 'zz' for 'a'"),
        ("gamma:a=1,b=zz", 12, "bad number 'zz' for 'b'"),
        ("gamma:a=1, b=zz", 13, "bad number 'zz' for 'b'"),
        ("gamma :a=zz", 9, "bad number 'zz' for 'a'"),
        ("  gamma: a= zz", 12, "bad number ' zz' for 'a'"),
        ("stable:d=1,d=2,alpha=2", 11, "duplicate parameter 'd'"),
        ("stable:d=1, =2", 11, "empty parameter name"),
        ("stable:", 7, "missing parameter list"),
        ("gamma :a=1", 7, "gamma needs exactly ['a', 'b']"),
        (" quadratic:b=1", 11, "quadratic needs exactly ['b', 'sigma2']"),
        ("stable:d=1,beta=2,alpha=1", 7,
         "stable needs either d,alpha (branching) or d,beta (immigration)"),
        ("stable: d=1,alpha=3", 7, "stable branching needs alpha in (1, 2], got 3.0"),
        (" nosuch:a=1", 1, "unknown mechanism family 'nosuch'"),
        ("stable", 0, "expected family:params"),
    ])
    def test_exact_positions_in_raw_string(self, spec, position, message):
        with pytest.raises(MechanismParseError) as info:
            parse_mechanism(spec)
        assert info.value.position == position
        assert str(info.value) == f"{message} (at position {position})"

    def test_domain_errors_surface_as_parse_errors(self):
        with pytest.raises(MechanismParseError):
            parse_mechanism("stable:d=1,alpha=3")

    def test_custom_has_no_spec_string(self):
        with pytest.raises(MechanismDomainError):
            CustomBranching(eval=lambda q: q * q).spec()

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1.0, max_value=2.0, exclude_min=True))
    def test_stable_branching_roundtrip(self, d, alpha):
        psi = StableBranching(d=d, alpha=alpha)
        back = parse_branching(psi.spec())
        assert back == psi

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_stable_immigration_roundtrip(self, d, beta):
        phi = StableImmigration(dprime=d, beta=beta)
        back = parse_immigration(phi.spec())
        assert back == phi

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=1e-3, max_value=10))
    def test_quadratic_roundtrip(self, b, sigma2):
        psi = QuadraticBranching(b=b, sigma2=sigma2)
        assert parse_branching(psi.spec()) == psi

    @pytest.mark.parametrize("family", [
        st.builds(GammaImmigration, a=st.floats(min_value=1e-3, max_value=1e3),
                  b=st.floats(min_value=1e-3, max_value=1e3)),
        st.builds(LampertiImmigration,
                  beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        st.builds(CompoundPoissonImmigration, mass=st.floats(min_value=1e-3, max_value=1e3)),
    ], ids=["gamma", "lamperti", "cpp"])
    @given(data=st.data())
    def test_immigration_family_roundtrip(self, family, data):
        phi = data.draw(family)
        assert parse_immigration(phi.spec()) == phi
