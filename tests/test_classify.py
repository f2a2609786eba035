"""Zero-set classification: trichotomy, heaviness, dimensions, fast path."""

import math

import pytest

from cbizero.classify import (
    ClassificationError,
    RECURRENT,
    TRANSIENT,
    POLAR,
    TRIVIAL_POINT,
    NO_IMMIGRATION,
    INCONCLUSIVE_CLASS,
    METHOD_CLOSED,
    METHOD_FASTPATH,
    METHOD_NUMERIC,
    box_dims,
    classify_zero_state,
    heaviness,
    is_supercritical,
    regvar_summary,
    rv_fastpath,
    stationary_exists,
)
from cbizero.flow import weight_between
from cbizero.mechanisms import (
    CompoundPoissonImmigration,
    CustomBranching,
    CustomImmigration,
    EvaluationError,
    GammaImmigration,
    LampertiImmigration,
    QuadraticBranching,
    StableBranching,
    StableImmigration,
)
from test_acceptance import classification_grid

FELLER = StableBranching(d=1.0, alpha=2.0)
SUPER = QuadraticBranching(b=-1.0, sigma2=2.0)
SUBQUAD = QuadraticBranching(b=1.0, sigma2=2.0)


def drift(c):
    return StableImmigration(dprime=c, beta=1.0)


class TestStableOnStable:
    def test_polar_when_ratio_at_least_alpha_minus_one(self):
        report = classify_zero_state(FELLER, drift(1.0))
        assert report.zero_class == POLAR
        assert report.dim_upper is None

    def test_polar_strictly_above(self):
        assert classify_zero_state(FELLER, drift(2.0)).zero_class == POLAR

    def test_recurrent_below(self):
        report = classify_zero_state(FELLER, drift(0.5))
        assert report.zero_class == RECURRENT
        assert report.heavy.is_no
        assert report.dim_upper == pytest.approx(0.5)
        assert report.dim_lower == pytest.approx(0.5)

    def test_transient_weak_immigration(self):
        report = classify_zero_state(FELLER, StableImmigration(dprime=1.0, beta=0.5))
        assert report.zero_class == TRANSIENT
        assert report.heavy.is_yes
        assert (report.dim_upper, report.dim_lower) == (1.0, 1.0)

    def test_polar_strong_immigration_any_alpha(self):
        # rho = beta - alpha > -1
        report = classify_zero_state(StableBranching(d=1.0, alpha=1.3),
                                     StableImmigration(dprime=1.0, beta=0.9))
        assert report.zero_class == POLAR

    def test_transient_non_critical(self):
        report = classify_zero_state(StableBranching(d=1.0, alpha=1.8),
                                     StableImmigration(dprime=1.0, beta=0.3))
        assert report.zero_class == TRANSIENT
        assert report.heavy.is_yes


class TestGammaImmigration:
    def test_alpha_two_boundary_is_recurrent(self):
        # kappa = -1 with limit a/(b d); recurrent exactly when a/b <= d
        report = classify_zero_state(FELLER, GammaImmigration(a=1.0, b=1.0))
        assert report.zero_class == RECURRENT
        assert report.heavy.is_yes
        assert (report.dim_upper, report.dim_lower) == (1.0, 1.0)

    def test_alpha_two_transient_above(self):
        report = classify_zero_state(FELLER, GammaImmigration(a=3.0, b=1.0))
        assert report.zero_class == TRANSIENT
        assert report.heavy.is_yes

    def test_alpha_below_two_always_recurrent(self):
        report = classify_zero_state(StableBranching(d=1.0, alpha=1.5),
                                     GammaImmigration(a=5.0, b=1.0))
        assert report.zero_class == RECURRENT


class TestLampertiImmigration:
    def test_drift_case_polar_at_d_one(self):
        # immigration behaves like q; polar exactly when d <= 1/Gamma(2) = 1
        assert classify_zero_state(FELLER, LampertiImmigration(beta=1.0)).zero_class == POLAR

    def test_drift_case_recurrent_at_d_two(self):
        report = classify_zero_state(StableBranching(d=2.0, alpha=2.0),
                                     LampertiImmigration(beta=1.0))
        assert report.zero_class == RECURRENT
        assert report.dim_upper == pytest.approx(0.5)

    def test_fractional_case_recurrent(self):
        # rho = -1.5 so heavy; near zero the immigration has unit slope, and
        # kappa-bar = 1 <= ind(Psi) - 1 lands on the recurrent side
        report = classify_zero_state(FELLER, LampertiImmigration(beta=0.5))
        assert report.zero_class == RECURRENT
        assert report.heavy.is_yes

    def test_fractional_case_transient(self):
        # halving d doubles kappa-bar past the boundary
        report = classify_zero_state(StableBranching(d=0.5, alpha=2.0),
                                     LampertiImmigration(beta=0.5))
        assert report.zero_class == TRANSIENT
        assert report.heavy.is_yes


class TestSupercritical:
    def test_never_recurrent(self):
        report = classify_zero_state(SUPER, drift(0.5))
        assert report.zero_class == TRANSIENT
        report = classify_zero_state(SUPER, drift(0.5), numeric_only=True)
        assert report.zero_class == TRANSIENT

    def test_weak_drift_is_decided_numerically(self):
        # the inner integral's panel ratios settle at 2^-0.25 = 0.84; its
        # geometric tail is certain before the panels reach the root
        report = classify_zero_state(SUPER, drift(0.25), numeric_only=True)
        assert report.zero_class == TRANSIENT
        assert report.evidence["inner"]["rule"] == "geometric"

    @pytest.mark.parametrize("route", ["family", "custom"])
    def test_inner_scan_resolves_near_the_root(self, route):
        # psi = q^2 - q cancels near its root 1; the panels there once ended
        # hundreds of bisections unresolved (CHANGES.md FOUND 10)
        psi, phi = SUPER, drift(0.5)
        if route == "custom":
            psi, phi = CustomBranching(eval=lambda q: SUPER(q)), CustomImmigration(eval=phi)
        report = classify_zero_state(psi, phi, numeric_only=True)
        assert report.zero_class == TRANSIENT
        assert report.evidence["inner"]["rule"] == "geometric"
        assert report.evidence["inner"]["unresolved_panels"] == 0

    def test_strong_immigration_still_polar(self):
        assert classify_zero_state(SUPER, drift(5.0)).zero_class == POLAR
        assert classify_zero_state(
            SUPER, drift(5.0), numeric_only=True).zero_class == POLAR

    def test_detection(self):
        assert is_supercritical(SUPER)
        assert not is_supercritical(FELLER)
        assert not is_supercritical(SUBQUAD)

    @pytest.mark.parametrize("numeric_only", [False, True])
    def test_undeclared_custom_copy_answers_as_the_family(self, numeric_only):
        # psi < 0 near 0: the probed profile has no index there, so the
        # fast path abstains instead of raising
        copy = CustomBranching(eval=lambda q: q * q - q)
        assert regvar_summary(copy, drift(0.5)) is None
        family = classify_zero_state(SUPER, drift(0.5), numeric_only=numeric_only)
        report = classify_zero_state(copy, drift(0.5), numeric_only=numeric_only)
        assert (report.zero_class, report.heavy.value) == (TRANSIENT, family.heavy.value)
        assert report.heavy.is_no
        assert report.method == METHOD_NUMERIC

    @pytest.mark.parametrize("b", [-1e-9, -1e-10])
    def test_probed_derivative_sees_a_tiny_root(self, b):
        # psi(1e-8)/1e-8 > 0 although the root is 2|b|: the probe must step inside it
        family = QuadraticBranching(b=b, sigma2=1.0)
        copy = CustomBranching(eval=lambda q: b * q + 0.5 * q * q)
        assert is_supercritical(copy) is is_supercritical(family) is True
        reasons = [stationary_exists(psi, drift(0.5)).evidence.get("reason")
                   for psi in (family, copy)]
        assert reasons == ["supercritical", "supercritical"]

    def test_nan_near_zero_still_raises(self):
        # 0 at 0, which construction checks, and NaN on (0, 1e-3]
        copy = CustomBranching(eval=lambda q: q * q if q > 1e-3 or q == 0.0 else math.nan)
        with pytest.raises(EvaluationError):
            classify_zero_state(copy, drift(0.5))


class TestDegenerate:
    def test_grey_failure_is_trivial_point(self):
        report = classify_zero_state(QuadraticBranching(b=1.0, sigma2=0.0),
                                     drift(1.0))
        assert report.zero_class == TRIVIAL_POINT
        assert report.heavy.is_no
        assert (report.dim_upper, report.dim_lower) == (0.0, 0.0)
        assert report.method == METHOD_CLOSED

    def test_no_immigration(self):
        report = classify_zero_state(FELLER, None)
        assert report.zero_class == NO_IMMIGRATION
        assert (report.dim_upper, report.dim_lower) == (1.0, 1.0)
        assert report.heavy.is_yes

    def test_vanishing_immigration_handle(self):
        report = classify_zero_state(FELLER, CustomImmigration(eval=lambda q: 0.0))
        assert report.zero_class == NO_IMMIGRATION

    def test_borderline_grey_reports_inconclusive(self):
        slow = CustomBranching(eval=lambda q: q * math.log1p(q))
        report = classify_zero_state(slow, drift(1.0))
        assert report.zero_class == INCONCLUSIVE_CLASS


class TestComponentVerdicts:
    def test_heaviness_examples(self):
        assert heaviness(FELLER, StableImmigration(dprime=1.0, beta=0.5)).is_yes
        assert heaviness(FELLER, drift(0.5)).is_no
        assert heaviness(FELLER, GammaImmigration(a=1.0, b=1.0)).is_yes

    def test_interval_structure(self):
        # the zero set is a union of intervals exactly for a compound-Poisson phi
        for phi, intervals in ((CompoundPoissonImmigration(mass=1.0), "Yes"),
                               (StableImmigration(dprime=1.0, beta=0.5), "No"),
                               (GammaImmigration(a=1.0, b=1.0), "No")):
            assert classify_zero_state(FELLER, phi).intervals.value == intervals

    def test_stationary_examples(self):
        assert stationary_exists(FELLER, drift(1.0)).is_no
        assert stationary_exists(SUBQUAD, drift(1.0)).is_yes
        assert stationary_exists(SUPER, drift(1.0)).is_no

    def test_weight_between_closed_form(self):
        # R = s^{-1.5} for psi=q^2, phi=q^0.5: antiderivative -2 s^{-1/2}
        phi = StableImmigration(dprime=1.0, beta=0.5)
        got = weight_between(FELLER, phi, 1.0, 100.0)
        assert got == pytest.approx(2.0 * (1.0 - 0.1), rel=1e-8)


def _undeclared(mechanism):
    """A custom copy of a mechanism that declares nothing about it."""
    if mechanism.kind == "branching":
        return CustomBranching(eval=lambda q: mechanism(q))
    return CustomImmigration(eval=lambda q: mechanism(q))


class TestReportMatchesPublicVerdicts:
    """The numeric route reads heaviness off the outer criterion scan and
    stationarity off the inner one; the report's verdicts, evidence and all,
    are those that ``heaviness`` and ``stationary_exists`` give alone."""

    PAIRS = ([(StableBranching(d=d, alpha=alpha), StableImmigration(dprime=dprime, beta=beta))
              for alpha, beta, d, dprime in classification_grid()]
             + [(FELLER, LampertiImmigration(beta=0.5)),
                (StableBranching(d=1.0, alpha=1.5), LampertiImmigration(beta=0.3)),
                (StableBranching(d=1.0, alpha=1.5), CompoundPoissonImmigration(mass=1.0)),
                (FELLER, CompoundPoissonImmigration(mass=0.5)),
                (FELLER, GammaImmigration(a=1.0, b=2.0)),
                (SUBQUAD, GammaImmigration(a=1.0, b=1.0)),
                (SUPER, drift(0.5))])

    @pytest.mark.parametrize("copy", [False, True], ids=["family", "undeclared"])
    def test_report_verdicts_are_the_public_ones(self, copy):
        classes = set()
        for psi, phi in self.PAIRS:
            if copy:
                psi, phi = _undeclared(psi), _undeclared(phi)
            report = classify_zero_state(psi, phi, numeric_only=True)
            classes.add(report.zero_class)
            assert repr(report.heavy) == repr(heaviness(psi, phi))
            assert repr(report.stationary) == repr(stationary_exists(psi, phi))
        assert classes == {POLAR, TRANSIENT, RECURRENT}


class TestRegVarSummary:
    def test_stable_pair(self):
        s = regvar_summary(StableBranching(d=2.0, alpha=1.5),
                           StableImmigration(dprime=1.0, beta=0.5))
        assert s.exact
        assert s.rho == pytest.approx(-1.0)
        assert s.r == pytest.approx(0.5)
        assert s.kappa == pytest.approx(-1.0)

    def test_gamma_pair(self):
        s = regvar_summary(FELLER, GammaImmigration(a=3.0, b=2.0))
        assert s.rho == pytest.approx(-2.0)
        assert s.r == 0.0
        assert s.kappa == pytest.approx(-1.0)
        assert s.k == pytest.approx(1.5)

    def test_quadratic_supercritical_has_no_zero_profile(self):
        s = regvar_summary(SUPER, drift(1.0))
        assert s.rho == pytest.approx(-1.0)
        assert s.kappa is None

    def test_custom_probed_is_inexact(self):
        phi = CustomImmigration(eval=lambda q: 2.0 * q ** 0.4 if q > 0 else 0.0)
        s = regvar_summary(FELLER, phi)
        assert s is not None and not s.exact
        assert s.rho == pytest.approx(-1.6, abs=1e-6)


class TestFastPath:
    def test_decides_all_plain_cases(self):
        cases = [
            (FELLER, drift(1.0), POLAR),
            (FELLER, drift(0.5), RECURRENT),
            (FELLER, StableImmigration(dprime=1.0, beta=0.5), TRANSIENT),
        ]
        for psi, phi, expected in cases:
            report = rv_fastpath(psi, phi)
            assert report is not None
            assert report.zero_class == expected
            assert report.method == METHOD_FASTPATH

    def test_probed_boundary_abstains(self):
        # numerically indistinguishable from the rho = -1 boundary
        phi = CustomImmigration(eval=lambda q: q ** 0.9995 if q > 0 else 0.0)
        psi = CustomBranching(eval=lambda q: q * q)
        assert rv_fastpath(psi, phi) is None

    def test_probed_clear_case_decides(self):
        phi = CustomImmigration(eval=lambda q: q ** 0.5 if q > 0 else 0.0)
        psi = CustomBranching(eval=lambda q: q * q)
        report = rv_fastpath(psi, phi)
        assert report is not None
        assert report.zero_class == TRANSIENT

    def test_oscillating_mechanism_abstains(self):
        wobble = CustomImmigration(
            eval=lambda q: q ** 0.5 * (1.0 + 0.5 * math.sin(math.log(q)))
            if q > 0 else 0.0)
        assert rv_fastpath(FELLER, wobble) is None

    def test_grey_failure_abstains(self):
        assert rv_fastpath(QuadraticBranching(b=1.0, sigma2=0.0), drift(1.0)) is None


class TestNumericAgreement:
    CASES = [
        (StableBranching(d=1.0, alpha=1.5), StableImmigration(dprime=1.0, beta=0.9)),
        (StableBranching(d=1.0, alpha=1.5), StableImmigration(dprime=0.5, beta=0.5)),
        (StableBranching(d=2.0, alpha=1.8), StableImmigration(dprime=1.0, beta=0.8)),
        (FELLER, GammaImmigration(a=1.0, b=2.0)),
        (SUBQUAD, drift(0.5)),
        (SUPER, drift(0.5)),
    ]

    @pytest.mark.parametrize("psi,phi", CASES)
    def test_routes_agree(self, psi, phi):
        fast = rv_fastpath(psi, phi)
        assert fast is not None
        numeric = classify_zero_state(psi, phi, numeric_only=True)
        assert numeric.method == METHOD_NUMERIC
        assert numeric.zero_class == fast.zero_class
        assert numeric.heavy.value == fast.heavy.value
        # a heavy set has positive Lebesgue measure, so it is never polar
        assert not (numeric.zero_class == POLAR and numeric.heavy.is_yes)
        if "root" in numeric.evidence:
            assert numeric.evidence["supercritical"] == (numeric.evidence["root"] > 0)

    @pytest.mark.parametrize("d", [2.0, 4.0, 8.0])
    def test_heavy_set_is_not_read_as_polar(self, d):
        # the outer octave sums of (q + q^2, d q^0.9) rise for about
        # log2(d^10) octaves before they fall, which the window rules
        # read as divergence; int R < inf bounds e^W, so it cannot diverge
        psi, phi = SUBQUAD, StableImmigration(dprime=d, beta=0.9)
        assert classify_zero_state(psi, phi).zero_class == RECURRENT
        numeric = classify_zero_state(psi, phi, numeric_only=True)
        assert numeric.heavy.is_yes
        assert numeric.zero_class == INCONCLUSIVE_CLASS
        assert numeric.evidence["outer"]["verdict"] == "infinite"
        assert "heavy" in numeric.evidence["note"]

    def test_undeclared_heavy_copy_is_not_polar(self):
        lamperti = LampertiImmigration(beta=0.9)
        report = classify_zero_state(SUBQUAD, CustomImmigration(eval=lambda q: 5.0 * lamperti(q)))
        assert report.heavy.is_yes
        assert report.zero_class == INCONCLUSIVE_CLASS


class TestScalingMonotonicity:
    @pytest.mark.parametrize("phi", [drift(0.5), StableImmigration(dprime=0.3, beta=1.0),
                                     LampertiImmigration(beta=1.0)])
    def test_polar_set_upward_closed_in_scale(self, phi):
        from cbizero.mechanisms import scale_immigration
        seen_polar = False
        for c in (1.0, 2.0, 5.0):
            cls = classify_zero_state(FELLER, scale_immigration(phi, c)).zero_class
            if seen_polar:
                assert cls == POLAR
            seen_polar = seen_polar or cls == POLAR


class TestBoxDims:
    def test_critical_recurrent_formula(self):
        assert box_dims(FELLER, drift(0.5)) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_heavy_is_full_dimension(self):
        assert box_dims(FELLER, StableImmigration(dprime=1.0, beta=0.5)) == (1.0, 1.0)

    def test_lamperti_critical(self):
        got = box_dims(StableBranching(d=2.0, alpha=2.0), LampertiImmigration(beta=1.0))
        assert got == (pytest.approx(0.5), pytest.approx(0.5))

    def test_undefined_for_polar(self):
        with pytest.raises(ClassificationError):
            box_dims(FELLER, drift(1.0))

    def test_undefined_for_trivial_point(self):
        with pytest.raises(ClassificationError):
            box_dims(QuadraticBranching(b=1.0, sigma2=0.0), drift(1.0))

    # heavy pairs: two transient, one recurrent (gamma), all rho < -1
    HEAVY = [(FELLER, StableImmigration(dprime=1.0, beta=0.5)),
             (StableBranching(d=1.0, alpha=1.5), StableImmigration(dprime=1.0, beta=0.3)),
             (FELLER, GammaImmigration(a=1.0, b=2.0))]

    @staticmethod
    def _time_changed(psi, phi, c, route):
        """(c psi, c phi), as families or as undeclared custom copies."""
        if route == "family":
            return StableBranching(d=c * psi.d, alpha=psi.alpha), phi.scaled(c)
        return (CustomBranching(eval=lambda q: c * psi(q)),
                CustomImmigration(eval=lambda q: c * phi(q)))

    @pytest.mark.parametrize("route", ["family", "custom"])
    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("pair", range(len(HEAVY)))
    def test_heavy_set_has_dimension_one_on_every_route(self, pair, c, route):
        psi, phi = self._time_changed(*self.HEAVY[pair], c, route)
        for numeric_only in (False, True):
            report = classify_zero_state(psi, phi, numeric_only=numeric_only)
            assert report.heavy.is_yes
            assert report.zero_class in (TRANSIENT, RECURRENT)
            assert (report.dim_upper, report.dim_lower) == (1.0, 1.0)
        assert box_dims(psi, phi) == (1.0, 1.0)

    @pytest.mark.parametrize("route,c", [("family", 1.0), ("custom", 1.0),
                                         ("custom", 1e-3), ("custom", 1e3)])
    def test_box_dims_reads_the_report(self, route, c):
        # the criterion-1 grid, as families and as undeclared copies
        for alpha, beta, d, dprime in classification_grid():
            psi, phi = self._time_changed(StableBranching(d=d, alpha=alpha),
                                          StableImmigration(dprime=dprime, beta=beta),
                                          c, route)
            report = classify_zero_state(psi, phi)
            if report.zero_class == POLAR:
                continue
            assert box_dims(psi, phi) == (report.dim_upper, report.dim_lower)

    # the criterion-1 grid, and the quadratic pairs whose W(u) has a constant
    # term that biased the old probes 1 - W(u)/log(1/u)
    AGREEMENT = ([(StableBranching(d=d, alpha=alpha), StableImmigration(dprime=dprime, beta=beta))
                  for alpha, beta, d, dprime in classification_grid()]
                 + [(QuadraticBranching(b=b, sigma2=2.0), drift(0.5)) for b in (-1.0, 0.0, 1.0)])

    @pytest.mark.parametrize("route", ["family", "custom"])
    def test_numeric_bracket_holds_the_fast_path_dimensions(self, route):
        # wherever the fast path gives dimensions, the numeric bracket of the
        # pair and of its undeclared copy contains them to 1e-6, or is None
        checked = 0
        for psi, phi in self.AGREEMENT:
            fast = classify_zero_state(psi, phi)
            if fast.dim_upper is None:
                continue
            if route == "custom":
                psi, phi = (CustomBranching(eval=lambda q, f=psi: f(q)),
                            CustomImmigration(eval=lambda q, f=phi: f(q)))
            numeric = classify_zero_state(psi, phi, numeric_only=True)
            if numeric.dim_upper is None:
                continue
            for dim in (fast.dim_upper, fast.dim_lower):
                assert numeric.dim_lower - 1e-6 <= dim <= numeric.dim_upper + 1e-6
            checked += 1
        assert checked == 16        # every bracket resolves on these pairs

    def test_numeric_probes_track_exact_value(self):
        # numeric fallback on a pair whose exact dimension is 0.75
        psi = CustomBranching(eval=lambda q: q * q)
        phi = CustomImmigration(eval=lambda q: 0.25 * q)
        report = classify_zero_state(psi, phi, numeric_only=True)
        assert report.zero_class == RECURRENT
        assert report.dim_upper == pytest.approx(0.75, abs=0.02)
        assert report.dim_lower == pytest.approx(0.75, abs=0.02)


class TestReportShape:
    def test_as_dict_keys(self):
        report = classify_zero_state(FELLER, drift(0.5))
        data = report.as_dict()
        assert set(data) == {"grey", "conservative", "zero_class", "heavy",
                             "intervals", "stationary", "dim_upper", "dim_lower",
                             "method", "evidence"}
        assert data["zero_class"] == RECURRENT
        assert data["grey"] == "Yes"
