"""Octave-panel verdict protocol and its Clenshaw-Curtis panel rule.

Integrands take the array of a panel's nodes and return an array.
"""

import math

import numpy as np
import pytest

from cbizero import quadrature
from cbizero.classify import _inner_estimate, _outer_estimate, classify_zero_state
from cbizero.mechanisms import StableBranching, StableImmigration
from cbizero.quadrature import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    MAX_PANELS,
    PANEL_ORDER,
    WINDOW,
    RangeEnd,
    _lobatto_rule,
    quad,
    tail_verdict_lower,
    tail_verdict_upper,
)

FELLER = StableBranching(d=1.0, alpha=2.0)


def _upper(f, **kw):
    return tail_verdict_upper(f, 1.0, **kw)


def _lower(f, **kw):
    return tail_verdict_lower(f, 1.0, **kw)


# (integrand on [1, inf), integrand on (0, 1], verdict, rule, closed-form total)
RULES = {
    "geometric": (lambda z: z ** -3, lambda x: x, FINITE, "geometric", 0.5),
    # margin m = 0.05: panel ratio 2^-m = 0.966 is above the strict 0.9
    "slow-geometric": (lambda z: z ** -1.05, lambda x: x ** -0.95, FINITE,
                       "slow-geometric", 20.0),
    # all mass on the first two octaves, then nothing; the integrand and
    # its derivative vanish where the mass ends, on a panel edge
    "exhausted": (lambda z: np.where(z < 4.0, (4.0 - z) ** 2, 0.0),
                  lambda x: np.where(x > 0.25, (8.0 * x - 2.0) ** 2, 0.0), FINITE,
                  "exhausted", 9.0),
    "non-decreasing": (lambda z: 1.0 / z, lambda x: 1.0 / x, INFINITE,
                       "non-decreasing", math.inf),
    # growth fast enough to pass SUM_BLOWUP before a full window
    "sum-blowup": (lambda z: z ** 40, lambda x: x ** -40, INFINITE, "sum-blowup",
                   math.inf),
    "nan-contribution": (lambda z: np.full_like(z, math.nan),
                         lambda x: np.full_like(x, math.nan), INCONCLUSIVE,
                         "nan-contribution", 0.0),
    # harmonic-type decay whose ratio creeps toward 1: neither side is certain
    "no-rule": (lambda z: 1.0 / ((z + 1.0) * np.log(z + 1.0)),
                lambda x: 1.0 / (x * np.log(2.0 / x)),
                INCONCLUSIVE, "no-rule", None),
}


class TestVerdictRules:
    @pytest.mark.parametrize("name", sorted(RULES))
    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_rule_fires_with_closed_form_total(self, name, direction):
        upper_f, lower_f, verdict, rule, total = RULES[name]
        est = _upper(upper_f) if direction == "upper" else _lower(lower_f)
        assert (est.verdict, est.rule) == (verdict, rule)
        if total is not None and math.isfinite(total):
            assert est.total == pytest.approx(total, rel=1e-10)
        elif total is not None:
            assert est.total == math.inf
        assert est.unresolved_panels == 0

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.85])
    def test_exactly_geometric_integrand_is_valued_exactly(self, ratio):
        # each octave carries ratio times the last: the extrapolated tail is exact
        p = math.log2(ratio)
        est = _upper(lambda z: z ** (p - 1.0))
        assert (est.verdict, est.rule, est.panels_used) == (FINITE, "geometric", WINDOW + 1)
        assert est.total == pytest.approx(-1.0 / p, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-30, 1e13, 1e200])
    def test_verdict_is_scale_free(self, scale):
        # c f gets the verdict of f: a total past SUM_BLOWUP is not divergence
        est, unit = _upper(lambda z: scale * z ** -3), _upper(lambda z: z ** -3)
        assert (est.verdict, est.rule, est.panels_used) == (
            unit.verdict, unit.rule, unit.panels_used)
        assert est.total == pytest.approx(0.5 * scale, rel=1e-12)
        blowup = _upper(lambda z: scale * z ** 40)
        assert (blowup.verdict, blowup.rule) == (INFINITE, "sum-blowup")

    def test_zero_integrand_is_exhausted_at_zero(self):
        for est in (_upper(np.zeros_like), _lower(np.zeros_like)):
            assert (est.verdict, est.rule, est.total) == (FINITE, "exhausted", 0.0)
            assert est.panels_used == WINDOW + 1

    def test_no_rule_spends_every_panel(self):
        est = _upper(RULES["no-rule"][0])
        assert est.panels_used == MAX_PANELS

    def test_overflow_reads_as_sum_blowup(self):
        def overflowing(z):
            return np.exp(z)    # inf past z = 709

        est = tail_verdict_upper(overflowing, 64.0)
        assert (est.verdict, est.rule, est.total) == (INFINITE, "sum-blowup", math.inf)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            tail_verdict_upper(lambda z: 1.0, 0.0)
        with pytest.raises(ValueError):
            tail_verdict_lower(lambda x: 1.0, 1.0, floor=1.0)


class TestPanelRule:
    def test_weights_are_the_last_cumulative_row(self):
        nodes, weights, cumulative = _lobatto_rule(PANEL_ORDER)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(weights, cumulative[-1])
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)
        # closed-form Clenshaw-Curtis end weight 1/(n^2 - 1)
        assert weights[0] == pytest.approx(1.0 / (PANEL_ORDER ** 2 - 1), rel=1e-12)

    @pytest.mark.parametrize("n", [PANEL_ORDER // 2, PANEL_ORDER])
    def test_cumulative_matrix_integrates_polynomials_exactly(self, n):
        nodes, _, cumulative = _lobatto_rule(n)
        for k in range(n + 1):
            exact = (nodes ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            got = (cumulative * nodes ** k).sum(axis=1)
            assert np.max(np.abs(got - exact)) < 1e-14

    def test_weight_at_every_node_matches_log(self):
        # psi = q^2, phi = c q gives R = c/q and W = c log(x/lo) on a panel
        c, lo, hi = 0.7, 3.0, 6.0
        nodes, _, cumulative = _lobatto_rule(PANEL_ORDER)
        half = 0.5 * (hi - lo)
        xs = 0.5 * (lo + hi) + half * nodes
        w = half * (cumulative * (c / xs)).sum(axis=1)
        assert w[0] == 0.0
        np.testing.assert_allclose(w[1:], c * np.log(xs[1:] / lo), rtol=1e-10)

    @pytest.mark.parametrize("upward", [True, False])
    def test_panel_carries_weight_across_its_edges(self, upward):
        c, lo, hi, edge = 0.7, 3.0, 6.0, 0.25
        value, err, w_far, unresolved = quadrature._panel(
            lambda x: 1.0 / (x * x), lambda x: c / x, lo, hi, edge, upward, 0)
        # W = edge + c log(x/anchor) both ways: int_lo^x R upward from lo,
        # -int_x^hi R downward from hi
        anchor, far = (lo, hi) if upward else (hi, lo)
        assert w_far == pytest.approx(edge + c * math.log(far / anchor), rel=1e-12)
        p = c - 1.0
        exact = math.exp(edge) * anchor ** -c * (hi ** p - lo ** p) / p
        assert value == pytest.approx(exact, rel=1e-12)
        assert (unresolved, err <= 1e-9 * value) == (0, True)

    def test_unresolved_jump_is_reported(self):
        jump = math.sqrt(10.0)
        est = _upper(lambda z: z ** -2 * np.where(z < jump, 1.0, 2.0))
        assert (est.verdict, est.rule) == (FINITE, "geometric")
        assert est.unresolved_panels >= 1
        assert est.abserr > 0.0
        assert est.total == pytest.approx(1.0 + 1.0 / jump, rel=1e-4)
        evidence = est.evidence()
        assert evidence["unresolved_panels"] == est.unresolved_panels
        assert evidence["abserr"] == est.abserr

    def test_smooth_integrand_error_estimate_is_small(self):
        est = _upper(lambda z: z ** -3)
        assert est.unresolved_panels == 0
        assert 0.0 <= est.abserr <= 1e-9 * est.total


class TestScanErrorFloor:
    """A scan accepts a panel whose error is below REL_TOL * EXHAUSTED_FRACTION
    of the total so far: the panels the exhausted rule reads as dead are not
    refined, and as the floor scales with the total, f and c f agree."""

    @pytest.mark.parametrize("c", [5.0, 50.0])
    def test_dead_panels_are_not_bisected_at_any_scale(self, c, engine_calls):
        # int_0^1 k x^-2 exp(-c (1/x - 1)) dx = k/c: the weight R = c/x^2
        # kills the integrand like exp(-c/x) toward 0
        seen = set()
        for k in (1e-6, 1.0, 1e6):
            engine_calls["pieces"] = 0
            est = _lower(lambda x: k / (x * x), weight=lambda x: c / (x * x))
            assert (est.verdict, est.rule) == (FINITE, "exhausted")
            assert est.total == pytest.approx(k / c, rel=1e-13)
            seen.add((engine_calls["pieces"], est.unresolved_panels))
        assert len(seen) == 1
        if c == 5.0:
            assert seen == {(0, 0)}


class TestWeightedCriterionIntegrals:
    """psi = q^2 with phi = c q: R = c/q and W = c log(z/theta) in closed form."""

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_outer_integral(self, theta):
        # int_theta^inf (z/theta)^c z^-2 dz = 1/(theta (1 - c)) for c < 1
        c = 0.5
        est = _outer_estimate(FELLER, StableImmigration(dprime=c, beta=1.0), theta)
        assert (est.verdict, est.rule) == (FINITE, "geometric")
        assert est.total == pytest.approx(1.0 / (theta * (1.0 - c)), rel=1e-10)

    def test_outer_integral_diverges_at_c_one(self):
        est = _outer_estimate(FELLER, StableImmigration(dprime=1.0, beta=1.0), 1.0)
        assert (est.verdict, est.rule) == (INFINITE, "non-decreasing")

    @pytest.mark.parametrize("theta", [1.0, 4.0])
    def test_inner_integral(self, theta):
        # int_0^theta (x/theta)^c x^-2 dx = 1/(theta (c - 1)) for c > 1
        c = 2.0
        est = _inner_estimate(FELLER, StableImmigration(dprime=c, beta=1.0), theta, 0.0)
        assert (est.verdict, est.rule) == (FINITE, "geometric")
        assert est.total == pytest.approx(1.0 / (theta * (c - 1.0)), rel=1e-10)

    def test_inner_integral_diverges_below_c_one(self):
        est = _inner_estimate(FELLER, StableImmigration(dprime=0.5, beta=1.0), 1.0, 0.0)
        assert est.verdict == INFINITE


class TestNoNestedQuadrature:
    """Every integral runs on the panel rule, none inside an integrand.

    A rule nested in an integrand would multiply the panel count by its
    33 nodes; the bounds sit a little above the counts measured in a
    fresh interpreter.
    """

    def test_criterion_integrals_make_no_quad_call(self, engine_calls):
        phi = StableImmigration(dprime=0.5, beta=1.0)
        _outer_estimate(FELLER, phi, 1.0)
        _inner_estimate(FELLER, phi, 1.0, 0.0)
        assert engine_calls["quad"] == 0
        assert engine_calls["panels"] <= 30            # measured 22

    def test_numeric_classification_makes_few_quad_calls(self, engine_calls):
        report = classify_zero_state(FELLER, StableImmigration(dprime=0.5, beta=1.0),
                                     numeric_only=True)
        assert report.zero_class == "Recurrent"
        assert engine_calls["quad"] <= 3               # one per dimension probe
        assert engine_calls["panels"] <= 100           # measured 69


class TestFiniteRangeAndRangeEnd:
    def test_quad_keeps_orientation(self):
        value, err = quad(np.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-14)
        assert err < 1e-12
        assert quad(np.exp, 1.0, 0.0)[0] == -value

    def test_quad_bisects_a_wide_range(self):
        value, err = quad(lambda x: np.exp(-x), 0.0, 200.0)
        assert value == pytest.approx(-math.expm1(-200.0), rel=1e-12)
        assert err <= 1e-9 * value

    def test_remainders_sum_from_the_top(self):
        # int_{2^k}^inf z^-3 dz = 2^(-2k) / 2 at every edge of the scan
        est = _upper(lambda z: z ** -3)
        want = [0.5 * 4.0 ** -k for k in range(est.panels_used + 1)]
        assert est.remainders() == pytest.approx(want, rel=1e-12)

    def test_range_end_stops_the_scan(self):
        def ends(z):            # as 1/psi does where psi overflows
            if z[-1] > 2.0 ** 20:   # the nodes ascend
                raise RangeEnd
            return z ** -1.05

        est = _upper(ends)
        assert (est.verdict, est.rule, est.panels_used) == (FINITE, "slow-geometric", 20)
        assert est.total == pytest.approx(20.0, rel=1e-10)
        short = tail_verdict_upper(ends, 2.0 ** 15)     # 5 panels, too few to decide
        assert (short.verdict, short.rule, short.panels_used) == (
            INCONCLUSIVE, "range-end", 5)


class TestBrent:
    """``brent`` against scipy's ``brentq``: the same root and the same
    evaluated points, bit for bit, and the same errors."""

    def test_power_law_brackets_match_brentq(self, brentq_twin):
        rng = np.random.default_rng(20)
        roots = []
        for _ in range(2000):
            root = 10.0 ** rng.uniform(-150.0, 150.0)
            p = rng.uniform(0.5, 2.0)           # keeps x^p inside the normal range
            lo = root * 10.0 ** rng.uniform(-3.0, 0.0)
            hi = root * 10.0 ** rng.uniform(0.0, 3.0)
            tols = {"xtol": 1e-14 * lo}
            if rng.random() < 0.5:
                tols["rtol"] = 1e-14
            ours, reference = brentq_twin(lambda x: x ** p - root ** p, lo, hi, **tols)
            assert ours == reference
            # below roots of about 1e-110 the interpolation's products
            # underflow, and both may run out of iterations
            if ours[0] is not RuntimeError:
                roots.append(ours[0] / root)
        assert len(roots) > 1900                # measured 1937
        assert roots == pytest.approx(np.ones(len(roots)), rel=1e-9)

    @pytest.mark.parametrize("f, error", [
        (lambda x: x * x + 1.0, ValueError),
        (lambda x: math.nan if x > 0.5 else x - 0.75, ValueError),
        (lambda x: math.copysign(1.0, x), RuntimeError),    # 2^-100 of 2 is not 1e-300
    ], ids=["one-sign", "nan", "no-convergence"])
    def test_errors_match_brentq(self, brentq_twin, f, error):
        ours, reference = brentq_twin(f, -1.0, 1.0, xtol=1e-300)
        assert ours == reference
        assert ours[0] is error
