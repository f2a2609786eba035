"""Octave-panel verdict protocol and its Clenshaw-Curtis panel rule.

Integrands take the array of a panel's nodes and return an array.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cbizero import quadrature
from cbizero.classify import (
    _inner_estimate,
    _outer_estimate,
    classify_zero_state,
    heaviness,
    stationary_exists,
)
from cbizero.mechanisms import (
    CustomBranching,
    CustomImmigration,
    EvaluationError,
    StableBranching,
    StableImmigration,
)
from cbizero.quadrature import (
    _CUMULATIVE,
    _NODES,
    _WEIGHTS,
    EXHAUSTED_FRACTION,
    FINITE,
    GEOMETRIC_RATIO,
    INCONCLUSIVE,
    INFINITE,
    MAX_BISECTIONS,
    MAX_PANELS,
    PANEL_ORDER,
    RATIO_CEILING,
    RATIO_DRIFT,
    REL_TOL,
    SUM_BLOWUP,
    WINDOW,
    RangeEnd,
    TailEstimate,
    _lobatto_rule,
    _tail,
    quad,
    tail_verdict_lower,
    tail_verdict_upper,
)

FELLER = StableBranching(d=1.0, alpha=2.0)


def _upper(f):
    return tail_verdict_upper(f, 1.0)


def _lower(f):
    return tail_verdict_lower(f, 1.0)


def _weighted(upward, f, weight):
    """The verdict of a scan from 1 of f times exp(W), W the running integral
    of ``weight``: the stream (0, 1) of a two-array read."""
    def read(xs):
        return f(xs), weight(xs)

    scans = (quadrature._upper_scans(1.0, read, [(0, 1)]) if upward
             else quadrature._lower_scans(1.0, 0.0, read, [(0, 1)]))
    return quadrature._settled(scans[0])


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
            quadrature._lower_scans(1.0, 1.0, lambda x: (x, x), [(0, 1)])


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
        [(value, err, w_far, unresolved)] = quadrature._rows(
            lambda x: (1.0 / (x * x), c / x), (0, 1), [lo], [hi], edge, upward, 0,
            lambda: 0.0)
        # W = edge + c log(x/anchor) both ways: int_lo^x R upward from lo,
        # -int_x^hi R downward from hi
        anchor, far = (lo, hi) if upward else (hi, lo)
        assert w_far == pytest.approx(edge + c * math.log(far / anchor), rel=1e-12)
        p = c - 1.0
        exact = math.exp(edge) * anchor ** -c * (hi ** p - lo ** p) / p
        assert value == pytest.approx(exact, rel=1e-12)
        assert (unresolved, err <= 1e-9 * value) == (0, True)

    def test_unresolved_jump_is_reported(self, engine_calls):
        jump = math.sqrt(10.0)
        est = _upper(lambda z: z ** -2 * np.where(z < jump, 1.0, 2.0))
        assert (est.verdict, est.rule) == (FINITE, "geometric")
        assert est.unresolved_panels >= 1
        # the piece holding the jump is halved at every depth down to the cap
        assert engine_calls["pieces"] >= 2 * MAX_BISECTIONS
        assert engine_calls["panels"] == est.panels_used + engine_calls["pieces"]
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
            est = _weighted(False, lambda x: k / (x * x), lambda x: c / (x * x))
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
        assert engine_calls["panels"] == 22

    def test_numeric_classification_makes_few_quad_calls(self, engine_calls):
        report = classify_zero_state(FELLER, StableImmigration(dprime=0.5, beta=1.0),
                                     numeric_only=True)
        assert report.zero_class == "Recurrent"
        assert engine_calls["quad"] == 0               # the family's F(a) is closed
        # 44 with the cached checks warm, 66 cold
        assert 44 <= engine_calls["panels"] <= 100


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


# --- the panel-by-panel rule, the reference of the block rule -------------------

def _ratios(contributions):
    if any(c <= 0.0 for c in contributions[:-1]):
        return None
    return [cur / prev for prev, cur in zip(contributions, contributions[1:])]


def _decide(contributions, total, at_end=False):
    """The verdict rules on the whole contribution sequence seen so far, as
    the scan applied them panel by panel before it kept their state;
    ``at_end`` adds the relaxed rule.  (verdict, rule, tail) or None."""
    first = next((c for c in contributions if c > 0.0), math.inf)
    if total > SUM_BLOWUP * first or math.isinf(total):
        return INFINITE, "sum-blowup", math.inf
    if len(contributions) < WINDOW + 1:
        return None
    window = contributions[-(WINDOW + 1):]
    if total > 0 and all(c <= total * EXHAUSTED_FRACTION for c in window):
        return FINITE, "exhausted"
    if total == 0.0 and all(c == 0.0 for c in window):
        return FINITE, "exhausted"
    ratios = _ratios(window)
    if ratios is None:
        return None
    if all(r >= 1.0 - 1e-9 for r in ratios) and window[-1] > 0:
        return INFINITE, "non-decreasing", math.inf
    if all(r <= GEOMETRIC_RATIO for r in ratios):
        high, low = (window[-1] * r / (1.0 - r) for r in (max(ratios), min(ratios)))
        if total > 0 and high - low < REL_TOL * total:
            return FINITE, "geometric", _tail(window[-1], ratios, high - low)
    if at_end and (all(r <= RATIO_CEILING for r in ratios)
                   and ratios[-1] <= ratios[0] + RATIO_DRIFT):
        r = max(ratios)
        return FINITE, "slow-geometric", window[-1] * r / (1.0 - r)
    return None


def _reference_panel(f, weight, lo, hi, w_edge, upward, depth, err_floor=0.0):
    """One panel as the rule integrated it before blocks: (value, error
    estimate, W at the far edge, unresolved pieces)."""
    half = 0.5 * (hi - lo)
    xs = 0.5 * (lo + hi) + half * _NODES
    xs[0], xs[-1] = lo, hi
    with np.errstate(all="ignore"):
        values = np.asarray(f(xs), dtype=float)
        if weight is None:
            w_far, w_err = w_edge, 0.0
        else:
            rates = np.asarray(weight(xs), dtype=float)
            # the library's contraction, on one panel: the run, its span
            # and the nested rule's span
            run = half * np.einsum("jk,k->j", _CUMULATIVE, rates)
            run, span, w_err = run[:-1], float(run[-2]), abs(float(run[-2] - run[-1]))
            if upward:
                w_nodes, w_far = w_edge + run, w_edge + span
            else:
                w_nodes, w_far = w_edge - (span - run), w_edge - span
            values = np.where(values == 0.0, 0.0, values * np.exp(w_nodes))
        value, nested = (half * np.einsum("jk,k->j", _WEIGHTS, values)).tolist()
        err = abs(value - nested)
    if not math.isfinite(value) or not math.isfinite(w_far):
        return value, 0.0, w_far, 0
    resolved = err <= max(REL_TOL * abs(value), err_floor) and w_err <= REL_TOL
    if resolved or depth == MAX_BISECTIONS:
        return value, err + w_err * abs(value), w_far, 0 if resolved else 1
    mid = 0.5 * (lo + hi)
    first, second = ((lo, mid), (mid, hi)) if upward else ((mid, hi), (lo, mid))
    v1, e1, w_mid, u1 = _reference_panel(f, weight, *first, w_edge, upward, depth + 1,
                                         err_floor)
    v2, e2, w_far, u2 = _reference_panel(f, weight, *second, w_mid, upward, depth + 1,
                                         err_floor)
    return v1 + v2, e1 + e2, w_far, u1 + u2


def _reference_run_panels(f, lo, hi, weight, upward):
    """The scan over the panels [lo_i, hi_i], one panel at a time."""
    contributions = []
    total = abserr = 0.0
    unresolved = 0
    w_edge = 0.0

    def estimate(verdict, rule, tail=0.0):
        return TailEstimate(verdict, total + tail, tuple(contributions), rule, abserr,
                            unresolved, tail)

    rule = "no-rule"
    for a, b in zip(lo, hi):
        try:
            c, err, w_edge, missed = _reference_panel(
                f, weight, a, b, w_edge, upward, 0, REL_TOL * EXHAUSTED_FRACTION * abs(total))
        except RangeEnd:
            rule = "range-end"
            break
        abserr += err
        unresolved += missed
        if math.isnan(c):
            return estimate(INCONCLUSIVE, "nan-contribution")
        contributions.append(c)
        total += c
        decided = _decide(contributions, total)
        if decided is not None:
            return estimate(*decided)
    decided = _decide(contributions, total, at_end=True)
    if decided is not None:
        return estimate(*decided)
    return estimate(INCONCLUSIVE, rule)


def _reference_scans(read, lo, hi, upward, streams):
    """Each stream of a scan run alone on the reference: its estimate, or
    the exception it raised."""
    outcomes = []
    for at_f, at_weight in streams:
        def f(xs, k=at_f):
            return read(xs)[k]

        weight = None if at_weight is None else (lambda xs, k=at_weight: read(xs)[k])
        try:
            outcomes.append(_reference_run_panels(f, lo, hi, weight, upward))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _bits(est):
    """Every field of an estimate, floats as their exact hex form."""
    return (est.verdict, est.rule, est.unresolved_panels, est.total.hex(),
            tuple(float(c).hex() for c in est.contributions), est.abserr.hex(),
            est.tail.hex())


def _outcome(scan, read):
    """``read`` of what ``scan`` returns, or the class and message of what it raised."""
    try:
        result = scan()
    except Exception as exc:
        return type(exc), str(exc)
    return read(result)


def _both(scan, read=_bits):
    """The outcome of ``scan`` on the block rule and on the reference."""
    ours = _outcome(scan, read)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_run_panels", _reference_scans)
        return ours, _outcome(scan, read)


def _integrand(upward, power, harmonic, jump, cutoff, bad, end):
    """A test integrand for a scan from 1.  Positions count octaves into
    the scan: a jump doubles it, past a cutoff it is 0, one half octave
    holds a bad value, and past ``end`` it raises."""
    def beyond(z, octaves):
        return z > 2.0 ** octaves if upward else z < 2.0 ** -octaves

    def f(z):
        if end is not None and np.any(beyond(z, end[0])):
            raise end[1]("past the end of the range")
        values = z ** power
        if harmonic:
            values = values / np.log(z + 1.0 if upward else 2.0 / z)
        if jump is not None:
            values = np.where(beyond(z, jump), 2.0 * values, values)
        if cutoff is not None:
            values = np.where(beyond(z, cutoff), 0.0, values)
        if bad is not None:
            values = np.where(beyond(z, bad[0]) & ~beyond(z, bad[0] + 0.5), bad[1], values)
        return values

    return f, beyond


_OCTAVES = st.floats(0.0, MAX_PANELS)


class TestBlockRuleMatchesPanelByPanel:
    """The block rule gives every field of every estimate the bits of the
    panel-by-panel rule it replaced, or raises what that rule raised; in a
    scan of two streams, each stream's the bits of its scan alone."""

    @given(upward=st.booleans(), power=st.floats(-6.0, 6.0), harmonic=st.booleans(),
           jump=st.none() | _OCTAVES, cutoff=st.none() | _OCTAVES,
           bad=st.none() | st.tuples(_OCTAVES, st.sampled_from([math.nan, math.inf])),
           end=st.none() | st.tuples(_OCTAVES, st.sampled_from([RangeEnd, ValueError])),
           rate=st.none() | st.floats(0.05, 3.0), rate_jump=st.none() | _OCTAVES,
           scale=st.floats(-30.0, 30.0))
    @example(True, -3.0, False, None, None, None, None, None, None, 0.0)     # geometric
    @example(True, -1.05, False, None, None, None, None, None, None, 0.0)    # slow-geometric
    @example(False, 0.0, False, None, 2.0, None, None, None, None, 0.0)      # exhausted
    @example(True, -1.0, False, None, None, None, None, None, None, 0.0)     # non-decreasing
    @example(True, 40.0, False, None, None, None, None, None, None, 0.0)     # sum-blowup
    @example(False, 0.0, False, None, None, (5.2, math.nan), None, None, None, 0.0)
    @example(True, -2.0, False, None, None, (14.2, math.inf), None, None, None, 0.0)
    @example(True, -1.0, True, None, None, None, None, None, None, 0.0)      # no-rule
    @example(True, -1.05, False, None, None, None, (20.3, RangeEnd), None, None, 0.0)
    @example(True, -1.05, False, None, None, None, (20.3, ValueError), None, None, 0.0)
    # a jump bisected in the middle of the second block, then the weight's own jump
    @example(True, -1.6, False, 14.5, None, None, None, 0.5, None, 0.0)
    @example(False, 0.0, False, None, None, None, None, 0.5, 3.5, 0.0)
    @settings(max_examples=150, deadline=None)
    def test_scans_agree_bitwise(self, upward, power, harmonic, jump, cutoff,
                                 bad, end, rate, rate_jump, scale):
        f, beyond = _integrand(upward, power, harmonic, jump, cutoff, bad, end)
        weight = None
        if rate is not None:
            def weight(z):
                rates = rate / z
                return rates if rate_jump is None else np.where(
                    beyond(z, rate_jump), 2.0 * rates, rates)

        def scaled(z):
            return 10.0 ** scale * f(z)

        verdict = tail_verdict_upper if upward else tail_verdict_lower
        ours, reference = _both(lambda: verdict(scaled, 1.0) if weight is None
                                else _weighted(upward, scaled, weight))
        assert ours == reference

    @pytest.mark.parametrize("upward", [True, False])
    def test_bisected_pieces_enter_from_the_new_weight(self, upward):
        # the jump at 14.5 octaves is bisected to the cap in the second block's
        # fourth row, so the rows after it start from W as the pieces left it;
        # with the weight the integrand decays like 2^-0.1 per octave
        f, _ = _integrand(upward, -1.6 if upward else -1.4, False, 14.5, None, None, None)
        ours, reference = _both(lambda: _weighted(upward, f, lambda z: 0.5 / z))
        assert ours == reference
        assert ours[2] >= 1 and len(ours[4]) > 15

    # a scan's streams as (integrand, weight) indices into the read's
    # (f1, f2, R): R weighting f1 and R alone, as the criterion scans; two
    # unweighted integrands; two integrands under one weight; R alone first
    STREAMS = [((0, 2), (2, None)), ((0, None), (1, None)), ((0, 2), (1, 2)),
               ((2, None), (0, 2))]
    _SPEC = st.tuples(st.floats(-6.0, 6.0), st.booleans(), st.none() | _OCTAVES,
                      st.none() | _OCTAVES,
                      st.none() | st.tuples(_OCTAVES, st.sampled_from([math.nan, math.inf])),
                      st.floats(-30.0, 30.0))

    @staticmethod
    def _streams_both(upward, streams, first, second, end, rate, rate_jump):
        """Every stream's outcome of a two-stream scan from 1, on the block rule
        and each stream alone on the reference: its bits, or what it raised.
        ``first`` and ``second`` give f1 and f2 (power, harmonic, jump, cutoff,
        bad, scale); the read raises past ``end``, as where f1 has no value."""
        f1, beyond = _integrand(upward, *first[:5], end)
        f2, _ = _integrand(upward, *second[:5], None)

        def read(z):
            rates = rate / z
            if rate_jump is not None:
                rates = np.where(beyond(z, rate_jump), 2.0 * rates, rates)
            return 10.0 ** first[5] * f1(z), 10.0 ** second[5] * f2(z), rates

        scans = quadrature._upper_scans if upward else quadrature._lower_scans
        args = (1.0, read) if upward else (1.0, 0.0, read)
        return _both(lambda: scans(*args, streams),
                     lambda outcomes: [_outcome(lambda: quadrature._settled(o), _bits)
                                       for o in outcomes])

    @given(upward=st.booleans(), streams=st.sampled_from(STREAMS), first=_SPEC,
           second=_SPEC,
           end=st.none() | st.tuples(_OCTAVES, st.sampled_from([RangeEnd, ValueError])),
           rate=st.floats(0.05, 3.0), rate_jump=st.none() | _OCTAVES)
    # the streams decide at different panels: geometric at 11, slow at the end
    @example(True, STREAMS[1], (-3.0, False, None, None, None, 0.0),
             (-1.05, False, None, None, None, 0.0), None, 0.5, None)
    # a jump bisected in one stream only, weighted and not
    @example(True, STREAMS[0], (-1.6, False, 14.5, None, None, 0.0),
             (0.0, False, None, None, None, 0.0), None, 0.5, None)
    @example(False, STREAMS[1], (-1.4, False, 14.5, None, None, 0.0),
             (-3.0, False, None, None, None, 0.0), None, 0.5, None)
    # NaN or inf in one integrand only
    @example(True, STREAMS[1], (-2.0, False, None, None, (5.2, math.nan), 0.0),
             (-1.05, False, None, None, None, 0.0), None, 0.5, None)
    @example(False, STREAMS[2], (-1.0, False, None, None, None, 0.0),
             (0.5, False, None, None, (14.2, math.inf), 0.0), None, 0.5, None)
    # a read that raises before, at and after the panel where the first
    # stream decides (the 11th), and where the second does (the 20th, by
    # the end-of-scan rule)
    @example(True, STREAMS[1], (-3.0, False, None, None, None, 0.0),
             (-1.05, False, None, None, None, 0.0), (5.5, ValueError), 0.5, None)
    @example(True, STREAMS[1], (-3.0, False, None, None, None, 0.0),
             (-1.05, False, None, None, None, 0.0), (10.5, RangeEnd), 0.5, None)
    @example(True, STREAMS[1], (-3.0, False, None, None, None, 0.0),
             (-1.05, False, None, None, None, 0.0), (10.5, ValueError), 0.5, None)
    @example(True, STREAMS[1], (-3.0, False, None, None, None, 0.0),
             (-1.05, False, None, None, None, 0.0), (20.3, RangeEnd), 0.5, None)
    @example(True, STREAMS[1], (-3.0, False, None, None, None, 0.0),
             (-1.05, False, None, None, None, 0.0), (20.3, ValueError), 0.5, None)
    @example(True, STREAMS[1], (-3.0, False, None, None, None, 0.0),
             (-1.05, False, None, None, None, 0.0), (30.5, ValueError), 0.5, None)
    @settings(max_examples=150, deadline=None)
    def test_streams_agree_with_their_scans_alone(self, upward, streams, first, second,
                                                  end, rate, rate_jump):
        ours, reference = self._streams_both(upward, streams, first, second, end, rate,
                                             rate_jump)
        assert ours == reference

    def test_streams_decide_apart(self):
        # the case the first example pins: a stream decides while the other reads on
        ours, _ = self._streams_both(True, self.STREAMS[1],
                                     (-3.0, False, None, None, None, 0.0),
                                     (-1.05, False, None, None, None, 0.0),
                                     (20.3, RangeEnd), 0.5, None)
        assert [(o[1], len(o[4])) for o in ours] == [("geometric", 11), ("slow-geometric", 20)]

    @pytest.mark.parametrize("error", [RangeEnd, ValueError])
    def test_a_bisection_that_raises_ends_its_stream_alone(self, error):
        # f1 jumps inside panel 14, so only its stream bisects that panel; the
        # read raises at one node of the panel's first half, which the
        # panel's own nodes miss, so the other stream reads on
        lo, hi = 2.0 ** 14, 2.0 ** 15
        [pieces], _ = quadrature._nodes([lo], [0.5 * (lo + hi)])
        node = next(x for x in pieces[1:-1] if x not in quadrature._nodes([lo], [hi])[0])
        f1, _ = _integrand(True, -1.6, False, 14.5, None, None, None)

        def read(z):
            if np.any(z == node):
                raise error("at a piece's node")
            return f1(z), z ** -1.05, 0.5 / z

        def scan():
            return quadrature._upper_scans(1.0, read, self.STREAMS[0][:1] + ((1, None),))

        ours, reference = _both(scan, lambda outcomes: [
            _outcome(lambda: quadrature._settled(o), _bits) for o in outcomes])
        assert ours == reference
        if error is RangeEnd:
            # the range ends before panel 14, where the end-of-scan rule decides
            assert ours[0][1] == "slow-geometric" and len(ours[0][4]) == 14
        else:
            assert ours[0] == (ValueError, "at a piece's node")
        assert ours[1][1] == "slow-geometric" and len(ours[1][4]) == MAX_PANELS


class TestExceptionLocality:
    """A block whose integrand raises is cut to its first half, down to the
    panel that raises, and the panels before it are used first: a failure
    past the panel where the verdict fires changes nothing, and a failure
    at that panel ends the range or propagates, as panel by panel."""

    @staticmethod
    def _exhausting(fail_at, error):
        # all mass on the first two octaves: the exhausted rule fires at the
        # 13th panel, the second block's second row
        def f(z):
            if np.any(z > 2.0 ** fail_at):
                raise error("past the deciding panel")
            return np.where(z < 4.0, (4.0 - z) ** 2, 0.0)
        return f

    @pytest.mark.parametrize("error", [RangeEnd, ValueError])
    def test_failure_past_the_verdict_is_not_reached(self, error):
        ours, reference = _both(lambda: _upper(self._exhausting(14.5, error)))
        assert ours == reference
        assert ours[:2] == (FINITE, "exhausted") and len(ours[4]) == 13

    @pytest.mark.parametrize("error, want", [(RangeEnd, "range-end"), (ValueError, None)])
    def test_failure_at_the_deciding_panel_ends_as_before(self, error, want):
        ours, reference = _both(lambda: _upper(self._exhausting(12.5, error)))
        assert ours == reference
        if want is None:
            assert ours == (ValueError, "past the deciding panel")
        else:
            assert ours[:2] == (INCONCLUSIVE, want) and len(ours[4]) == 12

    @staticmethod
    def _failing_copy(below):
        """An undeclared supercritical pair, q^2 - q with 0.25 q, whose handle
        raises ValueError between 0 and ``below``.  Its lowest scan (from
        0.5 toward 0) decides at 39 panels, down to 2^-40; its block goes
        on to 2^-45."""
        def handle(q):
            if 0.0 < q < below:
                raise ValueError("no value here")
            return q * q - q
        return CustomBranching(eval=handle), CustomImmigration(eval=lambda q: 0.25 * q)

    @pytest.mark.parametrize("numeric_only", [False, True])
    def test_custom_handle_failing_past_the_verdict(self, numeric_only):
        def classify():
            return classify_zero_state(*self._failing_copy(2.0 ** -41.5),
                                       numeric_only=numeric_only)
        ours, reference = _both(classify, repr)
        assert ours == reference and "Transient" in ours

    @pytest.mark.parametrize("numeric_only", [False, True])
    def test_custom_handle_failing_at_the_deciding_panel(self, numeric_only):
        def classify():
            return classify_zero_state(*self._failing_copy(2.0 ** -39.5),
                                       numeric_only=numeric_only)
        ours, reference = _both(classify, repr)
        assert ours == reference and ours[0] is EvaluationError

    # undeclared pairs whose criterion scans' streams decide apart: psi, phi,
    # where phi's handle raises, and the standalone verdict the other stream
    # of that scan gives.  Upward, heaviness decides at 11 panels and the
    # outer integral at 25, or the outer at 23 and heaviness at 30;
    # downward, stationarity at 11 and the inner integral at 14
    APART = {
        "outer": (lambda q: q * q, math.sqrt, lambda q: q > 2.0 ** 18.5,
                  lambda psi, phi: heaviness(psi, phi).is_yes),
        "heaviness": (lambda q: q * q, lambda q: math.log1p(q / 2.0),
                      lambda q: q > 2.0 ** 26.5,
                      lambda psi, phi: _outer_estimate(psi, phi, 1.0).verdict == FINITE),
        "inner": (lambda q: q ** 1.5, lambda q: q ** 0.3, lambda q: 0.0 < q < 2.0 ** -12.5,
                  lambda psi, phi: stationary_exists(psi, phi).is_no),
    }

    @pytest.mark.parametrize("meets", sorted(APART))
    def test_custom_handle_failing_past_one_streams_verdict(self, meets):
        # the classification raises what the standalone scan that meets the
        # failure raises, the first of heaviness, the outer and the inner
        # integral and stationarity, as when each ran alone in that order
        psi_handle, phi_handle, fails, other_answers = self.APART[meets]

        def handle(q):
            if fails(q):
                raise ValueError("no value here")
            return phi_handle(q)

        psi, phi = CustomBranching(eval=psi_handle), CustomImmigration(eval=handle)
        ours, reference = _both(lambda: classify_zero_state(psi, phi, numeric_only=True),
                                repr)
        alone = {"heaviness": lambda: heaviness(psi, phi),
                 "outer": lambda: _outer_estimate(psi, phi, 1.0),
                 "inner": lambda: _inner_estimate(psi, phi, 1.0, 0.0)}[meets]
        assert ours == reference == _outcome(alone, repr)
        assert ours[0] is EvaluationError
        assert other_answers(psi, phi)


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
