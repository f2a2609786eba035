"""Flow inversion, extinction probabilities, and the marginal transform."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cbizero.classify import is_supercritical
from cbizero.flow import FlowError, FlowSolver, GreyConditionError, solver
from cbizero.mechanisms import (
    CompoundPoissonImmigration,
    CustomBranching,
    CustomImmigration,
    GammaImmigration,
    LampertiImmigration,
    MechanismDomainError,
    QuadraticBranching,
    StableBranching,
    StableImmigration,
    conservativity_check,
    grey_check,
    largest_root,
    positivity_threshold,
)

FELLER = StableBranching(d=1.0, alpha=2.0)          # psi = q^2
STABLE15 = StableBranching(d=1.0, alpha=1.5)        # psi = q^1.5
SUBCRIT = QuadraticBranching(b=1.0, sigma2=2.0)     # psi = q + q^2
SUPER = QuadraticBranching(b=-1.0, sigma2=2.0)      # psi = -q + q^2, root 1


class TestTailTime:
    def test_feller(self):
        assert solver(FELLER).tail_time(2.0) == pytest.approx(0.5)

    def test_stable_15(self):
        # antiderivative 2 a^{-1/2}
        assert solver(STABLE15).tail_time(1.0) == pytest.approx(2.0)
        assert solver(STABLE15).tail_time(4.0) == pytest.approx(1.0)

    def test_subcritical_quadratic(self):
        # partial fractions: int dq/(q(1+q)) = log(q/(1+q))
        assert solver(SUBCRIT).tail_time(1.0) == pytest.approx(math.log(2.0))

    def test_strictly_decreasing(self):
        s = solver(STABLE15)
        values = [s.tail_time(a) for a in (0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_custom_matches_closed_form(self):
        custom = FlowSolver(psi=CustomBranching(eval=lambda q: q * q))
        assert custom.tail_time(2.0) == pytest.approx(0.5, rel=1e-8)

    def test_pure_drift_has_no_tail_time(self):
        drift = FlowSolver(psi=QuadraticBranching(b=1.0, sigma2=0.0))
        with pytest.raises(GreyConditionError):
            drift.tail_time(1.0)

    def test_below_supercritical_root_rejected(self):
        with pytest.raises(MechanismDomainError):
            solver(SUPER).tail_time(0.5)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(MechanismDomainError):
            solver(FELLER).tail_time(0.0)


class TestBoundaryFlow:
    def test_feller_is_one_over_t(self):
        s = solver(FELLER)
        assert s.v_from_infinity(1.0) == pytest.approx(1.0)
        assert s.v_from_infinity(0.25) == pytest.approx(4.0)

    def test_stable_15_inverts_tail_time(self):
        assert solver(STABLE15).v_from_infinity(2.0) == pytest.approx(1.0)

    def test_strictly_decreasing_in_t(self):
        s = solver(SUBCRIT)
        values = [s.v_from_infinity(t) for t in (0.1, 0.5, 1.0, 5.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_supercritical_limit_is_largest_root(self):
        assert solver(SUPER).v_from_infinity(200.0) == pytest.approx(1.0)

    def test_custom_route_agrees(self):
        custom = FlowSolver(psi=CustomBranching(eval=lambda q: q * q))
        assert custom.v_from_infinity(1.0) == pytest.approx(1.0, rel=1e-6)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(MechanismDomainError):
            solver(FELLER).v_from_infinity(0.0)


class TestFlowFromLambda:
    def test_feller_closed_form(self):
        assert solver(FELLER).v_from_lambda(1.0, 1.0) == pytest.approx(0.5)

    def test_zero_is_fixed_point(self):
        for s in (solver(FELLER), solver(SUPER)):
            assert s.v_from_lambda(3.0, 0.0) == 0.0

    def test_time_zero_is_identity(self):
        assert solver(STABLE15).v_from_lambda(0.0, 4.0) == 4.0

    def test_stable_15_satisfies_defining_equation(self):
        # 2 (v^{-1/2} - lambda^{-1/2}) = t at lambda=4, t=1 gives v=1
        v = solver(STABLE15).v_from_lambda(1.0, 4.0)
        assert 2.0 * (v ** -0.5 - 4.0 ** -0.5) == pytest.approx(1.0, rel=1e-10)
        assert v == pytest.approx(1.0)

    def test_supercritical_both_sides_of_root(self):
        s = solver(SUPER)
        # exact: 1/v = e^{-t}/lam - expm1(-t)
        assert s.v_from_lambda(1.0, 0.5) == pytest.approx(math.e / (1 + math.e))
        assert s.v_from_lambda(1.0, 2.0) == pytest.approx(2 * math.e / (2 * math.e - 1))
        assert s.v_from_lambda(5.0, 1.0) == pytest.approx(1.0)  # started at the root

    def test_numeric_route_matches_closed_form(self):
        custom = FlowSolver(psi=CustomBranching(eval=lambda q: -q + q * q))
        assert custom.v_from_lambda(1.0, 0.5) == pytest.approx(
            math.e / (1 + math.e), rel=1e-9)
        assert custom.v_from_lambda(1.0, 2.0) == pytest.approx(
            2 * math.e / (2 * math.e - 1), rel=1e-9)

    def test_monotone_nonincreasing_in_t_subcritical(self):
        s = solver(SUBCRIT)
        values = [s.v_from_lambda(t, 3.0) for t in (0.0, 0.5, 1.0, 2.0, 8.0)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_dominated_by_boundary_flow(self):
        s = solver(STABLE15)
        for t in (0.1, 1.0, 10.0):
            assert s.v_from_lambda(t, 7.0) <= s.v_from_infinity(t)

    def test_above_cap_means_infinity(self):
        s = solver(FELLER)
        assert s.v_from_lambda(0.5, 1e301) == s.v_from_infinity(0.5)

    # NaN fails a "< 0" test: on the undeclared route it ran the inversion
    # to "did not converge", on the closed route it answered nan
    @pytest.mark.parametrize("psi", [FELLER, CustomBranching(eval=lambda q: q * q)],
                             ids=["closed", "undeclared"])
    def test_nan_time_rejected(self, psi):
        with pytest.raises(MechanismDomainError, match="time must be >= 0"):
            FlowSolver(psi=psi).v_from_lambda(math.nan, 1.0)

    @pytest.mark.parametrize("psi", [FELLER, CustomBranching(eval=lambda q: q * q)],
                             ids=["closed", "undeclared"])
    def test_nan_level_rejected(self, psi):
        with pytest.raises(MechanismDomainError, match="initial level must be >= 0"):
            FlowSolver(psi=psi).v_from_lambda(1.0, math.nan)

    def test_inconsistent_custom_structure_raises(self):
        # positive dip below the detected largest root: not a convex exponent
        wild = CustomBranching(eval=lambda q: q * (q - 1.0) * (q - 2.0) * (q - 3.0))
        s = FlowSolver(psi=wild)
        with pytest.raises(FlowError):
            s.v_from_lambda(1.0, 2.5)


class TestSemigroup:
    @pytest.mark.parametrize("mech", [FELLER, STABLE15, SUBCRIT, SUPER])
    def test_flow_composes(self, mech):
        s = solver(mech)
        for t, u, lam in [(0.3, 0.7, 2.0), (1.0, 1.0, 0.4), (0.05, 2.0, 5.0)]:
            direct = s.v_from_lambda(t + u, lam)
            composed = s.v_from_lambda(t, s.v_from_lambda(u, lam))
            assert composed == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("mech", [FELLER, SUBCRIT])
    def test_ode_residual_shrinks_first_order(self, mech):
        s = solver(mech)
        lam, t = 2.0, 0.5
        v = s.v_from_lambda(t, lam)
        residuals = []
        for h in (1e-3, 1e-4, 1e-5):
            rate = (s.v_from_lambda(t + h, lam) - v) / h
            residuals.append(abs(rate + mech(v)))
        assert residuals[0] / residuals[1] == pytest.approx(10.0, rel=0.2)
        assert residuals[1] / residuals[2] == pytest.approx(10.0, rel=0.2)


class TestExtinction:
    def test_feller_values(self):
        s = solver(FELLER)
        assert s.extinction_prob(1.0, 1.0) == pytest.approx(math.exp(-1.0))
        assert s.extinction_prob(2.0, 0.5) == pytest.approx(math.exp(-4.0))

    def test_zero_mass_dies_immediately(self):
        assert solver(STABLE15).extinction_prob(0.0, 3.0) == 1.0

    def test_nondecreasing_in_t(self):
        s = solver(STABLE15)
        probs = [s.extinction_prob(1.0, t) for t in (0.1, 1.0, 10.0, 100.0)]
        assert all(p <= r for p, r in zip(probs, probs[1:]))


class TestMarginalTransform:
    def test_drift_immigration_oracle(self):
        # psi=q^2, phi=2q from x=0: transform is (1+qt)^{-2}
        s = solver(FELLER)
        phi = StableImmigration(dprime=2.0, beta=1.0)
        for q, t in [(1.0, 1.0), (0.5, 2.0), (4.0, 0.25), (2.0, 3.0)]:
            assert s.cbi_laplace(0.0, q, t, phi) == pytest.approx(
                (1.0 + q * t) ** -2.0, rel=1e-8)

    def test_with_initial_mass(self):
        s = solver(FELLER)
        phi = StableImmigration(dprime=0.5, beta=1.0)
        expected = math.exp(-0.5) * 2.0 ** -0.5
        assert s.cbi_laplace(1.0, 1.0, 1.0, phi) == pytest.approx(expected, rel=1e-8)

    def test_q_zero_is_one(self):
        phi = StableImmigration(dprime=1.0, beta=0.5)
        assert solver(STABLE15).cbi_laplace(2.0, 0.0, 1.0, phi) == 1.0

    @pytest.mark.parametrize("copy", [False, True], ids=["family", "custom-copy"])
    @pytest.mark.parametrize("d", [0.25, 0.5, 0.75])
    def test_positive_root_oracle(self, d, copy):
        # psi = u^2 - u, phi = d u: v_t(lam) = 1/(1 - (1 - 1/lam) e^{-t}) and
        # int_{v_t}^lam d/(u - 1) du give (|v_t - 1|/|lam - 1|)^d from x = 0,
        # that is (e^{-t} v_t/lam)^d.  By t = 30 v_t - 1 is below 1e-13, and
        # from t = 37 on v_t rounds to the root
        psi, phi = SUPER, StableImmigration(dprime=d, beta=1.0)
        if copy:
            psi, phi = _branching_copy(psi), CustomImmigration(eval=lambda u, f=phi: f(u))
        s = solver(psi)
        for lam in (0.25, 0.5, 2.0, 4.0):       # both sides of the root 1
            for t in (0.5, 3.0, 30.0, 40.0):
                v_t = 1.0 / (1.0 - (1.0 - 1.0 / lam) * math.exp(-t))
                want = (math.exp(-t) * v_t / lam) ** d
                assert s.cbi_laplace(0.0, lam, t, phi) == pytest.approx(want, rel=1e-9)

    def test_positive_root_as_start(self):
        # the flow sits on the root, where Phi(root) = d
        phi = StableImmigration(dprime=0.5, beta=1.0)
        got = solver(SUPER).cbi_laplace(1.0, 1.0, 3.0, phi)
        assert got == pytest.approx(math.exp(-1.0 - 1.5), rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 30.0, 800.0])
    def test_subcritical_oracle_to_underflow(self, t):
        # psi = u + u^2, phi = d u: 1/v_t = e^t/lam + e^t - 1 and
        # int_{v_t}^lam d/(1 + u) du; v_800 underflows to 0
        d, lam, x = 0.5, 2.0, 0.7
        phi = StableImmigration(dprime=d, beta=1.0)
        v_t = 1.0 / (math.exp(t) / lam + math.expm1(t)) if t < 700.0 else 0.0
        want = math.exp(-x * v_t) * ((1.0 + v_t) / (1.0 + lam)) ** d
        assert solver(SUBCRIT).cbi_laplace(x, lam, t, phi) == pytest.approx(want, rel=1e-12)

    def test_nonincreasing_in_q_and_x(self):
        s = solver(SUBCRIT)
        phi = StableImmigration(dprime=1.0, beta=0.5)
        in_q = [s.cbi_laplace(1.0, q, 1.0, phi) for q in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(in_q, in_q[1:]))
        in_x = [s.cbi_laplace(x, 1.0, 1.0, phi) for x in (0.0, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(in_x, in_x[1:]))


# --- built-in families against their undeclared custom copies --------------

ORACLE_BRANCHING = (
    StableBranching(d=1.0, alpha=1.3),
    StableBranching(d=2.0, alpha=1.5),
    StableBranching(d=0.5, alpha=2.0),
    QuadraticBranching(b=-1.0, sigma2=2.0),
    QuadraticBranching(b=0.0, sigma2=2.0),
    QuadraticBranching(b=1.0, sigma2=2.0),
    QuadraticBranching(b=1.0, sigma2=0.0),
)
ORACLE_IMMIGRATION = (
    StableImmigration(dprime=0.5, beta=1.0),
    StableImmigration(dprime=1.0, beta=0.5),
    GammaImmigration(a=1.0, b=2.0),
    LampertiImmigration(beta=0.5),
    CompoundPoissonImmigration(mass=2.0),
)
# both sides of the supercritical root 1 of quadratic:b=-1,sigma2=2
TAIL_LEVELS = (0.7, 1.5, 4.0)
BOUNDARY_TIMES = (0.3, 1.0, 3.0)
FLOW_STARTS = ((0.5, 0.4), (2.0, 0.7), (0.5, 2.0), (1.0, 5.0))


def _branching_copy(psi):
    return CustomBranching(eval=lambda q: psi(q))


def _outcome(fn, *args):
    """fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _assert_agree(family, copy, rel=None):
    if isinstance(family, type):
        assert copy is family
    elif rel is None:
        assert copy == family
    else:
        assert copy == pytest.approx(family, rel=rel)


class TestCustomCopyOracle:
    """Closed-form family routes against the numeric routes of a custom copy."""

    @pytest.mark.parametrize("psi", ORACLE_BRANCHING, ids=lambda mech: mech.spec())
    def test_checks_agree(self, psi):
        copy = _branching_copy(psi)
        for check in (positivity_threshold, is_supercritical,
                      lambda m: grey_check(m).value,
                      lambda m: conservativity_check(m).value):
            _assert_agree(_outcome(check, psi), _outcome(check, copy))

    @pytest.mark.parametrize("psi", ORACLE_BRANCHING, ids=lambda mech: mech.spec())
    def test_flow_agrees(self, psi):
        family, copy = FlowSolver(psi=psi), FlowSolver(psi=_branching_copy(psi))
        for a in TAIL_LEVELS:
            _assert_agree(_outcome(family.tail_time, a),
                          _outcome(copy.tail_time, a), rel=1e-9)
        for t in BOUNDARY_TIMES:
            _assert_agree(_outcome(family.v_from_infinity, t),
                          _outcome(copy.v_from_infinity, t), rel=1e-9)
        for t, lam in FLOW_STARTS:
            _assert_agree(_outcome(family.v_from_lambda, t, lam),
                          _outcome(copy.v_from_lambda, t, lam), rel=1e-9)

    def test_family_errors_reach_the_copy(self):
        drift = QuadraticBranching(b=1.0, sigma2=0.0)
        for psi in (drift, _branching_copy(drift)):
            with pytest.raises(GreyConditionError):
                FlowSolver(psi=psi).v_from_infinity(1.0)
        for psi in (SUPER, _branching_copy(SUPER)):
            with pytest.raises(MechanismDomainError):
                FlowSolver(psi=psi).tail_time(0.7)

    @pytest.mark.parametrize("phi", ORACLE_IMMIGRATION, ids=lambda mech: mech.spec())
    def test_compound_poisson_agrees(self, phi):
        copy = CustomImmigration(eval=lambda q: phi(q))
        assert copy.compound_poisson().value == phi.compound_poisson().value

    def test_boundary_flow_edges(self):
        # past ~37 time units the supercritical flow sits on its root 1
        super_copy = FlowSolver(psi=_branching_copy(SUPER))
        assert super_copy.v_from_infinity(40.0) == 1.0
        assert super_copy.v_from_infinity(40.0) == FlowSolver(psi=SUPER).v_from_infinity(40.0)
        # F(a) = 50 a^-0.02 for q^1.02, whose psi stays finite up to the level
        # cap V_CAP = 1e300; times below F(V_CAP) = 5e-5 put v_t above it
        slow = FlowSolver(psi=CustomBranching(eval=lambda q: q * q ** 0.02))
        assert slow.v_from_infinity(1e-4) == pytest.approx(5e5 ** 50, rel=1e-9)
        with pytest.raises(FlowError, match="V_CAP"):
            slow.v_from_infinity(1e-6)
        # a flow that reaches 0 in finite time: int_0 dq/psi < inf
        dying = FlowSolver(psi=CustomBranching(eval=lambda q: q * q + math.sqrt(q)))
        assert dying.v_from_infinity(5.0) == 0.0
        assert dying.v_from_infinity(1.0) > 0.0

    # psi(q) underflows to 0.0 near 0, which must not read as a root
    @pytest.mark.parametrize("psi", ORACLE_BRANCHING[:3] + ORACLE_BRANCHING[4:5],
                             ids=lambda mech: mech.spec())
    def test_copy_root_is_zero(self, psi):
        assert largest_root(_branching_copy(psi)) == 0.0


# --- edges that only the numeric flow of an undeclared mechanism reaches ----

Q2 = FlowSolver(psi=CustomBranching(eval=lambda q: q * q))
# F(a) = 50 a^-0.02; psi overflows near 1e302, past V_CAP = 1e300
SLOW = FlowSolver(psi=CustomBranching(eval=lambda q: q * q ** 0.02))
GRID = [10.0 ** (k / 4.0) for k in range(-8, 9)]


class TestNumericFlowEdges:
    def test_lands_on_octave_levels(self):
        # for psi = q^2, v_t(lam) = lam / 2^k at t = (2^k - 1)/lam
        assert Q2.v_from_lambda(1.0, 3.0) == pytest.approx(0.75, rel=1e-9)
        for lam in (0.3, 1.0, 3.0, 7.0, 10.0):
            for k in range(1, 12):
                t = (2.0 ** k - 1.0) / lam
                assert Q2.v_from_lambda(t, lam) == pytest.approx(lam / 2.0 ** k, rel=1e-9)

    @pytest.mark.parametrize("family", [FELLER, SUPER], ids=lambda mech: mech.spec())
    def test_grid_matches_closed_form(self, family):
        copy = FlowSolver(psi=_branching_copy(family))
        closed = FlowSolver(psi=family)
        for t in GRID:
            for lam in GRID:
                assert copy.v_from_lambda(t, lam) == pytest.approx(
                    closed.v_from_lambda(t, lam), rel=1e-9)

    def test_tail_time_far_out(self):
        # q/psi(q)*q stays finite where u^2 = 1/q^2 underflows
        q15 = FlowSolver(psi=CustomBranching(eval=lambda q: q ** 1.5))
        for a in (1e160, 1e200):
            assert q15.tail_time(a) == pytest.approx(2.0 / math.sqrt(a), rel=1e-9)
        q101 = FlowSolver(psi=CustomBranching(eval=lambda q: q ** 1.01))
        assert q101.v_from_infinity(1.0) == pytest.approx(1e200, rel=1e-9)

    def test_tail_time_refuses_an_overflowed_psi(self):
        q15 = FlowSolver(psi=CustomBranching(eval=lambda q: q ** 1.5))
        with pytest.raises(FlowError, match="overflows"):
            q15.tail_time(1e290)

    def test_descends_past_psi_underflow(self):
        # psi = q^2 underflows below ~1e-162; the bracket halves its step there
        assert Q2.v_from_infinity(1e150) == pytest.approx(1e-150, rel=1e-9)
        with pytest.raises(FlowError, match="underflows above v_t"):
            Q2.v_from_infinity(1e200)

    def test_ascends_short_of_psi_overflow(self):
        # psi = q^2 overflows above ~1e154; the doubling step from e^255 to
        # e^511 lands there, and the bracket halves its step
        assert Q2.v_from_infinity(1e-140) == pytest.approx(1e140, rel=1e-9)

    def test_closed_form_overflow_is_a_flow_error(self):
        # (d (alpha - 1) t)^(-1/(alpha - 1)) = 1e6^1000 and 1/5e-324 overflow
        with pytest.raises(FlowError, match="closed flow form overflows"):
            solver(StableBranching(d=1.0, alpha=1.001)).v_from_infinity(1e-3)
        with pytest.raises(FlowError, match="closed flow form overflows"):
            solver(FELLER).tail_time(5e-324)

    def test_overflow_below_v_t_still_raises(self):
        with pytest.raises(FlowError, match="overflows below v_t"):
            Q2.v_from_infinity(1e-160)

    def test_tail_time_keeps_the_range_where_psi_overflows(self):
        # q^1.02 overflows near 1e302, yet F(1e299) = 50e-5.98 = 5.2e-5 has
        # most of its mass above that: reading 1/psi as 0 there gave 7.2e-6
        try:
            got = SLOW.tail_time(1e299)
        except FlowError:
            return
        assert got == pytest.approx(50.0 * 1e299 ** -0.02, rel=1e-9)

    def test_boundary_flow_past_v_cap_raises(self):
        # v_t = (50/t)^50 = 5e6^50, about 1e335, lies past V_CAP
        with pytest.raises(FlowError):
            SLOW.v_from_infinity(1e-5)


FLOW_FAMILIES = st.one_of(
    st.builds(StableBranching, d=st.floats(0.2, 5.0), alpha=st.floats(1.2, 2.0)),
    st.builds(QuadraticBranching, b=st.floats(-2.0, 2.0), sigma2=st.floats(0.2, 4.0)),
)


@given(psi=FLOW_FAMILIES, t=st.floats(0.05, 5.0), share=st.floats(0.05, 0.95),
       k=st.integers(1, 11))
@settings(max_examples=40, deadline=None)
def test_custom_copy_flow_property(psi, t, share, k):
    """An undeclared copy answers as its family, or raises the same class.

    The parameter and time ranges keep every v_t inside the float range.
    """
    family, copy = FlowSolver(psi=psi), FlowSolver(psi=_branching_copy(psi))
    root = largest_root(psi)
    above = root + 4.0 * share
    # from lam the flow lands on the octave level lam / 2^k = root + share at t_k
    lam = 2.0 ** k * (root + share)
    t_k = family.tail_time(root + share) - family.tail_time(lam)
    calls = [("tail_time", (above,)), ("v_from_infinity", (t,)),
             ("v_from_lambda", (t, above)), ("v_from_lambda", (t_k, lam))]
    if root > 0:        # below the root F is undefined and the flow climbs
        calls += [("tail_time", (root * share,)), ("v_from_lambda", (t, root * share))]
    for name, args in calls:
        _assert_agree(_outcome(getattr(family, name), *args),
                      _outcome(getattr(copy, name), *args), rel=1e-9)
