"""Scaling invariances of CBI mechanisms, on built-in families and copies.

Three exact relations (Kawazu & Watanabe 1971) must hold on every route:

* time constant: c psi runs the flow c times faster, so v_t of c psi is
  v_{ct} of psi, F = tail_time scales by 1/c, and the checks on psi
  (Grey, conservativity, supercriticality, largest root) do not move,
  for c out to 10^(+-15);
* time change: (c psi, c phi) keeps the zero class and the route that
  decides it, down to c = 1e-15, and since its W is W(c .) - W(c), its
  Laplace exponent is L_c(q) = c e^{W(c)} L(q/c);
* space scaling: (psi(k .)/k, phi(k .)) are the mechanisms of kX, whose
  zero set is that of X, so the zero class and L(q) do not move.

Both keep the box dimensions of the zero set, on every route.

Heaviness, the convergence of int^inf Phi/Psi, keeps its verdict under
both: the time change leaves R = Phi/Psi as it is, and space scaling
turns it into k R(k .), whose integral is the same.

On the transient pairs the last zero g follows both: under the time
change it is g/c, with density c f(ct), and space scaling leaves f.

Each runs on Feller, quadratic:b=-1,sigma2=2 and stable:d=1,alpha=1.5,
as built-in families and as undeclared custom copies.  A case that a
known defect breaks is an ``xfail(strict=True)`` naming its CHANGES.md
entry, so that the mend shows.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cbizero.classify import classify_zero_state, heaviness, is_supercritical
from cbizero.flow import solver
from cbizero.mechanisms import (
    CustomBranching,
    CustomImmigration,
    QuadraticBranching,
    StableBranching,
    StableImmigration,
    conservativity_check,
    grey_check,
    largest_root,
)
from cbizero.zeroset import gzero_density, laplace_exponent, log_weight

# (branching, immigration with a non-polar zero set) for each family
PAIRS = {
    "feller": (StableBranching(d=1.0, alpha=2.0), StableImmigration(dprime=1.0, beta=0.5)),
    "supercritical": (QuadraticBranching(b=-1.0, sigma2=2.0),
                      StableImmigration(dprime=1.0, beta=0.5)),
    "stable-1.5": (StableBranching(d=1.0, alpha=1.5),
                   StableImmigration(dprime=0.25, beta=0.5)),
}
ROUTES = ["family", "custom"]
TIMES = (0.3, 1.0, 3.0)
LEVELS = (1.5, 4.0)             # above the supercritical root 1
QS = (0.0, 0.5, 4.0)            # L(0) is 0 for a recurrent zero set


def _copies(psi, phi):
    """Undeclared custom copies of a pair."""
    return CustomBranching(eval=lambda q: psi(q)), CustomImmigration(eval=lambda q: phi(q))


def _pair(name, route):
    psi, phi = PAIRS[name]
    return _copies(psi, phi) if route == "custom" else (psi, phi)


def _time_scaled(psi, c):
    """c psi, as the same family when psi is a built-in one."""
    if isinstance(psi, StableBranching):
        return StableBranching(d=c * psi.d, alpha=psi.alpha)
    if isinstance(psi, QuadraticBranching):
        return QuadraticBranching(b=c * psi.b, sigma2=c * psi.sigma2)
    return CustomBranching(eval=lambda q: c * psi(q))


def _immigration_scaled(phi, c, k=1.0):
    """c phi(k .), as the same family when phi is a built-in one."""
    if isinstance(phi, StableImmigration):
        return StableImmigration(dprime=c * phi.dprime * k ** phi.beta, beta=phi.beta)
    return CustomImmigration(eval=lambda q: c * phi(k * q))


def _space_scaled(psi, phi, k):
    """(psi(k .)/k, phi(k .)), the mechanisms of kX."""
    if isinstance(psi, StableBranching):
        scaled = StableBranching(d=psi.d * k ** (psi.alpha - 1.0), alpha=psi.alpha)
    elif isinstance(psi, QuadraticBranching):
        scaled = QuadraticBranching(b=psi.b, sigma2=psi.sigma2 * k)
    else:
        scaled = CustomBranching(eval=lambda q: psi(k * q) / k)
    return scaled, _immigration_scaled(phi, 1.0, k)


def _checks(psi):
    return (grey_check(psi).value, conservativity_check(psi).value, is_supercritical(psi))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", sorted(PAIRS))
@given(exponent=st.floats(-3.0, 3.0))
@example(exponent=6.0)
@example(exponent=-6.0)
@example(exponent=10.0)
@example(exponent=-10.0)
@example(exponent=15.0)
@example(exponent=-15.0)
@settings(max_examples=12, deadline=None)
def test_time_constant(name, route, exponent):
    c = 10.0 ** exponent
    psi = _pair(name, route)[0]
    fast = _time_scaled(psi, c)
    assert _checks(fast) == _checks(psi)
    assert largest_root(fast) == pytest.approx(largest_root(psi), rel=1e-12)
    flow, fast_flow = solver(psi), solver(fast)
    for t in TIMES:
        assert fast_flow.v_from_infinity(t) == pytest.approx(
            flow.v_from_infinity(c * t), rel=1e-9)
    for a in LEVELS:
        assert fast_flow.tail_time(a) == pytest.approx(flow.tail_time(a) / c, rel=1e-9)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_time_constant_keeps_grey_at_1e_13(name, route):
    psi = _pair(name, route)[0]
    assert grey_check(_time_scaled(psi, 1e-13)).value == grey_check(psi).value


@pytest.mark.parametrize("c", [1e-3, 10.0, 1e-13, 1e-15])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_time_change_keeps_the_zero_class(name, route, c):
    # the route too: supercriticality is read off the root, which c leaves alone
    psi, phi = _pair(name, route)
    want = classify_zero_state(psi, phi)
    scaled = classify_zero_state(_time_scaled(psi, c), _immigration_scaled(phi, c))
    assert (scaled.zero_class, scaled.method) == (want.zero_class, want.method)
    _same_dims(scaled, want)


def _same_dims(got, want):
    """The box dimensions of the zero set, which both relations keep."""
    assert (got.dim_upper, got.dim_lower) == pytest.approx((want.dim_upper, want.dim_lower),
                                                           abs=1e-9)


def _same_heaviness(psi, phi, scaled):
    """The scaled pair keeps heaviness's verdict, and the report keeps its
    heavy verdict and the route that gave it."""
    assert heaviness(*scaled).value == heaviness(psi, phi).value
    want, got = classify_zero_state(psi, phi), classify_zero_state(*scaled)
    assert (got.heavy.value, got.method) == (want.heavy.value, want.method)


@pytest.mark.parametrize("c", [1e-3, 10.0, 1e-13])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_time_change_keeps_heaviness(name, route, c):
    psi, phi = _pair(name, route)
    _same_heaviness(psi, phi, (_time_scaled(psi, c), _immigration_scaled(phi, c)))


@pytest.mark.parametrize("k", [1e-3, 10.0, 1e6])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_space_scaling_keeps_heaviness(name, route, k):
    psi, phi = _pair(name, route)
    _same_heaviness(psi, phi, _space_scaled(psi, phi, k))


@pytest.mark.parametrize("c", [1.0, 10.0])
def test_time_change_of_the_undeclared_supercritical_drift_pair(c):
    # the case of CHANGES.md FOUND 17: c(u^2 - u) with 0.25 c u
    psi = CustomBranching(eval=lambda u: c * (u * u - u))
    phi = CustomImmigration(eval=lambda u: 0.25 * c * u)
    assert classify_zero_state(psi, phi).zero_class == "Transient"


# transient pairs, L(0) > 0: Feller and the supercritical pair with sqrt(q),
# and stable 1.5 with a beta = 0.3 immigration
TIME_CHANGED = {
    "feller": PAIRS["feller"],
    "supercritical": PAIRS["supercritical"],
    "stable-1.5": (StableBranching(d=1.0, alpha=1.5), StableImmigration(dprime=1.0, beta=0.3)),
}


@pytest.mark.parametrize("c", [1e-3, 10.0])
@pytest.mark.parametrize("name", sorted(TIME_CHANGED))
def test_time_change_scales_the_exponent(name, c):
    psi, phi = _copies(*TIME_CHANGED[name])
    scaled = _time_scaled(psi, c), _immigration_scaled(phi, c)
    factor = c * math.exp(log_weight(psi, phi, c))
    for q in (0.25, 1.0, 4.0, 16.0):
        assert laplace_exponent(*scaled, q) / laplace_exponent(psi, phi, q / c) == (
            pytest.approx(factor, rel=1e-9))


def _space_cases():
    for name in sorted(PAIRS):
        for route in ROUTES:
            for k in (1e-3, 10.0, 1e6):
                yield pytest.param(name, route, k, id=f"{name}-{route}-{k:g}")


@pytest.mark.parametrize("name, route, k", _space_cases())
def test_space_scaling_keeps_class_and_exponent(name, route, k):
    psi, phi = _pair(name, route)
    scaled = _space_scaled(psi, phi, k)
    got, want = classify_zero_state(*scaled), classify_zero_state(psi, phi)
    assert got.zero_class == want.zero_class
    _same_dims(got, want)
    for q in QS:
        assert laplace_exponent(*scaled, q) == pytest.approx(
            laplace_exponent(psi, phi, q), rel=1e-9)


# the pairs with a bounded zero set, whose last zero has a density
BOUNDED = ("feller", "supercritical")


@pytest.mark.parametrize("c", [1e-3, 10.0])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", BOUNDED)
def test_time_change_scales_the_last_zero_density(name, route, c):
    psi, phi = _pair(name, route)
    scaled = _time_scaled(psi, c), _immigration_scaled(phi, c)
    for t in TIMES:
        assert gzero_density(*scaled, t) == pytest.approx(
            c * gzero_density(psi, phi, c * t), rel=1e-9)


@pytest.mark.parametrize("k", [1e-3, 10.0, 1e6])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", BOUNDED)
def test_space_scaling_keeps_the_last_zero_density(name, route, k):
    psi, phi = _pair(name, route)
    scaled = _space_scaled(psi, phi, k)
    for t in TIMES:
        assert gzero_density(*scaled, t) == pytest.approx(
            gzero_density(psi, phi, t), rel=1e-9)
