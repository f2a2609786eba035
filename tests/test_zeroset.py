"""Laplace exponent, last-zero law, and stable-index descriptors."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from cbizero import quadrature
from cbizero.mechanisms import (
    CustomBranching,
    CustomImmigration,
    GammaImmigration,
    MechanismDomainError,
    QuadraticBranching,
    StableBranching,
    StableImmigration,
)
from cbizero.zeroset import (
    ZeroSetError,
    _gzero_tail,
    _transform_machine,
    gzero_density,
    lamperti_kappa,
    laplace_exponent,
    log_weight,
    selfsimilar_index,
    subordinator_summary,
)

FELLER = StableBranching(d=1.0, alpha=2.0)
HALF_DRIFT = StableImmigration(dprime=0.5, beta=1.0)   # L(q) = sqrt(q/pi)
ROOT_HALF = StableImmigration(dprime=1.0, beta=0.5)    # f(t) = 2 exp(-2 sqrt t)
SUPER = QuadraticBranching(b=-1.0, sigma2=2.0)


class TestLaplaceExponent:
    @pytest.mark.parametrize("q", [0.5, 1.0, 4.0, 16.0])
    def test_square_root_oracle(self, q):
        got = laplace_exponent(FELLER, HALF_DRIFT, q)
        assert got == pytest.approx(math.sqrt(q / math.pi), rel=1e-6)

    @pytest.mark.parametrize("q", [1e-4, 1e-6])
    def test_square_root_oracle_small_q(self, q):
        # the weight t^{-1/2} falls slower than exp(-q t) over a level octave
        got = laplace_exponent(FELLER, HALF_DRIFT, q)
        assert got == pytest.approx(math.sqrt(q / math.pi), rel=1e-9)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_undeclared_custom_copy_matches_family(self, q):
        copy = CustomBranching(eval=lambda v: v * v)
        root_q = CustomImmigration(eval=math.sqrt)
        assert laplace_exponent(copy, root_q, q) == pytest.approx(
            laplace_exponent(FELLER, ROOT_HALF, q), rel=1e-6)

    def test_strictly_increasing(self):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        values = [laplace_exponent(FELLER, ROOT_HALF, q) for q in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_selfsimilar_slope_matches_index(self):
        gamma = selfsimilar_index(2.0, 1.0, 0.5)
        l1 = laplace_exponent(FELLER, HALF_DRIFT, 1.0)
        l100 = laplace_exponent(FELLER, HALF_DRIFT, 100.0)
        slope = (math.log(l100) - math.log(l1)) / math.log(100.0)
        assert slope == pytest.approx(gamma, abs=0.01)

    def test_concavity_on_sampled_triple(self):
        q1, q2 = 1.0, 100.0
        lam = 0.25
        qm = lam * q1 + (1 - lam) * q2
        lm = laplace_exponent(FELLER, ROOT_HALF, qm)
        bound = (lam * laplace_exponent(FELLER, ROOT_HALF, q1)
                 + (1 - lam) * laplace_exponent(FELLER, ROOT_HALF, q2))
        assert lm >= bound - 1e-9

    def test_zero_argument_transient_is_positive(self):
        got = laplace_exponent(FELLER, ROOT_HALF, 0.0)
        assert got == pytest.approx(2.0 * math.exp(-2.0), rel=1e-6)

    def test_zero_argument_recurrent_is_zero(self):
        assert laplace_exponent(FELLER, HALF_DRIFT, 0.0) == 0.0

    def test_zero_argument_recurrent_needs_no_scan(self):
        # the class decides L(0): the q = 0 scan of this recurrent pair would
        # end no-rule after 61 panels whose contributions fall like 1 - c sqrt(x)
        psi = QuadraticBranching(b=1.0, sigma2=2.0)
        assert laplace_exponent(psi, ROOT_HALF, 0.0) == 0.0
        summary = subordinator_summary(psi, ROOT_HALF)
        assert (summary.l_zero, summary.killed.is_no) == (0.0, True)
        assert summary.killed.evidence == {"zero_class": "Recurrent"}

    def test_heavy_set_has_positive_drift_limit(self):
        q = 1e6
        got = laplace_exponent(FELLER, ROOT_HALF, q) / q
        assert got == pytest.approx(math.exp(-2.0), rel=1e-2)

    def test_light_set_drift_vanishes(self):
        q = 1e6
        assert laplace_exponent(FELLER, HALF_DRIFT, q) / q < 1e-3

    def test_polar_pair_rejected(self):
        with pytest.raises(ZeroSetError, match="classify"):
            laplace_exponent(FELLER, StableImmigration(dprime=2.0, beta=1.0), 1.0)

    def test_trivial_point_rejected(self):
        with pytest.raises(ZeroSetError, match="classify"):
            laplace_exponent(QuadraticBranching(b=1.0, sigma2=0.0), HALF_DRIFT, 1.0)

    def test_missing_immigration_rejected(self):
        with pytest.raises(ZeroSetError):
            laplace_exponent(FELLER, None, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(MechanismDomainError):
            laplace_exponent(FELLER, HALF_DRIFT, -1.0)

    def test_supercritical_pair_has_killed_exponent(self):
        # bounded zero set: L(0) > 0
        assert laplace_exponent(SUPER, HALF_DRIFT, 0.0) > 0.0


class TestLogWeight:
    def test_normalization_point(self):
        assert log_weight(FELLER, ROOT_HALF, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        # W(t) = 2 - 2 sqrt(t) for psi=q^2, phi=sqrt(q)
        assert log_weight(FELLER, ROOT_HALF, 4.0) == pytest.approx(-2.0, rel=1e-9)
        assert log_weight(FELLER, ROOT_HALF, 0.25) == pytest.approx(1.0, rel=1e-9)

    def test_decreasing_in_time(self):
        values = [log_weight(FELLER, GammaImmigration(a=3.0, b=1.0), t)
                  for t in (0.1, 1.0, 10.0, 100.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        # a NaN passes t <= 0, and an infinite t would read as a flow time
        with pytest.raises(MechanismDomainError, match=f"time t must be finite, got {t}"):
            log_weight(FELLER, ROOT_HALF, t)


class TestGZeroDensity:
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_exponential_oracle(self, t):
        want = 2.0 * math.exp(-2.0 * math.sqrt(t))
        assert gzero_density(FELLER, ROOT_HALF, t) == pytest.approx(want, rel=1e-6)

    def test_tail_probability(self):
        tail, _ = quad(lambda t: gzero_density(FELLER, ROOT_HALF, t), 1.0, math.inf)
        assert tail == pytest.approx(3.0 * math.exp(-2.0), rel=1e-6)

    @pytest.mark.parametrize("psi,phi", [
        (FELLER, ROOT_HALF),
        (FELLER, GammaImmigration(a=3.0, b=1.0)),
        (StableBranching(d=1.0, alpha=1.5), StableImmigration(dprime=1.0, beta=0.3)),
        (SUPER, HALF_DRIFT),
        (StableBranching(d=0.5, alpha=1.8), StableImmigration(dprime=0.7, beta=0.5)),
    ])
    def test_integrates_to_one(self, psi, phi):
        total, _ = quad(lambda t: gzero_density(psi, phi, t), 0.0, math.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_recurrent_error_message(self):
        with pytest.raises(ZeroSetError, match=r"g∞ undefined \(unbounded zero set\)"):
            gzero_density(FELLER, HALF_DRIFT, 1.0)

    def test_polar_rejected(self):
        with pytest.raises(ZeroSetError, match="classify"):
            gzero_density(FELLER, StableImmigration(dprime=2.0, beta=1.0), 1.0)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(MechanismDomainError):
            gzero_density(FELLER, ROOT_HALF, 0.0)


def _positive_root_pair(d, copy, c):
    """psi = c(u^2 - u) (root 1) with phi = c d u, or undeclared copies of both."""
    psi = QuadraticBranching(b=-c, sigma2=2.0 * c)
    phi = StableImmigration(dprime=c * d, beta=1.0)
    if copy:
        return (CustomBranching(eval=lambda u: psi(u)),
                CustomImmigration(eval=lambda u: phi(u)))
    return psi, phi


@pytest.mark.parametrize("c,copy", [(1.0, False), (1.0, True), (10.0, False), (40.0, False)],
                         ids=["family", "custom-copy", "family-c10", "family-c40"])
@pytest.mark.parametrize("d", [0.25, 0.5, 0.75])
class TestPositiveRootOracle:
    """At c = 1, v_t = 1/(1 - e^{-t}) and e^{W(t)} = ((e - 1)/(e^t - 1))^d, so
    L_1(q) = 1/((e - 1)^d B(q + d, 1 - d)) and g_1(t) = sin(pi d)/pi (e^t - 1)^-d.

    Scaling both mechanisms by c runs the flow c times faster, so g has
    density c g_1(ct) and L(q) = c e^{W_1(c)} L_1(q/c).  At c = 10 the level
    v_1 lies within 5e-5 of the root, and at c = 40 it rounds onto it.
    """

    def test_laplace_exponent(self, c, d, copy):
        psi, phi = _positive_root_pair(d, copy, c)
        for q in (0.0, 0.25, 1.0, 16.0):
            beta = math.exp(math.lgamma(q / c + d) + math.lgamma(1.0 - d)
                            - math.lgamma(q / c + 1.0))
            want = c * math.expm1(c) ** -d / beta
            assert laplace_exponent(psi, phi, q) == pytest.approx(want, rel=1e-9)

    def test_gzero_density(self, c, d, copy):
        psi, phi = _positive_root_pair(d, copy, c)
        for t in (0.1, 1.0, 4.0, 30.0):     # the levels v_{t/c} of the fast flow
            want = c * math.sin(math.pi * d) / math.pi * math.expm1(t) ** -d
            assert gzero_density(psi, phi, t / c) == pytest.approx(want, rel=1e-9)


def _log_gamma_ratio(x, a):
    """log Gamma(x + a) - log Gamma(x), within 2e-13 of its value.  Past
    x = 100 the two lgamma values would each carry an ulp of about x log x,
    so there their Stirling series are subtracted term by term."""
    if x < 100.0:
        return math.lgamma(x + a) - math.lgamma(x)

    def series(z):
        return 1.0 / (12.0 * z) - 1.0 / (360.0 * z ** 3) + 1.0 / (1260.0 * z ** 5)

    return (x + a - 0.5) * math.log1p(a / x) + a * (math.log(x) - 1.0) + series(x + a) - series(x)


def _subcritical_exponent(b, sigma2, d, q):
    """L(q) of psi = b u + sigma2 u^2/2, phi = d u with gamma = 2d/sigma2 < 1:
    v_t = (2b/sigma2)/(e^{bt} - 1) and e^{W(t)} = ((1 - e^{-b})/(1 - e^{-bt}))^gamma,
    so the zero set is unbounded and
    L(q) = b (1 - e^{-b})^{-gamma} Gamma(q/b + 1 - gamma)/(Gamma(q/b) Gamma(1 - gamma))."""
    gamma = 2.0 * d / sigma2
    return b * (-math.expm1(-b)) ** -gamma * math.exp(
        _log_gamma_ratio(q / b, 1.0 - gamma) - math.lgamma(1.0 - gamma))


@pytest.mark.parametrize("copy", [False, True], ids=["family", "custom-copy"])
@pytest.mark.parametrize("b", [1.0, 10.0])
def test_subcritical_oracle(b, copy):
    # near 0 a level octave takes log(2)/b of time, and past t = 1/b the
    # flow decays exponentially
    d = 0.5
    psi, phi = QuadraticBranching(b=b, sigma2=2.0), StableImmigration(dprime=d, beta=1.0)
    if copy:
        psi, phi = (CustomBranching(eval=lambda u, f=psi: f(u)),
                    CustomImmigration(eval=lambda u, f=phi: f(u)))
    assert laplace_exponent(psi, phi, 0.0) == 0.0
    for q in (1e-6, 1e-4, 0.25, 1.0, 16.0):
        assert laplace_exponent(psi, phi, q) == pytest.approx(
            _subcritical_exponent(b, 2.0, d, q), rel=1e-9)


@pytest.mark.parametrize("b, sigma2, d", [
    (1.0, 2.0, 1.0 / 1.3), (1.0, 2.0, 1.0 / 1.8), (1.0, 2.0, 0.5), (0.5, 1.0, 0.2),
    (3.0, 0.5, 0.05), (2.0, 4.0, 1.9), (0.1, 2.0, 0.3), (10.0, 1.0, 0.01),
], ids=["ou 1.3", "ou 1.8", "ou 2", "gamma 0.4", "gamma 0.2", "gamma 0.95", "slow b",
        "fast b"])
def test_subcritical_closed_form_on_a_wide_grid(b, sigma2, d):
    # b = 1, sigma2 = 2, d = 1/alpha is the stable OU zero set, whose L(q) is
    # a constant times lamperti_kappa(q, 1/alpha) and grows like q^{1 - 1/alpha}
    psi, phi = QuadraticBranching(b=b, sigma2=sigma2), StableImmigration(dprime=d, beta=1.0)
    for q in np.geomspace(1e-2, 1e4, 25):
        assert laplace_exponent(psi, phi, float(q)) == pytest.approx(
            _subcritical_exponent(b, sigma2, d, float(q)), rel=1e-10)


@pytest.mark.parametrize("copy", [False, True], ids=["family", "custom-copy"])
@pytest.mark.parametrize("T", [1.0, 10.0, 30.0, 40.0])
def test_last_zero_tail_at_positive_root(T, copy):
    # psi = u^2 - u, phi = d u: P(g > T) = I_{e^{-T}}(d, 1 - d); v_30 - 1 is
    # below 1e-13 and v_40 rounds to the root
    d = 0.25
    psi, phi = _positive_root_pair(d, copy, 1.0)
    assert _gzero_tail(psi, phi, T) == pytest.approx(betainc(d, 1.0 - d, math.exp(-T)), rel=1e-9)


class TestNoNestedQuadrature:
    """L(q) and the last-zero law invert the flow only at the scans' edges."""

    @pytest.mark.parametrize("law", [laplace_exponent, gzero_density])
    def test_custom_pair_makes_few_quad_calls(self, law, engine_calls):
        psi = CustomBranching(eval=lambda v: v * v)
        phi = CustomImmigration(eval=math.sqrt)
        assert law(psi, phi, 1.0) > 0.0
        # measured 1 and 82 for laplace_exponent, 2 and 82 for gzero_density
        assert 1 <= engine_calls["quad"] <= 3
        assert 70 <= engine_calls["panels"] <= 100


class TestEachNodeReadOnce:
    """The by-parts lower piece toward a positive root reads psi and phi once
    per block of nodes: its integrand and its weight share one read."""

    @pytest.mark.parametrize("q, want", [(0.0, "0x1.b110a2a5fba48p-1"),
                                         (1.0, "0x1.c7ca1e0fc0c27p-2")])
    def test_lower_piece_reads_each_mechanism_once(self, q, want, monkeypatch):
        machine = _transform_machine(SUPER, ROOT_HALF)       # root 1
        calls = {"reads": 0, QuadraticBranching: 0, StableImmigration: 0}
        for family in (QuadraticBranching, StableImmigration):
            def counting(self, u, values=family.values, family=family):
                calls[family] += 1
                return values(self, u)
            monkeypatch.setattr(family, "values", counting)
        block = quadrature._block

        def counting_block(*args):
            calls["reads"] += 1
            return block(*args)
        monkeypatch.setattr(quadrature, "_block", counting_block)
        value, scan = machine.lower(q, 2.0)
        assert (scan.verdict, scan.rule) == (quadrature.FINITE, "geometric")
        # the bits the two-call read gave
        assert value.hex() == want
        assert calls[QuadraticBranching] == calls[StableImmigration] == calls["reads"] > 0


class TestSelfSimilarIndex:
    def test_known_values(self):
        assert selfsimilar_index(2.0, 1.0, 0.5) == pytest.approx(0.5)
        assert selfsimilar_index(1.5, 1.0, 0.25) == pytest.approx(0.5)

    def test_vanishing_immigration_limit(self):
        assert selfsimilar_index(2.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_polar_regime_message(self):
        with pytest.raises(ZeroSetError, match="polar regime, no subordinator"):
            selfsimilar_index(2.0, 1.0, 1.0)
        with pytest.raises(ZeroSetError, match="polar regime, no subordinator"):
            selfsimilar_index(1.5, 1.0, 0.7)

    def test_domain_validation(self):
        with pytest.raises(MechanismDomainError):
            selfsimilar_index(1.0, 1.0, 0.1)
        with pytest.raises(MechanismDomainError):
            selfsimilar_index(2.0, -1.0, 0.1)

    @pytest.mark.parametrize("alpha,d", [(1.5, 1.0), (2.0, 2.0)])
    def test_monotone_in_immigration_scale(self, alpha, d):
        top = d * (alpha - 1.0)
        probes = [top * frac for frac in (0.1, 0.4, 0.8)]
        values = [selfsimilar_index(alpha, d, dp) for dp in probes]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < g < 1.0 for g in values)


class TestLampertiKappa:
    def test_unit_argument_recovers_one_minus_beta(self):
        assert lamperti_kappa(1.0, 0.5) == pytest.approx(0.5, rel=1e-12)
        assert lamperti_kappa(1.0, 0.3) == pytest.approx(0.7, rel=1e-12)

    def test_small_argument_limit(self):
        assert lamperti_kappa(1e-8, 0.5) == pytest.approx(0.0, abs=1e-7)

    def test_large_argument_slope(self):
        beta = 0.4
        slope = ((math.log(lamperti_kappa(2e6, beta))
                  - math.log(lamperti_kappa(1e6, beta))) / math.log(2.0))
        assert slope == pytest.approx(1.0 - beta, abs=0.01)

    def test_domain_validation(self):
        with pytest.raises(MechanismDomainError):
            lamperti_kappa(0.0, 0.5)
        with pytest.raises(MechanismDomainError):
            lamperti_kappa(1.0, 1.0)


class TestSubordinatorSummary:
    def test_critical_pair(self):
        s = subordinator_summary(FELLER, HALF_DRIFT)
        assert s.gamma_fit == pytest.approx(0.5, abs=0.01)
        assert s.gamma_residual < 1e-6
        assert s.killed.is_no
        assert s.l_zero == 0.0
        assert s.drift_estimate < 1e-3
        qs = [q for q, _ in s.l_samples]
        ls = [l for _, l in s.l_samples]
        assert qs == sorted(qs)
        assert all(b > a for a, b in zip(ls, ls[1:]))

    def test_heavy_transient_pair(self):
        s = subordinator_summary(FELLER, ROOT_HALF)
        assert s.killed.is_yes
        assert s.l_zero == pytest.approx(2.0 * math.exp(-2.0), rel=1e-6)
        assert s.drift_estimate == pytest.approx(math.exp(-2.0), rel=1e-2)

    def test_killed_matches_transience_on_mixed_pairs(self):
        cases = [
            (FELLER, HALF_DRIFT, False),
            (FELLER, ROOT_HALF, True),
            (SUPER, HALF_DRIFT, True),
            (StableBranching(d=1.0, alpha=1.5),
             StableImmigration(dprime=1.0, beta=0.3), True),
            (StableBranching(d=1.0, alpha=1.5),
             GammaImmigration(a=1.0, b=1.0), False),
        ]
        for psi, phi, killed in cases:
            s = subordinator_summary(psi, phi)
            assert s.killed.is_yes == killed, (psi, phi)

    def test_validation(self):
        with pytest.raises(MechanismDomainError):
            subordinator_summary(FELLER, HALF_DRIFT, q_values=(1.0,))
        with pytest.raises(MechanismDomainError):
            subordinator_summary(FELLER, HALF_DRIFT, q_values=(0.0, 1.0))
