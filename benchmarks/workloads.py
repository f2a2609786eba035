"""The operations each benchmark workload runs, and the oracle for each.

``build(name, seed, smoke)`` turns a workload name and a seed into a
`Workload`: a list of `Op`s and a list of `Gate`s.  An op is one public
library call (or a call plus the statistics read off its result).  Its
oracle returns None when the answer is right and a message when it is
wrong.  A gate is a statistical check of criteria 4-6 that only a whole
sample can pass or fail; gates run after every op.

The seed fixes the order of the ops, the evaluation points drawn for the
closed-form oracles and the seed of every stochastic call.  Only those
generated inputs reach the library.

Statistical gates are set at level 1e-6 each: a Kolmogorov-Smirnov
distance passes below sqrt(-ln(1e-6 / 2) / 2) = 2.69 times its standard
scale.  The dimension-fit gate widens criterion 5's band (0.08 for the
mean of 20 replicates) to the k replicates of one pass, 0.08 * sqrt(20/k).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np
from scipy import stats
from scipy.integrate import quad as reference_quad
from scipy.special import erfcx

from cbizero import (
    CustomBranching,
    CustomImmigration,
    CutoutError,
    DurationSampler,
    classify_zero_state,
    empirical_gzero,
    gzero_density,
    intersect,
    laplace_exponent,
    parse_branching,
    parse_immigration,
    sample_cutout,
    sample_ou_cutout,
    solver,
    statistics,
)
from cbizero.classify import METHOD_FASTPATH, METHOD_NUMERIC, POLAR, RECURRENT, TRANSIENT

KS_LEVEL = 2.69                  # sqrt(-ln(1e-6 / 2) / 2)
GZERO_TRUNCATION_ALLOWANCE = 0.015  # eps = 1e-4 bias of the cutout last zero
DIM_BAND_20 = 0.08               # criterion 5, mean of 20 replicates


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Gate:
    label: str
    check: Callable[[], Optional[str]]


@dataclass
class Workload:
    name: str
    ops: List[Op]
    gates: List[Gate]


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    ops, gates = _BUILDERS[name](rng, smoke)
    rng.shuffle(ops)
    return Workload(name, ops, gates)


def _rel_check(expected: float, tol: float) -> Callable[[float], Optional[str]]:
    def check(value):
        if expected == 0.0:
            ok = value == 0.0
        else:
            ok = abs(value / expected - 1.0) <= tol
        return None if ok else f"got {value!r}, expected {expected!r} (rel tol {tol:g})"
    return check


def _spread_points(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n log-uniform draws, one in each of n equal log-bins of [lo, hi].

    One point per bin keeps the work of a grid nearly the same for every
    seed while the points themselves change with it.
    """
    width = (math.log(hi) - math.log(lo)) / n
    return [math.exp(math.log(lo) + width * (i + rng.random())) for i in range(n)]


# --- classify ------------------------------------------------------------

def _criterion_1_grid():
    """The 40 stable/stable points of criterion 1 with their classes."""
    margin = 0.05 + 1e-9
    points = []
    for alpha in (1.3, 1.5, 1.8, 2.0):
        for beta in (0.3, 0.5, 0.9):
            if abs(beta - (alpha - 1.0)) > margin:
                points.append((alpha, beta, 1.0, 1.0))
    for alpha in (1.3, 1.5, 1.8, 2.0):
        for d in (0.5, 1.0, 2.0):
            for dprime in (0.5, 1.0, 2.0):
                if abs(dprime / d - (alpha - 1.0)) > margin:
                    points.append((alpha, alpha - 1.0, d, dprime))
    out = []
    for alpha, beta, d, dprime in points:
        rho = beta - alpha
        if rho > -1.0:
            cls = POLAR
        elif rho < -1.0:
            cls = TRANSIENT
        else:
            cls = POLAR if dprime / d >= alpha - 1.0 else RECURRENT
        heavy = "Yes" if rho < -1.0 else "No"
        out.append((f"stable:d={d},alpha={alpha}", f"stable:d={dprime},beta={beta}",
                    cls, heavy))
    return out


# numeric-route agreement pairs.  The supercritical pair of this set
# (quadratic:b=-1,sigma2=2 with drift 0.5) takes 13-15 s by the numeric
# route; one operation that long makes a pass a single sample of the
# machine's fluctuating speed, so it is classified by the default route only.
_NUMERIC_PAIRS = (
    ("stable:d=1.0,alpha=1.5", "stable:d=1.0,beta=0.9", POLAR, "No"),
    ("stable:d=1.0,alpha=1.5", "stable:d=0.5,beta=0.5", POLAR, "No"),
    ("stable:d=2.0,alpha=1.8", "stable:d=1.0,beta=0.8", RECURRENT, "No"),
    ("stable:d=1.0,alpha=2.0", "gamma:a=1.0,b=2.0", RECURRENT, "Yes"),
    ("quadratic:b=1.0,sigma2=2.0", "stable:d=0.5,beta=1.0", RECURRENT, "No"),
)
_SUPERCRITICAL_PAIR = ("quadratic:b=-1.0,sigma2=2.0", "stable:d=0.5,beta=1.0", TRANSIENT, "No")

# family pairs answered by both routes: Lamperti and compound Poisson
_FAMILY_PAIRS = (
    ("stable:d=2.0,alpha=2.0", "lamperti:beta=1.0", RECURRENT, "No"),
    ("stable:d=1.0,alpha=2.0", "lamperti:beta=0.5", RECURRENT, "Yes"),
    ("stable:d=0.5,alpha=2.0", "lamperti:beta=0.5", TRANSIENT, "Yes"),
    ("stable:d=1.0,alpha=2.0", "cpp:mass=0.5", RECURRENT, "Yes"),
    ("stable:d=1.0,alpha=1.5", "cpp:mass=1.0", RECURRENT, "Yes"),
)


def _classify_check(cls: str, heavy: str, method: Optional[str]):
    def check(report):
        got = (report.zero_class, report.heavy.value.value)
        if got != (cls, heavy):
            return f"got class/heavy {got}, expected {(cls, heavy)}"
        if method is not None and report.method != method:
            return f"got method {report.method}, expected {method}"
        return None
    return check


def _classify_op(label, psi, phi, cls, heavy, *, numeric_only, method=None):
    route = "numeric" if numeric_only else "default"
    return Op(f"classify[{label}|{route}]",
              lambda: classify_zero_state(psi, phi, numeric_only=numeric_only),
              _classify_check(cls, heavy, method))


def _classify(rng, smoke):
    ops = []
    grid = _criterion_1_grid()
    numeric_pairs = _NUMERIC_PAIRS
    if smoke:
        grid, numeric_pairs = grid[:2], numeric_pairs[:1]
    for psi_spec, phi_spec, cls, heavy in grid:
        psi, phi = parse_branching(psi_spec), parse_immigration(phi_spec)
        label = f"{psi_spec} {phi_spec}"
        ops.append(_classify_op(label, psi, phi, cls, heavy,
                                numeric_only=False, method=METHOD_FASTPATH))
        ops.append(_classify_op(label, psi, phi, cls, heavy,
                                numeric_only=True, method=METHOD_NUMERIC))
    for psi_spec, phi_spec, cls, heavy in numeric_pairs:
        ops.append(_classify_op(f"{psi_spec} {phi_spec}",
                                parse_branching(psi_spec), parse_immigration(phi_spec),
                                cls, heavy, numeric_only=True, method=METHOD_NUMERIC))
    psi_spec, phi_spec, cls, heavy = _SUPERCRITICAL_PAIR
    ops.append(_classify_op(f"{psi_spec} {phi_spec}", parse_branching(psi_spec),
                            parse_immigration(phi_spec), cls, heavy, numeric_only=False,
                            method=METHOD_FASTPATH))

    # undeclared custom copies must answer as the family they copy
    feller = CustomBranching(eval=lambda q: q * q)
    stable15 = CustomBranching(eval=lambda q: q ** 1.5)
    root_q = CustomImmigration(eval=math.sqrt)
    gamma = CustomImmigration(eval=lambda q: math.log1p(q / 2.0))
    family_feller = parse_branching("stable:d=1.0,alpha=2.0")
    pairs = [
        ("custom q^2", feller, "stable:d=0.5,beta=1.0", RECURRENT, "No"),
        ("custom q^2", feller, "stable:d=1.0,beta=0.5", TRANSIENT, "Yes"),
        ("custom q^2", feller, "gamma:a=1.0,b=2.0", RECURRENT, "Yes"),
        ("custom q^1.5", stable15, "stable:d=1.0,beta=0.3", TRANSIENT, "Yes"),
        ("custom q^1.5", stable15, "stable:d=0.25,beta=0.5", RECURRENT, "No"),
    ]
    customs = [(f"{name} {spec}", psi, parse_immigration(spec), cls, heavy)
               for name, psi, spec, cls, heavy in pairs]
    customs += [
        ("stable:d=1.0,alpha=2.0 custom sqrt(q)", family_feller, root_q, TRANSIENT, "Yes"),
        ("stable:d=1.0,alpha=2.0 custom log1p(q/2)", family_feller, gamma,
         RECURRENT, "Yes"),
    ]
    customs += [(f"{psi_spec} {phi_spec}", parse_branching(psi_spec),
                 parse_immigration(phi_spec), cls, heavy)
                for psi_spec, phi_spec, cls, heavy in _FAMILY_PAIRS]
    if smoke:
        customs = customs[:2]
    for label, psi, phi, cls, heavy in customs:
        for numeric_only in (False, True):
            ops.append(_classify_op(label, psi, phi, cls, heavy,
                                    numeric_only=numeric_only))
    return ops, []


# --- laws ----------------------------------------------------------------

def _feller_root_q_transform(q: float) -> float:
    """int_0^inf exp(-q t) exp(-2 sqrt(t)) dt in closed form."""
    x = 1.0 / math.sqrt(q)
    return 1.0 / q - math.sqrt(math.pi) * q ** -1.5 * erfcx(x)


def _feller_root_q_exponent(q: float) -> float:
    """L(q) for psi = q^2, phi = sqrt(q): exp(W(t)) = exp(2 - 2 sqrt(t))."""
    if q == 0.0:
        return 2.0 * math.exp(-2.0)
    return math.exp(-2.0) / _feller_root_q_transform(q)


def _supercritical_root_q_exponent(q: float) -> float:
    """L(q) for psi = q^2 - q, phi = sqrt(q), by one quadrature.

    The boundary flow is v_t = 1/(1 - e^-t) and W has the closed form
    log((sqrt(v) - 1)/(sqrt(v) + 1)), so exp(W(t)) is explicit.
    """
    def shape(t):
        root_v = math.sqrt(1.0 / -math.expm1(-t))
        return (root_v - 1.0) / (root_v + 1.0)

    norm = shape(1.0)
    value, _ = reference_quad(lambda t: math.exp(-q * t) * shape(t) / norm,
                              0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)
    return 1.0 / value


def _positive(value):
    if math.isfinite(value) and value > 0.0:
        return None
    return f"got {value!r}, expected a finite positive value"


def _shape_gate(label, samples):
    """L must be strictly increasing and concave over the sampled grid."""
    def check():
        points = sorted(samples)
        if len(points) < 3:
            return None
        slopes = [(l1 - l0) / (q1 - q0)
                  for (q0, l0), (q1, l1) in zip(points, points[1:])]
        if not all(s > 0.0 for s in slopes):
            return f"{label}: L not increasing over {points}"
        if any(b > a * (1.0 + 1e-9) for a, b in zip(slopes, slopes[1:])):
            return f"{label}: L not concave over {points}"
        return None
    return Gate(label, check)


def _sampler_check(eps: float, drift: float):
    """psi = q^2, phi = drift*q: tail drift/t, rate drift/eps, no atom."""
    def check(sampler):
        rate = drift / eps
        if abs(sampler.rate / rate - 1.0) > 1e-6:
            return f"rate {sampler.rate!r}, expected {rate!r}"
        if sampler.atom > 1e-12:
            return f"atom {sampler.atom!r}, expected 0"
        exact = math.log(eps) - sampler.log_time_rev
        worst = float(np.max(np.abs(sampler.log_tail_rev - exact)))
        if worst > 1e-6:
            return f"log tail table off by {worst:.3g}"
        return None
    return check


def _laws(rng, smoke):
    ops, gates = [], []
    n_q = 2 if smoke else 6
    n_flow = 2 if smoke else 12
    feller = parse_branching("quadratic:b=0.0,sigma2=2.0")
    supercritical = parse_branching("quadratic:b=-1.0,sigma2=2.0")
    stable15 = parse_branching("stable:d=1.0,alpha=1.5")
    drift = parse_immigration("stable:d=0.5,beta=1.0")
    root_q = parse_immigration("stable:d=1.0,beta=0.5")
    lamperti = parse_immigration("lamperti:beta=0.3")

    def exponent_op(label, psi, phi, q, check):
        return Op(f"laplace_exponent[{label}|q={q:.6g}]",
                  lambda: laplace_exponent(psi, phi, q), check)

    grids = [
        ("feller drift 0.5", feller, drift,
         lambda q: math.sqrt(q / math.pi), 1e-4),
        ("feller sqrt(q)", feller, root_q, _feller_root_q_exponent, 1e-4),
        ("supercritical sqrt(q)", supercritical, root_q,
         _supercritical_root_q_exponent, 1e-6),
    ]
    for label, psi, phi, exact, tol in grids:
        qs = [0.0] + _spread_points(rng, 0.25, 16.0, n_q)
        for q in qs:
            ops.append(exponent_op(label, psi, phi, q, _rel_check(exact(q), tol)))

    # no closed form for stable + Lamperti: recurrent (L(0) = 0), and L
    # positive, increasing and concave on the grid
    lamperti_samples = []

    def lamperti_check(q):
        def check(value):
            lamperti_samples.append((q, value))
            return _positive(value)
        return check

    ops.append(exponent_op("stable 1.5 lamperti 0.3", stable15, lamperti, 0.0,
                           _rel_check(0.0, 0.0)))
    for q in _spread_points(rng, 0.25, 16.0, n_q):
        ops.append(exponent_op("stable 1.5 lamperti 0.3", stable15, lamperti, q,
                               lamperti_check(q)))
    gates.append(_shape_gate("L shape, stable 1.5 lamperti 0.3", lamperti_samples))

    for t in _spread_points(rng, 0.05, 8.0, n_q):
        ops.append(Op(f"gzero_density[feller sqrt(q)|t={t:.6g}]",
                      lambda t=t: gzero_density(feller, root_q, t),
                      _rel_check(2.0 * math.exp(-2.0 * math.sqrt(t)), 1e-4)))

    flow = solver(feller)
    double_drift = parse_immigration("stable:d=2.0,beta=1.0")
    pairs = [(q, t) for q in (0.25, 0.5, 1.0, 2.0, 4.0) for t in (0.5, 1.0, 2.0, 4.0)]
    if smoke:
        pairs = pairs[:2]
    for q, t in pairs:
        ops.append(Op(f"cbi_laplace[feller 2q|q={q},t={t}]",
                      lambda q=q, t=t: flow.cbi_laplace(0.0, q, t, double_drift),
                      _rel_check((1.0 + q * t) ** -2, 1e-6)))

    # undeclared custom copy of psi = q^2 (the Feller mechanism)
    custom = CustomBranching(eval=lambda q: q * q)
    custom_flow = solver(custom)
    for t in _spread_points(rng, 0.01, 100.0, n_flow):
        ops.append(Op(f"v_from_infinity[custom q^2|t={t:.6g}]",
                      lambda t=t: custom_flow.v_from_infinity(t),
                      _rel_check(1.0 / t, 1e-6)))
    lams = _spread_points(rng, 0.01, 100.0, n_flow)
    rng.shuffle(lams)
    for t, lam in zip(_spread_points(rng, 0.01, 100.0, n_flow), lams):
        ops.append(Op(f"v_from_lambda[custom q^2|t={t:.6g},lam={lam:.6g}]",
                      lambda t=t, lam=lam: custom_flow.v_from_lambda(t, lam),
                      _rel_check(1.0 / (1.0 / lam + t), 1e-6)))

    # The table for the custom copy costs 5-7 s (290 numeric v_t, each one
    # v_from_infinity call as above), too long for one operation of a pass;
    # the closed-form table is built instead.
    eps = 1e-3
    ops.append(Op(f"DurationSampler.from_mechanisms[feller drift 0.5|eps={eps:g}]",
                  lambda: DurationSampler.from_mechanisms(feller, drift, eps),
                  _sampler_check(eps, 0.5)))

    # raises MechanismDomainError until largest_root stops reading an
    # underflowed psi as a root (ROADMAP item 4)
    ops.append(exponent_op("custom q^2 sqrt(q)", custom, root_q, 1.0,
                           _rel_check(_feller_root_q_exponent(1.0), 1e-4)))
    return ops, gates


# --- cutouts -------------------------------------------------------------

def decade_grid(T: float, eps: float) -> list:
    """Box sizes T/10, T/100, ... down to eps (the criterion-5 grid)."""
    grid = [T / 10.0]
    while grid[-1] / 10.0 >= eps * (1.0 - 1e-12):
        grid.append(grid[-1] / 10.0)
    return grid


def _invalid(uncovered) -> Optional[str]:
    """Message when the interval set breaks its invariants, else None."""
    try:
        uncovered.validate()
    except CutoutError as exc:
        return f"invalid uncovered set: {exc}"
    return None


def _g_last(uncovered) -> float:
    iv = uncovered.intervals
    return float(iv[-1, 1]) if iv.shape[0] else 0.0


def _cutout_long(rng, smoke):
    # criterion 5 runs T = 1e3 (4-5 s and 5e7 marks per replicate); T = 30
    # keeps eps and a per-mark sweep of 1.5e6 marks in 0.15 s
    T, eps, reps = (10.0, 1e-3, 1) if smoke else (30.0, 1e-5, 4)
    grid = decade_grid(T, eps)
    psi = parse_branching("stable:d=1.0,alpha=2.0")
    phi = parse_immigration("stable:d=0.5,beta=1.0")
    arms = [
        ("cbi alpha=2 d'=0.5", 0.5,
         lambda seed: sample_cutout(psi, phi, T, eps, seed)),
        ("stable ou alpha=1.8", 1.0 / 1.8,
         lambda seed: sample_ou_cutout(1.8, T, eps, seed)),
    ]
    ops, gates = [], []
    for label, target, sample in arms:
        slopes = []

        def check(result, slopes=slopes):
            uncovered, summary = result
            invalid = _invalid(uncovered)
            if invalid:
                return invalid
            slope = summary["dim_fit"]["slope"]
            if not 0.0 <= slope <= 1.0:
                return f"dimension fit {slope!r} outside [0, 1]"
            slopes.append(slope)
            return None

        for _ in range(reps):
            seed = rng.randrange(2 ** 32)
            ops.append(Op(f"cutout+statistics[{label}|T={T:g},eps={eps:g},seed={seed}]",
                          lambda seed=seed, sample=sample: _with_statistics(sample(seed), grid),
                          check))
        band = DIM_BAND_20 * math.sqrt(20.0 / reps)
        gates.append(Gate(f"dimension fit {label}",
                          _mean_gate(slopes, target, band, reps)))
    return ops, gates


def _with_statistics(uncovered, grid):
    return uncovered, statistics(uncovered, grid)


def _mean_gate(values, target, band, expected_count):
    def check():
        if len(values) != expected_count:
            return f"{len(values)} of {expected_count} replicates usable"
        mean = float(np.mean(values))
        if abs(mean - target) > band:
            return f"mean fit {mean:.4f}, expected {target:.4f} +/- {band:.3f}"
        return None
    return check


def _gzero_cdf(t):
    s = np.sqrt(np.asarray(t, dtype=float))
    return 1.0 - (2.0 * s + 1.0) * np.exp(-2.0 * s)


def _cutout_short(rng, smoke):
    n_gzero, reps = (50, 20) if smoke else (500, 200)
    T, eps = 30.0, 1e-4
    feller = parse_branching("quadratic:b=0.0,sigma2=2.0")
    root_q = parse_immigration("stable:d=1.0,beta=0.5")
    quarter = parse_immigration("stable:d=0.25,beta=0.5")
    ops, gates = [], []

    gzero = []

    def gzero_check(values):
        if values.shape != (n_gzero,) or not np.all(np.isfinite(values) & (values >= 0.0)):
            return "last zeros must be finite and nonnegative, one per replicate"
        gzero.extend(values.tolist())
        return None

    seed = rng.randrange(2 ** 32)
    ops.append(Op(f"empirical_gzero[feller sqrt(q)|n={n_gzero},T_max={T:g},eps={eps:g},"
                  f"seed={seed}]",
                  lambda: empirical_gzero(feller, root_q, n_gzero, T, eps, seed),
                  gzero_check))

    def gzero_gate():
        bound = KS_LEVEL / math.sqrt(n_gzero) + GZERO_TRUNCATION_ALLOWANCE
        ks = stats.kstest(gzero, _gzero_cdf).statistic
        return None if ks < bound else f"KS {ks:.4f} >= {bound:.4f}"

    gates.append(Gate("criterion 4 last-zero law", gzero_gate))

    single, quartered = [], []

    def keep(sink):
        def check(uncovered):
            invalid = _invalid(uncovered)
            if invalid:
                return invalid
            sink.append(_g_last(uncovered))
            return None
        return check

    for _ in range(reps):
        seed = rng.randrange(2 ** 32)
        ops.append(Op(f"sample_cutout[feller sqrt(q)|T={T:g},eps={eps:g},seed={seed}]",
                      lambda seed=seed: sample_cutout(feller, root_q, T, eps, seed),
                      keep(single)))
        seeds = [rng.randrange(2 ** 32) for _ in range(4)]
        ops.append(Op(f"intersect[4 x feller sqrt(q)/4|T={T:g},eps={eps:g},seeds={seeds}]",
                      lambda seeds=seeds: intersect(
                          [sample_cutout(feller, quarter, T, eps, s) for s in seeds]),
                      keep(quartered)))

    def divisibility_gate():
        bound = KS_LEVEL * math.sqrt(2.0 / reps)
        ks = stats.ks_2samp(single, quartered).statistic
        return None if ks < bound else f"two-sample KS {ks:.4f} >= {bound:.4f}"

    gates.append(Gate("criterion 6 infinite divisibility", divisibility_gate))
    return ops, gates


_BUILDERS = {
    "classify": _classify,
    "laws": _laws,
    "cutout-long": _cutout_long,
    "cutout-short": _cutout_short,
}
NAMES = tuple(_BUILDERS)
