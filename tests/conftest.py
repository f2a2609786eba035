"""Shared fixtures."""

import inspect

import pytest
from scipy import optimize

from cbizero import cutout, flow, mechanisms, quadrature


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of the panels the rule integrates (each row ``_rows`` yields:
    the rows each scan's streams read, bisected pieces and ``quad`` panels
    alike), of the pieces alone (depth > 0) and of the flow's finite-range
    ``quad`` calls, from the test's start on."""
    counts = {"panels": 0, "pieces": 0, "quad": 0}
    rows, finite = quadrature._rows, flow.quad
    signature = inspect.signature(rows)

    def counting_rows(*args, **kwargs):
        piece = signature.bind(*args, **kwargs).arguments["depth"] > 0
        for row in rows(*args, **kwargs):
            counts["panels"] += 1
            counts["pieces"] += piece
            yield row

    def counting_quad(*args, **kwargs):
        counts["quad"] += 1
        return finite(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_rows", counting_rows)
    monkeypatch.setattr(flow, "quad", counting_quad)
    return counts


@pytest.fixture
def brent_calls(monkeypatch):
    """The (args, kwargs) of every ``brent`` solve that ``largest_root``
    and the duration sampler make, from the test's start on."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return quadrature.brent(*args, **kwargs)

    monkeypatch.setattr(mechanisms, "brent", recording)
    monkeypatch.setattr(cutout, "brent", recording)
    return calls


def _solve_path(solver, f, a, b, **tols):
    """A solve's root, or the class of its error, and every point it
    evaluated f at."""
    points = []

    def logged(x):
        points.append(x)
        return f(x)

    try:
        return solver(logged, a, b, **tols), points
    except (ValueError, RuntimeError) as exc:
        return type(exc), points


@pytest.fixture
def brentq_twin():
    """Runs a solve through ``brent`` and through scipy's ``brentq``, its
    reference; returns both (root or error class, evaluated points)."""
    def twin(f, a, b, **tols):
        return (_solve_path(quadrature.brent, f, a, b, **tols),
                _solve_path(optimize.brentq, f, a, b, **tols))
    return twin
