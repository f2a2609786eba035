"""Shared fixtures."""

import pytest

from cbizero import flow, quadrature


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of the panel rule's panels (bisected pieces included) and of
    the flow's finite-range ``quad`` calls, from the test's start on."""
    counts = {"panels": 0, "quad": 0}
    panel, finite = quadrature._panel, flow.quad

    def counting_panel(*args):
        counts["panels"] += 1
        return panel(*args)

    def counting_quad(*args):
        counts["quad"] += 1
        return finite(*args)

    monkeypatch.setattr(quadrature, "_panel", counting_panel)
    monkeypatch.setattr(flow, "quad", counting_quad)
    return counts
