"""Composite Gauss-Legendre rules on unit panels."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput

_CACHE: dict = {}


def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], cached per order."""
    if n not in _CACHE:
        _CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _CACHE[n]


def panel_edges(a: float, b: float) -> np.ndarray:
    """Edges of the equal panels of length at most 1 that split [a, b].

    An empty interval has no panels: its only edge is ``a``.
    """
    if b < a:
        raise InvalidInput("integration interval is reversed")
    npanels = max(1, math.ceil(b - a - 1e-12)) if b > a else 0
    return np.linspace(a, b, npanels + 1)


def panel_rule(a: float, b: float, nodes_per_unit: int = 64):
    """Composite rule on the panels of :func:`panel_edges`.

    Returns ``(t, w)`` with ``sum(w * f(t)) ~ integral_a^b f``; the node
    ``lo + half (x + 1)`` of a panel ``[lo, lo + 2 half]`` is its start
    plus a node of the template rule on ``[0, 2 half]``.
    """
    edges = panel_edges(a, b)
    x, w = gauss_legendre(nodes_per_unit)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()
