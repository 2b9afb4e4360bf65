"""Gauss-Legendre rules."""

from __future__ import annotations

import numpy as np

_CACHE: dict = {}


def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], cached per order."""
    if n not in _CACHE:
        _CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _CACHE[n]
