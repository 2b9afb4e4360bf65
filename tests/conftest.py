import ctypes
import math
from pathlib import Path

import numpy as np
import pytest


def bundled_openblas():
    """``(file name, get, set)`` of the thread-count calls of each OpenBLAS
    that NumPy's and SciPy's wheels bundle; empty for other builds.

    NumPy is imported before this file is, so ``OPENBLAS_NUM_THREADS`` set
    here would come too late; the libraries' own calls still act.
    """
    site = Path(np.__file__).resolve().parent.parent
    found = []
    paths = [path for pkg in ("numpy", "scipy")
             for path in sorted(site.glob(f"{pkg}.libs/libscipy_openblas*.so"))]
    for path in paths:
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):  # NumPy's ILP64 build, SciPy's LP64 build
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((path.name, get, set_))
                break
    return found


def time_pole(op, tmax):
    """The heat lab's exponential pole ``1/γ`` for times up to ``tmax``:
    ``γ = min(tmax/10, √(tmax/‖L‖∞)/8)``, ``‖L‖∞`` the largest absolute row
    sum of ``op``."""
    norm = float(abs(op).sum(axis=1).max())
    return 1.0 / min(tmax / 10.0, math.sqrt(tmax / norm) / 8.0)


def pytest_configure(config):
    config._criterion_lines = []
    # one BLAS thread: on a small host a second process holding a core made
    # multithreaded OpenBLAS calls hundreds of times slower
    for _, _, set_threads in bundled_openblas():
        set_threads(1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def criterion(request):
    """Record one pass/fail line per acceptance criterion and assert it."""

    def record(num: int, name: str, ok: bool, detail: str = ""):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {name}"
        if detail:
            line += f" ({detail})"
        request.config._criterion_lines.append(line)
        print(line)
        assert ok, line

    return record


def _battery(seed, count, dims, fields, make):
    """Deterministic instance stream shared by the property suites."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        d = int(dims[k % len(dims)])
        field = fields[k % len(fields)]
        out.append(make(rng, d, field))
    return out


@pytest.fixture(scope="session")
def relation_battery():
    from relsemi.sampling import random_relation
    return _battery(1234, 200, range(1, 9), ("real", "complex"), random_relation)


@pytest.fixture(scope="session")
def m_dissipative_battery():
    from relsemi.sampling import random_m_dissipative
    return _battery(99, 30, range(1, 7), ("real", "complex"),
                    random_m_dissipative)


@pytest.fixture
def corrupt_factor(monkeypatch):
    """``corrupt(sigma)`` makes ``heatlab._factor`` solve 1 % wrong at that shift."""
    from relsemi import heatlab

    def corrupt(sigma):
        factor = heatlab._factor

        def corrupted(op, s):
            solve = factor(op, s)
            if complex(s) != complex(sigma):
                return solve
            return lambda b: 1.01 * solve(b)

        monkeypatch.setattr(heatlab, "_factor", corrupted)

    return corrupt
