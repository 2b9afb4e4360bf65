import pytest
from conftest import bundled_openblas


def test_bundled_openblas_runs_one_thread():
    libs = bundled_openblas()
    if not libs:
        pytest.skip("neither NumPy nor SciPy bundles OpenBLAS here")
    assert {name: get() for name, get, _ in libs} == {name: 1 for name, _, _ in libs}
