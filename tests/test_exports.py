import importlib

import pytest


@pytest.mark.parametrize("module", ["relsemi", "relsemi.relation", "relsemi.sampling"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
