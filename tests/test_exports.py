import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import relsemi
from relsemi.grids import Grid
from relsemi.heatlab import DirichletGridRelation, disk_mask
from relsemi.subspace import Subspace


@pytest.mark.parametrize("module", ["relsemi", "relsemi.relation", "relsemi.sampling"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def _defs():
    for path in sorted(Path(relsemi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield path.name, node


def test_one_rank_cutoff_and_no_one_value_knobs():
    # the rank cutoff is subspace.RANK_TOL, dense evaluators are Euclidean,
    # and a parameter no caller sets is a constant
    takes = [(name, getattr(node, "name", "lambda")) for name, node in _defs()
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
             and arg.arg in ("rank_tol", "norm")]
    assert takes == []
    assert [f.name for f in dataclasses.fields(Subspace)] == ["ambient_dim", "basis"]
    defaults = sum(len(node.args.defaults)
                   + sum(d is not None for d in node.args.kw_defaults)
                   for _, node in _defs())
    assert defaults <= 80


def test_the_heat_lab_relation_has_no_unlisted_public_attribute():
    # the evaluator protocol, remember, graph_distance, dense_relation and the
    # data fields; a new public method has to be added here on purpose
    rel = DirichletGridRelation(disk_mask(Grid(6), 0.7))
    public = {name for name in dir(rel) if not name.startswith("_")}
    assert public == {"state_dim", "resolvent", "semigroup", "integrated", "vec_norm",
                      "remember", "graph_distance", "dense_relation",
                      "mask", "grid", "omega", "op", "label", "n_inside"}
