"""The benchmark's tracer (``perfbench/layers.py``) binds cricpred functions
by module and name. These checks fail on a rename that would otherwise
only show when the traced benchmark runs. The tracer's source is read and
executed into a fresh module; nothing is installed or written."""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from cricpred.models import tree

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"),
         module.__dict__)
    return module


def test_every_target_resolves_to_a_callable(layers):
    for module_name, attr, _, _ in layers.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_kernel_backend_is_named():
    assert isinstance(importlib.import_module("cricpred.kernels").BACKEND, str)


def test_split_kernels_are_read_at_call_time(monkeypatch):
    """The tracer rebinds the kernels in the tree module's globals."""
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(kernel.__name__)
            return kernel(*args)
        return wrapper

    for name in ("best_split_gini", "best_split_sse"):
        monkeypatch.setattr(tree, name, counted(getattr(tree, name)))
    X = np.arange(8.0)[:, None]
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    tree.fit_classification_tree(X, y)
    tree.fit_regression_tree(X, y - 0.5, np.full(8, 0.25))
    assert set(calls) == {"best_split_gini", "best_split_sse"}


@pytest.mark.parametrize("fit", ["fit_classification_tree", "fit_regression_tree"])
def test_tree_fit_hook_takes_a_fit(layers, fit):
    """The counter hook of the tree fits accepts what they return. The
    tracer's ``_nodes`` reads ``value`` and ``left`` of it, so the fits
    keep returning the grower's six arrays, not the four an ensemble keeps
    (ROADMAP item 3). Boosting's rounds go through the regression fit."""
    counters = layers.collections.Counter()
    X, y = np.arange(4.0)[:, None], np.array([0.0, 0.0, 1.0, 1.0])
    args = (X, y) if fit == "fit_classification_tree" else (X, y - 0.5, np.full(4, 0.25))
    layers._count_tree_fit(counters, args, getattr(tree, fit)(*args))
    assert counters["tree.nodes"] >= 1
