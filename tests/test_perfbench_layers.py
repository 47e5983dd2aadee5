"""The benchmark's traced layers name functions the package still has, and
its LP counters read the arguments and result the package passes."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hsvi.bounds
from hsvi import Belief
from hsvi.bounds import UpperBound

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _traced():
    return _layers().TRACED


@pytest.mark.parametrize("layer, target", sorted(_traced().items()))
def test_traced_layer_resolves(layer, target):
    module_name, path = target
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        assert hasattr(owner, name), f"{layer}: {module_name} has no {path}"
        owner = getattr(owner, name)
    assert callable(owner)


def test_lp_counters_read_a_real_call(monkeypatch):
    # The tracer hands the positional arguments and the result of each
    # projection_lp call, as the upper bound makes it, to _lp_work.
    calls = []
    original = hsvi.bounds.projection_lp

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(hsvi.bounds, "projection_lp", recording)
    ub = UpperBound(np.array([4.0, 3.0, 5.0, 2.0]))
    ub.add_point(Belief(4, [0, 1, 3], [0.5, 0.25, 0.25]), 1.0, None)
    ub.value(Belief(4, [0, 1, 3], [0.25, 0.5, 0.25]))
    (args, result), = calls
    counts = _layers()._lp_work(args, result)
    assert result.iterations >= 1
    assert counts == {"pivots": result.iterations, "cells": 4 * 3}
