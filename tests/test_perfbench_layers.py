"""The benchmark's traced layers name functions the package still has."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


@pytest.mark.parametrize("layer, target", sorted(_traced().items()))
def test_traced_layer_resolves(layer, target):
    module_name, path = target
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        assert hasattr(owner, name), f"{layer}: {module_name} has no {path}"
        owner = getattr(owner, name)
    assert callable(owner)
