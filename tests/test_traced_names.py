"""Every function that ``perfbench/layers.py`` traces resolves in its odg module.

The benchmark's tracer wraps the ``(module, function)`` pairs of its
``TRACED`` list; a deleted or renamed one would stop every traced run.
``layers.py`` uses only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import odg.cli

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,name", _layers().TRACED)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"odg.{layer}"), name, None))


def test_tracer_wraps_and_restores_the_cli():
    tracer = _layers().Tracer()
    original = odg.cli.main
    tracer.install()
    try:
        assert odg.cli.main is not original
    finally:
        tracer.uninstall()
    assert odg.cli.main is original
