import importlib
import pkgutil

import pytest

import footfit

MODULES = sorted(m.name for m in pkgutil.iter_modules(footfit.__path__))


def test_modules_found():
    assert {"autodiff", "camera", "cli", "renderer", "synth"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"footfit.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
