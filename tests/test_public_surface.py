import importlib
import pkgutil

import pytest

import schurrnn

MODULES = sorted(m.name for m in pkgutil.iter_modules(schurrnn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    """Every name a module exports in ``__all__`` exists, so
    ``from schurrnn.<module> import *`` works."""
    mod = importlib.import_module(f"schurrnn.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    exec(f"from schurrnn.{name} import *", {})
