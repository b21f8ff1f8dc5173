import importlib
import pkgutil

import pytest

import towerforms

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(towerforms.__path__) if not m.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name deleted from a module must leave its __all__ too."""
    module = importlib.import_module(f"towerforms.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
