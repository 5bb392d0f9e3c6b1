"""The public names: each module's ``__all__`` names what it defines, and the
package re-exports every one of them."""

import importlib
import pkgutil

import pytest

import scbf


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(scbf.__path__)))
def test_module_all_is_defined_and_exported(name):
    module = importlib.import_module(f"scbf.{name}")
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
    assert [n for n in public if getattr(scbf, n, None) is not getattr(module, n)] == []
