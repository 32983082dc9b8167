"""Package surface: what each module says it exports."""

import importlib
import pkgutil

import pytest

import envcert

MODULES = sorted(m.name for m in pkgutil.iter_modules(envcert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry does not fail at import, only at `import *`
    mod = importlib.import_module(f"envcert.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
