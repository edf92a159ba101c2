import importlib
import pkgutil
import types

import mpfsim


def test_every_exported_name_resolves():
    """A name deleted from a module but left in an export list fails here."""
    modules = [importlib.import_module(f"mpfsim.{m.name}") for m in pkgutil.iter_modules(mpfsim.__path__)]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names missing {missing}"
    declared = {name for mod in modules for name in getattr(mod, "__all__", ())}
    reexported = {
        name
        for name, value in vars(mpfsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(reexported - declared) == []
