"""Every name in an `__all__` of srlab exists, so that deleting a function
without its export fails the test suite, not a later `import *`."""

import importlib
import pkgutil

import srlab


def test_every_export_resolves():
    names = ["srlab"] + [f"srlab.{m.name}" for m in pkgutil.iter_modules(srlab.__path__)
                         if m.name != "__main__"]
    assert "srlab.wordenum" in names
    missing = [f"{name}.{export}" for name in names
               for module in [importlib.import_module(name)]
               for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing
