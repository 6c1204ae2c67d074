"""Every name a ``repro`` module exports in ``__all__`` resolves.

No test imports with ``*``, so a stale ``__all__`` entry (a deleted
function left in a package's re-export list) would otherwise go
unseen.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        # ``python -m repro`` runs the CLI on import.
        if info.name != "repro.__main__":
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    exported = {module.__name__: module.__all__ for module in _modules()
                if hasattr(module, "__all__")}
    assert "repro" in exported and "repro.core" in exported
    missing = [(name, attr) for name, names in exported.items()
               for attr in names
               if not hasattr(importlib.import_module(name), attr)]
    assert missing == []
