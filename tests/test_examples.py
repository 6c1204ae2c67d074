"""Every example imports: an example that names a deleted module or
function fails here, without running its ``main``."""

import glob
import importlib.util
import os

import pytest

from repro.algorithms import registry

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "*.py")))


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_imports(path, monkeypatch):
    # A plug-in example registers its algorithm at import; keep that
    # out of the process-wide registry the other tests read.
    monkeypatch.setattr(registry, "_CS", dict(registry._CS))
    monkeypatch.setattr(registry, "_CD", dict(registry._CD))
    name = "example_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
