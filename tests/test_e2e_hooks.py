"""The product names the end-to-end benchmark reaches into still exist.

``benchmarks/e2e/spans.py`` wraps product callables by owner and
attribute name for ``--traced`` runs, and the benchmark's launcher
resets the explorer between passes and listens to its maintainer.  A
rename of any of those names would otherwise pass every test here and
break only a traced benchmark run.
"""

import importlib.util
import pathlib

from repro.explorer.cexplorer import CExplorer

from conftest import build_graph

SPANS = (pathlib.Path(__file__).resolve().parent.parent
         / "benchmarks" / "e2e" / "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_callable_resolves():
    targets = _spans_module()._targets()
    assert targets
    unresolved = [(owner, attr) for owner, attr, _ in targets
                  if not callable(getattr(owner, attr, None))]
    assert unresolved == []


def test_launcher_reset_and_listener_hooks():
    explorer = CExplorer(workers=1)
    try:
        explorer.add_graph("g", build_graph(4, [(0, 1), (1, 2), (0, 2)]))
        explorer.search("global", 0, k=2)
        assert len(explorer.cache) == 1
        # The launcher's pass reset.
        explorer.cache.invalidate()
        explorer.engine.memo.invalidate()
        assert len(explorer.cache) == 0
        # The launcher's update listener.
        events = []
        explorer.maintainer().add_listener(events.append)
        explorer.maintainer().insert_edge(2, 3)
        assert len(events) == 1
    finally:
        explorer.engine.shutdown()
