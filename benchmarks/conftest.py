"""Shared fixtures for the paper-fidelity benchmarks.

Every ``bench_*`` file reproduces one of the paper's figures or claims;
the README's "Benchmarks" section lists them, E1-E12, each with the
figure or sentence it reproduces.  Timings are machine-dependent, so
each bench asserts the figure's *shape* (who wins, which way a curve
bends, what the structure is), and writes a human-readable artefact
into ``benchmarks/out/`` so the regenerated tables can be inspected
after a run.

Only fixtures live here; helpers that benchmarks import by name
(``write_artifact``, ``dblp_sized``) are in :mod:`bench_common`, so
this conftest never collides with ``tests/conftest.py``.
"""

import pytest

from repro.core.cltree import build_cltree
from repro.datasets import generate_dblp_graph
from repro.explorer.cexplorer import CExplorer


@pytest.fixture(scope="session")
def dblp():
    """The session's main workload: the default 2,000-author graph."""
    return generate_dblp_graph()


@pytest.fixture(scope="session")
def dblp_index(dblp):
    """Prebuilt CL-tree over the main workload (the offline step)."""
    return build_cltree(dblp)


@pytest.fixture(scope="session")
def jim(dblp):
    """The paper's walkthrough query vertex."""
    return dblp.id_of("Jim Gray")


@pytest.fixture(scope="session")
def explorer(dblp):
    ex = CExplorer()
    ex.add_graph("dblp", dblp)
    ex.index()
    return ex
