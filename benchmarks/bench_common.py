"""Importable helpers shared by the benchmarks.

These used to live in ``benchmarks/conftest.py``, but test modules
importing helpers *by module name* from a conftest collide with
``tests/conftest.py`` whenever both directories end up on ``sys.path``
(pytest inserts each rootdir during collection, and two modules cannot
both be ``conftest``).  Fixtures stay in the conftest -- pytest wires
those by mechanism, not by name -- while anything benchmarks import
explicitly lives here under a collision-free name.
"""

import os

from repro.datasets import DblpConfig, generate_dblp_graph

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def write_artifact(name, text):
    """Persist a regenerated table/figure under benchmarks/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text if text.endswith("\n") else text + "\n")
    return path


def dblp_sized(n, seed=7):
    """A generated graph with ~n authors (for scaling sweeps)."""
    communities = max(4, n // 85)
    return generate_dblp_graph(DblpConfig(n_authors=n,
                                          n_communities=communities,
                                          seed=seed))


def best_of(measure, rounds=3):
    """Call ``measure`` ``rounds`` times and keep the fastest reading of
    each timing it returns (a tuple or a dict of seconds).

    The shape checks run under ``--benchmark-disable`` in CI, where
    ``benchmark.pedantic`` makes one call whatever its ``rounds``;
    taking the minimum inside the test keeps one slow pass on a busy
    machine from deciding a timing ratio.
    """
    best = measure()
    for _ in range(rounds - 1):
        timings = measure()
        if isinstance(best, dict):
            best = {key: min(best[key], timings[key]) for key in best}
        else:
            best = tuple(map(min, best, timings))
    return best
