"""Importable helpers shared by the benchmarks.

These used to live in ``benchmarks/conftest.py``, but test modules
importing helpers *by module name* from a conftest collide with
``tests/conftest.py`` whenever both directories end up on ``sys.path``
(pytest inserts each rootdir during collection, and two modules cannot
both be ``conftest``).  Fixtures stay in the conftest -- pytest wires
those by mechanism, not by name -- while anything benchmarks import
explicitly lives here under a collision-free name.
"""

import json
import os
import subprocess
import time

from repro.datasets import DblpConfig, generate_dblp_graph

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The perf trajectory file: stable-schema, repo-root, one entry per
# commit, so successive perf PRs have a baseline to beat.
TRAJECTORY_SCHEMA = 1
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")


def write_artifact(name, text):
    """Persist a regenerated table/figure under benchmarks/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text if text.endswith("\n") else text + "\n")
    return path


def current_commit():
    """The HEAD commit hash, or "unknown" outside a git checkout.

    A checkout whose tracked files differ from HEAD (the trajectory
    file itself aside) reads ``<hash>-dirty``: its numbers are not that
    commit's, and must not be recorded under its name.
    """
    def git(*args):
        return subprocess.run(("git",) + args, cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    try:
        out = git("rev-parse", "HEAD")
        if out.returncode == 0:
            dirty = git("diff", "--quiet", "HEAD", "--", ".",
                        ":(exclude)BENCH_engine.json").returncode == 1
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def update_bench_trajectory(section, payload, quick=False):
    """Merge ``payload`` under ``section`` of this commit's trajectory
    entry in ``BENCH_engine.json`` (repo root).

    Schema (stable; future perf PRs append entries)::

        {"schema": 1,
         "entries": [{"commit": ..., "recorded_at": ..., "quick": ...,
                      "cpu_count": ..., "kernels": {...},
                      "engine": {...}}]}

    One entry per ``(commit, quick)``: re-running a bench for the
    same commit in the same mode updates its entry in place (sections
    merge, so the kernel bench and the engine bench can each
    contribute their part), while quick (CI smoke) and full runs
    record separately -- their numbers are not comparable, and the
    no-regression gate only ever compares entries of matching mode.
    """
    commit = current_commit()
    doc = {"schema": TRAJECTORY_SCHEMA, "entries": []}
    if os.path.exists(TRAJECTORY_PATH):
        try:
            with open(TRAJECTORY_PATH, "r", encoding="utf-8") as f:
                loaded = json.load(f)
            if loaded.get("schema") == TRAJECTORY_SCHEMA:
                doc = loaded
        except (OSError, ValueError):
            pass
    entry = None
    for candidate in doc["entries"]:
        if candidate.get("commit") == commit \
                and bool(candidate.get("quick")) == bool(quick):
            entry = candidate
            break
    if entry is None:
        entry = {"commit": commit}
        doc["entries"].append(entry)
    entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime())
    entry["cpu_count"] = os.cpu_count()
    entry["quick"] = bool(quick)
    existing = entry.setdefault(section, {})
    existing.update(payload)
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return TRAJECTORY_PATH


def dblp_sized(n, seed=7):
    """A generated graph with ~n authors (for scaling sweeps)."""
    communities = max(4, n // 85)
    return generate_dblp_graph(DblpConfig(n_authors=n,
                                          n_communities=communities,
                                          seed=seed))
