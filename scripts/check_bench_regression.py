#!/usr/bin/env python3
"""Bench no-regression gate: compare this commit's BENCH_engine.json
trajectory entry against the previous baseline and fail on a >20%
slowdown of the kernel/engine health metrics.

The trajectory records absolute seconds, but CI runners (and quick
mode) make absolute numbers incomparable across entries; the gate
therefore checks the *dimensionless* metrics the benches already
compute, which hold their meaning across pool sizes and runners:

* ``kernels.core_decomposition.<graph>.speedup`` -- CSR kernel vs the
  seed set path (higher is better);
* ``truss_maintenance.warm_hit_rate.selective`` -- selective
  invalidation's warm hit rate (higher is better);
* ``serving.coalesced_share`` -- the share of a thundering herd's
  followers the batcher answered from a leader's execution instead of
  recomputing (higher is better; 1.0 when every round coalesced);
* ``resilience.success_rate`` / ``resilience.identical_rate`` --
  queries answered, and answered byte-identically to the fault-free
  run, under the seeded 5% worker-kill plan (higher is better;
  both should be 1.0).

Two ratios the trajectory records are deliberately **not** gated:
``engine.speedup_warm_vs_direct`` (direct ACQ seconds / warm-cache
seconds) and ``serving.speedup`` (thread-per-request seconds /
async+batched seconds, the former being one full search per client).
Their numerator is the cold kernel -- the very thing a kernel PR
optimises -- so a 5x faster ACQ drops both while the path they were
meant to watch (the cache hit, the batcher) has not moved: a ratio
whose numerator is the quantity being optimised cannot be a health
metric.  What they stood for is still checked.  The bench asserts
``hits >= len(pool)`` and warm at least 2x/10x faster than direct,
and the hit path's absolute cost is gated end to end by the
``browse_hot`` workload of ``BENCHMARK.json``.  For serving the bench
keeps its own floors on the ratio (>= 1.5 full, a measured gross-loss
floor quick), and the gate watches the batcher through a quantity the
kernel's speed cannot move: ``serving.coalesced_share``.

Usage: ``python scripts/check_bench_regression.py [--threshold 0.2]``
(run after the bench has written the current commit's entry).  Exits
non-zero when any metric present in *both* entries regressed by more
than the threshold; a missing baseline (first commit, rewritten
history, unknown commit) passes with a notice -- the gate can only
compare what exists.
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")

# (path into one trajectory entry, human label); all are
# higher-is-better ratios.
METRICS = (
    (("kernels", "core_decomposition", "dblp", "speedup"),
     "CSR core_decomposition speedup (dblp)"),
    (("kernels", "core_decomposition", "lfr", "speedup"),
     "CSR core_decomposition speedup (lfr)"),
    (("truss_maintenance", "warm_hit_rate", "selective"),
     "selective truss warm hit rate"),
    (("serving", "coalesced_share"),
     "herd followers answered from a leader's execution"),
    (("resilience", "success_rate"),
     "query success rate under 5% worker-kill plan"),
    (("resilience", "identical_rate"),
     "byte-identical answers under 5% worker-kill plan"),
)


def _head_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=REPO_ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _dig(doc, path):
    for part in path:
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


def _pick_entries(entries, commit):
    """``(current, baseline)``: the entry for ``commit`` and the most
    recent prior entry recorded in the *same mode* (file order is
    append order).

    Quick mode shrinks graphs and query pools, which shifts even the
    dimensionless metrics (tiny inputs are overhead-dominated), so a
    quick entry is only ever compared against another quick entry and
    a full run against a full run.
    """
    current = None
    index = None
    for i, entry in enumerate(entries):
        if entry.get("commit") == commit:
            # HEAD may own one full and one quick entry; the one the
            # bench just (re)wrote carries the newest timestamp.
            if current is None or entry.get("recorded_at", "") \
                    >= current.get("recorded_at", ""):
                current = entry
                index = i
    if current is None and entries:
        # Bench ran before the commit existed (CI checks out a merge
        # commit, or a dirty tree): treat the newest entry as current.
        current = entries[-1]
        index = len(entries) - 1
    baseline = None
    for entry in reversed(entries[:index] if index else []):
        if bool(entry.get("quick")) == bool(current.get("quick")):
            baseline = entry
            break
    return current, baseline


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="maximum tolerated fractional regression "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--trajectory", default=TRAJECTORY_PATH,
                        help="path to BENCH_engine.json")
    args = parser.parse_args(argv)

    if not os.path.exists(args.trajectory):
        print("bench-regression: no trajectory file at {}; nothing to "
              "compare".format(args.trajectory))
        return 0
    with open(args.trajectory, "r", encoding="utf-8") as f:
        doc = json.load(f)
    entries = doc.get("entries", [])
    current, baseline = _pick_entries(entries, _head_commit())
    if current is None or baseline is None:
        print("bench-regression: no prior {} entry to compare "
              "against".format("quick-mode"
                               if current and current.get("quick")
                               else "full-mode"))
        return 0

    print("bench-regression: {} vs baseline {}".format(
        current.get("commit", "?")[:12],
        baseline.get("commit", "?")[:12]))
    failures = []
    for path, label in METRICS:
        new = _dig(current, path)
        old = _dig(baseline, path)
        if not isinstance(new, (int, float)) \
                or not isinstance(old, (int, float)) or old <= 0:
            print("  skip  {:<44} (not in both entries)".format(label))
            continue
        change = (new - old) / old
        status = "ok"
        if change < -args.threshold:
            status = "FAIL"
            failures.append((label, old, new, change))
        print("  {:<5} {:<44} {:.3g} -> {:.3g} ({:+.1%})".format(
            status, label, old, new, change))
    if failures:
        print("bench-regression: {} metric(s) regressed more than "
              "{:.0%}".format(len(failures), args.threshold))
        return 1
    print("bench-regression: within {:.0%} of baseline".format(
        args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
