"""Effectiveness against ground-truth communities: the CD-quality
tests' reference measures.

When a dataset carries ground-truth communities (the synthetic DBLP
generator plants them; karate has the faction split), these metrics
quantify how well a CD partition or a single CS result matches:

* :func:`f1_score` -- best-match precision/recall/F1 of one community
  against a ground-truth set;
* :func:`partition_f1` -- average best-match F1 over a whole partition
  (both directions, the common CD evaluation protocol);
* :func:`nmi` -- normalised mutual information between two partitions;
* :func:`ari` -- adjusted Rand index.

All are implemented from first principles (no external deps) and
validated against hand-computed values and NetworkX-free identities in
``test_ground_truth.py``.
"""

import math


def _as_sets(partition):
    out = []
    for members in partition:
        if hasattr(members, "vertices"):
            members = members.vertices
        out.append(frozenset(members))
    return [s for s in out if s]


def f1_score(community, ground_truth):
    """Precision, recall and F1 of ``community`` vs its best GT match.

    ``community`` may be a :class:`Community` or a vertex set;
    ``ground_truth`` is an iterable of vertex sets.  Returns
    ``{"precision": p, "recall": r, "f1": f, "match": frozenset}``.
    """
    members = frozenset(community.vertices
                        if hasattr(community, "vertices") else community)
    if not members:
        raise ValueError("community is empty")
    best = {"precision": 0.0, "recall": 0.0, "f1": 0.0, "match": None}
    for truth in _as_sets(ground_truth):
        overlap = len(members & truth)
        if overlap == 0:
            continue
        precision = overlap / len(members)
        recall = overlap / len(truth)
        f1 = 2 * precision * recall / (precision + recall)
        if f1 > best["f1"]:
            best = {"precision": precision, "recall": recall, "f1": f1,
                    "match": truth}
    return best


def partition_f1(found, ground_truth):
    """Symmetric average-F1 between two covers (the standard protocol).

    ``0.5 * (avg_{c in found} max_t F1(c,t)
           + avg_{t in truth} max_c F1(t,c))``.
    """
    found = _as_sets(found)
    truth = _as_sets(ground_truth)
    if not found or not truth:
        return 0.0

    def one_way(src, dst):
        total = 0.0
        for s in src:
            total += f1_score(s, dst)["f1"]
        return total / len(src)

    return 0.5 * (one_way(found, truth) + one_way(truth, found))


def _entropy(sizes, n):
    h = 0.0
    for size in sizes:
        if size:
            p = size / n
            h -= p * math.log(p)
    return h


def nmi(partition_a, partition_b):
    """Normalised mutual information of two *partitions* (disjoint).

    Uses the arithmetic-mean normalisation:
    ``NMI = 2 I(A;B) / (H(A) + H(B))``; 1.0 for identical partitions,
    0.0 for independent ones.  Both partitions must cover the same
    element set.
    """
    a = _as_sets(partition_a)
    b = _as_sets(partition_b)
    universe_a = set().union(*a) if a else set()
    universe_b = set().union(*b) if b else set()
    if universe_a != universe_b:
        raise ValueError("partitions cover different element sets")
    n = len(universe_a)
    if n == 0:
        return 0.0
    h_a = _entropy([len(s) for s in a], n)
    h_b = _entropy([len(s) for s in b], n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0  # both trivial: identical single-cluster partitions
    mutual = 0.0
    for sa in a:
        for sb in b:
            overlap = len(sa & sb)
            if overlap:
                mutual += (overlap / n) * math.log(
                    n * overlap / (len(sa) * len(sb)))
    denom = h_a + h_b
    return 2.0 * mutual / denom if denom else 0.0


def ari(partition_a, partition_b):
    """Adjusted Rand index of two partitions of the same element set."""
    a = _as_sets(partition_a)
    b = _as_sets(partition_b)
    universe_a = set().union(*a) if a else set()
    universe_b = set().union(*b) if b else set()
    if universe_a != universe_b:
        raise ValueError("partitions cover different element sets")
    n = len(universe_a)
    if n == 0:
        return 1.0

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = 0.0
    for sa in a:
        for sb in b:
            sum_cells += comb2(len(sa & sb))
    sum_a = sum(comb2(len(s)) for s in a)
    sum_b = sum(comb2(len(s)) for s in b)
    total = comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def evaluate_partition(found, ground_truth):
    """All partition metrics in one report dict."""
    return {
        "f1": round(partition_f1(found, ground_truth), 4),
        "nmi": round(nmi(found, ground_truth), 4),
        "ari": round(ari(found, ground_truth), 4),
        "found_communities": len(_as_sets(found)),
        "true_communities": len(_as_sets(ground_truth)),
    }
