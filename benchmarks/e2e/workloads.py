"""The four workloads: fixed, seeded op lists.

Every workload is a list of ops per client, the same ops in the same
order on every run with the same seed, bounded by count.  What the
seed decides and what it does not:

* **Seeded:** the order of ops (on ``update_mix`` the order is fixed
  too), which free vertex fills each slot of a
  narrow latency class (cache hits, ``global``, ``k-truss``, hot
  two-keyword ACQ keys with small themes), which key takes which
  popularity rank, the update edges, and which user walks which
  session of a pair.
* **Fixed, like the graph itself:** the query populations whose cold
  cost spreads over a decade -- the ACQ and ``local`` vertices of
  ``explore_cold`` and the session start vertices of ``session_pair``
  (and which two sessions run side by side).
  A cold all-keyword ACQ costs 30-450 ms (p90 about three times p50);
  a fresh 30-vertex sample of that distribution moves p95 by well over
  a tenth on its own.

Popularity is Zipf(1.0) **frequencies** (rank r is read in proportion
to 1/r, apportioned to whole reads), not Zipf draws, so the share of
each latency class is the same on every seed.  The op lists are built
so that p50 and p95 each sit at least three points away from a
boundary between latency classes (README.md has the table; ``run.py``
prints the latencies three points either side of each percentile).
"""

import json
import random

K = 4
POPULATION_SEED = 7
SMALL_THEME = 60

# Key types by popularity rank, repeated: 10 two-keyword ACQ, 4 global,
# 3 local, 3 k-truss per 20 ranks (160 keys = 80/32/24/24).  Spreading
# the types over the ranks fixes each type's share of the reads:
# ``global`` (every answer is the 12 000-vertex 4-core, 25 ms to
# serialise even from the cache) takes 16 % of the searches.
RANK_PATTERN = "ALAGATAAGLATAGALATGA"
ALGORITHMS = {"A": "acq", "G": "global", "L": "local", "T": "k-truss"}


def _post(kind, path, **body):
    return {"kind": kind, "path": path,
            "body": json.dumps(body).encode("utf-8")}


def search_op(world, algorithm, q, keywords=None, session=None,
              kind="search", **extra):
    """A ``/v1/search`` (or display) op carrying what the checks need."""
    body = dict(vertex=world.names[q], k=K, algorithm=algorithm, **extra)
    if keywords is not None:
        body["keywords"] = list(keywords)
    if session is not None:
        body["session"] = session
    op = _post(kind, "/v1/" + kind, **body)
    op.update(algorithm=algorithm, q=q, k=K, keywords=keywords,
              key=(algorithm, q))
    return op


def apportion(total, weights):
    """Whole counts proportional to ``weights`` summing to ``total``
    (largest remainder; ties go to the earlier entry)."""
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (counts[i] - shares[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


class Population:
    """Query vertices by role, derived from the harness's own graph."""

    def __init__(self, world, communities):
        self.world = world
        self.communities = communities
        core = world.core_numbers()
        self.postings = {}
        for v, c in enumerate(core):
            if c >= K:
                for word in world.keywords[v]:
                    self.postings.setdefault(word, set()).add(v)
        self.core = core
        pool = [v for v, c in enumerate(core) if c >= K]
        random.Random(POPULATION_SEED).shuffle(pool)
        self._pool = pool
        self._themes = {}

    def theme(self, v):
        """The two keywords ``v`` shares with most co-authors -- what a
        user browsing ``v``'s field would tick -- or ``None`` when
        neither defines an attributed community around ``v``.  Without
        one, ACQ falls back to the whole 12 000-vertex k-core, a
        different latency class that must not land on a random rank."""
        return self._themed(v)[0]

    def theme_size(self, v):
        """The size of the largest single-keyword community of ``v``'s
        theme: an upper bound on the two-keyword ACQ answer, and so on
        what its response costs to serialise."""
        return self._themed(v)[1]

    def _themed(self, v):
        if v not in self._themes:
            world = self.world
            counts = {}
            for w in world.adj[v]:
                for word in world.keywords[w] & world.keywords[v]:
                    counts[word] = counts.get(word, 0) + 1
            top = sorted(counts, key=lambda word: (-counts[word], word))[:2]
            sizes = [self._attributed_core(v, word) for word in top]
            ok = len(top) == 2 and any(sizes)
            self._themes[v] = (tuple(top), max(sizes)) if ok \
                else (None, 0)
        return self._themes[v]

    def _attributed_core(self, q, word):
        """The size of ``q``'s component after peeling the carriers of
        ``word`` to minimum degree K -- the attributed community that
        keyword alone defines around ``q`` -- or 0 when ``q`` is peeled
        away."""
        adj = self.world.adj
        members = set(self.postings.get(word, ()))
        degree = {v: len(adj[v] & members) for v in members}
        stack = [v for v, d in degree.items() if d < K]
        while stack:
            v = stack.pop()
            if v not in members:
                continue
            members.discard(v)
            for w in adj[v]:
                if w in members:
                    degree[w] -= 1
                    if degree[w] < K:
                        stack.append(w)
        if q not in members:
            return 0
        seen = {q}
        frontier = [q]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w in members and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen)

    def fixed_themed(self, count):
        """The first ``count`` themed vertices of the fixed pool."""
        out = []
        for v in self._pool:
            if self.theme(v) is not None:
                out.append(v)
                if len(out) == count:
                    return out
        raise ValueError("graph too small for {} themed vertices"
                         .format(count))

    def draw(self, rng, count, themed=False, exclude=()):
        """``count`` distinct seeded vertices; ``themed`` ones have a
        theme whose communities are small (at most ``SMALL_THEME``
        vertices), so that their answers are all cheap to serialise."""
        exclude = set(exclude)
        out = []
        for v in rng.sample(self._pool, len(self._pool)):
            if v in exclude or (themed and not
                                0 < self.theme_size(v) <= SMALL_THEME):
                continue
            out.append(v)
            if len(out) == count:
                return out
        raise ValueError("graph too small for {} vertices".format(count))


class Workload:
    """One workload's op lists and how its passes are run."""

    def __init__(self, users, warmup, passes, reset=False,
                 sweep=(), maintainer=False):
        self.users = users          # one op list per client
        self.warmup = warmup        # untimed, before the first pass
        self.passes = passes        # timed passes at run_seconds
        self.reset = reset          # clear caches before each pass
        # Untimed, after every pass: brings the server back to where
        # the pass started (see update_mix).
        self.sweep = list(sweep)
        self.maintainer = maintainer

    @property
    def ops_per_pass(self):
        return sum(len(ops) for ops in self.users)


def mark_verified(ops):
    """Flag every 10th search for the from-definition check."""
    searches = [op for op in ops if op["kind"] == "search"]
    for op in searches[::10]:
        op["verify"] = True


def hot_keys(pop, rng, scale, pattern=RANK_PATTERN):
    """The working set: search ops by popularity rank (rank 0 first)."""
    world = pop.world
    size = max(len(pattern), int(8 * len(pattern) * scale))
    types = (pattern * (size // len(pattern) + 1))[:size]
    acq = pop.draw(rng, types.count("A"), themed=True)
    rest = pop.draw(rng, size - len(acq), exclude=acq)
    keys = []
    for t in types:
        if t == "A":
            q = acq.pop()
            keys.append(search_op(world, "acq", q, keywords=pop.theme(q),
                                  session="hot"))
        else:
            keys.append(search_op(world, ALGORITHMS[t], rest.pop(),
                                  session="hot"))
    return keys


def zipf_reads(keys, total):
    """``total`` reads of ``keys`` with Zipf(1.0) frequencies."""
    counts = apportion(total, [1.0 / (r + 1) for r in range(len(keys))])
    return [dict(key) for key, n in zip(keys, counts) for _ in range(n)]


def side_ops(pop, rng, count):
    """``count`` each of options, profile and suggest on seeded
    vertices: the cheap calls a browsing user makes between searches."""
    names = pop.world.names
    ops = []
    for v in pop.draw(rng, count):
        ops.append(_post("options", "/v1/options", vertex=names[v]))
        ops.append(_post("profile", "/v1/profile", vertex=names[v]))
        ops.append(_post("suggest", "/v1/suggest",
                         prefix=names[v][:rng.randint(2, 4)].lower(),
                         limit=10))
    return ops


def browse_hot(pop, seed, scale):
    """Repeat visits to a working set that fits the cache."""
    rng = random.Random("browse_hot:{}".format(seed))
    keys = hot_keys(pop, rng, scale)
    per_pass = int(300 * scale)
    ops = zipf_reads(keys, per_pass * 7 // 10)
    ops += side_ops(pop, rng, per_pass // 10)
    rng.shuffle(ops)
    mark_verified(ops)
    # Warm-up: every key once, and the side calls (the first suggest
    # builds the name index).
    warmup = [dict(k) for k in keys] \
        + [op for op in ops if op["kind"] != "search"]
    return Workload([ops], warmup=warmup, passes=10)


def explore_cold(pop, seed, scale):
    """Every query distinct, caches cleared before each pass.

    Of 200 ops: 30 all-keyword ACQ, 60 two-keyword ACQ and 45 local
    (fixed populations: the cold cost of each spreads over a decade),
    20 global and 45 k-truss (seeded).  By cold cost the classes stack
    local/k-truss (45 %) < two-keyword ACQ (to 75 %) < global (to 85 %)
    < all-keyword ACQ, so p50 is a two-keyword ACQ, five points above
    the nearest boundary, and p95 an all-keyword one, ten points in;
    ACQ is 80 % of the pass's time.
    """
    rng = random.Random("explore_cold:{}".format(seed))
    world = pop.world
    counts = {name: max(2, int(n * scale)) for name, n in (
        ("full", 30), ("two", 60), ("local", 45), ("global", 20),
        ("k-truss", 45))}
    fixed = pop.fixed_themed(counts["full"] + counts["two"]
                             + counts["local"])
    full = fixed[:counts["full"]]
    two = fixed[counts["full"]:counts["full"] + counts["two"]]
    local = fixed[counts["full"] + counts["two"]:]
    rest = pop.draw(rng, counts["global"] + counts["k-truss"],
                    exclude=fixed)
    ops = [search_op(world, "acq", q, session="cold") for q in full]
    ops += [search_op(world, "acq", q, keywords=pop.theme(q),
                      session="cold") for q in two]
    ops += [search_op(world, "local", q, session="cold") for q in local]
    for algorithm in ("global", "k-truss"):
        ops += [search_op(world, algorithm, rest.pop(), session="cold")
                for _ in range(counts[algorithm])]
    rng.shuffle(ops)
    mark_verified(ops)
    # One query per algorithm on vertices outside the pass: builds the
    # truss index and warms the code paths, leaves nothing the reset
    # before the first pass does not clear.
    extra = pop.draw(rng, 4, themed=True, exclude=fixed)
    warmup = [search_op(world, a, q, session="cold")
              for a, q in zip(("acq", "global", "local", "k-truss"), extra)]
    return Workload([ops], warmup=warmup, passes=5,
                    reset=True)


def update_mix(pop, seed, scale):
    """Reads of the popular hot keys beside edge updates.

    One update before every 52nd read: two seeded non-edges inserted,
    then the same two removed, so a pass ends on the graph it started
    on.  An update evicts every ``global`` entry (the 4-core holds the
    endpoints), every ``local`` entry (evicted conservatively) and the
    ACQ entries whose answer holds an endpoint.  So that every update
    costs the same on every seed, each edge joins the query vertex of
    an ACQ key that is read after both its insertion and its removal to
    a seeded vertex of core >= k: that key is certain to be evicted (an
    answer contains its query vertex) and its next read is the ACQ miss
    that pays the CL-tree rebuild -- one rebuild per update, four reads
    in 208, so p95 sits below them among the recomputed ``global``
    answers.  The keys are ``browse_hot``'s less the ``k-truss`` ones,
    whose first read after an update pays a truss decomposition as well
    (0.33 s): with both, the rebuild-paying reads would be 3.8 % and
    p95 within two points of them.
    """
    rng = random.Random("update_mix:{}".format(seed))
    world = pop.world
    keys = hot_keys(pop, rng, scale, RANK_PATTERN.replace("T", ""))
    reads = zipf_reads(keys, int(208 * scale))
    # Which rank is read when is fixed, like the populations: how many
    # distinct ``global`` and ``local`` keys are read between two
    # updates is how many answers are recomputed (45 ms each for
    # ``global``), and under a seeded order that count moved a pass's
    # time by +-5 % from seed to seed.  The seed still decides which
    # vertex has which rank.
    random.Random(POPULATION_SEED).shuffle(reads)
    # The working set is the keys the reads reach (85 of the 136).
    read_keys = {op["key"] for op in reads}
    keys = [op for op in keys if op["key"] in read_keys]
    taken = {op["q"] for op in keys}
    pairs = max(1, int(2 * scale))
    gap = len(reads) // (2 * pairs)
    windows = [reads[i * gap:(i + 1) * gap] for i in range(2 * pairs - 1)]
    windows.append(reads[(2 * pairs - 1) * gap:])
    edges = []
    for i in range(pairs):
        acq_read = [{op["q"] for op in window if op["algorithm"] == "acq"}
                    for window in (windows[i], windows[pairs + i])]
        both = acq_read[0] & acq_read[1] - {u for u, _ in edges}
        # The most popular such key (``keys`` is in rank order).
        u = next((op["q"] for op in keys if op["q"] in both), None)
        if u is None:
            raise ValueError("no ACQ key is read after both updates")
        v = pop.draw(rng, 1, exclude=taken | world.adj[u])[0]
        taken.add(v)
        edges.append((u, v))
    ops = []
    for i, window in enumerate(windows):
        ops.append({"kind": "update", "insert": i < pairs,
                    "edge": edges[i % pairs]})
        ops += window
    mark_verified(ops)
    sweep = [dict(k) for k in keys]
    return Workload([ops], warmup=sweep, passes=4, sweep=sweep,
                    maintainer=True)


def session_pair(pop, seed, scale):
    """Two concurrent users walking the paper's browsing flow."""
    rng = random.Random("session_pair:{}".format(seed))
    world = pop.world
    per_user = max(2, int(10 * scale))
    hubs = min(24, len(pop.communities))
    # Start vertices: the best-connected themed members of the 24
    # largest planted communities, taken round-robin.  Fixed (see the
    # module docstring).
    ranked = []
    for c in range(hubs):
        by_degree = sorted(pop.communities[c],
                           key=lambda v: (-len(world.adj[v]), v))
        ranked.append(v for v in by_degree
                      if pop.core[v] >= K and pop.theme(v) is not None)
    starts = []
    while len(starts) < 2 * per_user:
        for members in ranked:
            if len(starts) < 2 * per_user:
                starts.append(next(members))
    # Which two sessions run side by side is fixed too (how long a
    # cold ACQ takes depends on what the other user is running); the
    # seed orders the pairs and deals each pair to the two users.
    pairs = [starts[i:i + 2] for i in range(0, len(starts), 2)]
    rng.shuffle(pairs)
    for pair in pairs:
        rng.shuffle(pair)
    users = []
    for u in range(2):
        sid = "user{}".format(u)
        ops = []
        for q in (pair[u] for pair in pairs):
            name = world.names[q]
            first = len(ops) + 6
            # Autocomplete fires as the user types: five prefixes.
            ops += [_post("suggest", "/v1/suggest",
                          prefix=name[:n].lower(), limit=10)
                    for n in (2, 3, 4, 5, 6)]
            ops += [
                _post("options", "/v1/options", vertex=name),
                search_op(world, "acq", q, session=sid),
                search_op(world, "acq", q, kind="display", community=0),
                # The next two ops follow a member of the community the
                # first search returned: resolved from that answer on
                # the first pass, replayed unchanged afterwards.
                {"kind": "profile", "path": "/v1/profile",
                 "member_of": first},
                {"kind": "search", "path": "/v1/search",
                 "member_of": first, "session": sid},
                # ``global`` is left out: /v1/compare computes pairwise
                # statistics over each answer, about 4 s for the
                # 12 000-vertex 4-core (see README).
                dict(_post("compare", "/v1/compare", vertex=name, k=K,
                           methods=["local", "acq"]), q=q),
            ]
            # The users start every session, and its first search,
            # together (harness.drive).  Left to run free they drift in
            # and out of step, and a cheap call takes 1 ms beside the
            # other user's cheap call but 5-20 ms beside their ACQ:
            # over ten seeds p50 ran from 6.4 to 16.4 ms (README has
            # the measurements).
            ops[first - 6]["meet"] = ops[first]["meet"] = True
        mark_verified(ops)
        users.append(ops)
    spare = pop.draw(rng, 1, themed=True, exclude=starts)[0]
    warmup = [
        _post("suggest", "/v1/suggest", prefix="a", limit=10),
        search_op(world, "acq", spare, kind="display", community=0),
        _post("compare", "/v1/compare", vertex=world.names[spare], k=K,
              methods=["local", "acq"]),
    ]
    return Workload(users, warmup=warmup, passes=5, reset=True)


def resolve_member(world, op, answer):
    """Fill a ``member_of`` op from the search answer it follows: the
    middle member (by name) of the first community, other than the
    query vertex."""
    names = sorted(answer["communities"][0]["vertices"])
    query = answer["query"]["vertex"]
    others = [name for name in names if name != query] or names
    member = others[len(others) // 2]
    if op["kind"] == "profile":
        op.update(_post("profile", "/v1/profile", vertex=member))
    else:
        op.update(search_op(world, "acq", world.ids[member],
                            session=op["session"]))
    del op["member_of"]


WORKLOADS = {
    "browse_hot": browse_hot,
    "explore_cold": explore_cold,
    "update_mix": update_mix,
    "session_pair": session_pair,
}
