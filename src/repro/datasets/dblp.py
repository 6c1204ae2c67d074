"""Synthetic DBLP-like co-authorship network.

The paper demos C-Explorer on a DBLP sample: 977,288 authors,
3,432,273 co-authorship edges, each author tagged with the 20 most
frequent keywords from their paper titles, plus Wikipedia profiles for
renowned database researchers.  That crawl cannot be redistributed, so
this module generates a faithful stand-in:

* **Community structure** -- authors belong to research communities
  (graph areas, database systems, ...).  Community sizes follow a
  heavy-tailed distribution, like real research fields.
* **Degree structure** -- inside a community, new authors attach
  preferentially to well-connected members (supervisors, frequent
  collaborators) and close triangles, producing the heavy-tailed
  degree distribution and nested k-cores of real co-authorship graphs.
  A configurable fraction of edges crosses communities.
* **Keyword structure** -- each community has a topic vocabulary; an
  author's 20 keywords mix their community's topic words (shared by
  most members: the "theme" ACQ discovers), globally common filler
  words ("data", "system", ...: the reason CPJ/CMF punish structure-
  only methods), and rare personal words.
* **Renowned researchers** -- the first author of each of the first
  communities is a high-degree "leader" named after the seed list in
  :data:`SEED_AUTHORS` (Jim Gray and colleagues, matching the paper's
  demo scenario) and receives a profile in
  :mod:`repro.explorer.profiles`.

Everything is driven by an explicit seed; the same config always
yields the identical graph.
"""

from repro.graph.attributed import AttributedGraph
from repro.util.rng import make_rng

#: Renowned researchers used in the paper's walkthrough (Figures 1-2).
#: They become the leaders of the first communities of the generated
#: graph, so the examples can query "Jim Gray" exactly as the demo does.
SEED_AUTHORS = [
    "Jim Gray", "Michael Stonebraker", "Michael L. Brodie",
    "Bruce G. Lindsay", "Gerhard Weikum", "Hector Garcia-Molina",
    "Stanley B. Zdonik", "David J. DeWitt", "Rakesh Agrawal",
    "Jeffrey D. Ullman", "Jennifer Widom", "Serge Abiteboul",
    "Raghu Ramakrishnan", "Joseph M. Hellerstein", "Samuel Madden",
    "Surajit Chaudhuri", "Anastasia Ailamaki", "Beng Chin Ooi",
    "Divesh Srivastava", "Alon Y. Halevy",
]

#: Globally common title words every author can carry -- the eight the
#: paper shows for Jim Gray come first.
COMMON_KEYWORDS = [
    "data", "system", "management", "research", "transaction", "web",
    "server", "spatial", "digital", "query", "database", "analysis",
    "model", "design", "performance", "distributed", "information",
    "processing", "network", "application",
]

#: Topic vocabularies, one list per research community (cycled when
#: there are more communities than topics).
TOPIC_POOLS = [
    ["transaction", "recovery", "concurrency", "locking", "logging",
     "isolation", "acid", "commit"],
    ["graph", "community", "vertex", "subgraph", "traversal", "pattern",
     "reachability", "motif"],
    ["query", "optimization", "join", "cardinality", "plan", "index",
     "selectivity", "rewrite"],
    ["stream", "window", "continuous", "event", "realtime", "sensor",
     "sliding", "approximation"],
    ["mining", "clustering", "classification", "frequent", "outlier",
     "itemset", "association", "summarization"],
    ["storage", "column", "compression", "buffer", "cache", "flash",
     "memory", "layout"],
    ["distributed", "replication", "consistency", "partition",
     "consensus", "availability", "sharding", "gossip"],
    ["spatial", "trajectory", "road", "nearest", "geographic", "region",
     "location", "map"],
    ["text", "keyword", "retrieval", "ranking", "document", "relevance",
     "snippet", "corpus"],
    ["privacy", "security", "anonymization", "encryption", "access",
     "differential", "audit", "policy"],
    ["machine", "learning", "neural", "embedding", "training",
     "feature", "gradient", "inference"],
    ["crowd", "social", "user", "recommendation", "influence", "tag",
     "sentiment", "behavior"],
]

_FIRST = ["wei", "lei", "hao", "yan", "jun", "min", "ken", "tom", "ann",
          "eva", "ben", "ada", "max", "leo", "ian", "amy", "joe", "sue",
          "ray", "kim"]
_LAST = ["chen", "wang", "smith", "li", "zhang", "kumar", "patel",
         "mueller", "garcia", "kim", "tanaka", "novak", "rossi", "silva",
         "lopez", "nguyen", "olsen", "fischer", "brown", "dubois"]


class DblpConfig:
    """Parameters of the synthetic DBLP generator.

    The defaults produce a ~2,000-author graph in well under a second;
    benchmarks scale ``n_authors`` up to 10^5.

    Parameters
    ----------
    n_authors:
        Total number of author vertices.
    n_communities:
        Number of planted research communities.
    m_intra:
        *Mean* number of edges a joining author creates inside their
        community (preferential attachment), before triadic closure.
        The per-author count is sampled around this mean with a heavy
        one-edge fringe, mirroring real co-authorship graphs where
        many authors have a single collaboration and a few are
        prolific -- this is what gives the generated graph a spread
        of core numbers instead of one giant terminal core.
    closure_p:
        Probability of closing a triangle for each new edge.
    inter_p:
        Probability that an author also collaborates with a random
        member of another community.
    keywords_per_author:
        Size of each author's keyword set (the paper uses 20).
    topic_share:
        Probability that a member carries each of their community's
        topic words; near 1.0 makes themes strongly shared.
    leader_boost:
        Extra intra-community edges given to each community leader.
    seed:
        RNG seed; identical seeds yield identical graphs.
    """

    def __init__(self, n_authors=2000, n_communities=24, m_intra=3,
                 closure_p=0.35, inter_p=0.08, keywords_per_author=20,
                 topic_share=0.9, leader_boost=12, seed=7):
        if n_authors < n_communities:
            raise ValueError("need at least one author per community")
        if m_intra < 1:
            raise ValueError("m_intra must be >= 1")
        self.n_authors = n_authors
        self.n_communities = n_communities
        self.m_intra = m_intra
        self.closure_p = closure_p
        self.inter_p = inter_p
        self.keywords_per_author = keywords_per_author
        self.topic_share = topic_share
        self.leader_boost = leader_boost
        self.seed = seed


def _sample_edge_count(rng, mean):
    """Heavy-fringe sample of a joining author's collaboration count.

    ~35% of authors attach with a single edge (the degree-1 fringe of
    real DBLP), most sit near the mean, and a small tail collaborates
    broadly.  Expectation is close to ``mean`` for the default 3.
    """
    roll = rng.random()
    if roll < 0.35:
        return 1
    if roll < 0.65:
        return max(1, mean - 1)
    if roll < 0.90:
        return mean + 1
    return 2 * mean + 1


def generate_dblp_graph(config=None, return_communities=False):
    """Generate the synthetic co-authorship network.

    Returns the :class:`AttributedGraph`; with
    ``return_communities=True`` returns ``(graph, communities)`` where
    ``communities`` maps community index -> set of vertex ids (the
    planted ground truth, used by CD quality tests).
    """
    if config is None:
        config = DblpConfig()
    rng = make_rng(config.seed)

    # ------------------------------------------------------------------
    # 1. community sizes: heavy-tailed split of n_authors
    # ------------------------------------------------------------------
    weights = [1.0 / (i + 1) ** 0.8 for i in range(config.n_communities)]
    total_w = sum(weights)
    sizes = [max(4, int(round(config.n_authors * w / total_w)))
             for w in weights]
    # Adjust the largest community so sizes sum exactly to n_authors.
    diff = config.n_authors - sum(sizes)
    sizes[0] = max(4, sizes[0] + diff)

    graph = AttributedGraph()
    communities = {}
    member_lists = []
    names_used = set()

    def fresh_name(community, i):
        # Community leaders take the renowned-researcher names, so the
        # paper's walkthrough queries ("jim gray", k=4) work verbatim.
        if i == 0 and community < len(SEED_AUTHORS):
            return SEED_AUTHORS[community]
        while True:
            name = "{} {}".format(rng.choice(_FIRST).capitalize(),
                                  rng.choice(_LAST).capitalize())
            if name not in names_used:
                return name
            name += " {:04d}".format(rng.randrange(10000))
            if name not in names_used:
                return name

    leader_of = []
    for c, size in enumerate(sizes):
        members = []
        member_set = set()
        # Degree-proportional attachment via the repeated-endpoint trick:
        # every edge endpoint appended to `attachment` once, so sampling
        # uniformly from it is sampling proportionally to degree.
        attachment = []
        for i in range(size):
            name = fresh_name(c, i)
            names_used.add(name)
            v = graph.add_vertex(name)
            if i == 0:
                leader_of.append(v)
            else:
                targets = set()
                want = min(_sample_edge_count(rng, config.m_intra), i)
                while len(targets) < want:
                    if attachment and rng.random() < 0.8:
                        t = rng.choice(attachment)
                    else:
                        t = rng.choice(members)
                    targets.add(t)
                for t in targets:
                    if graph.add_edge(v, t):
                        attachment.append(v)
                        attachment.append(t)
                    # Triadic closure: also befriend a collaborator of t.
                    if rng.random() < config.closure_p:
                        t_nbrs = [u for u in graph.neighbors(t)
                                  if u != v and u in member_set]
                        if t_nbrs:
                            w = rng.choice(t_nbrs)
                            if graph.add_edge(v, w):
                                attachment.append(v)
                                attachment.append(w)
            members.append(v)
            member_set.add(v)
        # Boost the leader: renowned researchers collaborate broadly.
        leader = leader_of[c]
        others = [m for m in members if m != leader]
        rng.shuffle(others)
        for t in others[:config.leader_boost]:
            if graph.add_edge(leader, t):
                attachment.append(leader)
                attachment.append(t)
        communities[c] = set(members)
        member_lists.append(members)

    # ------------------------------------------------------------------
    # 2. cross-community collaboration edges
    # ------------------------------------------------------------------
    for c, members in enumerate(member_lists):
        for v in members:
            if rng.random() < config.inter_p:
                other = rng.randrange(config.n_communities - 1)
                if other >= c:
                    other += 1
                target = rng.choice(member_lists[other])
                if target != v:
                    graph.add_edge(v, target)

    # ------------------------------------------------------------------
    # 3. keywords: topic words + common fillers + rare personal words
    # ------------------------------------------------------------------
    for c, members in enumerate(member_lists):
        pool = TOPIC_POOLS[c % len(TOPIC_POOLS)]
        for v in members:
            kws = {w for w in pool if rng.random() < config.topic_share}
            # Zipf-ish filler: earlier common words are more likely.
            for rank, w in enumerate(COMMON_KEYWORDS):
                if rng.random() < 0.5 / (1 + rank * 0.35):
                    kws.add(w)
            while len(kws) < config.keywords_per_author:
                kws.add("{}-{}".format(rng.choice(pool),
                                       rng.randrange(10 * len(members) + 10)))
            graph.set_keywords(v, kws)

    if return_communities:
        return graph, communities
    return graph
