"""Author profiles (Figure 2).

The paper extracts profiles of several hundred renowned database
researchers from Wikipedia.  We cannot ship that crawl; instead the
store carries hand-written profiles for the seed researchers used in
the demo walkthrough and synthesises deterministic placeholder
profiles for everyone else, so the "click a portrait, see the profile,
keep exploring" loop works for every vertex.
"""

from repro.util.rng import make_rng

_AREAS = ["Computer science", "Data management", "Information systems"]
_INTERESTS = [
    "query processing", "transaction management", "graph analytics",
    "data integration", "stream processing", "database tuning",
    "distributed systems", "data mining", "information retrieval",
    "spatial databases",
]
_INSTITUTES = [
    "University of Hong Kong", "ETH Zurich", "Tsinghua University",
    "University of Wisconsin-Madison", "National University of Singapore",
    "Technical University of Munich", "KAIST", "EPFL",
    "University of Waterloo", "Aalborg University",
]

#: Hand-written profiles for the researchers in the demo walkthrough.
_BUILTIN = {
    "Jim Gray": {
        "areas": "Computer science",
        "institute": "Microsoft Research; IBM; Tandem Computers",
        "interests": "Transaction processing; database systems; "
                     "scientific data management",
    },
    "Michael Stonebraker": {
        "areas": "Computer science",
        "institute": "University of California, Berkeley; University of "
                     "Michigan, Massachusetts Institute of Technology",
        "interests": "Relational database systems; column-oriented DBMS",
    },
    "Michael L. Brodie": {
        "areas": "Computer science",
        "institute": "Verizon; Massachusetts Institute of Technology",
        "interests": "Databases; semantic technologies; data curation",
    },
    "Bruce G. Lindsay": {
        "areas": "Computer science",
        "institute": "IBM Almaden Research Center",
        "interests": "Distributed databases; replication; System R",
    },
    "Gerhard Weikum": {
        "areas": "Computer science",
        "institute": "Max Planck Institute for Informatics",
        "interests": "Transaction processing; knowledge bases; "
                     "information extraction",
    },
    "Hector Garcia-Molina": {
        "areas": "Computer science",
        "institute": "Stanford University; Princeton University",
        "interests": "Database systems; digital libraries; "
                     "information integration",
    },
    "Stanley B. Zdonik": {
        "areas": "Computer science",
        "institute": "Brown University",
        "interests": "Object-oriented databases; stream processing; "
                     "column stores",
    },
    "David J. DeWitt": {
        "areas": "Computer science",
        "institute": "University of Wisconsin-Madison; Microsoft",
        "interests": "Parallel database systems; benchmarking; "
                     "query processing",
    },
    "Rakesh Agrawal": {
        "areas": "Computer science",
        "institute": "IBM Almaden Research Center; Microsoft Research",
        "interests": "Data mining; association rules; privacy",
    },
    "Jeffrey D. Ullman": {
        "areas": "Computer science",
        "institute": "Stanford University",
        "interests": "Database theory; compilers; data mining",
    },
    "Jennifer Widom": {
        "areas": "Computer science",
        "institute": "Stanford University",
        "interests": "Data streams; uncertain data; active databases",
    },
    "Serge Abiteboul": {
        "areas": "Computer science",
        "institute": "INRIA; ENS Paris",
        "interests": "Database theory; Web data; XML",
    },
    "Raghu Ramakrishnan": {
        "areas": "Computer science",
        "institute": "University of Wisconsin-Madison; Yahoo!; "
                     "Microsoft",
        "interests": "Deductive databases; data mining; cloud data "
                     "platforms",
    },
    "Joseph M. Hellerstein": {
        "areas": "Computer science",
        "institute": "University of California, Berkeley",
        "interests": "Adaptive query processing; declarative "
                     "networking; data wrangling",
    },
    "Samuel Madden": {
        "areas": "Computer science",
        "institute": "Massachusetts Institute of Technology",
        "interests": "Sensor data; column stores; main-memory systems",
    },
    "Surajit Chaudhuri": {
        "areas": "Computer science",
        "institute": "Microsoft Research",
        "interests": "Self-tuning databases; query optimization; "
                     "data cleaning",
    },
    "Anastasia Ailamaki": {
        "areas": "Computer science",
        "institute": "EPFL; Carnegie Mellon University",
        "interests": "Hardware-conscious databases; scientific data "
                     "management",
    },
    "Beng Chin Ooi": {
        "areas": "Computer science",
        "institute": "National University of Singapore",
        "interests": "Distributed data management; indexing; "
                     "machine learning systems",
    },
    "Divesh Srivastava": {
        "areas": "Computer science",
        "institute": "AT&T Labs-Research",
        "interests": "Data quality; data integration; streams",
    },
    "Alon Y. Halevy": {
        "areas": "Computer science",
        "institute": "University of Washington; Google; Meta AI",
        "interests": "Data integration; Web data; knowledge bases",
    },
}


class AuthorProfile:
    """One profile card, as rendered in the Figure 2 pop-up."""

    __slots__ = ("name", "areas", "institute", "interests", "synthetic")

    def __init__(self, name, areas, institute, interests, synthetic=False):
        self.name = name
        self.areas = areas
        self.institute = institute
        self.interests = interests
        self.synthetic = synthetic

    def to_dict(self):
        """JSON-friendly representation used by the HTTP server."""
        return {
            "name": self.name,
            "areas": self.areas,
            "institute": self.institute,
            "research_interests": self.interests,
            "synthetic": self.synthetic,
        }

    def render_text(self):
        """The profile card as text, shaped like Figure 2."""
        return ("Author Profile\n"
                "  Name: {}\n"
                "  Areas: {}\n"
                "  Institute: {}\n"
                "  Research interests: {}".format(
                    self.name, self.areas, self.institute, self.interests))

    def __repr__(self):
        return "AuthorProfile({!r})".format(self.name)


class ProfileStore:
    """Profile lookup with deterministic synthesis for unknown names."""

    def __init__(self):
        self._profiles = {name: AuthorProfile(name, **fields)
                          for name, fields in _BUILTIN.items()}

    def __contains__(self, name):
        return name in self._profiles

    def __len__(self):
        return len(self._profiles)

    def get(self, name):
        """Profile for ``name``; unknown names get a synthetic card.

        Synthesis is keyed on the name so it is stable across calls
        and sessions.
        """
        profile = self._profiles.get(name)
        if profile is not None:
            return profile
        rng = make_rng("profile:" + name)
        profile = AuthorProfile(
            name=name,
            areas=rng.choice(_AREAS),
            institute=rng.choice(_INSTITUTES),
            interests="; ".join(rng.sample(_INTERESTS, 2)),
            synthetic=True,
        )
        return profile
