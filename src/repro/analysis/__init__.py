"""Analysis of communities and graphs (Section 4, Figure 6).

* :mod:`repro.analysis.metrics` -- the CPJ and CMF community-quality
  metrics of the ACQ paper, plus density/conductance/modularity
  helpers;
* :mod:`repro.analysis.statistics` -- the per-method statistics table
  (communities, vertices, edges, average degree);
* :mod:`repro.analysis.comparison` -- the module that runs several CR
  algorithms on one query and assembles the full Figure 6 report;
* :mod:`repro.analysis.themes` -- the "Theme:" line for communities
  that carry no shared keyword set;
* :mod:`repro.analysis.graph_stats` -- the dataset panel's
  whole-graph summary.
"""

from repro.analysis.comparison import ComparisonReport, compare_methods
from repro.analysis.graph_stats import graph_summary
from repro.analysis.metrics import (
    cmf,
    community_conductance,
    community_density,
    cpj,
    keyword_jaccard,
)
from repro.analysis.statistics import community_statistics, statistics_table
from repro.analysis.themes import infer_theme, theme_of

__all__ = [
    "ComparisonReport",
    "cmf",
    "graph_summary",
    "infer_theme",
    "theme_of",
    "community_conductance",
    "community_density",
    "community_statistics",
    "compare_methods",
    "cpj",
    "keyword_jaccard",
    "statistics_table",
]
