"""Exact root multiplicities for rank-2 symmetric hyperbolic Kac-Moody
algebras, with combinatorial upper bounds from filtered rational Dyck
paths (exact counts and Monte-Carlo estimates).

Importing the package loads no numpy: estimate_bound and
visits_statistic import the numpy sampler only when they run, once their
inputs have passed.
"""

from .core_lattice import (
    ALPHA0,
    ALPHA1,
    Rank2Cartan,
    RootClass,
    Weight,
    bilinear_form,
    classify,
    dyck_count,
    simple_reflection,
)
from .counting import BoundReport, bound1, bound2, bound_report, dyck_words, enumerate_dyck
from .montecarlo import EstimateReport, VisitsReport, estimate_bound, visits_statistic
from .peterson import MultiplicityTable, kostant_count, multiplicity
from .stability_filters import FilterLevel, cond1, cond1_pair, cond2, passes_filters
from .string_data import (
    count_valid_string_data,
    is_dyck,
    littelmann_roots,
    littelmann_valid,
    runs_to_word,
    weight_of,
    word_to_runs,
)

__all__ = [
    "ALPHA0",
    "ALPHA1",
    "BoundReport",
    "EstimateReport",
    "FilterLevel",
    "MultiplicityTable",
    "Rank2Cartan",
    "RootClass",
    "VisitsReport",
    "Weight",
    "bilinear_form",
    "bound1",
    "bound2",
    "bound_report",
    "classify",
    "cond1",
    "cond1_pair",
    "cond2",
    "count_valid_string_data",
    "dyck_count",
    "dyck_words",
    "enumerate_dyck",
    "estimate_bound",
    "is_dyck",
    "kostant_count",
    "littelmann_roots",
    "littelmann_valid",
    "multiplicity",
    "passes_filters",
    "runs_to_word",
    "simple_reflection",
    "visits_statistic",
    "weight_of",
    "word_to_runs",
]
