"""Exact root multiplicities for rank-2 symmetric hyperbolic Kac-Moody
algebras, with combinatorial upper bounds from filtered rational Dyck
paths (exact counts and Monte-Carlo estimates).

Importing the package loads none of its modules.  Each public name is
imported from its home module on first use (PEP 562), so a caller pays
only for the modules it reads, and the CLI starts without compiling the
rest.  Importing the package loads no numpy either: estimate_bound and
visits_statistic import the numpy sampler only when they run, once their
inputs have passed.
"""

import importlib

# each public name, by the module that defines it
_HOMES = {
    "ALPHA0": "core_lattice",
    "ALPHA1": "core_lattice",
    "Rank2Cartan": "core_lattice",
    "RootClass": "core_lattice",
    "Weight": "core_lattice",
    "bilinear_form": "core_lattice",
    "classify": "core_lattice",
    "dyck_count": "core_lattice",
    "simple_reflection": "core_lattice",
    "BoundReport": "counting",
    "bound1": "counting",
    "bound2": "counting",
    "bound_report": "counting",
    "dyck_words": "counting",
    "enumerate_dyck": "counting",
    "EstimateReport": "montecarlo",
    "VisitsReport": "montecarlo",
    "estimate_bound": "montecarlo",
    "visits_statistic": "montecarlo",
    "MultiplicityTable": "peterson",
    "kostant_count": "peterson",
    "multiplicity": "peterson",
    "FilterLevel": "stability_filters",
    "cond1": "stability_filters",
    "cond1_pair": "stability_filters",
    "cond2": "stability_filters",
    "passes_filters": "stability_filters",
    "count_valid_string_data": "string_data",
    "is_dyck": "string_data",
    "littelmann_roots": "string_data",
    "littelmann_valid": "string_data",
    "runs_to_word": "string_data",
    "weight_of": "string_data",
    "word_to_runs": "string_data",
}


def _lazy(namespace: dict, homes: dict):
    """PEP 562 __getattr__ and __dir__ for a module whose names live in `homes`.

    The first read of a name imports its home module (a sibling in this
    package) and caches the name in `namespace`, so later reads are plain
    attribute reads and a setattr on the module replaces what callers see.
    """

    def __getattr__(name: str):
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(f"{__name__}.{home}")
        namespace[name] = value = getattr(module, name)
        return value

    def __dir__():
        return sorted(namespace.keys() | homes.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _HOMES)

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
