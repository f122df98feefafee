"""Counting and verification toolkit for three design families.

Exact enumeration of Steiner triple systems, 1-factorizations of
complete graphs, and Latin squares at small orders; natural-log-space
evaluation of the classical counting bounds; and exact or Monte-Carlo
verification of the random-reveal laws that drive the chain-rule upper
bounds on the counts.

Each name below is imported from its module on first use (PEP 562), so
``import designcount`` loads no submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SOURCE = {name: module for module, names in {   # each name: the module defining it
    "errors": ("DesignError",),
    "core": ("CountResult", "EdgeColoring", "LatinSquare", "TripleSystem", "is_latin",
             "third_point", "to_latin_cube", "validate_edge_coloring",
             "validate_triple_system"),
    "enumeration": ("Pool", "SearchConfig", "count_latin_squares",
                    "count_one_factorizations", "count_triple_systems",
                    "enumerate_pool", "sample_uniform"),
    "bounds": ("BoundReport", "LogScalar", "bound_report", "cameron_lower_log",
               "conjectured_rate_log", "kahn_lovasz_log", "log_factorial",
               "peel_bound_log", "vdw_latin_lower_log", "wilson_bounds"),
}.items() for name in names}
_SUBMODULES = ("core", "enumeration", "bounds")

__all__ = [*_SOURCE, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
