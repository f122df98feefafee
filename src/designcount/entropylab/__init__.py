"""Random-reveal simulation and verification of its conditional laws.

The reveal process scans the vertices of a design in a uniformly random
order and, within each vertex's star of forward edges, in a second
uniformly random order, exposing one edge value at a time.  This
subpackage computes the per-pair availability sets produced by that
process, verifies their conditional distributions exactly (rational
arithmetic over full enumerations) or by Monte Carlo, and evaluates the
resulting chain-rule upper bounds on log-counts at finite n.

Each name below is imported from its module on first use (PEP 562).
"""

from importlib import import_module as _import_module

_SOURCE = {name: module for module, names in {   # each name: the module defining it
    "reveal": ("EmptyConditionError", "RevealOrder", "RevealSets", "TooLargeError",
               "make_reveal_order", "reveal_sets_1f", "reveal_sets_sts",
               "sample_reveal_order"),
    "lemmas": ("LemmaVerdict", "verdicts_to_csv", "verdicts_to_json",
               "verify_M_expectation", "verify_N_law", "verify_position_law",
               "verify_suite"),
    "rates": ("EntropyEstimate", "RateValue", "entropy_upper_estimate",
              "finite_sum_rate"),
}.items() for name in names}
_SUBMODULES = ("reveal", "lemmas", "rates")

__all__ = list(_SOURCE)


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
    return sorted({*globals(), *__all__, *_SUBMODULES})
