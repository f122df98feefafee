"""Random-reveal simulation and verification of its conditional laws.

The reveal process scans the vertices of a design in a uniformly random
order and, within each vertex's star of forward edges, in a second
uniformly random order, exposing one edge value at a time.  This
subpackage computes the per-pair availability sets produced by that
process, verifies their conditional distributions exactly (rational
arithmetic over full enumerations) or by Monte Carlo, and evaluates the
resulting chain-rule upper bounds on log-counts at finite n.
"""

from .reveal import (
    EmptyConditionError,
    RevealOrder,
    RevealSets,
    TooLargeError,
    make_reveal_order,
    reveal_sets_1f,
    reveal_sets_sts,
    sample_reveal_order,
)
from .lemmas import (
    LemmaVerdict,
    verdicts_to_csv,
    verdicts_to_json,
    verify_M_expectation,
    verify_N_law,
    verify_position_law,
    verify_suite,
)
from .rates import (
    EntropyEstimate,
    RateValue,
    entropy_upper_estimate,
    finite_sum_rate,
)

__all__ = [
    "EmptyConditionError", "RevealOrder", "RevealSets", "TooLargeError",
    "make_reveal_order", "reveal_sets_1f", "reveal_sets_sts",
    "sample_reveal_order",
    "LemmaVerdict", "verdicts_to_csv", "verdicts_to_json",
    "verify_M_expectation", "verify_N_law", "verify_position_law",
    "verify_suite",
    "EntropyEstimate", "RateValue", "entropy_upper_estimate",
    "finite_sum_rate",
]
