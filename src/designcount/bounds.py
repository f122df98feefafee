"""Closed-form counting bounds, evaluated entirely in natural-log space.

Counts of designs grow like (n/e^2)^(n^2/k), far beyond any float, so
every bound here is represented by the natural logarithm of the count
it estimates and no count is ever exponentiated.  Factorials are exact
digit-by-digit log sums (compensated summation), not Stirling
approximations.

Bounds provided, with their reference counts:

* Wilson's sandwich for triple systems:
  (n/(e^2 3^(3/2)))^(n^2/6) <= STS(n) <= (n/e^(1/2))^(n^2/6).
* The degree-sequence bound on perfect matchings,
  prod_i (r_i!)^(1/(2 r_i)), and the peel bound obtained by removing
  perfect matchings from K_n one at a time:
  F(n) <= prod_{d=1}^{n-1} (d!)^(n/(2d)).
* The permanent-based Latin lower bound L(n) >= (n!)^(2n) / n^(n^2)
  (the explicit finite-n form behind L(n) >= ((1+o(1)) n/e^2)^(n^2)).
* The recursive lower bound F(n) >= L(n/2) F(n/2)^2 for n divisible
  by 4, preferring exact base counts and falling back to the bounds
  above.
* The conjectured sharp growth rates (n/e^2)^(n^2/k) for k in {6,2,1},
  with the vanishing correction dropped.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import DesignError


class ZeroDegreeError(DesignError):
    """A degree-sequence entry was < 1."""


class OddNError(DesignError):
    """The peel bound needs an even vertex count."""


class NotDivisibleBy4Error(DesignError):
    """The recursive matching lower bound needs 4 | n."""


class BadKError(DesignError):
    """Conjectured rate exponent divisor must be 6, 2 or 1."""


class UnknownBoundError(DesignError):
    """Unrecognized bound name in a report request."""


@dataclass(frozen=True)
class LogScalar:
    """A positive count represented by its natural logarithm.

    Adding LogScalars multiplies the underlying counts.
    """

    value: float
    note: str = ""

    def __add__(self, other: "LogScalar") -> "LogScalar":
        return LogScalar(self.value + other.value)

    def __float__(self) -> float:
        return self.value

    def magnitude(self) -> str:
        return f"e^{self.value:.6g}"


# --- exact log factorials, one pass of prefix sums with Neumaier compensation ---

def _log_factorials(k: int):
    """log(t!) for t = 1 .. k, from one pass of the compensated sum of log t."""
    raw = comp = 0.0   # running sum of log t, and its accumulated compensation
    for t in range(1, k + 1):
        term = math.log(t)
        total = raw + term
        comp += (raw - total) + term if abs(raw) >= abs(term) else (term - total) + raw
        raw = total
        yield raw + comp


def log_factorial(k: int) -> LogScalar:
    """log(k!) as the compensated sum log 2 + ... + log k."""
    if not isinstance(k, int) or k < 0:
        raise DesignError(f"factorial argument must be a nonnegative int, got {k!r}")
    value = 0.0
    for value in _log_factorials(k):
        pass
    return LogScalar(value)


def wilson_bounds(n: int) -> tuple[LogScalar, LogScalar]:
    """Lower and upper log bounds on the number of triple systems."""
    if n < 1:
        raise DesignError(f"n must be >= 1, got {n}")
    scale = n * n / 6.0
    lower = scale * (math.log(n) - 2.0 - 1.5 * math.log(3.0))
    upper = scale * (math.log(n) - 0.5)
    return LogScalar(lower), LogScalar(upper)


def kahn_lovasz_log(degrees) -> LogScalar:
    """log of prod_i (r_i!)^(1/(2 r_i)) for a graph degree sequence."""
    degrees = list(degrees)
    if any(not isinstance(r, int) or r < 1 for r in degrees):
        raise ZeroDegreeError("all degrees must be ints >= 1")
    wanted = set(degrees)
    terms = {r: lf / (2.0 * r)   # one term per distinct degree
             for r, lf in enumerate(_log_factorials(max(wanted, default=0)), 1) if r in wanted}
    return LogScalar(math.fsum(terms[r] for r in degrees))


def peel_bound_log(n: int) -> LogScalar:
    """log of prod_{d=1}^{n-1} (d!)^(n/(2d)): repeated matching removal."""
    if n < 2 or n % 2:
        raise OddNError(f"peel bound needs even n >= 2, got {n}")
    return LogScalar(math.fsum((n / (2.0 * d)) * lf
                               for d, lf in enumerate(_log_factorials(n - 1), 1)))


def vdw_latin_lower_log(n: int) -> LogScalar:
    """log of (n!)^(2n) / n^(n^2), a finite-n Latin square lower bound."""
    if n < 1:
        raise DesignError(f"n must be >= 1, got {n}")
    return LogScalar(2.0 * n * log_factorial(n).value - float(n * n) * math.log(n),
                     note="explicit vdW form")


def cameron_lower_log(n: int, latin_count: int | None = None,
                      onef_count: int | None = None) -> LogScalar:
    """log of L(n/2) * F(n/2)^2, a matching-count lower bound for 4 | n.

    Exact base counts are used when given (L(n/2) labeled squares,
    F(n/2) unordered factorizations); otherwise L falls back to the vdW
    bound and F recurses (bottoming out at the trivial F >= 1).  The
    note records which sources were used.
    """
    if n % 4 != 0 or n < 4:
        raise NotDivisibleBy4Error(f"recursive bound needs 4 | n, got {n}")
    m = n // 2
    if latin_count is not None:
        log_l, l_src = math.log(latin_count), f"L({m}) exact"
    else:
        log_l, l_src = vdw_latin_lower_log(m).value, f"L({m}) vdW bound"
    if onef_count is not None:
        log_f, f_src = math.log(onef_count) if onef_count > 0 else 0.0, f"F({m}) exact"
    elif m == 2:
        log_f, f_src = 0.0, "F(2) = 1"
    elif m % 4 == 0:
        sub = cameron_lower_log(m)
        log_f, f_src = sub.value, f"F({m}) recursive [{sub.note}]"
    else:
        log_f, f_src = 0.0, f"F({m}) >= 1 trivial"
    return LogScalar(log_l + 2.0 * log_f, note=f"{l_src}; {f_src}")


def conjectured_rate_log(n: int, k: int) -> LogScalar:
    """log of (n/e^2)^(n^2/k) with the vanishing correction dropped."""
    if k not in (6, 2, 1):
        raise BadKError(f"k must be 6, 2 or 1, got {k}")
    if n < 1:
        raise DesignError(f"n must be >= 1, got {n}")
    return LogScalar((n * n / float(k)) * (math.log(n) - 2.0))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

BOUND_NAMES = (
    "wilson-lower", "wilson-upper", "kahn-lovasz", "peel",
    "vdw-latin-lower", "cameron-lower",
    "conjecture-6", "conjecture-2", "conjecture-1",
)
MAX_SUMMED_N = 10**7   # for the bounds that sum up to n log terms


@dataclass(frozen=True)
class BoundReport:
    n: int
    bounds: dict[str, LogScalar]
    notes: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "bounds": {name: ls.value for name, ls in self.bounds.items()},
            "notes": self.notes,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "n", "log-value", "magnitude"])
        for name, ls in self.bounds.items():
            w.writerow([name, self.n, repr(ls.value), ls.magnitude()])
        return buf.getvalue()


def bound_report(n: int, names=None, latin_count: int | None = None,
                 onef_count: int | None = None) -> BoundReport:
    """Evaluate the named bounds at n (all of them by default).

    ``latin_count``/``onef_count`` are optional exact counts of L(n/2)
    and unordered F(n/2) feeding the recursive lower bound.
    """
    names = list(names) if names is not None else list(BOUND_NAMES)
    if abs(n) >= 10**150:   # n^2 log n, a float in every bound, must stay finite
        raise DesignError("|n| must be below 10^150")
    summed = [x for x in names if x in ("kahn-lovasz", "peel", "vdw-latin-lower",
                                        "cameron-lower")]
    if summed and n > MAX_SUMMED_N:
        raise DesignError(f"{summed[0]} sums up to n log terms; n must be <= 10^7, got {n}")
    bounds: dict[str, LogScalar] = {}
    for name in names:
        if name == "wilson-lower":
            bounds[name] = wilson_bounds(n)[0]
        elif name == "wilson-upper":
            bounds[name] = wilson_bounds(n)[1]
        elif name == "kahn-lovasz":
            if n < 2:   # K_n for n < 2 has no edges, so no degree sequence
                raise DesignError(f"n must be >= 2, got {n}")
            # n equal degrees n-1: their fsum is n times one term
            bounds[name] = LogScalar(n * kahn_lovasz_log([n - 1]).value,
                                     note="complete-graph degree sequence")
        elif name == "peel":
            bounds[name] = peel_bound_log(n)
        elif name == "vdw-latin-lower":
            bounds[name] = vdw_latin_lower_log(n)
        elif name == "cameron-lower":
            bounds[name] = cameron_lower_log(n, latin_count=latin_count, onef_count=onef_count)
        elif name in BOUND_NAMES:   # conjecture-6, conjecture-2 or conjecture-1
            bounds[name] = conjectured_rate_log(n, int(name.removeprefix("conjecture-")))
        else:
            raise UnknownBoundError(f"unknown bound {name!r}")
    return BoundReport(n=n, bounds=bounds,
                       notes={name: ls.note for name, ls in bounds.items() if ls.note})
