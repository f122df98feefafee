"""Exact and Monte-Carlo verification of the reveal-process laws.

Each verifier compares a closed-form conditional law against a full
enumeration (exact mode: arbitrary-precision rationals, zero tolerance)
or against sampled frequencies (mc mode: estimate with a standard
error, pass within 5 standard errors, for a mean at least the
Bhatia-Davis bound over the values seen: `_passed`).  Both modes run
the same code, and the M and N of a pair are read by `rates.pair_values`
from the reveal kernel (`reveal.py` stays the literal oracle).  mc mode
feeds it seeded uniform draws, exact mode every order; M and N depend
only on the vertices before the anchor and the star elements before
the pair, so for them exact mode feeds one order per such set,
weighted by the number of orders it stands for.

The M and N laws draw their orders once, for all the pairs of an
exp-m suite and for each vertex order of an n-law suite, and make one
kernel pass over each batch of them: the pass reads every pair at once
and buckets its M or N by the anchor's position p or q.
`verify_M_expectation` and `verify_N_law` are the same evaluator
restricted to one pair and one p or q.

The laws checked, with the conditioning event in brackets:

* position law, edge-coloring variant [i before j]:
  Pr(i in position p) = 2(n-p) / (n(n-1));
* position law, triple-system variant [i before j and k]:
  Pr(i in position p) = 3(n-p)(n-p-1) / (n(n-1)(n-2));
* star position law [{i,j} before {i,k}]:
  Pr({i,j} in position q of the m-edge star) = 2(m-q) / (m(m-1));
* expected M, edge-coloring variant [p, i before j]: the widely printed
  closed form 1 + (n-p-1)(n-p-2)/(n-1) disagrees with a direct
  rederivation giving denominator n-3; both are evaluated against the
  enumeration and the discrepancy is reported rather than decided on
  paper (`exp-m` is the measured form, `exp-m[printed]` informational);
* expected M, triple-system variant [p, informative reveal]:
  1 + (n-p-2)(n-p-3)(n-p-4) / ((n-4)(n-5));
* N given M (edge-coloring): uniform on {1..M} over the star orders;
* expected N (triple-system) [q, informative, M = l]:
  1 + (l-1) (m-q-1)(m-q-2) / ((m-2)(m-3)).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..core import DesignError, EdgeColoring, TripleSystem
from ..enumeration import first_design
from .rates import BLOCK_SIZE, _mask_dtype, all_orders, pair_values
from .reveal import EmptyConditionError, TooLargeError, sample_reveal_order

MAX_EXACT_N = 7        # items whose orders the exact position laws enumerate
MAX_EXACT_SETS = 5040  # sets one exact exp-m or n-law call enumerates
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class LemmaVerdict:
    """One law instance checked at one conditioning value."""

    lemma: str
    variant: str
    n: int
    conditioning: dict
    formula: Fraction | None
    observed: Fraction | float
    se: float | None           # None in exact mode
    passed: bool
    samples: int               # enumeration size or sample count
    note: str = ""
    informational: bool = False


def verdicts_to_csv(verdicts) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["lemma", "variant", "n", "conditioning", "formula-num",
                "formula-den", "observed-num", "observed-den", "se", "pass"])
    for v in verdicts:
        cond = ";".join(f"{k}={val}" for k, val in sorted(v.conditioning.items()))
        fnum, fden = (v.formula.numerator, v.formula.denominator) if v.formula is not None else ("", "")
        if isinstance(v.observed, Fraction):
            onum, oden = v.observed.numerator, v.observed.denominator
        else:
            onum, oden = repr(v.observed), ""
        w.writerow([v.lemma, v.variant, v.n, cond, fnum, fden, onum, oden,
                    "" if v.se is None else repr(v.se), v.passed])
    return buf.getvalue()


def verdicts_to_json(verdicts) -> str:
    docs = []
    for v in verdicts:
        docs.append({
            "lemma": v.lemma, "variant": v.variant, "n": v.n,
            "conditioning": dict(sorted(v.conditioning.items())),
            "formula": None if v.formula is None
                       else [v.formula.numerator, v.formula.denominator],
            "observed": ([v.observed.numerator, v.observed.denominator]
                         if isinstance(v.observed, Fraction) else v.observed),
            "se": v.se, "pass": v.passed, "samples": v.samples,
            "note": v.note, "informational": v.informational,
        })
    return json.dumps(docs, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Orders, reveal values and reducers shared by every law and both modes
# ---------------------------------------------------------------------------

def _orders(m: int, mode: str, samples: int, seed: int):
    """Batches of permutations of 0..m-1, one order per row.

    Exact mode yields all m! orders in one batch, in lexicographic order
    (`rates.all_orders`, int8; callers gate m); mc mode yields
    ``samples`` uniform orders drawn from ``seed``, ``BLOCK_SIZE`` rows at
    a time, shuffled in place in int64 (numpy's fast path): the orders and
    stream state of one ``rng.permutation(m)`` per sample, in any batches.
    """
    if mode == "exact":
        yield all_orders(m)
        return
    if samples < 2:
        raise DesignError(f"mc mode needs at least 2 samples, got {samples}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for start in range(0, samples, BLOCK_SIZE):
        perms = np.tile(np.arange(m), (min(BLOCK_SIZE, samples - start), 1))
        yield rng.permuted(perms, axis=1, out=perms)


def _positions(perms):
    """``np.argsort(perms, axis=1)`` of orders of 0..m-1, ``pos[r, a]`` the
    position of a in ``perms[r]``, in the narrowest unsigned type: one flat
    scatter, O(m) a row, at r*m + perms[r, c] (intp, cast first: a mixed
    add is slow).  Callers widen only the positions they compute with."""
    rows, m = perms.shape
    pos = np.empty((rows, m), np.min_scalar_type(m))
    at = perms.astype(np.intp, copy=False) + np.arange(0, rows * m, m)[:, None]
    pos.ravel()[at] = np.arange(m, dtype=pos.dtype)
    return pos


def _anchored(m: int, targets, sizes, mode: str, samples: int, seed: int):
    """Batches ``(perms, rows, t, s, weight)`` of orders of 0..m-1 and of
    reads in them.

    Read r is target ``targets[t[r]]`` = (head, avoid) in the order
    ``perms[rows[r]]``, which puts head at position s[r], one of ``sizes``,
    before every item in avoid, and stands for ``weight[s[r]]`` orders.
    Exact mode is one batch holding, for each target, one order per set
    of s items before head, drawn from those outside avoid: the set, head
    and the rest, each ascending; mc mode reads every target in each
    batch of the draws (`_orders`), each weighing 1; `_positions` and a
    table of ``sizes`` find the reads.
    """
    sizes = [s for s in sizes if 0 <= s < m]
    if mode == "exact":
        orders, owner = [], []
        for t, (head, avoid) in enumerate(targets):
            free = [x for x in range(m) if x != head and x not in avoid]
            _gate(mode, sum(math.comb(m - 1 - len(avoid), s) for s in sizes), MAX_EXACT_SETS, "sets")
            for first in itertools.chain(*(itertools.combinations(free, s) for s in sizes)):
                orders.append([*first, head, *sorted(set(range(m)) - {head, *first})])
                owner.append(t)
        # alike for every target: head at s weighs s!(m-1-s)!
        weight = [math.factorial(s) * math.factorial(m - 1 - s) for s in range(m)]
        batches = [(np.array(orders, np.int64).reshape(len(owner), m), np.array(owner, np.intp),
                    weight)]
    else:
        batches = ((perms, None, [1] * m) for perms in _orders(m, mode, samples, seed))
    heads = np.array([head for head, _ in targets], np.intp)
    listed = np.isin(np.arange(m), sizes)   # listed[s]: s is in sizes
    for perms, owner, weight in batches:
        pos = _positions(perms)   # pos[r, a]: position of item a
        reads = []
        for t, (head, avoid) in enumerate(targets):
            keep = (pos[:, avoid] > pos[:, [head]]).all(axis=1) & listed[pos[:, head]]
            if owner is not None:
                keep &= owner == t
            reads.append(np.flatnonzero(keep))
        t = np.repeat(np.arange(len(targets)), [len(r) for r in reads])
        rows = np.concatenate(reads)
        used, rows = np.unique(rows, return_inverse=True)
        yield perms[used], rows, t, pos[used[rows], heads[t]].astype(np.intp), weight


def _gate(mode: str, size: int, limit: int, what: str) -> None:
    if mode == "exact" and size > limit:
        raise TooLargeError(f"exact mode gated at {what} <= {limit}, got {size}")


def _pair_counts(variant: str, X, targets, sizes, mode: str, samples: int, seed: int,
                 vo=None, p=None):
    """Counts of M, or of N, by target, position of its head and value.

    Each target (j, head, avoid) reads the pair (i, j) in the orders of
    `_anchored` that put head at a position s in ``sizes``: without
    ``vo`` they are vertex orders (head = i-1) and the read is M at step
    s; with it they order the forward star of i = vo[p], and the read is
    N.  One kernel pass per batch serves every target.  Returns
    ``counts[t, s, value]`` as Python ints, each read weighted by the
    orders it stands for.
    """
    n, tables = X.n, np.array([X.table])
    m = n if vo is None else n - 1 - p
    js = np.array([j for j, _, _ in targets], np.intp)
    counts = np.zeros((len(targets), m, n + 1), object)
    for perms, rows, t, s, weight in _anchored(m, [(h, a) for _, h, a in targets], sizes,
                                       mode, samples, seed):
        # vertex orders read at s, or i's star in the order perms read at p
        # (step p reads no later vertex's star)
        orders = perms + 1 if vo is None else np.hstack(
            [np.tile(vo[:p + 1], (len(perms), 1)), vo[p + 1:][perms]])
        to = _positions(orders - 1)[rows, js[t] - 1].astype(np.intp)   # where j is in each read
        values = pair_values(variant, tables, 0, orders, s if vo is None else p, to,
                             rows)[0 if vo is None else 1]
        hits = np.bincount(np.ravel_multi_index((t, s, values), counts.shape),
                           minlength=counts.size).reshape(counts.shape)
        counts += hits.astype(object) * np.array(weight, object)[:, None]
    return counts


def _share(count: int, total: int, exact: bool):
    """Frequency count/total: a Fraction, or an estimate and its binomial SE (0 at 0 or total)."""
    if exact:
        return Fraction(count, total), None
    est = count / total
    return est, math.sqrt(est * (1 - est) / total)


def _mean(counts, exact: bool, cond: dict):
    """Mean of a value given its counts (``counts[v]`` orders have value v),
    with the number of orders.

    Exact mode gives a Fraction; mc mode a float and its standard error.
    Both come from the integer moments (count, sum, sum of squares): the
    MC squared SE, m2 / (count - 1) / count, is one int division, rounded once.
    """
    count = sum(counts)
    total = sum(v * c for v, c in enumerate(counts))
    squares = sum(v * v * c for v, c in enumerate(counts))
    if count == 0:
        where = ", ".join(f"{k}={v}" for k, v in sorted(cond.items()))
        raise EmptyConditionError(f"no {'' if exact else 'sampled '}order satisfies {where}")
    if exact:
        return Fraction(total, count), None, count
    se = (math.sqrt((count * squares - total * total) / (count * count * (count - 1)))
          if count > 1 else math.inf)
    return total / count, se, count


def _passed(observed, formula: Fraction, se: float | None, counts=(), total: int = 0) -> bool:
    """Whether ``observed`` is the formula (exact mode) or within
    ``MC_SIGMAS`` standard errors of it (mc mode).

    For a mean with its ``counts``, the SE gated on is at least
    sqrt((mu - lo)(hi - mu) / count): the Bhatia-Davis bound on the
    variance at the formula's mean mu over the values lo..hi seen, when
    mu lies between them.  A two-valued N drawn low has a small sample SE
    as well as a low mean, so at ~100 samples 5 sample SEs fail a true
    law about once in 10^4; the reported SE stays the sample's.  A share
    of ``total`` draws gates on lo, hi = 0, 1, seen or not.
    """
    if se is None:
        return observed == formula
    mu = float(formula)
    seen = [v for v, c in enumerate(counts) if c]
    if seen and seen[0] <= mu <= seen[-1]:
        se = max(se, math.sqrt((mu - seen[0]) * (seen[-1] - mu) / sum(counts)))
    if total:
        se = max(se, math.sqrt(mu * (1 - mu) / total))
    return abs(observed - mu) <= MC_SIGMAS * se + 1e-12


# ---------------------------------------------------------------------------
# Position laws
# ---------------------------------------------------------------------------

def verify_position_law(variant: str, n: int, mode: str = "exact",
                        samples: int = 100_000, seed: int = 0,
                        law: str = "vertex") -> list[LemmaVerdict]:
    """Check the conditional position distribution, per position value.

    law="vertex": the anchor vertex's position given that it precedes
    the one (edge-coloring variant) or two (triple-system variant)
    distinguished vertices; exact mode enumerates all n! orders and
    checks every ordered pair/triple separately.  law="q" (triple
    systems): the star position of {i,j} given it precedes {i,k}, where
    n is read as the star size m.  More points than a reveal reads
    (`rates._mask_dtype`) raise `TooLargeError` before any order is drawn.
    """
    if law == "q":
        if variant != "sts":
            raise DesignError("the star position law applies to the sts variant")
        _gate(mode, n, MAX_EXACT_N, "m")
        try:   # an m-edge star is a point's on m + 1 points
            _mask_dtype(variant, n + 1)
        except TooLargeError as e:
            raise TooLargeError(f"star size m={n} needs {n + 1} points; {e}") from None
        return _position_verdicts("q-law", variant, n, "q", 2, False, mode, samples, seed)
    if variant not in ("1f", "sts"):
        raise DesignError(f"unknown variant {variant!r}")
    _gate(mode, n, MAX_EXACT_N, "n")
    _mask_dtype(variant, n)
    lemma, size = ("dist-p", 2) if variant == "1f" else ("dist-p-2", 3)
    return _position_verdicts(lemma, variant, n, "p", size, True, mode, samples, seed)


def _position_verdicts(lemma, variant, n, key, size, all_tuples, mode, samples, seed):
    """Position of item a among n ordered items, given that a precedes
    the other items of its anchor tuple (a, ...) of ``size`` items; the
    law is Pr(position p) = C(n-p, size-1) / C(n, size).

    The tuple is (0, 1, ...); with ``all_tuples`` exact mode pools every
    ordered tuple, and each tuple's histogram must equal the first one.
    Each batch of orders gathers the positions (`_positions`, uint8) of every
    anchor tuple at once; one comparison and one bincount, offset by tuple, count them.
    """
    if n < size:
        raise EmptyConditionError(f"size {n} leaves no position {key} to check")
    exact = mode == "exact"
    anchors, note = [tuple(range(size))], ""
    if exact and all_tuples:
        anchors, note = list(itertools.permutations(range(n), size)), "all anchor tuples checked"
    hist = np.zeros(len(anchors) * n, dtype=np.int64)
    offset = np.arange(0, len(hist), n, dtype=np.int32)   # row t of hist
    orders = 0
    for perms in _orders(n, mode, samples, seed):
        at = _positions(perms)[:, anchors]   # at[r, t, c]: item c of anchor t in order r
        orders += len(perms)
        first = (at[:, :, :1] < at[:, :, 1:]).all(axis=2)
        hist += np.bincount((offset + at[:, :, 0])[first], minlength=len(hist))
    hist = hist.reshape(len(anchors), n)
    total = int(hist.sum())
    if total == 0:
        raise EmptyConditionError(f"no sampled order puts item 0 first among {size}")
    uniform = bool((hist == hist[0]).all())
    counts = hist.sum(axis=0)
    out = []
    for p in range(1, n - size + 2):
        observed, se = _share(int(counts[p - 1]), total, exact)
        formula = Fraction(math.comb(n - p, size - 1), math.comb(n, size))
        out.append(LemmaVerdict(lemma, variant, n, {key: p}, formula, observed, se,
                                passed=uniform and _passed(observed, formula, se, total=total),
                                samples=orders if exact else total, note=note))
    return out


# ---------------------------------------------------------------------------
# Expected M given the anchor position
# ---------------------------------------------------------------------------

def verify_M_expectation(variant: str, X: EdgeColoring | TripleSystem,
                         i: int, j: int, p: int, mode: str = "exact",
                         samples: int = 100_000, seed: int = 0) -> list[LemmaVerdict]:
    """Check E[M | anchor at position p, conditioning event] for one pair.

    Edge-coloring variant: returns the measured verdict against the
    rederived closed form 1 + (n-p-1)(n-p-2)/(n-3) plus an
    informational verdict for the printed form with denominator n-1.
    Triple-system variant: single verdict against
    1 + (n-p-2)(n-p-3)(n-p-4)/((n-4)(n-5)).
    """
    return _m_verdicts(variant, X, [(i, j)], [p], mode, samples, seed)


def _m_verdicts(variant, X, pairs, positions, mode, samples, seed):
    """`verify_M_expectation` for every pair and position: one draw and
    one kernel pass serve them all."""
    n = X.n
    if not positions:
        return []
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise DesignError(f"pair ({i}, {j}) outside 1..{n}")
    if variant == "1f":
        if not isinstance(X, EdgeColoring):
            raise DesignError("1f variant needs an EdgeColoring")
        anchors = list(pairs)
    elif variant == "sts":
        if not isinstance(X, TripleSystem):
            raise DesignError("sts variant needs a TripleSystem")
        anchors = [(i, j, X.table[i][j]) for i, j in pairs]
    else:
        raise DesignError(f"unknown variant {variant!r}")

    # M is a function of the p-1 vertices before i
    targets = [(a[1], a[0] - 1, [x - 1 for x in a[1:]]) for a in anchors]
    counts = _pair_counts(variant, X, targets, [p - 1 for p in positions],
                          mode, samples, seed)
    out = []
    for t, (i, j) in enumerate(pairs):
        for p in positions:
            if variant == "1f":
                num = (n - p - 1) * (n - p - 2)
                formula, printed = 1 + Fraction(num, n - 3), 1 + Fraction(num, n - 1)
            else:
                formula = 1 + Fraction((n - p - 2) * (n - p - 3) * (n - p - 4),
                                       (n - 4) * (n - 5))
                printed = None
            cond_keys = {"p": p, "i": i, "j": j}
            cell = counts[t, p - 1] if 1 <= p <= n else ()
            observed, se, count = _mean(cell, mode == "exact", cond_keys)
            out.append(LemmaVerdict("exp-m" if variant == "1f" else "exp-m-2", variant, n,
                                    cond_keys, formula, observed, se,
                                    passed=_passed(observed, formula, se, cell), samples=count))
            if printed is not None:
                out.append(LemmaVerdict(
                    "exp-m[printed]", variant, n, cond_keys, printed, observed, se,
                    passed=_passed(observed, printed, se, cell), samples=count,
                    informational=True, note="printed denominator n-1; measured form uses n-3"))
    return out


# ---------------------------------------------------------------------------
# N laws
# ---------------------------------------------------------------------------

def verify_N_law(variant: str, X: EdgeColoring | TripleSystem,
                 vertex_order, i: int, j: int, q: int | None = None,
                 mode: str = "exact", samples: int = 100_000,
                 seed: int = 0) -> list[LemmaVerdict]:
    """Check the law of N over the orderings of i's forward star.

    Edge-coloring variant (q ignored): with the vertex order fixed and
    i before j, N is uniform on {1..M}; one verdict per value v.
    Triple-system variant: with the vertex order fixed (so M = l) and
    {i,j} at star position q before {i,k},
    E[N] = 1 + (l-1)(m-q-1)(m-q-2)/((m-2)(m-3)); single verdict.
    """
    vo = tuple(vertex_order)
    if vo.index(i) >= vo.index(j):
        raise EmptyConditionError(f"{i} must precede {j} in the vertex order")
    if variant == "sts" and q is None:
        raise DesignError("triple-system N law needs the star position q")
    return _n_verdicts(variant, X, vo, i, [(j, q)], mode, samples, seed)


def _n_verdicts(variant, X, vo, i, cases, mode, samples, seed):
    """`verify_N_law` for each (j, q) of ``cases`` with i's star in one
    vertex order: one draw and one kernel pass serve them all."""
    if variant not in ("1f", "sts"):
        raise DesignError(f"unknown variant {variant!r}")
    n, p = X.n, vo.index(i)
    m = n - 1 - p
    js = list(dict.fromkeys(j for j, _ in cases))
    # M of each (i, j) in vo, which the order of i's star leaves unchanged
    M = dict(zip(js, pair_values(variant, np.array([X.table]), 0, np.array([vo]), p,
                                 list(map(vo.index, js)), np.zeros(len(js), np.intp))[0].tolist()))
    formulas = []
    for j, q in cases if variant == "sts" else ():
        k = X.table[i][j]
        if vo.index(k) <= p:
            raise EmptyConditionError(f"the third point {k} must follow {i}")
        if not 1 <= q <= m - 1:
            raise EmptyConditionError(f"position q={q} cannot precede the companion edge")
        l = M[j]
        formulas.append(Fraction(1) if l == 1 else
                        1 + Fraction((m - q - 1) * (m - q - 2), (m - 2) * (m - 3)) * (l - 1))
    # j at star position q before the third point k (sts), anywhere (1f)
    targets = [(j, vo.index(j) - p - 1,
                [] if variant == "1f" else [vo.index(X.table[i][j]) - p - 1]) for j in js]
    sizes = range(m) if variant == "1f" else sorted({q - 1 for _, q in cases})
    counts = _pair_counts(variant, X, targets, sizes, mode, samples, seed, np.array(vo), p)
    exact = mode == "exact"
    out = []
    for c, (j, q) in enumerate(cases):
        t = js.index(j)
        if variant == "sts":
            cond = {"i": i, "j": j, "q": q, "l": M[j], "m": m}
            cell = counts[t, q - 1]
            observed, se, count = _mean(cell, exact, cond)
            out.append(LemmaVerdict("n-law", "sts", n, cond, formulas[c], observed, se,
                                    passed=_passed(observed, formulas[c], se, cell), samples=count))
            continue
        hist = counts[t].sum(axis=0)
        total = int(hist.sum())
        stray = total - int(hist[1:M[j] + 1].sum())
        for v in range(1, M[j] + 1):
            observed, se = _share(int(hist[v]), total, exact)
            out.append(LemmaVerdict(
                "n-law", "1f", n, {"i": i, "j": j, "v": v, "M": M[j]},
                Fraction(1, M[j]), observed, se, samples=total,
                passed=stray == 0 and _passed(observed, Fraction(1, M[j]), se, total=total)))
    return out


# ---------------------------------------------------------------------------
# CLI-facing suites
# ---------------------------------------------------------------------------

def _default_design(variant: str, n: int):
    X = first_design("sts" if variant == "sts" else "1f-labeled", n)
    if X is None:
        raise DesignError(f"no {variant} design exists on {n} points")
    return X


def verify_suite(lemma: str, variant: str, n: int, mode: str = "exact",
                 samples: int = 100_000, seed: int = 0) -> list[LemmaVerdict]:
    """Run one named law across its whole conditioning range.

    Design-dependent laws use the first enumerated design and a small
    seeded selection of pairs/orders; seeding makes every run
    reproducible.
    """
    if lemma in ("dist-p", "dist-p-2"):
        want = "1f" if lemma == "dist-p" else "sts"
        if variant != want:
            raise DesignError(f"{lemma} is the {want} position law")
        return verify_position_law(want, n, mode, samples, seed)
    if lemma == "q-law":
        return verify_position_law(variant, n, mode, samples, seed, law="q")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = []
    if lemma in ("exp-m", "exp-m-2"):
        want = "1f" if lemma == "exp-m" else "sts"
        if variant != want:
            raise DesignError(f"{lemma} applies to the {want} variant")
        X = _default_design(variant, n)
        pairs = [(1, 2)]
        while len(pairs) < min(3, n * (n - 1)):
            i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            if (i, j) not in pairs:
                pairs.append((i, j))
        p_max = n - 1 if variant == "1f" else n - 2
        out = _m_verdicts(variant, X, pairs, range(1, p_max + 1), mode, samples, seed)
    elif lemma == "n-law":
        X = _default_design(variant, n)
        for case in range(2):
            vo = sample_reveal_order(n, rng=rng).vertex_order
            # i = vo[0] leads, so every third point k follows it
            i, m = vo[0], n - 1
            cases = [(j, q) for j in vo[1:] for q in ([None] if variant == "1f" else range(1, m))]
            out += _n_verdicts(variant, X, vo, i, cases, mode, samples, seed + case)
    else:
        raise DesignError(f"unknown lemma {lemma!r}")
    if not out:
        raise EmptyConditionError(f"no checkable case for {lemma} at n={n}")
    return out
