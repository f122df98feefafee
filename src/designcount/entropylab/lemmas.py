"""Exact and Monte-Carlo verification of the reveal-process laws.

Each verifier compares a closed-form conditional law against a full
enumeration (exact mode: arbitrary-precision rationals, zero tolerance)
or against sampled frequencies (mc mode: estimate with a standard
error, pass within 5 standard errors).

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
from ..enumeration import enumerate_pool
from .reveal import EmptyConditionError, TooLargeError, sample_reveal_order

MAX_EXACT_N = 7     # vertex orders enumerable in exact mode
MAX_EXACT_STAR = 7  # star orders enumerable in exact mode
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
# Cached position arrays for full vertex-order enumeration
# ---------------------------------------------------------------------------

_POS_CACHE: dict[int, np.ndarray] = {}


def _all_positions(n: int) -> np.ndarray:
    """(n!, n) int8 array: row r, column v-1 = position of vertex v."""
    if n not in _POS_CACHE:
        if n > MAX_EXACT_N:
            raise TooLargeError(f"exact mode gated at n <= {MAX_EXACT_N}, got {n}")
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        pos = np.empty_like(perms)
        rows = np.arange(perms.shape[0])[:, None]
        pos[rows, perms] = np.arange(n, dtype=np.int8)[None, :]
        _POS_CACHE[n] = pos
    return _POS_CACHE[n]


def _binomial_pass(est: float, target: float, se: float) -> bool:
    return abs(est - target) <= MC_SIGMAS * se + 1e-12


# ---------------------------------------------------------------------------
# Position laws
# ---------------------------------------------------------------------------

def _position_formula(variant: str, n: int, p: int) -> Fraction:
    if variant == "1f":
        return Fraction(2 * (n - p), n * (n - 1))
    return Fraction(3 * (n - p) * (n - p - 1), n * (n - 1) * (n - 2))


def verify_position_law(variant: str, n: int, mode: str = "exact",
                        samples: int = 100_000, seed: int = 0,
                        law: str = "vertex") -> list[LemmaVerdict]:
    """Check the conditional position distribution, per position value.

    law="vertex": the anchor vertex's position given that it precedes
    the one (edge-coloring variant) or two (triple-system variant)
    distinguished vertices; exact mode enumerates all n! orders and
    checks every ordered pair/triple separately.  law="q" (triple
    systems): the star position of {i,j} given it precedes {i,k}, where
    n is read as the star size m.
    """
    if law == "q":
        return _verify_q_law(variant, n, mode, samples, seed)
    if variant not in ("1f", "sts"):
        raise DesignError(f"unknown variant {variant!r}")
    lemma = "dist-p" if variant == "1f" else "dist-p-2"
    p_max = n - 1 if variant == "1f" else n - 2

    if mode == "exact":
        pos = _all_positions(n)
        nperm = pos.shape[0]
        agg = np.zeros(n, dtype=np.int64)
        total = 0
        uniform = True
        reference: np.ndarray | None = None
        anchors = (itertools.permutations(range(n), 2) if variant == "1f"
                   else itertools.permutations(range(n), 3))
        for tup in anchors:
            i = tup[0]
            cond = np.ones(nperm, dtype=bool)
            for other in tup[1:]:
                cond &= pos[:, i] < pos[:, other]
            hist = np.bincount(pos[cond, i], minlength=n)
            if reference is None:
                reference = hist
            elif not np.array_equal(hist, reference):
                uniform = False
            agg += hist
            total += int(cond.sum())
        out = []
        for p in range(1, p_max + 1):
            obs = Fraction(int(agg[p - 1]), total)
            formula = _position_formula(variant, n, p)
            out.append(LemmaVerdict(
                lemma, variant, n, {"p": p}, formula, obs, None,
                passed=uniform and obs == formula, samples=nperm,
                note="all anchor tuples checked"))
        return out

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    anchor = (0, 1) if variant == "1f" else (0, 1, 2)
    counts = np.zeros(n, dtype=np.int64)
    total = 0
    for _ in range(samples):
        perm = rng.permutation(n)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        if all(pos[anchor[0]] < pos[o] for o in anchor[1:]):
            counts[pos[anchor[0]]] += 1
            total += 1
    out = []
    for p in range(1, p_max + 1):
        est = float(counts[p - 1] / total)
        se = math.sqrt(max(est * (1 - est), 1e-300) / total)
        formula = _position_formula(variant, n, p)
        out.append(LemmaVerdict(lemma, variant, n, {"p": p}, formula, est, se,
                                passed=_binomial_pass(est, float(formula), se),
                                samples=total))
    return out


def _verify_q_law(variant: str, m: int, mode: str, samples: int,
                  seed: int) -> list[LemmaVerdict]:
    if variant != "sts":
        raise DesignError("the star position law applies to the sts variant")
    if m < 2:
        raise EmptyConditionError(f"star size {m} leaves no position to check")
    if mode == "exact":
        if m > MAX_EXACT_STAR:
            raise TooLargeError(f"exact mode gated at m <= {MAX_EXACT_STAR}, got {m}")
        counts = [0] * (m + 1)
        total = 0
        for perm in itertools.permutations(range(m)):
            rj, rk = perm.index(0), perm.index(1)   # item 0 = {i,j}, item 1 = {i,k}
            if rj < rk:
                counts[rj + 1] += 1
                total += 1
        out = []
        for q in range(1, m):
            obs = Fraction(counts[q], total)
            formula = Fraction(2 * (m - q), m * (m - 1))
            out.append(LemmaVerdict("q-law", variant, m, {"q": q}, formula, obs,
                                    None, passed=obs == formula,
                                    samples=math.factorial(m)))
        return out
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    counts = [0] * (m + 1)
    total = 0
    for _ in range(samples):
        perm = rng.permutation(m)
        rj = int(np.nonzero(perm == 0)[0][0])
        rk = int(np.nonzero(perm == 1)[0][0])
        if rj < rk:
            counts[rj + 1] += 1
            total += 1
    out = []
    for q in range(1, m):
        est = counts[q] / total
        se = math.sqrt(max(est * (1 - est), 1e-300) / total)
        formula = Fraction(2 * (m - q), m * (m - 1))
        out.append(LemmaVerdict("q-law", variant, m, {"q": q}, formula, est, se,
                                passed=_binomial_pass(est, float(formula), se),
                                samples=total))
    return out


# ---------------------------------------------------------------------------
# Expected M given the anchor position
# ---------------------------------------------------------------------------

def _m_values_1f(X: EdgeColoring, i: int, j: int, pos: np.ndarray) -> np.ndarray:
    """M per enumerated order: 1 + #{colors whose two carrier edges at i
    and j both lead to vertices after i}."""
    n = X.n
    s = X.table[i][j]
    at_i = {X.table[i][u]: u for u in range(1, n + 1) if u != i}
    at_j = {X.table[j][u]: u for u in range(1, n + 1) if u != j}
    pi = pos[:, i - 1]
    m = np.ones(pos.shape[0], dtype=np.int64)
    for c in range(1, n):
        if c == s:
            continue
        a, b = at_i[c], at_j[c]
        m += ((pos[:, a - 1] > pi) & (pos[:, b - 1] > pi)).astype(np.int64)
    return m


def _m_values_sts(X: TripleSystem, i: int, j: int, pos: np.ndarray) -> np.ndarray:
    n = X.n
    k = X.table[i][j]
    pi = pos[:, i - 1]
    m = np.ones(pos.shape[0], dtype=np.int64)
    for t in range(1, n + 1):
        if t in (i, j, k):
            continue
        a, b = X.table[i][t], X.table[j][t]
        m += ((pos[:, t - 1] > pi) & (pos[:, a - 1] > pi)
              & (pos[:, b - 1] > pi)).astype(np.int64)
    return m


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
    n = X.n
    if variant == "1f":
        if not isinstance(X, EdgeColoring):
            raise DesignError("1f variant needs an EdgeColoring")
        anchors = (i, j)
        num = (n - p - 1) * (n - p - 2)
        formula = 1 + Fraction(num, n - 3)
        printed = 1 + Fraction(num, n - 1)
    elif variant == "sts":
        if not isinstance(X, TripleSystem):
            raise DesignError("sts variant needs a TripleSystem")
        anchors = (i, j, X.table[i][j])
        formula = 1 + Fraction((n - p - 2) * (n - p - 3) * (n - p - 4),
                               (n - 4) * (n - 5))
        printed = None
    else:
        raise DesignError(f"unknown variant {variant!r}")

    cond_keys = {"p": p, "i": i, "j": j}
    if mode == "exact":
        pos = _all_positions(n)
        cond = pos[:, i - 1] == p - 1
        for other in anchors[1:]:
            cond &= pos[:, i - 1] < pos[:, other - 1]
        count = int(cond.sum())
        if count == 0:
            raise EmptyConditionError(f"no order puts {i} at {p} before {anchors[1:]}")
        mv = _m_values_1f(X, i, j, pos) if variant == "1f" else _m_values_sts(X, i, j, pos)
        observed = Fraction(int(mv[cond].sum()), count)
        out = [LemmaVerdict("exp-m" if variant == "1f" else "exp-m-2", variant, n,
                            cond_keys, formula, observed, None,
                            passed=observed == formula, samples=count)]
        if printed is not None:
            out.append(LemmaVerdict(
                "exp-m[printed]", variant, n, cond_keys, printed, observed, None,
                passed=observed == printed, samples=count, informational=True,
                note="printed denominator n-1; measured form uses n-3"))
        return out

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    acc_n, acc_mean, acc_m2 = 0, 0.0, 0.0
    for _ in range(samples):
        perm = rng.permutation(n)
        pos1 = np.empty(n, dtype=np.int64)
        pos1[perm] = np.arange(n)
        if pos1[i - 1] != p - 1:
            continue
        if any(pos1[i - 1] >= pos1[o - 1] for o in anchors[1:]):
            continue
        mv = _m_values_1f(X, i, j, pos1[None, :]) if variant == "1f" \
            else _m_values_sts(X, i, j, pos1[None, :])
        x = float(mv[0])
        acc_n += 1
        delta = x - acc_mean
        acc_mean += delta / acc_n
        acc_m2 += delta * (x - acc_mean)
    if acc_n == 0:
        raise EmptyConditionError("no sampled order satisfied the conditioning")
    se = math.sqrt(acc_m2 / (acc_n - 1) / acc_n) if acc_n > 1 else float("inf")
    out = [LemmaVerdict("exp-m" if variant == "1f" else "exp-m-2", variant, n,
                        cond_keys, formula, acc_mean, se,
                        passed=_binomial_pass(acc_mean, float(formula), se),
                        samples=acc_n)]
    if printed is not None:
        out.append(LemmaVerdict("exp-m[printed]", variant, n, cond_keys, printed,
                                acc_mean, se,
                                passed=_binomial_pass(acc_mean, float(printed), se),
                                samples=acc_n, informational=True,
                                note="printed denominator n-1; measured form uses n-3"))
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
    n = X.n
    vo = tuple(vertex_order)
    pos = {v: idx for idx, v in enumerate(vo)}
    if pos[i] >= pos[j]:
        raise EmptyConditionError(f"{i} must precede {j} in the vertex order")
    star = tuple(u for u in vo[pos[i] + 1:])
    m = len(star)
    if mode == "exact" and m > MAX_EXACT_STAR:
        raise TooLargeError(f"exact mode gated at star size <= {MAX_EXACT_STAR}, got {m}")

    if variant == "1f":
        return _verify_n_uniform_1f(X, vo, star, i, j, mode, samples, seed)
    if variant == "sts":
        if q is None:
            raise DesignError("triple-system N law needs the star position q")
        return _verify_n_expectation_sts(X, vo, star, i, j, q, mode, samples, seed)
    raise DesignError(f"unknown variant {variant!r}")


def _mset_1f(X: EdgeColoring, vo, i: int, j: int) -> set[int]:
    pos = {v: idx for idx, v in enumerate(vo)}
    ruled = set()
    for t in vo[:pos[i]]:
        ruled.add(X.table[t][i])
        ruled.add(X.table[t][j])
    return set(range(1, X.n)) - ruled


def _verify_n_uniform_1f(X, vo, star, i, j, mode, samples, seed):
    mset = _mset_1f(X, vo, i, j)
    M = len(mset)

    def n_of(perm) -> int:
        ruled = {X.table[i][u] for u in perm[:perm.index(j)]}
        return len(mset - ruled)

    counts = [0] * (M + 2)
    stray = 0
    total = 0
    if mode == "exact":
        for perm in itertools.permutations(star):
            v = n_of(perm)
            total += 1
            if 1 <= v <= M:
                counts[v] += 1
            else:
                stray += 1
        out = []
        for v in range(1, M + 1):
            obs = Fraction(counts[v], total)
            out.append(LemmaVerdict(
                "n-law", "1f", X.n, {"i": i, "j": j, "v": v, "M": M},
                Fraction(1, M), obs, None,
                passed=stray == 0 and obs == Fraction(1, M), samples=total))
        return out
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    arr = list(star)
    for _ in range(samples):
        perm = tuple(arr[t] for t in rng.permutation(len(arr)))
        v = n_of(perm)
        total += 1
        if 1 <= v <= M:
            counts[v] += 1
        else:
            stray += 1
    out = []
    for v in range(1, M + 1):
        est = counts[v] / total
        se = math.sqrt(max(est * (1 - est), 1e-300) / total)
        out.append(LemmaVerdict(
            "n-law", "1f", X.n, {"i": i, "j": j, "v": v, "M": M},
            Fraction(1, M), est, se,
            passed=stray == 0 and _binomial_pass(est, 1.0 / M, se), samples=total))
    return out


def _verify_n_expectation_sts(X, vo, star, i, j, q, mode, samples, seed):
    n = X.n
    pos = {v: idx for idx, v in enumerate(vo)}
    k = X.table[i][j]
    if pos[k] <= pos[i]:
        raise EmptyConditionError(f"the third point {k} must follow {i}")
    m = len(star)
    if not 1 <= q <= m - 1:
        raise EmptyConditionError(f"position q={q} cannot precede the companion edge")
    others = set(range(1, n + 1)) - {i, j}
    # X[j][t] equals i exactly when t is the true third point; "before i"
    # must stay strict, so compare with >= rather than >.
    mset = {t for t in others
            if pos[t] > pos[i] and pos[X.table[i][t]] >= pos[i]
            and pos[X.table[j][t]] >= pos[i]}
    l = len(mset)
    if l > 1 and m < 4:
        raise DesignError(f"the expectation law needs star size >= 4 when l > 1, got m={m}")
    formula = Fraction(1) if l == 1 else \
        1 + Fraction((m - q - 1) * (m - q - 2), (m - 2) * (m - 3)) * (l - 1)

    def n_of(perm: tuple[int, ...]) -> int:
        rank = {u: r for r, u in enumerate(perm)}
        rj = rank[j]
        ruled = {t for t in mset if rank[t] < rj or rank[X.table[i][t]] < rj}
        return l - len(ruled)

    cond = {"i": i, "j": j, "q": q, "l": l, "m": m}
    if mode == "exact":
        total = 0
        acc = 0
        for perm in itertools.permutations(star):
            if perm[q - 1] != j:
                continue
            rank_k = perm.index(k)
            if rank_k < q - 1:
                continue
            total += 1
            acc += n_of(perm)
        if total == 0:
            raise EmptyConditionError("no star order satisfies the conditioning")
        obs = Fraction(acc, total)
        return [LemmaVerdict("n-law", "sts", n, cond, formula, obs, None,
                             passed=obs == formula, samples=total)]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    arr = list(star)
    acc_n, acc_mean, acc_m2 = 0, 0.0, 0.0
    for _ in range(samples):
        perm = tuple(arr[t] for t in rng.permutation(m))
        if perm[q - 1] != j or perm.index(k) < q - 1:
            continue
        x = float(n_of(perm))
        acc_n += 1
        delta = x - acc_mean
        acc_mean += delta / acc_n
        acc_m2 += delta * (x - acc_mean)
    if acc_n == 0:
        raise EmptyConditionError("no sampled star order satisfied the conditioning")
    se = math.sqrt(acc_m2 / (acc_n - 1) / acc_n) if acc_n > 1 else float("inf")
    return [LemmaVerdict("n-law", "sts", n, cond, formula, acc_mean, se,
                         passed=_binomial_pass(acc_mean, float(formula), se),
                         samples=acc_n)]


# ---------------------------------------------------------------------------
# CLI-facing suites
# ---------------------------------------------------------------------------

def _default_design(variant: str, n: int):
    pool = enumerate_pool("sts" if variant == "sts" else "1f-labeled", n)
    if len(pool) == 0:
        raise DesignError(f"no {variant} design exists on {n} points")
    return pool.items[0]


def verify_suite(lemma: str, variant: str, n: int, mode: str = "exact",
                 samples: int = 100_000, seed: int = 0) -> list[LemmaVerdict]:
    """Run one named law across its whole conditioning range.

    Design-dependent laws use the first enumerated design and a small
    seeded selection of pairs/orders; seeding makes every run
    reproducible.
    """
    if lemma == "dist-p":
        if variant != "1f":
            raise DesignError("dist-p is the 1f position law")
        return verify_position_law("1f", n, mode, samples, seed)
    if lemma == "dist-p-2":
        if variant != "sts":
            raise DesignError("dist-p-2 is the sts position law")
        return verify_position_law("sts", n, mode, samples, seed)
    if lemma == "q-law":
        return verify_position_law("sts", n, mode, samples, seed, law="q")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if lemma in ("exp-m", "exp-m-2"):
        want = "1f" if lemma == "exp-m" else "sts"
        if variant != want:
            raise DesignError(f"{lemma} applies to the {want} variant")
        X = _default_design(variant, n)
        pairs = [(1, 2)]
        while len(pairs) < 3:
            i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            if (i, j) not in pairs:
                pairs.append((i, j))
        p_max = n - 1 if variant == "1f" else n - 2
        out = []
        for (i, j) in pairs:
            for p in range(1, p_max + 1):
                out.extend(verify_M_expectation(variant, X, i, j, p, mode,
                                                samples, seed))
        return out

    if lemma == "n-law":
        X = _default_design(variant, n)
        out = []
        for case in range(2):
            order = sample_reveal_order(n, rng=rng)
            vo = order.vertex_order
            if variant == "1f":
                i = vo[0]
                for j in vo[1:]:
                    out.extend(verify_N_law("1f", X, vo, i, j, mode=mode,
                                            samples=samples, seed=seed + case))
            else:
                i = vo[0]
                for j in vo[1:]:
                    k = X.table[i][j]
                    if vo.index(k) <= vo.index(i):
                        continue
                    m = n - 1 - vo.index(i)
                    for q in range(1, m):
                        try:
                            out.extend(verify_N_law("sts", X, vo, i, j, q=q,
                                                    mode=mode, samples=samples,
                                                    seed=seed + case))
                        except EmptyConditionError:
                            continue
        if not out:
            raise EmptyConditionError("no checkable case for the n law")
        return out

    raise DesignError(f"unknown lemma {lemma!r}")
