"""Independent naive oracles used to fix expected values in the tests.

Everything here favors obviousness over speed and shares no code with
the production counters: triple systems by literal pair-cover recursion
over rescanned pair lists, 1-factorizations as sets/sequences of
precomputed perfect matchings, Latin squares by brute force, by reduced
squares times n!(n-1)!, and by a permanent-expansion (Ryser) of the
last two rows.  The order-enumeration entropy oracle reads every reveal
order, with independent star orders, through the literal sets of
reveal.py, not through the reveal kernel.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from designcount.core import validate_edge_coloring
from designcount.entropylab import make_reveal_order, reveal_sets_1f, reveal_sets_sts

FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]

# PG(3,2), an STS(15): the points are the nonzero vectors of GF(2)^4, the lines {a, b, a^b}
PG32 = sorted({tuple(sorted((a, b, a ^ b))) for a in range(1, 16) for b in range(a + 1, 16)})

K4_COLORING = {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): 3, (2, 3): 3}


def round_robin(n):
    """The round-robin 1-factorization of K_n, n even: color c + 1 joins c to
    infinity (n) and c - t to c + t (mod n - 1), with residue r as vertex r + 1."""
    return validate_edge_coloring(n, {
        tuple(sorted(((c - t) % (n - 1) + 1, (c + t) % (n - 1) + 1))) if t else (c + 1, n): c + 1
        for c in range(n - 1) for t in range(n // 2)})


def all_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


# ---------------------------------------------------------------------------
# Steiner triple systems
# ---------------------------------------------------------------------------

def oracle_sts_systems(n):
    """All labeled triple systems on 1..n as frozensets of frozensets."""
    pairs = all_pairs(n)
    found = set()

    def rec(covered, triples):
        uncovered = [p for p in pairs if p not in covered]
        if not uncovered:
            found.add(frozenset(triples))
            return
        i, j = uncovered[0]
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in covered or p2 in covered:
                continue
            rec(covered | {(i, j), p1, p2}, triples + [frozenset((i, j, k))])

    rec(frozenset(), [])
    for system in found:
        assert sts_is_valid(n, system)
    return found


def sts_is_valid(n, triples):
    """Literal check: every pair in exactly one triple."""
    for (i, j) in all_pairs(n):
        hits = [t for t in triples if i in t and j in t]
        if len(hits) != 1:
            return False
    return all(len(t) == 3 and all(1 <= v <= n for v in t) for t in triples)


def oracle_count_sts(n):
    if n % 6 not in (1, 3):
        return 0
    if n == 1:
        return 1
    return len(oracle_sts_systems(n))


# ---------------------------------------------------------------------------
# 1-factorizations
# ---------------------------------------------------------------------------

def perfect_matchings(vertices):
    """All perfect matchings of a vertex list, as frozensets of pairs."""
    vs = sorted(vertices)
    if not vs:
        return [frozenset()]
    if len(vs) % 2:
        return []
    out = []
    v = vs[0]
    for u in vs[1:]:
        rest = [w for w in vs if w not in (v, u)]
        for m in perfect_matchings(rest):
            out.append(m | {(v, u)})
    return out


def oracle_1f_partitions(n):
    """All unordered partitions of E(K_n) into perfect matchings."""
    if n % 2:
        return set()
    matchings = perfect_matchings(range(1, n + 1))
    edges = all_pairs(n)
    found = set()

    def rec(used, chosen):
        remaining = [e for e in edges if e not in used]
        if not remaining:
            found.add(frozenset(chosen))
            return
        e = remaining[0]
        for m in matchings:
            if e in m and not (m & used):
                rec(used | m, chosen + [m])

    rec(frozenset(), [])
    return found


def oracle_count_1f_unordered(n):
    return len(oracle_1f_partitions(n))


def oracle_count_1f_labeled(n):
    """Ordered sequences of disjoint perfect matchings covering E(K_n)."""
    if n % 2:
        return 0
    matchings = perfect_matchings(range(1, n + 1))
    total_edges = n * (n - 1) // 2

    def rec(used, colors_left):
        if colors_left == 0:
            return 1 if len(used) == total_edges else 0
        count = 0
        for m in matchings:
            if not (m & used):
                count += rec(used | m, colors_left - 1)
        return count

    return rec(frozenset(), n - 1)


def oracle_count_1f_labeled_bruteforce(n):
    """Generate-and-test over all color assignments (tiny n only)."""
    edges = all_pairs(n)
    count = 0
    for assignment in itertools.product(range(1, n), repeat=len(edges)):
        colors = dict(zip(edges, assignment))
        ok = True
        for v in range(1, n + 1):
            incident = [c for (i, j), c in colors.items() if v in (i, j)]
            if len(set(incident)) != len(incident):
                ok = False
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Latin squares
# ---------------------------------------------------------------------------

def latin_is_valid(rows):
    n = len(rows)
    want = set(range(1, n + 1))
    return (all(set(r) == want for r in rows)
            and all({rows[i][j] for i in range(n)} == want for j in range(n)))


def oracle_is_latin(rows):
    """Literal definition: square, and every row and column is a permutation of 1..n."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        return False
    want = set(range(1, n + 1))
    for r in rows:
        if set(r) != want:
            return False
    for j in range(n):
        if {rows[i][j] for i in range(n)} != want:
            return False
    return True


def oracle_count_latin_bruteforce(n):
    """All n^(n^2) grids, filtered (n <= 3)."""
    count = 0
    for flat in itertools.product(range(1, n + 1), repeat=n * n):
        rows = [flat[r * n:(r + 1) * n] for r in range(n)]
        if latin_is_valid(rows):
            count += 1
    return count


def _row_extensions(n, rows):
    """Permutations usable as the next row of a partial square."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(all(r[c] != perm[c] for r in rows) for c in range(n)):
            out.append(perm)
    return out


def oracle_count_latin_reduced(n):
    """Reduced squares (first row and column in natural order) scaled up.

    Every Latin square arises from exactly one reduced square by
    permuting symbols and then the last n-1 rows: L(n) = R(n) n! (n-1)!.
    """
    first = tuple(range(1, n + 1))

    def rec(rows):
        r = len(rows)
        if r == n:
            return 1
        count = 0
        for perm in _row_extensions(n, rows):
            if perm[0] == r + 1:      # first column forced to 1..n
                count += rec(rows + [perm])
        return count

    reduced = rec([first])
    fact = 1
    for t in range(2, n + 1):
        fact *= t
    return reduced * fact * (fact // n)


def ryser_permanent(matrix):
    """Permanent by Ryser's inclusion-exclusion formula."""
    m = len(matrix)
    total = 0
    for mask in range(1, 1 << m):
        prod = 1
        for row in matrix:
            s = 0
            for j in range(m):
                if mask >> j & 1:
                    s += row[j]
            prod *= s
            if prod == 0:
                break
        total += (-1) ** (m - bin(mask).count("1")) * prod
    return total


def oracle_count_latin_permanent(n):
    """Row DFS to depth n-2, then a Ryser permanent for the last two rows."""
    if n < 3:
        return oracle_count_latin_bruteforce(n)

    def rec(rows):
        if len(rows) == n - 2:
            avail = [[1 if all(r[c] != s for r in rows) else 0
                      for s in range(1, n + 1)] for c in range(n)]
            return ryser_permanent(avail)
        return sum(rec(rows + [perm]) for perm in _row_extensions(n, rows))

    return sum(rec([first]) for first in itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Reveal-set hand oracle
# ---------------------------------------------------------------------------

def hand_reveal_sets_1f(n, color, vertex_order, star_orders, i, j):
    """Literal transcription of the ruled-out-color definitions.

    color: dict pair->color; star_orders: dict v -> ordered list of
    neighbors u with v before u.  Returns (A, B, Mset, Nset) as sets or
    None when j precedes i.
    """
    pos = {v: p for p, v in enumerate(vertex_order)}
    if pos[j] < pos[i]:
        return None
    col = lambda a, b: color[(min(a, b), max(a, b))]
    A = {col(t, i) for t in vertex_order if pos[t] < pos[i]}
    A |= {col(t, j) for t in vertex_order if pos[t] < pos[i]}
    rank = {u: r for r, u in enumerate(star_orders[i])}
    B = {col(i, k) for k in star_orders[i]
         if pos[i] < pos[k] and rank[k] < rank[j]}
    Mset = set(range(1, n)) - A
    Nset = Mset - B
    return A, B, Mset, Nset


def hand_reveal_sets_sts(n, third, vertex_order, star_orders, i, j):
    """Literal transcription of the ruled-out-vertex definitions.

    third: dict pair->third point.  Returns (F, A, B, Mset, Nset); the
    sets are None when the reveal is forced (F fails).
    """
    pos = {v: p for p, v in enumerate(vertex_order)}
    x = lambda a, b: third[(min(a, b), max(a, b))]
    k = x(i, j)
    rank = {u: r for r, u in enumerate(star_orders[i])}
    F = (pos[i] < pos[j] and pos[i] < pos[k] and rank[j] < rank[k])
    if not F:
        return False, None, None, None, None
    others = [t for t in range(1, n + 1) if t not in (i, j)]
    A = {t for t in others
         if pos[t] < pos[i] or pos[x(i, t)] < pos[i] or pos[x(j, t)] < pos[i]}
    Mset = set(others) - A
    B = {t for t in Mset
         if rank[t] < rank[j] or rank[x(i, t)] < rank[j]}
    Nset = Mset - B
    return True, A, B, Mset, Nset


# ---------------------------------------------------------------------------
# Exact conditional statistics over full enumerations (pure python)
# ---------------------------------------------------------------------------

def exact_position_distribution(n, condition, position_of):
    """Distribution of a statistic over all n! orders passing a filter.

    condition/position_of take a tuple order; returns {value: Fraction}.
    """
    counts: dict[int, int] = {}
    total = 0
    for order in itertools.permutations(range(1, n + 1)):
        if not condition(order):
            continue
        total += 1
        v = position_of(order)
        counts[v] = counts.get(v, 0) + 1
    return {v: Fraction(c, total) for v, c in sorted(counts.items())}


def oracle_entropy_over_orders(variant, designs, n):
    """Mean reveal sum over every design, vertex order and star order.

    The exact estimate by order enumeration with independent star orders:
    designs x n! vertex orders x prod m! star orders, each read pair by pair
    through reveal.py, so only tiny n (1f n=4: 1,728 reveals).
    """
    reveal_sets = reveal_sets_1f if variant == "1f" else reveal_sets_sts
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    logs = []
    for X in designs:
        for vo in itertools.permutations(range(1, n + 1)):
            for stars in itertools.product(*(itertools.permutations(vo[p + 1:])
                                             for p in range(n))):
                order = make_reveal_order(n, vo, dict(zip(vo, stars)))
                logs.extend(math.log(reveal_sets(X, order, i, j).N) for i, j in pairs)
    return math.fsum(logs) * len(pairs) / len(logs)
