"""Exact, deterministic, parallelizable enumeration of the three families.

Every search runs one of two bitmask backtracking kernels with a fixed
branching rule, so the search tree (and therefore the count and the
node total) is identical no matter how the work is split:

* ``_sts_dfs`` (triple systems) extends the lexicographically least
  uncovered pair, branching on its third point, pruned by per-vertex
  coverage bitmasks;
* ``_pair_dfs`` gives each slot pair of a fixed sequence a value whose
  bit is clear in both slots.  A Latin square fills cells in row-major
  order: cell (r, c) is row slot r with column slot n+c, and the values
  are the symbols.  A 1-factorization colors the edges in lexicographic
  order: edge {i, j} is vertex slots i and j, and the values are the
  colors.

Every search is ``_start(kind, n, fixed)``: the full search of its
family with a list of parts already placed (triples, or (slot, slot,
value) for a pair search).  A count runs one list of parts per cycle
type (``_starts``) and adds up each start's leaves times the labeled
designs each of its leaves stands for.  Each start fixes two parts of
every design, the second up to conjugacy:

* triple systems fix point 1's star {1,2,3}, {1,4,5}, ..., {1,n-1,n}
  and point 2's other triples, a perfect matching mu of 4..n, one per
  cycle type l of mu together with point 1's matching there (a
  partition of (n-3)/2 into parts >= 2):
  STS(n) = (n-2)!! x sum over l of m_l T(l), m_l the matchings of type l;
* Latin squares fix row 1 to the identity, row 2 to one derangement
  per cycle type c, and the first column of rows 3..n to the remaining
  symbols in increasing order: L(n) = n!(n-2)! x sum over c of D_c T(c),
  D_c the derangements of n points of type c;
* 1-factorizations fix the color of {1,v} to v-1 and vertex 2's colors
  to one derangement of 3..n per cycle type: the unordered count is
  the sum over c of D_c T(c), and the labeled one (n-1)! times that.

A partial count (node budget hit) is the leaves found over the starts in
order, unscaled; the starts are generated one at a time, so a budgeted
count at large n stops without listing every cycle type.
A pool searches from a count's first part (a star, or a Latin square's
first row and column), expands each leaf by relabelings and sorts them
into the order of the search with no part fixed, which only the tests
run (``_pool_entries``): one array of the designs' ``dumps`` entries,
which ``core.bulk_designs`` checks and builds.  The pool keeps the
designs' cells, which ``pool_to_jsonl`` writes in bulk.
``pool_from_jsonl`` reads such a text back through the same builder; a
design it names as faulty is one line, which is read again alone to
name the fault, and a repeat is named at once.
``first_design`` builds only the first of that fixed search's leaves,
the pool's first item.  The pool and sampling functions import numpy
when they run; the counts use none.

Both kernels stop at a depth ``cut``, where they append ``path`` (the
caller's first entries, then the choices) to ``sink`` (if given) and
count 1.  At the full depth that counts or collects designs; at a
smaller depth the same DFS lists the frontier of subtrees.  ``_count``
runs every count: a parallel run whose search needs more than
``SERIAL_NODES`` nodes cuts each start a fixed number of levels below
its fixed parts, hands the subtrees to ``map_tasks`` (each task is the
start's parts plus its path's, searched by ``_start`` like any other),
and sums the (exact integer) subtree counts in task order, so totals
are schedule independent.  Counts are Python ints: nothing overflows.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from itertools import combinations, permutations

from .core import (
    BulkError,
    CountResult,
    DesignError,
    EdgeColoring,
    LatinSquare,
    TripleSystem,
    _check_n,
    bulk_designs,
    canonical_entries,
    canonical_text,
    dumps,
    lex_ranks,
    loads,
    one_factorization_feasible,
    sts_feasible,
    to_json_dict,
)


class PoolTooLargeError(DesignError):
    """Requested pool lies above its memory gate in ``POOL_GATES``."""


class EmptyPoolError(DesignError):
    """Uniform sampling from an empty pool."""


# Memory gates for full enumeration (largest n whose pool we materialize).
POOL_GATES = {"sts": 9, "1f-labeled": 6, "latin": 5}
_POOL_TYPES = {"sts": TripleSystem, "1f-labeled": EdgeColoring, "latin": LatinSquare}


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for a counting/enumeration run.

    ``jobs`` is the worker budget; ``node_budget`` caps the number of
    branch attempts (a budgeted run executes sequentially so the partial
    count stays deterministic).
    """

    jobs: int = 1
    node_budget: int | None = None


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes to start: at most ``jobs``, ``tasks`` and the CPUs."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def map_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]`` in task order: the package's one worker pool.

    One worker (``worker_count``) runs in this process, so a one-task
    list or a one-CPU host starts no pool.
    """
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor   # only a pool needs it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


@dataclass(frozen=True)
class Pool:
    """A complete, duplicate-free list of validated designs.

    ``cells``, when set, holds the items' values as one int8 array: the
    (N, n, n) Latin squares, or the (N, n+1, n+1) ``table`` of each triple
    system or coloring.  ``pool_to_jsonl`` writes it without reading the
    items, and ``entropy_upper_estimate`` reads the tables.  A pool built,
    or read from text, in bulk sets it; one read line by line or made by
    hand need not.
    """

    kind: str
    n: int
    items: tuple = ()
    cells: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.items)


class _Budget:
    """Mutable node counter shared down one sequential search."""

    __slots__ = ("nodes", "limit", "exhausted")

    def __init__(self, limit: int | None):
        self.nodes = 0
        self.limit = limit
        self.exhausted = False

    def spend(self) -> bool:
        """Count one node; False, and exhausted, once the budget is gone."""
        if self.limit is not None and self.nodes >= self.limit:
            self.exhausted = True
            return False
        self.nodes += 1
        return True


# ---------------------------------------------------------------------------
# The two kernels
# ---------------------------------------------------------------------------

def _sts_dfs(n, above, covered, d, cut, budget, sink, path):
    """Extend a partial triple system of ``d`` triples; count down to ``cut``."""
    if d == cut:
        if sink is not None:
            sink.append(tuple(path))
        return 1
    # below the full depth some pair is still uncovered
    for i in range(1, n):
        free = above[i] & ~covered[i]
        if free:
            break
    j = (free & -free).bit_length() - 1
    bi, bj = 1 << i, 1 << j
    free = above[j] & ~(covered[i] | covered[j])
    total = 0
    while free:
        bk = free & -free
        free ^= bk
        if not budget.spend():
            break
        k = bk.bit_length() - 1
        covered[i] |= bj | bk
        covered[j] |= bi | bk
        covered[k] |= bi | bj
        if sink is not None:
            path.append((i, j, k))
        total += _sts_dfs(n, above, covered, d + 1, cut, budget, sink, path)
        if sink is not None:
            path.pop()
        covered[i] ^= bj | bk
        covered[j] ^= bi | bk
        covered[k] ^= bi | bj
    return total


def _pair_dfs(pairs, full, used, d, cut, budget, sink, path):
    """Give slot pairs ``d`` .. ``cut``-1 each a value bit of ``full``.

    A value is allowed when its bit is clear in both slots of the pair;
    placing it sets the bit in both.
    """
    if d == cut:
        if sink is not None:
            sink.append(tuple(path))
        return 1
    a, b = pairs[d]
    free = full & ~(used[a] | used[b])
    total = 0
    while free:
        bit = free & -free
        free ^= bit
        if not budget.spend():
            break
        used[a] |= bit
        used[b] |= bit
        if sink is not None:
            path.append(bit.bit_length() - 1)
        total += _pair_dfs(pairs, full, used, d + 1, cut, budget, sink, path)
        if sink is not None:
            path.pop()
        used[a] ^= bit
        used[b] ^= bit
    return total


def _cover(covered, i, j, k):
    """Mark the three pairs of triple {i, j, k} covered."""
    covered[i] |= (1 << j) | (1 << k)
    covered[j] |= (1 << i) | (1 << k)
    covered[k] |= (1 << i) | (1 << j)


def _start(kind: str, n: int, fixed=()):
    """The full search of ``kind`` at n with the parts ``fixed`` placed:
    its kernel, fixed arguments, state, depth and full depth.

    kind is one of ``POOL_GATES``.  A triple-system part is a triple; a
    Latin or coloring part (a, b, v) puts value v in both slots a and b,
    and the pairs not fixed keep their order.  Counts run the starts of
    ``_starts`` and pools ``_fixed_leaves``'s; only tests fix no part.
    """
    if kind == "sts":
        above = [((1 << (n + 1)) - 1) & ~((1 << (v + 1)) - 1) for v in range(n + 1)]
        covered = [0] * (n + 1)
        for triple in fixed:
            _cover(covered, *triple)
        return _sts_dfs, (n, above), covered, len(fixed), n * (n - 1) // 6
    if kind == "latin":   # symbol bits 1..n; cell (r, c) is slots r and n+c
        values, used = ((1 << (n + 1)) - 1) & ~1, [0] * (2 * n)
        pairs = [(r, n + c) for r in range(n) for c in range(n)]
    else:                 # color bits 1..n-1; edge {i, j} is slots i and j
        values, used = ((1 << n) - 1) & ~1, [0] * (n + 1)
        pairs = list(combinations(range(1, n + 1), 2))
    for a, b, v in fixed:
        used[a] |= 1 << v
        used[b] |= 1 << v
    taken = {(a, b) for a, b, _ in fixed}
    pairs = [pair for pair in pairs if pair not in taken]
    return _pair_dfs, (pairs, values), used, 0, len(pairs)


def _reduced(n: int) -> tuple:
    """The parts of a reduced Latin square: row 1 and column 1 read 1..n."""
    return (*((0, n + c, c + 1) for c in range(n)), *((r, n, r + 1) for r in range(1, n)))


def _star(kind: str, n: int) -> tuple:
    """Point 1's star {1,2,3}, {1,4,5}, ..., {1,n-1,n}, or vertex 1's with
    {1,v} colored v-1: the first part every such start and pool fixes."""
    if kind == "sts":
        return tuple((1, j, j + 1) for j in range(2, n, 2))
    return tuple((1, v, v - 1) for v in range(2, n + 1))


def _cycle_types(m: int, most: int | None = None):
    """The partitions of m into parts of at least 2 (and at most ``most``),
    each in non-increasing order, the largest first part first: the cycle
    types of the derangements of m points.  m = 0 has one, the empty type
    (sts 3, 1f 2), and m = 1 none.  A generator: there are many at large m."""
    if m == 0:
        yield ()
    for p in range(min(m, most or m), 1, -1):
        for rest in _cycle_types(m - p, p):
            yield (p, *rest)


def _class_size(parts: tuple) -> int:
    """The number of permutations of sum(parts) points with these cycle
    lengths: m! / (prod of the parts * prod of each length's multiplicity!)."""
    return math.factorial(sum(parts)) // math.prod(
        [*parts, *(math.factorial(parts.count(p)) for p in set(parts))])


def _permutation(parts: tuple) -> list:
    """A permutation of 0..sum(parts)-1 with these cycle lengths: each cycle
    shifts a block of consecutive points by one."""
    perm: list = []
    for p in parts:
        perm += [len(perm) + (i + 1) % p for i in range(p)]
    return perm


def _starts(kind: str, n: int):
    """The starts a count runs, one per cycle type c, as ``_start`` parts
    and the labeled designs each leaf stands for; a generator.

    Relabelings that keep a start's first part (point 1's star, row 1,
    vertex 1's star) conjugate its second, so any two second parts of one
    cycle type lie in equally many designs.  The start of type c fixes
    the second part given by ``_permutation(c)``: row 2, vertex 2's
    colors, or for triple systems the matching that joins the second
    point of point 1's t-th pair {2t+4, 2t+5} to the first of its
    pi(t)-th; there are D_c(k) 2^(k - len(c)) such matchings, with k =
    (n-3)/2 and D_c(k) = ``_class_size(c)``.
    """
    if n == 1:   # no row 2 or point 2; 1-factorizations start at n = 2
        yield (_reduced(1) if kind == "latin" else ()), 1
        return
    if kind == "sts":
        k = (n - 3) // 2
        star = _star(kind, n)
        for c in _cycle_types(k):
            second = tuple((2, 5 + 2 * t, 4 + 2 * u) for t, u in enumerate(_permutation(c)))
            yield star + second, math.prod(range(n - 2, 0, -2)) * _class_size(c) << (k - len(c))
    elif kind == "latin":
        for c in _cycle_types(n):
            pi = _permutation(c)
            row = tuple((1, n + j, pi[j] + 1) for j in range(n))
            column = [s for s in range(2, n + 1) if s != pi[0] + 1]   # rows 3..n
            yield (_reduced(n)[:n] + row + tuple((r, n, s) for r, s in enumerate(column, 2)),
                   math.factorial(n) * math.factorial(n - 2) * _class_size(c))
    else:
        star = _star(kind, n)
        for c in _cycle_types(n - 2):   # {2,v} takes {1,u+3}'s color u+2
            yield (star + tuple((2, v, u + 2) for v, u in enumerate(_permutation(c), 3)),
                   math.factorial(n - 1) * _class_size(c))


def _subtree(task):
    """Count one frontier subtree: the search from its fixed parts."""
    kernel, args, state, depth, full_depth = _start(*task)
    budget = _Budget(None)
    count = kernel(*args, state, depth, full_depth, budget, None, None)
    return count, budget.nodes


# Nodes a parallel count searches in this process before it splits, about
# the cost of starting a worker pool: 2^15 nodes take 20-70 ms on a
# 2-vCPU VM
SERIAL_NODES = 1 << 15


def _count(kind: str, n: int, cfg: SearchConfig) -> CountResult:
    """Count from every start of ``_starts``, in this process or split into
    subtrees.

    A parallel count without a node budget first searches here, up to
    ``SERIAL_NODES``, and splits only a search that needs more; the tree
    is the same either way.  A complete count is the sum of each start's
    leaves times its multiplier; a partial one (node budget hit) is the
    leaves found over the starts in order, never scaled.
    """
    if cfg.node_budget is not None and cfg.node_budget < 1:
        raise DesignError(f"node budget must be >= 1, got {cfg.node_budget}")
    t0 = time.perf_counter()
    serial = cfg.jobs <= 1 or cfg.node_budget is not None
    budget = _Budget(cfg.node_budget if serial else SERIAL_NODES)
    leaves = count = 0
    for parts, multiplier in _starts(kind, n):
        kernel, args, state, depth, full_depth = _start(kind, n, parts)
        found = kernel(*args, state, depth, full_depth, budget, None, None)
        leaves, count = leaves + found, count + found * multiplier
        if budget.exhausted:   # later starts would search nothing
            break
    nodes = budget.nodes
    if budget.exhausted and not serial:
        budget = _Budget(None)
        # split each start below its fixed parts: point 3's star, row 3's
        # cells, or vertex 3's edges
        split = max(0, {"sts": (n - 3) // 2, "latin": n - 1}.get(kind, n - 3))
        tasks, multipliers = [], []
        for parts, multiplier in _starts(kind, n):
            kernel, args, state, depth, full_depth = _start(kind, n, parts)
            frontier: list = []
            kernel(*args, state, depth, min(depth + split, full_depth), budget, frontier, [])
            for path in frontier:   # a pair search's path is the values of its pairs
                tasks.append((kind, n, parts + (path if kind == "sts" else tuple(
                    (a, b, v) for (a, b), v in zip(args[0], path)))))
            multipliers += [multiplier] * len(frontier)
        results = map_tasks(_subtree, tasks, cfg.jobs)
        count = sum(found * m for (found, _), m in zip(results, multipliers))
        nodes = budget.nodes + sum(subtree_nodes for _, subtree_nodes in results)
    complete = not budget.exhausted
    return CountResult(kind, n, count if complete else leaves, complete=complete, nodes=nodes,
                       seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------

def _feasible(kind: str, n: int) -> bool:
    """Whether designs of kind "sts", "1f" or "latin" exist at n.

    An n that is not an int, or is below the family's least order, is an
    error, not an empty family.
    """
    _check_n(kind, n)
    least = 2 if kind == "1f" else 1
    if n < least:
        raise DesignError(f"n must be >= {least}, got {n}")
    if kind == "sts":
        return sts_feasible(n)
    return kind == "latin" or one_factorization_feasible(n)


def count_triple_systems(n: int, config: SearchConfig | None = None) -> CountResult:
    """Exact number of labeled Steiner triple systems on points 1..n."""
    if not _feasible("sts", n):
        return CountResult("sts", n, 0)
    return _count("sts", n, config or SearchConfig())


def count_one_factorizations(n: int, labeled: bool = False,
                             config: SearchConfig | None = None) -> CountResult:
    """Exact number of 1-factorizations of K_n.

    labeled=True counts proper (n-1)-edge-colorings; labeled=False
    counts unordered partitions into perfect matchings.  Both run the
    labeled search from vertex 1's star and one set of vertex 2's colors
    per cycle type, whose complete count is the partitions times (n-1)!;
    a partial count is never scaled.
    """
    if not _feasible("1f", n):
        return CountResult("1f", n, 0, labeled=labeled)
    result = _count("1f-labeled", n, config or SearchConfig())
    if result.complete and not labeled:
        result = replace(result, count=result.count // math.factorial(n - 1))
    return replace(result, kind="1f", labeled=labeled)


def count_latin_squares(n: int, config: SearchConfig | None = None) -> CountResult:
    """Exact number of Latin squares of order n.

    Each start fixes row 1 to the identity, row 2 to one derangement per
    cycle type c and the first column of rows 3..n, and fills the other
    cells in row-major order; a complete count is n!(n-2)! times the sum
    over c of the D_c derangements of type c times the c start's leaves.
    """
    _feasible("latin", n)
    return _count("latin", n, config or SearchConfig())


# ---------------------------------------------------------------------------
# Pools and sampling
# ---------------------------------------------------------------------------

def _pool_feasible(kind: str, n: int) -> bool:
    """Whether the pool of ``kind`` at n holds designs; an unknown kind, an
    n that is not an int or an n above ``POOL_GATES`` raises."""
    if kind not in POOL_GATES:
        raise DesignError(f"unknown pool kind {kind!r}")
    feasible = _feasible(_family(kind), n)
    if n > POOL_GATES[kind]:
        raise PoolTooLargeError(f"{kind} pool gated at n <= {POOL_GATES[kind]}, got {n}")
    return feasible


def _family(kind: str) -> str:
    """The design family, and JSON kind, of the designs in a pool of ``kind``."""
    return "1f" if kind == "1f-labeled" else kind


def enumerate_pool(kind: str, n: int) -> Pool:
    """Materialize the complete pool of designs of one kind.

    kind is "sts", "1f-labeled", or "latin".  The designs' entries, in
    the order of the search with no part fixed (``_pool_entries``), are
    one array, which ``bulk_designs`` checks as the core validators would
    and builds, and the pool keeps the designs' cells.
    """
    if not _pool_feasible(kind, n):
        return Pool(kind, n, ())
    return Pool(kind, n, *bulk_designs(_family(kind), n, _pool_entries(kind, n)))


def first_design(kind: str, n: int):
    """``enumerate_pool(kind, n).items[0]`` without building the pool, or
    None if the pool is empty.

    That item, the lexicographically least design, holds the parts the
    pools' search fixes, so it is the first of that search's leaves (at
    most 56 at a gated n), and only it is built; the gates are the pool's.
    """
    if not _pool_feasible(kind, n):
        return None
    return bulk_designs(_family(kind), n, _fixed_leaves(kind, n)[:1])[0][0]


def _fixed_leaves(kind: str, n: int) -> np.ndarray:
    """The ``dumps`` entries of the leaves of the pools' search, which
    fixes a ``_star`` or a Latin square's first row and column
    (``_reduced``), one row each in order.  A star's entries come first,
    so the search's path starts with them."""
    import numpy as np
    fixed = _reduced(n) if kind == "latin" else _star(kind, n)
    values = [v for *_, v in fixed]
    path = list(fixed) if kind == "sts" else values if kind == "1f-labeled" else []
    kernel, args, state, depth, full_depth = _start(kind, n, fixed)
    leaves = []
    kernel(*args, state, depth, full_depth, _Budget(None), leaves, path)
    leaves = np.array(leaves, np.int8).reshape(len(leaves), -1)
    if kind == "latin":   # row 1, then each other row's first cell before its others
        leaves = np.insert(leaves, [0] * n + [(n - 1) * r for r in range(n - 1)], values, axis=1)
    return leaves


def _matchings(points: tuple):
    """The perfect matchings of ``points``, each as its pairs' points; a generator."""
    if not points:
        yield ()
    for i in range(1, len(points)):
        for rest in _matchings(points[1:i] + points[i + 1:]):
            yield (points[0], points[i], *rest)


def _pool_entries(kind: str, n: int) -> np.ndarray:
    """The ``dumps`` entries of every design of a pool, one row each, in
    the order the search with no part fixed lists them.

    Each of ``_fixed_leaves`` is expanded by one relabeling per coset of
    its fixed parts' stabilizer, so each design arises once: a triple
    system by one permutation fixing 1 per perfect matching of 2..n,
    mapping point 1's star onto it ((n-2)!!); a coloring by every color
    permutation ((n-1)!); a reduced square by every column permutation,
    then every permutation of rows 2..n (n!(n-1)!).  The unfixed search
    lists designs in lexicographic order of their entries: where two
    first differ, one slot took two values in increasing order (for
    triple systems, third points of the same least uncovered pair).  So
    the designs are sorted by the ranks (``lex_ranks``) of their lines:
    triples, sorted in each design; a square's rows, ranked only in the
    column-permuted reduced squares; or a coloring's whole entries.
    """
    import numpy as np
    leaves = _fixed_leaves(kind, n)
    if kind == "latin":
        cols = np.array(list(permutations(range(n))))
        rows = np.array([(0, *p) for p in permutations(range(1, n))])
        # the rows of square k with its columns in the order cols[s]
        lines = leaves.reshape(-1, n, n)[:, :, cols].transpose(0, 2, 1, 3).reshape(-1, n)
    else:
        perms = ([(0, 1, *m) for m in _matchings(tuple(range(2, n + 1)))] if kind == "sts"
                 else [(0, *p) for p in permutations(range(1, n))])
        designs = np.array(perms, np.int8)[:, leaves].reshape(len(perms) * len(leaves), -1)
        lines = np.sort(designs.reshape(-1, 3), axis=1) if kind == "sts" else designs
    order, first, ids = lex_ranks(lines, n + 1)
    # square (k, s, t) lists those rows in the order rows[t]; a triple system sorts its triples
    ids = (ids.reshape(len(leaves), len(cols), n)[:, :, rows].reshape(-1, n) if kind == "latin"
           else np.sort(ids.reshape(len(designs), -1), axis=1))
    return lines[order[first]][ids[lex_ranks(ids, int(first.sum()))[0]]].reshape(len(ids), -1)


def sample_uniform(pool: Pool, seed: int, count: int) -> list:
    """Independent uniform draws from a complete pool, reproducible by seed."""
    import numpy as np
    if len(pool) == 0:
        raise EmptyPoolError(f"pool {pool.kind} n={pool.n} is empty")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = rng.integers(0, len(pool.items), size=count)
    items = pool.items
    return [items[k] for k in idx.tolist()]


def pool_to_jsonl(pool: Pool) -> str:
    """One JSON object per line, in enumeration order: ``dumps`` of each
    item, or the same text written in bulk from the pool's ``cells``
    (``canonical_text``)."""
    if pool.cells is not None:
        return canonical_text(_family(pool.kind), pool.n, pool.cells)
    return "".join(dumps(obj) + "\n" for obj in pool.items)


def pool_from_jsonl(kind: str, n: int, text: str) -> Pool:
    """Load a pool written by `pool_to_jsonl`, validating every line.

    Each non-blank line must be a JSON object holding a valid design of
    the pool's kind and n, and no design may appear twice: the first bad
    line, else the first line equal to an earlier one, is named.  A text
    in the form `pool_to_jsonl` writes (``canonical_entries``), or that
    form with CRLF line ends, which ``splitlines`` numbers alike, is read
    as one array and checked and built by ``bulk_designs``, with the same
    result, and the pool keeps the designs' cells.  A repeat found there
    is named at once; any other fault there is on one line, which alone
    is read again by the line loader to name it (should it load, every
    line is).
    """
    if kind not in _POOL_TYPES:
        raise DesignError(f"unknown pool kind {kind!r}")
    _check_n(_family(kind), n)
    text_lf = text.replace("\r\n", "\n") if "\r" in text else text
    entries = canonical_entries(_family(kind), n, text_lf)
    if entries is not None:
        try:
            return Pool(kind, n, *bulk_designs(_family(kind), n, entries))
        except BulkError as e:   # design k is on line k + 1, and the lines are equally long
            if e.repeats is not None:
                raise DesignError(f"pool line {e.index + 1} repeats line {e.repeats + 1}") from None
            size = len(text_lf) // len(entries)
            _load_line(kind, n, e.index + 1, text_lf[e.index * size:(e.index + 1) * size])
    items = [(number, _load_line(kind, n, number, line))
             for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    first_line: dict = {}
    for number, obj in items:
        if first_line.setdefault(obj, number) != number:
            raise DesignError(f"pool line {number} repeats line {first_line[obj]}")
    return Pool(kind, n, tuple(obj for _, obj in items))


def _load_line(kind: str, n: int, number: int, line: str):
    """One line through the per-object loader, its error naming the line."""
    try:
        obj = loads(line)
    except ValueError as e:   # a design error or undecodable JSON
        raise DesignError(f"pool line {number}: {e}") from None
    if type(obj) is not _POOL_TYPES[kind] or obj.n != n:
        raise DesignError(f"pool line {number} holds {to_json_dict(obj)['kind']} "
                          f"n={obj.n}, wanted {kind} n={n}")
    return obj
