"""Exact, deterministic, parallelizable enumeration of the three families.

All counters are backtracking searches with a fixed branching rule, so
the search tree (and therefore the count and the node total) is
identical no matter how the work is split:

* triple systems: extend the lexicographically least uncovered pair,
  branching on its third point, pruned by per-vertex coverage bitmasks;
* 1-factorizations: color the lexicographically least uncolored edge.
  Unordered partitions are counted directly by pinning the colors of
  vertex 1's star (color of {1,v} is v-1), which selects exactly one
  coloring per partition; the labeled count is that total times (n-1)!;
* Latin squares: fill cells in row-major order against row/column
  bitmasks.

Parallel runs split the tree at a fixed prefix depth, farm the subtrees
to worker processes, and sum the (exact integer) subtree counts in task
order, so totals are schedule independent.  Counts are Python ints
throughout; nothing here overflows.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    CountResult,
    DesignError,
    LatinSquare,
    dumps,
    loads,
    one_factorization_feasible,
    sts_feasible,
    to_json_dict,
    validate_edge_coloring,
    validate_triple_system,
)


class PoolTooLargeError(DesignError):
    """Requested pool would exceed the configured memory bound."""


class EmptyPoolError(DesignError):
    """Uniform sampling from an empty pool."""


# Memory gates for full enumeration (largest n whose pool we materialize).
POOL_GATES = {"sts": 9, "1f-labeled": 6, "latin": 5}


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for a counting/enumeration run.

    ``jobs`` is the worker budget; ``node_budget`` caps the number of
    branch attempts (a budgeted run executes sequentially so the partial
    count stays deterministic); ``max_pool`` bounds collect mode.
    """

    jobs: int = 1
    node_budget: int | None = None
    max_pool: int = 200_000
    split_depth: int | None = None


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes to start: at most ``jobs``, ``tasks`` and the CPUs."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


@dataclass(frozen=True)
class Pool:
    """A complete, duplicate-free list of validated designs."""

    kind: str
    n: int
    items: tuple = ()
    complete: bool = True

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
        """Count one node; False once the budget is gone."""
        if self.exhausted:
            return False
        self.nodes += 1
        if self.limit is not None and self.nodes >= self.limit:
            self.exhausted = True
        return True


# ---------------------------------------------------------------------------
# Steiner triple systems
# ---------------------------------------------------------------------------

def _sts_least_uncovered(covered: list[int], n: int) -> tuple[int, int] | None:
    for i in range(1, n):
        free = ~covered[i] & _above_mask(i, n)
        if free:
            return i, (free & -free).bit_length() - 1
    return None


def _above_mask(v: int, n: int) -> int:
    # bits v+1 .. n
    return ((1 << (n + 1)) - 1) & ~((1 << (v + 1)) - 1)


def _sts_dfs(n, covered, budget, sink, chosen):
    """Count completions of a partial system; append to sink if collecting."""
    pick = _sts_least_uncovered(covered, n)
    if pick is None:
        if sink is not None:
            sink.append(tuple(chosen))
        return 1
    i, j = pick
    total = 0
    free = ~(covered[i] | covered[j]) & _above_mask(j, n)
    bi, bj = 1 << i, 1 << j
    while free:
        kb = free & -free
        free ^= kb
        if not budget.spend():
            break
        k = kb.bit_length() - 1
        covered[i] |= bj | kb
        covered[j] |= bi | kb
        covered[k] |= bi | bj
        if sink is not None:
            chosen.append((i, j, k))
        total += _sts_dfs(n, covered, budget, sink, chosen)
        if sink is not None:
            chosen.pop()
        covered[i] &= ~(bj | kb)
        covered[j] &= ~(bi | kb)
        covered[k] &= ~(bi | bj)
    return total


def _sts_prefixes(n, depth, budget):
    """All partial systems with ``depth`` triples placed, in DFS order."""
    out = []

    def rec(covered, d):
        if d == depth:
            out.append(tuple(covered))
            return
        pick = _sts_least_uncovered(covered, n)
        if pick is None:
            out.append(tuple(covered))
            return
        i, j = pick
        free = ~(covered[i] | covered[j]) & _above_mask(j, n)
        bi, bj = 1 << i, 1 << j
        while free:
            kb = free & -free
            free ^= kb
            if not budget.spend():
                return
            k = kb.bit_length() - 1
            covered[i] |= bj | kb
            covered[j] |= bi | kb
            covered[k] |= bi | bj
            rec(covered, d + 1)
            covered[i] &= ~(bj | kb)
            covered[j] &= ~(bi | kb)
            covered[k] &= ~(bi | bj)

    rec([0] * (n + 1), 0)
    return out


def _sts_worker(args):
    n, covered = args
    budget = _Budget(None)
    count = _sts_dfs(n, list(covered), budget, None, None)
    return count, budget.nodes


def count_triple_systems(n: int, config: SearchConfig | None = None) -> CountResult:
    """Exact number of labeled Steiner triple systems on points 1..n."""
    if n < 1:
        raise DesignError(f"n must be >= 1, got {n}")
    cfg = config or SearchConfig()
    t0 = time.perf_counter()
    if not sts_feasible(n):
        return CountResult("sts", n, 0, seconds=time.perf_counter() - t0)
    if n < 3:
        return CountResult("sts", n, 1, seconds=time.perf_counter() - t0)

    if cfg.jobs <= 1 or cfg.node_budget is not None:
        budget = _Budget(cfg.node_budget)
        count = _sts_dfs(n, [0] * (n + 1), budget, None, None)
        return CountResult("sts", n, count, complete=not budget.exhausted,
                           nodes=budget.nodes, seconds=time.perf_counter() - t0)

    depth = cfg.split_depth if cfg.split_depth is not None else (n - 1) // 2
    budget = _Budget(None)
    tasks = [(n, cov) for cov in _sts_prefixes(n, depth, budget)]
    nodes = budget.nodes
    count = 0
    workers = worker_count(cfg.jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for c, nd in pool.map(_sts_worker, tasks, chunksize=max(1, len(tasks) // (4 * workers))):
            count += c
            nodes += nd
    return CountResult("sts", n, count, nodes=nodes,
                       seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 1-factorizations
# ---------------------------------------------------------------------------

def _onef_edges(n: int, first_vertex: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(first_vertex, n) for j in range(i + 1, n + 1)]


def _onef_dfs(n, edges, ei, used, budget, sink, colors):
    if ei == len(edges):
        if sink is not None:
            sink.append(tuple(colors))
        return 1
    i, j = edges[ei]
    free = ~(used[i] | used[j]) & (((1 << n) - 1) & ~1)  # color bits 1..n-1
    total = 0
    while free:
        cb = free & -free
        free ^= cb
        if not budget.spend():
            break
        used[i] |= cb
        used[j] |= cb
        if sink is not None:
            colors.append(cb.bit_length() - 1)
        total += _onef_dfs(n, edges, ei + 1, used, budget, sink, colors)
        if sink is not None:
            colors.pop()
        used[i] &= ~cb
        used[j] &= ~cb
    return total


def _onef_start_state(n: int, fix_star: bool) -> list[int]:
    used = [0] * (n + 1)
    if fix_star:
        # color of {1,v} pinned to v-1: one canonical coloring per partition
        used[1] = (((1 << n) - 1) & ~1)
        for v in range(2, n + 1):
            used[v] = 1 << (v - 1)
    return used


def _onef_prefixes(n, edges, depth, used, budget):
    out = []

    def rec(ei):
        if ei == depth or ei == len(edges):
            out.append(tuple(used))
            return
        i, j = edges[ei]
        free = ~(used[i] | used[j]) & (((1 << n) - 1) & ~1)
        while free:
            cb = free & -free
            free ^= cb
            if not budget.spend():
                return
            used[i] |= cb
            used[j] |= cb
            rec(ei + 1)
            used[i] &= ~cb
            used[j] &= ~cb

    rec(0)
    return out


def _onef_worker(args):
    n, edges, depth, used = args
    budget = _Budget(None)
    count = _onef_dfs(n, edges, depth, list(used), budget, None, None)
    return count, budget.nodes


def count_one_factorizations(n: int, labeled: bool = False,
                             config: SearchConfig | None = None) -> CountResult:
    """Exact number of 1-factorizations of K_n.

    labeled=True counts proper (n-1)-edge-colorings; labeled=False
    counts unordered partitions into perfect matchings.  The two differ
    by exactly (n-1)!.
    """
    if n < 2:
        raise DesignError(f"n must be >= 2, got {n}")
    cfg = config or SearchConfig()
    t0 = time.perf_counter()
    if not one_factorization_feasible(n):
        return CountResult("1f", n, 0, labeled=labeled,
                           seconds=time.perf_counter() - t0)

    edges = _onef_edges(n, 2)
    used0 = _onef_start_state(n, fix_star=True)

    if cfg.jobs <= 1 or cfg.node_budget is not None or not edges:
        budget = _Budget(cfg.node_budget)
        unordered = _onef_dfs(n, edges, 0, used0, budget, None, None)
        nodes = budget.nodes
        complete = not budget.exhausted
    else:
        depth = cfg.split_depth if cfg.split_depth is not None else min(n - 2, len(edges))
        budget = _Budget(None)
        tasks = [(n, edges, depth, u) for u in _onef_prefixes(n, edges, depth, used0, budget)]
        nodes = budget.nodes
        unordered = 0
        workers = worker_count(cfg.jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for c, nd in pool.map(_onef_worker, tasks,
                                  chunksize=max(1, len(tasks) // (4 * workers))):
                unordered += c
                nodes += nd
        complete = True

    count = unordered * math.factorial(n - 1) if labeled else unordered
    if not complete and labeled:
        count = unordered  # a partial unordered total must not be scaled
    return CountResult("1f", n, count, labeled=labeled, complete=complete,
                       nodes=nodes, seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Latin squares
# ---------------------------------------------------------------------------

def _latin_dfs(n, cell, col_used, row_used, budget, sink, symbols):
    if cell == n * n:
        if sink is not None:
            sink.append(tuple(symbols))
        return 1
    c = cell % n
    if c == 0:
        row_used = 0
    free = ~(row_used | col_used[c]) & (((1 << (n + 1)) - 1) & ~1)
    total = 0
    while free:
        sb = free & -free
        free ^= sb
        if not budget.spend():
            break
        col_used[c] |= sb
        if sink is not None:
            symbols.append(sb.bit_length() - 1)
        total += _latin_dfs(n, cell + 1, col_used, row_used | sb, budget, sink, symbols)
        if sink is not None:
            symbols.pop()
        col_used[c] &= ~sb
    return total


def _latin_prefixes(n, depth, budget):
    out = []
    col_used = [0] * n

    def rec(cell, row_used):
        if cell == depth or cell == n * n:
            out.append((tuple(col_used), row_used, cell))
            return
        c = cell % n
        if c == 0:
            row_used = 0
        free = ~(row_used | col_used[c]) & (((1 << (n + 1)) - 1) & ~1)
        while free:
            sb = free & -free
            free ^= sb
            if not budget.spend():
                return
            col_used[c] |= sb
            rec(cell + 1, row_used | sb)
            col_used[c] &= ~sb

    rec(0, 0)
    return out


def _latin_worker(args):
    n, col_used, row_used, cell = args
    budget = _Budget(None)
    count = _latin_dfs(n, cell, list(col_used), row_used, budget, None, None)
    return count, budget.nodes


def count_latin_squares(n: int, config: SearchConfig | None = None) -> CountResult:
    """Exact number of Latin squares of order n (row-major cell search)."""
    if n < 1:
        raise DesignError(f"n must be >= 1, got {n}")
    cfg = config or SearchConfig()
    t0 = time.perf_counter()

    if cfg.jobs <= 1 or cfg.node_budget is not None:
        budget = _Budget(cfg.node_budget)
        count = _latin_dfs(n, 0, [0] * n, 0, budget, None, None)
        return CountResult("latin", n, count, complete=not budget.exhausted,
                           nodes=budget.nodes, seconds=time.perf_counter() - t0)

    depth = cfg.split_depth if cfg.split_depth is not None else n
    budget = _Budget(None)
    tasks = [(n,) + p for p in _latin_prefixes(n, depth, budget)]
    nodes = budget.nodes
    count = 0
    workers = worker_count(cfg.jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for c, nd in pool.map(_latin_worker, tasks,
                              chunksize=max(1, len(tasks) // (4 * workers))):
            count += c
            nodes += nd
    return CountResult("latin", n, count, nodes=nodes,
                       seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Pools and sampling
# ---------------------------------------------------------------------------

def enumerate_pool(kind: str, n: int, config: SearchConfig | None = None) -> Pool:
    """Materialize the complete pool of designs of one kind.

    kind is "sts", "1f-labeled", or "latin".  Every element passes the
    core validators; the pool size always equals the count-only result.
    """
    cfg = config or SearchConfig()
    if kind not in POOL_GATES:
        raise DesignError(f"unknown pool kind {kind!r}")
    if n > POOL_GATES[kind]:
        raise PoolTooLargeError(f"{kind} pool gated at n <= {POOL_GATES[kind]}, got {n}")

    if kind == "sts":
        expected = count_triple_systems(n, SearchConfig(jobs=1)).count
        if expected > cfg.max_pool:
            raise PoolTooLargeError(f"predicted {expected} objects > bound {cfg.max_pool}")
        if not sts_feasible(n):
            return Pool(kind, n, (), complete=True)
        if n < 3:
            return Pool(kind, n, (validate_triple_system(n, []),), complete=True)
        sink: list = []
        _sts_dfs(n, [0] * (n + 1), _Budget(None), sink, [])
        items = tuple(validate_triple_system(n, triples) for triples in sink)
    elif kind == "1f-labeled":
        unordered = count_one_factorizations(n, labeled=False, config=SearchConfig(jobs=1))
        expected = unordered.count * math.factorial(n - 1)
        if expected > cfg.max_pool:
            raise PoolTooLargeError(f"predicted {expected} objects > bound {cfg.max_pool}")
        if not one_factorization_feasible(n):
            return Pool(kind, n, (), complete=True)
        edges = _onef_edges(n, 1)
        sink = []
        _onef_dfs(n, edges, 0, _onef_start_state(n, fix_star=False), _Budget(None), sink, [])
        items = tuple(
            validate_edge_coloring(n, dict(zip(edges, colors))) for colors in sink
        )
        if len(items) != expected:
            raise DesignError(
                f"labeled pool size {len(items)} != unordered count x (n-1)! = {expected}")
    else:  # latin
        expected = count_latin_squares(n, SearchConfig(jobs=1)).count
        if expected > cfg.max_pool:
            raise PoolTooLargeError(f"predicted {expected} objects > bound {cfg.max_pool}")
        sink = []
        _latin_dfs(n, 0, [0] * n, 0, _Budget(None), sink, [])
        items = tuple(
            LatinSquare(n=n, rows=tuple(tuple(sym[r * n:(r + 1) * n]) for r in range(n)))
            for sym in sink
        )

    if len({dumps(obj) for obj in items}) != len(items) or len(items) != expected:
        raise DesignError(f"pool incomplete or duplicated: {len(items)} != {expected}")
    return Pool(kind, n, items, complete=True)


def sample_uniform(pool: Pool, seed: int, count: int) -> list:
    """Independent uniform draws from a complete pool, reproducible by seed."""
    if not pool.complete:
        raise DesignError("sampling requires a complete pool")
    if len(pool) == 0:
        raise EmptyPoolError(f"pool {pool.kind} n={pool.n} is empty")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = rng.integers(0, len(pool.items), size=count)
    return [pool.items[k] for k in idx]


def pool_to_jsonl(pool: Pool) -> str:
    """One JSON object per line, in enumeration order."""
    return "".join(dumps(obj) + "\n" for obj in pool.items)


def pool_from_jsonl(kind: str, n: int, text: str) -> Pool:
    items = tuple(loads(line) for line in text.splitlines() if line.strip())
    for obj in items:
        want = {"sts": "sts", "1f-labeled": "1f", "latin": "latin"}[kind]
        if to_json_dict(obj)["kind"] != want:
            raise DesignError(f"pool line of kind {to_json_dict(obj)['kind']!r}, wanted {want!r}")
    return Pool(kind, n, items, complete=True)
