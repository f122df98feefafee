"""Chain-rule upper bounds on log-counts and their finite-sum rates.

For a uniformly random design and a random reveal order, the sum of
log N over all ordered pairs (trivial reveals contribute log 1 = 0)
upper-bounds the log of the number of designs.  `entropy_upper_estimate`
evaluates that sum exactly (small instances) or by Monte Carlo with a
standard error.

Both modes run one numpy kernel, `reveal_steps`, over batches of
reveals: per vertex position it reads the forward star in vertex order
(each pair keeps the law of independent star orders, and so the mean;
only the variance differs), gathers with flat `take`s, ORs the exposed
values along the star and counts M and N with a popcount; an sts pair
is informative by a bit test.  Exact mode and the lemma checks read
pairs through `pair_values`; exact mode sums over sets (`_set_histogram`).
Monte Carlo draws designs and vertex orders in fixed-size blocks, each
with its own substream spawned from (seed, block-index), merged in index
order: the result is byte-identical for any worker count, any schedule.

`finite_sum_rate` evaluates the closed finite sums that the per-pair
expectations produce and compares them against their limit log n - 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..core import DesignError
from ..enumeration import EmptyPoolError, Pool, enumerate_pool, map_tasks
from .reveal import TooLargeError

BLOCK_SIZE = 4096
CHUNK = 512             # reveals drawn and evaluated together; bounds memory
STREAM = 4              # version of the estimator's output, part of cache keys
EXACT_CAP = 2_000_000   # pool x ordered pairs x sets (E, P): 3^(n-2) per pair


@dataclass(frozen=True)
class EntropyEstimate:
    """A chain-rule upper estimate of a log-count."""

    variant: str
    n: int
    samples: int          # 0 means exact full enumeration
    seed: int | None
    estimate: float
    se: float
    exact: bool
    designs: int          # size of the pool the designs were drawn from


@dataclass(frozen=True)
class RateValue:
    """A finite sum next to its limiting value log n - 1."""

    variant: str
    n: int
    value: float
    reference: float
    gap: float


# ---------------------------------------------------------------------------
# Batched reveal sums: sum of log N over all ordered pairs of each reveal
# ---------------------------------------------------------------------------

def _exclusive_or_scan(bits):
    """Row-wise OR of the entries before each column."""
    out = np.zeros_like(bits)
    np.bitwise_or.accumulate(bits[:, :-1], axis=1, out=out[:, 1:])
    return out


def reveal_steps(variant: str, tables, d, vo):
    """Scan a batch of reveals, yielding ``(i, star, M, N)`` per vertex position.

    Reveal b scans design ``tables[d[b]]`` in the vertex order ``vo[b]``
    (vertices 1..n); the vertex ``i[b]`` at position p reads its star
    ``star[b] = vo[b, p+1:]`` in vertex order.  ``M[b, s]`` and ``N[b, s]``
    are the sizes of Mset and Nset of the pair (i[b], star[b, s]) as
    ``reveal.py`` defines them; N is 1 on trivial reveals, while M is left
    unmasked, so it is the oracle's M only on informative pairs (uint8).

    That is the reveal law: a pair's N depends only on the set before i
    and the order of i's star, which in a uniform vertex order is uniform
    and independent of that set.  So each pair has its law under the
    independent star orders of ``reveal.py``, and a sum over pairs its
    mean; the sum's variance differs, the stars sharing one vertex order.

    Each gather is one ``take`` of flat indices: entry [b, c] of a C-order
    (batch, w) array is flat entry b*w + c, and ``reshape`` copies any
    other layout.  An sts pair (i, u) is informative when bit k, its
    third point, is set in i's star after u.
    """
    batch, n = vo.shape
    full = (1 << (n if variant == "1f" else n + 1)) - 2   # colors 1..n-1 or points 1..n
    rows = tables.reshape(-1, n + 1)                      # row k*(n+1) + v: design k, vertex v
    at = np.arange(0, batch * (n + 1), n + 1)[:, None]
    # 1f: seen[v] holds the colors exposed at v by earlier vertices;
    # sts: seen[v] the t whose pair with v was closed by an earlier vertex.
    seen = np.zeros((batch, n + 1), np.int64)
    flat_seen = seen.ravel()
    scanned = np.zeros((batch, 1), np.int64)   # sts: i and the vertices before it
    for p in range(n - 1):
        i, star = vo[:, p:p + 1], vo[:, p + 1:]
        row = rows.take(d * (n + 1) + i[:, 0], axis=0)   # value of {i, v} for every v
        cell = at + star
        value = row.take(cell)
        closed = flat_seen.take(at + i) | flat_seen.take(cell)
        if variant == "1f":
            m_avail = np.bitwise_count(full & ~closed)
            closed |= _exclusive_or_scan(1 << value)
            n_avail = np.bitwise_count(full & ~closed)
        else:
            scanned = scanned | (1 << i)
            star_bits = 1 << star
            before = _exclusive_or_scan(star_bits)   # the star before each u
            closed |= scanned | star_bits
            m_avail = np.bitwise_count(full & ~closed)
            closed |= before | _exclusive_or_scan(1 << value)
            n_avail = np.bitwise_count(full & ~closed)
            # {i,u} is trivial when its third point is scanned or before u
            np.putmask(n_avail, (scanned | before) >> value & 1, 1)
        yield i[:, 0], star, m_avail, n_avail
        # every v may be updated: scanned vertices are never read again and
        # row[i] = 0 only sets bit 0, which lies outside full
        seen |= 1 << row


def pair_values(variant: str, tables, d, vo, at, to, rows=None):
    """M and N of the pair (vo[b, at], vo[b, to]) in reveals b of ``tables[d[b]]``.

    Read r is reveal b = rows[r] (by default every reveal once) with its own
    positions at[r] < to[r]; a scalar d, at or to serves them all.
    """
    rows = np.arange(len(vo)) if rows is None else rows
    at, to = np.broadcast_to(at, rows.shape), np.broadcast_to(to, rows.shape)
    m_out, n_out = np.zeros((2, len(rows)), np.int64)
    steps = reveal_steps(variant, tables, d, vo)
    for p, (_, star, m_avail, n_avail) in zip(range(at.max(initial=-1) + 1), steps):
        r = np.flatnonzero(at == p)
        cell = rows[r] * star.shape[1] + to[r] - p - 1   # star[b, s] is vo[b, p + 1 + s]
        m_out[r], n_out[r] = m_avail.take(cell), n_avail.take(cell)
    return m_out, n_out


def _reveal_sums(variant: str, tables, d, vo):
    """Sum of log N over the ordered pairs of each reveal in a batch.

    A trivial reveal has N = 1 and adds log 1 = 0.
    """
    logs = np.log(np.maximum(np.arange(vo.shape[1] + 1), 1))
    total = np.zeros(len(vo))
    for _, _, _, n_avail in reveal_steps(variant, tables, d, vo):
        total += logs.take(n_avail).sum(axis=1)   # popcounts are uint8: index, don't compute
    return total


def _mc_block(args):
    """Count, mean and sum of squared deviations of one block's reveal sums."""
    variant, tables, n, seed, block, count = args
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(block,))))
    chunks = []
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        x = _reveal_sums(variant, tables, rng.integers(len(tables), size=size),
                         rng.permuted(np.tile(np.arange(1, n + 1), (size, 1)), axis=1))
        mean = float(x.mean())
        chunks.append((len(x), mean, float(((x - mean) ** 2).sum())))
    return functools.reduce(_merge, chunks)


def _merge(a, b):
    """Combine the (count, mean, squared deviations) of two nonempty samples."""
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), m2a + m2b + delta * delta * (na * nb / n)


def set_orders(m: int, anchors, sizes=None, avoid=()):
    """(orders, weight) batches of 0..m-1, one batch per tuple of gap sizes.

    Each deal of the items other than ``anchors`` into the gaps around
    them is the order gap, anchor, ..., anchor, gap (gaps ascending); it
    stands for the product of |gap|! orders that deal alike.  ``sizes``
    restricts the size of the first gap and ``avoid`` keeps items out of it.
    """
    free = [x for x in range(m) if x not in anchors and x not in avoid]
    batches = {}
    for s in (range(len(free) + 1) if sizes is None else sizes):
        for first in itertools.combinations(free, s):
            left = [x for x in range(m) if x not in anchors and x not in first]
            for labels in itertools.product(range(len(anchors)), repeat=len(left)):
                gaps = [first, *([x for x, g in zip(left, labels) if g == t]
                                 for t in range(len(anchors)))]
                row = [x for gap, a in zip(gaps, anchors) for x in (*gap, a)] + gaps[-1]
                batches.setdefault(tuple(map(len, gaps)), []).append(row)
    for shape, rows in batches.items():
        yield np.array(rows, np.int64), math.prod(map(math.factorial, shape))


def _set_histogram(variant: str, tables, pairs):
    """Count each N over every design and every (E, P) of each pair (i, j).

    N depends only on E, the vertices before i, and P, the elements of i's
    star before j.  The order E, i, P, j, R (`set_orders`), every star in
    vertex order, counts for the |E|!|P|!|R|! vertex orders with that E and
    P, which draw (E, P) with its reveal law: n!/2 per pair and design.
    """
    n = tables.shape[1] - 1
    hist = np.zeros(n + 1, np.int64)
    for i, j in pairs:
        for orders, w in set_orders(n, (i - 1, j - 1)):
            e, f = (list(orders[0]).index(v - 1) for v in (i, j))   # alike in a batch
            n_avail = pair_values(variant, tables, np.repeat(np.arange(len(tables)), len(orders)),
                                  np.tile(orders + 1, (len(tables), 1)), e, f)[1]
            hist += w * np.bincount(n_avail, minlength=n + 1)
    return hist


def entropy_upper_estimate(variant: str, n: int, samples: int,
                           seed: int | None = 0, jobs: int = 1,
                           pool: Pool | None = None) -> EntropyEstimate:
    """Estimate the reveal-sum upper bound on a log-count.

    samples=0 switches to the exact mean over sets (`_set_histogram`),
    refused above EXACT_CAP terms (1f n=6 and sts n=7 run, sts n=9 not).
    Designs are drawn uniformly from the complete pool; pass ``pool``
    to reuse one already enumerated.  The kernels read the designs'
    tables from the pool's ``cells``, as int64, or from the items of a
    pool that keeps none.
    """
    if variant not in ("1f", "sts"):
        raise DesignError(f"unknown variant {variant!r}")
    kind = "sts" if variant == "sts" else "1f-labeled"
    if pool is None:
        pool = enumerate_pool(kind, n)
    elif (pool.kind, pool.n) != (kind, n):
        raise DesignError(f"pool holds {pool.kind} n={pool.n}, wanted {kind} n={n}")
    if len(pool) == 0:
        raise EmptyPoolError(f"no designs to sample at n={n}")
    tables = (pool.cells if pool.cells is not None
              else np.array([x.table for x in pool.items])).astype(np.int64)

    if samples == 0:
        terms = len(pool) * n * (n - 1) * 3 ** (n - 2)
        if terms > EXACT_CAP:
            raise TooLargeError(f"exact evaluation needs {terms} terms, above the cap {EXACT_CAP}")
        hist = _set_histogram(variant, tables, itertools.permutations(range(1, n + 1), 2))
        value = (math.fsum(int(c) * math.log(v) for v, c in enumerate(hist) if c)
                 / (len(tables) * math.factorial(n)))
        return EntropyEstimate(variant, n, 0, seed, value, 0.0, exact=True,
                               designs=len(pool))

    if samples < 2:
        raise DesignError("need at least 2 samples for a standard error")
    blocks = [(variant, tables, n, seed, b, min(BLOCK_SIZE, samples - start))
              for b, start in enumerate(range(0, samples, BLOCK_SIZE))]
    count, mean, m2 = functools.reduce(_merge, map_tasks(_mc_block, blocks, jobs))
    se = math.sqrt(m2 / (count - 1) / count)
    return EntropyEstimate(variant, n, count, seed, mean, se, exact=False,
                          designs=len(pool))


# ---------------------------------------------------------------------------
# Finite sums and their limit
# ---------------------------------------------------------------------------

def finite_sum_rate(variant: str, n: int) -> RateValue:
    """The per-pair expectation sum against its limit log n - 1.

    Edge-coloring variant:
      (2/(n(n-1))) sum_{r=1}^{n-2} r log(1 + r(r-1)/(n-1));
    triple-system variant:
      (3/(n(n-1)(n-2))) sum_{r=2}^{n-1} r(r-1)
            log(1 + (r-2)(r-3)(r-4)/((n-4)(n-5))).
    Exactly rounded summation (math.fsum); exact finite sums, no
    asymptotic shortcuts.
    """
    if n < 7:
        raise DesignError(f"rate sums need n >= 7, got {n}")
    log = math.log
    if variant == "1f":
        scale = 2.0 / (n * (n - 1))
        terms = ((r * log(1.0 + (r * (r - 1)) / (n - 1.0)))
                 for r in range(1, n - 1))
    elif variant == "sts":
        scale = 3.0 / (n * (n - 1) * (n - 2))
        denom = float((n - 4) * (n - 5))
        terms = ((r * (r - 1) * log(1.0 + ((r - 2) * (r - 3) * (r - 4)) / denom))
                 for r in range(2, n))
    else:
        raise DesignError(f"unknown variant {variant!r}")
    value = scale * math.fsum(terms)
    reference = math.log(n) - 1.0
    return RateValue(variant, n, value, reference, abs(value - reference))
