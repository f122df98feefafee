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
is informative by a bit test.  Its arrays are (star cell, reveal), its
values bit masks shifted once per call, in int16 up to 1f 15 and sts 14
(`_mask_dtype`: at most 1f 63, sts 62), and a reveal's values do not
depend on its batch.  Exact mode runs it over every reveal that Monte
Carlo draws, each design in each vertex order (`all_orders`, the one
order enumerator), ``BLOCK_SIZE`` reveals a pass (`_order_histogram`);
the lemma checks read pairs through `pair_values`.  Monte Carlo draws
designs and vertex orders in blocks of ``BLOCK_SIZE``, each with its
own substream spawned from (seed, block-index), runs each block
through the kernel in one pass, and merges the blocks in index order:
the result is byte-identical for any worker count, any schedule, and
below `SERIAL_READS` pair reads the blocks stay in this process.

`finite_sum_rate` evaluates the closed finite sums that the per-pair
expectations produce and compares them against their limit log n - 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..core import DesignError
from ..enumeration import EmptyPoolError, Pool, enumerate_pool, map_tasks
from .reveal import TooLargeError

BLOCK_SIZE = 4096       # reveals of a Monte-Carlo block, an exact pass, a lemma draw batch
CHUNK = 512             # grain of a block's draws and of its (count, mean, m2): STREAM 4
STREAM = 4              # version of the estimator's output, part of cache keys
EXACT_CAP = 5_000_000   # reveals of exact mode: pool x n! vertex orders
SERIAL_READS = 1 << 22  # pair reads, samples x n(n-1)/2, from which a worker pool pays


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
    """``out[s] = bits[0] | ... | bits[s-1]`` for s = 0..len(bits), a row at
    a time (``accumulate`` would run one inner loop per column)."""
    out = np.zeros((len(bits) + 1, *bits.shape[1:]), bits.dtype)
    for s, row in enumerate(bits):
        np.bitwise_or(out[s], row, out=out[s + 1])
    return out


def _mask_dtype(variant: str, n: int):
    """The narrowest of int16, int32 and int64 whose sign bit lies above
    every bit of ``full``: bits 1..n-1 (1f) or 1..n (sts).  So 1f runs on
    int16 up to n = 15, int32 up to 31 and int64 up to 63; sts on int16
    up to n = 14, int32 up to 30 and int64 up to 62, the limit a refusal names."""
    top = n - 1 if variant == "1f" else n
    if top > 62:
        limit = 63 if variant == "1f" else 62
        raise TooLargeError(f"reveal masks hold at most {limit} points, got n={n}")
    return np.int16 if top < 15 else np.int32 if top < 31 else np.int64


def reveal_steps(variant: str, tables, d, vo):
    """Scan a batch of reveals, yielding ``(i, star, M, N)`` per vertex position.

    Reveal b scans design ``tables[d[b]]`` (a scalar d serves every reveal)
    in the vertex order ``vo[b]`` (vertices 1..n); the vertex ``i[b]`` at
    position p reads its star ``star[:, b] = vo[b, p+1:]`` in vertex
    order.  ``M[s, b]`` and ``N[s, b]`` are the sizes of Mset and Nset of
    the pair (i[b], star[s, b]) as ``reveal.py`` defines them; N is 1 on
    trivial reveals, while M is left unmasked, so it is the oracle's M
    only on informative pairs (uint8).
    Position-major (w, batch) arrays let each scan and sum run whole rows.
    A reveal's values do not depend on the batch it runs in: callers may
    split or join batches freely.

    That is the reveal law: a pair's N depends only on the set before i
    and the order of i's star, which in a uniform vertex order is uniform
    and independent of that set.  So each pair has its law under the
    independent star orders of ``reveal.py``, and a sum over pairs its
    mean; the sum's variance differs, the stars sharing one vertex order.

    The value tables are shifted once per call into bit masks, ``1 <<
    value``, of the narrowest dtype whose sign bit lies outside ``full``
    (`_mask_dtype`: int16 up to 1f 15 and sts 14); for sts so are the
    vertices of each order, ``bit[p, b] = 1 << vo[b, p]``.  Each gather
    is one ``take`` of flat indices: entry [b, v] of the C-order (batch,
    n+1) ``row`` is flat entry b*(n+1) + v, and ``reshape`` copies any
    other layout.  For sts, ``upto[k]`` holds the first k vertices of
    each order as bits: u = star[s] follows ``upto[p+1+s]``, M counts out
    ``upto[p+1]`` and u, N ``upto[p+2+s]``, and (i, u) is informative
    when its third point is not in ``upto[p+1+s]``.
    """
    batch, n = vo.shape
    dtype = _mask_dtype(variant, n)
    vt = np.ascontiguousarray(vo.T)                       # vt[p, b] = vo[b, p]
    full = (1 << (n if variant == "1f" else n + 1)) - 2   # colors 1..n-1 or points 1..n
    # row k*(n+1) + v: the bits of design k's values at vertex v
    masks = np.left_shift(1, tables, dtype=dtype).reshape(-1, n + 1)
    first = np.asarray(d, np.intp) * (n + 1)
    at = np.arange(0, batch * (n + 1), n + 1)
    # 1f: seen[v] holds the colors exposed at v by earlier vertices;
    # sts: seen[v] the t whose pair with v was closed by an earlier vertex;
    # both start with every bit outside full set (the sign bit too), so
    # ~closed holds the open bits alone and is never negative
    seen = np.full((batch, n + 1), ~full, dtype)
    flat_seen = seen.ravel()
    if variant == "sts":
        bit = np.left_shift(1, vt, dtype=dtype)
        upto = _exclusive_or_scan(bit)
    for p in range(n - 1):
        i, star = vt[p], vt[p + 1:]
        row = masks.take(first + i, axis=0)   # bit of the value of {i, v}, every v
        cell = at + star
        bits = row.take(cell)
        closed = flat_seen.take(at + i) | flat_seen.take(cell)
        if variant == "1f":
            m_avail = np.bitwise_count(~closed)
            closed |= _exclusive_or_scan(bits)[:-1]
            n_avail = np.bitwise_count(~closed)
        else:
            m_avail = np.bitwise_count(~(closed | upto[p + 1] | bit[p + 1:]))
            closed |= upto[p + 2:] | _exclusive_or_scan(bits)[:-1]
            n_avail = np.bitwise_count(~closed)
            np.putmask(n_avail, upto[p + 1:n] & bits, 1)   # third point before u: trivial
        yield i, star, m_avail, n_avail
        # every v may be updated: scanned vertices are never read again and
        # row[i], the value 0, only sets bit 0, which lies outside full
        seen |= row


def pair_values(variant: str, tables, d, vo, at, to, rows=None):
    """M and N (uint8) of the pair (vo[b, at], vo[b, to]) in reveals b of ``tables[d[b]]``.

    Read r is reveal b = rows[r] (by default every reveal once) with its own
    positions at[r] < to[r]; a scalar d, at or to serves them all.
    """
    rows = np.arange(len(vo)) if rows is None else rows
    at = np.broadcast_to(at, len(rows))
    cell = (np.asarray(to) - at - 1) * len(vo) + rows   # star[s, b] is vo[b, p + 1 + s]
    m_out, n_out = np.zeros((2, len(rows)), np.uint8)
    steps = reveal_steps(variant, tables, d, vo)
    for p, (_, _, m_avail, n_avail) in zip(range(at.max(initial=-1) + 1), steps):
        r = np.flatnonzero(at == p)
        m_out[r], n_out[r] = m_avail.take(cell[r]), n_avail.take(cell[r])
    return m_out, n_out


def _reveal_sums(variant: str, tables, d, vo):
    """Sum of log N over the ordered pairs of each reveal in a batch.

    A trivial reveal has N = 1 and adds log 1 = 0.  Each step's terms
    are added in star order, so a reveal's sum does not depend on its
    batch: ``sum(axis=0)`` adds whole rows, but pairs the terms of a lone
    column, which a batch of one reveal adds one by one.
    """
    logs = np.log(np.maximum(np.arange(vo.shape[1] + 1), 1))
    total = np.zeros(len(vo))
    for _, _, _, n_avail in reveal_steps(variant, tables, d, vo):
        terms = logs.take(n_avail)   # popcounts are uint8: index, don't compute
        total += terms.sum(axis=0) if len(vo) > 1 else sum(terms[1:, 0], terms[0, 0])
    return total


def _mc_block(args):
    """Count, mean and sum of squared deviations of one block's reveal sums.

    The designs and vertex orders are drawn a ``CHUNK`` at a time, the orders
    shuffled in int64 (numpy's fast path, the same draws as int8), and run
    through the kernel in int8 in one pass.  The full CHUNKs reduce row-wise in
    one pass (pairwise, as a lone CHUNK), then the rest; all merge in order.
    """
    variant, tables, n, seed, block, count = args
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(block,))))
    d = np.empty(count, np.int64)
    vo = np.tile(np.arange(1, n + 1), (count, 1))
    for start in range(0, count, CHUNK):
        d[start:start + CHUNK] = rng.integers(len(tables), size=min(CHUNK, count - start))
        rng.permuted(vo[start:start + CHUNK], axis=1, out=vo[start:start + CHUNK])
    x = _reveal_sums(variant, tables, d, vo.astype(np.int8))
    cut, chunks = count - count % CHUNK, []
    for part in x[:cut].reshape(-1, CHUNK), x[cut:].reshape(-1, count - cut or 1):
        means = part.mean(axis=1)
        squares = ((part - means[:, None]) ** 2).sum(axis=1)
        chunks += zip([part.shape[1]] * len(part), means.tolist(), squares.tolist())
    return functools.reduce(_merge, chunks)


def _merge(a, b):
    """Combine the (count, mean, squared deviations) of two nonempty samples."""
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), m2a + m2b + delta * delta * (na * nb / n)


def all_orders(k: int) -> np.ndarray:
    """Every permutation of 0..k-1 as the rows of a (k!, k) int8 array, in
    lexicographic order, that of ``itertools.permutations(range(k))``.

    The orders of 0..s-1 are, for each first item f in turn, f followed by
    the orders of 0..s-2 with each item >= f raised by one: that map keeps
    their order, so s = 1..k builds each array from the last, every f at
    once.
    """
    out = np.zeros((1, 0), np.int8)
    for s in range(1, k + 1):
        rest, out = out, np.empty((s, len(out), s), np.int8)
        first = np.arange(s, dtype=np.int8)[:, None]
        out[:, :, 0] = first
        out[:, :, 1:] = rest + (rest >= first[:, :, None])
        out = out.reshape(-1, s)
    return out


def _order_histogram(variant: str, tables):
    """Count each N over every design and every vertex order.

    These are the reveals Monte Carlo draws, every star in vertex order:
    `reveal_steps` runs over the n! orders of `all_orders` ``BLOCK_SIZE``
    at a time, each batch holding those orders in as many designs as fill
    ``BLOCK_SIZE`` reveals (one if the orders alone do), so each forward
    pair of each reveal counts once.
    """
    n = tables.shape[1] - 1
    hist = np.zeros(n + 1, np.int64)
    orders = all_orders(n) + 1
    for start in range(0, len(orders), BLOCK_SIZE):
        vo = orders[start:start + BLOCK_SIZE]
        per = max(1, BLOCK_SIZE // len(vo))   # designs in one batch
        for k in range(0, len(tables), per):
            d = np.arange(k, min(k + per, len(tables)))
            for _, _, _, n_avail in reveal_steps(variant, tables, np.repeat(d, len(vo)),
                                                 np.tile(vo, (len(d), 1))):
                hist += np.bincount(n_avail.ravel(), minlength=n + 1)
    return hist


def entropy_upper_estimate(variant: str, n: int, samples: int,
                           seed: int | None = 0, jobs: int = 1,
                           pool: Pool | None = None) -> EntropyEstimate:
    """Estimate the reveal-sum upper bound on a log-count.

    samples=0 switches to the exact mean over every reveal Monte Carlo
    draws, |pool| x n! (design, vertex order) pairs (`_order_histogram`),
    refused above EXACT_CAP reveals (1f n=6 and sts n=7 run, sts n=9 not).
    Designs are drawn uniformly from the complete pool; pass ``pool``
    to reuse one already enumerated.  The kernels read the designs'
    tables from the pool's int8 ``cells``, which each Monte-Carlo block
    carries to its worker, or from the items of a pool that keeps none.
    Monte Carlo starts ``jobs`` workers only from ``SERIAL_READS`` pair
    reads up.
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
    tables = pool.cells if pool.cells is not None else np.array(
        [x.table for x in pool.items], np.int8)

    if samples == 0:
        reveals = len(pool) * math.factorial(n)
        if reveals > EXACT_CAP:
            raise TooLargeError(f"exact evaluation needs {reveals} reveals, above the cap {EXACT_CAP}")
        hist = _order_histogram(variant, tables)
        value = math.fsum(int(c) * math.log(v) for v, c in enumerate(hist) if c) / reveals
        return EntropyEstimate(variant, n, 0, seed, value, 0.0, exact=True,
                               designs=len(pool))

    if samples < 2:
        raise DesignError("need at least 2 samples for a standard error")
    blocks = [(variant, tables, n, seed, b, min(BLOCK_SIZE, samples - start))
              for b, start in enumerate(range(0, samples, BLOCK_SIZE))]
    jobs = 1 if samples * n * (n - 1) // 2 < SERIAL_READS else jobs
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
