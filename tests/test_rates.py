"""Chain-rule estimates against exact log-counts; finite-sum convergence."""

import itertools
import math

import numpy as np
import pytest

from designcount.core import DesignError, validate_triple_system
from designcount.enumeration import (
    EmptyPoolError,
    Pool,
    count_one_factorizations,
    count_triple_systems,
    enumerate_pool,
)
from designcount.entropylab import (
    TooLargeError,
    entropy_upper_estimate,
    finite_sum_rate,
    make_reveal_order,
    reveal_sets_1f,
    reveal_sets_sts,
    sample_reveal_order,
)
from designcount.entropylab import rates

from oracles import PG32, oracle_entropy_over_orders, round_robin

K18 = round_robin(18)
PG32_TS = validate_triple_system(15, PG32)


def _steps(*args):
    """Every (i, star, M, N) that ``reveal_steps(*args)`` yields, with dtypes."""
    return [tuple((x.dtype.str, x.tolist()) for x in step) for step in rates.reveal_steps(*args)]


def _draws(tables, n, reveals, seed):
    """Designs and vertex orders of seeded reveals, as the estimator draws them."""
    rng = np.random.default_rng(seed)
    return (rng.integers(len(tables), size=reveals),
            rng.permuted(np.tile(np.arange(1, n + 1), (reveals, 1)), axis=1))


class TestBatchedKernel:
    @pytest.mark.parametrize("variant,kind,n,reveals", [
        ("sts", "sts", 7, 1000), ("sts", "sts", 9, 1000), ("sts", None, 15, 20),
        ("1f", "1f-labeled", 4, 1000), ("1f", "1f-labeled", 6, 1000), ("1f", None, 18, 20)])
    def test_matches_reveal_oracle(self, variant, kind, n, reveals):
        # the same seeded reveals through the batched kernel and through
        # the literal per-pair sets of reveal.py, each star in vertex order:
        # the sum of log N, and the M (informative pairs) and N (every pair)
        # of each forward pair; at 1f 18 the first stars hold 17 > 16 vertices,
        # at sts 15 (PG(3,2), above the pool gate) 14 > 8
        if kind is None:
            designs = [K18 if variant == "1f" else PG32_TS]
        else:
            designs = enumerate_pool(kind, n).items
        tables = np.array([x.table for x in designs])
        d, vo = _draws(tables, n, reveals, n)
        sums = rates._reveal_sums(variant, tables, d, vo)
        kernel = [{} for _ in range(reveals)]
        for i, star, m_avail, n_avail in rates.reveal_steps(variant, tables, d, vo):
            for b in range(reveals):
                for s, j in enumerate(star[:, b]):
                    kernel[b][int(i[b]), int(j)] = int(m_avail[s, b]), int(n_avail[s, b])
        reveal_sets = reveal_sets_1f if variant == "1f" else reveal_sets_sts
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for b in range(reveals):
            order = make_reveal_order(n, vo[b].tolist(),
                                      {int(vo[b, p]): vo[b, p + 1:].tolist() for p in range(n)})
            sets = {pair: reveal_sets(designs[d[b]], order, *pair) for pair in pairs}
            expected = sum(math.log(rs.N) for rs in sets.values())
            assert abs(sums[b] - expected) <= 1e-12
            assert len(kernel[b]) == len(pairs) // 2
            for pair, (m_avail, n_avail) in kernel[b].items():
                assert n_avail == sets[pair].N
                assert sets[pair].trivial or m_avail == sets[pair].M

    @pytest.mark.parametrize("variant,kind,n", [("sts", "sts", 9), ("1f", "1f-labeled", 6)])
    def test_strided_inputs_read_as_contiguous_copies(self, variant, kind, n):
        # the kernel gathers from flat C-order indices; views in another
        # layout must read as their contiguous copies
        tables = enumerate_pool(kind, n).cells.astype(np.int64)
        d, vo = _draws(tables, n, 300, n + 1)
        big = np.zeros((2 * len(tables), n + 1, n + 1), np.int64)
        big[::2] = tables
        views = big[::2], np.repeat(d, 2)[::2], np.asfortranarray(vo)
        assert not any(x.flags.c_contiguous for x in views)
        assert _steps(variant, *views) == _steps(variant, tables, d, vo)


def _split_steps(variant, tables, d, vo, pieces):
    """``reveal_steps`` and ``_reveal_sums`` run on the batch cut at ``pieces``,
    each step's arrays joined back along the batch axis."""
    cuts = np.split(np.arange(len(vo)), pieces)
    runs = [list(rates.reveal_steps(variant, tables, d[c], vo[c])) for c in cuts]
    steps = [tuple(np.concatenate(x, axis=-1) for x in zip(*step)) for step in zip(*runs)]
    sums = np.concatenate([rates._reveal_sums(variant, tables, d[c], vo[c]) for c in cuts])
    return [tuple((x.dtype.str, x.tolist()) for x in step) for step in steps], sums.tolist()


def _random_tables(variant, n, designs, seed):
    """Symmetric tables with a zero diagonal and values 1..n-1 (1f) or 1..n
    (sts) off it, which set every bit of the kernel's ``full``: no design,
    but the same bit operations."""
    rng = np.random.default_rng(seed)
    tables = rng.integers(1, n if variant == "1f" else n + 1, size=(designs, n + 1, n + 1))
    tables = np.triu(tables, 1)
    tables[:, 0] = 0
    return tables + tables.transpose(0, 2, 1)


class TestBatchesAndMasks:
    @pytest.mark.parametrize("variant,kind,n", [
        ("sts", "sts", 7), ("sts", "sts", 9), ("sts", None, 15), ("1f", "1f-labeled", 6),
        ("1f", None, 16), ("1f", None, 18)])
    def test_batch_width_and_dtype_leave_the_kernel_unchanged(self, variant, kind, n,
                                                              monkeypatch):
        # one batch, the same batch cut into uneven pieces, and every mask
        # dtype wide enough: the same M and N at every step and the same
        # per-reveal sums, bit for bit; sts 15 (PG(3,2)) and the
        # round-robin 1f 16 are the smallest n on int32
        if kind is None:
            designs = [round_robin(n) if variant == "1f" else PG32_TS]
        else:
            designs = enumerate_pool(kind, n).items
        tables = np.array([x.table for x in designs], np.int8)
        d, vo = _draws(tables, n, 600, n + 2)
        natural = rates._mask_dtype(variant, n)
        assert natural == (np.int16 if n < 15 else np.int32)
        want = _split_steps(variant, tables, d, vo, [])
        assert want[0] == _steps(variant, tables, d, vo)
        for dtype in (np.int16, np.int32, np.int64):
            if np.dtype(dtype).itemsize < np.dtype(natural).itemsize:
                continue
            monkeypatch.setattr(rates, "_mask_dtype", lambda variant, n: dtype)
            for pieces in ([], [1], [7, 300, 301], list(range(50, 600, 50))):
                assert _split_steps(variant, tables, d, vo, pieces) == want, (dtype, pieces)

    @pytest.mark.parametrize("variant,n,dtype", [
        ("1f", 15, np.int16), ("1f", 16, np.int32), ("1f", 31, np.int32), ("1f", 32, np.int64),
        ("sts", 14, np.int16), ("sts", 15, np.int32), ("sts", 30, np.int32),
        ("sts", 31, np.int64)])
    def test_each_dtype_boundary_against_the_int64_path(self, variant, n, dtype, monkeypatch):
        # the largest n on each narrow dtype and the smallest past it: the
        # highest bit of full sits just below the sign bit, or just above
        # the narrower dtype's
        assert rates._mask_dtype(variant, n) == dtype
        tables = _random_tables(variant, n, 3, n)
        d, vo = _draws(tables, n, 40, n)
        got = _split_steps(variant, tables, d, vo, [13])
        monkeypatch.setattr(rates, "_mask_dtype", lambda variant, n: np.int64)
        assert got == _split_steps(variant, tables, d, vo, [])

    def test_masks_hold_at_most_62_points(self):
        # 62 sts points, 63 for 1f, whose colors are 1..n-1: each refusal names its own limit
        assert rates._mask_dtype("1f", 63) == rates._mask_dtype("sts", 62) == np.int64
        for variant, n in (("1f", 64), ("sts", 63)):
            with pytest.raises(DesignError,
                               match=f"^reveal masks hold at most {n - 1} points, got n={n}$"):
                rates._mask_dtype(variant, n)

    @pytest.mark.parametrize("variant,kind,n,designs", [
        ("1f", "1f-labeled", 6, 10), ("sts", "sts", 7, 3)])
    def test_order_histogram_batches(self, variant, kind, n, designs, monkeypatch):
        # the histogram is the same for batches of fewer reveals than the
        # n! orders, of a few designs each, and of one
        tables = enumerate_pool(kind, n).cells[:designs]
        want = rates._order_histogram(variant, tables)
        for size in (100, 1000, 5040):
            monkeypatch.setattr(rates, "BLOCK_SIZE", size)
            assert (rates._order_histogram(variant, tables) == want).all(), size


class TestBlockDraws:
    def test_an_int64_shuffle_draws_as_the_int8_one(self):
        # _mc_block shuffles int64 rows in place and casts them to int8:
        # the same rows, and the same generator state after, as in int8
        for n in range(2, 64):
            rows = [np.tile(np.arange(1, n + 1, dtype=dtype), (700, 1))
                    for dtype in (np.int8, np.int64)]
            rngs = [np.random.default_rng(n) for _ in rows]
            for rng, x in zip(rngs, rows):
                rng.permuted(x, axis=1, out=x)
            assert (rows[0] == rows[1]).all(), n
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state, n

    @pytest.mark.parametrize("n,seed,block,count,pinned", [
        (40, 1, 0, 4096, "(4096, 1492.7737293364814, 94299.44876145774)"),
        (40, 5, 2, 1537, "(1537, 1493.0779830855024, 32551.266353458523)"),
        (40, 7, 0, 2, "(2, 1488.2603030068149, 2.670348040915605)"),
        (62, 1, 0, 4096, "(4096, 4338.6095200764075, 215583.76025824586)"),
        (62, 5, 2, 1537, "(1537, 4338.4980902735415, 77303.19889629568)"),
        (62, 7, 0, 2, "(2, 4334.2997351638505, 16.904770120907887)")])
    def test_blocks_on_int64_masks_are_pinned(self, n, seed, block, count, pinned):
        # recorded before the block shuffled int64 rows and reduced its full
        # CHUNKs in one pass: eight full CHUNKs, three and a partial one, a lone partial one
        tables = np.array([round_robin(n).table], np.int8)
        assert rates._mask_dtype("1f", n) == np.int64
        assert repr(rates._mc_block(("1f", tables, n, seed, block, count))) == pinned


class TestAllOrders:
    def test_every_order_as_itertools_gives_it(self):
        for k in range(1, 9):
            got = rates.all_orders(k)
            assert got.dtype == np.int8
            assert got.tolist() == [list(p) for p in itertools.permutations(range(k))], k


class TestPairValues:
    @pytest.mark.parametrize("variant,kind,n", [("sts", "sts", 9), ("1f", "1f-labeled", 6)])
    def test_reads_at_mixed_steps_are_one_step_reads(self, variant, kind, n):
        # reads at mixed steps, one-step reads of a scalar at and of that
        # step broadcast, and the kernel's own step arrays: the same M and N
        tables = enumerate_pool(kind, n).cells
        d, vo = _draws(tables, n, 300, n + 4)
        steps = list(rates.reveal_steps(variant, tables, d, vo))
        rng = np.random.default_rng(n)
        rows = rng.integers(len(vo), size=2000)
        at = rng.integers(n - 1, size=len(rows))
        to = at + 1 + rng.integers(n, size=len(rows)) % (n - 1 - at)   # at < to < n
        mixed = rates.pair_values(variant, tables, d, vo, at, to, rows)
        assert [x.dtype for x in mixed] == [np.uint8, np.uint8]
        for p in range(n - 1):
            r = np.flatnonzero(at == p)
            want = [x[to[r] - p - 1, rows[r]] for x in steps[p][2:]]
            for a in (p, np.full(len(r), p)):
                got = rates.pair_values(variant, tables, d, vo, a, to[r], rows[r])
                assert [x.tolist() for x in got] == [x.tolist() for x in want], (p, a)
            assert [x[r].tolist() for x in mixed] == [x.tolist() for x in want], p
        # every reveal once, by default, at one scalar step and target
        got = rates.pair_values(variant, tables, d, vo, 1, n - 1)
        assert [x.tolist() for x in got] == [x[n - 3].tolist() for x in steps[1][2:]]


class TestRevealLaw:
    @pytest.mark.parametrize("variant,kind,n", [("sts", "sts", 9), ("1f", "1f-labeled", 6)])
    def test_a_pair_reads_only_its_own_star(self, variant, kind, n):
        # the premise of reading stars in vertex order: in reveal.py the M and
        # N of (i, j) stay put when every star order but i's is drawn again
        designs = enumerate_pool(kind, n).items
        reveal_sets = reveal_sets_1f if variant == "1f" else reveal_sets_sts
        rng = np.random.default_rng(n)
        for _ in range(40):
            X = designs[rng.integers(len(designs))]
            order = sample_reveal_order(n, rng=rng)
            for i in range(1, n + 1):
                stars = {v: tuple(rng.permutation(s).tolist()) if v != i else s
                         for v, s in order.star_orders.items()}
                other = make_reveal_order(n, order.vertex_order, stars)
                for j in range(1, n + 1):
                    if j != i:
                        a, b = (reveal_sets(X, o, i, j) for o in (order, other))
                        assert (a.trivial, a.M, a.N) == (b.trivial, b.M, b.N), (i, j)

    def test_reveal_order_positions(self):
        # the oracle's positions, computed once per order, are the vertex order's
        rng = np.random.default_rng(4)
        for n in (2, 5, 9):
            order = sample_reveal_order(n, rng=rng)
            again = make_reveal_order(n, order.vertex_order, order.star_orders)
            for o in (order, again):
                assert o.positions == {v: o.vertex_order.index(v) for v in range(1, n + 1)}
                assert all(o.position(v) == o.positions[v] + 1 for v in range(1, n + 1))
            assert again == order and "positions" not in repr(order)

    def test_monte_carlo_estimates_the_exact_mean(self):
        # the estimator's mean is the exact one, within 3 SE at the bench's
        # sample count for seeds 1-3; every STS(9) is AG(2,3), so one design
        # gives the exact sts value
        sts, onef = enumerate_pool("sts", 9), enumerate_pool("1f-labeled", 6)
        exact = {"sts": entropy_upper_estimate(
                     "sts", 9, 0, pool=Pool("sts", 9, sts.items[:1], sts.cells[:1])).estimate,
                 "1f": entropy_upper_estimate("1f", 6, 0, pool=onef).estimate}
        for seed in (1, 2, 3):
            for variant, pool in (("sts", sts), ("1f", onef)):
                est = entropy_upper_estimate(variant, pool.n, 24576, seed=seed, pool=pool)
                assert abs(est.estimate - exact[variant]) <= 3 * est.se, (seed, est)


class TestExactEvaluation:
    def test_1f_n4_equals_log6(self):
        # at n=4 every reveal multiplies out to exactly the number of
        # colorings, so the bound is tight; 1e-9 covers float roundoff only
        est = entropy_upper_estimate("1f", 4, samples=0)
        assert est.exact and est.se == 0.0
        assert est.estimate >= math.log(6) - 1e-9
        assert abs(est.estimate - math.log(6)) < 1e-9

    def test_too_large_guard(self):
        with pytest.raises(TooLargeError,
                           match="^exact evaluation needs 304819200 reveals, above the cap 5000000$"):
            entropy_upper_estimate("sts", 9, samples=0)

    def test_the_cap_counts_reveals(self, monkeypatch):
        # designs x n! reveals: 14 STS(9)s (5,080,320) are refused, 12
        # (4,354,560) admitted; their enumeration is stubbed out
        pool = enumerate_pool("sts", 9)
        with pytest.raises(TooLargeError,
                           match="^exact evaluation needs 5080320 reveals, above the cap 5000000$"):
            entropy_upper_estimate("sts", 9, 0, pool=Pool("sts", 9, pool.items[:14],
                                                          pool.cells[:14]))
        monkeypatch.setattr(rates, "_order_histogram", lambda variant, tables: [])
        est = entropy_upper_estimate("sts", 9, 0, pool=Pool("sts", 9, pool.items[:12],
                                                            pool.cells[:12]))
        assert est.exact and est.designs == 12

    @pytest.mark.parametrize("variant,kind,n,designs,value", [
        ("1f", "1f-labeled", 4, None, "1.791759469228055"),
        ("1f", "1f-labeled", 6, None, "7.869651548979398"),
        ("sts", "sts", 7, None, "3.4011973816621555"),
        ("sts", "sts", 9, 1, "7.873111619427152")])
    def test_exact_values_are_pinned(self, variant, kind, n, designs, value):
        # every exact value, bit for bit; one STS(9) stands for all 840
        pool = enumerate_pool(kind, n)
        if designs is not None:
            pool = Pool(kind, n, pool.items[:designs], pool.cells[:designs])
        assert repr(entropy_upper_estimate(variant, n, 0, pool=pool).estimate) == value

    def test_1f_n4_matches_order_enumeration(self):
        pool = enumerate_pool("1f-labeled", 4)
        oracle = oracle_entropy_over_orders("1f", pool.items, 4)
        assert abs(entropy_upper_estimate("1f", 4, samples=0).estimate - oracle) <= 1e-12

    def test_sts7_equals_log30(self):
        # every reveal of an STS(7) multiplies out to the count
        est = entropy_upper_estimate("sts", 7, samples=0)
        assert est.exact and abs(est.estimate - math.log(30)) <= 1e-12

    def test_1f6_within_3se_of_monte_carlo(self):
        pool = enumerate_pool("1f-labeled", 6)
        exact = entropy_upper_estimate("1f", 6, samples=0, pool=pool)
        mc = entropy_upper_estimate("1f", 6, samples=20_000, seed=1, pool=pool)
        assert exact.exact and abs(exact.estimate - mc.estimate) <= 3 * mc.se
        assert exact.estimate >= math.log(len(pool))

    @pytest.mark.parametrize("variant,kind,n", [("1f", "1f-labeled", 6), ("sts", "sts", 7)])
    def test_pair_sets_match_order_enumeration(self, variant, kind, n):
        # the histogram of N over every vertex order equals, summed over the
        # ordered pairs (i, j), the law of N over every vertex order with i
        # before j and every order of i's star, read by reveal.py: a set E
        # before i stands for |E|! orders of E and (n-1-|E|)! of the vertices
        # after i, one for each order of i's star
        X = enumerate_pool(kind, n).items[3]
        reveal_sets = reveal_sets_1f if variant == "1f" else reveal_sets_sts
        hist = rates._order_histogram(variant, np.array([X.table]))
        assert hist.sum() == math.factorial(n) * n * (n - 1) // 2
        want = np.zeros_like(hist)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            others = [v for v in range(1, n + 1) if v not in (i, j)]
            for e in range(len(others) + 1):
                for before in itertools.combinations(others, e):
                    vo = (*before, i, *(v for v in range(1, n + 1)
                                        if v != i and v not in before))
                    for star in itertools.permutations(vo[e + 1:]):
                        order = make_reveal_order(
                            n, vo, {v: vo[p + 1:] if v != i else star
                                    for p, v in enumerate(vo)})
                        want[reveal_sets(X, order, i, j).N] += math.factorial(e)
        assert (hist == want).all()


class TestMonteCarloEstimates:
    def test_sts7_above_log_count(self):
        est = entropy_upper_estimate("sts", 7, samples=10_000, seed=42)
        assert est.estimate >= math.log(30) - 3 * est.se - 1e-9

    def test_sts9_above_log_count(self):
        est = entropy_upper_estimate("sts", 9, samples=10_000, seed=42)
        logc = math.log(count_triple_systems(9).count)
        assert est.estimate >= logc - 3 * est.se
        assert est.se > 0

    def test_1f6_above_labeled_log_count(self):
        est = entropy_upper_estimate("1f", 6, samples=10_000, seed=42)
        logc = math.log(count_one_factorizations(6, labeled=True).count)
        assert est.estimate >= logc - 3 * est.se

    def test_empty_pool(self):
        with pytest.raises(EmptyPoolError):
            entropy_upper_estimate("sts", 5, samples=100)

    def test_unknown_variant(self):
        with pytest.raises(DesignError, match="^unknown variant 'latin'$"):
            entropy_upper_estimate("latin", 4, samples=100)

    def test_reusing_a_pool(self):
        pool = enumerate_pool("sts", 7)
        a = entropy_upper_estimate("sts", 7, samples=500, seed=1, pool=pool)
        b = entropy_upper_estimate("sts", 7, samples=500, seed=1)
        assert a.estimate == b.estimate and a.se == b.se

    @pytest.mark.parametrize("variant, kind, n", [("sts", "sts", 7), ("1f", "1f-labeled", 4)])
    def test_a_pool_without_cells_reads_its_items(self, variant, kind, n):
        # the estimator reads the int8 cells, or the items' tables when
        # there are none (a pool loaded line by line or made by hand)
        pool = enumerate_pool(kind, n)
        assert (pool.cells.astype(np.int64) == np.array([x.table for x in pool.items])).all()
        by_hand = Pool(kind, n, pool.items)
        for samples in (0, 300):
            a, b = (entropy_upper_estimate(variant, n, samples, seed=4, pool=p)
                    for p in (pool, by_hand))
            assert (a.estimate, a.se) == (b.estimate, b.se)

    def test_rejects_a_pool_of_another_kind_or_n(self):
        pool = enumerate_pool("sts", 7)
        with pytest.raises(DesignError, match="^pool holds sts n=7, wanted 1f-labeled n=7$"):
            entropy_upper_estimate("1f", 7, 100, pool=pool)
        with pytest.raises(DesignError, match="^pool holds sts n=7, wanted sts n=9$"):
            entropy_upper_estimate("sts", 9, 100, pool=pool)


class TestReproducibility:
    def test_identical_across_repeats(self):
        a = entropy_upper_estimate("1f", 6, samples=5_000, seed=7)
        b = entropy_upper_estimate("1f", 6, samples=5_000, seed=7)
        assert (a.estimate, a.se) == (b.estimate, b.se)

    def test_identical_across_jobs(self, monkeypatch):
        # with no serial threshold, jobs 2 and 8 run the three blocks in workers
        monkeypatch.setattr(rates, "SERIAL_READS", 0)
        runs = [entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=j)
                for j in (1, 2, 8)]
        assert len({(r.estimate, r.se) for r in runs}) == 1

    def test_small_estimates_start_no_pool(self, recording_executor, monkeypatch):
        # the bench's size, 24,576 samples, is below the threshold at sts 9
        # (884,736 pair reads) and 1f 6; 131,072 samples (4,718,592 pair
        # reads) are above it at sts 9
        requested = recording_executor
        for variant, n, samples, want in (("sts", 9, 24_576, []), ("1f", 6, 24_576, []),
                                          ("sts", 9, 131_072, [2])):
            del requested[:]
            entropy_upper_estimate(variant, n, samples, seed=3, jobs=2)
            assert requested == want, (variant, samples)
        del requested[:]
        monkeypatch.setattr(rates, "SERIAL_READS", 0)
        entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=2)
        assert requested == [2]

    def test_absurd_jobs_clamped(self, recording_executor, monkeypatch):
        requested = recording_executor   # os.cpu_count() reads 4
        monkeypatch.setattr(rates, "SERIAL_READS", 0)
        a = entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=5000)
        b = entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=1)
        assert requested == [3]                     # one worker per block
        assert (a.estimate, a.se) == (b.estimate, b.se)

    @pytest.mark.parametrize("variant,n,seed,pinned", [
        ("sts", 9, 11, "(7.8714895335632, 0.0046751819607445295)"),
        ("sts", 9, 2026, "(7.872268733969383, 0.004672790950213568)"),
        ("1f", 6, 11, "(7.869286463189216, 0.003859461254574113)"),
        ("1f", 6, 2026, "(7.8716534979860056, 0.003861494503550328)")])
    def test_pinned_at_six_blocks(self, variant, n, seed, pinned):
        # the bench's sample count: six blocks, merged in index order
        for jobs in (1, 2):
            est = entropy_upper_estimate(variant, n, 24576, seed=seed, jobs=jobs)
            assert repr((est.estimate, est.se)) == pinned

    @pytest.mark.parametrize("samples,seed,pinned", [
        (513, 1, "(7.88863099613242, 0.03268500219570237)"),
        (513, 4, "(7.814926514799159, 0.03323993953834374)"),
        (4097, 2, "(7.872628271982259, 0.01136182494497591)"),
        (4097, 3, "(7.890166938560651, 0.011419064465745768)")])
    def test_pinned_with_a_lone_reveal(self, samples, seed, pinned):
        # the last CHUNK of the last block holds one reveal, whose eight-term
        # first step used to be summed on its own
        est = entropy_upper_estimate("sts", 9, samples, seed=seed)
        assert repr((est.estimate, est.se)) == pinned

    def test_seed_changes_result(self):
        a = entropy_upper_estimate("sts", 9, samples=3_000, seed=1)
        b = entropy_upper_estimate("sts", 9, samples=3_000, seed=2)
        assert a.estimate != b.estimate


class TestFiniteSumRates:
    def test_gap_contracts_both_variants(self):
        for variant in ("1f", "sts"):
            r3 = finite_sum_rate(variant, 1_000)
            r4 = finite_sum_rate(variant, 10_000)
            assert r4.gap < r3.gap
            assert r4.gap < 0.1

    def test_frozen_gap_values(self):
        # direct-summation values, pinned at build time
        assert math.isclose(finite_sum_rate("1f", 1_000).gap, 0.0078108439,
                            rel_tol=1e-6)
        assert math.isclose(finite_sum_rate("1f", 10_000).gap, 0.0010179247,
                            rel_tol=1e-6)
        assert math.isclose(finite_sum_rate("sts", 1_000).gap, 0.0028499189,
                            rel_tol=1e-6)
        assert math.isclose(finite_sum_rate("sts", 10_000).gap, 0.0005009281,
                            rel_tol=1e-6)

    def test_reference_is_log_n_minus_1(self):
        r = finite_sum_rate("1f", 100)
        assert r.reference == math.log(100) - 1

    def test_needs_n_at_least_7(self):
        with pytest.raises(DesignError):
            finite_sum_rate("1f", 6)

    def test_unknown_variant(self):
        with pytest.raises(DesignError):
            finite_sum_rate("latin", 100)
