"""Chain-rule estimates against exact log-counts; finite-sum convergence."""

import itertools
import math

import numpy as np
import pytest

from designcount.core import DesignError, validate_edge_coloring
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
)
from designcount.entropylab import rates

from oracles import oracle_entropy_over_orders

# the round-robin 1-factorization of K_18: color c + 1 joins c to infinity (18)
# and c - t to c + t (mod 17), with residue r as vertex r + 1
K18 = validate_edge_coloring(18, {
    tuple(sorted(((c - t) % 17 + 1, (c + t) % 17 + 1))) if t else (c + 1, 18): c + 1
    for c in range(17) for t in range(9)})


def _steps(*args):
    """Every (i, star, M, N) that ``reveal_steps(*args)`` yields, with dtypes."""
    return [tuple((x.dtype.str, x.tolist()) for x in step) for step in rates.reveal_steps(*args)]


def _draws(tables, n, reveals, seed):
    """Designs, vertex orders and star keys of seeded reveals, as the estimator draws them."""
    rng = np.random.default_rng(seed)
    return (rng.integers(len(tables), size=reveals),
            rng.permuted(np.tile(np.arange(1, n + 1), (reveals, 1)), axis=1),
            rng.random((reveals, n, n)))


class TestBatchedKernel:
    @pytest.mark.parametrize("variant,kind,n", [
        ("sts", "sts", 7), ("sts", "sts", 9),
        ("1f", "1f-labeled", 4), ("1f", "1f-labeled", 6)])
    def test_matches_reveal_oracle(self, variant, kind, n):
        # the same seeded reveals through the batched kernel and through
        # the literal per-pair sets of reveal.py: the sum of log N, and the
        # M (informative pairs) and N (every pair) of each forward pair
        pool = enumerate_pool(kind, n)
        tables = np.array([x.table for x in pool.items])
        rng = np.random.default_rng(n)
        reveals = 1000
        d = rng.integers(len(pool), size=reveals)
        vo = rng.permuted(np.tile(np.arange(1, n + 1), (reveals, 1)), axis=1)
        keys = rng.random((reveals, n, n))
        sums = rates._reveal_sums(variant, tables, d, vo, keys)
        kernel = [{} for _ in range(reveals)]
        for i, star, m_avail, n_avail in rates.reveal_steps(variant, tables, d, vo, keys):
            for b in range(reveals):
                for s, j in enumerate(star[b]):
                    kernel[b][int(i[b]), int(j)] = int(m_avail[b, s]), int(n_avail[b, s])
        reveal_sets = reveal_sets_1f if variant == "1f" else reveal_sets_sts
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for b in range(reveals):
            stars = {int(vo[b, p]): vo[b, p + 1:][np.argsort(keys[b, p, p + 1:])].tolist()
                     for p in range(n)}
            order = make_reveal_order(n, vo[b].tolist(), stars)
            X = pool.items[d[b]]
            sets = {pair: reveal_sets(X, order, *pair) for pair in pairs}
            expected = sum(math.log(rs.N) for rs in sets.values())
            assert abs(sums[b] - expected) <= 1e-12
            assert len(kernel[b]) == len(pairs) // 2
            for pair, (m_avail, n_avail) in kernel[b].items():
                assert n_avail == sets[pair].N
                assert sets[pair].trivial or m_avail == sets[pair].M

    @pytest.mark.parametrize("variant,kind,n", [
        ("sts", "sts", 9), ("1f", "1f-labeled", 6), ("1f", None, 18)])
    def test_equal_keys_keep_vertex_order(self, variant, kind, n):
        # a star sorts by its keys, ties in vertex order: all-zero keys read
        # as keys None, and keys in {0, 1, 2} as the same keys with the
        # position as a second key; at 1f 18 the first stars hold 17 > 16 vertices
        tables = (np.array([K18.table]) if kind is None
                  else enumerate_pool(kind, n).cells.astype(np.int64))
        d, vo, keys = _draws(tables, n, 300 if kind else 20, n)
        assert _steps(variant, tables, d, vo, np.zeros_like(keys)) == \
            _steps(variant, tables, d, vo, None)
        tied = np.floor(3 * keys)
        assert _steps(variant, tables, d, vo, tied) == \
            _steps(variant, tables, d, vo, tied * n + np.arange(n))

    @pytest.mark.parametrize("variant,kind,n", [("sts", "sts", 9), ("1f", "1f-labeled", 6)])
    def test_strided_inputs_read_as_contiguous_copies(self, variant, kind, n):
        # the kernel gathers from flat C-order indices; views in another
        # layout must read as their contiguous copies
        tables = enumerate_pool(kind, n).cells.astype(np.int64)
        d, vo, keys = _draws(tables, n, 300, n + 1)
        big = np.zeros((2 * len(tables), n + 1, n + 1), np.int64)
        big[::2] = tables
        wide = np.zeros((len(vo), n, 2 * n))
        wide[:, :, ::2] = keys
        views = big[::2], np.repeat(d, 2)[::2], np.asfortranarray(vo), wide[:, :, ::2]
        assert not any(x.flags.c_contiguous for x in views)
        assert _steps(variant, *views) == _steps(variant, tables, d, vo, keys)
        assert _steps(variant, *views[:3], None) == _steps(variant, tables, d, vo, None)


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
                           match="^exact evaluation needs 132269760 terms, above the cap 2000000$"):
            entropy_upper_estimate("sts", 9, samples=0)

    def test_1f_n4_matches_order_enumeration(self):
        pool = enumerate_pool("1f-labeled", 4)
        oracle = oracle_entropy_over_orders("1f", np.array([x.table for x in pool.items]), 4)
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

    @pytest.mark.parametrize("variant,kind,n,pairs", [
        ("1f", "1f-labeled", 6, [(1, 2), (2, 1), (3, 6), (6, 4), (5, 1)]),
        ("sts", "sts", 7, [(1, 2), (2, 1), (3, 6), (7, 4)])])
    def test_pair_sets_match_order_enumeration(self, variant, kind, n, pairs):
        # the set-weighted mean of log N of one pair equals its mean over every
        # vertex order with i before j and every order of i's star
        X = enumerate_pool(kind, n).items[3]
        tables = np.array([X.table])
        vos = np.array(list(itertools.permutations(range(1, n + 1))))
        pos = np.argsort(vos, axis=1)
        for i, j in pairs:
            hist = rates._set_histogram(variant, tables, [(i, j)])
            assert hist.sum() == math.factorial(n) // 2
            by_sets = math.fsum(int(c) * math.log(v) for v, c in enumerate(hist) if c) / hist.sum()
            sums = []
            for p in range(n - 1):
                vo = vos[(pos[:, i - 1] == p) & (pos[:, j - 1] > p)]
                stars = np.array(list(itertools.permutations(range(n - 1 - p))))
                keys = np.zeros((len(stars), n, n))
                keys[:, p, p + 1:] = np.argsort(stars, axis=1)
                per = max(1, 2 ** 14 // len(stars))
                for start in range(0, len(vo), per):
                    block = vo[start:start + per]
                    rows = np.repeat(block, len(stars), axis=0)
                    steps = rates.reveal_steps(variant, tables, np.zeros(len(rows), np.intp),
                                               rows, np.tile(keys, (len(block), 1, 1)))
                    _, star, _, n_avail = next(itertools.islice(steps, p, None))
                    sums.append(np.log(n_avail[star == j].astype(np.float64)).sum() / len(stars))
            by_orders = math.fsum(sums) / (math.factorial(n) // 2)
            assert abs(by_sets - by_orders) <= 1e-12, (i, j)


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

    def test_reusing_a_pool(self):
        pool = enumerate_pool("sts", 7)
        a = entropy_upper_estimate("sts", 7, samples=500, seed=1, pool=pool)
        b = entropy_upper_estimate("sts", 7, samples=500, seed=1)
        assert a.estimate == b.estimate and a.se == b.se

    @pytest.mark.parametrize("variant, kind, n", [("sts", "sts", 7), ("1f", "1f-labeled", 4)])
    def test_a_pool_without_cells_reads_its_items(self, variant, kind, n):
        # the estimator reads the cells as int64, or the items' tables when
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

    def test_identical_across_jobs(self):
        runs = [entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=j)
                for j in (1, 2, 8)]
        assert len({(r.estimate, r.se) for r in runs}) == 1

    def test_absurd_jobs_clamped(self, recording_executor):
        requested = recording_executor   # os.cpu_count() reads 4
        a = entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=5000)
        b = entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=1)
        assert requested == [3]                     # one worker per block
        assert (a.estimate, a.se) == (b.estimate, b.se)

    @pytest.mark.parametrize("variant,n,seed,pinned", [
        ("sts", 9, 11, "(7.868728912251259, 0.0039124383299511956)"),
        ("sts", 9, 2026, "(7.872024735997517, 0.003912629958328047)"),
        ("1f", 6, 11, "(7.871917642598412, 0.004174608499357292)"),
        ("1f", 6, 2026, "(7.866067702567111, 0.004193534401816992)")])
    def test_pinned_at_six_blocks(self, variant, n, seed, pinned):
        # the bench's sample count: six blocks, merged in index order
        for jobs in (1, 2):
            est = entropy_upper_estimate(variant, n, 24576, seed=seed, jobs=jobs)
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
