"""Exact counters against independent naive oracles, and pool behavior."""

import collections
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import random

import numpy as np
import pytest

from designcount import core, enumeration
from designcount.core import (
    DesignError,
    LatinSquare,
    dumps,
    loads,
    to_json_dict,
    to_latin_cube,
    validate_edge_coloring,
    validate_triple_system,
)
from designcount.enumeration import (
    EmptyPoolError,
    Pool,
    PoolTooLargeError,
    SearchConfig,
    count_latin_squares,
    count_one_factorizations,
    count_triple_systems,
    enumerate_pool,
    pool_from_jsonl,
    pool_to_jsonl,
    sample_uniform,
    worker_count,
)
from designcount.entropylab import entropy_upper_estimate

import oracles


class TestTripleSystemCounts:
    def test_small_values(self):
        assert count_triple_systems(1).count == 1
        assert count_triple_systems(3).count == 1
        assert count_triple_systems(5).count == 0   # 5 is not 1 or 3 mod 6
        assert count_triple_systems(7).count == 30
        assert count_triple_systems(9).count == 840

    def test_against_naive_oracle(self):
        for n in (3, 7, 9):
            assert count_triple_systems(n).count == oracles.oracle_count_sts(n)

    def test_infeasible_returns_zero_not_error(self):
        for n in (2, 4, 6, 8, 11):
            r = count_triple_systems(n)
            assert r.count == 0 and r.complete

    def test_relabeling_fixes_the_pool(self):
        # the family of labeled systems is invariant under any relabeling
        import random
        rnd = random.Random(7)
        pool = {frozenset(ts.triples) for ts in enumerate_pool("sts", 7).items}
        for _ in range(3):
            sigma = list(range(1, 8))
            rnd.shuffle(sigma)
            relabeled = {
                frozenset(frozenset(sigma[v - 1] for v in t) for t in system)
                for system in pool
            }
            assert relabeled == pool

    def test_node_budget_partial(self):
        r = count_triple_systems(13, SearchConfig(node_budget=500))
        assert not r.complete
        assert r.nodes == 500


class TestOneFactorizationCounts:
    def test_small_values(self):
        assert count_one_factorizations(2).count == 1
        assert count_one_factorizations(3).count == 0
        assert count_one_factorizations(4, labeled=False).count == 1
        assert count_one_factorizations(4, labeled=True).count == 6
        assert count_one_factorizations(6, labeled=False).count == 6
        assert count_one_factorizations(6, labeled=True).count == 720
        assert count_one_factorizations(8, labeled=False).count == 6240

    def test_against_matching_oracle(self):
        for n in (2, 4, 6, 8):
            assert (count_one_factorizations(n, labeled=False).count
                    == oracles.oracle_count_1f_unordered(n))

    def test_labeled_identity_against_oracle(self):
        # the oracle enumerates ordered matching sequences independently
        for n in (2, 4, 6):
            labeled = oracles.oracle_count_1f_labeled(n)
            unordered = count_one_factorizations(n, labeled=False).count
            assert labeled == unordered * math.factorial(n - 1)
            assert count_one_factorizations(n, labeled=True).count == labeled

    def test_labeled_bruteforce_n4(self):
        assert oracles.oracle_count_1f_labeled_bruteforce(4) == 6


class TestLatinCounts:
    def test_small_values(self):
        assert [count_latin_squares(n).count for n in (1, 2, 3, 4, 5)] == \
            [1, 2, 12, 576, 161280]

    def test_against_bruteforce(self):
        for n in (1, 2, 3):
            assert count_latin_squares(n).count == oracles.oracle_count_latin_bruteforce(n)

    def test_against_reduced_oracle(self):
        for n in (4, 5):
            assert count_latin_squares(n).count == oracles.oracle_count_latin_reduced(n)

    def test_against_permanent_expansion(self):
        assert count_latin_squares(4).count == oracles.oracle_count_latin_permanent(4)
        assert count_latin_squares(5).count == oracles.oracle_count_latin_permanent(5)


@pytest.mark.parametrize("kind, count", [("sts", count_triple_systems),
                                         ("1f", count_one_factorizations),
                                         ("latin", count_latin_squares)])
@pytest.mark.parametrize("n", [True, 4.0, 7.0])
def test_counts_refuse_an_n_that_is_not_an_int(kind, count, n):
    # True and 4.0 equal an int n, so a count would report n as true or 4.0
    with pytest.raises(DesignError) as info:
        count(n)
    assert type(info.value) is DesignError
    assert str(info.value) == f"{kind} design: n must be an int, got {n!r}"


@pytest.fixture
def split_counts(monkeypatch):
    """Make every parallel count split into subtrees, however small."""
    monkeypatch.setattr(enumeration, "SERIAL_NODES", 1)


class TestDeterminismUnderParallelism:
    def test_counts_and_nodes_identical_across_jobs(self, split_counts):
        cases = [
            lambda cfg: count_triple_systems(7, cfg),
            lambda cfg: count_triple_systems(9, cfg),
            lambda cfg: count_one_factorizations(8, labeled=False, config=cfg),
            lambda cfg: count_latin_squares(4, cfg),
        ]
        for case in cases:
            results = [case(SearchConfig(jobs=j)) for j in (1, 2, 8)]
            assert len({r.count for r in results}) == 1
            assert len({r.nodes for r in results}) == 1


class TestPinnedStarts:
    """Every count runs one start per cycle type; the full start is the
    reference they are checked against."""

    # kind, n, leaves per start, nodes from the full start, nodes of the count
    CASES = [
        ("sts", 1, (1,), 0, 0), ("sts", 3, (1,), 1, 0), ("sts", 7, (1,), 155, 2),
        ("sts", 9, (1,), 8862, 16),
        ("latin", 1, (1,), 1, 0), ("latin", 2, (1,), 8, 0), ("latin", 3, (1,), 93, 2),
        ("latin", 4, (1, 2), 5680, 20), ("latin", 5, (6, 4), 2314165, 141),
        ("1f-labeled", 2, (1,), 1, 0), ("1f-labeled", 4, (1,), 33, 1),
        ("1f-labeled", 6, (1, 0), 10285, 12),
    ]

    @staticmethod
    @functools.cache
    def _full_search(kind, n):
        """The reference: the full start, run serially through the kernel."""
        kernel, args, state, depth, full_depth = enumeration._start(kind, n)
        budget = enumeration._Budget(None)
        return kernel(*args, state, depth, full_depth, budget, None, None), budget.nodes

    @pytest.mark.parametrize("jobs", [1, 2, 8])
    @pytest.mark.parametrize("kind, n, leaves, full_nodes, nodes", CASES)
    def test_cycle_type_count_is_the_full_count(self, kind, n, leaves, full_nodes, nodes, jobs,
                                                split_counts):
        full_count, searched = self._full_search(kind, n)
        result = enumeration._count(kind, n, SearchConfig(jobs=jobs))
        multipliers = [m for _, m in enumeration._starts(kind, n)]
        assert len(multipliers) == len(leaves)
        assert result.count == sum(t * m for t, m in zip(leaves, multipliers)) == full_count
        assert (searched, result.nodes) == (full_nodes, nodes)

    @pytest.mark.parametrize("n, reduced", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 56), (6, 9408)])
    def test_latin_counts_equal_the_reduced_square_start(self, n, reduced):
        # R(n), OEIS A000315, from the reduced-square start that _pool_entries expands
        kernel, args, state, depth, full_depth = enumeration._start(
            "latin", n, enumeration._reduced(n))
        leaves = kernel(*args, state, depth, full_depth, enumeration._Budget(None), None, None)
        assert leaves == reduced
        assert count_latin_squares(n).count == reduced * math.factorial(n) * math.factorial(n - 1)

    def test_multipliers(self):
        def multipliers(kind, n):
            return [m for _, m in enumeration._starts(kind, n)]
        # n!(n-2)! D_c and (n-1)! D_c(n-2); the sts ones are checked with m_l below
        assert multipliers("latin", 5) == [120 * 6 * 24, 120 * 6 * 20]
        assert multipliers("1f-labeled", 8) == [5040 * d for d in (120, 90, 40, 15)]
        assert [multipliers("sts", n) for n in (1, 3)] == [[1], [1]]
        assert [multipliers("latin", n) for n in (1, 2)] == [[1], [2]]
        assert [multipliers("1f-labeled", n) for n in (2, 4)] == [[1], [6]]
        # with no part fixed a search starts at depth 0 of every cell
        assert enumeration._start("latin", 5)[3:] == (0, 25)

    def test_derangement_classes_against_brute_force(self):
        # D_c = m!/(prod of parts * prod of multiplicities!) over the
        # permutations of m points, and their sum is OEIS A000166
        def cycle_type(perm):
            seen, lengths = set(), []
            for start in range(len(perm)):
                length, v = 0, start
                while v not in seen:
                    seen.add(v)
                    v, length = perm[v], length + 1
                if length:
                    lengths.append(length)
            return tuple(sorted(lengths, reverse=True))

        for m in range(8):
            by_type = collections.Counter(cycle_type(p) for p in itertools.permutations(range(m)))
            types = list(enumeration._cycle_types(m))
            assert {c: by_type[c] for c in types} == {
                c: enumeration._class_size(c) for c in types}
            assert sum(by_type[c] for c in types) == sum(
                n for c, n in by_type.items() if 1 not in c)
            assert all(cycle_type(enumeration._permutation(c)) == c for c in types)
        assert [sum(map(enumeration._class_size, enumeration._cycle_types(m)))
                for m in range(10)] == [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496]

    @staticmethod
    def _matching_type(n, mu):
        """The cycle type of mu + nu on 4..n, nu = {4,5}, {6,7}, ...: the
        half-lengths of its alternating cycles."""
        seen, lengths = set(), []
        for start in range(4, n + 1, 2):
            length, v = 0, start
            while v not in seen:
                seen.update((v, v ^ 1))
                v, length = mu[v ^ 1], length + 1
            if length:
                lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def test_matching_classes_against_brute_force(self):
        # m_l = k!/(prod l_i! * prod multiplicities!) * prod (l_i - 1)! 2^(l_i - 1),
        # and the sum over l is OEIS A053871: 2, 8, 544, 6,040 at sts 7, 9, 13, 15
        def m_closed(parts):
            k = sum(parts)
            size = math.factorial(k) // math.prod(
                [*map(math.factorial, parts), *(math.factorial(parts.count(p)) for p in set(parts))])
            return size * math.prod(math.factorial(p - 1) * 2 ** (p - 1) for p in parts)

        def matchings(points):
            if not points:
                yield {}
                return
            a = points[0]
            for b in points[1:]:
                for rest in matchings([p for p in points[1:] if p != b]):
                    yield {a: b, b: a, **rest}

        double_factorial = {7: 15, 9: 105, 13: 10395, 15: 135135}
        for n, total in ((7, 2), (9, 8), (13, 544), (15, 6040)):
            types = list(enumeration._cycle_types((n - 3) // 2))
            assert sum(map(m_closed, types)) == total
            assert [m for _, m in enumeration._starts("sts", n)] == [
                double_factorial[n] * m_closed(c) for c in types]
            if n <= 13:   # 945 matchings of 10 points
                by_type = collections.Counter(
                    self._matching_type(n, mu) for mu in matchings(list(range(4, n + 1)))
                    if all(mu[v] != v ^ 1 for v in mu))
                assert by_type == {c: m_closed(c) for c in types}

    @pytest.mark.parametrize("n", [7, 9, 13, 15])
    def test_sts_starts_fix_one_matching_of_each_type(self, n):
        # point 2's other triples {2, a, mu(a)}: read mu off each start state
        for (fixed, _), parts in zip(enumeration._starts("sts", n),
                                     enumeration._cycle_types((n - 3) // 2)):
            covered = enumeration._start("sts", n, fixed)[2]
            mu = {a: next(b for b in range(4, n + 1) if covered[a] >> b & 1 and b != a ^ 1)
                  for a in range(4, n + 1)}
            assert all(covered[2] >> a & 1 for a in range(3, n + 1))
            assert self._matching_type(n, mu) == parts

    @pytest.mark.parametrize("kind, n", [("sts", 13), ("latin", 6), ("1f-labeled", 8)])
    def test_leaves_do_not_depend_on_the_representative(self, kind, n):
        # T(c) counts the designs through a start's parts, so the parts moved
        # by a symmetry that keeps the first part give the same leaves
        def leaves(parts):
            kernel, args, state, depth, full_depth = enumeration._start(kind, n, parts)
            return kernel(*args, state, depth, full_depth, enumeration._Budget(None), None, None)

        rng = random.Random(n)
        moved = 0
        for parts, _ in enumeration._starts(kind, n):
            if kind == "sts":   # fix 1, 2, 3 and map point 1's star onto itself
                sigma = {1: 1, 2: 2, 3: 3}
                pairs = [(j, j + 1) for j in range(4, n, 2)]
                for j, pair in zip(range(4, n, 2), rng.sample(pairs, len(pairs))):
                    sigma[j], sigma[j + 1] = rng.sample(pair, 2)
                relabeled = tuple(tuple(sigma[x] for x in triple) for triple in parts)
            elif kind == "latin":   # one permutation of the columns and the symbols
                sigma = rng.sample(range(n), n)
                relabeled = tuple((r, n + sigma[c - n], sigma[v - 1] + 1) for r, c, v in parts)
            else:   # fix vertices 1 and 2, and color c becomes sigma(c+1)-1
                sigma = [0, 1, 2, *rng.sample(range(3, n + 1), n - 2)]
                relabeled = tuple((*sorted((sigma[a], sigma[b])), sigma[v + 1] - 1)
                                  for a, b, v in parts)
            moved += set(relabeled) != set(parts)
            assert leaves(relabeled) == leaves(parts)
        assert moved

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sts_13_and_its_orbit_counting_identity(self, jobs, split_counts):
        # the two STS(13) classes have automorphism groups of orders 39 and 6
        # (Colbourn-Rosa, Triple Systems), so STS(13) = 13!/39 + 13!/6
        r = count_triple_systems(13, SearchConfig(jobs=jobs))
        assert r.complete and r.count == 1_197_504_000
        assert r.count == math.factorial(13) // 39 + math.factorial(13) // 6
        assert r.nodes == 31_728

    def test_latin_6_from_reduced_squares(self):
        # OEIS A002860 L(6) = 812,851,200 from A000315 R(6) = 9,408
        r = count_latin_squares(6)
        assert r.complete and r.count == 812_851_200 == 9408 * math.factorial(6) * 120
        assert r.nodes == 13_036


class TestNodeBudget:
    # a partial count is the pinned leaves found, never scaled by the multiplier
    @pytest.mark.parametrize("count, budget, partial", [
        (lambda cfg: count_latin_squares(5, cfg), 100, 7),        # over two starts
        (lambda cfg: count_one_factorizations(8, labeled=False, config=cfg), 500, 28),
        (lambda cfg: count_one_factorizations(8, labeled=True, config=cfg), 500, 28),
        (lambda cfg: count_triple_systems(13, cfg), 5000, 57),    # not scaled
    ], ids=["latin5", "1f8", "1f8-labeled", "sts13"])
    def test_partial_for_every_family(self, count, budget, partial):
        r = count(SearchConfig(node_budget=budget))
        assert not r.complete
        assert r.nodes == budget
        assert r.count == partial

    @pytest.mark.parametrize("count, n, nodes, total", [
        (count_triple_systems, 9, 16, 840),
        (count_latin_squares, 5, 141, 161_280),
    ], ids=["sts9", "latin5"])
    def test_budget_is_exhausted_only_by_a_refused_node(self, count, n, nodes, total):
        # a budget equal to the node total completes the search
        r = count(n, SearchConfig(node_budget=nodes))
        assert (r.complete, r.count, r.nodes) == (True, total, nodes)
        r = count(n, SearchConfig(node_budget=nodes - 1))
        assert not r.complete and r.nodes == nodes - 1 and r.count < total


class TestWorkerClamp:
    def test_worker_count(self, recording_executor):   # os.cpu_count() reads 4
        assert worker_count(5000, 100) == 4
        assert worker_count(5000, 3) == 3
        assert worker_count(2, 100) == 2
        assert worker_count(5000, 0) == 1

    def test_absurd_jobs_start_at_most_cpu_count_workers(self, recording_executor,
                                                         split_counts):
        requested = recording_executor
        cfg = SearchConfig(jobs=5000)
        assert count_triple_systems(9, cfg).count == 840
        assert count_one_factorizations(8, config=cfg).count == 6240
        assert count_latin_squares(5, cfg).count == 161_280
        assert requested == [4, 4, 4]

    def test_one_task_frontiers_start_no_worker(self, recording_executor, split_counts):
        requested = recording_executor
        assert count_one_factorizations(4, config=SearchConfig(jobs=2)).count == 1
        assert count_latin_squares(3, SearchConfig(jobs=8)).count == 12
        assert requested == []

    def test_one_cpu_starts_no_worker(self, recording_executor, monkeypatch, split_counts):
        requested = recording_executor
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert count_triple_systems(9, SearchConfig(jobs=2)).count == 840
        a = entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=2)
        b = entropy_upper_estimate("sts", 7, samples=9_000, seed=3, jobs=1)
        assert (a.estimate, a.se) == (b.estimate, b.se)
        assert requested == []

    def test_small_parallel_counts_stay_in_this_process(self, recording_executor):
        requested = recording_executor
        for count in (lambda cfg: count_latin_squares(5, cfg),
                      lambda cfg: count_triple_systems(9, cfg),
                      lambda cfg: count_one_factorizations(8, config=cfg)):
            one, two = count(SearchConfig(jobs=1)), count(SearchConfig(jobs=2))
            assert (two.count, two.nodes, two.complete) == (one.count, one.nodes, True)
        assert requested == []

    @pytest.mark.parametrize("serial_nodes, requested", [(141, []), (140, [2])])
    def test_a_count_splits_once_its_serial_budget_is_spent(
            self, recording_executor, monkeypatch, serial_nodes, requested):
        # latin 5 searches 141 nodes
        monkeypatch.setattr(enumeration, "SERIAL_NODES", serial_nodes)
        r = count_latin_squares(5, SearchConfig(jobs=2))
        assert (r.count, r.nodes, r.complete) == (161_280, 141, True)
        assert recording_executor == requested


class TestPools:
    def test_sizes_match_counts(self):
        assert len(enumerate_pool("sts", 7)) == 30
        assert len(enumerate_pool("sts", 9)) == 840
        assert len(enumerate_pool("1f-labeled", 4)) == 6
        assert len(enumerate_pool("1f-labeled", 6)) == 720
        assert len(enumerate_pool("latin", 3)) == 12

    def test_infeasible_pool_empty_but_complete(self):
        p = enumerate_pool("sts", 5)
        assert len(p) == 0

    def test_every_item_validates(self):
        # items were built through the validators; spot-check wire format too
        p = enumerate_pool("sts", 7)
        seen = {dumps(ts) for ts in p.items}
        assert len(seen) == 30

    def test_gates(self):
        with pytest.raises(PoolTooLargeError):
            enumerate_pool("sts", 13)
        with pytest.raises(PoolTooLargeError):
            enumerate_pool("1f-labeled", 8)
        with pytest.raises(PoolTooLargeError):
            enumerate_pool("latin", 6)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_first_latin_square_is_the_first_pool_item(self, n):
        # the triple-system and coloring kinds are checked in test_lemmas
        assert enumeration.first_design("latin", n) == enumerate_pool("latin", n).items[0]

    def test_first_design_of_an_empty_or_gated_pool(self):
        assert enumeration.first_design("sts", 5) is None
        assert enumeration.first_design("1f-labeled", 5) is None
        with pytest.raises(PoolTooLargeError, match="^latin pool gated at n <= 5, got 6$"):
            enumeration.first_design("latin", 6)

    @pytest.mark.parametrize("kind, least", [("sts", 1.0), ("1f-labeled", 2.0), ("latin", 1.0)])
    def test_an_n_that_is_not_an_int_is_refused(self, kind, least):
        # True and a float equal an int n, but a pool of them would dump n as true or 4.0
        message = f"{enumeration._family(kind)} design: n must be an int, got "
        for n in (True, least, 4.0):
            text = pool_to_jsonl(enumerate_pool(kind, int(max(n, least))))
            for build in (enumerate_pool, enumeration.first_design,
                          lambda kind, n: pool_from_jsonl(kind, n, text)):
                with pytest.raises(DesignError) as info:
                    build(kind, n)
                assert type(info.value) is DesignError and str(info.value) == message + repr(n)

    def test_memory_bound(self, monkeypatch):
        # the gates are the only bound on a pool, and they fire before any search
        def no_search(*args):
            raise AssertionError("a gated pool started a search")
        monkeypatch.setattr(enumeration, "_start", no_search)
        for kind, gate in enumeration.POOL_GATES.items():
            with pytest.raises(PoolTooLargeError, match=f"gated at n <= {gate}, got {gate + 1}"):
                enumerate_pool(kind, gate + 1)

    @pytest.mark.parametrize("kind, n, digest", [
        ("sts", 7, "4f626ff2280ece339a8d6a719c58f4e72e8a3d17d1afd17626e0d5d3a1a0d19b"),
        ("1f-labeled", 4, "74c859d1394293a8426471441ae778df39f588da312c41c4e983f8caf908188c"),
        ("latin", 4, "6eb0f7edd259a4bf71d16f0c55d1c320f9c05d8706986860cc73267dce2d0ace"),
    ])
    def test_pool_is_one_collect_pass(self, monkeypatch, kind, n, digest):
        # a pool runs its fixed start's search alone; no count runs first
        def no_count(*args):
            raise AssertionError("enumerate_pool ran a counting search")
        monkeypatch.setattr(enumeration, "_count", no_count)
        text = pool_to_jsonl(enumerate_pool(kind, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind, n, outcome", [
        ("sts", 0, "n must be >= 1, got 0"),
        ("sts", 2, []),
        ("sts", 5, []),
        ("1f-labeled", 1, "n must be >= 2, got 1"),
        ("1f-labeled", 2, ['{"colors":[[1,2,1]],"kind":"1f","n":2}']),
        ("1f-labeled", 5, []),
        ("latin", 0, "n must be >= 1, got 0"),
        ("latin", 1, ['{"kind":"latin","n":1,"rows":[[1]]}']),
    ])
    def test_n_range_errors_and_smallest_pools(self, kind, n, outcome):
        if isinstance(outcome, str):
            with pytest.raises(DesignError) as info:
                enumerate_pool(kind, n)
            assert type(info.value) is DesignError and str(info.value) == outcome
        else:
            pool = enumerate_pool(kind, n)
            assert (pool.kind, pool.n) == (kind, n)
            assert [dumps(x) for x in pool.items] == outcome

    @pytest.mark.parametrize("kind, n, digest", [
        ("sts", 9, "f706972b28adadc05a75d84c9423bd8c313ab08dbc013e72c38f576f13438445"),
        ("1f-labeled", 6, "8e0d34425c2c1d8b2a89783e490fd115485f863b29229d78bf95b9e16f22fdae"),
        ("latin", 4, "6eb0f7edd259a4bf71d16f0c55d1c320f9c05d8706986860cc73267dce2d0ace"),
        ("latin", 5, "99bbb0b86b98c033fa05ad3b5134b8e0de8fb70ca091a3a6fb993d5139b00cbe"),
    ])
    def test_pool_order_is_pinned(self, kind, n, digest):
        # Monte Carlo draws designs by pool index, so a reordered pool would
        # silently change every fixed-seed estimate
        text = pool_to_jsonl(enumerate_pool(kind, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind, n, digest", [
        ("sts", 7, "f52d48dd9bf904a2372454d5b3968a587da4b3f2a16f5b0b271472d6602c234f"),
        ("sts", 9, "ae667b69fb837d22a2769c4295cf6e519577ee1402af0a308b7880616b49b62b"),
        ("1f-labeled", 6, "d1010afb9136b7de959f02a29ac9e519194894bf660f14d2d426faa329fc8ce1"),
        ("latin", 4, "48c84039196985b00d6b0e38d2c3d8288f96e4df223b3905450d84f986f0e037"),
    ])
    def test_item_pickles_are_pinned(self, kind, n, digest):
        # each item pickles alone to the same bytes, whichever of its rows
        # and triples the pool's items share
        items = enumerate_pool(kind, n).items
        assert hashlib.sha256(b"".join(pickle.dumps(x, 4) for x in items)).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_latin_pool_is_the_full_search(self, n):
        # derived from the reduced squares, the pool is what a collect pass
        # of the full labeled search lists, in the same order
        kernel, args, state, depth, full_depth = enumeration._start("latin", n)
        paths = []
        kernel(*args, state, depth, full_depth, enumeration._Budget(None), paths, [])
        want = [LatinSquare(n=n, rows=tuple(tuple(p[r * n:(r + 1) * n]) for r in range(n)))
                for p in paths]
        got = enumerate_pool("latin", n).items
        assert list(got) == want and len(want) == count_latin_squares(n).count
        assert [pickle.dumps(x) for x in got] == [pickle.dumps(x) for x in want]

    def test_jsonl_round_trip(self):
        p = enumerate_pool("1f-labeled", 4)
        text = pool_to_jsonl(p)
        assert len(text.splitlines()) == 6
        again = pool_from_jsonl("1f-labeled", 4, text)
        assert [dumps(x) for x in again.items] == [dumps(x) for x in p.items]

    @pytest.mark.parametrize("kind, n", [("sts", 9), ("1f-labeled", 6), ("latin", 4)])
    def test_value_and_dumps_dedupe_agree(self, kind, n):
        # designs compare by value as their dumps do
        items = enumerate_pool(kind, n).items
        for pool in (items, items + (loads(dumps(items[len(items) // 2])),)):
            by_dumps = len({dumps(x) for x in pool})
            assert len(set(pool)) == by_dumps
        assert len(set(items)) == len(items)

    def test_jsonl_rejects_designs_of_another_n(self):
        text = pool_to_jsonl(enumerate_pool("latin", 4))
        with pytest.raises(DesignError, match="line 1 holds latin n=4, wanted latin n=5"):
            pool_from_jsonl("latin", 5, text)

    def test_jsonl_rejects_designs_of_another_kind(self):
        text = pool_to_jsonl(enumerate_pool("sts", 7))
        with pytest.raises(DesignError, match="line 1 holds sts n=7, wanted latin n=7"):
            pool_from_jsonl("latin", 7, text)

    @pytest.mark.parametrize("second", [[1, 2, 1], [2, 1, 1], [1, 2, 3], [2, 1, 3]],
                             ids=["other-color", "reversed-other-color", "same-color",
                                  "reversed-same-color"])
    def test_jsonl_rejects_an_edge_listed_twice(self, second):
        colors = [[1, 2, 3], second, [1, 3, 2], [1, 4, 3], [2, 3, 3], [2, 4, 2], [3, 4, 1]]
        text = pool_to_jsonl(enumerate_pool("1f-labeled", 4))
        text += json.dumps({"kind": "1f", "n": 4, "colors": colors}) + "\n"
        with pytest.raises(DesignError, match=r"^pool line 7: edge \(1, 2\) listed twice$"):
            pool_from_jsonl("1f-labeled", 4, text)

    def test_unknown_kind(self):
        for build in (enumerate_pool, lambda kind, n: pool_from_jsonl(kind, n, "")):
            with pytest.raises(DesignError, match="^unknown pool kind '1f'$"):
                build("1f", 4)

    def test_jsonl_rejects_duplicates(self):
        line = pool_to_jsonl(enumerate_pool("sts", 3))
        with pytest.raises(DesignError, match="line 2 repeats line 1"):
            pool_from_jsonl("sts", 3, line * 3)

    @pytest.mark.parametrize("line, message", [
        ("[1,2]", "a design is a JSON object, got list"),
        ('{"kind": "1f"', "Expecting"),
        ('{"kind":"latin","n":2}', "malformed latin design: KeyError"),
        ('{"kind":"sts","n":7,"triples":5}', "malformed sts design: TypeError"),
        ('{"kind":"sts","n":"7","triples":[]}', "sts design: n must be an int, got '7'"),
        ('{"kind":"1f","n":4,"colors":[[1,2]]}', "malformed 1f design: ValueError"),
    ])
    def test_jsonl_rejects_a_line_that_is_not_an_object(self, line, message):
        text = pool_to_jsonl(enumerate_pool("1f-labeled", 4)) + "\n" + line + "\n"
        with pytest.raises(DesignError, match=f"line 8: {message}"):
            pool_from_jsonl("1f-labeled", 4, text)


def _per_object_load(kind, n, text, loads=loads):
    """The line-by-line loader: each line through ``loads``, then the first
    line equal to an earlier one."""
    first_line, items = {}, []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = loads(line)
        except ValueError as e:
            raise DesignError(f"pool line {number}: {e}") from None
        if to_json_dict(obj)["kind"] != {"1f-labeled": "1f"}.get(kind, kind) or obj.n != n:
            raise DesignError(f"pool line {number} holds {to_json_dict(obj)['kind']} "
                              f"n={obj.n}, wanted {kind} n={n}")
        items.append((number, obj))
    for number, obj in items:
        if first_line.setdefault(obj, number) != number:
            raise DesignError(f"pool line {number} repeats line {first_line[obj]}")
    return tuple(obj for _, obj in items)


class TestFixedStartPools:
    """Pools expand the leaves of a count's first part by relabelings; the
    search with no part fixed is the reference for their order."""

    @staticmethod
    def _collect(kind, n):
        """The ``dumps`` entries of the unfixed search's leaves, in its order."""
        kernel, args, state, depth, full_depth = enumeration._start(kind, n)
        paths = []
        kernel(*args, state, depth, full_depth, enumeration._Budget(None), paths, [])
        return np.array(paths, np.int8).reshape(len(paths), -1)

    @pytest.mark.parametrize("kind, n", [*((("sts", n) for n in range(1, 10))),
                                         *((("1f-labeled", n) for n in range(2, 7))),
                                         *((("latin", n) for n in range(1, 5)))])
    def test_pool_is_the_unfixed_collect_pass(self, kind, n):
        pool = enumerate_pool(kind, n)
        if not enumeration._pool_feasible(kind, n):   # no design at n: nothing is expanded
            assert len(pool) == 0 and enumeration.first_design(kind, n) is None
            return
        want = self._collect(kind, n)
        entries = enumeration._pool_entries(kind, n)
        assert entries.dtype == np.int8 and entries.shape == want.shape
        assert (entries == want).all()
        # the least design is the fixed start's first leaf
        first = enumeration._fixed_leaves(kind, n)[:1]
        assert first.shape == (1, want.shape[1]) and (first == want[:1]).all()
        assert enumeration.first_design(kind, n) == pool.items[0]

    @pytest.mark.parametrize("kind, n, count", [
        ("sts", 1, 1), ("sts", 3, 1), ("sts", 7, 30), ("sts", 9, 840),
        ("1f-labeled", 2, 1), ("1f-labeled", 4, 6), ("1f-labeled", 6, 720),
        ("1f-labeled", 8, 6240 * math.factorial(7)),
        ("latin", 1, 1), ("latin", 2, 2), ("latin", 4, 576), ("latin", 5, 161280),
        ("latin", 6, 812851200),
    ])
    def test_leaves_times_relabelings_is_the_count(self, kind, n, count):
        if kind == "sts":   # one relabeling per perfect matching of 2..n
            matchings = list(enumeration._matchings(tuple(range(2, n + 1))))
            pairs = {frozenset(frozenset(m[k:k + 2]) for k in range(0, len(m), 2))
                     for m in matchings}
            assert len(pairs) == len(matchings)
            assert all(sorted(m) == list(range(2, n + 1)) for m in matchings)
            relabelings = math.prod(range(n - 2, 0, -2))
            assert len(matchings) == relabelings
        elif kind == "1f-labeled":   # every permutation of the colors
            relabelings = math.factorial(n - 1)
        else:   # every column permutation and every permutation of rows 2..n
            relabelings = math.factorial(n) * math.factorial(n - 1)
        leaves = enumeration._fixed_leaves(kind, n)
        assert len(leaves) * relabelings == count == enumeration._count(
            kind, n, SearchConfig()).count
        assert len({row.tobytes() for row in leaves}) == len(leaves)


class TestLatinLoader:
    """The latin loader, on texts that take the bulk path and on texts that
    do not, against the line-by-line one."""

    @pytest.fixture(scope="class", params=["canonical", "blank lines"])
    def lines(self, request):
        # every 997th Latin square of order 5; the second form adds two
        # blank lines, which send the file down the per-object path
        squares = enumeration._pool_entries("latin", 5).reshape(-1, 5, 5)[::997]
        lines = [dumps(LatinSquare(n=5, rows=tuple(map(tuple, s)))) for s in squares.tolist()]
        if request.param == "canonical":
            return lines
        return lines[:50] + [""] + lines[50:100] + ["   "] + lines[100:]

    @staticmethod
    def _error(load, text, n=5):
        with pytest.raises(DesignError) as info:
            load("latin", n, text)
        return str(info.value)

    @pytest.mark.parametrize("bad, message", [
        ("true", "pool line 120: Latin square entries must be ints"),
        ("1.0", "pool line 120: Latin square entries must be ints"),
        ("0", "pool line 120: matrix is not a Latin square"),
        ("6", "pool line 120: matrix is not a Latin square"),
        ("300", "pool line 120: matrix is not a Latin square"),
        ("257", "pool line 120: matrix is not a Latin square"),
        ("-1", "pool line 120: matrix is not a Latin square"),
        ("18446744073709551616", "pool line 120: matrix is not a Latin square"),
        ("null", "pool line 120: matrix is not a Latin square"),
        ("[1]", "pool line 120: malformed latin design: TypeError"),
        ("four rows", "pool line 120: declared n=5 but got 4 rows"),
        ("a 6-entry row", "pool line 120: matrix is not a Latin square"),
        ("a row that is not a list", "pool line 120: malformed latin design: TypeError"),
        ("not Latin", "pool line 120: matrix is not a Latin square"),
        ("n=4", "pool line 120: declared n=4 but got 5 rows"),
        ("n=true", "pool line 120: latin design: n must be an int, got True"),
        ("not JSON", "pool line 120: Expecting"),
    ])
    def test_a_bad_line_is_named(self, lines, bad, message):
        d = json.loads(lines[119])
        rows = d["rows"]
        if bad == "four rows":
            del rows[4]
        elif bad == "a 6-entry row":
            rows[2].append(1)
        elif bad == "a row that is not a list":
            rows[2] = 12345
        elif bad == "not Latin":
            rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
        elif bad == "n=4":
            d["n"] = 4
        elif bad == "n=true":
            d["n"] = True
        elif bad != "not JSON":
            rows[3][rows[3].index(1)] = json.loads(bad)
        line = "{" if bad == "not JSON" else json.dumps(d, separators=(",", ":"), sort_keys=True)
        text = "\n".join(lines[:119] + [line] + lines[120:]) + "\n"
        bulk = len(lines) == 162 and bad in ("0", "6", "not Latin")
        assert (core.canonical_entries("latin", 5, text) is not None) == bulk
        got = self._error(pool_from_jsonl, text)
        assert got.startswith(message) and got == self._error(_per_object_load, text)

    def test_a_line_of_another_kind(self):
        fano = validate_triple_system(7, oracles.FANO)
        text = dumps(to_latin_cube(fano)) + "\n" + dumps(fano) + "\n"
        with pytest.raises(DesignError, match="^pool line 2 holds sts n=7, wanted latin n=7$"):
            pool_from_jsonl("latin", 7, text)
        assert pool_from_jsonl("latin", 7, text.splitlines()[0]).items == (to_latin_cube(fano),)

    @pytest.mark.parametrize("copies, message", [
        ([(7, 60)], "pool line 61 repeats line 8"),
        ([(30, 140), (7, 60), (7, 90)], "pool line 61 repeats line 8"),
        ([(55, 90), (3, 140)], "pool line 91 repeats line 56"),
        ([(99, 103), (103, 104)], "pool line 104 repeats line 100"),
    ])
    def test_the_first_repeat_is_named(self, lines, copies, message):
        lines = list(lines)
        for source, at in copies:   # indices into lines
            lines[at] = lines[source]
        text = "\n".join(lines) + "\n"
        assert self._error(pool_from_jsonl, text) == message
        assert self._error(_per_object_load, text) == message
        assert self._error(pool_from_jsonl, text.replace("\n", "\r\n")) == message

    def test_faults_are_named_in_file_order(self, lines):
        # the first faulty line is named, whatever its fault, and a repeat
        # only when no line is faulty
        lines = list(lines)
        lines[10] = lines[5]
        for at, line in ((20, lines[20].replace("1", "2", 1)),
                         (40, lines[40].replace("1", "true", 1)), (45, "[]"), (30, "[]"),
                         (35, lines[35].replace("1", "1.0", 1))):
            lines[at] = line
            text = "\n".join(lines) + "\n"
            assert self._error(pool_from_jsonl, text) == self._error(_per_object_load, text) == (
                "pool line 21: matrix is not a Latin square")
            assert self._error(pool_from_jsonl, text.replace("\n", "\r\n")) == (
                "pool line 21: matrix is not a Latin square")

    def test_round_trip_and_chunks(self, lines, monkeypatch):
        text = "\n".join(lines) + "\n"
        want = _per_object_load("latin", 5, text)
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(core, "BULK_CHUNK", chunk)
            assert pool_from_jsonl("latin", 5, text).items == want
            crlf = pool_from_jsonl("latin", 5, text.replace("\n", "\r\n"))
            assert crlf.items == want and (crlf.cells is None) == ("" in lines)
        assert pool_from_jsonl("latin", 5, "\n \n").items == ()
        assert pool_from_jsonl("latin", 5, "").items == ()

    def test_valid_non_canonical_texts_load_the_same(self):
        text = pool_to_jsonl(enumerate_pool("latin", 4))
        want = pool_from_jsonl("latin", 4, text).items
        assert core.canonical_entries("latin", 4, text) is not None and len(want) == 576
        spaced = "".join(json.dumps(json.loads(line)) + "\n" for line in text.splitlines())
        for other in (spaced, text.replace("\n", "\r\n"), text[:-1], "\n" + text):
            assert core.canonical_entries("latin", 4, other) is None
            assert pool_from_jsonl("latin", 4, other).items == want
        # order 10 has two-digit entries, so no text of it is canonical
        cyclic = [tuple((r + c) % 10 + 1 for c in range(10)) for r in range(10)]
        squares = [LatinSquare(n=10, rows=tuple(cyclic[r] for r in p))
                   for p in (range(10), reversed(range(10)))]
        text = "".join(dumps(s) + "\n" for s in squares)
        assert core.canonical_entries("latin", 10, text) is None
        assert pool_from_jsonl("latin", 10, text).items == tuple(squares)

    def test_byte_mutations_and_copied_lines(self):
        # 1,000 files with one or two characters overwritten, then 300 with
        # a line copied over another and up to two: both loaders give the
        # same squares or the same message
        lines = pool_to_jsonl(enumerate_pool("latin", 4)).splitlines(keepends=True)
        rng = np.random.default_rng(11)
        cached = functools.lru_cache(maxsize=None)(loads)   # unchanged lines parse once
        bulk = loaded = 0
        for case in range(1300):
            copy = case >= 1000
            chars = list(lines)
            if copy:
                chars[rng.integers(len(lines))] = chars[rng.integers(len(lines))]
            chars = list("".join(chars))
            for at in rng.integers(len(chars), size=rng.integers(1 - copy, 3)):
                chars[at] = (rng.choice(list("0123456789{}[],:\n \r")) if rng.random() < 0.7
                             else chr(rng.integers(256)))
            text = "".join(chars)
            bulk += core.canonical_entries("latin", 4, text) is not None
            try:
                want = _per_object_load("latin", 4, text, cached)
            except DesignError as e:
                assert self._error(pool_from_jsonl, text, 4) == str(e)
            else:
                assert pool_from_jsonl("latin", 4, text).items == want
                loaded += 1
        assert bulk >= 100 and loaded >= 10


def _per_object_dump(pool):
    return "".join(dumps(x) + "\n" for x in pool.items)


class TestLatinWriter:
    """``pool_to_jsonl`` from a latin pool's cells against ``dumps`` of
    each item."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bulk_text_is_dumps_of_each_item(self, n):
        pool = enumerate_pool("latin", n)
        text = pool_to_jsonl(pool)
        assert pool.cells is not None and text == _per_object_dump(pool)
        assert pool_to_jsonl(Pool("latin", n, pool.items)) == text
        back = pool_from_jsonl("latin", n, text)
        assert back.cells is not None and back == pool
        assert pool_to_jsonl(back) == _per_object_dump(back) == text

    def test_pools_without_cells_dump_each_item(self):
        text = pool_to_jsonl(enumerate_pool("latin", 4))
        crlf = pool_from_jsonl("latin", 4, text.replace("\n", "\r\n"))
        assert crlf.cells is not None and pool_to_jsonl(crlf) == text
        # a lone carriage return ends a line too, but only line by line
        cr = pool_from_jsonl("latin", 4, text.replace("\n", "\r"))
        assert cr.cells is None and pool_to_jsonl(cr) == text
        assert pool_to_jsonl(pool_from_jsonl("latin", 4, "")) == ""
        for kind, n in (("sts", 7), ("1f-labeled", 4)):
            pool = enumerate_pool(kind, n)
            back = pool_from_jsonl(kind, n, pool_to_jsonl(pool))
            assert pool.cells is not None and back.cells is not None
            by_hand = Pool(kind, n, pool.items)
            assert by_hand.cells is None and by_hand == pool
            assert pool_to_jsonl(by_hand) == _per_object_dump(back) == pool_to_jsonl(pool)

    @pytest.mark.parametrize("n", [10, 11])
    def test_orders_above_nine_dump_and_load_line_by_line(self, n):
        # two-digit entries: no text of these orders is canonical
        cyclic = [tuple((r + c) % n + 1 for c in range(n)) for r in range(n)]
        squares = tuple(LatinSquare(n=n, rows=tuple(cyclic[r] for r in p))
                        for p in (range(n), reversed(range(n))))
        text = pool_to_jsonl(Pool("latin", n, squares))
        assert text == "".join(dumps(x) + "\n" for x in squares)
        back = pool_from_jsonl("latin", n, text)
        assert back.cells is None and back.items == squares


def _validated(kind, n, path):
    """A leaf path of the full search through the per-design validator."""
    if kind == "sts":
        return validate_triple_system(n, path)
    return validate_edge_coloring(n, dict(zip(itertools.combinations(range(1, n + 1), 2), path)))


def _corrupt(lines, at, fault):
    """A pool text, its lines given with their ends, with ``fault`` put in
    line ``at`` (counted from 0); a copied or reordered line copies line
    ``at`` - 300."""
    lines = list(lines)
    line, doc = lines[at], json.loads(lines[at - 300])
    if fault == "repeated pair":     # its first triple {1, 2, k} becomes {1, 2, k'}
        k = int(line[line.index("[[") + 6])
        line = line.replace(f"[[1,2,{k}]", f"[[1,2,{4 if k == 3 else 3}]", 1)
    elif fault in ("vertex 0", "symbol 0"):
        line = line[:-5] + "0" + line[-4:]
    elif fault == "symbol 6":
        line = line[:-5] + "6" + line[-4:]
    elif fault == "not Latin":       # the first two entries of row 1 swap
        i = line.index("[[") + 2
        line = line[:i] + line[i + 2] + "," + line[i] + line[i + 3:]
    elif fault == "color clash":     # edge {1, 2} takes edge {1, 3}'s color
        line = line[:16] + line[24] + line[17:]
    elif fault == "color 0":
        line = line[:16] + "0" + line[17:]
    elif fault == "duplicated line":
        line = lines[at - 300]
    elif fault == "triples out of order":
        doc["triples"] = [t[::-1] for t in doc["triples"][::-1]]
        line = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    else:
        doc["colors"] = doc["colors"][::-1]
        line = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    assert line != lines[at]
    lines[at] = line
    return "".join(lines)


class TestTablePools:
    """Triple-system and coloring pools, built, written and read as one
    array, against the per-design validators, ``dumps`` and the line-by-line
    loader."""

    @pytest.mark.parametrize("kind, n", [("sts", 1), ("sts", 3), ("sts", 7), ("sts", 9),
                                         ("1f-labeled", 2), ("1f-labeled", 4), ("1f-labeled", 6)])
    def test_bulk_builders_against_the_validators(self, kind, n):
        kernel, args, state, depth, full_depth = enumeration._start(kind, n)
        paths = []
        kernel(*args, state, depth, full_depth, enumeration._Budget(None), paths, [])
        want = tuple(_validated(kind, n, path) for path in paths)
        pool = enumerate_pool(kind, n)
        assert pool.items == want and pool.cells.dtype == np.int8
        assert [hash(x) for x in pool.items] == [hash(x) for x in want]
        if kind == "sts":   # one frozenset per distinct triple, shared across the pool
            triples = [t for x in pool.items for t in x.triples]
            assert len({id(t) for t in triples}) == len(set(triples))
        assert (pool.cells == np.array([x.table for x in want])).all()
        assert enumeration.first_design(kind, n) == want[0]
        text = pool_to_jsonl(pool)
        assert text == _per_object_dump(pool) == pool_to_jsonl(Pool(kind, n, want))
        for loaded in (pool_from_jsonl(kind, n, text),
                       pool_from_jsonl(kind, n, text.replace("\n", "\r\n"))):
            assert loaded == pool and (loaded.cells == pool.cells).all()

    @pytest.fixture(scope="class")
    def lines(self):
        return {kind: pool_to_jsonl(enumerate_pool(kind, n)).splitlines(keepends=True)
                for kind, n in (("sts", 9), ("1f-labeled", 6))}

    @staticmethod
    def _outcome(kind, n, text):
        """The loaded items, or the message the loader raised; the GC is as
        it was either way."""
        enabled = gc.isenabled()
        try:
            return pool_from_jsonl(kind, n, text).items
        except DesignError as e:
            return str(e)
        finally:
            assert gc.isenabled() == enabled

    @pytest.mark.parametrize("kind, fault, message", [
        ("sts", "repeated pair", "pool line 401: pair (1, 3) is covered more than once"),
        ("sts", "vertex 0", "pool line 401: vertex label 0 outside 1..9"),
        ("sts", "duplicated line", "pool line 401 repeats line 101"),
        ("sts", "triples out of order", "pool line 401 repeats line 101"),
        ("1f-labeled", "color clash", "pool line 401: two edges at vertex 1 share color 5"),
        ("1f-labeled", "color 0", "pool line 401: color 0 outside 1..5"),
        ("1f-labeled", "duplicated line", "pool line 401 repeats line 101"),
        ("1f-labeled", "edges out of order", "pool line 401 repeats line 101"),
    ])
    def test_a_corrupt_line_is_named_as_line_by_line(self, lines, kind, fault, message):
        n = 9 if kind == "sts" else 6
        text = _corrupt(lines[kind], 400, fault)
        bulk = fault != "edges out of order"   # any other line keeps the template
        assert (core.canonical_entries(enumeration._family(kind), n, text) is not None) == bulk
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                got = self._outcome(kind, n, text)
                # a lone carriage return sends the copy line by line
                assert got == message == self._outcome(kind, n, text.replace("\n", "\r"))
            finally:
                gc.enable()
        assert self._outcome(kind, n, text) == message

    def test_valid_non_canonical_lines_load_the_same(self, lines):
        for kind, n in (("sts", 9), ("1f-labeled", 6)):
            pool = pool_from_jsonl(kind, n, "".join(lines[kind]))
            docs = [json.loads(line) for line in lines[kind]]
            for doc in docs[::97]:
                for key in ("triples", "colors"):
                    doc.get(key, []).reverse()
            text = "".join(json.dumps(d, separators=(",", ":"), sort_keys=True) + "\n"
                           for d in docs)
            again = pool_from_jsonl(kind, n, text)
            assert again == pool and (again.cells is None) == (kind == "1f-labeled")


class TestFaultsReadOneLine:
    """A fault in a canonical text is named by reading its one line again,
    a repeat at once."""

    @pytest.fixture(scope="class")
    def lines(self):
        squares = enumeration._pool_entries("latin", 5)[::100].reshape(-1, 5, 5)
        return {"latin": [dumps(LatinSquare(n=5, rows=tuple(map(tuple, s)))) + "\n"
                          for s in squares.tolist()],
                **{kind: pool_to_jsonl(enumerate_pool(kind, n)).splitlines(keepends=True)
                   for kind, n in (("sts", 9), ("1f-labeled", 6))}}

    @pytest.mark.parametrize("kind, fault, calls", [
        ("latin", "not Latin", 1), ("latin", "symbol 0", 1), ("latin", "symbol 6", 1),
        ("latin", "duplicated line", 0),
        ("sts", "repeated pair", 1), ("sts", "vertex 0", 1), ("sts", "duplicated line", 0),
        ("sts", "triples out of order", 0),
        ("1f-labeled", "color clash", 1), ("1f-labeled", "color 0", 1),
        ("1f-labeled", "duplicated line", 0),
    ])
    def test_one_line_is_read_again(self, lines, monkeypatch, kind, fault, calls):
        n = {"latin": 5, "sts": 9, "1f-labeled": 6}[kind]
        text = _corrupt(lines[kind], 401, fault)
        assert core.canonical_entries(enumeration._family(kind), n, text) is not None
        with pytest.raises(DesignError) as cr:   # a lone carriage return: line by line
            pool_from_jsonl(kind, n, text.replace("\n", "\r"))
        seen, load = [], enumeration._load_line

        def load_line(*args):
            seen.append(args[2])
            return load(*args)

        monkeypatch.setattr(enumeration, "_load_line", load_line)
        with pytest.raises(DesignError) as bulk:
            pool_from_jsonl(kind, n, text)
        assert seen == [402] * calls
        assert str(bulk.value) == str(cr.value) and str(cr.value).startswith("pool line 402")

    @pytest.mark.parametrize("kind, n, line", [
        ("sts", 5, '{"kind":"sts","n":5,"triples":[[1,2,3],[1,4,5],[2,4,5]]}'),
        ("1f-labeled", 3, '{"colors":[[1,2,1],[1,3,2],[2,3,1]],"kind":"1f","n":3}'),
    ])
    def test_no_design_at_n(self, kind, n, line):
        # an empty text is an empty pool, and in a text of the form dumps
        # writes at n, line 1 is named
        assert pool_from_jsonl(kind, n, "") == Pool(kind, n, ())
        text = line + "\n" + line + "\n"
        assert core.canonical_entries(enumeration._family(kind), n, text) is not None
        with pytest.raises(DesignError) as bulk:
            pool_from_jsonl(kind, n, text)
        with pytest.raises(DesignError) as cr:
            pool_from_jsonl(kind, n, text.replace("\n", "\r"))
        assert str(bulk.value) == str(cr.value) and str(bulk.value).startswith("pool line 1: ")


class TestSampling:
    def test_draws_are_the_pool_objects(self):
        # indexing by Python ints picks the very objects numpy scalars did
        for kind, n in (("latin", 4), ("sts", 7)):
            p = enumerate_pool(kind, n)
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(99)))
            idx = rng.integers(0, len(p.items), size=500)
            old = [p.items[k] for k in idx]
            new = sample_uniform(p, 99, 500)
            assert len(new) == 500 and all(a is b for a, b in zip(new, old))

    def test_determinism(self):
        p = enumerate_pool("sts", 7)
        a = sample_uniform(p, 42, 100)
        b = sample_uniform(p, 42, 100)
        assert [dumps(x) for x in a] == [dumps(x) for x in b]
        c = sample_uniform(p, 43, 100)
        assert [dumps(x) for x in a] != [dumps(x) for x in c]

    def test_singleton_pool(self):
        p = enumerate_pool("sts", 3)
        draws = sample_uniform(p, 0, 20)
        assert all(x is p.items[0] for x in draws)

    def test_empty_pool(self):
        with pytest.raises(EmptyPoolError):
            sample_uniform(Pool("sts", 5, ()), 0, 1)

    def test_uniform_frequencies_5_sigma(self):
        p = enumerate_pool("sts", 7)
        draws = sample_uniform(p, 42, 30000)
        counts = {}
        for x in draws:
            counts[dumps(x)] = counts.get(dumps(x), 0) + 1
        mean = 30000 / 30
        sigma = math.sqrt(30000 * (1 / 30) * (29 / 30))
        for key in {dumps(x) for x in p.items}:
            assert abs(counts.get(key, 0) - mean) <= 5 * sigma


class TestValidatedCollection:
    def test_collected_systems_revalidate(self):
        for ts in enumerate_pool("sts", 7).items:
            validate_triple_system(7, [tuple(t) for t in ts.sorted_triples()])
