"""Reveal orders and availability sets against literal transcriptions."""

import itertools
import math
import random

import numpy as np
import pytest

from designcount.core import validate_edge_coloring, validate_triple_system
from designcount.enumeration import enumerate_pool
from designcount.entropylab import (
    make_reveal_order,
    reveal_sets_1f,
    reveal_sets_sts,
    sample_reveal_order,
)

from oracles import FANO, K4_COLORING, hand_reveal_sets_1f, hand_reveal_sets_sts


def identity_order(n):
    return make_reveal_order(
        n, tuple(range(1, n + 1)),
        {v: tuple(range(v + 1, n + 1)) for v in range(1, n + 1)})


def random_order(n, rnd):
    vo = list(range(1, n + 1))
    rnd.shuffle(vo)
    pos = {v: p for p, v in enumerate(vo)}
    so = {v: tuple(sorted((u for u in vo if pos[u] > pos[v]),
                          key=lambda _: rnd.random()))
          for v in vo}
    return make_reveal_order(n, tuple(vo), so)


K4 = validate_edge_coloring(4, K4_COLORING)
FANO_TS = validate_triple_system(7, FANO)


class TestRevealOrderStructure:
    def test_stars_partition_edges(self):
        order = sample_reveal_order(6, seed=3)
        seen = set()
        pos = {v: p for p, v in enumerate(order.vertex_order)}
        for v, star in order.star_orders.items():
            for u in star:
                assert pos[v] < pos[u]
                e = (min(v, u), max(v, u))
                assert e not in seen
                seen.add(e)
        assert len(seen) == 15

    def test_reproducible_from_seed(self):
        a = sample_reveal_order(7, seed=11)
        b = sample_reveal_order(7, seed=11)
        assert a.vertex_order == b.vertex_order
        assert a.star_orders == b.star_orders
        c = sample_reveal_order(7, seed=12)
        assert (a.vertex_order, a.star_orders) != (c.vertex_order, c.star_orders)

    def test_first_vertex_uniform_5_sigma(self):
        # n=4: each vertex leads with frequency 1/4
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
        trials = 100_000
        counts = {v: 0 for v in range(1, 5)}
        for _ in range(trials):
            counts[sample_reveal_order(4, rng=rng).vertex_order[0]] += 1
        sigma = math.sqrt(trials * 0.25 * 0.75)
        for v in range(1, 5):
            assert abs(counts[v] - trials / 4) <= 5 * sigma

    def test_rejects_bad_star(self):
        with pytest.raises(Exception):
            make_reveal_order(3, (1, 2, 3), {1: (2,), 2: (3,), 3: ()})

    def test_n2(self):
        order = make_reveal_order(2, (1, 2), {1: (2,), 2: ()})
        assert order.star_orders[1] == (2,)


class TestRevealSets1f:
    def test_hand_example_pair_23(self):
        order = make_reveal_order(4, (1, 2, 3, 4), {1: (2, 3, 4), 2: (3, 4), 3: (4,), 4: ()})
        rs = reveal_sets_1f(K4, order, 2, 3)
        assert (set(rs.A), set(rs.B)) == ({1, 2}, set())
        assert set(rs.Mset) == {3} and set(rs.Nset) == {3}
        assert rs.M == 1 and rs.N == 1 and not rs.trivial

    def test_hand_example_trivial(self):
        order = make_reveal_order(4, (1, 2, 3, 4), {1: (2, 3, 4), 2: (3, 4), 3: (4,), 4: ()})
        rs = reveal_sets_1f(K4, order, 3, 2)
        assert rs.trivial and rs.N == 1 and set(rs.Nset) == {K4.table[3][2]}

    def test_hand_example_pair_14(self):
        order = make_reveal_order(4, (1, 2, 3, 4), {1: (2, 3, 4), 2: (3, 4), 3: (4,), 4: ()})
        rs = reveal_sets_1f(K4, order, 1, 4)
        assert set(rs.A) == set() and set(rs.B) == {1, 2}
        assert set(rs.Mset) == {1, 2, 3} and set(rs.Nset) == {3}
        assert rs.M == 3 and rs.N == 1 and rs.q == 3

    def test_agrees_with_literal_definitions(self):
        rnd = random.Random(5)
        col = dict(K4_COLORING)
        for vo in itertools.permutations(range(1, 5)):
            pos = {v: p for p, v in enumerate(vo)}
            so = {v: tuple(sorted((u for u in vo if pos[u] > pos[v]),
                                  key=lambda _: rnd.random())) for v in vo}
            order = make_reveal_order(4, vo, so)
            for i, j in itertools.permutations(range(1, 5), 2):
                rs = reveal_sets_1f(K4, order, i, j)
                hand = hand_reveal_sets_1f(4, col, vo, so, i, j)
                if hand is None:
                    assert rs.trivial
                else:
                    A, B, Ms, Ns = hand
                    assert (set(rs.A), set(rs.B)) == (A, B)
                    assert (set(rs.Mset), set(rs.Nset)) == (Ms, Ns)


class TestRevealSetsSts:
    def test_hand_example_pair_24(self):
        order = identity_order(7)
        rs = reveal_sets_sts(FANO_TS, order, 2, 4)
        assert not rs.trivial
        assert set(rs.A) == {1, 3, 5} and set(rs.B) == set()
        assert set(rs.Mset) == {6, 7} and set(rs.Nset) == {6, 7}
        assert rs.M == 2 and rs.N == 2

    def test_hand_example_trivial(self):
        rs = reveal_sets_sts(FANO_TS, identity_order(7), 4, 2)
        assert rs.trivial and rs.N == 1

    def test_agrees_with_literal_definitions(self):
        rnd = random.Random(9)
        third = {}
        for t in FANO:
            a, b, c = sorted(t)
            third[(a, b)], third[(a, c)], third[(b, c)] = c, b, a
        for _ in range(60):
            order = random_order(7, rnd)
            vo, so = order.vertex_order, order.star_orders
            for i, j in itertools.permutations(range(1, 8), 2):
                rs = reveal_sets_sts(FANO_TS, order, i, j)
                F, A, B, Ms, Ns = hand_reveal_sets_sts(7, third, vo, so, i, j)
                assert rs.trivial == (not F)
                if F:
                    assert (set(rs.A), set(rs.B)) == (A, B)
                    assert (set(rs.Mset), set(rs.Nset)) == (Ms, Ns)


class TestInvariants:
    def test_containment_everywhere(self):
        rnd = random.Random(2)
        for _ in range(40):
            order = random_order(7, rnd)
            for i, j in itertools.permutations(range(1, 8), 2):
                rs = reveal_sets_sts(FANO_TS, order, i, j)
                assert rs.Nset <= rs.Mset and not (rs.Mset & rs.A)
        for _ in range(40):
            order = random_order(4, rnd)
            for i, j in itertools.permutations(range(1, 5), 2):
                rs = reveal_sets_1f(K4, order, i, j)
                assert rs.Nset <= rs.Mset and not (rs.Mset & rs.A)

    def test_truth_inclusion_exhaustive_1f_n4(self):
        # every vertex order, every full star-order combination
        for vo in itertools.permutations(range(1, 5)):
            forward = [vo[p + 1:] for p in range(4)]
            for combo in itertools.product(*[itertools.permutations(f) for f in forward]):
                order = make_reveal_order(4, vo, {vo[p]: combo[p] for p in range(4)})
                for i, j in itertools.permutations(range(1, 5), 2):
                    rs = reveal_sets_1f(K4, order, i, j)
                    if not rs.trivial:
                        assert K4.table[i][j] in rs.Nset

    def test_truth_inclusion_exhaustive_1f_n6(self):
        # all vertex orders; the star order enters N only through the set
        # of i-star edges revealed before {i,j}, so sweeping every prefix
        # subset covers every star order of E_i exactly
        X = enumerate_pool("1f-labeled", 6).items[0]
        pairs = [(1, 2), (2, 5), (4, 3)]
        for vo in itertools.permutations(range(1, 7)):
            pos = {v: p for p, v in enumerate(vo)}
            for (i, j) in pairs:
                if pos[i] > pos[j]:
                    continue
                star = [u for u in vo if pos[u] > pos[i]]
                truth = X.table[i][j]
                ruled_always = set()
                for t in vo[:pos[i]]:
                    ruled_always.add(X.table[t][i])
                    ruled_always.add(X.table[t][j])
                mset = set(range(1, 6)) - ruled_always
                assert truth in mset
                for r in range(len(star)):
                    for before in itertools.combinations([u for u in star if u != j], r):
                        nset = mset - {X.table[i][u] for u in before}
                        assert truth in nset

    def test_truth_inclusion_exhaustive_sts_n7(self):
        # all 5040 vertex orders; star orders quotiented by the before-set
        pairs = [(1, 2), (2, 4), (5, 3)]
        X = FANO_TS
        for vo in itertools.permutations(range(1, 8)):
            pos = {v: p for p, v in enumerate(vo)}
            for (i, j) in pairs:
                k = X.table[i][j]
                if pos[i] > pos[j] or pos[i] > pos[k]:
                    continue
                star = [u for u in vo if pos[u] > pos[i]]
                others = [t for t in range(1, 8) if t not in (i, j)]
                mset = {t for t in others
                        if pos[t] > pos[i]
                        and pos[X.table[i][t]] >= pos[i]
                        and pos[X.table[j][t]] >= pos[i]}
                assert k in mset
                rest = [u for u in star if u not in (j, k)]
                # {i,k} after {i,j} is what keeps the reveal informative
                for r in range(len(rest) + 1):
                    for before in itertools.combinations(rest, r):
                        ruled = {t for t in mset
                                 if t in before or X.table[i][t] in before}
                        assert k in mset - ruled

    def test_mset_ignores_star_orders(self):
        # Mset is a function of the vertex order alone; across 100 star
        # resamples every non-trivial reveal of a pair shows one Mset
        # (triviality itself can flip for triple systems, so compare
        # within the non-trivial reveals)
        rnd = random.Random(13)
        for _ in range(5):
            base = random_order(7, rnd)
            pos = {v: p for p, v in enumerate(base.vertex_order)}
            seen: dict[tuple[int, int], set[frozenset[int]]] = {}
            for _ in range(100):
                so = {v: tuple(sorted((u for u in base.vertex_order if pos[u] > pos[v]),
                                      key=lambda _: rnd.random()))
                      for v in base.vertex_order}
                resampled = make_reveal_order(7, base.vertex_order, so)
                for i, j in itertools.permutations(range(1, 8), 2):
                    rs = reveal_sets_sts(FANO_TS, resampled, i, j)
                    if not rs.trivial:
                        seen.setdefault((i, j), set()).add(rs.Mset)
            assert seen, "some pair must be informative somewhere"
            for msets in seen.values():
                assert len(msets) == 1
        # for edge colorings triviality is star-independent, so Msets
        # (and the trivial flags) must agree across every resample
        for _ in range(5):
            base = random_order(4, rnd)
            pos = {v: p for p, v in enumerate(base.vertex_order)}
            ref = {(i, j): reveal_sets_1f(K4, base, i, j)
                   for i, j in itertools.permutations(range(1, 5), 2)}
            for _ in range(100):
                so = {v: tuple(sorted((u for u in base.vertex_order if pos[u] > pos[v]),
                                      key=lambda _: rnd.random()))
                      for v in base.vertex_order}
                resampled = make_reveal_order(4, base.vertex_order, so)
                for i, j in itertools.permutations(range(1, 5), 2):
                    rs = reveal_sets_1f(K4, resampled, i, j)
                    assert rs.trivial == ref[(i, j)].trivial
                    assert rs.Mset == ref[(i, j)].Mset

    def test_informative_probability_one_sixth_5_sigma(self):
        # the reveal of a pair is informative with probability 1/6
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(20)))
        rnd = random.Random(21)
        pairs = [tuple(rnd.sample(range(1, 8), 2)) for _ in range(5)]
        trials = 100_000
        hits = {pair: 0 for pair in pairs}
        for _ in range(trials):
            order = sample_reveal_order(7, rng=rng)
            pos = {v: p for p, v in enumerate(order.vertex_order)}
            for (i, j) in pairs:
                k = FANO_TS.table[i][j]
                if pos[i] < pos[j] and pos[i] < pos[k]:
                    star = order.star_orders[i]
                    if star.index(j) < star.index(k):
                        hits[(i, j)] += 1
        sigma = math.sqrt(trials * (1 / 6) * (5 / 6))
        for pair in pairs:
            assert abs(hits[pair] - trials / 6) <= 5 * sigma
