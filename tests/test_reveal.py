"""Reveal orders and availability sets against literal transcriptions."""

import dataclasses
import hashlib
import inspect
import itertools
import math
import pickle
import random
import re

import numpy as np
import pytest

from designcount.core import (
    BadVertexError,
    DesignError,
    SameVertexError,
    validate_edge_coloring,
    validate_triple_system,
)
from designcount.enumeration import enumerate_pool
from designcount.entropylab import (
    RevealOrder,
    RevealSets,
    make_reveal_order,
    reveal_sets_1f,
    reveal_sets_sts,
    sample_reveal_order,
)

from oracles import FANO, K4_COLORING, hand_reveal_sets_1f, hand_reveal_sets_sts, round_robin


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


def oracle_records():
    """The repr of every order and every record the oracle returns on a
    fixed input set: all 1,728 reveals (design, vertex order, star orders)
    of the six labeled 1f 4 designs, and 25 seeded orders each at 1f 6,
    sts 7 and sts 9, sampled and rebuilt through make_reveal_order, all
    with every ordered pair.  Reprs pin the sets' iteration order too."""
    pairs = list(itertools.permutations(range(1, 5), 2))
    for X in enumerate_pool("1f-labeled", 4).items:
        for vo in itertools.permutations(range(1, 5)):
            for stars in itertools.product(*(itertools.permutations(vo[p + 1:]) for p in range(4))):
                order = make_reveal_order(4, vo, dict(zip(vo, stars)))
                yield repr(order) + repr(order.positions)
                yield from (repr(reveal_sets_1f(X, order, i, j)) for i, j in pairs)
    for kind, n, reveal_sets in (("1f-labeled", 6, reveal_sets_1f), ("sts", 7, reveal_sets_sts),
                                 ("sts", 9, reveal_sets_sts)):
        items = enumerate_pool(kind, n).items
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        for seed in range(25):
            sampled = sample_reveal_order(n, seed=seed)
            rebuilt = make_reveal_order(n, sampled.vertex_order, sampled.star_orders)
            X = items[seed * 37 % len(items)]
            for order in (sampled, rebuilt):
                yield repr(order) + repr(order.positions)
                yield from (repr(reveal_sets(X, order, i, j)) for i, j in pairs)


def wide_oracle_records():
    """Reprs of records whose sets reach past 16 elements' hash slots, where
    a set's print order depends on how it was filled: 10 seeded orders each
    of the round-robin 1f 18 and the STS(31) of PG(4,2), 150 pairs each."""
    pg42 = validate_triple_system(31, {tuple(sorted((a, b, a ^ b)))
                                       for a in range(1, 32) for b in range(a + 1, 32)})
    rnd = random.Random(33)
    for X, reveal_sets in ((round_robin(18), reveal_sets_1f), (pg42, reveal_sets_sts)):
        pairs = list(itertools.permutations(range(1, X.n + 1), 2))
        for seed in range(10):
            order = sample_reveal_order(X.n, seed=seed)
            yield from (repr(reveal_sets(X, order, i, j)) for i, j in rnd.sample(pairs, 150))


class TestRecords:
    def test_oracle_records_pinned(self):
        # both recorded before RevealSets and RevealOrder filled their slots directly
        digest = hashlib.sha256("\n".join(oracle_records()).encode()).hexdigest()
        assert digest == "3594af796ad9473a2d3a7a50131a2cd987f6f2e19b7f29d9597dd9bf0eff7dd6"
        digest = hashlib.sha256("\n".join(wide_oracle_records()).encode()).hexdigest()
        assert digest == "01fd3328db00427d54c3642820bf4a6dee11b82e4dbf54af98ee921aad25511b"

    def test_signatures(self):
        def params(cls):
            return str(inspect.signature(cls).replace(return_annotation=inspect.Signature.empty))

        assert params(RevealSets) == (
            "(variant: 'str', i: 'int', j: 'int', A: 'frozenset[int]', B: 'frozenset[int]', "
            "Mset: 'frozenset[int]', Nset: 'frozenset[int]', trivial: 'bool', p: 'int', "
            "q: 'int | None', m: 'int')")
        assert params(RevealOrder) == (
            "(n: 'int', vertex_order: 'tuple[int, ...]', "
            "star_orders: 'dict[int, tuple[int, ...]]')")

    def test_equal_hash_frozen(self):
        order = sample_reveal_order(4, seed=1)
        again = make_reveal_order(4, order.vertex_order, order.star_orders)
        assert again == order and again.positions == order.positions
        assert again.positions == {v: p for p, v in enumerate(order.vertex_order)}
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(order)
        a, b = reveal_sets_1f(K4, order, 1, 2), reveal_sets_1f(K4, again, 1, 2)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != reveal_sets_1f(K4, order, 2, 1)
        assert pickle.loads(pickle.dumps(a)) == a and dataclasses.replace(a) == a
        assert (a.M, a.N) == (len(a.Mset), len(a.Nset))
        for record, name in ((a, "N"), (a, "A"), (order, "positions"), (order, "n")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert not hasattr(a, "__dict__") and not hasattr(order, "__dict__")

    def test_invariant_messages(self):
        one, two = frozenset({1}), frozenset({1, 2})
        with pytest.raises(DesignError, match="^Nset must be contained in Mset$"):
            RevealSets("1f", 1, 2, frozenset(), frozenset(), one, two, False, 1, 1, 3)
        with pytest.raises(DesignError, match="^Mset must be disjoint from A$"):
            RevealSets("1f", 1, 2, one, frozenset(), two, one, False, 1, 1, 3)
        with pytest.raises(DesignError, match="^N must be >= 1 on non-trivial reveals$"):
            RevealSets("1f", 1, 2, frozenset(), frozenset(), two, frozenset(), False, 1, 1, 3)
        rs = RevealSets("1f", 1, 2, frozenset(), frozenset(), two, frozenset(), True, 1, None, 3)
        assert (rs.M, rs.N) == (2, 0)

    def test_make_reveal_order_messages(self):
        with pytest.raises(DesignError, match=r"^vertex order must be a permutation of 1\.\.3$"):
            make_reveal_order(3, (1, 2, 2), {})
        with pytest.raises(DesignError, match=r"^vertex order must be a permutation of 1\.\.3$"):
            make_reveal_order(3, (1, 2), {})
        for stars in ({1: (2,), 2: (3,), 3: ()}, {1: (2, 3, 3), 2: (3,)},
                      {1: (2, 3), 2: (3,), 3: (1,)}):
            with pytest.raises(DesignError,
                               match="^star of [13] must order exactly its forward neighbors$"):
                make_reveal_order(3, (1, 2, 3), stars)
        # a vertex missing from the mapping has an empty star
        order = make_reveal_order(3, (1, 2, 3), {1: (3, 2), 2: (3,)})
        assert order.star_orders == {1: (3, 2), 2: (3,), 3: ()}


class TestRefusals:
    def test_order_of_another_n(self):
        one_f_6 = enumerate_pool("1f-labeled", 6).items[0]
        sts_9 = enumerate_pool("sts", 9).items[0]
        # 1f 6 in a 4-vertex order returned a record with Mset {3, 4, 5}, 1f 4 in a
        # 6-vertex order raised IndexError, and sts 9 in a 7-vertex order KeyError: 8
        for reveal_sets, X, order in ((reveal_sets_1f, one_f_6, identity_order(4)),
                                      (reveal_sets_1f, K4, identity_order(6)),
                                      (reveal_sets_sts, sts_9, identity_order(7)),
                                      (reveal_sets_sts, FANO_TS, identity_order(9))):
            for i, j in ((1, 2), (4, 1)):
                with pytest.raises(DesignError, match=rf"^reveal order on n={order.n} vertices "
                                                      rf"for a design on n={X.n}$"):
                    reveal_sets(X, order, i, j)

    def test_vertex_outside(self):
        # each raised a KeyError
        designs = ((reveal_sets_1f, enumerate_pool("1f-labeled", 6).items[0]),
                   (reveal_sets_sts, FANO_TS), (reveal_sets_sts, enumerate_pool("sts", 9).items[0]))
        for reveal_sets, X in designs:
            order = sample_reveal_order(X.n, seed=1)
            for bad in (0, -1, X.n + 1):
                for i, j in ((bad, 2), (2, bad)):
                    with pytest.raises(BadVertexError,
                                       match=rf"^vertex label {bad} outside 1\.\.{X.n}$"):
                        reveal_sets(X, order, i, j)

    def test_same_vertex(self):
        for reveal_sets, X in ((reveal_sets_1f, K4), (reveal_sets_sts, FANO_TS)):
            with pytest.raises(SameVertexError, match="^ordered pair needs distinct vertices$"):
                reveal_sets(X, identity_order(X.n), 3, 3)

    def test_one_vertex(self):
        with pytest.raises(DesignError, match="^n must be >= 2, got 1$"):
            sample_reveal_order(1, seed=1)

    @pytest.mark.parametrize("key", [99, 0, 4, "1"])
    def test_a_star_keyed_by_no_vertex(self, key):
        with pytest.raises(BadVertexError, match=rf"^star order keyed by {re.escape(repr(key))}, "
                                                 rf"not a vertex in 1\.\.3$"):
            make_reveal_order(3, (1, 2, 3), {1: (2, 3), 2: (3,), 3: (), key: (1,)})

    @pytest.mark.parametrize("n", [True, 4.0, np.int64(4), "4"],
                             ids=["bool", "float", "int64", "str"])
    def test_non_int_n(self, n):
        want = rf"^reveal order: n must be an int, got {re.escape(repr(n))}$"
        with pytest.raises(DesignError, match=want):
            make_reveal_order(n, (1,), {1: ()})
        with pytest.raises(DesignError, match=want):
            sample_reveal_order(n, seed=1)
