"""Conditional-law verdicts: exact rational equalities and MC tolerances."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from designcount.core import DesignError, validate_edge_coloring, validate_triple_system
from designcount import enumeration
from designcount.enumeration import PoolTooLargeError, enumerate_pool
from designcount.entropylab import (
    EmptyConditionError,
    TooLargeError,
    make_reveal_order,
    reveal_sets_1f,
    reveal_sets_sts,
    verify_M_expectation,
    verify_N_law,
    verify_position_law,
    verify_suite,
)
from designcount.entropylab import lemmas, rates
from designcount.entropylab.lemmas import verdicts_to_csv, verdicts_to_json

from oracles import FANO, PG32

FANO_TS = validate_triple_system(7, FANO)
PG32_TS = validate_triple_system(15, PG32)


class TestPositionLawExact:
    def test_1f_n6_all_positions(self):
        verdicts = verify_position_law("1f", 6, "exact")
        assert [v.conditioning["p"] for v in verdicts] == [1, 2, 3, 4, 5]
        assert all(v.passed for v in verdicts)
        assert verdicts[0].formula == Fraction(1, 3)
        assert verdicts[0].observed == Fraction(1, 3)

    def test_sts_n7_all_positions(self):
        verdicts = verify_position_law("sts", 7, "exact")
        assert [v.conditioning["p"] for v in verdicts] == [1, 2, 3, 4, 5]
        assert all(v.passed for v in verdicts)
        assert verdicts[4].formula == Fraction(1, 35)

    def test_probabilities_sum_to_one(self):
        for variant, n in (("1f", 6), ("sts", 7)):
            verdicts = verify_position_law(variant, n, "exact")
            assert sum(v.formula for v in verdicts) == 1

    def test_q_law_m5(self):
        verdicts = verify_position_law("sts", 5, "exact", law="q")
        assert all(v.passed for v in verdicts)
        assert verdicts[3].formula == Fraction(1, 10)
        assert verdicts[3].observed == Fraction(1, 10)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            verify_position_law("1f", 12, "exact")


class TestPositionLawMC:
    def test_1f_within_5_sigma(self):
        verdicts = verify_position_law("1f", 6, "mc", samples=20_000, seed=5)
        assert all(v.passed for v in verdicts)
        assert all(v.se is not None and v.se > 0 for v in verdicts)

    def test_q_law_mc(self):
        verdicts = verify_position_law("sts", 5, "mc", samples=20_000, seed=5, law="q")
        assert all(v.passed for v in verdicts)

    def test_past_the_kernel_is_refused_before_any_order(self):
        # above sts 62 and 1f 63 points (a q-law star m above 61) no reveal
        # is read; n = 10**9 returns at once and allocates nothing
        cases = [("dist-p", "1f", 64), ("dist-p-2", "sts", 63), ("q-law", "sts", 62)]
        cases += [(lemma, variant, 10**9) for lemma, variant, _ in cases]
        tracemalloc.start()
        start = time.perf_counter()
        for lemma, variant, n in cases:
            with pytest.raises(TooLargeError, match=f"got n={n + (lemma == 'q-law')}$"):
                verify_suite(lemma, variant, n, "mc", samples=4096, seed=1)
        seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert seconds < 1 and peak < 1 << 16
        for lemma, variant, n, size in (("dist-p", "1f", 63, 2), ("dist-p-2", "sts", 62, 3),
                                        ("q-law", "sts", 61, 2)):
            assert len(verify_suite(lemma, variant, n, "mc", samples=100, seed=1)) == n - size + 1

    def test_orders_are_the_same_rows_in_any_batch(self, monkeypatch):
        # a row-wise shuffle draws one permutation per row, so the batch size
        # moves neither the orders nor the verdicts drawn from them
        rows = lambda: np.vstack(list(lemmas._orders(7, "mc", 9000, 5)))
        want, verdicts = rows(), verify_suite("exp-m", "1f", 6, "mc", samples=3000, seed=5)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        assert want.tolist() == [rng.permutation(7).tolist() for _ in range(9000)]
        for size in (1, 7, 512, 4096, 10_000):
            monkeypatch.setattr(lemmas, "BLOCK_SIZE", size)
            assert [len(b) for b in lemmas._orders(7, "mc", 9000, 5)][0] == min(size, 9000)
            assert (rows() == want).all(), size
            assert verify_suite("exp-m", "1f", 6, "mc", samples=3000, seed=5) == verdicts, size


class TestPositions:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_positions_are_the_argsort(self, dtype):
        # the orders the callers pass, int8 (all_orders) and int64 (draws,
        # anchored exact orders, orders - 1), in the narrowest unsigned type
        rng = np.random.default_rng(31)
        for m in range(1, 64):
            for rows in (0, 1, 4096):
                perms = rng.permuted(np.tile(np.arange(m, dtype=dtype), (rows, 1)), axis=1)
                got = lemmas._positions(perms)
                assert got.dtype == np.uint8, (m, rows)
                assert (got == np.argsort(perms, axis=1)).all(), (m, rows)


class TestMExpectation1f:
    def test_measured_form_and_printed_discrepancy(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        derived_all, printed_all = [], []
        for p in range(1, 6):
            main, info = verify_M_expectation("1f", X, 1, 2, p, "exact")
            assert main.lemma == "exp-m" and info.informational
            derived_all.append(main.passed)
            printed_all.append(info.passed)
        assert all(derived_all)
        assert not all(printed_all)   # the printed denominator fails below p=4

    def test_nothing_ruled_out_when_first(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        main, info = verify_M_expectation("1f", X, 1, 2, 1, "exact")
        assert main.observed == 5            # n-1: anchor leads the order
        assert info.formula == Fraction(17, 5)
        assert not info.passed

    def test_every_pair_matches_measured_form(self):
        X = enumerate_pool("1f-labeled", 6).items[3]
        for i, j in itertools.permutations(range(1, 7), 2):
            for p in (1, 3, 5):
                main = verify_M_expectation("1f", X, i, j, p, "exact")[0]
                assert main.passed

    def test_empty_condition(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        with pytest.raises(EmptyConditionError):
            verify_M_expectation("1f", X, 1, 2, 6, "exact")   # no room for j

    def test_pair_outside_the_vertices(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        for i, j in ((0, 2), (1, 0), (1, 7), (7, 1)):
            for mode in ("exact", "mc"):
                with pytest.raises(DesignError, match="outside 1..6"):
                    verify_M_expectation("1f", X, i, j, 2, mode, samples=10)

    def test_mc_agrees(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        # p=2 leaves no randomness in M (one earlier vertex always rules
        # out two colors); p=3 has genuine variance
        det = verify_M_expectation("1f", X, 1, 2, 2, "mc", samples=20_000, seed=3)[0]
        assert det.passed and det.se == 0.0 and det.observed == 3.0
        noisy = verify_M_expectation("1f", X, 1, 2, 3, "mc", samples=20_000, seed=3)[0]
        assert noisy.passed and noisy.se > 0


class TestMExpectationSts:
    def test_leading_anchor_sees_everything(self):
        out = verify_M_expectation("sts", FANO_TS, 2, 4, 1, "exact")
        assert len(out) == 1
        assert out[0].observed == 5 and out[0].formula == 5   # n-2 at p=1

    def test_zero_product_tail(self):
        out = verify_M_expectation("sts", FANO_TS, 2, 4, 3, "exact")
        assert out[0].observed == 1 and out[0].formula == 1

    def test_all_pairs_all_positions(self):
        for i, j in itertools.permutations(range(1, 8), 2):
            for p in range(1, 6):
                v = verify_M_expectation("sts", FANO_TS, i, j, p, "exact")[0]
                assert v.passed, (i, j, p)


def _all_orders(n):
    return np.array(list(itertools.permutations(range(n))))


@pytest.mark.parametrize("variant", ["sts", "1f"])
def test_exact_m_matches_order_enumeration(variant):
    # exact mode takes one order per set of vertices before i; averaging the
    # kernel's M over every order that puts i at p before j (and k) must give
    # the same rational over the same number of orders
    X = FANO_TS if variant == "sts" else enumerate_pool("1f-labeled", 6).items[100]
    orders = _all_orders(X.n)
    pos = np.argsort(orders, axis=1)
    for i, j in itertools.permutations(range(1, X.n + 1), 2):
        anchors = (j, X.table[i][j]) if variant == "sts" else (j,)
        for p in range(1, X.n + 1):
            keep = pos[:, i - 1] == p - 1
            for a in anchors:
                keep &= pos[:, a - 1] > p - 1
            if not keep.any():
                with pytest.raises(EmptyConditionError):
                    verify_M_expectation(variant, X, i, j, p, "exact")
                continue
            want = rates.pair_values(variant, np.array([X.table]), 0, orders[keep] + 1,
                                     p - 1, pos[keep, j - 1])[0]
            v = verify_M_expectation(variant, X, i, j, p, "exact")[0]
            assert v.observed == Fraction(int(want.sum()), len(want)), (i, j, p)
            assert v.samples == len(want)


def _star_order_n(variant, X, vo, p, stars, j):
    """N of the pair (vo[p], j) read by reveal.py, one per order of vo[p]'s star in
    ``stars``; every other star is read in vertex order."""
    reveal_sets = reveal_sets_1f if variant == "1f" else reveal_sets_sts
    others = {v: vo[q + 1:] for q, v in enumerate(vo)}
    return np.array([reveal_sets(X, make_reveal_order(X.n, vo, {**others, vo[p]: star}),
                                 vo[p], j).N for star in stars.tolist()])


@pytest.mark.parametrize("variant,vertex_orders", [
    ("1f", [(1, 2, 3, 4, 5, 6), (4, 2, 6, 1, 5, 3)]),
    ("sts", [(1, 2, 3, 4, 5, 6, 7), (5, 3, 7, 1, 6, 2, 4)]),
])
def test_exact_n_law_matches_star_order_enumeration(variant, vertex_orders):
    # exact mode takes one star order per set of star elements before j;
    # every star order of i's forward star must give the same law
    X = FANO_TS if variant == "sts" else enumerate_pool("1f-labeled", 6).items[100]
    for vo in vertex_orders:
        for p in (0, 1):                       # i first, then i second
            i, forward = vo[p], np.array(vo[p + 1:])
            star = forward[_all_orders(len(forward))]
            for j in forward:
                j = int(j)
                got = _star_order_n(variant, X, vo, p, star, j)
                if variant == "1f":
                    verdicts = verify_N_law("1f", X, vo, i, j)
                    for v in verdicts:
                        assert v.observed == Fraction(int((got == v.conditioning["v"]).sum()),
                                                      len(star))
                        assert v.samples == len(star)
                    continue
                k = X.table[i][j]
                if vo.index(k) < p:
                    continue
                for q in range(1, len(forward)):
                    keep = (star[:, q - 1] == j) & (np.argmax(star == k, axis=1) > q - 1)
                    v = verify_N_law("sts", X, vo, i, j, q=q)[0]
                    assert v.observed == Fraction(int(got[keep].sum()), int(keep.sum()))
                    assert v.samples == keep.sum()


def test_exact_m_position_outside_the_order():
    X = enumerate_pool("1f-labeled", 6).items[0]
    for variant, design in (("sts", FANO_TS), ("1f", X)):
        for p in (0, design.n + 1):
            with pytest.raises(EmptyConditionError, match=f"p={p}"):
                verify_M_expectation(variant, design, 1, 2, p, "exact")


# the round-robin 1-factorization of K_16: color c + 1 joins c to infinity (16)
# and c - t to c + t (mod 15), with residue r as vertex r + 1
K16 = validate_edge_coloring(16, {
    tuple(sorted(((c - t) % 15 + 1, (c + t) % 15 + 1))) if t else (c + 1, 16): c + 1
    for c in range(15) for t in range(8)})


def test_exact_n_law_bounds_its_sets():
    # i first leaves a 14-element star; the sts law builds only the sets with
    # j at q and k after it, C(12, q-1) <= 924 of them
    first = tuple(range(1, 16))
    for q in (1, 7, 13):
        v = verify_N_law("sts", PG32_TS, first, 1, 2, q=q)[0]
        assert v.conditioning["m"] == 14 and v.passed
        assert v.samples == (14 - q) * math.factorial(12)
    # the 1f law reads every set before j: 2^14 with i first in K_16, above the bound
    with pytest.raises(TooLargeError, match="gated at sets <= 5040, got 16384"):
        verify_N_law("1f", K16, tuple(range(1, 17)), 1, 2)
    # i third leaves a 12-element star
    third = (14, 15, 1, 2) + tuple(range(3, 14))
    assert PG32_TS.table[1][2] == 3
    for q in (1, 5, 10):
        v = verify_N_law("sts", PG32_TS, third, 1, 2, q=q)[0]
        assert v.conditioning["m"] == 12 and v.passed
        assert v.samples == (12 - q) * math.factorial(10)   # j at q, k after it


class TestNLaw1f:
    def test_uniform_on_identity_order(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        verdicts = verify_N_law("1f", X, (1, 2, 3, 4, 5, 6), 1, 4)
        M = verdicts[0].conditioning["M"]
        assert len(verdicts) == M
        for v in verdicts:
            assert v.passed and v.formula == Fraction(1, M)

    def test_uniform_on_random_orders(self):
        rnd = random.Random(3)
        pool = enumerate_pool("1f-labeled", 6).items
        for _ in range(6):
            X = rnd.choice(pool)
            vo = list(range(1, 7))
            rnd.shuffle(vo)
            i = vo[0]
            j = rnd.choice(vo[1:])
            verdicts = verify_N_law("1f", X, tuple(vo), i, j)
            assert all(v.passed for v in verdicts)

    def test_needs_i_before_j(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        with pytest.raises(EmptyConditionError):
            verify_N_law("1f", X, (2, 1, 3, 4, 5, 6), 1, 2)


class TestNLawSts:
    def test_first_position_keeps_all_of_mset(self):
        # q=1: nothing in the star precedes {i,j}, so E[N] = l exactly
        v = verify_N_law("sts", FANO_TS, (1, 2, 3, 4, 5, 6, 7), 2, 4, q=1)[0]
        assert v.observed == v.conditioning["l"] and v.passed

    def test_q_sweep_identity_order(self):
        for q in (1, 2, 3, 4):
            v = verify_N_law("sts", FANO_TS, (1, 2, 3, 4, 5, 6, 7), 2, 4, q=q)[0]
            assert v.passed

    def test_zero_product_collapse_at_q_m_minus_2(self):
        # at q = m-2 the quadratic factor (m-q-1)(m-q-2) vanishes, so the
        # expectation collapses to 1 whatever l is; check it at reachable
        # configurations: (m=5, l=2) at n=7 and (m=6, l=3) at n=9
        v = verify_N_law("sts", FANO_TS, (1, 2, 3, 4, 5, 6, 7), 2, 4, q=3)[0]
        assert v.conditioning["m"] == 5 and v.conditioning["l"] == 2
        assert v.formula == 1 and v.observed == 1 and v.passed

        pool = enumerate_pool("sts", 9)
        rnd = random.Random(4)
        found = None
        while found is None:
            X = pool.items[rnd.randrange(len(pool))]
            vo = list(range(1, 10))
            rnd.shuffle(vo)
            pos = {v: p for p, v in enumerate(vo)}
            i = vo[2]                         # anchor third: star size m = 6
            for j in vo[3:]:
                k = X.table[i][j]
                if pos[k] < pos[i]:
                    continue
                others = [t for t in range(1, 10) if t not in (i, j)]
                l = sum(1 for t in others
                        if pos[t] > pos[i]
                        and pos[X.table[i][t]] >= pos[i]
                        and pos[X.table[j][t]] >= pos[i])
                if l == 3:
                    found = (X, tuple(vo), i, j)
                    break
        X, vo, i, j = found
        v = verify_N_law("sts", X, vo, i, j, q=4)[0]
        assert v.conditioning["m"] == 6 and v.conditioning["l"] == 3
        assert v.formula == 1 and v.observed == 1 and v.passed

    def test_m5_l3_is_unreachable(self):
        # no reveal of any triple system on 7 or 9 points produces star
        # size 5 with three open values: one anchor-preceding vertex rules
        # out exactly three points (n=7), and with three preceding vertices
        # (n=9) at least four are always closed; checked exhaustively over
        # every earlier-subset for one system of each order
        for n, X in ((7, FANO_TS), (9, enumerate_pool("sts", 9).items[0])):
            m = 5
            earlier = n - 1 - m
            for i, j in itertools.permutations(range(1, n + 1), 2):
                k = X.table[i][j]
                others = set(range(1, n + 1)) - {i, j}
                for W in itertools.combinations(sorted(others - {k}), earlier):
                    ruled = set(W)
                    for w in W:
                        ruled.add(X.table[i][w])
                        ruled.add(X.table[j][w])
                    assert len(others - ruled) != 3

    def test_two_open_values_need_star_size_4(self):
        # an open t other than k brings its partner table[i][t] into i's star, so
        # l >= 2 puts j, k, t and table[i][t] there: the formula's (m-2)(m-3) > 0;
        # every set W of points before i, for one system of each order
        for n, X in ((7, FANO_TS), (9, enumerate_pool("sts", 9).items[0])):
            for i, j in itertools.permutations(range(1, n + 1), 2):
                k = X.table[i][j]
                others = set(range(1, n + 1)) - {i, j}
                for size in range(n - 2):
                    for W in itertools.combinations(sorted(others - {k}), size):
                        ruled = set(W).union(*({X.table[i][w], X.table[j][w]} for w in W))
                        assert len(others - ruled) == 1 or n - 1 - size >= 4

    def test_empty_condition_when_k_precedes(self):
        # find an order where k lands before i
        for vo in itertools.permutations(range(1, 8)):
            pos = {v: p for p, v in enumerate(vo)}
            i, j = 2, 4
            k = FANO_TS.table[i][j]
            if pos[i] < pos[j] and pos[k] < pos[i]:
                with pytest.raises(EmptyConditionError):
                    verify_N_law("sts", FANO_TS, vo, i, j, q=1)
                return
        pytest.fail("no qualifying order found")


class TestRefusals:
    def test_unknown_variant(self):
        X = enumerate_pool("1f-labeled", 4).items[0]
        for check in (lambda: verify_position_law("2f", 4, "exact"),
                      lambda: verify_M_expectation("2f", X, 1, 2, 1),
                      lambda: verify_N_law("2f", X, (1, 2, 3, 4), 1, 2)):
            with pytest.raises(DesignError, match="^unknown variant '2f'$"):
                check()

    def test_a_design_of_the_other_variant(self):
        X = enumerate_pool("1f-labeled", 6).items[0]
        with pytest.raises(DesignError, match="^1f variant needs an EdgeColoring$"):
            verify_M_expectation("1f", FANO_TS, 1, 2, 1)
        with pytest.raises(DesignError, match="^sts variant needs a TripleSystem$"):
            verify_M_expectation("sts", X, 1, 2, 1)

    def test_sts_n_law_needs_q_in_1_to_m_minus_1(self):
        vo = (1, 2, 3, 4, 5, 6, 7)   # i = 2 has the star size m = 5
        with pytest.raises(DesignError, match="^triple-system N law needs the star position q$"):
            verify_N_law("sts", FANO_TS, vo, 2, 4)
        for q in (0, 5):
            with pytest.raises(EmptyConditionError,
                               match=f"^position q={q} cannot precede the companion edge$"):
                verify_N_law("sts", FANO_TS, vo, 2, 4, q=q)


def _mc_fail_rate(samples, p, formula, gate_counts=True):
    """The probability that a mean of ``samples`` draws of N, 3 with
    probability p and 1 otherwise, fails against ``formula``: an exact
    binomial sum over the number of 3s.  Without ``gate_counts`` the gate
    is the sample SE alone; either way the rule never fails a draw the
    sample SE passes."""
    rate = 0.0
    for threes in range(samples + 1):
        cell = [0, samples - threes, 0, threes]
        observed, se, _ = lemmas._mean(cell, False, {})
        passed = lemmas._passed(observed, formula, se, cell)
        assert passed or not lemmas._passed(observed, formula, se)
        if not (passed if gate_counts else lemmas._passed(observed, formula, se)):
            rate += math.comb(samples, threes) * p ** threes * (1 - p) ** (samples - threes)
    return rate


class TestMonteCarloGate:
    @pytest.mark.parametrize("seed, cond, observed, se", [
        (414706468, {"i": 1, "j": 7, "q": 5}, 1.1123595505617978, 0.04909342120816309),
        (1782701719, {"i": 1, "j": 3, "q": 3}, 3.1714285714285713, 0.04244464872618328),
        (1398616920, {"i": 7, "j": 5, "q": 5}, 1.1428571428571428, 0.048889111745746665),
    ])
    def test_a_low_draw_of_a_true_law_passes(self, seed, cond, observed, se):
        # each seed once drew a cell of N in {1, 3} or {1, 4} low, and
        # 5 sample SEs failed it; the law holds exactly (TestSuitesAndSerialization)
        verdicts = verify_suite("n-law", "sts", 9, "mc", samples=2000, seed=seed)
        cell, = [v for v in verdicts if cond.items() <= v.conditioning.items()]
        assert (cell.observed, cell.se) == (observed, se)
        assert all(v.passed for v in verdicts)

    def test_a_share_gates_on_its_bernoulli_se(self):
        # a share of 1000 draws seen 0 times, or 2 in 1000 against 1/100:
        # the sample SE alone (0.0, 0.0014) fails a true law; at least
        # sqrt(f(1-f)/total) = 0.0031 passes it and still catches 5/100
        f = Fraction(1, 100)
        # a share drawn never or always reports its sample SE, 0.0
        assert lemmas._share(0, 1000, False) == (0.0, 0.0)
        assert lemmas._share(1000, 1000, False) == (1.0, 0.0)
        for observed, se in ((0.0, 0.0), (0.002, math.sqrt(0.002 * 0.998 / 1000))):
            assert not lemmas._passed(observed, f, se)
            assert lemmas._passed(observed, f, se, total=1000)
        assert not lemmas._passed(0.05, f, math.sqrt(0.05 * 0.95 / 1000), total=1000)

    def test_false_failures_and_power_on_a_two_valued_mean(self):
        # E[N] = 7/5 with N = 3 one time in 5, as in the cells above
        law, p = Fraction(7, 5), 0.2
        assert _mc_fail_rate(89, p, law, gate_counts=False) > 1e-4
        for samples in (89, 175):
            assert _mc_fail_rate(samples, p, law) < 2e-8
        # a formula 0.3 off is caught about as often as by the sample SE
        for wrong, power in ((law + Fraction(3, 10), 0.93), (law - Fraction(3, 10), 0.99)):
            assert _mc_fail_rate(400, p, wrong) > power
            assert _mc_fail_rate(400, p, wrong, gate_counts=False) > 0.98


class TestSuitesAndSerialization:
    def test_dist_p_suite(self):
        verdicts = verify_suite("dist-p", "1f", 6, "exact")
        assert all(v.passed for v in verdicts)

    def test_exp_m_suite_reports_discrepancy(self):
        verdicts = verify_suite("exp-m", "1f", 6, "exact")
        gate = [v for v in verdicts if not v.informational]
        info = [v for v in verdicts if v.informational]
        assert all(v.passed for v in gate)
        assert any(not v.passed for v in info)

    def test_exp_m_2_suite(self):
        verdicts = verify_suite("exp-m-2", "sts", 7, "exact")
        assert all(v.passed for v in verdicts)

    def test_n_law_suites(self):
        assert all(v.passed for v in verify_suite("n-law", "1f", 6, "exact"))
        assert all(v.passed for v in verify_suite("n-law", "sts", 7, "exact"))

    def test_exp_m_with_two_ordered_pairs(self):
        # n=2 has only (1,2) and (2,1); the pair selection must not wait for a third
        verdicts = verify_suite("exp-m", "1f", 2, "exact")
        assert [v.conditioning["i"] for v in verdicts] == [1, 1, 2, 2]
        assert all(v.passed for v in verdicts if not v.informational)

    def test_variant_mismatch(self):
        with pytest.raises(DesignError):
            verify_suite("dist-p", "sts", 7, "exact")

    def test_unknown_lemma(self):
        with pytest.raises(DesignError):
            verify_suite("dist-q", "1f", 6, "exact")

    def test_csv_columns(self):
        verdicts = verify_position_law("1f", 6, "exact")
        lines = verdicts_to_csv(verdicts).splitlines()
        assert lines[0] == ("lemma,variant,n,conditioning,formula-num,formula-den,"
                            "observed-num,observed-den,se,pass")
        assert lines[1] == "dist-p,1f,6,p=1,1,3,1,3,,True"

    def test_json_exact_rationals(self):
        import json
        verdicts = verify_position_law("sts", 7, "exact")
        docs = json.loads(verdicts_to_json(verdicts))
        assert docs[4]["formula"] == [1, 35] and docs[4]["observed"] == [1, 35]


class TestPinnedOutput:
    # sha256 of verdicts_to_json, recorded before the laws read M and N
    # from the batched reveal kernel (seed 0)
    @pytest.mark.parametrize("lemma,variant,n,digest", [
        ("dist-p", "1f", 6, "c6b981e93c14b7986f53225f6d25f13a9e67450fdaee5ec60de577f38fdd81a8"),
        ("exp-m", "1f", 6, "71400a18c1eb341f769848a5ced63a4dbb7f59e886ba5a7cffa65e16b7570d9d"),
        ("n-law", "1f", 6, "ce01647b75fffd62c81afb84b61e2641c415043e50c157922fc2ddb842a6c173"),
        ("dist-p-2", "sts", 7, "31fa6968bdf96153d0ae497d0f5c7f87d7ff236f2feef1f6370bc5209fa41b27"),
        ("exp-m-2", "sts", 7, "60344a4bcd822a7300779a71c37854fff1e6eeb657fb8a39f2b001b7902a76dc"),
        ("q-law", "sts", 7, "79b8a40489371eb22036e4e440367fa92d43c51c872d1a01b47cde8a1e133b5d"),
        ("n-law", "sts", 7, "9ab5b250ff01618fce3f7ba926a185d6ef31d73b3c8d8984a18c3fb6728084be"),
    ])
    def test_exact_suites(self, lemma, variant, n, digest):
        out = verdicts_to_json(verify_suite(lemma, variant, n, "exact"))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_mc_frequencies_byte_identical(self):
        out = verdicts_to_json(verify_suite("q-law", "sts", 7, "mc", samples=20_000))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "512190ae85253d452b28d9c857ae403a9856a8bfac4eb6de86f96fd96efa6ddf")

    # sha256 of verdicts_to_json, recorded before the suites drew their
    # orders once and read every conditioning value from one kernel pass
    @pytest.mark.parametrize("lemma,variant,n,samples,digest", [
        ("exp-m", "1f", 6, 8000, "457745f8f87bdd51ec7ec3273cf80200e661332684e244a1f7fe465f8738c9f0"),
        ("exp-m-2", "sts", 9, 2000, "cdcef3dfd5d5fcd8fee1bf40ef9ee2e78850cdb7dce321be37ab154599750619"),
        ("n-law", "sts", 9, 2000, "c4f40fdba9c6c517cbead887730d9e1119e7a1057eb212a8d283ef344c982d99"),
        ("n-law", "1f", 6, 2000, "228fa6149f3d7b959955602d9ccc00b1452df8fde7fd343db1368d15c067ed7e"),
        ("n-law", "sts", 7, 3000, "b11328f7d50389bb2cee4b868af3e6bbba5ac4d76473eeb7455924c012252fac"),
    ])
    def test_mc_suites(self, lemma, variant, n, samples, digest):
        out = verdicts_to_json(verify_suite(lemma, variant, n, "mc", samples=samples))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_mc_position_law_past_the_int8_orders(self):
        # 40 points, uint8 positions of int64 orders: recorded before the
        # orders were shuffled in place and their positions scattered, and
        # moved only when its three shares drawn 0 times reported SE 0.0
        out = verdicts_to_json(verify_suite("dist-p-2", "sts", 40, "mc", samples=4096, seed=1))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1b654693c5e6d9604a41c4ce8018ac2de1ff63604009a328427283f6ff2460e4")

    def test_mc_draws_unchanged(self):
        # batched draws accept the same orders as one permutation per sample
        gate = [v for v in verify_suite("exp-m", "1f", 6, "mc", samples=8000)
                if not v.informational]
        assert [v.samples for v in gate] == [1363, 1067, 780, 503, 267, 1305, 1062, 811,
                                             582, 239, 1318, 1096, 758, 537, 250]
        assert all(v.passed for v in gate)


class TestDefaultDesign:
    GATED = [("sts", n) for n in (1, 3, 7, 9)] + [("1f", n) for n in (2, 4, 6)]

    @pytest.mark.parametrize("variant,n", GATED)
    def test_first_pool_item_without_a_pool(self, monkeypatch, variant, n):
        kind = "sts" if variant == "sts" else "1f-labeled"
        want = enumerate_pool(kind, n).items[0]

        def refuse(*args):
            raise AssertionError("enumerate_pool called")
        monkeypatch.setattr(enumeration, "enumerate_pool", refuse)
        monkeypatch.setattr(lemmas, "enumerate_pool", refuse, raising=False)
        assert lemmas._default_design(variant, n) == want

    @pytest.mark.parametrize("variant,n", [("sts", 13), ("1f", 8)])
    def test_gate(self, variant, n):
        kind = "sts" if variant == "sts" else "1f-labeled"
        with pytest.raises(PoolTooLargeError) as pool_error:
            enumerate_pool(kind, n)
        with pytest.raises(PoolTooLargeError) as design_error:
            lemmas._default_design(variant, n)
        assert str(design_error.value) == str(pool_error.value)

    @pytest.mark.parametrize("variant,n", [("sts", 5), ("sts", 6), ("1f", 3), ("1f", 5)])
    def test_infeasible(self, variant, n):
        with pytest.raises(DesignError, match=f"^no {variant} design exists on {n} points$"):
            lemmas._default_design(variant, n)
