"""Validation, conversions, and interchange format of the core types."""

import contextlib
import dataclasses
import gc
import json
import pickle
import random
import re

import numpy as np
import pytest

from designcount import core
from designcount.core import (
    NOT_LATIN,
    BadColorError,
    BadVertexError,
    BulkError,
    ColorClashError,
    DesignError,
    DuplicatePairError,
    LatinSquare,
    MissingEdgeError,
    SameVertexError,
    UncoveredPairError,
    dumps,
    from_json_dict,
    is_latin,
    loads,
    one_factorization_feasible,
    sts_feasible,
    third_point,
    to_json_dict,
    to_latin_cube,
    validate_edge_coloring,
    validate_triple_system,
)
from designcount.enumeration import enumerate_pool

from oracles import FANO, K4_COLORING, all_pairs, oracle_is_latin


def circle_coloring(n):
    """Round-robin proper (n-1)-edge-coloring of K_n (n even)."""
    colors = {}
    m = n - 1
    for c in range(1, n):
        colors[(c, n)] = c
        for d in range(1, (n - 2) // 2 + 1):
            a = (c - 1 - d) % m + 1
            b = (c - 1 + d) % m + 1
            colors[(min(a, b), max(a, b))] = c
    return colors


class TestTripleSystemValidation:
    def test_unique_sts3(self):
        ts = validate_triple_system(3, [(1, 2, 3)])
        assert third_point(ts, 1, 2) == 3
        assert ts.sorted_triples() == [(1, 2, 3)]

    def test_fano_all_pairs(self):
        ts = validate_triple_system(7, FANO)
        assert third_point(ts, 2, 4) == 6
        # direct scan: every pair covered exactly once
        for (i, j) in all_pairs(7):
            hits = [t for t in FANO if i in t and j in t]
            assert len(hits) == 1
            assert third_point(ts, i, j) == next(v for v in hits[0] if v not in (i, j))

    def test_duplicate_pair(self):
        with pytest.raises(DuplicatePairError):
            validate_triple_system(7, [(1, 2, 3), (1, 2, 4)])

    @pytest.mark.parametrize("again", [(1, 2, 3), (3, 1, 2)])
    def test_repeated_triple_names_its_least_pair(self, again):
        with pytest.raises(DuplicatePairError, match=r"^pair \(1, 2\) is covered more than once$"):
            validate_triple_system(7, [(1, 2, 3), again])

    def test_uncovered_pair(self):
        with pytest.raises(UncoveredPairError):
            validate_triple_system(7, [(1, 2, 3)])

    def test_bad_vertex(self):
        with pytest.raises(BadVertexError):
            validate_triple_system(3, [(1, 2, 9)])

    def test_not_a_triple(self):
        with pytest.raises(Exception):
            validate_triple_system(3, [(1, 2, 2)])

    def test_no_points(self):
        with pytest.raises(BadVertexError, match=r"^n must be >= 1, got 0$"):
            validate_triple_system(0, [])

    def test_n_must_be_an_int(self):
        # True equals 1, so it built an empty system that dumped "n":true
        for n in (True, 3.0, "3"):
            with pytest.raises(DesignError, match=f"sts design: n must be an int, got {n!r}"):
                validate_triple_system(n, [] if n is True else [(1, 2, 3)])


class TestEdgeColoringValidation:
    def test_k4(self):
        ec = validate_edge_coloring(4, K4_COLORING)
        assert ec.color(1, 2) == 1
        assert ec.color(2, 1) == 1

    def test_color_clash(self):
        bad = dict(K4_COLORING)
        bad[(2, 3)] = 2
        with pytest.raises(ColorClashError) as e:
            validate_edge_coloring(4, bad)
        assert e.value.vertex == 2 and e.value.color == 2

    def test_missing_edge(self):
        partial = {k: v for k, v in K4_COLORING.items() if k != (1, 4)}
        with pytest.raises(MissingEdgeError):
            validate_edge_coloring(4, partial)

    def test_bad_color(self):
        bad = dict(K4_COLORING)
        bad[(1, 2)] = 5
        with pytest.raises(BadColorError):
            validate_edge_coloring(4, bad)

    def test_an_edge_from_a_vertex_to_itself(self):
        with pytest.raises(SameVertexError, match=r"^edge endpoints must differ, got 2$"):
            validate_edge_coloring(4, {**K4_COLORING, (2, 2): 1})

    def test_an_edge_in_both_orientations(self):
        # the same color twice is one edge; two colors are refused
        assert validate_edge_coloring(2, {(1, 2): 1, (2, 1): 1}).color(2, 1) == 1
        with pytest.raises(DesignError, match=r"^edge \(1, 2\) given two colors$"):
            validate_edge_coloring(4, {**K4_COLORING, (2, 1): 2})

    def test_n_must_be_an_int(self):
        for n in (4.0, True, None):
            with pytest.raises(DesignError, match=f"1f design: n must be an int, got {n!r}"):
                validate_edge_coloring(n, K4_COLORING)

    def test_all_labeled_colorings_validate_n6(self):
        pool = enumerate_pool("1f-labeled", 6)
        assert len(pool) == 720  # every enumerated coloring passed validation


class TestThirdPoint:
    def test_symmetry(self):
        ts = validate_triple_system(7, FANO)
        for (i, j) in all_pairs(7):
            assert third_point(ts, i, j) == third_point(ts, j, i)
            assert third_point(ts, i, j) not in (i, j)

    def test_sts3(self):
        ts = validate_triple_system(3, [(1, 2, 3)])
        assert third_point(ts, 1, 3) == 2

    def test_same_vertex(self):
        ts = validate_triple_system(3, [(1, 2, 3)])
        with pytest.raises(SameVertexError):
            third_point(ts, 2, 2)

    def test_the_methods_read_the_tables(self):
        assert validate_triple_system(7, FANO).third(2, 4) == 6
        ec = validate_edge_coloring(4, K4_COLORING)
        with pytest.raises(SameVertexError, match=r"^edge endpoints must differ, got 3$"):
            ec.color(3, 3)


class TestLatinEmbedding:
    def test_k4_matrix(self):
        ec = validate_edge_coloring(4, K4_COLORING)
        sq = to_latin_cube(ec)
        assert sq.rows == ((4, 1, 2, 3), (1, 4, 3, 2), (2, 3, 4, 1), (3, 2, 1, 4))

    def test_sts3_matrix(self):
        ts = validate_triple_system(3, [(1, 2, 3)])
        sq = to_latin_cube(ts)
        assert sq.rows == ((1, 3, 2), (3, 2, 1), (2, 1, 3))

    def test_fano_matrix(self):
        ts = validate_triple_system(7, FANO)
        sq = to_latin_cube(ts)
        assert is_latin(sq.rows)
        for i in range(7):
            assert sq.rows[i][i] == i + 1
            for j in range(7):
                assert sq.rows[i][j] == sq.rows[j][i]

    def test_coloring_round_trip_small_even_n(self):
        # constant diagonal n, symmetric, and colors read back exactly
        for n in (2, 4, 6, 8):
            colors = circle_coloring(n)
            ec = validate_edge_coloring(n, colors)
            sq = to_latin_cube(ec)
            assert is_latin(sq.rows)
            for i in range(n):
                assert sq.rows[i][i] == n
            for (i, j), c in colors.items():
                assert sq.rows[i - 1][j - 1] == c
                assert sq.rows[j - 1][i - 1] == c

    def test_round_trip_every_coloring_n4_n6(self):
        for n in (4, 6):
            for ec in enumerate_pool("1f-labeled", n).items:
                sq = to_latin_cube(ec)
                assert is_latin(sq.rows)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i != j:
                            assert sq.rows[i - 1][j - 1] == ec.table[i][j]

    def test_triple_closure_n7_n9(self):
        # L(i,j)=k forces L(j,k)=i and L(i,k)=j for every enumerated system
        for n in (7, 9):
            for ts in enumerate_pool("sts", n).items:
                sq = to_latin_cube(ts)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i == j:
                            continue
                        k = sq.rows[i - 1][j - 1]
                        assert sq.rows[j - 1][k - 1] == i
                        assert sq.rows[i - 1][k - 1] == j


class TestIsLatin:
    def test_accepts(self):
        assert is_latin([[1, 2], [2, 1]])

    def test_rejects_column(self):
        assert not is_latin([[1, 2], [1, 2]])

    def test_rejects_shape(self):
        assert not is_latin([[1, 2, 3], [2, 3, 1]])

    def test_matches_literal_definition_on_latin_4_pool(self):
        pool = enumerate_pool("latin", 4).items
        assert len(pool) == 576
        for sq in pool:
            assert is_latin(sq.rows) and oracle_is_latin(sq.rows)

    def test_matches_literal_definition_on_random_matrices(self):
        rnd = random.Random(20261018)
        shapes = {"latin": 0, "near": 0, "random": 0, "ragged": 0, "oblong": 0, "empty": 0}
        accepted = 0
        for _ in range(24_000):
            shape = rnd.choice(list(shapes))
            shapes[shape] += 1
            n = rnd.randint(1, 6)
            if shape in ("latin", "near"):
                rows = _random_latin(rnd, n)
                if shape == "near":
                    _perturb(rnd, rows, n)
            elif shape == "random":
                rows = [[rnd.randint(0, n + 1) for _ in range(n)] for _ in range(n)]
            elif shape == "ragged":
                rows = [[rnd.randint(1, n) for _ in range(rnd.randint(0, n + 1))]
                        for _ in range(n)]
            elif shape == "oblong":
                rows = [list(range(1, n + 2)) for _ in range(n)]
                if rnd.random() < 0.5:
                    rows = [list(range(1, n + 1)) for _ in range(n + 1)]
            else:
                rows = []
            if rnd.random() < 0.5:
                rows = tuple(map(tuple, rows))
            got = is_latin(rows)
            assert got == oracle_is_latin(rows), rows
            accepted += got
        assert min(shapes.values()) > 3000
        assert 3000 < accepted < 20_000   # both answers are exercised


def _random_latin(rnd, n):
    """A cyclic square under random row, column and symbol permutations."""
    perm = [rnd.sample(range(n), n) for _ in range(3)]
    return [[perm[2][(perm[0][r] + perm[1][c]) % n] + 1 for c in range(n)]
            for r in range(n)]


def _perturb(rnd, rows, n):
    """One local change that may or may not break the Latin property."""
    r, c = rnd.randrange(n), rnd.randrange(n)
    move = rnd.randrange(4)
    if move == 0:          # any symbol, including out of range
        rows[r][c] = rnd.randint(0, n + 1)
    elif move == 1:        # swap two cells of a row
        c2 = rnd.randrange(n)
        rows[r][c], rows[r][c2] = rows[r][c2], rows[r][c]
    elif move == 2:        # repeat a row
        rows[r] = list(rows[rnd.randrange(n)])
    else:                  # transpose, which keeps it Latin
        rows[:] = [list(col) for col in zip(*rows)]


@pytest.mark.parametrize("base, width", [(6, 5), (2, 16), (257, 2), (16, 15), (17, 16), (200, 9),
                                         (200, 20)])
def test_lex_ranks_against_sorted_tuples(base, width):
    # uint16 codes up to base**width = 2**16, then int64, then past 2**63,
    # where one int64 code would wrap and misorder the rows, two int64 words
    # (17**16, 200**9) or three (200**20)
    rnd = random.Random(base)
    rows = [tuple(rnd.choice((0, 1, base - 1)) if rnd.random() < 0.5 else rnd.randrange(base)
                  for _ in range(width)) for _ in range(300)]
    rows += rnd.sample(rows, 100)
    order, first, ids = core.lex_ranks(np.array(rows, np.int64), base)
    distinct = sorted(set(rows))
    assert order.tolist() == sorted(range(len(rows)), key=rows.__getitem__)
    assert first.tolist() == [k == 0 or rows[order[k]] != rows[order[k - 1]]
                              for k in range(len(rows))]
    assert ids.dtype == np.int32 and ids.tolist() == list(map(distinct.index, rows))


@pytest.mark.parametrize("rows, width", [(0, 3), (0, 0), (1, 0), (3, 0)])
def test_lex_ranks_of_no_rows_or_no_digits(rows, width):
    # rows without digits are all equal (the one triple system on 1 point has no triples)
    order, first, ids = core.lex_ranks(np.zeros((rows, width), np.int8), 10)
    assert order.tolist() == list(range(rows)) and ids.tolist() == [0] * rows
    assert first.tolist() == [k == 0 for k in range(rows)]


def _squares(n, cells):
    """``bulk_designs`` of an (N, n, n) array of squares: the squares."""
    return core.bulk_designs("latin", n, cells.reshape(len(cells), n * n))[0]


class TestLatinSquaresInBulk:
    """``bulk_designs`` of squares against ``is_latin`` and the
    ``LatinSquare`` checks."""

    def test_agrees_with_the_constructor_on_near_latin_arrays(self):
        rnd = random.Random(20261019)
        accepted = rejected = 0
        for n in range(1, 7):
            for _ in range(400):
                rows = _random_latin(rnd, n)
                if rnd.random() < 0.7:
                    _perturb(rnd, rows, n)
                try:
                    want = LatinSquare(n=n, rows=tuple(map(tuple, rows)))
                except DesignError as e:
                    assert str(e) == NOT_LATIN and not is_latin(rows)
                    with pytest.raises(BulkError, match="^latin design 0 is not valid$") as info:
                        _squares(n, np.array([rows], np.int8))
                    assert (info.value.index, info.value.repeats) == (0, None)
                    rejected += 1
                    continue
                assert is_latin(rows)
                for dtype in (np.int8, np.uint8, np.int64):
                    (got,) = _squares(n, np.array([rows], dtype))
                    assert got == want and hash(got) == hash(want)
                    assert pickle.dumps(got) == pickle.dumps(want)
                    assert type(got.rows[0][0]) is int
                accepted += 1
        assert accepted > 600 and rejected > 600   # both answers are exercised

    @pytest.mark.parametrize("n", [*range(7, 18), 63, 64])
    def test_agrees_with_the_constructor_at_larger_orders(self, n):
        # uint16 masks below n = 16, uint64 below 64 and Python ints from 64;
        # int64 row codes below 16 and Python ints from 16, where (n+1)**n
        # passes 2**63.  The entries put in every fourth square are ones a
        # shift or cast of a fixed width could wrap round to a bit
        rnd = random.Random(n)
        accepted, rejected = [], 0
        for trial in range(60):
            rows = _random_latin(rnd, n)
            if trial % 3:
                _perturb(rnd, rows, n)
            if trial % 4 == 0:
                r, c = rnd.randrange(n), rnd.randrange(n)
                v = rows[r][c]
                rows[r][c] = rnd.choice([n + 1 + 16, n + 1 + 64, -1, 2 ** 40, v + 16, v + 64,
                                         v + 2 ** 16, v - 2 ** 16, v + 2 ** 40])
            try:
                want = LatinSquare(n=n, rows=tuple(map(tuple, rows)))
            except DesignError as e:
                assert str(e) == NOT_LATIN and not is_latin(rows)
                with pytest.raises(BulkError, match="^latin design 0 is not valid$"):
                    _squares(n, np.array([rows], np.int64))
                rejected += 1
                continue
            assert is_latin(rows)
            for dtype in (np.int8, np.uint64, np.int64):
                (got,) = _squares(n, np.array([rows], dtype))
                assert got == want and type(got.rows[0][0]) is int
            if want not in accepted:
                accepted.append(want)
        assert len(accepted) > 10 and rejected > 10   # both answers are exercised
        cells = np.array([x.rows for x in accepted], np.int64)
        assert _squares(n, cells) == tuple(accepted)
        with pytest.raises(BulkError, match=f"^latin design {len(accepted)} repeats design 3$"):
            _squares(n, np.concatenate([cells, cells[3:4], cells[1:2]]))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_faults_in_later_chunks_are_named_by_their_index(self, monkeypatch, chunk):
        monkeypatch.setattr(core, "BULK_CHUNK", chunk)
        rnd = random.Random(chunk)
        squares = []
        while len(squares) < 30:
            square = _random_latin(rnd, 5)
            if square not in squares:
                squares.append(square)
        cells = np.array(squares, np.int64)
        assert _squares(5, cells) == tuple(LatinSquare(n=5, rows=tuple(map(tuple, s)))
                                           for s in squares)
        repeats = cells.copy()
        repeats[26], repeats[29] = repeats[19], repeats[3]
        with pytest.raises(BulkError, match="^latin design 26 repeats design 19$") as info:
            _squares(5, repeats)
        assert (info.value.index, info.value.repeats) == (26, 19)
        # a square that is not Latin is named before any repeat
        repeats[23, 2, 3], repeats[27, 0, 0] = 2 ** 40, 0
        with pytest.raises(BulkError, match="^latin design 23 is not valid$") as info:
            _squares(5, repeats)
        assert (info.value.index, info.value.repeats) == (23, None)

    @pytest.mark.parametrize("fault", [1, 15, 27])   # chunks 0, 2 and 4 of five
    def test_the_check_stops_at_the_first_chunk_with_a_fault(self, monkeypatch, fault):
        monkeypatch.setattr(core, "BULK_CHUNK", 6)
        rnd = random.Random(fault)
        squares = []
        while len(squares) < 30:
            square = _random_latin(rnd, 5)
            if square not in squares:
                squares.append(square)
        cells = np.array(squares, np.int64)
        cells[fault, 1, 2] = cells[fault, 1, 3]
        cells[29, 4, 4] = 0   # a later square that is not Latin either
        cells[fault + 1] = cells[0]   # and a repeat after the fault
        # the check reads each chunk with one np.where; count the chunks read
        where, reads = np.where, []
        monkeypatch.setattr(np, "where", lambda *a: reads.append(1) or where(*a))
        with pytest.raises(BulkError, match=f"^latin design {fault} is not valid$") as info:
            _squares(5, cells)
        assert (info.value.index, info.value.repeats) == (fault, None)
        assert len(reads) == fault // 6 + 1

    def test_equal_rows_are_one_tuple(self):
        pool = enumerate_pool("latin", 5)
        again = _squares(5, pool.cells)
        for squares in (pool.items, again):
            assert len({id(row) for square in squares for row in square.rows}) == 120

    def test_names_the_first_square_that_is_not_latin(self):
        rnd = random.Random(7)
        for n in (3, 5):
            squares = [_random_latin(rnd, n) for _ in range(40)]
            for bad in (0, 17, 39):
                cells = np.array(squares, np.int64)
                cells[bad, 0, 0] = n + 1 if bad == 17 else 0
                cells[39, 1, 1] = -3
                with pytest.raises(BulkError, match=f"^latin design {bad} is not valid$") as info:
                    _squares(n, cells)
                assert info.value.index == bad

    def test_names_the_first_repeat_as_the_line_loader_did(self):
        # the earliest square equal to an earlier one, and the first of those
        rnd = random.Random(11)
        distinct = [_random_latin(rnd, 4) for _ in range(12)]
        distinct = [s for k, s in enumerate(distinct) if s not in distinct[:k]]
        for trial in range(200):
            picks = [rnd.randrange(len(distinct)) for _ in range(rnd.randint(1, 9))]
            first_seen, want = {}, None
            for k, p in enumerate(picks):
                if first_seen.setdefault(p, k) != k:
                    want = (k, first_seen[p])
                    break
            cells = np.array([distinct[p] for p in picks], np.int8)
            if want is None:
                assert len(_squares(4, cells)) == len(picks)
                continue
            with pytest.raises(BulkError,
                               match=f"^latin design {want[0]} repeats design {want[1]}$"):
                _squares(4, cells)

    def test_built_objects_equal_validated_ones(self):
        pool = enumerate_pool("latin", 4).items
        again = _squares(4, np.array([x.rows for x in pool]))
        assert again == pool
        for got, want in zip(again, pool):
            fresh = LatinSquare(n=4, rows=want.rows)
            assert got == fresh and hash(got) == hash(fresh)
            assert pickle.dumps(got) == pickle.dumps(fresh)
            assert pickle.loads(pickle.dumps(got)) == fresh

    def test_latin_square_is_slotted_and_frozen(self):
        square = LatinSquare(n=3, rows=((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert not hasattr(square, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            square.n = 4
        with pytest.raises((AttributeError, TypeError)):
            square.extra = 1
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(square, protocol))
            assert again == square and hash(again) == hash(square)
            assert dumps(again) == dumps(square)
        with pytest.raises(DesignError, match=NOT_LATIN):
            LatinSquare(n=3, rows=((1, 2, 3), (2, 3, 1), (3, 2, 1)))

    @pytest.mark.parametrize("kind, n, design", [("latin", 2, [1, 2, 2, 1]), ("sts", 3, [1, 2, 3]),
                                              ("1f", 4, [1, 2, 3, 3, 2, 1])])
    def test_rejects_arrays_of_another_shape_or_type(self, kind, n, design):
        # every kind takes an (N, E) integer array, E the entries of one design
        e = len(design)
        for entries, what in ((np.array([design], float), f"float64 (1, {e})"),
                              (np.array([design]) > 1, f"bool (1, {e})"),
                              (np.array(design), f"int64 ({e},)"),
                              (np.ones((1, e + 1), int), f"int64 (1, {e + 1})"),
                              (np.ones((1, 1, e), int), f"int64 (1, 1, {e})")):
            with pytest.raises(DesignError,
                               match=re.escape(f"expected an (N, {e}) integer array, got {what}")):
                core.bulk_designs(kind, n, entries)
        assert len(core.bulk_designs(kind, n, np.array([design]))[0]) == 1
        with pytest.raises(DesignError, match=f"^{kind} design: n must be an int, got True$"):
            core.bulk_designs(kind, True, np.ones((1, 1), int))

    def test_no_squares_and_order_zero(self):
        assert _squares(3, np.empty((0, 3, 3), np.int8)) == ()
        assert _squares(0, np.empty((0, 0, 0), np.int8)) == ()
        with pytest.raises(BulkError, match="^latin design 0 is not valid$"):
            _squares(0, np.empty((1, 0, 0), np.int8))   # as LatinSquare(n=0, rows=())
        with pytest.raises(DesignError, match=NOT_LATIN):
            LatinSquare(n=0, rows=())

    def test_restores_the_garbage_collector(self):
        square = [[1, 2], [2, 1]]
        for cells in ([square], [square, [[1, 1], [2, 2]]], [square, square]):
            cells = np.array(cells)
            fails = len(cells) > 1
            assert gc.isenabled()
            with pytest.raises(BulkError) if fails else contextlib.nullcontext():
                _squares(2, cells)
            assert gc.isenabled()
            gc.disable()
            try:
                with pytest.raises(BulkError) if fails else contextlib.nullcontext():
                    _squares(2, cells)
                assert not gc.isenabled()
            finally:
                gc.enable()

    def test_dumps_template_matches_the_encoder(self):
        # every kind, with two-digit entries from n = 10
        for x in _relabeled_designs(random.Random(5)):
            assert dumps(x) == json.dumps(to_json_dict(x), separators=(",", ":"), sort_keys=True)

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_bulk_text_is_dumps_line_by_line(self, monkeypatch, chunk):
        # every one-digit order, with chunks that do and do not divide N
        monkeypatch.setattr(core, "BULK_CHUNK", chunk)
        rnd = random.Random(9)
        for n in range(1, 10):
            for count in (0, 1, 7):
                cells = np.array([_random_latin(rnd, n) for _ in range(count)],
                                 np.int8).reshape(count, n, n)
                text = core.canonical_text("latin", n, cells)
                assert text == "".join(
                    dumps(LatinSquare(n=n, rows=tuple(map(tuple, rows)))) + "\n"
                    for rows in cells.tolist())
                assert (core.canonical_entries("latin", n, text) == cells.reshape(count, n * n)).all()


# STS(13) from the base blocks {0,1,4} and {0,2,7} mod 13
CYCLIC_13 = [tuple((t + s) % 13 + 1 for t in block) for block in ((0, 1, 4), (0, 2, 7))
             for s in range(13)]


def _relabeled_designs(rnd, kinds=("latin", "sts", "1f"), orders=range(1, 14)):
    """Five random relabelings of a design of each kind at each order given
    that has one: random squares, and triple systems and colorings with
    their points permuted."""
    systems = {1: [], 3: [(1, 2, 3)], 7: FANO, 13: CYCLIC_13,
               9: enumerate_pool("sts", 9).items[417].sorted_triples()}
    designs = []
    for n in orders:
        for _ in range(5):
            p = [0, *rnd.sample(range(1, n + 1), n)]
            if "latin" in kinds and n <= 12:
                designs.append(LatinSquare(n=n, rows=tuple(map(tuple, _random_latin(rnd, n)))))
            if "sts" in kinds and n in systems:
                designs.append(validate_triple_system(n, [[p[v] for v in t] for t in systems[n]]))
            if "1f" in kinds and one_factorization_feasible(n):
                designs.append(validate_edge_coloring(
                    n, {(p[i], p[j]): c for (i, j), c in circle_coloring(n).items()}))
    return designs


def _entries(designs):
    """The ``dumps`` entries of triple systems or colorings, one row each:
    each sorted triple's points, or the color of each edge i < j."""
    docs = [to_json_dict(x) for x in designs]
    return np.array([[v for t in d["triples"] for v in t] if d["kind"] == "sts"
                     else [c for _, _, c in d["colors"]] for d in docs], np.int64)


# a design of each kind with one entry outside its range
OUTSIDE = {"sts": [1, 2, 3, 1, 4, 5, 1, 6, 7, 2, 4, 6, 2, 5, 7, 3, 4, 7, 3, 5, 8],
           "1f": [1, 2, 3, 3, 2, 0]}


class TestTablesInBulk:
    """``bulk_designs`` and the canonical text of triple systems and
    colorings against the per-design validators and ``dumps``."""

    @pytest.mark.parametrize("kind, n", [("sts", 1), ("sts", 3), ("sts", 7), ("sts", 9),
                                         ("sts", 13), ("1f", 2), ("1f", 4), ("1f", 6),
                                         ("1f", 8), ("1f", 10)])
    def test_designs_tables_and_text(self, kind, n):
        designs = list(dict.fromkeys(_relabeled_designs(random.Random(n), [kind], [n])))
        entries = _entries(designs)
        items, cells = core.bulk_designs(kind, n, entries)
        assert items == tuple(designs) and cells.dtype == np.int8
        assert (cells == np.array([x.table for x in designs])).all()
        if n > 9:   # two-digit entries have no canonical text
            return
        text = core.canonical_text(kind, n, cells)
        assert text == "".join(dumps(x) + "\n" for x in designs)
        assert (core.canonical_entries(kind, n, text) == entries).all()

    def test_triples_in_any_order_are_one_design(self):
        fano = validate_triple_system(7, FANO)
        shuffled = [[t[2], t[0], t[1]] for t in reversed(FANO)]
        items, cells = core.bulk_designs("sts", 7, np.array([shuffled]).reshape(1, -1))
        assert items == (fano,) and (cells[0] == fano.table).all()

    @pytest.mark.parametrize("kind, n, entries", [
        ("sts", 7, [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [3, 5, 5]]),
        ("sts", 7, [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [3, 5, 8]]),
        ("sts", 7, [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [3, 4, 6]]),
        ("sts", 7, [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [0, 5, 6]]),
        ("sts", 5, [[1, 2, 3], [1, 4, 5], [2, 4, 5]]),
        ("sts", 0, []),
        ("1f", 4, [1, 2, 3, 3, 2, 2]),
        ("1f", 4, [1, 2, 3, 3, 2, 0]),
        ("1f", 4, [1, 2, 3, 3, 2, 4]),
        ("1f", 3, [1, 2, 1]),
        ("1f", 1, []),
    ])
    def test_faults_raise_and_restore_the_garbage_collector(self, kind, n, entries):
        entries = np.array([entries], np.int64).reshape(1, -1)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                with pytest.raises(DesignError):
                    core.bulk_designs(kind, n, entries)
                assert gc.isenabled() == enabled
            finally:
                gc.enable()
        if n not in (7, 4):   # no design of kind at n, or one of another shape
            return
        v = list(_entries(enumerate_pool("1f-labeled" if kind == "1f" else kind, n).items[:4]))
        fault, outside = entries[0], OUTSIDE[kind]

        def named(*designs):
            with pytest.raises(BulkError) as info:
                core.bulk_designs(kind, n, np.array(designs))
            assert gc.isenabled()
            return info.value.index, info.value.repeats

        # first, in the middle and last among valid designs
        assert named(fault, *v) == (0, None)
        assert named(*v[:2], fault, *v[2:]) == (2, None)
        assert named(*v, fault) == (4, None)
        # the first of two faults, whichever check finds each
        assert named(v[0], fault, v[1], outside) == (1, None)
        assert named(v[0], outside, v[1], fault) == (1, None)
        # a fault before or after a repeat is named, not the repeat
        assert named(v[0], v[1], v[0], fault) == (3, None)
        assert named(v[0], fault, v[1], v[1]) == (1, None)
        assert named(*v, v[2]) == (4, 2)

    def test_a_repeat_raises(self):
        fano = np.array([FANO, FANO[::-1]]).reshape(2, -1)
        with pytest.raises(DesignError, match="^sts design 1 repeats design 0$"):
            core.bulk_designs("sts", 7, fano)
        assert gc.isenabled()
        assert core.bulk_designs("sts", 7, fano[:0])[0] == ()


# one design of each kind as the rows of an (N, E) array
_ONE_OF_EACH = [("latin", 3, np.array([[1, 2, 3, 2, 3, 1, 3, 1, 2]])),
                ("sts", 7, np.array([FANO]).reshape(1, -1)),
                ("1f", 4, np.array([[1, 2, 3, 3, 2, 1]]))]


@contextlib.contextmanager
def _gc_state(enabled, frozen):
    """The GC switched on or off, with or without frozen objects; restored after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    if frozen:
        gc.freeze()
    try:
        yield
    finally:
        if frozen:
            gc.unfreeze()
        (gc.enable if was else gc.disable)()


class TestBulkBuildAndTheGC:
    """``bulk_designs`` moves what it built to the oldest generation and
    leaves the GC's enabled flag and freeze count as it found them."""

    @pytest.mark.parametrize("kind, n, entries", _ONE_OF_EACH)
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_leaves_the_gc_as_it_found_it(self, kind, n, entries, enabled, frozen):
        with _gc_state(enabled, frozen):
            before = gc.isenabled(), gc.get_freeze_count()
            assert len(core.bulk_designs(kind, n, entries)[0]) == 1
            assert (gc.isenabled(), gc.get_freeze_count()) == before
            with pytest.raises(BulkError):
                core.bulk_designs(kind, n, np.concatenate([entries, entries]))
            assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("kind, n, entries", _ONE_OF_EACH)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_built_designs_are_in_the_oldest_generation(self, kind, n, entries, enabled):
        with _gc_state(enabled, frozen=False):
            items = core.bulk_designs(kind, n, entries)[0]
            assert {id(x) for x in items} <= {id(x) for x in gc.get_objects(2)}

    @pytest.mark.parametrize("kind, n, entries", _ONE_OF_EACH)
    def test_a_callers_frozen_objects_stop_the_promotion(self, kind, n, entries):
        # with the GC off no collection moves the designs on its own
        with _gc_state(enabled=False, frozen=True):
            frozen = gc.get_freeze_count()
            items = core.bulk_designs(kind, n, entries)[0]
            assert gc.get_freeze_count() == frozen
            assert not {id(x) for x in items} & {id(x) for x in gc.get_objects(2)}


class TestFeasibility:
    def test_sts_constructive(self):
        assert sts_feasible(1) and sts_feasible(3) and sts_feasible(7) and sts_feasible(9)
        validate_triple_system(3, [(1, 2, 3)])
        validate_triple_system(7, FANO)
        assert len(enumerate_pool("sts", 9)) > 0

    def test_sts_exhaustive_failures(self):
        for n in (4, 5, 6):
            assert not sts_feasible(n)
            assert len(enumerate_pool("sts", n)) == 0

    def test_one_factorization(self):
        for n in (2, 4, 6):
            assert one_factorization_feasible(n)
            validate_edge_coloring(n, circle_coloring(n))
        for n in (3, 5):
            assert not one_factorization_feasible(n)
            assert len(enumerate_pool("1f-labeled", n)) == 0


class TestJsonInterchange:
    def test_sts_format(self):
        ts = validate_triple_system(3, [(1, 2, 3)])
        assert json.loads(dumps(ts)) == {"kind": "sts", "n": 3, "triples": [[1, 2, 3]]}

    def test_coloring_format(self):
        ec = validate_edge_coloring(4, K4_COLORING)
        doc = to_json_dict(ec)
        assert doc["kind"] == "1f" and doc["n"] == 4
        assert [1, 2, 1] in doc["colors"] and all(i < j for i, j, _ in doc["colors"])

    def test_latin_format(self):
        ts = validate_triple_system(3, [(1, 2, 3)])
        doc = to_json_dict(to_latin_cube(ts))
        assert doc == {"kind": "latin", "n": 3, "rows": [[1, 3, 2], [3, 2, 1], [2, 1, 3]]}

    def test_round_trips(self):
        objs = [
            validate_triple_system(7, FANO),
            validate_edge_coloring(4, K4_COLORING),
            to_latin_cube(validate_triple_system(7, FANO)),
        ]
        for obj in objs:
            again = loads(dumps(obj))
            assert dumps(again) == dumps(obj)

    def test_rejects_unknown_kind(self):
        with pytest.raises(Exception):
            from_json_dict({"kind": "graph", "n": 3})

    @pytest.mark.parametrize("second", [[1, 2, 1], [2, 1, 1], [1, 2, 3], [2, 1, 3]],
                             ids=["other-color", "reversed-other-color", "same-color",
                                  "reversed-same-color"])
    def test_rejects_an_edge_listed_twice(self, second):
        # the validator alone accepts one edge given twice with one color
        colors = [[1, 2, 3], second, [1, 3, 2], [1, 4, 3], [2, 3, 3], [2, 4, 2], [3, 4, 1]]
        with pytest.raises(DesignError, match=r"^edge \(1, 2\) listed twice$"):
            loads(json.dumps({"kind": "1f", "n": 4, "colors": colors}))
        with pytest.raises(DesignError, match=r"^edge \(1, 2\) listed twice$"):
            from_json_dict({"kind": "1f", "n": 2, "colors": [[1, 2, 1], second[:2] + [1]]})

    def test_serializers_refuse_what_is_not_a_design(self):
        square = LatinSquare(n=1, rows=((1,),))
        with pytest.raises(TypeError, match="^cannot embed LatinSquare$"):
            to_latin_cube(square)
        for serialize in (to_json_dict, dumps):
            with pytest.raises(TypeError, match="^cannot serialize dict$"):
                serialize({"kind": "latin", "n": 1, "rows": [[1]]})

    def test_rejects_a_value_that_is_not_an_object(self):
        for text in ("[1,2]", "3", '"latin"', "null"):
            with pytest.raises(DesignError, match="JSON object"):
                loads(text)

    def test_latin_rejects_entries_that_are_not_ints(self):
        # 1.0 and True pass a set comparison with 1 but would dump as themselves
        with pytest.raises(DesignError, match="entries must be ints"):
            loads('{"kind":"latin","n":2,"rows":[[1.0,2],[2,true]]}')
        with pytest.raises(DesignError, match="entries must be ints"):
            LatinSquare(n=2, rows=((1, 2), (2, True)))

    def test_latin_rejects_an_n_that_is_not_an_int(self):
        for n in (True, 1.0):
            with pytest.raises(DesignError, match=f"latin design: n must be an int, got {n!r}"):
                LatinSquare(n=n, rows=((1,),))

    def test_latin_rejects_a_row_count_other_than_n(self):
        with pytest.raises(DesignError, match="declared n=7 but got 2 rows"):
            LatinSquare(n=7, rows=((1, 2), (2, 1)))
