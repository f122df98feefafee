"""Canonical data types for the three design families.

A Steiner triple system on points 1..n is a set of 3-element subsets
covering every unordered pair exactly once.  A 1-factorization of K_n is
stored as a proper edge coloring with colors 1..n-1 (each color class is
a perfect matching).  Both embed into symmetric Latin squares, and those
embeddings are provided here together with validation and a small JSON
interchange format used by every other module.  ``bulk_designs`` checks
and builds an array of designs of any kind at once; the first faulty or
repeated design raises ``BulkError``, which names it by its index.
The array functions import numpy when they run, so the types, the
validators and the counts load without it.  The error classes are
defined in ``errors``, which the CLI loads without this module, and
imported back here.

Conventions: vertices are labeled 1..n, colors 1..n-1, and unordered
pairs are keyed as (min, max).  All types are immutable after
validation and safe for concurrent reads.
"""

from __future__ import annotations

import gc
import json
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, repeat
from typing import Iterable, Mapping, Sequence

from .errors import (   # imported back, so core.X is errors.X
    BadColorError,
    BadVertexError,
    BulkError,
    ColorClashError,
    DesignError,
    DuplicatePairError,
    MissingEdgeError,
    SameVertexError,
    UncoveredPairError,
)

NOT_LATIN = "matrix is not a Latin square"


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

def sts_feasible(n: int) -> bool:
    """Triple systems on n points exist iff n % 6 is 1 or 3 (n >= 1)."""
    return n >= 1 and n % 6 in (1, 3)


def one_factorization_feasible(n: int) -> bool:
    """1-factorizations of K_n exist iff n is even (n >= 2)."""
    return n >= 2 and n % 2 == 0


def pair_key(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) key for an unordered pair."""
    return (i, j) if i < j else (j, i)


def _check_vertex(v: int, n: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
        raise BadVertexError(f"vertex label {v!r} outside 1..{n}")


def _check_n(kind: str, n) -> None:
    # a bool or float n equals an int but dumps as true or 4.0
    if type(n) is not int:
        raise DesignError(f"{kind} design: n must be an int, got {n!r}")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleSystem:
    """A validated Steiner triple system on points 1..n.

    ``table[i][j]`` is the unique third point completing the pair {i, j}
    (0 on the diagonal and on index 0; rows/columns are 1-based).
    """

    n: int
    triples: frozenset[frozenset[int]]
    table: tuple[tuple[int, ...], ...] = field(repr=False)

    def third(self, i: int, j: int) -> int:
        return third_point(self, i, j)

    def sorted_triples(self) -> list[tuple[int, int, int]]:
        return sorted(tuple(sorted(t)) for t in self.triples)


@dataclass(frozen=True)
class EdgeColoring:
    """A validated proper (n-1)-edge-coloring of K_n, n even.

    ``table[i][j]`` is the color of edge {i, j} (symmetric, 0 on the
    diagonal; 1-based).  Each color class is a perfect matching.
    """

    n: int
    table: tuple[tuple[int, ...], ...] = field(repr=False)

    def color(self, i: int, j: int) -> int:
        if i == j:
            raise SameVertexError(f"edge endpoints must differ, got {i}")
        _check_vertex(i, self.n)
        _check_vertex(j, self.n)
        return self.table[i][j]

    def color_map(self) -> dict[tuple[int, int], int]:
        return {
            (i, j): self.table[i][j]
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        }


@dataclass(frozen=True, slots=True)
class LatinSquare:
    """An n x n matrix over symbols 1..n, one of each per row and column."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_n("latin", self.n)
        if len(self.rows) != self.n:
            raise DesignError(f"declared n={self.n} but got {len(self.rows)} rows")
        if not is_latin(self.rows):
            raise DesignError(NOT_LATIN)
        # is_latin compares sets, where 1.0 and True equal 1; dumps would not
        if set(map(type, chain.from_iterable(self.rows))) != {int}:
            raise DesignError("Latin square entries must be ints")


@dataclass(frozen=True)
class CountResult:
    """Outcome of an exact count.

    ``count`` is exact and arbitrary precision whenever ``complete`` is
    True; a partial result (node budget hit) reports the portion of the
    search finished, never a silently wrong total.  ``count`` is 0 for
    parity/residue-infeasible n.
    """

    kind: str                      # "sts" | "1f" | "latin"
    n: int
    count: int
    labeled: bool | None = None    # 1f only
    complete: bool = True
    nodes: int = 0
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_triple_system(n: int, triples: Iterable[Sequence[int]]) -> TripleSystem:
    """Validate a triple list and build the pair -> third-point table.

    Raises BadVertexError, DuplicatePairError, or UncoveredPairError if
    any pair of distinct points is covered other than exactly once.
    """
    _check_n("sts", n)
    if n < 1:
        raise BadVertexError(f"n must be >= 1, got {n}")
    table = [[0] * (n + 1) for _ in range(n + 1)]
    seen: set[frozenset[int]] = set()
    for t in triples:
        tt = tuple(t)
        if len(tt) != 3 or len(set(tt)) != 3:
            raise DesignError(f"not a 3-element subset: {tt!r}")
        for v in tt:
            _check_vertex(v, n)
        seen.add(frozenset(tt))   # a repeated triple repeats its pairs below
        a, b, c = sorted(tt)
        for (i, j, k) in ((a, b, c), (a, c, b), (b, c, a)):
            if table[i][j] != 0:
                raise DuplicatePairError(i, j)
            table[i][j] = k
            table[j][i] = k
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if table[i][j] == 0:
                raise UncoveredPairError(i, j)
    return TripleSystem(n=n, triples=frozenset(seen),
                        table=tuple(tuple(row) for row in table))


def validate_edge_coloring(n: int, colors: Mapping[tuple[int, int], int]) -> EdgeColoring:
    """Validate a {pair: color} map as a proper (n-1)-edge-coloring of K_n.

    The map must cover all n(n-1)/2 edges with colors in 1..n-1 and no
    two edges at a vertex may share a color (so each color class is a
    perfect matching).
    """
    _check_n("1f", n)
    if not one_factorization_feasible(n):
        raise DesignError(f"K_{n} has no 1-factorization (n must be even, >= 2)")
    table = [[0] * (n + 1) for _ in range(n + 1)]
    used = [0] * (n + 1)      # bitmask of colors seen at each vertex
    for (i, j), c in colors.items():
        _check_vertex(i, n)
        _check_vertex(j, n)
        if i == j:
            raise SameVertexError(f"edge endpoints must differ, got {i}")
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= n - 1:
            raise BadColorError(f"color {c!r} outside 1..{n - 1}")
        if table[i][j] != 0:
            if table[i][j] != c:
                raise DesignError(f"edge {pair_key(i, j)} given two colors")
            continue
        bit = 1 << c
        for v in (i, j):
            if used[v] & bit:
                raise ColorClashError(v, c)
        used[i] |= bit
        used[j] |= bit
        table[i][j] = c
        table[j][i] = c
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if table[i][j] == 0:
                raise MissingEdgeError(i, j)
    return EdgeColoring(n=n, table=tuple(tuple(row) for row in table))


def third_point(ts: TripleSystem, i: int, j: int) -> int:
    """The unique point completing {i, j} to a triple; symmetric in i, j."""
    if i == j:
        raise SameVertexError(f"third_point needs two distinct points, got {i}")
    _check_vertex(i, ts.n)
    _check_vertex(j, ts.n)
    return ts.table[i][j]


# ---------------------------------------------------------------------------
# Latin-square view
# ---------------------------------------------------------------------------

def is_latin(rows: Sequence[Sequence[int]]) -> bool:
    """True iff every row and every column is a permutation of 1..n."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        return False
    want = set(range(1, n + 1))
    return (all(map(want.__eq__, map(set, rows)))
            and all(map(want.__eq__, map(set, zip(*rows)))))


# squares checked or built, or rows coded, per step: each step's arrays
# are the largest temporaries of a bulk build
BULK_CHUNK = 4096


def lex_ranks(digits: np.ndarray, base: int):
    """The stable lexicographic order of the rows of an (M, k) array of
    digits 0..base-1, whether each row there differs from the one before,
    and each row's rank among the distinct rows (int32).  A row is sorted
    by its base-``base`` code, one ``np.lexsort`` over its words: one
    uint16 word (which numpy sorts by radix) up to base**k = 2**16, else
    int64 words of as many digits as fit in 63 bits, the first word the
    most significant."""
    import numpy as np
    width = digits.shape[1]
    dtype, per = ((np.uint16, max(width, 1)) if base ** width <= 2 ** 16
                  else (np.int64, 63 // (base - 1).bit_length()))
    words = []
    for w in range(0, max(width, 1), per):
        word = np.empty(len(digits), dtype)
        for start in range(0, len(digits), BULK_CHUNK):
            part = digits[start:start + BULK_CHUNK, w:w + per].astype(dtype)
            word[start:start + len(part)] = reduce(lambda code, d: code * base + d, part.T, 0)
        words.append(word)
    order = np.lexsort(words[::-1])
    first = np.zeros(len(digits), bool)
    first[:1] = True
    for word in words:
        word = word[order]
        first[1:] |= word[1:] != word[:-1]
    ids = np.empty(len(digits), np.int32)
    ids[order] = np.cumsum(first, dtype=np.int32) - 1
    return order, first, ids


def _distinct_rows(cells: np.ndarray, base: int):
    """The distinct rows of a nonempty (N, r, c) array of digits
    0..base-1, as tuples in order; the index of each row among them
    (``lex_ranks``); and (k, j) for the first design k equal to an earlier
    one j, a design's code being its rows' indices, else None."""
    import numpy as np
    rows = cells.reshape(-1, cells.shape[2])
    order, first, ids = lex_ranks(rows, base)
    table = tuple(map(tuple, rows[order[first]].tolist()))
    order, first, _ = lex_ranks(ids.reshape(len(cells), -1), len(table))
    if first.all():
        return table, ids, None
    # the earliest repeat is the second of its run, after the first copy
    later = np.flatnonzero(~first)
    k = later[np.argmin(order[later])]
    return table, ids, (int(order[k]), int(order[k - 1]))


def to_latin_cube(obj: TripleSystem | EdgeColoring) -> LatinSquare:
    """Embed a design into its Latin-square matrix form.

    EdgeColoring: L(i,j) = color(i,j) off the diagonal, L(i,i) = n; the
    result is symmetric with constant diagonal.  TripleSystem:
    L(i,j) = third(i,j) off the diagonal, L(i,i) = i; the result is
    symmetric and totally so: L(i,j) = k implies L(j,k) = i and
    L(i,k) = j.
    """
    n = obj.n
    if isinstance(obj, EdgeColoring):
        diag = lambda i: n
    elif isinstance(obj, TripleSystem):
        diag = lambda i: i
    else:
        raise TypeError(f"cannot embed {type(obj).__name__}")
    rows = tuple(
        tuple(diag(i) if i == j else obj.table[i][j] for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return LatinSquare(n=n, rows=rows)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------
# {"kind":"sts","n":7,"triples":[[1,2,3],...]}
# {"kind":"1f","n":6,"colors":[[i,j,c],...]}  with i < j
# {"kind":"latin","n":4,"rows":[[...],...]}

def to_json_dict(obj: TripleSystem | EdgeColoring | LatinSquare) -> dict:
    if isinstance(obj, TripleSystem):
        return {"kind": "sts", "n": obj.n,
                "triples": [list(t) for t in obj.sorted_triples()]}
    if isinstance(obj, EdgeColoring):
        return {"kind": "1f", "n": obj.n,
                "colors": [[i, j, c] for (i, j), c in sorted(obj.color_map().items())]}
    if isinstance(obj, LatinSquare):
        return {"kind": "latin", "n": obj.n, "rows": [list(r) for r in obj.rows]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_json_dict(d: Mapping) -> TripleSystem | EdgeColoring | LatinSquare:
    try:
        kind, n = d.get("kind"), d.get("n")
    except AttributeError:
        raise DesignError(f"a design is a JSON object, got {type(d).__name__}") from None
    if kind not in ("sts", "1f", "latin"):
        raise DesignError(f"unknown kind {kind!r}")
    _check_n(kind, n)
    try:
        if kind == "sts":
            return validate_triple_system(n, d["triples"])
        if kind == "1f":
            colors = {}
            for i, j, c in d["colors"]:
                if (i, j) in colors or (j, i) in colors:
                    raise DesignError(f"edge {pair_key(i, j)} listed twice")
                colors[i, j] = c
            return validate_edge_coloring(n, colors)
        return LatinSquare(n=n, rows=tuple(map(tuple, d["rows"])))
    except DesignError:
        raise
    except (KeyError, TypeError, ValueError) as e:   # a missing or ill-typed field
        raise DesignError(f"malformed {kind} design: {e!r}") from None


# per (kind, n), what dumps writes for a design with %d for each entry
_FORMATS: dict[tuple[str, int], str] = {}


def _format(kind: str, n: int) -> str:
    """The encoder's line for a design of ``kind`` at n with %d for each
    entry: a Latin square's rows, a triple system's sorted triples, or the
    colors of the edges {i, j}, i < j, in lexicographic order."""
    n = int(n)   # as %d writes it, for any int-like n
    parts = ({"rows": [["%d"] * n] * n} if kind == "latin" else
             {"triples": [["%d"] * 3] * (n * (n - 1) // 6)} if kind == "sts" else
             {"colors": [[i, j, "%d"] for i, j in combinations(range(1, n + 1), 2)]})
    line = json.dumps({"kind": kind, "n": n, **parts}, separators=(",", ":"), sort_keys=True)
    return line.replace('"%d"', "%d")


def dumps(obj: TripleSystem | EdgeColoring | LatinSquare) -> str:
    """The design as one JSON line, keys sorted and no spaces; the entries
    are ints, which %d writes as the encoder does."""
    if isinstance(obj, LatinSquare):
        kind, entries = "latin", chain.from_iterable(obj.rows)
    elif isinstance(obj, TripleSystem):
        kind, entries = "sts", chain.from_iterable(obj.sorted_triples())
    elif isinstance(obj, EdgeColoring):
        kind, entries = "1f", chain.from_iterable(r[i + 1:] for i, r in enumerate(obj.table[1:], 1))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    form = _FORMATS.get((kind, obj.n)) or _FORMATS.setdefault((kind, obj.n), _format(kind, obj.n))
    return form % tuple(entries)


def loads(text: str) -> TripleSystem | EdgeColoring | LatinSquare:
    return from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Arrays of designs
# ---------------------------------------------------------------------------
# A design's entries are the values its dumps line writes, in order; its
# cells are its rows as a square, or its ``table``.

def _edges(n: int):
    """The endpoints i and j of the edges {i, j} of K_n, i < j, in order."""
    import numpy as np
    i, j = np.triu_indices(n, 1)
    return i + 1, j + 1


def bulk_designs(kind: str, n: int, entries) -> tuple[tuple, np.ndarray | None]:
    """The designs of ``kind`` ("sts", "1f" or "latin") at n whose ``dumps``
    entries are the rows of an (N, E) integer array, and their cells (None
    for N = 0).

    The cells are (N, n, n) squares, or (N, n+1, n+1) tables, int8 below
    n = 128, for triple systems and colorings.  Each design is checked as
    the validators would.  A square ORs bit e for each entry e, bit 0 for
    one outside 1..n, along every row and column (uint16 masks below
    n = 16, uint64 below 64, Python ints above), ``BULK_CHUNK`` squares at
    a time.  A table needs points in 1..n and every pair covered, which
    n(n-1)/6 triples can do only with three distinct pairs each, so once
    each; or colors in 1..n-1, distinct at each vertex.  No design may
    equal an earlier one: its code in the ranks of its rows
    (``lex_ranks``) is compared.  The first design that fails a check,
    else the first that repeats an earlier one, raises ``BulkError``; at
    an n with no design, that is design 0.  The designs are then built
    with the cyclic GC paused, squares ``BULK_CHUNK`` at a time without
    running their checks again; equal rows are one shared tuple, and equal
    triples one shared frozenset.  The objects hold no cycles, and the GC
    would otherwise scan the growing pool again and again.  Once they are
    built, ``gc.freeze()`` and ``gc.unfreeze()``, two list splices, move
    them to the oldest generation, so no young collection scans them.  As
    a side effect every other young object of the process is promoted
    too.  When the caller has frozen objects (``gc.get_freeze_count()``
    is not 0) nothing is promoted, so they stay frozen.  The GC's enabled
    flag is left as it was found.
    """
    import numpy as np
    _check_n(kind, n)
    entries = np.asarray(entries)
    width = n * n if kind == "latin" else n * (n - 1) // 6 * 3 if kind == "sts" else n * (n - 1) // 2
    if entries.shape[1:] != (width,) or not np.issubdtype(entries.dtype, np.integer):
        raise DesignError(f"expected an (N, {width}) integer array, "
                          f"got {entries.dtype} {entries.shape}")
    if not len(entries):
        return (), None
    if not (n >= 1 if kind == "latin" else
            sts_feasible(n) if kind == "sts" else one_factorization_feasible(n)):
        raise BulkError(kind, 0)
    if kind == "latin":
        cells = entries.reshape(len(entries), n, n)
        masks = np.uint16 if n < 16 else np.uint64 if n < 64 else object
        full = (1 << n + 1) - 2   # bits 1..n
        for start in range(0, len(cells), BULK_CHUNK):
            part = cells[start:start + BULK_CHUNK]
            # zeroed before the shift, so no entry can wrap round to a symbol's bit
            bits = np.ones((), masks) << np.where((part >= 1) & (part <= n), part, 0).astype(masks)
            by_row, by_col = bits[:, :, 0], bits[:, 0]
            for k in range(1, n):
                by_row, by_col = by_row | bits[:, :, k], by_col | bits[:, k]
            valid = ((by_row == full) & (by_col == full)).all(axis=1)
            if not valid.all():   # no later chunk is read
                raise BulkError(kind, start + int(np.argmin(valid)))
    else:
        inside = (entries >= 1) & (entries <= (n if kind == "sts" else n - 1))
        # a design with an entry outside is at fault already; 0 keeps its writes in its table
        entries = np.where(inside, entries, 0)
        cells = np.zeros((len(entries), n + 1, n + 1), np.int8 if n < 128 else np.int64)
        if kind == "sts":
            triples = entries.reshape(len(entries), n * (n - 1) // 6, 3)
            a, b, c = triples.transpose(2, 0, 1)
            d = np.arange(len(entries))[:, None]
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                cells[d, x, y] = cells[d, y, x] = z
            # zero just on the diagonal: every pair covered
            valid = ((cells[:, 1:, 1:] == 0) == np.eye(n, dtype=bool)).all(axis=(1, 2))
        else:
            i, j = _edges(n)
            cells[:, i, j] = cells[:, j, i] = entries
            # a row holds 0 twice (column 0 and the diagonal) and, when proper, 1..n-1
            valid = (np.sort(cells[:, 1:], axis=2) == np.r_[0, :n]).all(axis=(1, 2))
        valid &= inside.all(axis=1)
        if not valid.all():
            raise BulkError(kind, int(np.argmin(valid)))
    table, ids, repeats = _distinct_rows(cells, n + 1)
    if repeats is not None:
        raise BulkError(kind, *repeats)

    row, items = table.__getitem__, []
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the maps run in C; a deque of length 0 drains one
        if kind == "latin":
            new, set_n, set_rows = object.__new__, LatinSquare.n.__set__, LatinSquare.rows.__set__
            for start in range(0, len(cells), BULK_CHUNK):
                chunk = ids[start * n:(start + BULK_CHUNK) * n].tolist()
                made = list(map(new, repeat(LatinSquare, len(chunk) // n)))
                deque(map(set_n, made, repeat(n)), 0)
                deque(map(set_rows, made, zip(*[map(row, chunk)] * n)), 0)
                items += made
        else:
            rows = zip(*[map(row, ids.tolist())] * (n + 1))
            if kind == "sts":   # one frozenset per distinct triple, shared like the rows
                order, first, ranks = lex_ranks(triples.reshape(-1, 3), n + 1)
                part = list(map(frozenset, triples.reshape(-1, 3)[order[first]].tolist())).__getitem__
                parts = map(frozenset, map(map, repeat(part), ranks.reshape(len(triples), -1).tolist()))
                items += map(TripleSystem, repeat(n), parts, rows)
            else:
                items += map(EdgeColoring, repeat(n), rows)
    finally:
        if not gc.get_freeze_count():   # a caller's frozen objects stay frozen
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()
    return tuple(items), cells


def _template(kind: str, n: int) -> np.ndarray:
    """One ``dumps`` line of ``kind`` at n and its newline as uint8 bytes,
    with a 0 byte for each entry."""
    import numpy as np
    return np.frombuffer((_format(kind, n).replace("%d", "\0") + "\n").encode(), np.uint8)


def canonical_entries(kind: str, n: int, text: str) -> np.ndarray | None:
    """The entries of a text in the form ``dumps`` gives designs of
    ``kind`` at n, one a line and each line ending in a newline, as an
    (N, E) int8 array; None for any other text.

    Only orders 1..9 qualify, whose entries are one digit each: the text
    is then an (N, line length) byte array whose bytes outside the entries
    equal the template's and whose entries are 0-9.  Each chunk of
    ``BULK_CHUNK`` lines is checked with one subtraction and one
    comparison.  The entries are not checked as designs.
    """
    import numpy as np
    if not 1 <= n <= 9 or not text.isascii():
        return None
    template = _template(kind, n)
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    if len(data) % len(template):
        return None
    lines = data.reshape(-1, len(template))
    entry = np.flatnonzero(template == 0)
    # a line less ``base`` is 0 outside the entries and 0-9 at them, at most ``top``
    base, top = template.copy(), np.zeros_like(template)
    base[entry], top[entry] = ord("0"), 9
    entries = np.empty((len(lines), len(entry)), np.int8)
    for start in range(0, len(lines), BULK_CHUNK):
        part = lines[start:start + BULK_CHUNK] - base
        if (part > top).any():
            return None
        entries[start:start + len(part)] = part[:, entry]
    return entries


def canonical_text(kind: str, n: int, cells: np.ndarray) -> str:
    """What ``dumps`` writes for each design of an array of cells, one a
    line, when every entry is one digit (n <= 9).

    A triple system's sorted triples are the pairs i < j of its table,
    in order, whose third point k exceeds j.  The digits fill the
    template's entries ``BULK_CHUNK`` designs at a time, and each chunk
    becomes a string at once, so no byte array of the whole text is made.
    """
    import numpy as np
    if kind == "latin":
        entries = cells.reshape(len(cells), n * n)
    else:
        i, j = _edges(n)
        entries = cells[:, i, j]
        if kind == "sts":
            keep = entries > j
            at = np.nonzero(keep)[1]
            entries = np.stack([i[at], j[at], entries[keep]], 1).reshape(len(cells), len(i))
    template = _template(kind, n)
    entry = np.flatnonzero(template == 0)
    block = np.tile(template, (min(len(entries), BULK_CHUNK), 1))
    chunks = []
    for start in range(0, len(entries), BULK_CHUNK):
        part = entries[start:start + BULK_CHUNK]
        lines = block[:len(part)]
        lines[:, entry] = part + ord("0")
        chunks.append(str(lines.data, "ascii"))
    return "".join(chunks)
