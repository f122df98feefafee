"""Reveal orders and the ruled-out/available sets of one ordered pair.

A reveal order is a permutation of the vertices (written <<) plus, for
each vertex v, a permutation of its forward star E_v = {{v,u} : v << u}.
Scanning vertices by << and each star in its chosen order induces a
total order on all edges of K_n.

For an ordered pair (i, j) the exposed values rule candidates out of
X_{i,j} for two reasons: values already forced by edges at vertices
before i (the set A), and values forced by earlier edges within i's own
star (the set B).  The complements are Mset (after A) and Nset (after A
and B); their sizes M and N bound the number of values still open, and
N = 1 on trivial reveals where the pair's value is already determined
by what came before.

Every set is built literally: this module is the reference that the
reveal kernel (`rates.reveal_steps`) is tested against, and it lists no
orders (`rates.all_orders` does).  `RevealOrder` and `RevealSets` are
frozen, slotted dataclasses whose one constructor fills each slot through
its member descriptor, not through a frozen ``__setattr__`` per field;
`RevealSets` still checks its three invariants on every construction.  A
`RevealOrder` computes its vertices' positions once, in its constructor,
and `make_reveal_order` walks the vertex order once to check the stars.
Each A and B is filled as a set and then frozen: a frozenset filled
element by element sizes its hash table differently and can print a set
with elements past 15 in another order.

A vertex count that is not an int is refused, and so are an order on
other vertices than the design's and a vertex outside 1..n (with
`BadVertexError`); the checks cost one comparison and the positions
lookup each reveal already makes.  A star order keyed by anything but a
vertex in 1..n is refused with `BadVertexError` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import count
from typing import Mapping, Sequence

import numpy as np

from ..core import BadVertexError, DesignError, EdgeColoring, SameVertexError, TripleSystem


class TooLargeError(DesignError):
    """A computation was requested beyond its guarded size."""


class EmptyConditionError(DesignError):
    """A conditional law was requested on an event with no support."""


@dataclass(frozen=True, slots=True, init=False)
class RevealOrder:
    """A vertex order plus per-vertex forward-star orders.

    star_orders[v] lists the neighbors u with v << u, in reveal order;
    every edge of K_n appears in exactly one star.  positions[v] is the
    0-based position of v in the vertex order, computed once.
    """

    n: int
    vertex_order: tuple[int, ...]
    star_orders: dict[int, tuple[int, ...]]
    positions: dict[int, int] = field(init=False, compare=False, repr=False)

    def __init__(self, n: int, vertex_order: tuple[int, ...],
                 star_orders: dict[int, tuple[int, ...]]) -> None:
        set_n, set_vertex_order, set_star_orders, set_positions = _ORDER_SLOTS
        set_n(self, n)
        set_vertex_order(self, vertex_order)
        set_star_orders(self, star_orders)
        set_positions(self, dict(zip(vertex_order, count())))

    def position(self, v: int) -> int:
        """1-based position of v in the vertex order."""
        return self.positions[v] + 1


def _slot_setters(cls) -> tuple:
    # each field's member descriptor, which fills a slot past the frozen __setattr__
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_ORDER_SLOTS = _slot_setters(RevealOrder)


def _check_order_n(n) -> None:
    # a bool or float n equals an int but is no vertex count
    if type(n) is not int:
        raise DesignError(f"reveal order: n must be an int, got {n!r}")


def make_reveal_order(n: int, vertex_order: Sequence[int],
                      star_orders: Mapping[int, Sequence[int]]) -> RevealOrder:
    """Validate and freeze a reveal order; each star must order the slice
    of the vertex order after its vertex."""
    _check_order_n(n)
    vo = tuple(vertex_order)
    if sorted(vo) != list(range(1, n + 1)):
        raise DesignError(f"vertex order must be a permutation of 1..{n}")
    # the stars are listed by vertex 1..n and filled in vertex order
    so: dict[int, tuple[int, ...]] = dict.fromkeys(range(1, n + 1))
    for v in star_orders:
        if v not in so:
            raise BadVertexError(f"star order keyed by {v!r}, not a vertex in 1..{n}")
    for p, v in enumerate(vo, 1):
        star = tuple(star_orders.get(v, ()))
        forward = set(vo[p:])
        if set(star) != forward or len(star) != len(forward):
            raise DesignError(f"star of {v} must order exactly its forward neighbors")
        so[v] = star
    return RevealOrder(n, vo, so)


def sample_reveal_order(n: int, seed: int | None = None,
                        rng: np.random.Generator | None = None) -> RevealOrder:
    """Uniform vertex order and independent uniform star orders."""
    _check_order_n(n)
    if n < 2:
        raise DesignError(f"n must be >= 2, got {n}")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    vo = tuple(int(v) + 1 for v in rng.permutation(n))
    star_orders = {}
    for p, v in enumerate(vo):
        forward = list(vo[p + 1:])
        star_orders[v] = tuple(forward[int(t)] for t in rng.permutation(len(forward)))
    return RevealOrder(n, vo, star_orders)


@dataclass(frozen=True, slots=True, init=False)
class RevealSets:
    """The ruled-out and available sets of one ordered pair.

    On trivial reveals (the value is forced by earlier edges) the sets
    collapse to A = B = {} and Mset = Nset = {true value}, so the
    containment invariants hold uniformly.  q is the 1-based position
    of {i,j} within i's star order (None when j << i), m the star size.
    """

    variant: str
    i: int
    j: int
    A: frozenset[int]
    B: frozenset[int]
    Mset: frozenset[int]
    Nset: frozenset[int]
    trivial: bool
    p: int
    q: int | None
    m: int
    M: int = field(init=False)
    N: int = field(init=False)

    def __init__(self, variant: str, i: int, j: int, A: frozenset[int], B: frozenset[int],
                 Mset: frozenset[int], Nset: frozenset[int], trivial: bool, p: int,
                 q: int | None, m: int) -> None:
        if not Nset <= Mset:
            raise DesignError("Nset must be contained in Mset")
        if not Mset.isdisjoint(A):
            raise DesignError("Mset must be disjoint from A")
        N = len(Nset)
        if not trivial and N < 1:
            raise DesignError("N must be >= 1 on non-trivial reveals")
        (set_variant, set_i, set_j, set_A, set_B, set_Mset, set_Nset, set_trivial,
         set_p, set_q, set_m, set_M, set_N) = _SETS_SLOTS
        set_variant(self, variant)
        set_i(self, i)
        set_j(self, j)
        set_A(self, A)
        set_B(self, B)
        set_Mset(self, Mset)
        set_Nset(self, Nset)
        set_trivial(self, trivial)
        set_p(self, p)
        set_q(self, q)
        set_m(self, m)
        set_M(self, len(Mset))
        set_N(self, N)


_SETS_SLOTS = _slot_setters(RevealSets)
_EMPTY: frozenset[int] = frozenset()


def reveal_sets_1f(X: EdgeColoring, order: RevealOrder, i: int, j: int) -> RevealSets:
    """Availability sets for the color of edge {i,j} under a reveal order.

    A collects the colors of all edges from i and from j to vertices
    before i; B the colors of i's star edges revealed before {i,j}.
    When j << i the reveal is trivial: the color was already exposed
    from j's side.
    """
    if i == j:
        raise SameVertexError("ordered pair needs distinct vertices")
    if order.n != X.n:
        raise DesignError(f"reveal order on n={order.n} vertices for a design on n={X.n}")
    pos = order.positions
    try:
        pi, pj = pos[i], pos[j]
    except KeyError:
        raise BadVertexError(f"vertex label {j if i in pos else i!r} outside 1..{X.n}") from None
    row_i = X.table[i]
    star = order.star_orders[i]
    if pj < pi:
        v = frozenset((row_i[j],))
        return RevealSets("1f", i, j, _EMPTY, _EMPTY, v, v, True, pi + 1, None, len(star))
    row_j = X.table[j]
    A = frozenset({c for t in order.vertex_order[:pi] for c in (row_i[t], row_j[t])})
    Mset = frozenset(range(1, X.n)) - A
    rank = star.index(j)
    B = frozenset({row_i[u] for u in star[:rank]})
    return RevealSets("1f", i, j, A, B, Mset, Mset - B, False, pi + 1, rank + 1, len(star))


def reveal_sets_sts(X: TripleSystem, order: RevealOrder, i: int, j: int) -> RevealSets:
    """Availability sets for the third point of {i,j} under a reveal order.

    The reveal is informative only when i precedes both j and the true
    third point k, and {i,j} precedes {i,k} within i's star; otherwise
    the value is forced by earlier edges and the reveal is trivial.  A
    collects points t already placed in a triple with i or j by edges
    at vertices before i; B the points ruled out by earlier edges of
    i's own star.
    """
    if i == j:
        raise SameVertexError("ordered pair needs distinct vertices")
    if order.n != X.n:
        raise DesignError(f"reveal order on n={order.n} vertices for a design on n={X.n}")
    pos = order.positions
    try:
        pi, pj = pos[i], pos[j]
    except KeyError:
        raise BadVertexError(f"vertex label {j if i in pos else i!r} outside 1..{X.n}") from None
    n = X.n
    row_i, row_j = X.table[i], X.table[j]
    k = row_i[j]
    star = order.star_orders[i]
    m = len(star)
    rank = dict(zip(star, count()))
    q = rank[j] + 1 if pi < pj else None
    if not (pi < pj and pi < pos[k] and rank[j] < rank[k]):
        v = frozenset((k,))
        return RevealSets("sts", i, j, _EMPTY, _EMPTY, v, v, True, pi + 1, q, m)
    A = frozenset({t for t in range(1, n + 1) if t != i and t != j
                   and (pos[t] < pi or pos[row_i[t]] < pi or pos[row_j[t]] < pi)})
    Mset = frozenset(range(1, n + 1)) - {i, j} - A
    rj = rank[j]
    B = frozenset({t for t in Mset if rank[t] < rj or rank[row_i[t]] < rj})
    return RevealSets("sts", i, j, A, B, Mset, Mset - B, False, pi + 1, q, m)
