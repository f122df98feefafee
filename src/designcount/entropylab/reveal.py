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
orders (`rates.all_orders` does).  A `RevealOrder` computes its vertices'
positions once, and it and `RevealSets` are slotted: a call builds no
position dict and no instance dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core import DesignError, EdgeColoring, SameVertexError, TripleSystem


class TooLargeError(DesignError):
    """A computation was requested beyond its guarded size."""


class EmptyConditionError(DesignError):
    """A conditional law was requested on an event with no support."""


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):
        object.__setattr__(self, "positions", {v: p for p, v in enumerate(self.vertex_order)})

    def position(self, v: int) -> int:
        """1-based position of v in the vertex order."""
        return self.positions[v] + 1


def make_reveal_order(n: int, vertex_order: Sequence[int],
                      star_orders: Mapping[int, Sequence[int]]) -> RevealOrder:
    """Validate and freeze a reveal order; each star must order the slice
    of the vertex order after its vertex."""
    vo = tuple(vertex_order)
    if sorted(vo) != list(range(1, n + 1)):
        raise DesignError(f"vertex order must be a permutation of 1..{n}")
    pos = {v: p for p, v in enumerate(vo)}
    so: dict[int, tuple[int, ...]] = {}
    seen_edges = 0
    for v in range(1, n + 1):
        star = tuple(star_orders.get(v, ()))
        forward = set(vo[pos[v] + 1:])
        if set(star) != forward or len(star) != len(forward):
            raise DesignError(f"star of {v} must order exactly its forward neighbors")
        so[v] = star
        seen_edges += len(star)
    if seen_edges != n * (n - 1) // 2:
        raise DesignError("stars do not cover every edge exactly once")
    return RevealOrder(n=n, vertex_order=vo, star_orders=so)


def sample_reveal_order(n: int, seed: int | None = None,
                        rng: np.random.Generator | None = None) -> RevealOrder:
    """Uniform vertex order and independent uniform star orders."""
    if n < 2:
        raise DesignError(f"n must be >= 2, got {n}")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    vo = tuple(int(v) + 1 for v in rng.permutation(n))
    star_orders = {}
    for p, v in enumerate(vo):
        forward = list(vo[p + 1:])
        star_orders[v] = tuple(forward[int(t)] for t in rng.permutation(len(forward)))
    return RevealOrder(n=n, vertex_order=vo, star_orders=star_orders)


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):
        object.__setattr__(self, "M", len(self.Mset))
        object.__setattr__(self, "N", len(self.Nset))
        if not self.Nset <= self.Mset:
            raise DesignError("Nset must be contained in Mset")
        if self.Mset & self.A:
            raise DesignError("Mset must be disjoint from A")
        if not self.trivial and self.N < 1:
            raise DesignError("N must be >= 1 on non-trivial reveals")


def reveal_sets_1f(X: EdgeColoring, order: RevealOrder, i: int, j: int) -> RevealSets:
    """Availability sets for the color of edge {i,j} under a reveal order.

    A collects the colors of all edges from i and from j to vertices
    before i; B the colors of i's star edges revealed before {i,j}.
    When j << i the reveal is trivial: the color was already exposed
    from j's side.
    """
    if i == j:
        raise SameVertexError("ordered pair needs distinct vertices")
    n = X.n
    pos = order.positions
    p = pos[i] + 1
    value = X.table[i][j]
    if pos[j] < pos[i]:
        v = frozenset((value,))
        return RevealSets("1f", i, j, frozenset(), frozenset(), v, v,
                          trivial=True, p=p, q=None, m=len(order.star_orders[i]))
    A = set()
    for t in order.vertex_order[:pos[i]]:
        A.add(X.table[t][i])
        A.add(X.table[t][j])
    Mset = frozenset(range(1, n)) - A
    star = order.star_orders[i]
    rank = star.index(j)
    B = {X.table[i][u] for u in star[:rank]}
    Nset = Mset - B
    return RevealSets("1f", i, j, frozenset(A), frozenset(B), Mset, frozenset(Nset),
                      trivial=False, p=p, q=rank + 1, m=len(star))


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
    n = X.n
    pos = order.positions
    p = pos[i] + 1
    k = X.table[i][j]
    star = order.star_orders[i]
    m = len(star)
    rank = {u: r for r, u in enumerate(star)}
    q = rank[j] + 1 if pos[i] < pos[j] else None
    informative = (pos[i] < pos[j] and pos[i] < pos[k] and rank[j] < rank[k])
    if not informative:
        v = frozenset((k,))
        return RevealSets("sts", i, j, frozenset(), frozenset(), v, v,
                          trivial=True, p=p, q=q, m=m)
    A = set()
    for t in range(1, n + 1):
        if t in (i, j):
            continue
        if pos[t] < pos[i] or pos[X.table[i][t]] < pos[i] or pos[X.table[j][t]] < pos[i]:
            A.add(t)
    Mset = frozenset(range(1, n + 1)) - {i, j} - A
    B = {t for t in Mset if rank[t] < rank[j] or rank[X.table[i][t]] < rank[j]}
    Nset = Mset - B
    return RevealSets("sts", i, j, frozenset(A), frozenset(B), Mset, frozenset(Nset),
                      trivial=False, p=p, q=q, m=m)
