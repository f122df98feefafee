"""Validation errors of the design types; each is a ``DesignError``.

``core`` imports them back.  They sit apart from it so that the
command-line front end catches ``DesignError`` without loading ``core``.
"""


class DesignError(ValueError):
    """Base class for validation failures in this package."""


class BadVertexError(DesignError):
    """A vertex label lies outside {1..n}."""


class DuplicatePairError(DesignError):
    def __init__(self, i: int, j: int):
        self.pair = (min(i, j), max(i, j))
        super().__init__(f"pair {self.pair} is covered more than once")


class UncoveredPairError(DesignError):
    def __init__(self, i: int, j: int):
        self.pair = (min(i, j), max(i, j))
        super().__init__(f"pair {self.pair} is covered by no triple")


class ColorClashError(DesignError):
    def __init__(self, vertex: int, color: int):
        self.vertex = vertex
        self.color = color
        super().__init__(f"two edges at vertex {vertex} share color {color}")


class MissingEdgeError(DesignError):
    def __init__(self, i: int, j: int):
        self.pair = (min(i, j), max(i, j))
        super().__init__(f"edge {self.pair} has no color assigned")


class BadColorError(DesignError):
    """A color lies outside {1..n-1}."""


class SameVertexError(DesignError):
    """An operation on a pair was called with i == j."""


class BulkError(DesignError):
    """Design ``index`` of an array of designs is not one or, when
    ``repeats`` is set, equals the earlier design ``repeats``."""

    def __init__(self, kind: str, index: int, repeats: int | None = None):
        self.index, self.repeats = index, repeats
        super().__init__(f"{kind} design {index} is not valid" if repeats is None
                         else f"{kind} design {index} repeats design {repeats}")
