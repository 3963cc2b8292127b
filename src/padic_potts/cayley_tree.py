"""Rooted Cayley-tree combinatorics.

A tree of branching order k has a root with k+1 neighbours while every other
vertex has k direct successors, so the n-th sphere holds (k+1)*k**(n-1)
vertices.  Vertices are addressed by their root path (a tuple of child
indices).  A ball is listed by one level-order walk that makes each level
from the one before it; nothing is materialised beyond the addresses a query
touches, which keeps every operation O(size of the answer).

The parity of a vertex's level splits the tree into the two classes used by
bipartite couplings and period-two fields.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TreeShape:
    """Branching order of a Cayley tree; balls of any radius are cut from it."""

    branching: int

    def __post_init__(self):
        if not isinstance(self.branching, int) or self.branching < 1:
            raise ValueError(f"branching order must be an integer >= 1, got {self.branching!r}")

    def _check_level(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"level {n} is negative")

    def sphere_size(self, n: int) -> int:
        self._check_level(n)
        if n == 0:
            return 1
        return (self.branching + 1) * self.branching ** (n - 1)

    def ball_size(self, n: int) -> int:
        self._check_level(n)
        k = self.branching
        # the root, then k + 1 times the geometric sum 1 + k + ... + k**(n-1)
        return 1 + (k + 1) * ((k**n - 1) // (k - 1) if k > 1 else n)

    def __contains__(self, x: "TreeVertex") -> bool:
        """Whether ``x`` names a vertex of this tree: the root's children are
        0..k, every other vertex's 0..k-1."""
        k = self.branching
        return not x.address or (x.address[0] <= k and all(i < k for i in x.address[1:]))


@dataclass(frozen=True, slots=True)
class TreeVertex:
    """A vertex addressed by its path of child indices from the root.

    The root is the empty address.  Children of the root are indexed
    0..k (it has k+1 of them); children of any other vertex 0..k-1.
    Rendered as dot-joined indices ("0.1.0"), the root as "".
    """

    address: tuple[int, ...] = ()

    def __post_init__(self):
        if not all(isinstance(i, int) and i >= 0 for i in self.address):
            raise ValueError(f"address must be nonnegative ints, got {self.address!r}")

    @classmethod
    def root(cls) -> "TreeVertex":
        return cls(())

    @classmethod
    def from_string(cls, text: str) -> "TreeVertex":
        """The vertex at dot-joined child indices ("0.1.0"); the root is "".

        Each index is ASCII digits only: no sign, space, underscore or other
        script's digits, which ``int`` would read as another vertex.
        """
        if text == "":
            return cls(())
        parts = text.split(".")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"vertex address {text!r} is not dot-joined child indices "
                             f"like '0.1' (the root is '')")
        return cls(tuple(map(int, parts)))

    @property
    def level(self) -> int:
        return len(self.address)

    @property
    def is_root(self) -> bool:
        return not self.address

    def child(self, index: int) -> "TreeVertex":
        return TreeVertex(self.address + (index,))

    def parent(self) -> "TreeVertex":
        if self.is_root:
            raise ValueError("the root has no parent")
        return TreeVertex(self.address[:-1])

    def __str__(self) -> str:
        return ".".join(str(i) for i in self.address)

    def __repr__(self) -> str:
        return f"TreeVertex({str(self)!r})"


def vertex_parity(x: TreeVertex) -> str:
    """The parity class of ``x``: "even" or "odd" with its level."""
    return "even" if x.level % 2 == 0 else "odd"


def direct_successors(shape: TreeShape, x: TreeVertex) -> list[TreeVertex]:
    """The children of ``x``: k+1 of them at the root, k elsewhere."""
    count = shape.branching + 1 if x.is_root else shape.branching
    return [x.child(i) for i in range(count)]


def ball_with_edges(shape: TreeShape, n: int) -> tuple[list[TreeVertex], list[tuple[int, int]]]:
    """The n-ball in level order, with the (parent index, child index) pair of
    every edge.

    One walk: the children of the ball's first |B_{n-1}| vertices, taken in
    order, are its later levels, so each level is made from the one before it
    and the walk creates one vertex per vertex of the ball.
    """
    shape._check_level(n)
    vertices = [TreeVertex.root()]
    pairs: list[tuple[int, int]] = []
    for i in range(shape.ball_size(n - 1) if n else 0):
        for y in direct_successors(shape, vertices[i]):
            pairs.append((i, len(vertices)))
            vertices.append(y)
    return vertices, pairs

