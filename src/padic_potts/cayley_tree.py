"""Rooted Cayley-tree combinatorics.

A tree of branching order k has a root with k+1 neighbours while every other
vertex has k direct successors, so the n-th sphere holds (k+1)*k**(n-1)
vertices.  Vertices are addressed by their root path (a tuple of child
indices).  A ball is a matter of index arithmetic: in level order, level m
starts at index |B_{m-1}|, an address read as a base-k numeral (its first
index may reach k) is its offset there, and the vertex at offset o of level m
is the child of the one at offset o // k of level m - 1 (of the root, at
level 1).  Vertex objects are made only for the levels a query names, which
keeps every operation O(size of the answer).

The parity of a vertex's level splits the tree into the two classes used by
bipartite couplings and period-two fields.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass

_ADDRESS_TEXT = re.compile(r"(?:[0-9]+(?:\.[0-9]+)*)?")  # ASCII digit runs joined by dots


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

    def successor_count(self, m: int) -> int:
        """How many direct successors a vertex of level m has: k+1 at the
        root, k elsewhere."""
        return self.branching + 1 if m == 0 else self.branching

    def level_start(self, m: int) -> int:
        """The index of level m's first vertex in level order: |B_{m-1}|."""
        return self.ball_size(m - 1) if m else 0

    def offset_of(self, address: tuple[int, ...]) -> int:
        """The offset of a vertex of this tree in its level: its address in base k."""
        offset = 0
        for i in address:
            offset = offset * self.branching + i
        return offset

    def level_addresses(self, m: int) -> Iterator[tuple[int, ...]]:
        """The addresses of level m's vertices in level order, offset 0 first:
        the one place that knows that order."""
        self._check_level(m)
        k = self.branching
        if m == 0:
            return iter([()])
        return itertools.product(range(k + 1), *[range(k)] * (m - 1))

    def level_vertices(self, m: int) -> list["TreeVertex"]:
        """The vertices of level m in level order.  Their addresses are made
        in range, so they skip the constructor's check."""
        return [_vertex(a) for a in self.level_addresses(m)]

    def __contains__(self, address: tuple[int, ...]) -> bool:
        """Whether ``address`` names a vertex of this tree: the root's
        children are 0..k, every other vertex's 0..k-1."""
        k = self.branching
        return not address or (address[0] <= k and all(i < k for i in address[1:]))


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
        if not _ADDRESS_TEXT.fullmatch(text):
            raise ValueError(f"vertex address {text!r} is not dot-joined child indices "
                             f"like '0.1' (the root is '')")
        return _vertex(tuple(map(int, text.split("."))) if text else ())

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


def _vertex(address: tuple[int, ...]) -> TreeVertex:
    # a TreeVertex at an address known to be valid, past __post_init__'s check
    x = object.__new__(TreeVertex)
    object.__setattr__(x, "address", address)
    return x


def ball_with_edges(shape: TreeShape, n: int) -> tuple[list[TreeVertex], list[tuple[int, int]]]:
    """The n-ball in level order, with the (parent index, child index) pair of
    every edge, each parent found by index arithmetic."""
    shape._check_level(n)
    vertices = [x for m in range(n + 1) for x in shape.level_vertices(m)]
    pairs: list[tuple[int, int]] = []
    for m in range(1, n + 1):
        start, above = shape.level_start(m), shape.level_start(m - 1)
        step = shape.successor_count(m - 1)
        pairs += [(above + o // step, start + o) for o in range(shape.sphere_size(m))]
    return vertices, pairs
