"""Rooted Cayley-tree combinatorics.

A tree of branching order k has a root with k+1 neighbours while every other
vertex has k direct successors, so the n-th sphere holds (k+1)*k**(n-1)
vertices.  Vertices are addressed by their root path (a tuple of child
indices).  A ball is a matter of index arithmetic: in level order, level m
starts at index |B_{m-1}|, an address read as a base-k numeral (its first
index may reach k) is its offset there, and the vertex at offset o of level m
is the child of the one at offset o // k of level m - 1 (of the root, at
level 1).  A vertex is nothing but its address, so a level is walked by
its addresses; in text an address is its dot-joined indices ("0.1.0"), the
root "".

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

    def __contains__(self, address: tuple[int, ...]) -> bool:
        """Whether ``address`` names a vertex of this tree: the root's
        children are 0..k, every other vertex's 0..k-1."""
        k = self.branching
        return not address or (address[0] <= k and all(i < k for i in address[1:]))


def parse_address(text: str) -> tuple[int, ...]:
    """The address at dot-joined child indices ("0.1.0"); the root is "".

    Each index is ASCII digits only: no sign, space, underscore or other
    script's digits, which ``int`` would read as another vertex.
    """
    if not _ADDRESS_TEXT.fullmatch(text):
        raise ValueError(f"vertex address {text!r} is not dot-joined child indices "
                         f"like '0.1' (the root is '')")
    return tuple(map(int, text.split("."))) if text else ()


def render_address(address: tuple[int, ...]) -> str:
    """The dot-joined child indices of ``address``; the root is ""."""
    return ".".join(map(str, address))
