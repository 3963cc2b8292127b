import random
from fractions import Fraction

import pytest

from padic_potts.cayley_tree import TreeShape, TreeVertex


def unit_fraction(rng: random.Random, p: int, size: int = 8) -> Fraction:
    """A random rational of p-adic norm exactly 1."""
    num = rng.randrange(1, p**size)
    while num % p == 0:
        num += 1
    den = rng.randrange(1, p ** (size // 2))
    while den % p == 0:
        den += 1
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * num, den)


def exp_domain_fraction(rng: random.Random, p: int, spread: int = 3) -> Fraction:
    """A random nonzero rational inside the exponential convergence disk."""
    vmin = 2 if p == 2 else 1
    return unit_fraction(rng, p) * Fraction(p) ** (vmin + rng.randrange(0, spread))


def vertex_parity(x: TreeVertex) -> str:
    """The parity class of ``x``: "even" or "odd" with its level."""
    return "even" if x.level % 2 == 0 else "odd"


def direct_successors(shape: TreeShape, x: TreeVertex) -> list[TreeVertex]:
    """The children of ``x``: k+1 of them at the root, k elsewhere."""
    count = shape.branching + 1 if x.is_root else shape.branching
    return [x.child(i) for i in range(count)]


@pytest.fixture
def rng():
    return random.Random(20240817)
