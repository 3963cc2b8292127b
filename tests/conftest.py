import collections
import functools
import random
from fractions import Fraction

import pytest

from padic_potts.cayley_tree import TreeShape
from padic_potts.padic_core import PadicNumber
from padic_potts.potts_model import _level_couplings, _LevelWeights


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


def vertex_parity(a: tuple[int, ...]) -> str:
    """The parity class of the vertex at ``a``: "even" or "odd" with its level."""
    return "even" if len(a) % 2 == 0 else "odd"


def direct_successors(shape: TreeShape, a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The children of the vertex at ``a``: k+1 of them at the root, k elsewhere."""
    count = shape.branching + 1 if not a else shape.branching
    return [a + (i,) for i in range(count)]


def level_start(shape: TreeShape, m: int) -> int:
    """The index of level m's first vertex in level order: |B_{m-1}|."""
    return shape.ball_size(m - 1) if m else 0


def ball_with_edges(shape: TreeShape, n: int) -> tuple[list, list[tuple[int, int]]]:
    """The addresses of the n-ball in level order, with the (parent index,
    child index) pair of every edge, each parent found by index arithmetic."""
    shape._check_level(n)
    vertices = [a for m in range(n + 1) for a in shape.level_addresses(m)]
    pairs: list[tuple[int, int]] = []
    for m in range(1, n + 1):
        start, above = level_start(shape, m), level_start(shape, m - 1)
        step = shape.successor_count(m - 1)
        pairs += [(above + o // step, start + o) for o in range(shape.sphere_size(m))]
    return vertices, pairs


# Address-keyed readings of the library's inputs and weight systems: the
# oracles the tests compare the index-addressed passes with.


def coupling_for_edge(J, child: tuple[int, ...]) -> Fraction:
    """The coupling on the edge into ``child``; a KeyError if a per-edge
    table lists no such edge."""
    value = J.level_coupling(len(child))
    return J.values[child] if value is None else value


def theta_for_edge(J, child: tuple[int, ...], precision: int):
    """exp of the coupling on the edge into ``child``, from J's cache."""
    return J.theta(coupling_for_edge(J, child), precision)


def field_at(h, a: tuple[int, ...]) -> tuple:
    """The vector ``h`` gives the vertex at ``a``: its own entry, else its
    level's parity default."""
    got = h._table.get(len(a), {}).get(a)
    return h._pair[len(a) % 2] if got is None else got


def spin_pairing(h: tuple, s: int):
    """One-site boundary exponent of spin ``s`` under the field vector ``h``:
    spins 1..q-1 read off their own component, spin q gets the component
    sum, added left to right."""
    q = len(h) + 1
    if not 1 <= s <= q:
        raise ValueError(f"spin label {s} outside 1..{q}")
    if s < q:
        return h[s - 1]
    total = h[0]
    for c in h[1:]:
        total = total + c
    return total


def weights(shape: TreeShape, h, J, n: int, digits: int, inner: bool = False):
    """The weight system of the n-ball at ``digits``, over its own read of
    J's couplings for levels 1..n."""
    return _LevelWeights(shape, h, J, n, digits, _level_couplings(shape, J, range(1, n + 1)),
                         inner)


def site_exponentials(h, a: tuple[int, ...], precision: int) -> list:
    """The site table of the vertex at ``a``, from the field's cache."""
    return h._site_table(field_at(h, a), precision)


def ball_vertices(system) -> list[tuple[int, ...]]:
    """The addresses of a weight system's ball, in level order."""
    return ball_with_edges(system.shape, system.n)[0]


def _by_index(system, m: int, level: tuple) -> dict[int, list[int]]:
    # level m's rows of a weight system, keyed by vertex index
    rows, default, off = level
    start = level_start(system.shape, m)
    return {start + o: rows[off.get(o, default)] for o in range(system.shape.sphere_size(m))}


@functools.lru_cache(maxsize=8)  # a brute force weighs every configuration of one system
def edge_residues(system) -> list[tuple[int, int, int]]:
    """(parent index, child index, theta residue) of every edge of a weight
    system's ball, in level order."""
    size, th = system.shape.sphere_size, system._theta
    thetas = [th[off.get(o, default)] for m, (default, off) in enumerate(system._couplings, 1)
              for o in range(size(m))]
    return [(i, j, t) for (i, j), t in zip(ball_with_edges(system.shape, system.n)[1], thetas)]


@functools.lru_cache(maxsize=8)
def site_residues(system) -> dict[int, list[int]]:
    """The site rows of a weight system's sphere, keyed by vertex index."""
    return _by_index(system, system.n, system._spheres[system.n])


def weight(system, cfg: tuple, sites: dict | None = None) -> int:
    """Residue of one configuration's weight (spins in level order);
    ``sites`` replaces the site rows."""
    w = 1
    M = system.modulus
    for i, j, th in edge_residues(system):
        if cfg[i] == cfg[j]:
            w = w * th % M
    for i, table in (site_residues(system) if sites is None else sites).items():
        w = w * table[cfg[i] - 1] % M
    return w


def messages(system, level: int) -> dict:
    """Sum-product messages of the vertices at ``level``, keyed by index.

    m_v(s) is the weight of the branch below v summed over its spins, with
    v held at spin s.
    """
    for m, folded in system._levels():
        if m == level:
            return _by_index(system, level, folded)
    raise ValueError(f"level {level} outside the {system.n}-ball")


def zero_field_partitions(shape: TreeShape, J, n: int, digits: int) -> list:
    """[Z_0, ..., Z_n], the zero field's partition sums on the m-balls, as
    PadicNumbers over the thetas to ``digits``.  Summing out a leaf gives
    theta_e + q - 1 whatever its parent's spin, so
    Z_m = q * prod over the edges e of B_m of (theta_e + q - 1), under any
    couplings (Baxter, Exactly Solved Models, 1982, ch. 4)."""
    vertices, edges = ball_with_edges(shape, n)
    counts = [collections.Counter() for _ in range(n + 1)]  # level m's edges by coupling
    for _, j in edges:
        counts[len(vertices[j])][coupling_for_edge(J, vertices[j])] += 1
    z = [PadicNumber(J.q, J.prime, digits)]
    for level in counts[1:]:
        z.append(z[-1])
        for value, count in level.items():
            z[-1] = z[-1] * (J.theta(value, digits) + (J.q - 1)) ** count
    return z


@pytest.fixture
def rng():
    return random.Random(20240817)
