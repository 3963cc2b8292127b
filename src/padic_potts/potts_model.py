"""The inhomogeneous p-adic Potts model on a rooted Cayley tree.

Couplings sit on edges, boundary fields on the outermost sphere, and every
finite-volume weight is the p-adic exponential of a sum that admissibility
keeps inside the exponential's convergence disk.  A field gives each vertex
its own vector or, failing that, the vector of its level's parity; p and q
come with the coupling and the field, which must agree on them.  Since such exponentials are
units, all arithmetic runs on unit residues modulo p**B for a working
exponent B a little above the requested precision; partition functions and
marginal sums are therefore exact integers mod p**B, and every reported
valuation is certain unless stated as a lower bound.

A weight is a product of edge and boundary-site factors, so sums over
configurations factorise along the tree: one leaf-to-root sum-product pass
gives the partition sum, and the same pass read one sphere short gives the
marginal of the n-ball measure on the (n-1)-ball.  A message depends only on
its subtree's couplings and fields, so the pass holds a level as its distinct
rows and folds one row per distinct signature: a zero, constant or parity
field under homogeneous or bipartite couplings costs O(n*q) per pass, and
only vertices a field entry or a per-edge coupling sets apart cost more.
The compatibility checker compares the marginals with the smaller ball's
measure at one base configuration and its one-spin changes, where the worst
discrepancy lies.  The pass is exact integer arithmetic, not the
boundary-law recursion the solver module implements, which is what makes the
cross-check meaningful.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .cayley_tree import TreeShape, parse_address, render_address
from .errors import (
    DomainViolation,
    EnumerationTooLarge,
    PartitionFunctionDegenerate,
    PrecisionExhausted,
)
from .padic_analytic import exp_domain_min_valuation, exp_p
from .padic_core import (
    DEFAULT_PRECISION,
    PadicNumber,
    Prime,
    _INTEGER_TEXT,
    _RATIONAL_TEXT,
    _vp,
    as_prime,
    rational_valuation,
)

# Hard ceiling on weighted terms any enumeration may touch.
ENUMERATION_GUARD = 10**7

# Extra digits of working modulus above the requested precision.
MODULUS_HEADROOM = 3

# Discrepancies must vanish to this many digits below precision to count as zero.
COMPAT_MARGIN = 4

SpinLabel = int  # labels 1..q; a site table holds spin s's factor at index s - 1


def _is_address(key) -> bool:
    # a tuple of nonnegative ints, by a loop: all() over a generator costs twice as much
    if type(key) is not tuple:
        return False
    for i in key:
        if type(i) is not int or i < 0:
            return False
    return True


def _check_coupling_admissible(value: Fraction, p: Prime) -> None:
    v = rational_valuation(value, p)
    need = exp_domain_min_valuation(p)
    if v is not None and v < need:
        raise DomainViolation(
            f"coupling {value} has valuation {v} < {need} required for exp at p={p}"
        )


@dataclass(eq=False)
class CouplingField:
    """Edge-to-coupling assignment with its admissibility certificate.

    Three patterns: a single value everywhere, a value per edge direction of
    the bipartition, or an explicit per-edge table.  ``values`` holds each
    edge's value under the key its child's level reads: the child level's
    parity for the first two ({0: J, 1: J} and {1: even_to_odd, 0:
    odd_to_even}), the child's address for a table.  Every value must lie
    in the exponential's convergence disk; zero is accepted as the
    degenerate coupling (its exponential is exactly one).
    """

    pattern: str
    prime: Prime
    q: int
    values: dict
    _theta_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.prime = as_prime(self.prime)
        if self.q < 2:
            raise ValueError(f"need at least two spin states, got q={self.q}")
        if self.pattern not in ("homogeneous", "bipartite", "per_edge"):
            raise ValueError(f"unknown coupling pattern {self.pattern!r}")
        # each distinct value once, in table order (a Fraction's own hash is slow)
        for value in {(J.numerator, J.denominator): J for J in self.values.values()}.values():
            _check_coupling_admissible(value, self.prime)

    @classmethod
    def homogeneous(cls, J, p, q: int) -> "CouplingField":
        J = Fraction(J)
        return cls("homogeneous", as_prime(p), q, {0: J, 1: J})

    @classmethod
    def bipartite(cls, J_even_to_odd, J_odd_to_even, p, q: int) -> "CouplingField":
        # even_to_odd first, so an inadmissible pair names it first
        values = {1: Fraction(J_even_to_odd), 0: Fraction(J_odd_to_even)}
        return cls("bipartite", as_prime(p), q, values)

    @classmethod
    def per_edge(cls, table, p, q: int) -> "CouplingField":
        """A coupling per edge from {child address: value}: an edge is named
        by its child.  A key that is not a nonempty tuple of nonnegative ints
        names no edge and is refused."""
        values = {}
        for child, J in table.items():
            if not (child and _is_address(child)):
                raise ValueError(f"per-edge key {child!r} names no edge: an edge is named by "
                                 f"its child's address, a nonempty tuple of nonnegative ints")
            values[child] = J if type(J) is Fraction else Fraction(J)  # kept, not copied
        return cls("per_edge", as_prime(p), q, values)

    def level_coupling(self, m: int) -> Fraction | None:
        """The coupling on every edge into level m >= 1, keyed by m's parity;
        None for a per-edge table, whose keys are addresses."""
        return self.values.get(m % 2)

    def theta(self, J: Fraction, precision: int = DEFAULT_PRECISION) -> PadicNumber:
        """exp of the coupling value ``J``, cached per value and precision."""
        key = (J.numerator, J.denominator, precision)  # a Fraction's own hash is slow
        if key not in self._theta_cache:
            self._theta_cache[key] = exp_p(PadicNumber.from_fraction(J, self.prime, precision))
        return self._theta_cache[key]


class BoundaryField:
    """Vertex-to-vector assignment h over q - 1 components.

    A vector is a tuple of q - 1 PadicNumbers over the field's prime (any
    sequence is accepted and stored as a tuple).  Each vertex reads its own
    entry, held by its address, if one was assigned, and otherwise its
    level's parity default: an (even levels, odd levels) pair, zero unless
    set.  So a constant field is a pair of equal vectors, a period-two field
    a pair of different ones, and a sparse field file entries over zeros.
    Every vector must lie componentwise in the exponential's convergence
    disk, which is what keeps all weights well-defined units.

    A vector's q site factors, the exponentials of its q - 1 components and
    their product, are computed once per distinct vector and working
    precision, as ``CouplingField`` does for edge exponentials.  The cache
    is keyed by the vector's exact components, never by vertex or level, so
    an ``assign`` after a measure call cannot serve a stale table.
    """

    __slots__ = ("q", "prime", "_pair", "_table", "_site_cache")

    def __init__(self, q: int, p, assignment=None):
        if q < 2:
            raise ValueError(f"need at least two spin states, got q={q}")
        self.q = q
        self.prime = as_prime(p)
        zero = (PadicNumber.zero(self.prime),) * (q - 1)
        self._pair = (zero, zero)
        self._table: dict[int, dict[tuple[int, ...], tuple]] = {}  # each level's, by address
        self._site_cache: dict[tuple, list[PadicNumber]] = {}
        for address, vec in (assignment or {}).items():
            self.assign(address, vec)

    def assign(self, address: tuple[int, ...], vec) -> None:
        """Give the vertex at ``address`` (a tuple of child indices) its own vector."""
        if not _is_address(address):
            raise ValueError(f"field key {address!r} is not a vertex address: "
                             f"a tuple of nonnegative ints")
        vec = self._checked(vec, render_address(address) or "root")
        self._table.setdefault(len(address), {})[address] = vec

    def _checked(self, vec, where) -> tuple[PadicNumber, ...]:
        vec = tuple(vec)
        if len(vec) != self.q - 1:
            raise ValueError(f"field vector must have {self.q - 1} components, got {len(vec)}")
        if any(c.prime != self.prime for c in vec):
            raise ValueError("field vector prime does not match")
        bound = exp_domain_min_valuation(self.prime)
        if not all(c.valuation_at_least(bound) for c in vec):
            raise DomainViolation(
                f"field at {where} leaves the exponential domain at p={self.prime}"
            )
        return vec

    @classmethod
    def zero(cls, q: int, p) -> "BoundaryField":
        return cls(q, p)

    @classmethod
    def constant(cls, vec) -> "BoundaryField":
        return cls.by_parity(vec, vec)

    @classmethod
    def by_parity(cls, even, odd) -> "BoundaryField":
        if not even:
            raise ValueError("field vector needs at least one component")
        out = cls(len(even) + 1, even[0].prime)
        out._pair = (out._checked(even, "even levels"), out._checked(odd, "odd levels"))
        return out

    def _site_table(self, vec: tuple[PadicNumber, ...], precision: int) -> list[PadicNumber]:
        """The site factors of spins 1..q: exp(h_s) for s < q, and for spin q
        exp(h_1 + ... + h_{q-1}) as the product of those q - 1 factors, so no
        sum of components is formed (at q = 2 the product is exp(h_1) itself).
        Cached per distinct vector and precision."""
        key = (tuple(c._key() for c in vec), precision)
        table = self._site_cache.get(key)
        if table is None:
            table = [exp_p(c, precision=precision) for c in vec]
            table.append(reduce(PadicNumber.mul, table))
            self._site_cache[key] = table
        return table

    def _sphere(self, shape: TreeShape, m: int, digits: int) -> tuple[list, int, dict]:
        """Sphere m of ``shape`` as (its distinct site tables at ``digits``,
        default index, {offset: index} off it) (``_sparse``): level m's
        entries on the tree over its parity default.  Equal vectors share a
        cached table, so they share an index."""
        tables, by_table, by_vector = [], {}, {}  # indices by identity: a vector is looked up once

        def at(vec) -> int:
            i = by_vector.get(id(vec))
            if i is None:
                table = self._site_table(vec, digits)
                i = by_vector[id(vec)] = by_table.setdefault(id(table), len(tables))
                if i == len(tables):
                    tables.append(table)
            return i

        listed = {shape.offset_of(a): at(v) for a, v in self._table.get(m, {}).items() if a in shape}
        default = at(self._pair[m % 2]) if len(listed) < shape.sphere_size(m) else None
        return (tables, *_sparse(listed, default))


# ---------------------------------------------------------------------------
# Measure engine


def _guard(q: int, shape: TreeShape, n: int, configurations: bool = True) -> None:
    """Refuse to touch more than ENUMERATION_GUARD terms: q*|B_n| in the tree
    pass, or q**|B_n| configurations, a count that only compatibility_check
    still makes, on its (n-1)-ball.

    A refused size with more than the d digits an int may print is named by
    its depth instead, and from n = 4d on (k > 1, so |B_n| > 2**n > 10**d)
    it is not even formed.
    """
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    count = None if shape.branching > 1 and n >= 4 * digits else shape.ball_size(n)
    if count is not None:
        # q >= 2, so capping the exponent at the guard's bit length changes no verdict
        terms = q ** min(count, ENUMERATION_GUARD.bit_length()) if configurations else q * count
        if terms <= ENUMERATION_GUARD:
            return
        if count < 10**digits:
            what = f"{q}**{count} configurations" if configurations else f"{q}*{count} tree-pass terms"
            raise EnumerationTooLarge(f"{what} exceed the guard of {ENUMERATION_GUARD} terms")
    raise EnumerationTooLarge(
        f"the {n}-ball has more than 10**{digits} vertices, past the guard of "
        f"{ENUMERATION_GUARD} terms"
    )


def _sparse(listed: dict, default: int | None) -> tuple[int, dict]:
    """A map from the offsets of a level to ids, as (default id, {offset: id}
    for the offsets off it).  ``listed`` holds every offset whose id may
    differ from ``default``; with no ``default`` it holds every offset, and
    its first id becomes the default: a level that lists every offset costs
    what was read to list it, and one id throughout leaves nothing off."""
    if default is None:
        default = next(iter(listed.values()))
    return default, {o: i for o, i in listed.items() if i != default}


def _level_couplings(shape: TreeShape, J: CouplingField, levels) -> tuple[list, dict]:
    """The couplings on the edges into each of ``levels``, read in the order
    given (1..n for the tree pass, n..1 for the recursion, as each folds),
    as (values, {m: (default id, {offset: id})}): the one reader of which
    coupling sits on which edge.  Each distinct value gets an id, its index
    in ``values``.  Level m maps each offset to an id (``_sparse``): one id
    for a homogeneous or bipartite level, or for a per-edge table one
    lookup of each child address in offset order, so that a table missing
    an edge names the first edge it misses on the first level read that
    misses one.
    """
    ids: dict = {}  # a value's id by its (numerator, denominator)
    read: dict = {}

    def id_of(value: Fraction) -> int:
        return ids.setdefault((value.numerator, value.denominator), len(ids))

    for m in levels:
        value = J.level_coupling(m)
        if value is not None:
            read[m] = (id_of(value), {})
            continue
        table = J.values  # by child address
        try:
            read[m] = _sparse({o: id_of(table[a])
                               for o, a in enumerate(shape.level_addresses(m))}, None)
        except KeyError as missing:
            child = missing.args[0]
            parent, child = map(render_address, (child[:-1], child))
            raise KeyError(f"no coupling listed for edge {parent!r} -> {child!r}") from None
    return [Fraction(*key) for key in ids], read


class _LevelWeights:
    """Unit residues mod p**B for every edge and boundary site of one ball,
    and the sum-product pass over them, held level by level.

    A level is its distinct rows and the map from vertex offset to row: a
    default row and the offsets off it (``_sparse``).  Children and parents
    are found by index arithmetic (``cayley_tree``), so the pass reads no
    addresses, and it folds one row per distinct signature, not per
    vertex: a parent's message depends only on the (row, coupling) pairs of
    its children.  A zero, constant or parity field under homogeneous or
    bipartite couplings is then one row per level, a sparse field file the
    default row plus the rows its entries reach, and a per-edge table or a
    random field a row per vertex, all through the one fold.  Each distinct
    coupling and field vector is exponentiated once, by the coupling's and
    the field's caches, and reduced mod p**B once.  ``couplings`` is
    ``_level_couplings`` read by the caller, after its guard, for levels
    1..n or more, which the balls of one computation share (only levels
    1..n are exponentiated, so a deeper read leaves B as it is).  Each
    sphere's site tables come from the field (``BoundaryField._sphere``).
    With ``inner`` the weights also hold the site rows of sphere n - 1, the
    boundary of the (n-1)-ball, on the same modulus: the compatibility
    check's two balls in one system.

    Every exponential is taken to ``digits``, and B is clamped to the least
    absolute precision carried by any of them, so every residue is certain.
    B below ``digits + MODULUS_HEADROOM`` (``clamped``) is an input's own
    known_abs, which more digits cannot raise: a wider system would be this
    one again, so the callers that widen do not.
    The partition sum of a ball loses one factor of |q|_p per vertex
    (``_shift_hint``), so each caller sets ``digits`` by its own rule.
    """

    def __init__(
        self,
        shape: TreeShape,
        h: BoundaryField,
        J: CouplingField,
        n: int,
        digits: int,
        couplings: tuple[list, dict],
        inner: bool = False,
    ):
        if (h.prime, h.q) != (J.prime, J.q):
            raise ValueError(
                f"field over p={h.prime}, q={h.q} does not match the coupling's "
                f"p={J.prime}, q={J.q}"
            )
        self.prime, self.q = J.prime, J.q
        self.shape, self.n = shape, n
        values, levels = couplings
        self._couplings = [levels[m] for m in range(1, n + 1)]  # level m's at m - 1
        used = {i for default, off in self._couplings for i in (default, *off.values())}
        thetas = {i: J.theta(values[i], digits) for i in used}
        spheres = {m: h._sphere(shape, m, digits) for m in ((n, n - 1) if inner else (n,))}
        exps = [*thetas.values(),
                *(w for tables, _, _ in spheres.values() for table in tables for w in table)]
        known = [e.known_abs for e in exps if e.known_abs is not None]
        bound = min([digits + MODULUS_HEADROOM, *known])
        self.modulus_exponent, self.modulus = bound, J.prime.value**bound
        self.clamped = bound < digits + MODULUS_HEADROOM
        self._theta = {i: theta.residue(bound) for i, theta in thetas.items()}
        self._spheres = {m: ([[w.residue(bound) for w in table] for table in tables], *sparse)
                         for m, (tables, *sparse) in spheres.items()}

    def _fold(self, level: tuple, m: int) -> tuple:
        """Level m's messages folded into level m - 1's.

        m_v(s) = site_v(s) * prod over children c of (sum_t m_c(t) +
        (theta_vc - 1) * m_c(s)), the site factor being 1 inside the ball.
        A parent's signature is the sorted tuple of its children's (row,
        coupling) pairs.  Each distinct signature's row is computed once,
        with one power per distinct pair, and only the parents of children
        off the level's defaults are looked at: the others share the
        signature of k default children.  The child at offset o folds into
        the parent at offset o // k (every child of level 1 into the root).
        """
        rows, default, off = level
        theta_default, theta_off = self._couplings[m - 1]
        step, size = self.shape.successor_count(m - 1), self.shape.sphere_size(m - 1)
        M, theta, folded, made = self.modulus, self._theta, [], {}

        def row_of(signature: tuple) -> int:
            if signature not in made:
                made[signature] = len(folded)
                row = None
                for pair in dict.fromkeys(signature):
                    child, shift, count = rows[pair[0]], theta[pair[1]] - 1, signature.count(pair)
                    total = sum(child)
                    factor = [pow(total + shift * c, count, M) for c in child]
                    row = factor if row is None else [f * g % M for f, g in zip(row, factor)]
                folded.append(row)
            return made[signature]

        parents = {}
        for a in {o // step for o in (*off, *theta_off)}:
            parents[a] = row_of(tuple(sorted(
                (off.get(o, default), theta_off.get(o, theta_default))
                for o in range(a * step, a * step + step))))
        common = row_of(((default, theta_default),) * step) if len(parents) < size else None
        return (folded, *_sparse(parents, common))

    def _levels(self, sphere: int | None = None):
        """(m, level m's messages) from a sphere the weights hold (n unless
        told) down to m = 0: one pass from that sphere to the root."""
        m = self.n if sphere is None else sphere
        level = self._spheres[m]
        yield m, level
        for m in range(m, 0, -1):
            level = self._fold(level, m)
            yield m - 1, level

    def partition_residue(self, sphere: int | None = None) -> int:
        """The partition sum of the ball out to ``sphere`` (n unless told)."""
        *_, (_, (rows, default, _)) = self._levels(sphere)  # the root's level
        return sum(rows[default]) % self.modulus


def _shift_hint(shape: TreeShape, J: CouplingField, n: int) -> int:
    # Expected valuation of the n-ball partition sum: one v_p(q) per vertex.
    return _vp(J.q, J.prime.value) * shape.ball_size(n)


def _partition_valuation(z_res: int, system: _LevelWeights) -> int:
    """The valuation of a partition residue of ``system``, certain unless
    the residue vanishes mod p**B, which is refused."""
    if z_res == 0:
        raise PartitionFunctionDegenerate(
            f"partition sum vanishes mod {system.prime}**{system.modulus_exponent}; "
            "its valuation cannot be resolved at this precision"
        )
    return _vp(z_res, system.prime.value)


def finite_measure(
    shape: TreeShape,
    cfg: dict[tuple[int, ...], SpinLabel],
    h: BoundaryField,
    J: CouplingField,
    n: int,
    precision: int = DEFAULT_PRECISION,
) -> PadicNumber:
    """The normalized weight in the n-ball ensemble of the spins ``cfg``,
    {address: label in 1..q}; any other label is refused before any pass.

    The partition sum comes from one tree pass, so a call costs q terms per
    vertex of the ball rather than one per configuration.  The quotient by
    Z is certain to B - 2*zeta digits, zeta = v_p(Z), so the pass widens
    once to 2*zeta past ``precision`` if zeta outgrew twice its estimate,
    unless an input's known_abs clamps B.
    """
    _guard(J.q, shape, n, configurations=False)
    spins = [[cfg[a] for a in shape.level_addresses(m)] for m in range(n + 1)]  # by level
    for m, level in enumerate(spins):
        for a, s in zip(shape.level_addresses(m), level):
            if not (type(s) is int and 1 <= s <= J.q):
                raise ValueError(f"spin {s!r} at vertex {render_address(a)!r} is not a "
                                 f"label in 1..{J.q}")
    couplings = _level_couplings(shape, J, range(1, n + 1))
    digits = precision + 2 * _shift_hint(shape, J, n)
    for _ in range(2):
        system = _LevelWeights(shape, h, J, n, digits, couplings)
        z_res = system.partition_residue()
        zeta = _partition_valuation(z_res, system)
        if system.modulus_exponent - 2 * zeta >= precision or system.clamped:
            break
        digits = precision + 2 * zeta
    M, w_res = system.modulus, 1
    for m in range(1, n + 1):  # the theta of each edge whose ends agree
        above, step = spins[m - 1], shape.successor_count(m - 1)
        default, off = system._couplings[m - 1]
        for o, s in enumerate(spins[m]):
            if s == above[o // step]:
                w_res = w_res * system._theta[off.get(o, default)] % M
    rows, default, off = system._spheres[n]
    for o, s in enumerate(spins[n]):  # and the site row of each sphere vertex
        w_res = w_res * rows[off.get(o, default)][s - 1] % M
    return _residue_quotient(w_res, z_res, zeta, system)


def _residue_quotient(w_res: int, z_res: int, zeta: int, system: _LevelWeights) -> PadicNumber:
    # w / Z with both known mod p**B: p**-zeta * w / u, u = Z / p**zeta a unit,
    # so the quotient is certain to B - 2*zeta digits
    prime = system.prime
    B = system.modulus_exponent
    mod = prime.value ** (B - zeta)
    s = w_res * pow(z_res // prime.value**zeta, -1, mod) % mod
    return PadicNumber._inexact(s, -zeta, B - 2 * zeta, prime, B)


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of marginalizing the n-ball measure onto the (n-1)-ball.

    ``max_discrepancy_valuation`` is the valuation of the largest-norm
    discrepancy found (so larger is better); when ``resolved`` is False every
    discrepancy vanished to the working modulus and the figure is only a
    certified lower bound.  ``terms_enumerated`` is q**|B_n|, the number of
    n-ball configurations the marginals sum over; the check itself weighs
    1 + |S_{n-1}|*(q-1) candidates for the worst of them.
    """

    holds: bool
    max_discrepancy_valuation: int
    threshold: int
    resolved: bool
    terms_enumerated: int


def compatibility_check(
    shape: TreeShape,
    h: BoundaryField,
    J: CouplingField,
    n: int,
    precision: int = DEFAULT_PRECISION,
) -> CompatibilityReport:
    """Test that the n-ball measure marginalizes to the smaller one.

    Both partition sums come from the tree pass.  Summing the n-ball weight
    over the outer-sphere spins leaves the (n-1)-ball weight with each
    sphere-(n-1) site table replaced by that vertex's message folded from its
    children.  Clearing denominators, a configuration's discrepancy is
    marginal * Z_{n-1} - weight_{n-1} * Z_n.  Its edge and site factors are
    units, so it has the valuation of x(s) - Z_n, x(s) = Z_{n-1} * prod_v
    r_v(s_v) over v in S_{n-1}, r_v = message / site table.  With a base s0
    of least-valuation r_v(s0_v), telescoping and the strong triangle
    inequality put the worst valuation at s0 or one spin away from it.
    """
    if n < 1:
        raise ValueError("compatibility needs n >= 1")
    p = J.prime.value
    q = J.q
    _guard(q, shape, n - 1)
    threshold = precision - COMPAT_MARGIN
    digits = precision + _shift_hint(shape, J, n) + _shift_hint(shape, J, n - 1)
    _guard(q, shape, n, configurations=False)  # before the couplings of the n-ball are read
    couplings = _level_couplings(shape, J, range(1, n + 1))
    for _ in range(2):
        system = _LevelWeights(shape, h, J, n, digits, couplings, inner=True)
        B, M = system.modulus_exponent, system.modulus
        for m, level in system._levels():  # one pass: sphere n - 1's messages, then Z_n
            if m == n - 1:
                folded = level
        rows, default, _ = level
        z_outer = sum(rows[default]) % M
        z_inner = system.partition_residue(n - 1)
        shift = _partition_valuation(z_outer, system) + _partition_valuation(z_inner, system)
        if B - shift >= threshold or system.clamped:
            break
        digits = precision + shift  # estimate fell short; widen once to the exact need
    if B - shift < threshold:
        raise PrecisionExhausted(
            f"working modulus {p}**{B} cannot certify discrepancies to valuation "
            f"{threshold} past the partition valuations",
            bound=B - shift,
        )

    def cap(x: int) -> int:
        return B if x % M == 0 else _vp(x, p)

    # sphere n - 1's vertices by their (message row, site row) pair: r_v
    # depends on nothing else
    rows, default, off = folded
    sites, site_default, site_off = system._spheres[n - 1]
    listed = off.keys() | site_off.keys()
    pairs = Counter((off.get(o, default), site_off.get(o, site_default)) for o in listed)
    if len(listed) < shape.sphere_size(n - 1):
        pairs[default, site_default] += shape.sphere_size(n - 1) - len(listed)
    # base is x(s0) and base_val its valuation; base_val + least_flip is the
    # least valuation of x(s) - x(s0) over the one-vertex changes s of s0
    base, base_val, least_flip = z_inner, cap(z_inner), B
    for (a, b), count in pairs.items():
        r = [m * pow(site, -1, M) % M for m, site in zip(rows[a], sites[b])]
        r0 = min(r, key=cap)
        base, base_val = base * pow(r0, count, M) % M, base_val + count * cap(r0)
        least_flip = min(least_flip, *(cap(x - r0) - cap(r0) for x in r))
    worst = min(cap(base - z_outer), base_val + least_flip)
    return CompatibilityReport(
        holds=worst - shift >= threshold,
        max_discrepancy_valuation=worst - shift,
        threshold=threshold,
        resolved=worst < B,
        terms_enumerated=q ** shape.ball_size(n),
    )


@dataclass(frozen=True)
class NormProfileRow:
    """The valuation every configuration's measure has on the ball of radius ``level``."""

    level: int
    valuation: int


def measure_norm_profile(
    shape: TreeShape,
    h: BoundaryField,
    J: CouplingField,
    n_max: int,
    precision: int = DEFAULT_PRECISION,
) -> list[NormProfileRow]:
    """The measure's valuation per level, as a boundedness probe.

    A configuration's weight is a product of edge and site residues, each
    exp_p of an admissible coupling or of field entries checked against the
    exponential's disk, so each is congruent to 1 mod p.  Every weight is
    then a unit, and each configuration's valuation is minus the partition
    function's: one valuation per level.  The profile relies on that
    admissibility.  A nonzero partition residue mod p**B has its
    exact valuation, so each level takes one tree pass, at the digits
    ``finite_measure`` first tries, and no wider one.
    """
    _guard(J.q, shape, n_max, configurations=False)
    couplings = _level_couplings(shape, J, range(1, n_max + 1))
    rows = []
    for n in range(n_max + 1):
        system = _LevelWeights(shape, h, J, n, precision + 2 * _shift_hint(shape, J, n), couplings)
        zeta = _partition_valuation(system.partition_residue(), system)
        rows.append(NormProfileRow(level=n, valuation=-zeta))
    return rows


# ---------------------------------------------------------------------------
# JSON ingestion


def _number_reader(convert=lambda x: x):
    """One document's reader of number texts: a JSON integer or a string in
    ``_RATIONAL_TEXT``, each distinct text matched and converted once, to
    ``convert`` of its Fraction, so equal texts give one object."""
    read: dict = {}

    def number(text):
        # a bool equals and hashes as 0 or 1, so it would hit their entry: refused first
        if isinstance(text, bool) or not isinstance(text, (str, int)):
            raise ValueError(f"rationals must be given as strings like '3/4', got {text!r}")
        if text not in read:
            if isinstance(text, str) and not _RATIONAL_TEXT.fullmatch(text):
                raise ValueError(f"Invalid literal for Fraction: {text!r}")
            try:
                value = Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"rational {text!r} has a zero denominator") from None
            read[text] = convert(value)
        return read[text]

    return number


def coupling_from_json(doc: dict, shape: TreeShape) -> CouplingField:
    """Build a CouplingField from its JSON form.

    {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "3/1"}}
    {"pattern": "bipartite", ..., "values": {"even_to_odd": "3", "odd_to_even": "6"}}
    {"pattern": "per_edge", ..., "values": [["", "0", "3"], ["0", "0.0", "6"]]}

    ``p`` (a prime) and ``q`` are JSON integers or strings of one, each value
    a JSON integer or a string like "-6/5" (``_RATIONAL_TEXT``).  Every
    per-edge row must name an edge of ``shape`` that no other row names.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a coupling document must be a JSON object, got {doc!r}")

    def integer(key: str) -> int:
        value = doc[key]  # int() would truncate a float, read a bool as 0 or 1, or "1_0" as 10
        if type(value) is int or isinstance(value, str) and _INTEGER_TEXT.fullmatch(value):
            return int(value)
        raise ValueError(f"{key} must be an integer, got {value!r}")

    try:
        pattern = doc["pattern"]
        p, q = as_prime(integer("p")), integer("q")
        raw = doc["values"]
    except KeyError as missing:
        raise ValueError(f"coupling document lacks field {missing}") from None
    kind = {"homogeneous": dict, "bipartite": dict, "per_edge": list}.get(pattern)
    if kind is None:
        raise ValueError(f"unknown coupling pattern {pattern!r}")
    if not isinstance(raw, kind):
        what = "array" if kind is list else "object"
        raise ValueError(f"{pattern} coupling values must be a JSON {what}, got {raw!r}")
    number = _number_reader()
    if pattern != "per_edge":
        keys = ("J",) if pattern == "homogeneous" else ("even_to_odd", "odd_to_even")
        try:
            values = [number(raw[key]) for key in keys]
        except KeyError as missing:
            raise ValueError(f"{pattern} coupling values lack field {missing}") from None
        make = CouplingField.homogeneous if pattern == "homogeneous" else CouplingField.bipartite
        return make(*values, p, q)
    table = {}
    for index, row in enumerate(raw):
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError(f"per-edge row {index} must be a [parent, child, value] array, "
                             f"got {row!r}")
        x, y, value = row
        if not (isinstance(x, str) and isinstance(y, str)):
            raise ValueError(f"edge addresses must be strings like '0.1', got {x!r} -> {y!r}")
        parent, child = parse_address(x), parse_address(y)
        if not child or child not in shape or child[:-1] != parent:
            k = shape.branching
            raise ValueError(f"per-edge row {x!r} -> {y!r} names no edge of the k={k} tree")
        edges = len(table)
        table[child] = number(value)
        if len(table) == edges:  # an earlier row named this edge: find which
            first = next(i for i, (_, y, _) in enumerate(raw) if parse_address(y) == child)
            raise ValueError(f"per-edge rows {first} and {index} both name edge "
                             f"{render_address(parent)!r} -> {render_address(child)!r}")
    return CouplingField.per_edge(table, p, q)


def boundary_field_from_json(doc: dict, q: int, p, shape: TreeShape) -> BoundaryField:
    """Build a BoundaryField from {"address": ["num/den", ...], ...}.

    The root is the empty address "" and unlisted vertices stay at zero.
    Each address must name its own vertex of ``shape`` ("0" and "00" name one).
    """
    if not isinstance(doc, dict):
        raise ValueError("a field document must map addresses to component lists")
    out = BoundaryField(q, p)
    component = _number_reader(lambda x: PadicNumber.from_fraction(x, out.prime))
    checked: dict = {}  # each distinct vector, by its components' identities, checked once

    for address, values in doc.items():
        if not isinstance(values, list):
            raise ValueError(f"field at {address!r} must be a list of components, got {values!r}")
        if len(values) != q - 1:
            raise ValueError(
                f"field at {address!r} must list {q - 1} components, got {len(values)}"
            )
        vec = tuple(component(v) for v in values)
        a = parse_address(address)
        if a not in shape:
            k = shape.branching
            raise ValueError(
                f"field address {address!r} names no vertex of the k={k} tree, whose root "
                f"has children 0..{k} and every other vertex children 0..{k - 1}"
            )
        key = tuple(map(id, vec))
        if key not in checked:
            checked[key] = out._checked(vec, render_address(a) or "root")
        level = out._table.setdefault(len(a), {})
        if a in level:  # an earlier address named this vertex: find which
            first = next(x for x in doc if parse_address(x) == a)
            raise ValueError(f"field addresses {first!r} and {address!r} both name vertex "
                             f"{render_address(a)!r}")
        level[a] = checked[key]
    return out
