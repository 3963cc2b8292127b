import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import (
    ball_vertices,
    ball_with_edges,
    coupling_for_edge,
    edge_residues,
    exp_domain_fraction,
    field_at,
    level_start,
    messages,
    site_exponentials,
    site_residues,
    spin_pairing,
    theta_for_edge,
    weight,
    weights,
    zero_field_partitions,
)

from padic_potts.cayley_tree import TreeShape, parse_address, render_address
from padic_potts.errors import (
    DomainViolation,
    EnumerationTooLarge,
    PadicError,
    PartitionFunctionDegenerate,
    PrecisionExhausted,
)
from padic_potts.gibbs_solver import recursion_backward
from padic_potts.padic_analytic import exp_domain_min_valuation, exp_p
from padic_potts.padic_core import PadicNumber, _vp, as_prime, rational_valuation
from padic_potts import potts_model
from padic_potts.potts_model import (
    COMPAT_MARGIN,
    MODULUS_HEADROOM,
    BoundaryField,
    CompatibilityReport,
    CouplingField,
    boundary_field_from_json,
    compatibility_check,
    coupling_from_json,
    finite_measure,
    measure_norm_profile,
    _LevelWeights,
    _partition_valuation,
    _residue_quotient,
    _shift_hint,
)

P = 3
N = 32


def vec(values, p=P, n=N):
    return tuple(PadicNumber.from_fraction(Fraction(v), p, n) for v in values)


class TestSpinPairing:
    def test_low_labels_pick_components(self):
        h = vec([5 * 3, 7 * 3])
        assert spin_pairing(h, 1) == h[0]
        assert spin_pairing(h, 2) == h[1]

    def test_last_label_sums(self):
        h = vec([5 * 3, 7 * 3])
        assert spin_pairing(h, 3) == h[0] + h[1]

    def test_zero_field(self):
        h = vec([0, 0])
        for s in (1, 2, 3):
            assert spin_pairing(h, s).is_zero

    def test_label_range_enforced(self):
        h = vec([3, 3])
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                spin_pairing(h, bad)


def hamiltonian(shape, cfg, J, n, precision):
    """Minus the coupling sum over agreeing edges of the n-ball, exactly."""
    vertices, pairs = ball_with_edges(shape, n)
    total = Fraction(0)
    for i, j in pairs:
        if cfg[vertices[i]] == cfg[vertices[j]]:
            total += coupling_for_edge(J, vertices[j])
    return PadicNumber.from_fraction(-total, J.prime, precision)


def _resolved_weights(shape, h, J, n, precision):
    """finite_measure's weight system with its partition residue and
    valuation: the pass at twice the standard estimate of zeta past
    ``precision``, widened once to 2*zeta when B - 2*zeta falls short."""
    extra = 2 * _shift_hint(shape, J, n)
    for _ in range(2):
        system = weights(shape, h, J, n, precision + extra)
        z_res = system.partition_residue()
        zeta = _partition_valuation(z_res, system)
        if system.modulus_exponent - 2 * zeta >= precision:
            break
        extra = 2 * zeta
    return system, z_res, zeta


def finite_measure_table(shape, h, J, n, precision):
    """Every configuration of the n-ball with its measure: all q**|B_n| of
    them, over the partition sum of one tree pass."""
    system, z_res, zeta = _resolved_weights(shape, h, J, n, precision)
    return [
        (cfg, _residue_quotient(weight(system, cfg), z_res, zeta, system))
        for cfg in itertools.product(range(1, system.q + 1), repeat=len(ball_vertices(system)))
    ]


class TestHamiltonian:
    def test_constant_configuration_counts_every_edge(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        cfg = {v: 1 for v in ball_with_edges(shape, 1)[0]}
        got = hamiltonian(shape, cfg, J, 1, N)
        assert got == PadicNumber.from_fraction(Fraction(-9), P, N)  # -3J, J=3

    def test_all_distinct_vanishes(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(5), 5, 5)
        spins = {}
        for i, v in enumerate(ball_with_edges(shape, 1)[0]):
            spins[v] = i + 1  # 4 vertices, labels 1..4, never equal on an edge
        assert hamiltonian(shape, spins, J, 1, N).is_zero

    def test_recount_oracle(self, rng):
        shape = TreeShape(2)
        J = CouplingField.bipartite(Fraction(3), Fraction(9, 2), P, 3)
        for _ in range(25):
            vertices = ball_with_edges(shape, 2)[0]
            spins = {v: rng.randrange(1, 4) for v in vertices}
            total = Fraction(0)
            for child in vertices[1:]:
                if spins[child[:-1]] == spins[child]:
                    total -= coupling_for_edge(J, child)
            got = hamiltonian(shape, spins, J, 2, N)
            if total == 0:
                assert got.is_zero
            else:
                assert got == PadicNumber.from_fraction(total, P, N)

    def test_exponent_stays_in_domain(self, rng):
        # the exp argument of every weight must be admissible
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        for _ in range(10):
            spins = {v: rng.randrange(1, 4) for v in ball_with_edges(shape, 1)[0]}
            h = hamiltonian(shape, spins, J, 1, N)
            assert h.is_zero or h.norm_valuation() >= 1


    @pytest.mark.parametrize("pattern", ("homogeneous", "bipartite", "per_edge"))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_zero_field_weight_is_exp_of_minus_hamiltonian(self, k, pattern):
        # every site factor of the zero field is exp(0) = 1, so a weight is
        # the product of theta over the agreeing edges: exp(-H) mod p**B
        rng = random.Random(f"weight-{k}-{pattern}")
        shape = TreeShape(k)
        for p, q in ((2, 2), (3, 3), (5, 2), (3, 4)):
            for n in (0, 1, 2):
                J = _coupling(pattern, shape, n, q, p, rng)
                system = weights(shape, BoundaryField.zero(q, p), J, n, N)
                B = system.modulus_exponent
                for _ in range(4):
                    cfg = tuple(rng.randrange(1, q + 1) for _ in ball_vertices(system))
                    H = hamiltonian(shape, dict(zip(ball_vertices(system), cfg)), J, n, N)
                    assert weight(system, cfg) == exp_p(-H, precision=B).residue(B)


class TestFiniteMeasure:
    def test_sum_is_one(self):
        for k, q, n, p in [(1, 3, 1, 3), (2, 2, 1, 3), (1, 2, 2, 2), (1, 4, 1, 2), (3, 3, 1, 5)]:
            shape = TreeShape(k)
            J = CouplingField.homogeneous(Fraction(p ** exp_domain_min_valuation(p)), p, q)
            h = BoundaryField.zero(q, p)
            table = finite_measure_table(shape, h, J, n, N)
            assert len(table) == q ** shape.ball_size(n)
            total = table[0][1]
            for _, m in table[1:]:
                total = total + m
            assert total == PadicNumber.from_fraction(Fraction(1), p, total.precision)

    def test_weight_ratios_follow_agreement_count(self):
        # on the 3-vertex line with h = 0 the measure ratio of two
        # configurations is theta^(difference in agreeing edges)
        shape = TreeShape(1)
        J = CouplingField.homogeneous(Fraction(3), P, 2)
        h = BoundaryField.zero(2, P)
        theta = theta_for_edge(J, (0,), N)
        verts = ball_with_edges(shape, 1)[0]
        all_same = {v: 1 for v in verts}
        spins = {v: 1 for v in verts}
        spins[verts[-1]] = 2
        one_off = spins
        mu_same = finite_measure(shape, all_same, h, J, 1, N)
        mu_off = finite_measure(shape, one_off, h, J, 1, N)
        ratio = mu_same / mu_off
        assert ratio.distance_valuation(theta) >= 25

    def test_spin_permutation_equivariance(self):
        # swapping labels 1 and 2 in configurations and in the first two
        # field components fixes every measure value
        shape = TreeShape(1)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        h_vec = vec([3, 9])
        swapped_vec = vec([9, 3])
        h = BoundaryField.constant(h_vec)
        h_swapped = BoundaryField.constant(swapped_vec)
        swap = {1: 2, 2: 1, 3: 3}
        for spins in itertools.product((1, 2, 3), repeat=3):
            verts = ball_with_edges(shape, 1)[0]
            cfg = dict(zip(verts, spins))
            cfg_swapped = dict(zip(verts, (swap[s] for s in spins)))
            a = finite_measure(shape, cfg, h, J, 1, N)
            b = finite_measure(shape, cfg_swapped, h_swapped, J, 1, N)
            assert a == b

    @pytest.mark.parametrize("bad", [0, -1, 4, 2.0, True, "1", None])
    def test_spin_label_outside_one_to_q_is_refused(self, bad):
        # read as a site-table index s - 1, 0 and -1 would wrap around to
        # spins 3 and 2, 4 would overrun the table and 2.0 fail as an index
        shape = TreeShape(1)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        h = BoundaryField.constant(vec([3, Fraction(9, 2)]))
        cfg = {(): 1, (0,): 2, (1,): bad}
        with pytest.raises(ValueError) as err:
            finite_measure(shape, cfg, h, J, 1, N)
        assert str(err.value) == f"spin {bad!r} at vertex '1' is not a label in 1..3"

    def test_measure_values_unit_norm_when_q_unit(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 2)
        h = BoundaryField.zero(2, P)
        for _, m in finite_measure_table(shape, h, J, 1, N):
            assert m.norm_valuation() == 0


def _sum_quotient(w_res, z_res, zeta, prime, B):
    """w / Z built through a Fraction and the public constructor: the
    construction ``_residue_quotient`` replaced, kept as its oracle."""
    p = prime.value
    known = B - 2 * zeta
    inv = pow(z_res // p**zeta, -1, p ** (B - zeta))
    value = Fraction(w_res * inv % p ** (B - zeta), p**zeta)
    v = rational_valuation(value, prime)
    n_rel = max(1, known - v)
    return PadicNumber(value, prime, n_rel, known_abs=known)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_residue_quotient_matches_the_fraction_construction(p):
    """The quotient in capped-relative form equals the Fraction-built one in
    value, bound and precision, and raises with the same bound, for every
    partition valuation zeta below the modulus exponent B."""
    rng, prime = random.Random(f"residue-quotient-{p}"), as_prime(p)

    def unit(r):
        u = rng.randrange(1, p**r)
        return u if u % p else u + 1

    outcomes = Counter()
    for B in (1, 2, 3, 8, 21, 40):
        system = SimpleNamespace(prime=prime, modulus_exponent=B)
        for zeta in range(B):
            z_res = p**zeta * unit(B - zeta) % p**B
            for j in (0, 0, 1, zeta, B - zeta - 1, B - 1, B, None):
                w_res = 0 if j is None else p**j * unit(B) % p**B
                try:
                    want = _sum_quotient(w_res, z_res, zeta, prime, B)
                except PrecisionExhausted as raised:
                    with pytest.raises(PrecisionExhausted) as got:
                        _residue_quotient(w_res, z_res, zeta, system)
                    assert got.value.bound == raised.bound
                    outcomes["raised"] += 1
                    continue
                got = _residue_quotient(w_res, z_res, zeta, system)
                assert (got._key(), got.precision) == (want._key(), want.precision)
                outcomes["equal"] += 1
    assert outcomes["raised"] > 100 and outcomes["equal"] > 300


# Brute force over every configuration: the oracle for the tree pass.
ORACLE_LIMIT = 10**5


def _oracle_sizes():
    """Every (k, q, n) whose ball has at most ORACLE_LIMIT configurations."""
    for k in (1, 2, 3):
        for q in (2, 3, 4, 5):
            n = 0
            while q ** TreeShape(k).ball_size(n) <= ORACLE_LIMIT:
                yield k, q, n
                n += 1


def _field(kind, shape, n, q, p, rng, spread=3):
    def draw():
        return tuple(
            PadicNumber.from_fraction(exp_domain_fraction(rng, p, spread), p, N)
            for _ in range(q - 1)
        )

    if kind == "zero":
        return BoundaryField.zero(q, p)
    if kind == "constant":
        return BoundaryField.constant(draw())
    if kind == "parity":
        return BoundaryField.by_parity(draw(), draw())
    return BoundaryField(q, p, {x: draw() for x in ball_with_edges(shape, n)[0]})


def _brute_sums(system, inner_count):
    """Sums of ``weight`` over every configuration, one per spin assignment
    of the first ``inner_count`` vertices (so one sum in all when it is 0)."""
    spins = range(1, system.q + 1)
    tails = list(itertools.product(spins, repeat=len(ball_vertices(system)) - inner_count))
    return [
        sum(weight(system, head + tail) for tail in tails) % system.modulus
        for head in itertools.product(spins, repeat=inner_count)
    ]


@pytest.mark.parametrize("field_kind", ("zero", "constant", "parity", "random"))
@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("k,q,n", list(_oracle_sizes()))
def test_tree_pass_matches_brute_force(k, q, n, p, field_kind):
    # the partition residue, and the marginals compatibility_check forms from
    # the messages folded onto the (n-1)-sphere, equal the configuration sums
    rng = random.Random(f"{k}-{q}-{n}-{p}-{field_kind}")
    shape = TreeShape(k)
    J = CouplingField.bipartite(exp_domain_fraction(rng, p), exp_domain_fraction(rng, p), p, q)
    h = _field(field_kind, shape, n, q, p, rng)
    outer = weights(shape, h, J, n, N)
    if n == 0:
        assert outer.partition_residue() == _brute_sums(outer, 0)[0]
        return
    inner = weights(shape, h, J, n - 1, N)
    brute = _brute_sums(outer, len(ball_vertices(inner)))
    assert outer.partition_residue() == sum(brute) % outer.modulus
    M = p ** min(outer.modulus_exponent, inner.modulus_exponent)
    folded = messages(outer, n - 1)
    spins = range(1, q + 1)
    tree = [
        weight(inner, cfg, folded) % M
        for cfg in itertools.product(spins, repeat=len(ball_vertices(inner)))
    ]
    assert tree == [m % M for m in brute]


def _per_vertex_levels(system, h, J, shape, n, work):
    """Every level's messages by the plain per-vertex fold, one row per
    vertex, from theta and site residues read edge by edge and vertex by
    vertex: the oracle for the tree pass, which folds one row per signature."""
    B, M, q = system.modulus_exponent, system.modulus, system.q
    vertices, pairs = ball_with_edges(shape, n)
    thetas = [theta_for_edge(J, vertices[j], work).residue(B) for _, j in pairs]
    msgs = [[w.residue(B) for w in site_exponentials(h, x, work)]
            for x in vertices[level_start(shape, n):]]
    levels = {n: msgs}
    for m in range(n, 0, -1):
        step = shape.successor_count(m - 1)
        first = level_start(shape, m) - 1  # the edge into level m's first vertex
        folded = [[1] * q for _ in range(len(msgs) // step)]
        for o, child in enumerate(msgs):
            t, total, a = thetas[first + o] - 1, sum(child), o // step
            folded[a] = [f * (total + t * c) % M for f, c in zip(folded[a], child)]
        msgs = levels[m - 1] = folded
    return levels


def _pooled_per_edge(shape, n, q, p, rng):
    """A per-edge table of two values, the second on about one edge in ten."""
    pool = [exp_domain_fraction(rng, p) for _ in range(2)]
    vertices, pairs = ball_with_edges(shape, n)
    table = {vertices[j]: pool[rng.random() < 0.1] for _, j in pairs}
    return CouplingField.per_edge(table, p, q)


# every ball of k = 1..3 up to n = 10 that the per-vertex oracle affords
COLLAPSE_SIZES = [(k, n) for k in (1, 2, 3) for n in range(11)
                  if TreeShape(k).ball_size(n) <= 3100]


@pytest.mark.parametrize("coupling_kind", ("homogeneous", "bipartite", "per_edge", "pooled"))
@pytest.mark.parametrize("k,n", COLLAPSE_SIZES)
def test_collapsed_pass_matches_the_per_vertex_fold(k, n, coupling_kind):
    # the partition residue and the messages at every level, under zero,
    # constant and parity fields (one row per level), a sparse one (one
    # sphere entry off its parity pair) and a random one (a row per vertex)
    shape = TreeShape(k)
    for i, field_kind in enumerate(("zero", "constant", "parity", "sparse", "random")):
        p, q = ((3, 3), (2, 2), (5, 3), (3, 2), (2, 3))[(i + k + n) % 5]
        rng = random.Random(f"collapse-{k}-{n}-{coupling_kind}-{field_kind}")
        if coupling_kind == "pooled":
            J = _pooled_per_edge(shape, n, q, p, rng)
        else:
            J = _coupling(coupling_kind, shape, n, q, p, rng)
        h = _field("parity" if field_kind == "sparse" else field_kind, shape, n, q, p, rng)
        if field_kind == "sparse":
            sphere = ball_with_edges(shape, n)[0][level_start(shape, n):]
            h.assign(rng.choice(sphere), tuple(
                PadicNumber.from_fraction(exp_domain_fraction(rng, p), p, N) for _ in range(q - 1)))
        system = weights(shape, h, J, n, N)
        levels = _per_vertex_levels(system, h, J, shape, n, N)
        assert system.partition_residue() == sum(levels[0][0]) % system.modulus
        for m in range(n + 1):
            assert messages(system, m) == dict(enumerate(levels[m], level_start(shape, m)))


def _inexact_field(shape, n, q, p, rng):
    """A parity field of inexact entries, every third vertex of the ball
    given its own: each equal in value to an exact draw, copied the way
    ``TestSiteTableCache`` copies them."""
    def draw(known_abs):
        return tuple(
            PadicNumber(exp_domain_fraction(rng, p), p, N + 7, known_abs) for _ in range(q - 1)
        )

    h = BoundaryField.by_parity(draw(N - 2), draw(N - 1))
    for i, x in enumerate(ball_with_edges(shape, n)[0]):
        if i % 3 == 0:
            h.assign(x, draw(N - 2 - i % 2))
    return h


@pytest.mark.parametrize("field_kind", ("zero", "constant", "parity", "random", "inexact"))
@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("k,q,n", list(_oracle_sizes()))
def test_weights_are_units_and_profile_rows_are_minus_the_partition_valuation(
    k, q, n, p, field_kind
):
    # admissible couplings and fields give edge and site residues = 1 mod p,
    # which measure_norm_profile relies on: each level's valuation is then
    # minus the valuation of the brute-force partition sum
    rng = random.Random(f"units-{k}-{q}-{n}-{p}-{field_kind}")
    shape = TreeShape(k)
    J = CouplingField.bipartite(exp_domain_fraction(rng, p), exp_domain_fraction(rng, p), p, q)
    if field_kind == "inexact":
        h = _inexact_field(shape, n, q, p, rng)
    else:
        h = _field(field_kind, shape, n, q, p, rng)
    profile = measure_norm_profile(shape, h, J, n, N)
    assert len(profile) == n + 1
    for m, valuation in enumerate(profile):
        system = _resolved_weights(shape, h, J, m, N)[0]
        assert all(th % p == 1 for _, _, th in edge_residues(system))
        assert all(w % p == 1 for table in site_residues(system).values() for w in table)
        zeta = _vp(_brute_sums(system, 0)[0], p)
        assert valuation == -zeta


def _coupling(kind, shape, n, q, p, rng):
    if kind == "homogeneous":
        return CouplingField.homogeneous(exp_domain_fraction(rng, p), p, q)
    if kind == "bipartite":
        return CouplingField.bipartite(
            exp_domain_fraction(rng, p), exp_domain_fraction(rng, p), p, q
        )
    vertices, pairs = ball_with_edges(shape, n)
    table = {vertices[j]: exp_domain_fraction(rng, p) for _, j in pairs}
    return CouplingField.per_edge(table, p, q)


def _brute_compatibility(shape, h, J, n, precision):
    """compatibility_check with the worst discrepancy taken over every
    configuration of the (n-1)-ball instead of the one-spin changes of a base."""
    p = J.prime.value
    q = J.q
    threshold = precision - COMPAT_MARGIN
    extra = _shift_hint(shape, J, n) + _shift_hint(shape, J, n - 1)

    def _zeta(residue: int) -> int:
        if residue == 0:
            raise PartitionFunctionDegenerate(
                f"partition sum vanishes mod {p}**{B}; "
                "its valuation cannot be resolved at this precision"
            )
        return _vp(residue, p)

    for _ in range(2):
        outer = weights(shape, h, J, n, precision + extra)
        inner = weights(shape, h, J, n - 1, precision + extra)
        B = min(outer.modulus_exponent, inner.modulus_exponent)
        M = p**B
        z_outer = outer.partition_residue() % M
        z_inner = inner.partition_residue() % M
        shift = _zeta(z_outer) + _zeta(z_inner)
        if B - shift >= threshold:
            break
        extra = shift
    else:
        raise PrecisionExhausted(
            f"working modulus {p}**{B} cannot certify discrepancies to valuation "
            f"{threshold} past the partition valuations",
            bound=B - shift,
        )

    folded = messages(outer, n - 1)
    worst = None
    resolved_worst = True
    for cfg in itertools.product(range(1, q + 1), repeat=len(ball_vertices(inner))):
        diff = (weight(inner, cfg, folded) * z_inner - weight(inner, cfg) * z_outer) % M
        val = (B if diff == 0 else _vp(diff, p)) - shift
        if worst is None or val < worst:
            worst, resolved_worst = val, diff != 0
    return CompatibilityReport(
        holds=worst >= threshold,
        max_discrepancy_valuation=worst,
        threshold=threshold,
        resolved=resolved_worst,
        terms_enumerated=q ** len(ball_vertices(outer)),
    )


def _compat_outcomes(shape, h, J, n, precision=N):
    def outcome(check):
        try:
            return check(shape, h, J, n, precision)
        except PadicError as err:
            return type(err), str(err)

    return outcome(compatibility_check), outcome(_brute_compatibility)


FIELD_KINDS = ("zero", "constant", "parity", "random")
# every coupling pattern at every prime, and every field kind at every size;
# the sizes are those whose (n-1)-ball the brute force can afford
COMPAT_CASES = [
    (p, coupling, FIELD_KINDS[(i + j) % len(FIELD_KINDS)])
    for i, p in enumerate((2, 3, 5))
    for j, coupling in enumerate(("homogeneous", "bipartite", "per_edge"))
]


@pytest.mark.parametrize("p,coupling_kind,field_kind", COMPAT_CASES)
@pytest.mark.parametrize("k,q,n", [(k, q, n + 1) for k, q, n in _oracle_sizes()])
def test_compatibility_matches_brute_force(k, q, n, p, coupling_kind, field_kind):
    rng = random.Random(f"compat-{k}-{q}-{n}-{p}-{coupling_kind}-{field_kind}")
    shape = TreeShape(k)
    J = _coupling(coupling_kind, shape, n, q, p, rng)
    h = _field(field_kind, shape, n, q, p, rng)
    fast, brute = _compat_outcomes(shape, h, J, n)
    assert fast == brute


@pytest.mark.parametrize("case", range(100))
@pytest.mark.parametrize("p,q", [(5, 5), (3, 6)])
def test_compatibility_base_spins_at_p_dividing_q(p, q, case):
    # random fields of valuation 1-2 under a coupling of valuation 1, where
    # the spin of least valuation varies between sphere vertices: a base
    # fixed at spin 1 instead of that spin fails cases 0, 37 and 43 at (3, 6)
    rng = random.Random(f"{p}-{q}-{case}")
    shape = TreeShape(3)
    J = CouplingField.homogeneous(exp_domain_fraction(rng, p, 1), p, q)
    h = _field("random", shape, 2, q, p, rng, spread=2)
    fast, brute = _compat_outcomes(shape, h, J, 2, precision=16)
    assert fast == brute


class TestCompatibility:
    def test_zero_field_holds_n1(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        rep = compatibility_check(shape, BoundaryField.zero(3, P), J, 1, N)
        assert rep.holds
        assert rep.max_discrepancy_valuation >= rep.threshold

    def test_zero_field_holds_n2_full_budget(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        rep = compatibility_check(shape, BoundaryField.zero(3, P), J, 2, N)
        assert rep.holds
        assert rep.terms_enumerated < 10**5

    def test_alternating_field_fails_on_the_line(self):
        shape = TreeShape(1)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        even = vec([3, 0])
        odd = vec([0, 0])
        field = BoundaryField.by_parity(even, odd)
        for n, worst in ((1, -3), (2, -3)):
            rep = compatibility_check(shape, field, J, n, N)
            assert not rep.holds
            assert rep.resolved
            assert int(rep.max_discrepancy_valuation) == worst

    def test_two_state_parity_field_is_gauge(self):
        # with two states the pairing gives both spins the same exponent
        # shift, so any parity field cancels in the normalized measure
        shape = TreeShape(1)
        J = CouplingField.homogeneous(Fraction(3), P, 2)
        even = vec([3])
        odd = vec([0])
        field = BoundaryField.by_parity(even, odd)
        for n in (1, 2):
            rep = compatibility_check(shape, field, J, n, N)
            assert rep.holds

    def test_field_over_another_prime_is_refused(self):
        # at the parent this returned a resolved holds=False at valuation 1
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        field = BoundaryField.constant(vec([5, 0], p=5))
        with pytest.raises(ValueError, match="does not match the coupling"):
            compatibility_check(shape, field, J, 2, N)

    def test_field_with_another_q_is_refused(self):
        # at the parent compat returned holds=False at -6 and the profile rows
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        field = BoundaryField.constant(vec([3, 0, 0]))
        for run in (compatibility_check, measure_norm_profile):
            with pytest.raises(ValueError, match="does not match the coupling"):
                run(shape, field, J, 2, N)

    def test_guard_triggers(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        with pytest.raises(EnumerationTooLarge):
            compatibility_check(shape, BoundaryField.zero(3, P), J, 5, N)

    def test_depth_zero_is_refused(self):
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        with pytest.raises(ValueError, match=r"^compatibility needs n >= 1$"):
            compatibility_check(TreeShape(2), BoundaryField.zero(3, P), J, 0, N)

    def test_a_clamped_modulus_that_widening_cannot_lift_is_exhausted(self):
        # a field component known to 3**10 clamps B at 10, short of the
        # threshold 28 past the partition valuations, and no wider pass lifts it
        J = CouplingField.homogeneous(Fraction(3), P, 2)
        h = BoundaryField.constant((PadicNumber(3, P, N, known_abs=10),))
        with pytest.raises(PrecisionExhausted) as err:
            compatibility_check(TreeShape(2), h, J, 2, N)
        assert str(err.value) == ("working modulus 3**10 cannot certify discrepancies to "
                                  "valuation 28 past the partition valuations")
        assert err.value.bound == 10


@pytest.mark.parametrize("routine", ("finite_measure", "measure_norm_profile",
                                     "compatibility_check"))
def test_a_vanishing_partition_residue_is_refused_with_one_message(routine):
    # a field component known to 2 digits clamps B to 2, and the 1-ball's
    # partition sum at p = q = 3 vanishes mod 3**2
    shape, n = TreeShape(2), 1
    J = CouplingField.homogeneous(Fraction(3), P, 3)
    h = BoundaryField.constant((PadicNumber(3, P, N, known_abs=2), PadicNumber.zero(P)))
    cfg = {x: 1 for x in ball_with_edges(shape, n)[0]}
    run = {
        "finite_measure": lambda: finite_measure(shape, cfg, h, J, n, N),
        "measure_norm_profile": lambda: measure_norm_profile(shape, h, J, n, N),
        "compatibility_check": lambda: compatibility_check(shape, h, J, n, N),
    }[routine]
    with pytest.raises(PartitionFunctionDegenerate) as err:
        run()
    assert str(err.value) == ("partition sum vanishes mod 3**2; its valuation cannot be "
                              "resolved at this precision")


@pytest.mark.parametrize("routine", ("finite_measure", "compatibility_check"))
def test_a_clamped_modulus_is_built_once(routine, monkeypatch):
    # a field component known to 3**10 holds B at 10 at any digits, so a
    # wider pass would build the same weights again
    shape, n = TreeShape(2), 2
    J = CouplingField.homogeneous(Fraction(3), P, 2)
    h = BoundaryField.constant((PadicNumber(3, P, N, known_abs=10),))
    built = _counting_builds(monkeypatch)
    if routine == "finite_measure":
        cfg = {x: 1 + i % 2 for i, x in enumerate(ball_with_edges(shape, n)[0])}
        got = finite_measure(shape, cfg, h, J, n, N)
        assert (got.residue(10), got.known_abs, got.precision) == (12436, 10, 10)
    else:
        with pytest.raises(PrecisionExhausted) as err:
            compatibility_check(shape, h, J, n, N)
        assert err.value.bound == 10
    assert len(built) == 1


class TestNormProfile:
    def test_two_states_stay_bounded(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 2)
        assert measure_norm_profile(shape, BoundaryField.zero(2, P), J, 2, N) == [0, 0, 0]

    def test_three_states_blow_up(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        assert measure_norm_profile(shape, BoundaryField.zero(3, P), J, 2, N) == [-1, -4, -10]

    def test_one_pass_per_level_where_the_measure_widens(self, monkeypatch):
        # J = 6 at p = q = 3: finite_measure widens at every level from 1 on,
        # but a nonzero residue's valuation is exact, so the profile does not
        shape, n = TreeShape(1), 5
        J = CouplingField.homogeneous(Fraction(6), P, 3)
        h = BoundaryField.zero(3, P)
        want = [-_resolved_weights(shape, h, J, m, N)[2] for m in range(n + 1)]
        built = _counting_builds(monkeypatch)
        profile = measure_norm_profile(shape, h, J, n, N)
        assert len(built) == n + 1
        assert profile == want
        assert want == [-1, -5, -9, -13, -17, -21]

    def test_single_level_profile(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        assert measure_norm_profile(shape, BoundaryField.zero(3, P), J, 0, N) == [-1]


# Depth oracles: the zero field's partition sums in closed form
# (``zero_field_partitions``) against the tree pass, at depths no brute
# force reaches.


def _drawn_coupling(pattern, shape, n, p, q, rng):
    """A coupling of ``pattern`` whose values are drawn from p, 2p, p**2,
    p/2 and -p, one per edge of the n-ball for a per-edge table."""
    values = [Fraction(p), Fraction(2 * p), Fraction(p * p), Fraction(p, 2), Fraction(-p)]
    if pattern == "homogeneous":
        return CouplingField.homogeneous(rng.choice(values), p, q)
    if pattern == "bipartite":
        return CouplingField.bipartite(rng.choice(values), rng.choice(values), p, q)
    vertices, pairs = ball_with_edges(shape, n)
    return CouplingField.per_edge(
        {vertices[j]: rng.choice(values) for _, j in pairs}, p, q)


@pytest.mark.parametrize("pattern", ("homogeneous", "bipartite", "per_edge"))
@pytest.mark.parametrize("p,q", [(p, q) for p in (3, 5) for q in (p, 2 * p, p * p, 2, 4)])
@pytest.mark.parametrize("k", (1, 2, 3))
def test_zero_field_partition_sums_follow_the_closed_form_at_depth(k, p, q, pattern):
    # every level's partition residue mod p**B, and the profile's rows, are
    # those of Z_m = q * prod (theta_e + q - 1); where v(Z_m) reaches the
    # one pass's B the profile refuses that level rather than widen.  Depth
    # 10 at k = 2 where p | q, except that a per-edge table (a row per vertex
    # over thousands of digits) would take minutes there, so it stops at 6
    n = {1: 8, 2: 10 if q % p == 0 and pattern != "per_edge" else 6, 3: 4}[k]
    rng = random.Random(f"depth-{k}-{p}-{q}-{pattern}")
    shape = TreeShape(k)
    J = _drawn_coupling(pattern, shape, n, p, q, rng)
    h = BoundaryField.zero(q, p)
    Z = zero_field_partitions(shape, J, n, N + 2 * _shift_hint(shape, J, n))
    resolved = []
    for m, z in enumerate(Z):
        system = weights(shape, h, J, m, N + 2 * _shift_hint(shape, J, m))  # the profile's pass
        B = system.modulus_exponent
        assert system.partition_residue() == z.residue(B)
        resolved.append(z.norm_valuation() < B)
    depth = resolved.index(False) if False in resolved else n + 1
    profile = measure_norm_profile(shape, h, J, depth - 1, N)
    assert profile == [-z.norm_valuation() for z in Z[:depth]]
    if depth <= n:
        with pytest.raises(PartitionFunctionDegenerate):
            measure_norm_profile(shape, h, J, depth, N)


@pytest.mark.parametrize("pattern", ("homogeneous", "bipartite", "per_edge"))
@pytest.mark.parametrize("p,q", ((3, 3), (3, 2), (5, 10)))
@pytest.mark.parametrize("k,n", ((1, 3), (2, 2), (3, 1)))
def test_finite_measure_of_the_zero_field_follows_the_closed_form(k, n, p, q, pattern):
    # the weight of a configuration is the product of theta_e over its
    # agreeing edges, so its measure is that product over Z_n
    rng = random.Random(f"measure-{k}-{n}-{p}-{q}-{pattern}")
    shape = TreeShape(k)
    J = _drawn_coupling(pattern, shape, n, p, q, rng)
    h = BoundaryField.zero(q, p)
    digits = N + 4 * _shift_hint(shape, J, n) + 8
    Z = zero_field_partitions(shape, J, n, digits)[n]
    vertices, edges = ball_with_edges(shape, n)
    for _ in range(5):
        cfg = {x: rng.randrange(1, q + 1) for x in vertices}
        w = PadicNumber.one(p, digits)
        for i, j in edges:
            if cfg[vertices[i]] == cfg[vertices[j]]:
                w = w * theta_for_edge(J, vertices[j], digits)
        want, got = w / Z, finite_measure(shape, cfg, h, J, n, N)
        assert want.known_abs >= got.known_abs
        assert got.distance_valuation(want) >= got.known_abs


class _CountingTable(dict):
    """A per-edge table, by child address, that counts every read of an
    edge by its child's address."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = Counter()

    def __getitem__(self, child):
        self.reads[child] += 1
        return super().__getitem__(child)


def _counting_lookups(J):
    """Install a counting copy of J's per-edge table as its values; return
    the count of reads."""
    J.values = _CountingTable(J.values)
    return J.values.reads


def _counting_builds(monkeypatch):
    """Count every weight system built from here on; return the list of them."""
    built = []
    init = _LevelWeights.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_LevelWeights, "__init__", counted_init)
    return built


def _every_edge(shape, n, value):
    vertices, pairs = ball_with_edges(shape, n)
    return {vertices[j]: value for _, j in pairs}


class TestCouplingsReadOnce:
    # a computation reads each edge of its largest ball once, however many
    # balls share the read

    @pytest.mark.parametrize("k,n", [(1, 6), (2, 4)])
    def test_norm_profile_reads_each_edge_once(self, k, n):
        shape = TreeShape(k)
        table = _every_edge(shape, n, Fraction(3))
        J = CouplingField.per_edge(table, P, 2)
        lookups = _counting_lookups(J)
        profile = measure_norm_profile(shape, BoundaryField.zero(2, P), J, n, N)
        assert len(profile) == n + 1
        assert lookups == Counter(table.keys())

    def test_compatibility_reads_each_edge_once_when_it_widens(self, monkeypatch):
        # J = 6 has unit residue -1 at p = 3, q = 3: the partition valuations
        # outgrow the estimate, so the check builds its weights twice
        shape, n = TreeShape(1), 5
        table = _every_edge(shape, n, Fraction(6))
        J = CouplingField.per_edge(table, P, 3)
        built = _counting_builds(monkeypatch)
        lookups = _counting_lookups(J)
        rep = compatibility_check(shape, BoundaryField.zero(3, P), J, n, N)
        assert rep.holds
        assert len(built) == 2
        assert lookups == Counter(table.keys())

    def test_finite_measure_reads_each_edge_once_when_it_widens(self, monkeypatch):
        # the same table: Z's valuation outgrows twice the estimate, so the
        # measure widens its pass once, over the couplings it read once
        shape, n = TreeShape(1), 5
        table = _every_edge(shape, n, Fraction(6))
        J = CouplingField.per_edge(table, P, 3)
        built = _counting_builds(monkeypatch)
        lookups = _counting_lookups(J)
        cfg = {x: 1 for x in ball_with_edges(shape, n)[0]}
        got = finite_measure(shape, cfg, BoundaryField.zero(3, P), J, n, N)
        assert len(built) == 2
        assert lookups == Counter(table.keys())
        assert got.norm_valuation() == -21 and got.known_abs >= N  # B - 2*zeta >= N

    @pytest.mark.parametrize("off_disk", [False, True], ids=["in the regime", "off the disk"])
    def test_recursion_reads_each_edge_once(self, off_disk):
        # a sphere law off the disk (z - 1 a unit) sends the recursion from
        # the integer fold to the object fold, which reads no coupling again
        shape, n = TreeShape(2), 3
        vertices, pairs = ball_with_edges(shape, n)
        table = {vertices[j]: Fraction(3 * (1 + e % 3)) for e, (_, j) in enumerate(pairs)}
        J = CouplingField.per_edge(table, P, 2)
        leaves = vertices[shape.ball_size(n - 1):]
        laws = {x: (PadicNumber(1 + 3 * (i + 1), P),) for i, x in enumerate(leaves)}
        if off_disk:
            laws[leaves[4]] = (PadicNumber(2, P),)
        lookups = _counting_lookups(J)
        got = recursion_backward(shape, laws, J, n, N)
        assert (got.per_level_offset[-1] == 0) == off_disk
        assert lookups == Counter(table.keys())


class TestCouplingField:
    def test_admissibility_enforced(self):
        with pytest.raises(DomainViolation):
            CouplingField.homogeneous(Fraction(1), P, 3)  # valuation 0
        with pytest.raises(DomainViolation):
            CouplingField.homogeneous(Fraction(2), 2, 4)  # p=2 needs >= 2

    def test_admissibility_checked_once_per_distinct_value(self, monkeypatch):
        checked = []
        check = potts_model._check_coupling_admissible
        monkeypatch.setattr(potts_model, "_check_coupling_admissible",
                            lambda value, p: checked.append(value) or check(value, p))
        values = [Fraction(3), Fraction(6), Fraction(3), Fraction(1, 2), Fraction(6), Fraction(1)]
        table = {(i,): v for i, v in enumerate(values)}
        with pytest.raises(DomainViolation, match=r"^coupling 1/2 has valuation 0 "):
            CouplingField.per_edge(table, P, 3)  # the first inadmissible value in table order
        assert checked == [3, 6, Fraction(1, 2)]
        checked.clear()
        CouplingField.per_edge(dict(list(table.items())[:3]), P, 3)
        assert checked == [3, 6]

    def test_bipartite_names_its_first_inadmissible_value(self):
        with pytest.raises(DomainViolation, match=r"^coupling 1 has valuation 0 "):
            CouplingField.bipartite(Fraction(1), Fraction(2), P, 3)
        with pytest.raises(DomainViolation, match=r"^coupling 2 has valuation 0 "):
            CouplingField.bipartite(Fraction(3), Fraction(2), P, 3)

    def test_one_spin_state_is_refused(self):
        with pytest.raises(ValueError, match=r"^need at least two spin states, got q=1$"):
            CouplingField.homogeneous(Fraction(3), P, 1)

    def test_unknown_pattern_is_refused(self):
        with pytest.raises(ValueError, match=r"^unknown coupling pattern 'nope'$"):
            CouplingField("nope", P, 3, {})

    def test_zero_coupling_allowed(self):
        J = CouplingField.homogeneous(Fraction(0), P, 3)
        theta = theta_for_edge(J, (0,), N)
        assert theta == PadicNumber.from_fraction(Fraction(1), P, theta.precision)

    def test_bipartite_assigns_by_parent_parity(self):
        J = CouplingField.bipartite(Fraction(3), Fraction(6), P, 3)
        c, cc = (0,), (0, 0)
        assert coupling_for_edge(J, c) == Fraction(3)
        assert coupling_for_edge(J, cc) == Fraction(6)
        t1 = theta_for_edge(J, c, N)
        t2 = theta_for_edge(J, cc, N)
        x3 = PadicNumber.from_fraction(Fraction(3), P, N)
        x6 = PadicNumber.from_fraction(Fraction(6), P, N)
        assert t1.distance_valuation(exp_p(x3)) >= 30
        assert t2.distance_valuation(exp_p(x6)) >= 30

    def test_theta_cache_returns_same_object(self):
        J = CouplingField.homogeneous(Fraction(3), P, 3)
        a = theta_for_edge(J, (0,), N)
        b = theta_for_edge(J, (1, 0), N)
        assert a is b

    @pytest.mark.parametrize("key", [(), "0.1", "0", 0, (0, -1), (0, "1"), (0, 1.0), (0, True)])
    def test_per_edge_refuses_a_key_that_is_no_child_address(self, key):
        # an edge is named by its child, a nonempty tuple of nonnegative ints
        with pytest.raises(ValueError) as err:
            CouplingField.per_edge({(0,): 3, key: 6}, P, 3)
        assert str(err.value) == (f"per-edge key {key!r} names no edge: an edge is named by "
                                  f"its child's address, a nonempty tuple of nonnegative ints")

    def test_per_edge_lookup(self):
        J = CouplingField.per_edge({(0,): Fraction(3)}, P, 3)
        assert coupling_for_edge(J, (0,)) == Fraction(3)
        with pytest.raises(KeyError):
            coupling_for_edge(J, (1,))


class TestJsonIngestion:
    @pytest.mark.parametrize("doc", [[1], "x", 3])
    def test_document_that_is_not_an_object_is_refused(self, doc):
        with pytest.raises(ValueError) as err:
            coupling_from_json(doc, TreeShape(2))
        assert str(err.value) == f"a coupling document must be a JSON object, got {doc!r}"

    def test_homogeneous(self):
        J = coupling_from_json(
            {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "3/1"}}, TreeShape(2)
        )
        assert J.pattern == "homogeneous"
        assert J.level_coupling(1) == Fraction(3)

    def test_bipartite(self):
        J = coupling_from_json(
            {
                "pattern": "bipartite",
                "p": 3,
                "q": 3,
                "values": {"even_to_odd": "3", "odd_to_even": "6"},
            },
            TreeShape(2),
        )
        assert coupling_for_edge(J, (0,)) == 3

    def test_inadmissible_rejected_with_diagnostic(self):
        with pytest.raises(DomainViolation):
            coupling_from_json(
                {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "1/2"}}, TreeShape(2)
            )

    @pytest.mark.parametrize("row", ["ab0", "000", ["", "1", "3", "9"], ["", "1"], 5, {}],
                             ids=["string", "digit string", "four", "two", "number", "object"])
    def test_per_edge_row_of_the_wrong_shape_is_named(self, row):
        doc = {"pattern": "per_edge", "p": 3, "q": 3, "values": [["", "0", "3"], row]}
        with pytest.raises(ValueError) as err:
            coupling_from_json(doc, TreeShape(2))
        assert str(err.value) == (
            f"per-edge row 1 must be a [parent, child, value] array, got {row!r}")

    def test_per_edge_rows_checked_against_a_shape(self):
        values = [["", "3", "3"], ["3", "3.1", "6"]]
        doc = {"pattern": "per_edge", "p": 3, "q": 3, "values": values}
        J = coupling_from_json(doc, TreeShape(3))  # the root has children 0..3
        assert coupling_for_edge(J, (3,)) == 3
        assert coupling_for_edge(J, (3, 1)) == 6
        with pytest.raises(ValueError, match="'' -> '3' names no edge of the k=2 tree"):
            coupling_from_json(doc, TreeShape(2))

    @pytest.mark.parametrize("parent,child", [("0", "1"), ("", ""), ("0", ""), ("1", "0.0"),
                                              ("", "0.0"), ("0.0", "0")])
    def test_per_edge_row_whose_child_is_off_its_parent_is_refused(self, parent, child):
        # the table is held by child address: such a row would set another edge
        doc = {"pattern": "per_edge", "p": 3, "q": 3,
               "values": [["", "0", "3"], [parent, child, "6"]]}
        with pytest.raises(ValueError) as err:
            coupling_from_json(doc, TreeShape(2))
        assert str(err.value) == (
            f"per-edge row {parent!r} -> {child!r} names no edge of the k=2 tree")

    @pytest.mark.parametrize("child", ["0", "00"])
    def test_per_edge_rows_naming_one_edge_twice_are_refused(self, child):
        # the later row used to win: the norm profile's level 1 read -4 or
        # -3 by row order
        doc = {"pattern": "per_edge", "p": 3, "q": 3,
               "values": [["", "0", "3"], ["", "1", "3"], ["", child, "6"]]}
        with pytest.raises(ValueError) as err:
            coupling_from_json(doc, TreeShape(1))
        assert str(err.value) == "per-edge rows 0 and 2 both name edge '' -> '0'"

    @pytest.mark.parametrize("first,second,vertex", [
        ("0", "00", "0"), ("00", "0", "0"), ("0.1", "00.01", "0.1"),
    ])
    def test_field_addresses_naming_one_vertex_twice_are_refused(self, first, second, vertex):
        doc = {first: ["3", "0"], "1": ["3", "0"], second: ["6", "0"]}
        with pytest.raises(ValueError) as err:
            boundary_field_from_json(doc, 3, P, TreeShape(2))
        assert str(err.value) == (
            f"field addresses {first!r} and {second!r} both name vertex {vertex!r}")

    def test_field_document(self):
        doc = {"": ["3", "0"], "0": ["9/2", "3"]}
        field = boundary_field_from_json(doc, 3, P, TreeShape(2))
        at_root = field_at(field, ())
        assert at_root[0] == PadicNumber.from_fraction(Fraction(3), P, N)
        unlisted = field_at(field, (2,))
        assert all(c.is_zero for c in unlisted)

    def test_field_document_rejects_inadmissible(self):
        with pytest.raises(DomainViolation):
            boundary_field_from_json({"": ["1", "0"]}, 3, P, TreeShape(2))

    def test_field_document_names_the_first_of_two_bad_entries(self):
        # a constant or parity file repeats one vector at every address: the
        # inadmissible one here first at '1', then again at '0.0'
        doc = {"0": ["3", "0"], "1": ["1", "0"], "2": ["3", "0"], "0.0": ["1", "0"]}
        with pytest.raises(DomainViolation, match=r"^field at 1 leaves"):
            boundary_field_from_json(doc, 3, P, TreeShape(2))

    @pytest.mark.parametrize(
        "entry,message",
        [
            (["3"], r"^field at '1\.1' must list 2 components, got 1$"),
            ("3", r"^field at '1\.1' must be a list of components"),
            (["3", "x"], r"Invalid literal for Fraction: 'x'"),
            (["3", ["0"]], r"^rationals must be given as strings"),
            (["3", "1/0"], r"^rational '1/0' has a zero denominator$"),
        ],
    )
    def test_field_document_malformed_entry_after_a_valid_duplicate(self, entry, message):
        doc = {"": ["3", "0"], "0": ["3", "0"], "1": ["3", "0"], "1.1": entry, "2": ["1", "0"]}
        with pytest.raises(ValueError, match=message):
            boundary_field_from_json(doc, 3, P, TreeShape(2))

    @pytest.mark.parametrize(
        "address,message",
        [("1_0", r"^vertex address '1_0' is not dot-joined"), ("0.2", r"^field address '0\.2'")],
    )
    def test_field_document_bad_address_after_a_valid_duplicate(self, address, message):
        doc = {"0": ["3", "0"], address: ["3", "0"], "1": ["1", "0"]}
        with pytest.raises(ValueError, match=message):
            boundary_field_from_json(doc, 3, P, TreeShape(2))

    def test_field_document_duplicates_read_as_equal_vectors(self):
        doc = {"": ["3", "0"], "0": ["9/2", "3"], "1": ["3", "0"], "2": ["3", 0]}
        field = boundary_field_from_json(doc, 3, P, TreeShape(2))
        want = {"": vec([3, 0]), "0": vec([Fraction(9, 2), 3]), "1": vec([3, 0]),
                "2": vec([3, 0]), "0.0": vec([0, 0])}
        for address, v in want.items():
            assert field_at(field, parse_address(address)) == v

    @pytest.mark.parametrize(
        "k,address", [(1, "2"), (1, "7.3"), (1, "0.1"), (2, "3"), (2, "0.2"), (3, "1.0.3")]
    )
    def test_field_address_off_the_tree_is_refused(self, k, address):
        with pytest.raises(ValueError, match=rf"field address '{address}' .* k={k} tree"):
            boundary_field_from_json({address: ["3", "0"]}, 3, P, TreeShape(k))

    def test_field_address_past_the_ball_is_accepted(self):
        deep = "1.0.0.0.0.0"
        field = boundary_field_from_json({deep: ["3", "0"]}, 3, P, TreeShape(1))
        assert field_at(field, parse_address(deep)) == vec([3, 0])

    def test_library_field_entry_off_the_tree_is_never_read(self):
        # assign checks no shape, so (0, 2), off the k = 2 tree, is held; read
        # as a base-2 numeral it would land on vertex 1.0's offset
        J, shape = CouplingField.homogeneous(3, P, 3), TreeShape(2)
        field = BoundaryField(3, P, {(0, 2): vec([3, 9])})
        report = compatibility_check(shape, field, J, 2)
        assert report == compatibility_check(shape, BoundaryField.zero(3, P), J, 2)
        assert (report.holds, report.max_discrepancy_valuation) == (True, 35)

    @pytest.mark.parametrize("spelling", ["0.1", "00.01", "0.001"])
    def test_field_address_spellings_key_one_entry(self, spelling):
        field = boundary_field_from_json({spelling: ["3", "0"]}, 3, P, TreeShape(2))
        assert field_at(field, parse_address("0.1")) == vec([3, 0])

    # JSON true and false are ints to Python, equal to and hashing as 1 and 0:
    # every place that reads a number refuses them

    @pytest.mark.parametrize("doc", [{"": [False, False]}, {"": ["3", 0], "0": [0, False]},
                                     {"": [True, "0"]}])
    def test_field_document_refuses_booleans(self, doc):
        with pytest.raises(ValueError, match=r"^rationals must be given as strings like "
                                             r"'3/4', got (False|True)$"):
            boundary_field_from_json(doc, 3, P, TreeShape(1))

    @pytest.mark.parametrize("pattern,values", [
        ("homogeneous", {"J": False}),
        ("homogeneous", {"J": True}),
        ("bipartite", {"even_to_odd": "3", "odd_to_even": False}),
        ("per_edge", [["", "0", True]]),
    ])
    def test_coupling_document_refuses_boolean_values(self, pattern, values):
        doc = {"pattern": pattern, "p": 3, "q": 3, "values": values}
        with pytest.raises(ValueError, match=r"^rationals must be given as strings like "
                                             r"'3/4', got (False|True)$"):
            coupling_from_json(doc, TreeShape(1))

    @pytest.mark.parametrize("text", ["3_0", " 3", "3 ", "+3", "3.0", "3e1", "\u0663", "1/3_0",
                                      "3/+1", "3//1", "/3", "3/", "-", "--3", "3/-1"])
    def test_number_texts_outside_the_grammar_are_refused(self, text):
        # an optional '-' and ASCII digits, a rational one '/' and more digits
        doc = {"pattern": "bipartite", "p": 3, "q": 3,
               "values": {"even_to_odd": "3", "odd_to_even": text}}
        for read in (lambda: coupling_from_json(doc, TreeShape(2)),
                     lambda: boundary_field_from_json({"": ["3", text]}, 3, P, TreeShape(2))):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == f"Invalid literal for Fraction: {text!r}"

    @pytest.mark.parametrize("text,value", [("-6/5", Fraction(-6, 5)), ("0", 0), ("-3", -3),
                                            ("09/2", Fraction(9, 2)), (27, 27)])
    def test_number_texts_in_the_grammar_are_read(self, text, value):
        doc = {"pattern": "homogeneous", "p": 3, "q": "3", "values": {"J": "3"}}
        assert coupling_from_json(doc, TreeShape(2)).q == 3
        field = boundary_field_from_json({"": ["3", text]}, 3, P, TreeShape(2))
        assert field_at(field, ())[1] == PadicNumber.from_fraction(value, P, N)

    @pytest.mark.parametrize("q", [True, False])
    def test_coupling_document_refuses_a_boolean_q(self, q):
        doc = {"pattern": "homogeneous", "p": 3, "q": q, "values": {"J": "3"}}
        with pytest.raises(ValueError, match=rf"^q must be an integer, got {q}$"):
            coupling_from_json(doc, TreeShape(2))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_built_and_read_couplings_and_fields_agree(k):
    # the library's way in ({address: value}) and the documents' give one
    # coupling and one field, which every computation reads alike
    rng = random.Random(f"two-ways-{k}")
    shape, n, q = TreeShape(k), 3 if k < 3 else 2, 3
    vertices = ball_with_edges(shape, n)[0]
    table = {a: exp_domain_fraction(rng, P) for a in vertices[1:]}
    entries = {a: [exp_domain_fraction(rng, P) for _ in range(q - 1)] for a in vertices[::2]}
    J = CouplingField.per_edge(table, P, q)
    h = BoundaryField(q, P, {a: [PadicNumber.from_fraction(x, P) for x in xs]
                             for a, xs in entries.items()})
    rows = [[render_address(a[:-1]), render_address(a), str(x)] for a, x in table.items()]
    J_read = coupling_from_json({"pattern": "per_edge", "p": P, "q": q, "values": rows}, shape)
    h_read = boundary_field_from_json(
        {render_address(a): [str(x) for x in xs] for a, xs in entries.items()}, q, P, shape)
    assert J_read.values == J.values
    assert all(field_at(h_read, a) == field_at(h, a) for a in vertices)
    profile, report = measure_norm_profile(shape, h, J, n), compatibility_check(shape, h, J, n)
    for J_in, h_in in ((J_read, h), (J, h_read)):  # each read one against the built pair
        assert measure_norm_profile(shape, h_in, J_in, n) == profile
        assert compatibility_check(shape, h_in, J_in, n) == report


class TestBoundaryField:
    def test_one_spin_state_is_refused(self):
        with pytest.raises(ValueError, match=r"^need at least two spin states, got q=1$"):
            BoundaryField(1, P)

    def test_assign_validates_dimension(self):
        field = BoundaryField.zero(3, P)
        with pytest.raises(ValueError):
            field.assign((), vec([0, 0, 0]))

    @pytest.mark.parametrize("key", ["0.1", "", 0, (0, -1), (0, "1"), (0, 1.0), (0, True)])
    def test_assign_refuses_a_key_that_is_no_address(self, key):
        # "0.1" would be held at level 3 and never read
        text = f"field key {key!r} is not a vertex address: a tuple of nonnegative ints"
        with pytest.raises(ValueError) as err:
            BoundaryField.zero(3, P).assign(key, vec([3, 0]))
        assert str(err.value) == text
        with pytest.raises(ValueError) as err:
            BoundaryField(3, P, {(): vec([3, 0]), key: vec([3, 0])})
        assert str(err.value) == text

    def test_assign_validates_domain(self):
        field = BoundaryField.zero(3, P)
        with pytest.raises(DomainViolation):
            field.assign((), vec([1, 0]))

    def test_parity_vectors_are_validated_like_assigned_ones(self):
        # the odd-level vector lives over 5, the field over 3
        with pytest.raises(ValueError, match="prime"):
            BoundaryField.by_parity(vec([3, 0]), vec([5, 0], 5))
        with pytest.raises(ValueError):
            BoundaryField.by_parity(vec([3, 0]), vec([0]))
        with pytest.raises(DomainViolation):
            BoundaryField.by_parity(vec([3, 0]), vec([1, 0]))

    def test_every_component_must_share_the_prime(self):
        # the first component is over the field's prime, the second over 5
        mixed = (vec([3])[0], vec([5], 5)[0])
        with pytest.raises(ValueError, match="prime"):
            BoundaryField.zero(3, P).assign((), mixed)
        with pytest.raises(ValueError, match="prime"):
            BoundaryField.constant(mixed)
        with pytest.raises(ValueError, match="prime"):
            BoundaryField.by_parity(mixed, vec([3, 0]))
        with pytest.raises(ValueError, match="prime"):
            BoundaryField.by_parity(vec([3, 0]), mixed)

    def test_empty_vector_is_refused(self):
        with pytest.raises(ValueError):
            BoundaryField.constant(())
        with pytest.raises(ValueError):
            BoundaryField.by_parity((), ())
        with pytest.raises(ValueError):
            BoundaryField.by_parity((), vec([3]))

    def test_entries_override_the_parity_pair(self):
        even, odd, entry = vec([3, 0]), vec([0, 3]), vec([9, 9])
        field = BoundaryField.by_parity(even, odd)
        field.assign(parse_address("0.1"), entry)
        assert field_at(field, ()) == even
        assert field_at(field, parse_address("0")) == odd
        assert field_at(field, parse_address("1.0")) == even
        assert field_at(field, parse_address("0.1")) == entry

    def test_constant_covers_all_vertices(self):
        v = vec([3, 9])
        field = BoundaryField.constant(v)
        assert field_at(field, parse_address("0.1.0")) == v


def _direct_site_rows(system, h, J, shape, n, work):
    """The site residues and modulus exponent of ``system`` computed the
    uncached way: one exp_p per sphere site and spin, and per edge."""
    vertices, pairs = ball_with_edges(shape, n)
    thetas = [theta_for_edge(J, vertices[j], work) for _, j in pairs]
    tables = {
        i: [exp_p(spin_pairing(field_at(h, v), s), precision=work) for s in range(1, h.q + 1)]
        for i, v in enumerate(ball_vertices(system))
        if len(v) == n
    }
    known = [e.known_abs for e in thetas + [w for t in tables.values() for w in t]]
    bound = min([work + MODULUS_HEADROOM, *(b for b in known if b is not None)])
    return {i: [w.residue(bound) for w in t] for i, t in tables.items()}, bound


class TestSiteTableCache:
    """The site tables are cached per distinct field vector and precision.

    The brute-force oracle reads the same tables as the tree pass, so it
    cannot see a wrong cache key; these tests recompute every row directly.
    """

    @pytest.mark.parametrize("q", (2, 3))
    @pytest.mark.parametrize("p", (2, 3, 5))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_rows_equal_direct_exponentials(self, k, p, q):
        rng = random.Random(f"site-cache-{k}-{p}-{q}")
        shape, n = TreeShape(k), 3

        def draw():
            return tuple(
                PadicNumber.from_fraction(exp_domain_fraction(rng, p), p, N) for _ in range(q - 1)
            )

        def copy(v, known_abs=None):
            # equal in value, a distinct object; inexact when known_abs is set
            return tuple(PadicNumber(c.value, p, N + 7, known_abs) for c in v)

        even, odd = draw(), draw()
        h = BoundaryField.by_parity(even, odd)
        vertices = ball_with_edges(shape, n)[0]
        for i, v in enumerate(vertices):
            pick = i % 6
            if pick == 0:
                h.assign(v, copy(even))
            elif pick == 1:
                h.assign(v, copy(odd))
            elif pick == 2:
                h.assign(v, draw())
            elif pick == 3:
                h.assign(v, copy(even, known_abs=N - 2))
        J = CouplingField.bipartite(exp_domain_fraction(rng, p), exp_domain_fraction(rng, p), p, q)

        def check_every_level():
            for m in range(n + 1):
                for extra in (0, 5):
                    system = weights(shape, h, J, m, N + extra)
                    rows, bound = _direct_site_rows(system, h, J, shape, m, N + extra)
                    assert system.modulus_exponent == bound
                    assert site_residues(system) == rows

        check_every_level()
        # entries assigned after the tables were cached must be read afresh
        inner = shape.ball_size(n - 1)
        for v in vertices[inner:][:3] + vertices[inner - shape.sphere_size(n - 1):inner][:2]:
            h.assign(v, draw() if rng.random() < 0.5 else copy(odd))
        check_every_level()

    def test_one_table_per_distinct_vector_and_precision(self):
        h = BoundaryField.by_parity(vec([3, 9]), vec([0, 3]))
        shape = TreeShape(2)
        for x in ball_with_edges(shape, 2)[0][-shape.sphere_size(2):]:
            h.assign(x, vec([3, 9]))
        root, entry, odd = (parse_address(a) for a in ("", "1.1", "0"))
        assert site_exponentials(h, entry, N) is site_exponentials(h, root, N)
        assert site_exponentials(h, entry, N) is not site_exponentials(h, entry, N + 1)
        assert site_exponentials(h, entry, N) is not site_exponentials(h, odd, N)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_product_site_factor_equals_exp_of_the_sum(p, q):
    """Spin q's site factor, the product of the component exponentials,
    gives the rows and modulus exponent of exp_p of the component sum: on
    random exact vectors, on vectors whose components cancel exactly, and
    on inexact components whose bounds can set the modulus."""
    rng = random.Random(f"product-factor-{p}-{q}")
    shape = TreeShape(2)

    def draw():
        return tuple(
            PadicNumber.from_fraction(exp_domain_fraction(rng, p), p, N) for _ in range(q - 1)
        )

    def inexact(v):
        return tuple(PadicNumber(c.value, p, N + 7, rng.randrange(N - 6, N + 8)) for c in v)

    def cancelling():
        v = draw()
        return (-sum(v[1:], PadicNumber.zero(p)) if q > 2 else PadicNumber.zero(p), *v[1:])

    h = BoundaryField.by_parity(draw(), inexact(draw()))
    for i, v in enumerate(ball_with_edges(shape, 2)[0]):
        h.assign(v, (draw, lambda: inexact(draw()), cancelling, draw)[i % 4]())
    J = CouplingField.homogeneous(exp_domain_fraction(rng, p), p, q)
    for n in (1, 2):
        for extra in (0, 5):
            system = weights(shape, h, J, n, N + extra)
            rows, bound = _direct_site_rows(system, h, J, shape, n, N + extra)
            assert system.modulus_exponent == bound
            assert site_residues(system) == rows


def test_site_tables_apart_for_a_shared_numerator_or_a_shared_value():
    """3/2 and 3/5 share their valuation and numerator, 9 and 9 + O(3**6)
    their value: each gets its own table, equal to exp_p computed directly."""
    h = BoundaryField.by_parity(vec([Fraction(3, 2)]), vec([Fraction(3, 5)]))
    sites = [parse_address(a) for a in ("", "0", "1", "2")]
    h.assign(sites[2], vec([9]))
    h.assign(sites[3], (PadicNumber(9, P, N, known_abs=6),))
    for v in sites:
        got = site_exponentials(h, v, N)
        want = [exp_p(spin_pairing(field_at(h, v), s), precision=N) for s in (1, 2)]
        assert [(w.value, w.known_abs, w.precision) for w in got] == [
            (w.value, w.known_abs, w.precision) for w in want
        ]
