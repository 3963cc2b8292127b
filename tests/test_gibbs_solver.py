import math
import random
from fractions import Fraction

import pytest
from conftest import (
    ball_with_edges,
    exp_domain_fraction,
    field_at,
    messages,
    site_exponentials,
    spin_pairing,
    weights,
)

from padic_potts import gibbs_solver
from padic_potts.cayley_tree import TreeShape, render_address
from padic_potts.errors import (
    DenominatorDegenerate,
    DomainViolation,
    EnumerationTooLarge,
    NotInvertible,
    PrecisionExhausted,
)
from padic_potts.gibbs_solver import (
    VERDICT_INCONCLUSIVE,
    VERDICT_MULTIPLE_TI,
    VERDICT_UNIQUE,
    RecursionResult,
    _integer_fold,
    _object_fold,
    _offset_valuation,
    classify_phase,
    f_map_z,
    hprime_to_h,
    period2_k2_analysis,
    recursion_backward,
    solve_k1_bipartite,
    translation_invariant_cubic,
    uniqueness_certificate,
    witness_boundary_field,
)
from padic_potts.padic_analytic import exp_p
from padic_potts.padic_core import PadicNumber
from padic_potts.potts_model import (
    BoundaryField,
    CouplingField,
    _level_couplings,
    compatibility_check,
)

N = 32


def num(x, p=3, n=N):
    return PadicNumber.from_fraction(Fraction(x), p, n)


def pvec(values, p=3, n=N):
    return tuple(PadicNumber.from_fraction(Fraction(v), p, n) for v in values)


def edge_weight(J, p=3, n=N):
    return exp_p(num(J, p, n))


def h_to_hprime(h):
    """The complement-sum map that ``hprime_to_h`` inverts: output i is the
    sum of h_j over j != i.  The two-state case has a one-component vector
    whose complement sum is empty, so the image is exactly zero."""
    if len(h) == 1:
        return (PadicNumber.zero(h[0].prime, h[0].precision),)
    out = []
    for i in range(len(h)):
        acc = None
        for j, c in enumerate(h):
            if j != i:
                acc = c if acc is None else acc + c
        out.append(acc)
    return tuple(out)


class TestFieldCoordinates:
    def test_three_states_swaps_components(self):
        h = pvec([3, 9])
        hp = h_to_hprime(h)
        assert hp[0] == num(9)
        assert hp[1] == num(3)

    def test_complement_sums(self):
        h = pvec([3, 9, 27], p=3)
        hp = h_to_hprime(h)
        assert hp[0] == num(36)
        assert hp[1] == num(30)
        assert hp[2] == num(12)

    def test_round_trip(self, rng):
        for q in (3, 4, 5):
            for _ in range(20):
                h = pvec([3 * rng.randrange(-20, 21) for _ in range(q - 1)])
                back = hprime_to_h(h_to_hprime(h))
                assert back == h

    def test_two_states_collapse_to_zero(self):
        hp = h_to_hprime(pvec([3]))
        assert len(hp) == 1
        assert hp[0].is_zero

    def test_two_states_not_invertible(self):
        with pytest.raises(NotInvertible):
            hprime_to_h(pvec([3]))

    def test_zero_maps_to_zero(self):
        h = hprime_to_h(pvec([0, 0, 0]))
        assert all(c.is_zero for c in h)


class TestThetaValue:
    def test_from_coupling(self):
        t = edge_weight(3)
        assert t.is_unit()
        assert int(t.distance_valuation(num(1))) == 1

    def test_two_adic_coupling_needs_extra_digit(self):
        with pytest.raises(DomainViolation):
            edge_weight(2, p=2)
        t = edge_weight(4, p=2)
        assert int(t.distance_valuation(num(1, p=2))) == 2


class TestOneChildMap:
    def test_all_ones_is_fixed(self):
        theta = edge_weight(3)
        z = pvec([1, 1])
        out = f_map_z(z, theta, 3)
        assert all(c == num(1) for c in out)

    def test_matches_direct_quotient(self, rng):
        # the factored form must agree with the defining expression
        # ((theta-1)*z_i + sum z_j + 1) / (sum z_j + theta) on exact input
        q = 3
        done = 0
        while done < 40:
            th = Fraction(1) + 3 * Fraction(rng.randrange(1, 50), rng.choice([1, 2, 4, 5]))
            zs = [Fraction(1) + 3 * Fraction(rng.randrange(-30, 31)) for _ in range(q - 1)]
            total = sum(zs)
            if total + th == 0:
                continue
            done += 1
            out = f_map_z(tuple(num(z) for z in zs), num(th), q)
            for i, z in enumerate(zs):
                expect = ((th - 1) * z + total + 1) / (total + th)
                assert out[i] == num(expect)

    def test_contraction_when_q_is_a_unit(self, rng):
        for p, q in ((3, 2), (5, 2), (5, 3), (7, 4)):
            theta = edge_weight(p, p)
            gain = theta.distance_valuation(PadicNumber.one(p))
            for _ in range(60):
                comps = []
                for _ in range(q - 1):
                    k = rng.randrange(1, 5)
                    unit = rng.randrange(1, p**3)
                    while unit % p == 0:
                        unit = rng.randrange(1, p**3)
                    comps.append(PadicNumber.from_fraction(1 + Fraction(unit * p**k), p, N))
                z = tuple(comps)
                out = f_map_z(z, theta, q)
                for before, after in zip(z, out):
                    v_in = before.distance_valuation(PadicNumber.one(p))
                    v_out = after.distance_valuation(PadicNumber.one(p))
                    assert v_out >= v_in + gain

    def test_dimension_guard(self):
        theta = edge_weight(3)
        with pytest.raises(ValueError):
            f_map_z(pvec([1, 1]), theta, 4)

    def test_degenerate_denominator(self):
        # offsets sum to -(theta - 1) - q exactly
        theta = num(4)
        z = (num(-5), num(1))
        with pytest.raises(DenominatorDegenerate):
            f_map_z(z, theta, 3)


class TestBackwardRecursion:
    def test_all_ones_boundary_stays_trivial(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), 3, 2)
        boundary = {x: pvec([1]) for x in ball_with_edges(shape, 3)[0][-shape.sphere_size(3):]}
        got = recursion_backward(shape, boundary, J, 3, N)
        assert isinstance(got, RecursionResult)
        assert all(c == num(1) for c in got.root_z)
        assert all(v == math.inf for v in got.per_level_offset)

    def test_offset_ladder(self):
        # each edge gains one digit; the root gains a second one because its
        # k + 1 = 3 children contribute a 3-fold product at p = 3
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), 3, 2)
        z0 = (num(4),)
        boundary = {x: z0 for x in ball_with_edges(shape, 4)[0][-shape.sphere_size(4):]}
        got = recursion_backward(shape, boundary, J, 4, N)
        assert [int(v) for v in got.per_level_offset] == [6, 4, 3, 2, 1]

    def test_needs_a_level(self):
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), 3, 2)
        with pytest.raises(ValueError):
            recursion_backward(shape, {}, J, 0, N)

    def test_guard_refuses_huge_balls(self):
        # the guard runs before the walk, so no level of the 40-ball is built
        # and no boundary law is read
        J = CouplingField.homogeneous(Fraction(3), 3, 2)
        with pytest.raises(EnumerationTooLarge):
            recursion_backward(TreeShape(2), {}, J, 40, N)

    def test_mixed_boundary_floor(self):
        # the reported offset per level is the worst over the sphere
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), 3, 2)
        leaves = ball_with_edges(shape, 2)[0][-shape.sphere_size(2):]
        boundary = {x: (num(4),) for x in leaves[:-1]}
        boundary[leaves[-1]] = (num(10),)  # offset 2 instead of 1
        got = recursion_backward(shape, boundary, J, 2, N)
        assert int(got.per_level_offset[2]) == 1
        assert int(got.per_level_offset[0]) >= 3


def _regime_component(rng, p, n_max):
    """A boundary component in the regime of claim (i): exactly 1, an exact
    1 + p**v * a/b, or the same known to a random absolute bound (which may
    cancel the offset, so that the fold raises)."""
    kind = rng.random()
    if kind < 0.1:
        return PadicNumber(1, p, rng.randrange(1, n_max + 1))
    den = rng.choice([1, p * rng.randrange(1, p**4) + 1])
    z = 1 + Fraction(p ** rng.randrange(1, 4) * rng.randrange(-p**8, p**8), den)
    if kind < 0.5:
        return PadicNumber(z, p, rng.randrange(1, n_max + 1))
    return PadicNumber(z, p, rng.randrange(1, n_max + 1), known_abs=rng.randrange(4, n_max + 6))


def _random_coupling(rng, pattern, shape, n, p, q):
    def draw():
        return Fraction(p ** (vmin + rng.randrange(0, 3)) * rng.randrange(1, 50),
                        p * rng.randrange(1, 7) + 1)

    vmin = 2 if p == 2 else 1
    if pattern == "homogeneous":
        return CouplingField.homogeneous(draw(), p, q)
    if pattern == "bipartite":
        return CouplingField.bipartite(draw(), draw(), p, q)
    values = [draw() for _ in range(3)]
    vertices, pairs = ball_with_edges(shape, n)
    table = {vertices[j]: rng.choice(values) for _, j in pairs}
    return CouplingField.per_edge(table, p, q)


def _fold_outcome(fold, *args):
    """A fold's result, or its exception, as comparable data."""
    try:
        got = fold(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return ("raised", type(exc), str(exc), getattr(exc, "bound", None))
    if got is None:
        return None
    root = [(c.value, c.known_abs, c.precision) for c in got.root_z]
    return ("folded", root, list(got.per_level_offset))


class _CountingLaws:
    """A mapping that records every key read, in order."""

    def __init__(self, laws):
        self.laws, self.reads = laws, []

    def __getitem__(self, vertex):
        self.reads.append(vertex)
        return self.laws[vertex]


class TestIntegerFold:
    """The integer pass against the per-object fold it replaces in the
    regime of claim (i)."""

    def test_matches_the_object_fold_on_random_regime_cases(self):
        rng = random.Random(17)
        seen = {"folded": 0, "raised": 0}
        patterns = ("homogeneous", "bipartite", "per_edge")
        for case in range(540):
            p = rng.choice([2, 3, 5, 7])
            q = rng.choice([x for x in range(2, 7) if x % p])
            k, n, n_max = rng.randrange(1, 4), rng.randrange(1, 6), rng.randrange(8, 65)
            shape = TreeShape(k)
            J = _random_coupling(rng, patterns[case % 3], shape, n, p, q)
            couplings = _level_couplings(shape, J, range(n, 0, -1))
            laws = [tuple(_regime_component(rng, p, n_max) for _ in range(q - 1))
                    for _ in range(shape.sphere_size(n))]
            args = (shape, couplings, laws, J, n, n_max)
            got = _fold_outcome(_integer_fold, *args)
            assert got is not None, (case, p, q, k, n)
            assert got == _fold_outcome(_object_fold, *args), (case, p, q, k, n, J.pattern)
            seen[got[0]] += 1
        assert min(seen.values()) >= 50  # both outcomes are exercised

    def test_first_error_is_the_object_folds(self):
        # two leaves whose offsets cancel, to different bounds: the edges go
        # in reverse, so the later leaf raises first, before any cancellation
        # further up
        shape, p = TreeShape(2), 3
        J = CouplingField.homogeneous(Fraction(3), p, 2)
        leaves = ball_with_edges(shape, 3)[0][-shape.sphere_size(3):]
        laws = [(PadicNumber(1 + 3 * (i + 1), p, 16),) for i in range(len(leaves))]
        laws[2] = (PadicNumber(1 + 3**9, p, 16, known_abs=7),)
        laws[5] = (PadicNumber(1 + 3**9, p, 16, known_abs=8),)
        couplings = _level_couplings(shape, J, range(3, 0, -1))
        for fold in (_integer_fold, _object_fold):
            with pytest.raises(PrecisionExhausted) as err:
                fold(shape, couplings, laws, J, 3, 16)
            assert err.value.bound == 8

    @pytest.mark.parametrize("in_regime", [True, False])
    def test_reads_each_sphere_law_once_in_address_order(self, in_regime, monkeypatch):
        shape, p = TreeShape(2), 3
        J = CouplingField.homogeneous(Fraction(3), p, 2 if in_regime else 3)
        leaves = ball_with_edges(shape, 3)[0][-shape.sphere_size(3):]
        laws = _CountingLaws({x: (PadicNumber(1 + 3 * (i + 1), p),) * (J.q - 1)
                              for i, x in enumerate(leaves)})
        folds = []
        for name in ("_integer_fold", "_object_fold"):
            fold = getattr(gibbs_solver, name)
            monkeypatch.setattr(gibbs_solver, name,
                                lambda *a, fold=fold, name=name: folds.append(name) or fold(*a))
        recursion_backward(shape, laws, J, 3, N)
        assert laws.reads == leaves
        assert folds == (["_integer_fold"] if in_regime else ["_integer_fold", "_object_fold"])

    @pytest.mark.parametrize("q", [2, 3])
    def test_per_edge_table_missing_two_edges_names_the_object_folds_first(self, q):
        # the object fold takes the edges in reverse, so of the two missing
        # edges it meets '0.1' -> '0.1.0' (level 3) before '1' -> '1.1'
        shape, p = TreeShape(2), 3
        vertices, pairs = ball_with_edges(shape, 3)
        missing = {("0.1", "0.1.0"), ("1", "1.1")}
        table = {vertices[j]: Fraction(3 * (1 + j % 3)) for i, j in pairs
                 if (render_address(vertices[i]), render_address(vertices[j])) not in missing}
        J = CouplingField.per_edge(table, p, q)
        laws = {x: (PadicNumber(1 + 3 * (i + 1), p),) * (q - 1)
                for i, x in enumerate(vertices[shape.ball_size(2):])}
        with pytest.raises(KeyError) as err:
            recursion_backward(shape, laws, J, 3, N)
        assert err.value.args == ("no coupling listed for edge '0.1' -> '0.1.0'",)

    @pytest.mark.parametrize("q", [2, 3])
    def test_reads_nothing_when_the_guard_refuses(self, q):
        laws = _CountingLaws({})
        with pytest.raises(EnumerationTooLarge):
            recursion_backward(TreeShape(2), laws, CouplingField.homogeneous(3, 3, q), 40, N)
        assert laws.reads == []

    # Each pinned at the parent of the integer pass, which folded every input
    # on PadicNumbers.
    OUT_OF_REGIME = {
        "p divides q": (
            2, 3, (3, 3, 3), 1 + 3 * 5,
            ["3^0 * (1 + 1*3 + 2*3^2 + 2*3^3 + 1*3^4 + 2*3^5 + 2*3^7 + 1*3^8 + 1*3^9 + "
             "1*3^11 + 1*3^12) + O(3^13)",
             "3^0 * (1 + 1*3 + 2*3^4 + 2*3^5 + 1*3^6 + 2*3^8 + 2*3^9) + O(3^13)"],
            [17, 17], [1, 1, -1, 1],
        ),
        "an offset of valuation 0": (
            2, 3, (3, 3, 2), 2,
            ["3^0 * (1 + 1*3^2 + 2*3^3 + 2*3^5 + 1*3^6 + 2*3^7 + 1*3^8 + 1*3^9 + 1*3^10 + "
             "1*3^11 + 2*3^12 + 2*3^13 + 2*3^14 + 2*3^15) + O(3^16)"],
            [20], [2, 1, 0, 0],
        ),
        "a zero coupling": (
            1, 4, (0, 5, 3), 1 + 5 * 5,
            ["5^0 * (1) + O(5^16)", "5^0 * (1) + O(5^16)"],
            [None, None], [math.inf, math.inf, math.inf, math.inf, 1],
        ),
    }

    @pytest.mark.parametrize("case", sorted(OUT_OF_REGIME))
    def test_out_of_regime_inputs_keep_the_object_fold(self, case):
        k, n, coupling, fifth, rendered, known, offsets = self.OUT_OF_REGIME[case]
        shape, J = TreeShape(k), CouplingField.homogeneous(*coupling)
        p = J.prime.value
        # component 0 of leaf 4 is ``fifth``; every other component is
        # 1 + p * (leaf index + component index + 1)
        laws = [tuple(PadicNumber(fifth if (i, c) == (4, 0) else 1 + p * (i + c + 1), p, 16)
                      for c in range(J.q - 1))
                for i in range(shape.sphere_size(n))]
        ball = ball_with_edges(shape, n)
        couplings = _level_couplings(shape, J, range(n, 0, -1))
        assert _integer_fold(shape, couplings, laws, J, n, 16) is None
        leaves = ball[0][-shape.sphere_size(n):]
        got = recursion_backward(shape, dict(zip(leaves, laws)), J, n, 16)
        assert [str(c) for c in got.root_z] == rendered
        assert [c.known_abs for c in got.root_z] == known
        assert got.per_level_offset == offsets

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_root_law_matches_the_sum_product_messages(self, k):
        # with the field on the sphere only, a leaf's law is its site weights
        # over the last one, and m_root(s) / m_root(q) is the root's law
        # (Zachary 1983: the messages are the boundary-law recursion); at
        # q = 2 the field cancels from the law, so q >= 3
        rng = random.Random(k)
        for p, q, n in ((3, 4, 4), (5, 3, 3), (2, 3, 3), (7, 4, 2), (3, 5, 3)):
            if k == 3 and n > 3:
                n = 3
            shape = TreeShape(k)
            J = CouplingField.homogeneous(exp_domain_fraction(rng, p), p, q)
            h = BoundaryField.zero(q, p)
            leaves = ball_with_edges(shape, n)[0][-shape.sphere_size(n):]
            for x in leaves:
                h.assign(x, tuple(PadicNumber(exp_domain_fraction(rng, p), p, N)
                                  for _ in range(q - 1)))
            system = weights(shape, h, J, n, N)
            B, mod = system.modulus_exponent, system.modulus
            laws = {}
            for x in leaves:
                sites = site_exponentials(h, x, N)
                laws[x] = tuple(w / sites[-1] for w in sites[:-1])
            root = recursion_backward(shape, laws, J, n, N).root_z
            m = messages(system, 0)[0]
            for s, z in enumerate(root):
                assert z.known_abs >= B
                assert z.residue(B) == m[s] * pow(m[-1], -1, mod) % mod


class TestUniquenessCertificate:
    def test_unit_q_applies(self):
        for p, q in ((3, 2), (2, 3), (5, 12)):
            cert = uniqueness_certificate(p, q)
            assert cert.applies
            assert cert.reason

    def test_divisible_q_does_not(self):
        for p, q in ((3, 3), (2, 6), (5, 10)):
            cert = uniqueness_certificate(p, q)
            assert not cert.applies


class TestAlternatingLine:
    def test_divisible_q_finds_two_laws(self):
        theta = edge_weight(3)
        report = solve_k1_bipartite(theta, theta, 3, N)
        assert report.verdict == VERDICT_MULTIPLE_TI
        assert len(report.witnesses) == 2
        offsets = sorted(_offset_valuation(w) for w in report.witnesses)
        assert int(offsets[0]) == 1  # the 1 - q law
        assert offsets[1] == math.inf  # the trivial law
        nontrivial = next(
            w for w in report.witnesses if _offset_valuation(w) != math.inf
        )
        assert nontrivial[0] == num(-2)
        assert report.diagnostics["paired_laws"]

    def test_distinct_couplings_compose(self):
        t1 = edge_weight(3)
        t2 = edge_weight(9)
        report = solve_k1_bipartite(t1, t2, 3, N)
        assert report.verdict == VERDICT_MULTIPLE_TI
        assert len(report.witnesses) == 2

    def test_unit_q_rejects_nontrivial_root(self):
        theta = edge_weight(3)
        report = solve_k1_bipartite(theta, theta, 2, N)
        assert report.verdict == VERDICT_UNIQUE
        assert len(report.witnesses) == 1
        assert len(report.diagnostics["rejected_roots"]) == 1

    def test_vanishing_coupling_degenerates(self):
        one = num(1)
        report = solve_k1_bipartite(one, one, 3, N)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert len(report.witnesses) == 1
        assert report.diagnostics["alpha_offset_valuation"] == "+inf"


class TestConstantLawCubic:
    def _roots_satisfy_fixed_point(self, report, theta, q):
        # independent residual check through the defining quotient:
        # a constant law solves (theta*z + q - 1)^2 = z*(z + theta + q - 2)^2
        th = theta
        p = th.prime
        for w in report.witnesses:
            z = w[0]
            lhs = (th * z + PadicNumber.from_fraction(q - 1, p, N)) ** 2
            rhs = z * (z + th + PadicNumber.from_fraction(q - 2, p, N)) ** 2
            assert lhs.distance_valuation(rhs) >= 20

    def test_three_states_three_laws(self):
        theta = edge_weight(3)
        report = translation_invariant_cubic(theta, 3, N)
        assert report.verdict == VERDICT_MULTIPLE_TI
        assert report.diagnostics["disk_root_count"] == 3
        self._roots_satisfy_fixed_point(report, theta, 3)

    def test_two_states_only_trivial(self):
        theta = edge_weight(3)
        report = translation_invariant_cubic(theta, 2, N)
        assert report.verdict == VERDICT_UNIQUE
        assert report.diagnostics["disk_root_count"] == 1
        self._roots_satisfy_fixed_point(report, theta, 2)

    def test_one_is_always_a_root(self):
        # coefficients sum to zero, so the value at 1 cancels entirely
        theta = edge_weight(9)
        report = translation_invariant_cubic(theta, 3, N)
        val = report.diagnostics["value_at_one_valuation"]
        assert val.startswith(">=")


# Exact-rational polynomial helpers, used only to derive the two-step
# composition condition from scratch and compare it with the closed-form
# quadratic the solver builds.


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _psub(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]


def _pdivmod(a, b):
    a = list(a)
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        coef = a[k + len(b) - 1] / b[-1]
        quot[k] = coef
        for j, y in enumerate(b):
            a[k + j] -= coef * y
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quot, a


def _composition_condition(theta, q):
    # m(z) = (theta*z + q - 1)/(z + theta + q - 2); the order-2 law map is
    # m(.)^2, and a two-cycle satisfies A(z)^2 = z * B(z)^2 with A, B the
    # cleared numerator and denominator of the composed step
    nm = [q - 1, theta]
    dn = [theta + q - 2, Fraction(1)]
    n2, d2 = _pmul(nm, nm), _pmul(dn, dn)
    A = _psub([theta * x for x in n2], [-(q - 1) * x for x in d2])
    B = _psub(n2, [-(theta + q - 2) * x for x in d2])
    return _psub(_pmul(A, A), [Fraction(0)] + _pmul(B, B))


def _fixed_point_cubic(theta, q):
    nm = [q - 1, theta]
    dn = [theta + q - 2, Fraction(1)]
    return _psub([Fraction(0)] + _pmul(dn, dn), _pmul(nm, nm))


def _v3(x):
    if x == 0:
        return None
    v, n, d = 0, x.numerator, x.denominator
    while n % 3 == 0:
        n //= 3
        v += 1
    while d % 3 == 0:
        d //= 3
        v -= 1
    return v


class TestAlternatingPairQuadratic:
    def test_needs_odd_prime(self):
        theta = edge_weight(4, 2)
        with pytest.raises(DomainViolation):
            period2_k2_analysis(theta, 4, N)

    def test_needs_divisible_q(self):
        theta = edge_weight(3)
        with pytest.raises(DomainViolation):
            period2_k2_analysis(theta, 2, N)

    @pytest.mark.parametrize("theta", [2, Fraction(1, 2), 3])
    def test_needs_theta_congruent_to_one(self, theta):
        # off 1 mod p the constant term can be a unit, a case no coupling gives
        with pytest.raises(DomainViolation, match="theta congruent to 1 mod p"):
            period2_k2_analysis(num(theta), 3, N)

    def test_quadratic_divides_composition_condition(self):
        # derive the degree-5 two-cycle condition from the map itself and
        # check it factors as (fixed-point cubic) * (solver quadratic) * const
        for theta in (Fraction(4), Fraction(10), Fraction(1 + 3 * 17)):
            q = 3
            G = _composition_condition(theta, q)
            C = _fixed_point_cubic(theta, q)
            assert len(G) == 6 and len(C) == 4
            quot, rem = _pdivmod(G, C)
            assert rem == [Fraction(0)]
            a = (theta * theta + theta + q - 2) ** 2
            b = (
                theta**4
                + 4 * (q - 1) * theta**3
                + (q * q + 6 * q - 12) * theta**2
                + 2 * (5 * q * q - 18 * q + 16) * theta
                + (2 * q**3 - 13 * q * q + 26 * q - 17)
            )
            c = (theta * (q - 1) + (theta + q - 2) ** 2) ** 2
            quot2, rem2 = _pdivmod(quot, [c, b, a])
            assert rem2 == [Fraction(0)]
            assert len(quot2) == 1 and quot2[0] != 0

    def test_constant_term_loses_two_digits_for_divisible_q(self):
        # the certificate needs a unit constant term, but for q in pN all
        # three coefficients drop by exactly two digits
        for theta in (Fraction(4), Fraction(13), Fraction(1 + 3 * 25)):
            c = (theta * 2 + (theta + 1) ** 2) ** 2
            a = (theta * theta + theta + 1) ** 2
            assert _v3(c) == 2
            assert _v3(a) == 2

    def test_true_behavior_two_cycles_found(self):
        theta = edge_weight(3)
        report = period2_k2_analysis(theta, 3, N)
        assert report.verdict == VERDICT_INCONCLUSIVE
        diag = report.diagnostics
        assert diag["leading_valuation"] == "2"
        assert diag["middle_valuation"] == "2"
        assert diag["constant_valuation"] == "2"
        assert diag["disk_root_count"] == 2
        assert len(report.witnesses) == 2
        th = theta
        for w, cyc in zip(report.witnesses, diag["cycles"]):
            z = w[0]
            partner = (
                (th * z + num(2)) / (z + th + num(1))
            ) ** 2
            back = ((th * partner + num(2)) / (partner + th + num(1))) ** 2
            assert back.distance_valuation(z) >= 25
            assert int(partner.distance_valuation(z)) == 1
            assert cyc["partner_distinct_valuation"] == "1"
            assert int(Fraction(cyc["cycle_closure_valuation"])) >= 25


class TestClassification:
    def test_unit_q_short_circuits(self):
        J = CouplingField.homogeneous(Fraction(3), 3, 2)
        report = classify_phase(5, J, N)
        assert report.verdict == VERDICT_UNIQUE
        assert report.diagnostics == {"q_unit": True}

    def test_line_dispatch(self):
        J = CouplingField.homogeneous(Fraction(3), 3, 3)
        report = classify_phase(1, J, N)
        assert report.verdict == VERDICT_MULTIPLE_TI
        assert len(report.witnesses) == 2

    def test_order_two_merges_both_analyses(self):
        J = CouplingField.homogeneous(Fraction(3), 3, 3)
        report = classify_phase(2, J, N)
        assert report.verdict == VERDICT_MULTIPLE_TI
        assert len(report.witnesses) == 5  # 3 constant + 2 alternating
        assert report.diagnostics["alternating_verdict"] == VERDICT_INCONCLUSIVE
        assert "alternating_diagnostics" in report.diagnostics

    def test_two_adic_threshold_table(self):
        rows = [
            (4, Fraction(4), VERDICT_MULTIPLE_TI),
            (4, Fraction(8), VERDICT_INCONCLUSIVE),
            (6, Fraction(4), VERDICT_INCONCLUSIVE),
            (8, Fraction(8), VERDICT_MULTIPLE_TI),
            (12, Fraction(4), VERDICT_MULTIPLE_TI),
        ]
        for q, Jval, verdict in rows:
            J = CouplingField.homogeneous(Jval, 2, q)
            report = classify_phase(2, J, N)
            assert report.verdict == verdict, (q, Jval)
            assert report.witnesses == []
            assert "coupling_valuation" in report.diagnostics

    def test_uncovered_combination(self):
        J = CouplingField.homogeneous(Fraction(3), 3, 3)
        report = classify_phase(3, J, N)
        assert report.verdict == VERDICT_INCONCLUSIVE

    def test_json_round_trip(self):
        import json

        J = CouplingField.homogeneous(Fraction(3), 3, 3)
        doc = classify_phase(2, J, N).to_json()
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text)["verdict"] == VERDICT_MULTIPLE_TI


class TestWitnessField:
    def test_orientation(self):
        # the reconstructed field must reproduce the witness through the
        # one-site weight ratios exp(pairing(h, s) - pairing(h, q))
        z = (num(-2), num(4))
        field = witness_boundary_field(z, precision=48)
        h = field_at(field, ())
        for i in (1, 2):
            ratio = exp_p(spin_pairing(h, i) - spin_pairing(h, 3))
            assert ratio.distance_valuation(z[i - 1]) >= 25

    def test_trivial_witness_gives_zero_field(self):
        field = witness_boundary_field(pvec([1, 1]))
        h = field_at(field, ())
        assert all(c.is_zero for c in h)

    def test_empty_law_refused(self):
        with pytest.raises(ValueError, match="at least one component"):
            witness_boundary_field(())
        with pytest.raises(ValueError, match="at least one component"):
            _offset_valuation(())

    def test_two_adic_offset_gate(self):
        z = (PadicNumber.from_fraction(3, 2, N),)
        with pytest.raises(DomainViolation):
            witness_boundary_field(z)

    def test_two_state_reconstruction_refused(self):
        z = (num(4),)
        with pytest.raises(NotInvertible):
            witness_boundary_field(z)

    def test_end_to_end_compatibility(self):
        # a verified constant law must reconstruct to a field the direct
        # enumeration accepts between spheres; the whole pipeline runs deep
        # because the enumeration widens its modulus with volume
        deep = 72
        theta = edge_weight(3, 3, deep)
        report = translation_invariant_cubic(theta, 3, deep)
        nontrivial = next(
            w for w in report.witnesses if _offset_valuation(w) != math.inf
        )
        field = witness_boundary_field(nontrivial, precision=deep)
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), 3, 3)
        rep = compatibility_check(shape, field, J, 2, N)
        assert rep.holds

    def test_both_nontrivial_laws_compatible_at_n3(self):
        # claim (ii) between the 2- and 3-balls: each nontrivial constant law
        # gives a consistent family.  At precision 72 the first law's field
        # leaves too few digits past the partition valuations at n = 3
        deep = 120
        theta = edge_weight(3, 3, deep)
        report = translation_invariant_cubic(theta, 3, deep)
        nontrivial = [w for w in report.witnesses if _offset_valuation(w) < deep]
        assert len(nontrivial) == 2
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), 3, 3)
        for witness in nontrivial:
            field = witness_boundary_field(witness, precision=deep)
            rep = compatibility_check(shape, field, J, 3, N)
            assert rep.holds

    @pytest.mark.parametrize("p, q", ((3, 6), (5, 5), (7, 7), (5, 10), (3, 9)))
    def test_every_nontrivial_constant_law_at_q4_and_up_is_compatible(self, p, q):
        # such a witness's field has h_1 + (q - 3) h_j exactly zero, so a
        # last site factor taken as exp of the left-to-right component sum
        # cancels every known digit; the product of the component
        # exponentials forms no sum.  n = 3 only at q = 5, where the guard
        # admits 5**10 configurations of the 2-ball
        deep = 160
        theta = edge_weight(p, p, deep)
        report = translation_invariant_cubic(theta, q, deep)
        nontrivial = [w for w in report.witnesses if _offset_valuation(w) < 100]
        assert len(nontrivial) == 2
        J = CouplingField.homogeneous(Fraction(p), p, q)
        for witness in nontrivial:
            field = witness_boundary_field(witness, precision=deep)
            for n in (2, 3) if q == 5 else (2,):
                assert compatibility_check(TreeShape(2), field, J, n, N).holds

    def test_constant_law_fails_at_the_root_marginal(self):
        # the root of the full tree has k + 1 = 3 children while the law
        # solves the two-child equation, so marginalizing down to the root
        # alone over-absorbs exactly one edge factor
        deep = 72
        theta = edge_weight(3, 3, deep)
        report = translation_invariant_cubic(theta, 3, deep)
        nontrivial = next(
            w for w in report.witnesses if _offset_valuation(w) != math.inf
        )
        field = witness_boundary_field(nontrivial, precision=deep)
        shape = TreeShape(2)
        J = CouplingField.homogeneous(Fraction(3), 3, 3)
        rep = compatibility_check(shape, field, J, 1, N)
        assert not rep.holds
        assert rep.resolved
