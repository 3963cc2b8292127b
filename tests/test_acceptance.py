"""End-to-end acceptance runs, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
asserts the full stated tolerance; random draws are seeded so failures are
reproducible.  Number 6 checks the classical certificate for ruling out
alternating laws; see the test body for what it demands.
"""

import math
import random
import time
from fractions import Fraction

from conftest import ball_with_edges

from padic_potts.cayley_tree import TreeShape
from padic_potts.gibbs_solver import (
    VERDICT_MULTIPLE_TI,
    _offset_valuation,
    period2_k2_analysis,
    recursion_backward,
    solve_k1_bipartite,
    translation_invariant_cubic,
    witness_boundary_field,
)
from padic_potts.padic_analytic import exp_domain_min_valuation, exp_p, log_p
from padic_potts.padic_core import PadicNumber, rational_valuation
from padic_potts.potts_model import (
    BoundaryField,
    CouplingField,
    compatibility_check,
    measure_norm_profile,
)

N = 32


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")


def _unit_fraction(rng: random.Random, p: int) -> Fraction:
    num = rng.randrange(1, p**4)
    while num % p == 0:
        num = rng.randrange(1, p**4)
    den = rng.randrange(1, p**4)
    while den % p == 0:
        den = rng.randrange(1, p**4)
    return Fraction(num, den) * rng.choice([1, -1])


def _exp_domain_fraction(rng: random.Random, p: int) -> Fraction:
    k = exp_domain_min_valuation(p) + rng.randrange(0, 3)
    return _unit_fraction(rng, p) * p**k


def test_01_exp_log_isometry():
    rng = random.Random(101)
    t0 = time.monotonic()
    checks = 0
    for p in (2, 3, 5, 7):
        for _ in range(500):
            x = PadicNumber.from_fraction(_exp_domain_fraction(rng, p), p, N)
            e = exp_p(x)
            assert e.norm_valuation() == 0
            assert e.distance_valuation(PadicNumber.one(p)) == x.norm_valuation()
            assert log_p(e) == x
            one_plus = PadicNumber.one(p, N) + x
            assert exp_p(log_p(one_plus)) == one_plus
            checks += 1
    elapsed = time.monotonic() - t0
    _report(1, "exp/log isometry", True, f"{checks} draws over p in 2,3,5,7, {elapsed:.1f}s")
    assert checks == 2000
    assert elapsed < 10.0


def test_02_product_offset_floor():
    rng = random.Random(102)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7])
        m = rng.choice([1, 2, 3])
        size = rng.randrange(1, 9)
        product = PadicNumber.one(p, N)
        for _ in range(size):
            a = PadicNumber.from_fraction(
                1 + _unit_fraction(rng, p) * p ** (m + rng.randrange(0, 3)), p, N
            )
            assert a.norm_valuation() == 0
            product = product * a
        assert product.distance_valuation(PadicNumber.one(p)) >= m
    _report(2, "unit product offset floor", True, "500 tuples, sizes up to 8")


def test_03_recursion_contracts():
    rng = random.Random(103)
    t0 = time.monotonic()
    shape = TreeShape(2)
    J = CouplingField.homogeneous(Fraction(3), 3, 2)
    leaves = ball_with_edges(shape, 6)[0][-shape.sphere_size(6):]
    for _ in range(50):
        boundary = {}
        for x in leaves:
            off = 3 ** rng.randrange(1, 4) * _unit_fraction(rng, 3)
            boundary[x] = (PadicNumber.from_fraction(1 + off, 3, N),)
        start = min(_offset_valuation(b) for b in boundary.values())
        got = recursion_backward(shape, boundary, J, 6, N)
        root_offset = _offset_valuation(got.root_z)
        assert root_offset >= int(start) + 6
    elapsed = time.monotonic() - t0
    _report(3, "six-level contraction", True, f"50 random boundaries, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_04_alternating_line_witnesses():
    rng = random.Random(104)
    deep = 72
    shape = TreeShape(1)
    for _ in range(20):
        J1 = 3 * _unit_fraction(rng, 3)
        J2 = 3 * _unit_fraction(rng, 3)
        t1 = exp_p(PadicNumber.from_fraction(J1, 3, deep))
        t2 = exp_p(PadicNumber.from_fraction(J2, 3, deep))
        report = solve_k1_bipartite(t1, t2, 3, deep)
        assert report.diagnostics["alpha_offset_valuation"] != "+inf"
        assert report.verdict == VERDICT_MULTIPLE_TI
        assert len(report.witnesses) == 2
        nontrivial = next(
            w for w in report.witnesses if _offset_valuation(w) != math.inf
        )
        trivial = next(
            w for w in report.witnesses if _offset_valuation(w) == math.inf
        )
        assert all(c == PadicNumber.one(3) for c in trivial)
        assert nontrivial[0] == PadicNumber.from_fraction(-2, 3, deep)
        assert _offset_valuation(nontrivial) >= 1

        field = witness_boundary_field(nontrivial, precision=deep)
        Jfield = CouplingField.bipartite(J1, J2, 3, 3)
        rep = compatibility_check(shape, field, Jfield, 2, N)
        assert rep.holds
        assert rep.max_discrepancy_valuation >= rep.threshold
    _report(4, "alternating-line witnesses", True, "20 coupling pairs, root set {1, -2}")


def test_05_constant_law_root_census():
    rng = random.Random(105)
    for _ in range(50):
        theta = Fraction(rng.randrange(-40, 41), rng.choice([1, 2, 5, 7]))
        q = rng.randrange(2, 9)
        lhs = (theta + q - 1) ** 2
        rhs = 1 * (1 + theta + q - 2) ** 2
        assert lhs == rhs  # the fixed-point identity pins z = 1 exactly

    one = PadicNumber.one(3)
    theta3 = exp_p(PadicNumber.from_fraction(3 * _unit_fraction(rng, 3), 3))
    multi = translation_invariant_cubic(theta3, 3, N)
    assert multi.diagnostics["disk_root_count"] >= 2
    assert any(w[0] == one for w in multi.witnesses)  # z = 1 among them
    assert any(w[0] != one for w in multi.witnesses)

    lone = translation_invariant_cubic(theta3, 2, N)
    assert lone.diagnostics["disk_root_count"] == 1
    assert lone.witnesses[0][0] == one
    _report(5, "constant-law root census", True, "50 exact draws; 3 roots at q=3, 1 at q=2")


def test_06_alternating_pair_certificate():
    rng = random.Random(106)
    violations = []
    for p in (3, 5):
        for _ in range(10):
            J = p * _unit_fraction(rng, p)
            theta = exp_p(PadicNumber.from_fraction(J, p))
            report = period2_k2_analysis(theta, p, N)
            diag = report.diagnostics
            leading = diag["leading_valuation"]
            middle = diag["middle_valuation"]
            constant = diag["constant_valuation"]
            roots = diag["disk_root_count"]
            if not (leading != "0" and middle != "0"):
                violations.append(f"p={p}: leading/middle valuations {leading}/{middle}")
            if constant != "0":
                violations.append(
                    f"p={p}: constant term valuation {constant}, certificate needs 0"
                )
            if roots != 0:
                violations.append(f"p={p}: disk search found {roots} two-cycle roots")
    ok = not violations
    _report(
        6,
        "alternating-pair exclusion certificate",
        ok,
        "20 draws over p in 3,5" if ok else "; ".join(sorted(set(violations))),
    )
    assert ok, (
        "the unit-constant-term certificate does not hold on this family: "
        + "; ".join(sorted(set(violations)))
    )


def test_07_marginal_consistency_oracle():
    t0 = time.monotonic()
    shape = TreeShape(2)
    J = CouplingField.homogeneous(Fraction(3), 3, 3)
    rep = compatibility_check(shape, BoundaryField.zero(3, 3), J, 2, N)
    elapsed = time.monotonic() - t0
    assert rep.holds
    assert rep.max_discrepancy_valuation >= N - 4
    assert rep.terms_enumerated < 10**5
    assert elapsed < 5.0

    line = TreeShape(1)
    Jline = CouplingField.homogeneous(Fraction(3), 3, 3)
    even = BoundaryField.by_parity(
        (PadicNumber.from_fraction(Fraction(3), 3, N), PadicNumber.zero(3, N)),
        (PadicNumber.zero(3, N), PadicNumber.zero(3, N)),
    )
    bad = compatibility_check(line, even, Jline, 2, N)
    assert not bad.holds
    assert bad.resolved  # the discrepancy is finite and certified
    _report(
        7,
        "marginal consistency oracle",
        True,
        f"zero field holds ({rep.terms_enumerated} terms, {elapsed:.2f}s); "
        f"alternating field fails at valuation {bad.max_discrepancy_valuation}",
    )


def test_08_norm_boundedness_split():
    shape = TreeShape(2)
    J2 = CouplingField.homogeneous(Fraction(3), 3, 2)
    J3 = CouplingField.homogeneous(Fraction(3), 3, 3)
    profile2 = measure_norm_profile(shape, BoundaryField.zero(2, 3), J2, 2, N)
    profile3 = measure_norm_profile(shape, BoundaryField.zero(3, 3), J3, 2, N)
    assert all(v >= 0 for v in profile2)
    assert any(v < 0 for v in profile3)
    _report(
        8,
        "norm boundedness split",
        True,
        f"q=2 minima {profile2}, q=3 minima {profile3}",
    )


def test_09_rational_oracle():
    rng = random.Random(109)
    count = 0
    while count < 1000:
        p = rng.choice([2, 3, 5, 7])
        depth = rng.randrange(1, 5)
        exact = Fraction(rng.randrange(-50, 51), rng.randrange(1, 30))
        value = PadicNumber.from_fraction(exact, p, N)
        ok = True
        for _ in range(depth):
            op = rng.choice(["add", "sub", "mul", "div"])
            other = Fraction(rng.randrange(-50, 51), rng.randrange(1, 30))
            if op == "add":
                exact, value = exact + other, value + PadicNumber.from_fraction(other, p, N)
            elif op == "sub":
                exact, value = exact - other, value - PadicNumber.from_fraction(other, p, N)
            elif op == "mul":
                exact, value = exact * other, value * PadicNumber.from_fraction(other, p, N)
            else:
                if other == 0:
                    ok = False
                    break
                exact, value = exact / other, value / PadicNumber.from_fraction(other, p, N)
        if not ok:
            continue
        count += 1
        assert value == PadicNumber.from_fraction(exact, p, N)
        assert value.norm_valuation() == rational_valuation(exact, value.prime)
    _report(9, "exact rational oracle", True, "1000 expression chains, all primes")
