import math
import random
from fractions import Fraction

import pytest

from padic_potts.errors import DomainViolation, LiftStall, PrecisionExhausted
from padic_potts.padic_analytic import (
    PLAN_CACHE_SIZE,
    ROOT_RESIDUAL_MARGIN,
    _MIN_BLOCK,
    _newton_lift,
    _series_plan,
    exp_domain_min_valuation,
    exp_p,
    hensel_roots_in_disk,
    log_p,
)
from padic_potts.padic_core import (
    PadicNumber,
    Prime,
    _inverse_mod,
    _vp,
    as_prime,
    rational_valuation,
)

from conftest import exp_domain_fraction


def num(x, p, n=32):
    return PadicNumber.from_fraction(Fraction(x), p, n)


def residue_of_rational(x: Fraction | int, p: int | Prime, k: int) -> int:
    """The unique integer r in [0, p**k) with x == r mod p**k.

    Requires valuation(x) >= 0 (the denominator must be prime to p).
    """
    pv = as_prime(p).value
    x = Fraction(x)
    mod = pv**k
    if x.denominator % pv == 0:
        raise ValueError("rational has negative valuation, no residue mod p**k")
    return x.numerator * pow(x.denominator, -1, mod) % mod


def _poly_eval_fraction(coeffs: list[Fraction], z: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


class TestDomains:
    def test_exp_domain_thresholds(self):
        assert exp_domain_min_valuation(2) == 2
        assert exp_domain_min_valuation(3) == 1
        assert exp_domain_min_valuation(7) == 1

    def test_disk_membership(self):
        exp_p(num(3, 3))
        exp_p(num(0, 3))
        with pytest.raises(DomainViolation):
            exp_p(num(1, 3))
        log_p(num(4, 3))
        with pytest.raises(DomainViolation):
            log_p(num(2, 3))

    def test_exp_rejects_outside(self):
        with pytest.raises(DomainViolation):
            exp_p(num(2, 2))  # p=2 needs valuation >= 2
        with pytest.raises(DomainViolation):
            exp_p(num(1, 5))

    def test_log_rejects_outside(self):
        with pytest.raises(DomainViolation):
            log_p(num(2, 3))  # valuation(2 - 1) = 0


class TestExpLog:
    def test_exp_zero(self):
        assert exp_p(PadicNumber.zero(3)) == PadicNumber.one(3)

    def test_exp_is_unit_with_matching_offset(self):
        e = exp_p(num(3, 3))
        assert e.norm_valuation() == 0
        assert (e - 1).norm_valuation() == 1

    # frozen residues from an independent partial-sum oracle over Fractions
    def test_frozen_series_values(self):
        assert exp_p(num(3, 3)).residue(12) == 204349
        assert exp_p(num(5, 5)).residue(8) == 349831
        assert exp_p(num(4, 2)).residue(12) == 333
        assert log_p(num(4, 3)).residue(12) == 303798

    def test_log_one_is_zero(self):
        assert log_p(PadicNumber.one(3)).is_zero

    def test_log_exp_round_trip_exact(self):
        x = num(3, 3)
        assert log_p(exp_p(x)) == x

    def test_exp_log_round_trip_exact(self):
        z = num(4, 3)
        assert exp_p(log_p(z)) == z

    def test_homomorphism_random(self, rng):
        for _ in range(60):
            p = rng.choice((2, 3, 5, 7))
            x = num(exp_domain_fraction(rng, p), p)
            y = num(exp_domain_fraction(rng, p), p)
            lhs = exp_p(x + y)
            rhs = exp_p(x) * exp_p(y)
            assert lhs.distance_valuation(rhs) >= 30

    def test_log_of_product(self, rng):
        for _ in range(60):
            p = rng.choice((3, 5))
            z = exp_p(num(exp_domain_fraction(rng, p), p))
            w = exp_p(num(exp_domain_fraction(rng, p), p))
            assert log_p(z * w).distance_valuation(log_p(z) + log_p(w)) >= 30

    def test_isometry(self, rng):
        for _ in range(60):
            p = rng.choice((2, 3, 5, 7))
            x = num(exp_domain_fraction(rng, p), p)
            assert (exp_p(x) - 1).norm_valuation() == x.norm_valuation()

    def test_precision_override_deepens_exact_input(self):
        shallow = exp_p(num(3, 3, 16))
        deep = exp_p(num(3, 3, 16), precision=40)
        assert deep.known_abs > shallow.known_abs
        assert deep.residue(12) == 204349


# The series loops as first written, with one modular inverse per term, and
# their successors that keep the partial sum as num/den mod p**k and pay a
# few full-width products per term: the oracles of the blocked evaluation in
# padic_analytic, which must give the same residue, known_abs and precision.


def _exp_p_per_term(x: PadicNumber, precision: int | None = None) -> PadicNumber:
    p = x.prime
    pv = p.value
    n_rel = x.precision if precision is None else precision
    if x.is_zero:
        return PadicNumber.one(p, n_rel)
    vx = int(x.norm_valuation())
    k = vx + n_rel + 2
    if x.known_abs is not None:
        k = min(k, x.known_abs)
    modulus = pv**k
    ux = residue_of_rational(x.value / Fraction(pv) ** vx, p, k)
    total, term_v, term_u, n = 1, 0, 1, 1
    while (n * vx - k) * (pv - 1) < n - 1:
        j = _vp(n, pv)
        term_v += vx - j
        term_u = term_u * ux * pow(n // pv**j, -1, modulus) % modulus
        if term_v < k:
            total = (total + term_u * pv**term_v) % modulus
        n += 1
    return PadicNumber.from_residue(total, p, k, n_rel)


def _log_p_per_term(x: PadicNumber, precision: int | None = None) -> PadicNumber:
    p = x.prime
    pv = p.value
    n_rel = x.precision if precision is None else precision
    t = x.value - 1
    vt = int((x - 1).norm_valuation())
    k = vt + n_rel + 2
    if x.known_abs is not None:
        k = min(k, x.known_abs)
    slack = 1
    while pv**slack <= k:
        slack += 1
    guard = pv ** (k + slack)
    t_res = residue_of_rational(t, p, k + slack)
    modulus = pv**k
    total, power, n = 0, 1, 1
    while True:
        digits = 1
        while pv**digits <= n:
            digits += 1
        if n * vt - (digits - 1) >= k:
            break
        power = power * t_res % guard
        j = _vp(n, pv)
        term = power // pv**j * pow(n // pv**j, -1, modulus) % modulus
        total = (total + (term if n % 2 else -term)) % modulus
        n += 1
    return PadicNumber.from_residue(total, p, k, n_rel)


def _exp_p_num_den(x: PadicNumber, precision: int | None = None) -> PadicNumber:
    p = x.prime
    pv = p.value
    n_rel = x.precision if precision is None else precision
    if x.is_zero:
        return PadicNumber.one(p, n_rel)
    vx = int(x.norm_valuation())
    k = vx + n_rel + 2
    if x.known_abs is not None:
        k = min(k, x.known_abs)
    modulus = pv**k
    ux = x._unit_mod(k) % modulus
    # den is the product of the unit parts of 1..n, so the n-th term
    # x**n / n! is ux**n * p**term_v over den
    num = den = 1
    term_v, ux_n, n = 0, 1, 1
    while (n * vx - k) * (pv - 1) < n - 1:
        j = _vp(n, pv)
        u = n // pv**j
        term_v += vx - j
        ux_n = ux_n * ux % modulus
        num *= u
        if term_v < k:
            num += ux_n * pv**term_v
        num %= modulus
        den = den * u % modulus
        n += 1
    return PadicNumber.from_residue(num * pow(den, -1, modulus) % modulus, p, k, n_rel)


def _log_p_num_den(x: PadicNumber, precision: int | None = None) -> PadicNumber:
    p = x.prime
    pv = p.value
    n_rel = x.precision if precision is None else precision
    t = x - 1
    if t.is_zero:
        return PadicNumber.zero(p, n_rel)
    vt = t._val
    k = vt + n_rel + 2
    if x.known_abs is not None:
        k = min(k, x.known_abs)
    # dividing a term by n = p^j * unit consumes j guard digits
    slack = 1
    while pv**slack <= k:
        slack += 1
    guard = pv ** (k + slack)
    t_res = t._unit_mod(k + slack) * pv**vt % guard
    modulus = pv**k
    num, den, power, n = 0, 1, 1, 1
    while True:
        digits = 1
        while pv**digits <= n:
            digits += 1
        if n * vt - (digits - 1) >= k:
            break
        power = power * t_res % guard
        j = _vp(n, pv)
        u = n // pv**j
        term = power // pv**j * den
        num = (num * u + (term if n % 2 else -term)) % modulus
        den = den * u % modulus
        n += 1
    return PadicNumber.from_residue(num * pow(den, -1, modulus) % modulus, p, k, n_rel)


def _series_arguments(p: int, n_rel: int):
    """Exact and inexact x = p**v * unit at the first two valuations the
    exponential admits."""
    rng = random.Random(f"series:{p}:{n_rel}")
    vmin = exp_domain_min_valuation(p)
    for v in (vmin, vmin + 1):
        unit = Fraction(rng.randrange(p ** (n_rel + 4)) * p + 1, rng.randrange(10**6) * p + 1)
        x = Fraction(p) ** v * unit
        yield PadicNumber(x, p, n_rel)
        yield PadicNumber(x, p, n_rel, known_abs=v + n_rel // 2 + 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n_rel", [8, 32, 128, 512])
def test_series_match_the_per_term_inverse_loops(p, n_rel):
    for x in _series_arguments(p, n_rel):
        for new, old in (
            (exp_p(x), _exp_p_per_term(x)),
            (log_p(x + 1), _log_p_per_term(x + 1)),
            (log_p(exp_p(x)), _log_p_per_term(_exp_p_per_term(x))),
        ):
            assert (new.value, new.known_abs, new.precision) == (
                old.value,
                old.known_abs,
                old.precision,
            )


def _outcome(f, x, precision=None):
    """(value, known_abs, precision) of f(x), or the error's type, text and bound."""
    try:
        r = f(x, precision)
    except PrecisionExhausted as e:
        return (type(e), str(e), e.bound)
    return (r.value, r.known_abs, r.precision)


def _block_case(log: bool, pv: int, v: int, k: int) -> str | None:
    """Where a series plan's term count falls against its block size m."""
    _, blocks = _series_plan(log, pv, v, k)  # the first block is listed last
    m, last = len(blocks[-1][0]), len(blocks[0][0])
    if len(blocks) == 1:
        return "below" if m < _MIN_BLOCK else None
    return "multiple" if last == m else "past" if last == 1 else None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n_rel", [1, 2, 3, 8, 32, 128, 300, 512])
def test_blocked_series_match_the_num_den_loops(p, n_rel):
    # exact arguments, inexact ones whose known_abs caps k below v + N + 2,
    # and precision overrides, at every valuation from vmin to vmin + 4
    rng = random.Random(f"blocked:{p}:{n_rel}")
    vmin = exp_domain_min_valuation(p)
    for v in range(vmin, vmin + 5):
        unit = Fraction(rng.randrange(1, p ** (n_rel + 4)) * p + 1, rng.randrange(10**6) * p + 1)
        x = Fraction(p) ** v * unit * rng.choice((1, -1))
        args = [
            (PadicNumber(x, p, n_rel), None),
            (PadicNumber(x, p, n_rel, known_abs=v + rng.randrange(1, n_rel + 2)), None),
            (PadicNumber(x, p, n_rel), n_rel + rng.randrange(1, 40)),
            (PadicNumber(x, p, n_rel, known_abs=v + n_rel + 1), 2 * n_rel),
        ]
        for a, precision in args:
            assert _outcome(exp_p, a, precision) == _outcome(_exp_p_num_den, a, precision)
            assert _outcome(log_p, a + 1, precision) == _outcome(_log_p_num_den, a + 1, precision)
            e = exp_p(a, precision)
            assert _outcome(log_p, e) == _outcome(_log_p_num_den, e)


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("log", [False, True], ids=["exp", "log"])
def test_blocked_series_at_block_boundaries(p, log):
    # term counts below one block, at an exact multiple of m and one past it,
    # reached through the precision override k = v + precision + 2
    rng = random.Random(f"boundaries:{p}:{log}")
    vmin = exp_domain_min_valuation(p)
    found = {}
    for v in range(vmin, vmin + 8):
        for k in range(v + 3, 700, v):
            case = _block_case(log, p, v, k)
            if case is not None:
                found.setdefault(case, []).append((v, k))
    assert set(found) == {"below", "multiple", "past"}
    f, oracle = (log_p, _log_p_num_den) if log else (exp_p, _exp_p_num_den)
    for cases in found.values():
        for v, k in cases[:3] + cases[-3:]:
            unit = Fraction(rng.randrange(1, p**k) * p + 1, rng.randrange(10**6) * p + 1)
            x = PadicNumber(Fraction(p) ** v * unit, p, 8)
            arg = x + 1 if log else x
            assert _outcome(f, arg, k - v - 2) == _outcome(oracle, arg, k - v - 2)


def _series_plan_per_term(log: bool, pv: int, v: int, k: int) -> tuple:
    """The series plan as first built, one term at a time (a ``_vp`` call per
    term, the term count found by the loop), with each block's own W and
    p**E of the first block: the oracle of ``_series_plan``."""
    terms = []  # (e_n, the unit that term n brings into D_n)
    if log:
        n = digits = 1
        while True:
            while pv**digits <= n:
                digits += 1
            if n * v - (digits - 1) >= k:
                break
            j = _vp(n, pv)
            terms.append((n * v - j, n // pv**j if n % 2 else -(n // pv**j)))
            n += 1
    else:
        terms.append((0, 1))
        while (len(terms) * v - k) * (pv - 1) < len(terms) - 1:
            n = len(terms)
            j = _vp(n, pv)
            terms.append((terms[-1][0] + v - j, n // pv**j))
    m = max(_MIN_BLOCK, math.isqrt(len(terms)))
    blocks, least, above = [], k, None
    for s in reversed(range(0, len(terms), m)):
        chunk = terms[s:s + m]
        least = min(least, *(e for e, _ in chunk))
        w = rest = math.prod(d for _, d in chunk)
        coeffs = []
        for e, d in chunk:
            rest = w // d if log else rest // d
            coeffs.append(rest * pv ** (e - least))
        f = 1 if above is None else pv ** (above - least) * (w if log else 1)
        blocks.append((tuple(coeffs), w, f))
        above = least
    return pv**least, tuple(blocks)


@pytest.mark.parametrize("log", [False, True], ids=["exp", "log"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_sieved_plan_matches_the_per_term_plan(p, log):
    # every k up to 79 and the N = 128/256/512 plan sizes, at v = 1..4 (at
    # p = 2 the exponential starts at v = 2)
    for v in range(exp_domain_min_valuation(p) if not log else 1, 5):
        for k in [*range(1, 80), 131, 259, 260, 515, 520]:
            first, blocks = _series_plan.__wrapped__(log, p, v, k)
            old_first, old_blocks = _series_plan_per_term(log, p, v, k)
            modulus = p**k
            assert [c for c, _, _ in blocks] == [c for c, _, _ in old_blocks]
            assert [f for _, _, f in blocks] == [f for _, _, f in old_blocks]
            den = 1  # the product of the W folded before each block
            for (_, running, _), (_, w, _) in zip(blocks, old_blocks):
                assert running == den
                den = den * w % modulus
            assert first == old_first * _inverse_mod(den, p, k) % modulus


def test_plan_cache_is_bounded_by_a_fixed_constant():
    info = _series_plan.cache_info()
    assert type(PLAN_CACHE_SIZE) is int and info.maxsize == PLAN_CACHE_SIZE
    for k in range(4, 4 + 2 * PLAN_CACHE_SIZE):
        exp_p(PadicNumber(Fraction(3), 3, 8), precision=k)
        assert _series_plan.cache_info().currsize <= PLAN_CACHE_SIZE
    assert _series_plan.cache_info().currsize == PLAN_CACHE_SIZE


class TestHensel:
    def test_linear(self):
        f = (num(-1, 3), num(1, 3))  # z - 1
        roots = hensel_roots_in_disk(f, PadicNumber.one(3), 0)
        assert len(roots) == 1
        assert roots[0] == PadicNumber.one(3, roots[0].precision)

    def test_composed_line_map_roots(self):
        # z^2 + (q-2)z - (q-1) for q=3: roots 1 and -2, both in the disk at p=3
        q = 3
        f = (num(-(q - 1), 3), num(q - 2, 3), num(1, 3))
        roots = hensel_roots_in_disk(f, PadicNumber.one(3), 0)
        values = sorted(r.residue(6) % 3**6 for r in roots)
        assert values == sorted((1, (-2) % 3**6))

    def test_q2_composed_map_keeps_only_trivial_root(self):
        # z^2 + 0*z - 1: roots 1 and -1; only 1 lies at offset >= 1
        f = (num(-1, 3), num(0, 3), num(1, 3))
        roots = hensel_roots_in_disk(f, PadicNumber.one(3), 1)
        assert len(roots) == 1
        assert roots[0].distance_valuation(PadicNumber.one(3)) >= 28

    def test_planted_roots_recovered(self):
        # (z - 1)(z - 4)(z - 10): all three in the disk offset >= 1 at p=3
        p = 3
        planted = (Fraction(1), Fraction(4), Fraction(10))
        c0 = -planted[0] * planted[1] * planted[2]
        c1 = planted[0] * planted[1] + planted[0] * planted[2] + planted[1] * planted[2]
        c2 = -(planted[0] + planted[1] + planted[2])
        f = (num(c0, p), num(c1, p), num(c2, p), num(1, p))
        roots = hensel_roots_in_disk(f, PadicNumber.one(p), 1)
        assert sorted(r.residue(8) for r in roots) == sorted(
            PadicNumber.from_fraction(r, p, 32).residue(8) for r in planted
        )

    def test_planted_roots_and_inert_factor(self):
        # (z - 1)(z^2 + z + 1): the quadratic has no roots in Q_3,
        # so the disk search must return exactly the planted root
        p = 3
        f = (num(-1, p), num(0, p), num(0, p), num(1, p))  # z^3 - 1
        roots = hensel_roots_in_disk(f, PadicNumber.one(p), 1)
        assert len(roots) == 1
        assert roots[0] == PadicNumber.one(p, roots[0].precision)

    def test_naive_lift_oracle_agreement(self):
        # digit-by-digit exhaustive refinement to depth 6 must cluster around
        # exactly the returned roots
        p = 3
        planted = (Fraction(1), Fraction(7))
        f_fracs = [planted[0] * planted[1], -(planted[0] + planted[1]), Fraction(1)]
        f = tuple(num(c, p) for c in f_fracs)
        survivors = [r for r in range(p) if _eval_mod(f_fracs, r, p, 1) == 0]
        for depth in range(1, 6):
            mod = p ** (depth + 1)
            survivors = [
                r + d * p**depth
                for r in survivors
                for d in range(p)
                if _eval_mod(f_fracs, r + d * p**depth, p, depth + 1) == 0
            ]
        # survivors carry a cloud of radius p**(depth - v(f'(root))) around each
        # true root; reducing two digits below the refinement depth collapses
        # the cloud (v(f') = 1 here) while the planted roots stay distinct
        roots = hensel_roots_in_disk(f, PadicNumber.one(p), 0)
        root_residues = sorted(r.residue(4) for r in roots)
        assert root_residues == sorted({s % p**4 for s in survivors})

    @pytest.mark.parametrize(
        "coeffs, match",
        [
            ((), "at least one coefficient"),
            ((num(1, 3), num(1, 5)), "mix primes"),
            ((num(1, 3), num(0, 3)), "leading coefficient is zero"),
            ((num(0, 3),), "^the zero polynomial vanishes on the whole disk$"),
        ],
        ids=["empty", "mixed-primes", "zero-leading", "zero-polynomial"],
    )
    def test_refusals(self, coeffs, match):
        with pytest.raises(ValueError, match=match):
            hensel_roots_in_disk(coeffs, PadicNumber.one(3), 0)

    def test_double_root_stalls(self):
        f = (num(1, 3, 12), num(-2, 3, 12), num(1, 3, 12))  # (z-1)^2
        with pytest.raises(LiftStall):
            hensel_roots_in_disk(f, PadicNumber.one(3, 12), 0)

    def test_double_root_stalls_at_high_precision(self):
        # one refinement level per digit down to depth 2N = 1200 must not
        # exhaust the interpreter stack
        f = tuple(num(c, 3, 600) for c in (1, -2, 1))  # (z-1)^2
        with pytest.raises(LiftStall):
            hensel_roots_in_disk(f, PadicNumber.one(3, 600), 0)

    def test_root_residuals_certified(self, rng):
        p = 5
        a, b = Fraction(1 + 5), Fraction(1 + 2 * 25)
        f = (num(a * b, p), num(-(a + b), p), num(1, p))
        for r in hensel_roots_in_disk(f, PadicNumber.one(p), 1):
            val = f[-1]
            for c in reversed(f[:-1]):
                val = val * r + c
            assert val.is_zero or val.norm_valuation() >= 28


def _eval_mod(coeffs, z, p, k):
    mod = p**k
    total = Fraction(0)
    for i, c in enumerate(coeffs):
        total += c * z**i
    num_, den = total.numerator, total.denominator
    assert den % p != 0
    return (num_ * pow(den, -1, mod)) % mod


def _newton_lift_on_fractions(norm, r, p, digits):
    """The Newton lift as first written, evaluating the Fraction polynomial
    and its derivative at every doubling step: the oracle of the integer
    Horner lift."""
    pv = p.value
    deriv = [j * c for j, c in enumerate(norm)][1:]
    w, prec = r, 1
    while prec < digits:
        prec = min(2 * prec, digits)
        mod = pv**prec
        fw = residue_of_rational(_poly_eval_fraction(norm, Fraction(w)), p, prec)
        dw = residue_of_rational(_poly_eval_fraction(deriv, Fraction(w)), p, prec)
        w = (w - fw * pow(dw, -1, mod)) % mod
    return w


def _newton_lift_inverting_per_step(norm, r, p, digits):
    """The integer Horner lift that pays pow(f'(w), -1, p**prec) at every
    doubling step: the oracle of the lift that carries the inverse along."""
    pv = p.value
    coeffs = [residue_of_rational(c, p, digits) for c in norm]
    deriv = [j * c for j, c in enumerate(coeffs)][1:]
    w = r
    prec = 1
    while prec < digits:
        prec = min(2 * prec, digits)
        mod = pv**prec
        fw = sum(c * w**i for i, c in enumerate(coeffs)) % mod
        dw = sum(c * w**i for i, c in enumerate(deriv)) % mod
        w = (w - fw * pow(dw, -1, mod)) % mod
    return w


def _simple_roots(rng, p, degree):
    """A random content-free polynomial of the given degree with p-integral
    coefficients, and its simple residue roots mod p."""
    norm = [
        Fraction(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**3) * p + 1)
        * p ** rng.randrange(0, 3)
        for _ in range(degree + 1)
    ]
    norm[rng.randrange(degree + 1)] = Fraction(rng.randrange(1, p), p + 1)  # content 0
    f_mod = [residue_of_rational(c, p, 1) for c in norm]
    roots = []
    for r in range(p):
        at_r = sum(c * r**i for i, c in enumerate(f_mod)) % p
        slope = sum(i * c * r ** (i - 1) for i, c in enumerate(f_mod) if i) % p
        if not at_r and slope:
            roots.append(r)
    return norm, roots


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_carried_inverse_lift_matches_the_per_step_inverse(p):
    """Random simple-root polynomials, every digit count from 1 to 600 over
    the roots: the same residue as inverting f'(w) afresh at every step."""
    rng = random.Random(f"carried:{p}")
    prime = as_prime(p)
    digits = 1
    while digits <= 600:
        norm, roots = _simple_roots(rng, p, rng.randrange(1, 8))
        for r in roots[: 601 - digits]:
            w = _newton_lift([residue_of_rational(c, p, digits) for c in norm], r, prime, digits)
            assert w == _newton_lift_inverting_per_step(norm, r, prime, digits), (norm, r)
            digits += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_newton_lift_matches_the_fraction_evaluation(p):
    """Random content-free polynomials of degree 1-9 with p-integral
    coefficients: every simple residue root lifts to the same w."""
    rng = random.Random(f"newton:{p}")
    prime = as_prime(p)
    lifted = 0
    for degree in range(1, 10):
        for _ in range(6):
            norm, roots = _simple_roots(rng, p, degree)
            for r in roots:
                for digits in (1, 2, 3, 8, 33, 130):
                    reduced = [residue_of_rational(c, p, digits) for c in norm]
                    w = _newton_lift(reduced, r, prime, digits)
                    assert w == _newton_lift_on_fractions(norm, r, prime, digits)
                    at_w = _poly_eval_fraction(norm, Fraction(w))
                    assert residue_of_rational(at_w, p, digits) == 0
                lifted += 1
    assert lifted >= 20


# -- the Hensel root search as first written, walking its branches on
# Fractions: the oracle of the integer walk


def _shifted_coefficients(
    coeffs: list[Fraction], a: Fraction, b: Fraction
) -> list[Fraction]:
    """Coefficients of f(a + b*w) given those of f(z)."""
    deg = len(coeffs) - 1
    out = [Fraction(0)] * (deg + 1)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        ai = [ci * math.comb(i, j) * a ** (i - j) * b**j for j in range(i + 1)]
        for j, t in enumerate(ai):
            out[j] += t
    return out


def _poly_eval_int(coeffs: list[int], x: int, mod: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % mod
    return out


def _lift_digits(norm: list[Fraction], w: int, p: Prime) -> int | float:
    """Residual valuation of the lift; ``math.inf`` when w is an exact root."""
    return rational_valuation(_poly_eval_fraction(norm, Fraction(w)), p)


def _agree(a: Fraction, b: Fraction, p: Prime, digits: int) -> bool:
    return rational_valuation(a - b, p) >= digits


def _root_sort_key(value: Fraction, center: Fraction, p: Prime):
    diff = value - center
    v = rational_valuation(diff, p)
    if v == math.inf:
        return (1, 0, 0)
    unit = diff / Fraction(p.value) ** v
    return (0, v, residue_of_rational(unit, p, 12))


def _hensel_roots_on_fractions(f, center, min_valuation_offset):
    if not f:
        raise ValueError("a polynomial needs at least one coefficient")
    p = f[0].prime
    if any(c.prime != p for c in f):
        raise ValueError("coefficients mix primes")
    if len(f) > 1 and f[-1].is_zero:
        raise ValueError("leading coefficient is zero; drop it first")
    pv = p.value
    n_rel = min(c.precision for c in f)
    k_f = min((c.known_abs for c in f if c.known_abs is not None), default=None)
    target = n_rel - ROOT_RESIDUAL_MARGIN
    depth_cap = 2 * n_rel
    base_coeffs, c0 = [c.value for c in f], center.value
    found = []  # (value, digits known past offset)
    work = [("branch", 0, 0)]  # ("branch", prefix, depth) | ("root", value, known)
    while work:
        item = work.pop()
        if item[0] == "root":
            found.append(item[1:])
            continue
        _, prefix, depth = item
        a = c0 + Fraction(pv) ** min_valuation_offset * prefix
        b = Fraction(pv) ** (min_valuation_offset + depth)
        g = _shifted_coefficients(base_coeffs, a, b)
        content = min(rational_valuation(c, p) for c in g)
        norm = [c / Fraction(pv) ** content for c in g]
        norm_mod_p = [residue_of_rational(c, p, 1) for c in norm]
        deriv_mod_p = [(j * c) % pv for j, c in enumerate(norm_mod_p)][1:] or [0]
        children = []
        for r in range(pv):
            if _poly_eval_int(norm_mod_p, r, pv) != 0:
                continue
            if _poly_eval_int(deriv_mod_p, r, pv) != 0:
                digits = n_rel + min_valuation_offset + depth + 8
                w = _newton_lift([residue_of_rational(c, p, digits) for c in norm], r, p, digits)
                res = _lift_digits(norm, w, p)
                known = None if res == math.inf else min_valuation_offset + depth + res
                children.append(("root", a + b * w, known))
            elif depth + 1 > depth_cap:
                raise LiftStall(
                    f"residue branch at digits {prefix + r * pv**depth} "
                    f"did not separate within depth {depth_cap}"
                )
            else:
                children.append(("branch", prefix + r * pv**depth, depth + 1))
        work.extend(reversed(children))

    roots = []
    seen = []
    slope_coeffs = None if k_f is None else [(c * i).value for i, c in enumerate(f) if i]
    for value, lift_known in sorted(found, key=lambda rv: _root_sort_key(rv[0], c0, p)):
        residual = rational_valuation(_poly_eval_fraction(base_coeffs, value), p)
        if residual < target:
            continue
        if any(_agree(value, s, p, target) for s in seen):
            continue
        seen.append(value)
        known = lift_known
        if k_f is not None:
            slope = rational_valuation(_poly_eval_fraction(slope_coeffs, value), p)
            coeff_known = k_f - (0 if slope == math.inf else slope)
            known = coeff_known if known is None else min(known, coeff_known)
        if value == 0 and known is not None:
            raise PrecisionExhausted(
                "root indistinguishable from zero at working precision", bound=known
            )
        roots.append(PadicNumber(value, p, n_rel, known_abs=known))
    return roots


def _hensel_outcome(search, f, center, offset):
    """The roots as (value, precision, known_abs) in order, or the error's
    type, message and bound."""
    try:
        return [(r.value, r.precision, r.known_abs) for r in search(f, center, offset)]
    except (LiftStall, PrecisionExhausted) as exc:
        return type(exc), str(exc), getattr(exc, "bound", None)


def _p_free(rng, p, top):
    n = rng.randrange(1, top)
    return n + 1 if n % p == 0 else n


def _hensel_case(rng, p):
    """A random search: polynomial, center and offset, planting simple,
    exact (a nonnegative integer offset t) and double roots in the disk."""
    n_rel = rng.randrange(6, 30)
    offset = rng.randrange(3)
    rational = rng.random() < 0.5
    center = Fraction(rng.randrange(-30, 30))
    if rational and rng.random() < 0.5:
        center /= _p_free(rng, p, 40)
    degree = rng.randrange(1, 6)
    roots = []
    while len(roots) < degree and rng.random() < 0.8:
        kind = rng.choice(("simple", "exact", "double"))
        t = Fraction(rng.randrange(0, p**4))
        if kind == "simple":
            t = Fraction(rng.randrange(-(p**6), p**6), _p_free(rng, p, 50) if rational else 1)
        roots += [center + p**offset * t] * (2 if kind == "double" else 1)
    roots = roots[:degree]
    coeffs = [Fraction(1)]
    for r in roots:  # times (z - r)
        coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    for _ in range(degree - len(roots)):  # times a random linear factor
        c, lead = rng.randrange(-(p**5), p**5), rng.choice((1, p, _p_free(rng, p, 20)))
        coeffs = [lead * a + c * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    scale = Fraction(_p_free(rng, p, 30) * p ** rng.randrange(0, 4))
    if rational:
        # a deep denominator leaves some lifts short of the residual target
        scale /= _p_free(rng, p, 30) * p ** rng.choice((0, 1, 3, 6, 9, 12, 15, 18))
    inexact = rng.random() < 0.4
    f = []
    for c in coeffs:
        c *= scale
        known = None
        if inexact and c and rng.random() < 0.8:
            known = rational_valuation(c, p) + rng.randrange(1, n_rel + 10)
        f.append(PadicNumber(c, p, n_rel + rng.randrange(3), known_abs=known))
    return tuple(f), PadicNumber(center, p, n_rel), offset


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_integer_walk_matches_the_fraction_walk(p):
    """130 random searches per prime: the same roots in the same order, with
    the same precision and known_abs, or the same error, message and bound."""
    rng = random.Random(f"hensel:{p}")
    kinds = set()
    for _ in range(130):
        f, center, offset = _hensel_case(rng, p)
        got = _hensel_outcome(hensel_roots_in_disk, f, center, offset)
        assert got == _hensel_outcome(_hensel_roots_on_fractions, f, center, offset), (
            f, center, offset)
        if isinstance(got, tuple):
            kinds.add(got[0].__name__)
        else:
            kinds.update("exact root" if known is None else "root" for _, _, known in got)
    assert kinds >= {"root", "exact root", "LiftStall"}
