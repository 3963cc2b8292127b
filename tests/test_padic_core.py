import copy
import math
import operator
import pickle
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_potts.errors import DivisionByZero, PadicError, PrecisionExhausted
from padic_potts.padic_core import (
    _POW_INVERSE_BITS,
    PadicNumber,
    _inverse_mod,
    _is_prime,
    _vp,
    as_prime,
    rational_valuation,
    render_valuation,
)

from conftest import unit_fraction


class TestPrime:
    def test_small_primes_accepted(self):
        for p in (2, 3, 5, 7, 11, 97):
            assert as_prime(p).value == p

    def test_composite_rejected(self):
        for bad in (0, 1, 4, 6, 9, 91):
            with pytest.raises(ValueError):
                as_prime(bad)

    def test_agrees_with_a_sieve_below_ten_to_the_five(self):
        limit = 10**5
        sieve = [False, False] + [True] * (limit - 2)
        for f in range(2, int(limit**0.5) + 1):
            if sieve[f]:
                sieve[f * f :: f] = [False] * len(range(f * f, limit, f))
        assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
            3825123056546413051,  # strong pseudoprime to every prime base up to 23
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            as_prime(n)

    def test_large_primes_accepted(self):
        for p in (2**31 - 1, 2**61 - 1, 10**9 + 7):
            assert as_prime(p).value == p

    def test_construction_is_cached_by_value_and_type(self):
        assert as_prime(7) is as_prime(7)
        as_prime(2)
        for bad in (2.0, True, 3.0, [3]):
            with pytest.raises(ValueError, match="not prime"):
                as_prime(bad)

    def test_past_the_deterministic_range_is_refused(self):
        # 2**89 - 1 is prime, but past the bound where 13 bases decide primality
        with pytest.raises(ValueError, match="past"):
            as_prime(2**89 - 1)


def test_render_valuation():
    assert render_valuation(math.inf) == "+inf"
    assert render_valuation(-3) == "-3"
    assert render_valuation(0) == "0"
    assert render_valuation(PadicNumber.zero(3).norm_valuation()) == "+inf"


class TestFromRational:
    def test_eight_thirds_at_two(self):
        x = PadicNumber.from_fraction(Fraction(8, 3), 2, 10)
        assert x.norm_valuation() == 3
        # unit part is 1/3; frozen expansion from direct modular inversion
        assert x.unit_digits == (1, 1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_zero(self):
        z = PadicNumber.from_fraction(0, 5, 10)
        assert z.is_zero
        assert z.norm_valuation() == math.inf
        assert z.unit_digits == ()

    def test_minus_one_at_three(self):
        x = PadicNumber.from_fraction(-1, 3, 4)
        assert x.norm_valuation() == 0
        assert x.unit_digits == (2, 2, 2, 2)
        # reassemble: 1 + (2 + 2*3 + 2*9 + 2*27) = 81
        assert (1 + sum(d * 3**i for i, d in enumerate(x.unit_digits))) % 3**4 == 0


class TestFromRatio:
    @pytest.mark.parametrize(
        "num,den",
        [
            (12, 18),  # reduced by their gcd to 2/3
            (-35, 14),  # a common factor that is p itself at p = 7
            (7 * 49 * 4, 9),  # p in the numerator only
            (5, 7**3 * 10),  # p in the denominator only
            (0, 5),
            (1, 1),
        ],
    )
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_equals_from_fraction(self, p, num, den):
        got = PadicNumber.from_ratio(num, den, p, 12)
        want = PadicNumber.from_fraction(Fraction(num, den), p, 12)
        assert (got._key(), got.precision, got.prime) == (want._key(), want.precision, want.prime)
        assert got.value == Fraction(num, den)

    def test_strips_p_from_either_side(self):
        x = PadicNumber.from_ratio(2 * 7**3, 6, 7, 8)
        assert (x.norm_valuation(), x.value) == (3, Fraction(7**3, 3))
        y = PadicNumber.from_ratio(6, 4 * 7**2, 7, 8)
        assert (y.norm_valuation(), y.value) == (-2, Fraction(3, 2 * 7**2))

    @pytest.mark.parametrize("den", [0, -3])
    def test_refuses_a_denominator_below_one(self, den):
        with pytest.raises(ValueError, match="denominator"):
            PadicNumber.from_ratio(1, den, 3, 8)

    @pytest.mark.parametrize("precision", [0, -1])
    def test_refuses_a_precision_below_one(self, precision):
        with pytest.raises(ValueError, match="precision"):
            PadicNumber.from_ratio(1, 2, 3, precision)


class TestLeadingDigits:
    @pytest.mark.parametrize(
        "x",
        [
            PadicNumber(0, 3, 10),
            PadicNumber(Fraction(8, 3), 2, 10),
            PadicNumber(Fraction(-7, 45), 3, 12),
            PadicNumber(Fraction(250, 3), 5, 9),
            PadicNumber(Fraction(1 + 7**20, 7**3), 7, 30, known_abs=5),
            PadicNumber(Fraction(9, 11), 3, 40, known_abs=6),
        ],
    )
    def test_prefix_of_the_unit_digits(self, x):
        for m in range(x.precision + 4):
            assert x.leading_digits(m) == x.unit_digits[:m]


def _fresh(rng, p, n_rel):
    """An inexact operand as an unreduced (value, known_abs) pair."""
    v = rng.randrange(-2, 3)
    return unit_fraction(rng, p, n_rel) * Fraction(p) ** v, v + rng.randrange(n_rel // 2, n_rel)


class TestBoundedRepresentatives:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_chain_keeps_the_representative_canonical(self, p):
        """A 200-step mul/inverse/add chain on inexact operands matches the same
        chain on unreduced Fractions, while its representative stays bounded."""
        rng = random.Random(f"chain:{p}")
        n_rel = 128
        X, K = _fresh(rng, p, n_rel)  # unreduced value and bound of the chain
        x = PadicNumber(X, p, n_rel, known_abs=K)
        P = x.precision
        exhausted = grown = 0
        for _ in range(200):
            op = rng.choice(("mul", "inverse", "add", "cancel"))
            Y, KY = _fresh(rng, p, n_rel)
            if op == "cancel":  # an operand agreeing with -X to m digits
                m = rng.randrange(rational_valuation(X, p), K + 3)
                Y, KY = -X + Fraction(p) ** m * unit_fraction(rng, p), K + 3
            y = PadicNumber(Y, p, n_rel, known_abs=KY)
            vx, vy = rational_valuation(X, p), rational_valuation(Y, p)
            if op != "inverse":
                P = min(P, y.precision)
            if op == "mul":
                X, K = X * Y, min(vx + KY, vy + K)
                run = partial(x.mul, y)
            elif op == "inverse":
                X, K = 1 / X, K - 2 * vx
                run = x.inverse
            else:
                X, K = X + Y, min(K, KY)
                run = partial(x.add, y)
            v = rational_valuation(X, p)
            if v >= K:
                with pytest.raises(PrecisionExhausted):
                    run()
                exhausted += 1
                X, K = _fresh(rng, p, n_rel)
                x = PadicNumber(X, p, n_rel, known_abs=K)
                P = x.precision
                continue
            x = run()
            e = max(0, -v)
            num, den = x.value.numerator, x.value.denominator
            assert (x.norm_valuation(), x.known_abs) == (v, K)
            P = min(P, K - v)
            assert x.precision == P
            assert den == p**e and 0 <= num < p ** (K + e)
            assert num.bit_length() <= (K + e) * math.log2(p) + 1
            assert x == PadicNumber(X, p, n_rel, known_abs=K)
            grown = max(grown, X.numerator.bit_length() + X.denominator.bit_length())
        assert exhausted and grown > 4 * n_rel * math.log2(p)


def test_copy_and_pickle_keep_the_number():
    for x in (
        PadicNumber(Fraction(5, 9), 3, 12, known_abs=4),
        PadicNumber(Fraction(2, 7), 5, 8),
        PadicNumber(0, 2),
    ):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert (y.norm_valuation(), y.precision, y.known_abs, y.value) == (
                x.norm_valuation(), x.precision, x.known_abs, x.value
            )


def _built(make, *args):
    """(valuation, precision, known_abs, value) of a construction, or its error."""
    try:
        x = make(*args)
    except (PadicError, ValueError) as e:
        return (type(e), str(e), getattr(e, "bound", None))
    return (x.norm_valuation(), x.precision, x.known_abs, x.value)


def test_from_residue_matches_the_public_constructor():
    rng = random.Random("from_residue")
    for p in (2, 3, 5, 7):
        for k in (-1, 0, 1, 2, 5, 35, 131):
            residues = [0, 1, -1, p**max(k, 0), -(p ** max(k, 0)) + 1]
            for j in range(k + 2):  # residues divisible by p, up to past p**k
                residues.append(p**j * (rng.randrange(1, p**8) * p + rng.randrange(1, p)))
            residues += [rng.randrange(-(p ** (k + 3)), p ** (k + 3)) for _ in range(8)]
            for r in residues:
                for n in (0, 1, 8, 32, 200):
                    assert _built(PadicNumber.from_residue, r, p, k, n) == _built(
                        lambda *a: PadicNumber(Fraction(a[0]), a[1], a[3], known_abs=a[2]),
                        r, p, k, n,
                    )
    with pytest.raises(PrecisionExhausted) as err:
        PadicNumber.from_residue(0, 3, 35, 32)
    assert err.value.bound == 35
    with pytest.raises(ValueError):
        PadicNumber.from_residue(5, 4, 10, 8)


class TestArithmetic:
    def test_additive_inverse_is_exact_zero(self):
        one = PadicNumber.one(3)
        assert (one + (-one)).is_zero

    def test_min_valuation_rule(self):
        a = PadicNumber.from_fraction(Fraction(3), 3, 10)
        b = PadicNumber.from_fraction(Fraction(9), 3, 10)
        assert (a + b).norm_valuation() == 1

    def test_inverse_pair(self):
        a = PadicNumber.from_fraction(Fraction(3), 3, 10)
        b = PadicNumber.from_fraction(Fraction(1, 3), 3, 10)
        prod = a * b
        assert prod == PadicNumber.one(3, 10)
        assert prod.norm_valuation() == 0

    def test_inverse_of_two_at_three(self):
        x = PadicNumber.from_fraction(2, 3, 5).inverse()
        assert x.unit_digits == (2, 1, 1, 1, 1)
        assert 2 * sum(d * 3**i for i, d in enumerate(x.unit_digits)) % 3**5 == 1

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            PadicNumber.one(3).div(PadicNumber.zero(3))

    def test_cancellation_raises(self):
        # (1 + 3^k) - 1 is fine; x - x for inexact x is not representable
        x = PadicNumber(Fraction(7), 3, 8, known_abs=8)
        with pytest.raises(PrecisionExhausted):
            x.sub(x)

    def test_exact_cancellation_is_zero(self):
        x = PadicNumber.from_fraction(Fraction(7, 5), 3, 8)
        assert x.sub(x).is_zero

    def test_precision_shrinks_to_min(self):
        a = PadicNumber.from_fraction(Fraction(1), 3, 20)
        b = PadicNumber.from_fraction(Fraction(3), 3, 10)
        assert (a + b).precision == 10

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            PadicNumber.one(3).add(PadicNumber.one(5))


class TestRender:
    def test_shape(self):
        x = PadicNumber.from_fraction(Fraction(12), 3, 4)
        text = x.render()
        assert text.startswith("3^1 * (")
        assert "O(3^5)" in text

    def test_zero_render(self):
        assert "0" in PadicNumber.zero(7).render()


nonzero_rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
).filter(lambda x: x != 0)


class TestOracleEquivalence:
    """PadicNumber arithmetic must agree with exact Fraction arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(x=nonzero_rationals, y=nonzero_rationals)
    def test_add_mul_match_fractions(self, x, y):
        for p in (2, 3, 5):
            a = PadicNumber.from_fraction(x, p, 24)
            b = PadicNumber.from_fraction(y, p, 24)
            if x + y != 0:
                assert (a + b) == PadicNumber.from_fraction(x + y, p, 24)
            assert (a * b) == PadicNumber.from_fraction(x * y, p, 24)
            assert (a / b) == PadicNumber.from_fraction(x / y, p, 24)

    @settings(max_examples=200, deadline=None)
    @given(x=nonzero_rationals, y=nonzero_rationals)
    def test_valuation_laws(self, x, y):
        for p in (2, 3, 5):
            vx, vy = rational_valuation(x, p), rational_valuation(y, p)
            a = PadicNumber.from_fraction(x, p, 24)
            b = PadicNumber.from_fraction(y, p, 24)
            assert (a * b).norm_valuation() == vx + vy
            if x + y != 0:
                s = (a + b).norm_valuation()
                assert s >= min(vx, vy)
                if vx != vy:
                    assert s == min(vx, vy)

    def test_strong_triangle_random(self, rng):
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            x = unit_fraction(rng, p) * Fraction(p) ** rng.randrange(-3, 4)
            y = unit_fraction(rng, p) * Fraction(p) ** rng.randrange(-3, 4)
            if x + y == 0:
                continue
            got = PadicNumber.from_fraction(x + y, p, 16).norm_valuation()
            assert got >= min(rational_valuation(x, p), rational_valuation(y, p))


class TestEquality:
    def test_exact_values_compare_exactly(self):
        a = PadicNumber.from_fraction(Fraction(1), 3, 6)
        b = PadicNumber.from_fraction(Fraction(1 + 3**7), 3, 6)
        assert a != b  # both exact, so the deep digit still separates them

    def test_equal_at_shared_known_bound(self):
        a = PadicNumber(Fraction(1), 3, 6, known_abs=6)
        b = PadicNumber(Fraction(1 + 3**7), 3, 6, known_abs=6)
        assert a == b  # indistinguishable below the shared absolute bound

    def test_distinguishable_values(self):
        a = PadicNumber.from_fraction(Fraction(1), 3, 6)
        b = PadicNumber.from_fraction(Fraction(1 + 3**2), 3, 6)
        assert a != b

    def test_distance_valuation(self):
        a = PadicNumber.from_fraction(Fraction(1), 3, 20)
        b = PadicNumber.from_fraction(Fraction(1 + 2 * 3**5), 3, 20)
        assert a.distance_valuation(b) == 5


# The scalar kernel as it stood on Fraction representatives, one valuation
# loop and one modular inverse per reduction: the oracle of the capped-relative
# integer kernel, which must agree with it on every valuation, precision,
# bound, representative and error.


def _vp_loop(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _oracle_valuation(x: Fraction, p: int) -> int | None:
    if not x:
        return None
    return _vp_loop(x.numerator, p) or -_vp_loop(x.denominator, p)


def _oracle_bound(a, b):
    return b if a is None else a if b is None else min(a, b)


class _FractionPadic:
    """An exact value keeps its rational; an inexact one the canonical
    representative r / p**e of its class mod p**known_abs (p**e the p-part of
    the denominator, 0 <= r < p**(known_abs + e))."""

    def __init__(self, value, p: int, precision: int, known_abs: int | None = None):
        value = Fraction(value)
        val = _oracle_valuation(value, p)
        if known_abs is not None:
            if val is None or val >= known_abs:
                raise PrecisionExhausted(bound=known_abs)
            precision = min(precision, known_abs - val)
            e = max(0, -val)
            mod = p ** (known_abs + e)
            num = value.numerator * pow(value.denominator // p**e, -1, mod)
            value = Fraction(num % mod, p**e)
        self.value, self.p, self.precision, self.known_abs, self.val = (
            value, p, precision, known_abs, val
        )

    def key(self):
        return (self.val, self.precision, self.known_abs, self.value)

    def add(self, o):
        k = _oracle_bound(self.known_abs, o.known_abs)
        return _FractionPadic(self.value + o.value, self.p, min(self.precision, o.precision), k)

    def neg(self):
        if self.val is None:
            return self
        return _FractionPadic(-self.value, self.p, self.precision, self.known_abs)

    def sub(self, o):
        return self.add(o.neg())

    def mul(self, o):
        n = min(self.precision, o.precision)
        if self.val is None or o.val is None:
            return _FractionPadic(0, self.p, n)
        k = _oracle_bound(
            None if o.known_abs is None else self.val + o.known_abs,
            None if self.known_abs is None else o.val + self.known_abs,
        )
        return _FractionPadic(self.value * o.value, self.p, n, k)

    def inverse(self):
        if self.val is None:
            raise DivisionByZero("inverse of zero")
        k = None if self.known_abs is None else self.known_abs - 2 * self.val
        return _FractionPadic(1 / self.value, self.p, self.precision, k)

    def div(self, o):
        return self.mul(o.inverse())

    def pow(self, e: int):
        if e < 0:
            return self.inverse().pow(-e)
        out, base = _FractionPadic(1, self.p, self.precision), self
        while e:
            if e & 1:
                out = out.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return out

    def eq(self, o):
        k = _oracle_bound(self.known_abs, o.known_abs)
        diff = self.value - o.value
        if k is None:
            return diff == 0
        v = _oracle_valuation(diff, self.p)
        return v is None or v >= k

    def distance_valuation(self, o):
        k = _oracle_bound(self.known_abs, o.known_abs)
        v = _oracle_valuation(self.value - o.value, self.p)
        v = k if v is None or (k is not None and v >= k) else v
        return math.inf if v is None else v

    def valuation_at_least(self, k):
        if self.val is None:
            return True
        if self.known_abs is not None and k > self.known_abs:
            return False
        return self.val >= k

    def residue(self, k):
        if self.known_abs is not None and k > self.known_abs:
            raise PrecisionExhausted(
                f"residue mod p**{k} exceeds known precision", bound=self.known_abs
            )
        if self.val is None:
            return 0
        if self.value.denominator % self.p == 0:
            raise ValueError("rational has negative valuation, no residue mod p**k")
        return self.value.numerator * pow(self.value.denominator, -1, self.p**k) % self.p**k

    def leading_digits(self, m):
        if self.val is None:
            return ()
        m = min(m, self.precision)
        unit = self.value / Fraction(self.p) ** self.val
        r = unit.numerator * pow(unit.denominator, -1, self.p**m) % self.p**m
        return tuple(r // self.p**i % self.p for i in range(m))


def _outcome(run):
    """(comparable outcome, result): the result's (valuation, precision,
    known_abs, value) or plain answer, or its error's type, text and bound."""
    try:
        got = run()
    except (PadicError, ValueError) as exc:
        return ("raises", type(exc), str(exc), getattr(exc, "bound", None)), None
    if isinstance(got, PadicNumber):
        v = None if got.is_zero else int(got.norm_valuation())
        return ("number", v, got.precision, got.known_abs, got.value), got
    if isinstance(got, _FractionPadic):
        return ("number", *got.key()), got
    return ("answer", got), None


def _operand(rng, p: int, n_rel: int):
    """A fresh (kernel, oracle) pair: exact zero, a small integer, or p**v
    times a unit, exact or known to a random bound."""
    kind = rng.choice(("zero", "small", "exact", "inexact", "inexact"))
    if kind == "zero":
        x, known = Fraction(0), None
    elif kind == "small":
        x, known = Fraction(rng.choice((1, -1, 2, p, p + 1, p * p - 1))), None
    else:
        v = rng.randrange(-3, 4)
        x = unit_fraction(rng, p, rng.choice((4, 8, n_rel // 2 + 2))) * Fraction(p) ** v
        known = v + rng.randrange(1, n_rel + 4) if kind == "inexact" else None
    return PadicNumber(x, p, n_rel, known_abs=known), _FractionPadic(x, p, n_rel, known)


def _near(rng, other: "_FractionPadic", sign: int, n_rel: int):
    """An operand equal to sign * other up to p**m, m about other's known
    digits, so other + or - it cancels nearly or wholly."""
    p = other.p
    top = other.val + n_rel if other.known_abs is None else other.known_abs
    m = rng.choice((rng.randrange(other.val, top + 3), top + rng.randrange(-3, 3)))
    x = sign * other.value + Fraction(p) ** m * unit_fraction(rng, p)
    known = rng.choice((None, top, top + rng.randrange(-2, 3)))
    if known is not None and rational_valuation(x, p) >= known:
        known = None
    return PadicNumber(x, p, n_rel, known_abs=known), _FractionPadic(x, p, n_rel, known)


_BINARY = ("add", "sub", "mul", "div", "eq", "distance_valuation")
_UNARY = ("neg", "inverse", "pow", "valuation_at_least", "residue", "leading_digits")


def _calls(rng, op: str, n_rel: int, a, oa, b, ob):
    """The kernel call and the oracle call of one step."""
    if op == "eq":
        return (lambda: a == b), (lambda: oa.eq(ob))
    if op in _BINARY:
        return (lambda: getattr(a, op)(b)), (lambda: getattr(oa, op)(ob))
    if op == "pow":
        e = rng.randrange(-3, 4)
        return (lambda: a**e), (lambda: oa.pow(e))
    if op in ("neg", "inverse"):
        return getattr(a, op), getattr(oa, op)
    k = rng.randrange(0, n_rel + 6)
    return (lambda: getattr(a, op)(k)), (lambda: getattr(oa, op)(k))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n_rel", [8, 32, 128, 512])
def test_kernel_matches_the_fraction_oracle(p, n_rel):
    """Random chains of every kernel operation over exact and inexact operands,
    near-total cancellation included, agree step by step with the oracle."""
    rng = random.Random(f"oracle:{p}:{n_rel}")
    pool = [_operand(rng, p, n_rel) for _ in range(6)]
    kinds = set()
    for _ in range(250):
        a, oa = rng.choice(pool) if rng.random() < 0.8 else _operand(rng, p, n_rel)
        b, ob = rng.choice(pool) if rng.random() < 0.5 else _operand(rng, p, n_rel)
        op = rng.choice(_BINARY + _UNARY)
        if op in _BINARY and oa.val is not None and rng.random() < 0.3:
            b, ob = _near(rng, oa, 1 if op in ("sub", "eq", "distance_valuation") else -1, n_rel)
        run, oracle = _calls(rng, op, n_rel, a, oa, b, ob)
        (got, result), (want, expected) = _outcome(run), _outcome(oracle)
        assert got == want, (op, a, b)
        kinds.add((op, got[0]))
        if result is not None and not (
            result.known_abs is None and result.value.numerator.bit_length() > 16 * n_rel
        ):  # chain the result on, unless an exact value grows without bound
            pool[rng.randrange(len(pool))] = (result, expected)
    assert {("add", "raises"), ("sub", "raises")} & kinds  # cancellation was reached
    assert {("add", "number"), ("inverse", "number"), ("residue", "answer")} <= kinds


@pytest.mark.parametrize("p", [2, 3, 7, 2**61 - 1])
def test_vp_matches_the_one_at_a_time_loop(p):
    rng = random.Random(f"vp:{p}")
    # every v up to 2000 at small p; at p = 2**61 - 1 that is a 122,000-bit
    # integer, and the loop pays v divisions of it, so every 100th v there
    for v in range(0, 2001, 1 if p < 100 else 100):
        unit = rng.randrange(1, 10**9)
        while unit % p == 0:
            unit += 1
        x = rng.choice((1, -1)) * unit * p**v
        assert _vp(x, p) == _vp_loop(x, p) == v


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_inverse_mod_matches_pow(p):
    """Every width from 1 to 600 digits, so both sides of the crossover and
    every rounding of the halvings: the helper returns pow's integer."""
    rng = random.Random(f"inverse:{p}")
    assert p.bit_length() <= _POW_INVERSE_BITS < (p**600).bit_length()
    for r in range(1, 601):
        mod = p**r
        unit = rng.randrange(1, mod)
        while unit % p == 0:
            unit = rng.randrange(1, mod)
        wide = rng.randrange(1, 10**6)
        for a in (unit, -unit, 1, mod - 1, -1, 1 + wide * mod, wide * mod - 1,
                  unit + wide * mod):
            assert _inverse_mod(a, p, r) == pow(a, -1, mod), (a, r)


@pytest.mark.parametrize("p", [2, 7, 101, 2**61 - 1])
def test_inverse_mod_refuses_a_multiple_of_p_as_pow_does(p):
    for r in (1, 2, 5, 40, 300):
        for a in (0, p, 3 * p, p * (p**r + 1)):
            with pytest.raises(ValueError):
                pow(a, -1, p**r)
            with pytest.raises(ValueError):
                _inverse_mod(a, p, r)


def test_inverse_mod_at_a_prime_past_one_machine_digit():
    """A prime wider than 30 bits is inverted mod p itself, then lifted."""
    p = 2**61 - 1
    rng = random.Random("inverse:wide")
    for r in (1, 2, 3, 7, 20):
        a = rng.randrange(1, p**r)
        assert _inverse_mod(a, p, r) == pow(a, -1, p**r)


# Exact values are integer triples (valuation, a, b); their arithmetic must
# agree with Fraction arithmetic step by step, including the reductions that
# cancel factors other than p.

_SHARED = (2, 3, 5, 6, 7, 10, 11, 14, 15, 21, 35)
_FRACTION_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                 "div": operator.truediv}


def _exact_draw(rng, p: int) -> Fraction:
    """A signed rational built from factors the chain's values share, times a
    power of p: numerators and denominators meet common factors often."""
    num = math.prod(rng.choice(_SHARED) for _ in range(rng.randrange(0, 3)))
    den = math.prod(rng.choice(_SHARED) for _ in range(rng.randrange(0, 3)))
    return rng.choice((1, -1)) * Fraction(num, den) * Fraction(p) ** rng.randrange(-3, 4)


def _exact_state(x: PadicNumber, X: Fraction, p: int):
    """What the kernel reports about x, and what Fraction arithmetic says it should."""
    v = rational_valuation(X, p)
    digits = ()
    if X:
        unit = X / Fraction(p) ** v
        r = unit.numerator * pow(unit.denominator, -1, p**6) % p**6
        digits = tuple(r // p**i % p for i in range(min(6, x.precision)))
    return (
        (x.value.numerator, x.value.denominator, x.norm_valuation(), x.leading_digits(6)),
        (X.numerator, X.denominator, v, digits),
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_chain_matches_fraction_arithmetic(p):
    rng = random.Random(f"exact-chain:{p}")
    N = 24
    draws = [_exact_draw(rng, p) for _ in range(4)]
    pool = [(PadicNumber.from_fraction(X, p, N), X) for X in draws]
    for _ in range(400):
        (x, X), (y, Y) = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.3:
            Y = _exact_draw(rng, p)
            y = PadicNumber.from_fraction(Y, p, N)
        op = rng.choice(("add", "sub", "mul", "div", "neg", "inverse", "pow"))
        if (op == "div" and not Y) or (op == "inverse" and not X):
            continue
        if op == "pow":
            e = rng.randrange(-2 if X else 0, 4)
            z, Z = x**e, X**e
        elif op in ("neg", "inverse"):
            z, Z = getattr(x, op)(), -X if op == "neg" else 1 / X
        else:
            z, Z = getattr(x, op)(y), _FRACTION_OPS[op](X, Y)
        got, want = _exact_state(z, Z, p)
        assert got == want, (op, X, Y)
        assert z.known_abs is None and z.is_zero == (Z == 0)
        assert z == PadicNumber.from_fraction(Z, p, N) and z == Z
        assert z != PadicNumber.from_fraction(Z + Fraction(p) ** 40, p, N)
        for w, W in pool:
            assert (z == w) == (Z == W)
            assert z.distance_valuation(w) == (math.inf if Z == W else rational_valuation(Z - W, p))
        if Z.numerator.bit_length() + Z.denominator.bit_length() < 400:
            pool[rng.randrange(len(pool))] = (z, Z)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_products_cancel_shared_factors(p):
    for a, b in ((Fraction(6, 35), Fraction(35, 6)), (Fraction(-14, 15), Fraction(15, -14)),
                 (Fraction(p**2 * 6, 35), Fraction(35, 6 * p**2))):
        prod = PadicNumber.from_fraction(a, p, 16) * PadicNumber.from_fraction(b, p, 16)
        assert prod.value == 1 and prod == PadicNumber.one(p, 16)
        assert prod.norm_valuation() == 0 and prod.leading_digits(3) == (1, 0, 0)


@pytest.mark.parametrize("x", [Fraction(7, 5), Fraction(-12, 35), Fraction(1, 3**4), Fraction(0)])
def test_exact_difference_with_itself_is_the_exact_zero(x):
    for p in (2, 3, 5, 7):
        a = PadicNumber.from_fraction(x, p, 10)
        for d in (a - a, a + (-a), a.sub(PadicNumber.from_fraction(x, p, 20))):
            assert d.is_zero and d.known_abs is None and d.value == 0
            assert d == PadicNumber.zero(p) and d.norm_valuation() == math.inf
        assert a.distance_valuation(a) == math.inf
