"""Exact p-adic scalar arithmetic at bounded working precision.

Every value is kept as integers: its valuation v and a unit part.  Values
built directly from rationals are exact: the unit part is a reduced pair of
p-free integers a/b (b > 0), for the value p**v * a/b.  Series evaluations
and other approximations carry an absolute bound known_abs: the ideal value
is only known modulo p**known_abs.  They are kept in the capped-relative form
of Caruso, "Computations with p-adic numbers" (arXiv:1701.06794, sec. 2):
the unit residue u mod p**(known_abs - v).  Sums align by an integer shift
and reduce once, products multiply units (exact ones with cross-gcds, as
``fractions`` does), an inverse is a swap or one modular inverse, and the
digits nobody knows are never carried.  A modular inverse of a full-width
residue is lifted by Newton steps x <- x(2 - a x), each doubling the
digits, as Caruso lifts at growing precision; CPython's ``pow(a, -1, m)``,
a quadratic extended Euclid, serves moduli below 2**40 and small
denominators, where it is the faster.  Congruent operands give congruent
results, so valuations below the bound are certain, and a result that
cancels into the uncertain range raises PrecisionExhausted instead of
pretending to be zero.  The digit expansion p**v * (d0 + d1*p + ...) with
d0 != 0 is read off u.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DivisionByZero, PrecisionExhausted

DEFAULT_PRECISION = 32

# The number grammar of every input text: an optional '-', then ASCII digits;
# a rational may add one '/' and a second run of them.  int and Fraction also
# read spaces, '_', '+', '.', exponents and other scripts' digits, so each
# text is matched here before either reads it.
_INTEGER_TEXT = re.compile(r"-?[0-9]+")
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n below ``_MR_EXACT_BELOW``.

    Raises:
        ValueError: for larger n, where the test would no longer be a proof.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"{n} is past {_MR_EXACT_BELOW}, the bound below which primality is decided"
        )
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no factor up to 41, so none up to sqrt(n)
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Prime:
    """A validated prime modulus.

    Raises:
        ValueError: if ``value`` is not a prime number.
    """

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not _is_prime(self.value):
            raise ValueError(f"{self.value!r} is not prime")

    def __str__(self) -> str:
        return str(self.value)


@lru_cache(typed=True)
def _cached_prime(p: int) -> Prime:
    return Prime(p)


def as_prime(p: int | Prime) -> Prime:
    """Coerce an int (or pass through a Prime) to a validated Prime.

    Each int is validated once.  The cache is typed, so 2.0 and True are keys
    of their own and are refused as before; a refusal is never cached.
    """
    if isinstance(p, Prime):
        return p
    try:
        return _cached_prime(p)
    except TypeError:  # unhashable, so not an int: let Prime refuse it
        return Prime(p)


def render_valuation(v: int | float) -> str:
    """A valuation as text: the integer, or ``+inf`` for zero's ``math.inf``."""
    return "+inf" if v == math.inf else str(v)


def _vp(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n.

    Peels up to 8 factors one at a time (the common case), then divides by
    p, p**2, p**4, ... while they divide and takes the rest back down by
    halves, so a valuation of 500 costs about 18 divisions, not 500.
    """
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 8:
            break
    else:
        return v
    powers = [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


# Moduli below 2**_POW_INVERSE_BITS take pow(a, -1, m); wider ones Newton-lift
# an inverse mod a power of p below 2**30, one machine digit.  From a timeit
# sweep of full-width units at p = 2, 3, 5, 7 on a 2-CPU x86-64 host
# (CPython 3.11): pow wins up to about 38 bits (p = 2, 35 bits: 2.15 vs
# 2.69 us; p = 7, 37 bits: 2.08 vs 2.68 us), the two are level at 40-44
# bits, the lift wins from about 48 bits (p = 5, 56 bits: 3.69 vs 2.28 us)
# and by 8-10x at r = 514 (p = 3: 131 vs 13 us; p = 7: 297 vs 30 us).
_POW_INVERSE_BITS = 40


def _inverse_mod(a: int, p: int, r: int) -> int:
    """The inverse of the p-free integer a mod p**r: the integer in [0, p**r)
    that ``pow(a, -1, p**r)`` returns.

    If x inverts a mod p**h, x(2 - a x) inverts it mod p**(2h).  So r is
    halved (rounding up) down to one machine digit, or to 1 for a prime
    wider than that, pow inverts a there, and each step back squares the
    modulus (over p when the halving rounded up).

    Raises:
        ValueError: if p divides a, as pow does.
    """
    if r <= _POW_INVERSE_BITS:  # else p**r > 2**r is past the crossover
        mod = p**r
        if mod.bit_length() <= _POW_INVERSE_BITS:
            return pow(a, -1, mod)
    width = math.log2(p)
    rounded_up = []
    while r > 1 and r * width > 30:
        rounded_up.append(r & 1)
        r = (r + 1) >> 1
    mod = p**r
    x = pow(a, -1, mod)
    for odd in reversed(rounded_up):
        mod = mod * mod // p if odd else mod * mod
        x = x * (2 - a * x) % mod
    return x


def rational_valuation(x: Fraction | int, p: int | Prime) -> int | float:
    """p-adic valuation of an exact rational: an int, or ``math.inf`` for zero."""
    x, pv = Fraction(x), as_prime(p).value
    if not x:
        return math.inf
    return _vp(x.numerator, pv) or -_vp(x.denominator, pv)


class PadicNumber:
    """A p-adic number carried to N significant base-p digits.

    Attributes:
        prime: the prime p.
        precision: count N of significant digits past the leading one.
        known_abs: absolute precision bound, or None for an exact value.
        value: p**v * a/b when exact, p**v * u when inexact (derived).

    Both kinds are stored as integers: the valuation v and a unit part.  An
    exact value's is the reduced pair a/b of p-free integers with b > 0.  An
    inexact value's is its unit residue u mod p**r (capped-relative form),
    with 0 < u < p**r and r = known_abs - v, for the ideal value
    p**v * u + O(p**known_abs).  Construction clamps the precision so that
    valuation + precision never exceeds the absolute bound, and a value that
    cannot be told apart from zero raises PrecisionExhausted.
    """

    __slots__ = ("prime", "precision", "known_abs", "_val", "_unit", "_den")

    def __reduce__(self):  # copy and pickle rebuild through the public constructor
        return PadicNumber, (self.value, self.prime.value, self.precision, self.known_abs)

    def __new__(cls, value: Fraction | int, prime: int | Prime,
                precision: int = DEFAULT_PRECISION, known_abs: int | None = None):
        prime = as_prime(prime)
        exact = cls.from_fraction(value, prime, precision)
        if known_abs is None:
            return exact
        val = exact._val
        if val is None or val >= known_abs:
            raise PrecisionExhausted(bound=known_abs)
        s = exact._unit_mod(known_abs - val) % prime.value ** (known_abs - val)
        return cls._inexact(s, val, known_abs, prime, precision)

    @classmethod
    def _exact(cls, v: int | None, a: int, b: int, prime: Prime, precision: int):
        """p**v * a/b for a reduced pair of p-free integers, b > 0; the exact
        zero is (None, 0, 1)."""
        out = object.__new__(cls)
        out.prime, out.precision, out.known_abs = prime, precision, None
        out._val, out._unit, out._den = v, a, b
        return out

    @classmethod
    def _ratio(cls, a: int, b: int, v: int, prime: Prime, precision: int):
        """p**v * a/b as an exact value, for coprime a and b > 0: strips p."""
        if not a:
            return cls._exact(None, 0, 1, prime, precision)
        pv = prime.value
        if a % pv == 0:
            w = _vp(a, pv)
            a, v = a // pv**w, v + w
        elif b % pv == 0:
            w = _vp(b, pv)
            b, v = b // pv**w, v - w
        return cls._exact(v, a, b, prime, precision)

    @classmethod
    def _inexact(cls, s: int, v0: int, k: int, prime: Prime, precision: int):
        """p**v0 * s + O(p**k), for 0 <= s < p**(k - v0): the one place an
        inexact value is checked and put in capped-relative form."""
        if s == 0:
            raise PrecisionExhausted(bound=k)
        pv = prime.value
        if s % pv == 0:
            w = _vp(s, pv)
            s, v0 = s // pv**w, v0 + w
        out = object.__new__(cls)
        out.prime, out.known_abs, out._val, out._unit, out._den = prime, k, v0, s, 1
        out.precision = precision if precision < k - v0 else k - v0
        return out

    def _key(self) -> tuple:
        """Integers that are equal exactly when the values and bounds are."""
        return self._val, self._unit, self._den, self.known_abs

    def _unit_mod(self, m: int) -> int:
        """An integer congruent mod p**m to p**-v * value (self nonzero)."""
        b = self._den
        return self._unit if b == 1 else self._unit * pow(b, -1, self.prime.value**m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(
        cls, x: Fraction | int, p: int | Prime, precision: int = DEFAULT_PRECISION
    ) -> "PadicNumber":
        if type(x) is not Fraction and type(x) is not int:
            x = Fraction(x)
        prime = as_prime(p)
        if precision < 1:
            raise ValueError("precision must be a positive digit count")
        return cls._ratio(x.numerator, x.denominator, 0, prime, precision)

    @classmethod
    def from_ratio(
        cls, num: int, den: int, p: int | Prime, precision: int = DEFAULT_PRECISION
    ) -> "PadicNumber":
        """The exact value num/den for integers num and den > 0, with no
        ``Fraction`` in between: one gcd, then p is stripped."""
        prime = as_prime(p)
        if den <= 0:
            raise ValueError(f"denominator must be a positive integer, got {den}")
        if precision < 1:
            raise ValueError("precision must be a positive digit count")
        g = gcd(num, den)
        return cls._ratio(num // g, den // g, 0, prime, precision)

    @classmethod
    def from_residue(
        cls, residue: int, p: int | Prime, known_abs: int, precision: int = DEFAULT_PRECISION
    ) -> "PadicNumber":
        """Wrap an integer known only modulo p**known_abs (series output)."""
        prime = as_prime(p)
        if precision < 1:
            raise ValueError("precision must be a positive digit count")
        s = residue % prime.value**known_abs if known_abs > 0 else 0
        return cls._inexact(s, 0, known_abs, prime, precision)

    @classmethod
    def zero(cls, p: int | Prime, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls.from_fraction(0, p, precision)

    @classmethod
    def one(cls, p: int | Prime, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls.from_fraction(1, p, precision)

    # -- structure ---------------------------------------------------------

    @property
    def value(self) -> Fraction:
        v, pv = self._val, self.prime.value
        if v is None:
            return Fraction(0)
        if v >= 0:
            return Fraction(self._unit * pv**v, self._den)
        return Fraction(self._unit, self._den * pv**-v)

    @property
    def is_zero(self) -> bool:
        """True only for the exact zero element."""
        return self._val is None

    def norm_valuation(self) -> int | float:
        """gamma(x) with |x|_p = p**(-gamma(x)): an int, or ``math.inf`` for zero."""
        return math.inf if self._val is None else self._val

    @property
    def unit_digits(self) -> tuple[int, ...]:
        """Digits of the unit part, length == precision, leading digit nonzero; () for zero."""
        return self.leading_digits(self.precision)

    def leading_digits(self, m: int) -> tuple[int, ...]:
        """The first m digits of the unit part (all ``precision`` of them when
        m is larger), computed mod p**m only; () for zero."""
        if self._val is None:
            return ()
        m = min(m, self.precision)
        pv = self.prime.value
        r, out = self._unit_mod(m) % pv**m, []
        for _ in range(m):
            r, d = divmod(r, pv)
            out.append(d)
        return tuple(out)

    def residue(self, k: int) -> int:
        """The representative reduced mod p**k (requires valuation >= 0).

        Sound only for k <= known_abs; raises otherwise.
        """
        if self.known_abs is not None and k > self.known_abs:
            raise PrecisionExhausted(
                f"residue mod p**{k} exceeds known precision", bound=self.known_abs
            )
        if self._val is None:
            return 0
        if self._val < 0:
            raise ValueError("rational has negative valuation, no residue mod p**k")
        pv = self.prime.value
        return self._unit_mod(k) * pv**self._val % pv**k

    # -- arithmetic --------------------------------------------------------

    def _check_same_prime(self, other: "PadicNumber"):
        if self.prime is not other.prime and self.prime != other.prime:
            raise ValueError(f"mixed primes {self.prime} and {other.prime}")

    def _coerce(self, other) -> "PadicNumber | None":
        if isinstance(other, PadicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_fraction(other, self.prime, self.precision)
        return None

    def _aligned_sum(self, other: "PadicNumber", sign: int) -> tuple:
        """(s, d, v0, k) with self + sign*other = p**v0 * s/d + O(p**k), v0
        the least valuation, so the operands align by an integer shift.  When
        an operand is inexact, k is the shared bound, d = 1 and
        0 <= s < p**(k - v0); when both are exact, k is None and s/d is the
        cross-multiplied sum (d p-free, s = 0 for an exact zero)."""
        a, b, sa, sb = self, other, 1, sign
        if a._val is None or (b._val is not None and b._val < a._val):
            a, b, sa, sb = b, a, sign, 1
        pv, v0 = self.prime.value, a._val  # an inexact operand is never zero
        k = _min_bound(self.known_abs, other.known_abs)
        if k is None:
            s, d = sa * a._unit, a._den
            if b._val is not None:
                s, d = s * b._den + sb * b._unit * d * pv ** (b._val - v0), d * b._den
            return s, d, v0, None
        r = k - v0
        s = sa * a._unit_mod(r)
        if b._val is not None and b._val - v0 < r:
            shift = b._val - v0
            s += sb * b._unit_mod(r - shift) * pv**shift
        return s % pv**r, 1, v0, k

    def _sum(self, other: "PadicNumber", sign: int) -> "PadicNumber":
        self._check_same_prime(other)
        n = self.precision if self.precision < other.precision else other.precision
        s, d, v0, k = self._aligned_sum(other, sign)
        if k is None:
            g = gcd(s, d)
            return PadicNumber._ratio(s // g, d // g, v0, self.prime, n)
        return PadicNumber._inexact(s, v0, k, self.prime, n)

    def add(self, other: "PadicNumber") -> "PadicNumber":
        return self._sum(other, 1)

    def sub(self, other: "PadicNumber") -> "PadicNumber":
        return self._sum(other, -1)

    def neg(self) -> "PadicNumber":
        if self.is_zero:
            return self
        if self.known_abs is None:
            return PadicNumber._exact(self._val, -self._unit, self._den, self.prime, self.precision)
        s = self.prime.value ** (self.known_abs - self._val) - self._unit
        return PadicNumber._inexact(s, self._val, self.known_abs, self.prime, self.precision)

    def mul(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        n = self.precision if self.precision < other.precision else other.precision
        if self._val is None or other._val is None:
            # an exact zero factor annihilates even approximate ones
            return PadicNumber._exact(None, 0, 1, self.prime, n)
        v = self._val + other._val
        if self.known_abs is None and other.known_abs is None:
            a, b, c, d = self._unit, self._den, other._unit, other._den
            if b != 1 or d != 1:  # cross-gcds keep the product reduced
                g, h = gcd(a, d), gcd(c, b)
                a, b, c, d = a // g, b // h, c // h, d // g
            return PadicNumber._exact(v, a * c, b * d, self.prime, n)
        # a product keeps the lesser relative precision r = known_abs - v
        r = _min_bound(None if self.known_abs is None else self.known_abs - self._val,
                       None if other.known_abs is None else other.known_abs - other._val)
        s = self._unit_mod(r) * other._unit_mod(r) % self.prime.value**r
        return PadicNumber._inexact(s, v, v + r, self.prime, n)

    def inverse(self) -> "PadicNumber":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        if self.known_abs is None:
            a, b = (self._unit, self._den) if self._unit > 0 else (-self._unit, -self._den)
            return PadicNumber._exact(-self._val, b, a, self.prime, self.precision)
        r = self.known_abs - self._val
        s = _inverse_mod(self._unit, self.prime.value, r)
        return PadicNumber._inexact(s, -self._val, r - self._val, self.prime, self.precision)

    def div(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        return self.mul(other.inverse())

    def _operator(method, reflected=False):  # makes the operators below; not a method
        def op(self, other):
            if type(other) is not PadicNumber:
                other = self._coerce(other)
            if other is None:
                return NotImplemented
            return method(other, self) if reflected else method(self, other)

        return op

    __add__ = __radd__ = _operator(add)
    __sub__, __rsub__ = _operator(sub), _operator(sub, reflected=True)
    __mul__ = __rmul__ = _operator(mul)
    __truediv__, __rtruediv__ = _operator(div), _operator(div, reflected=True)
    __neg__ = neg
    del _operator

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out, base, e = PadicNumber._exact(0, 1, 1, self.prime, self.precision), self, exponent
        while e:
            if e & 1:
                out = out.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.prime != other.prime:
            return False
        if self.known_abs is None and other.known_abs is None:
            return self._key() == other._key()
        return self._aligned_sum(other, -1)[0] == 0

    __hash__ = None

    def valuation_at_least(self, k: int) -> bool:
        """Soundly decide whether the ideal value has valuation >= k."""
        if self.known_abs is not None and k > self.known_abs:
            return False
        return self._val is None or self._val >= k

    def distance_valuation(self, other) -> int | float:
        """Sound lower bound for valuation(self - other), as an int.

        Exact whenever the difference is resolvable below both absolute
        bounds; otherwise returns the shared bound itself.  ``math.inf`` only
        when both values are exact and equal.
        """
        other = self._coerce(other)
        self._check_same_prime(other)
        s, _, v0, k = self._aligned_sum(other, -1)
        if s:
            return v0 + _vp(s, self.prime.value)
        return math.inf if k is None else k

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Digit expansion string, e.g. ``3^-1 * (2 + 1*3 + ...) + O(3^4)``."""
        if self._val is None:
            return "0"
        p = self.prime.value
        terms = []
        for i, d in enumerate(self.unit_digits):
            if i == 0:
                terms.append(str(d))
            elif d:
                terms.append(f"{d}*{p}^{i}" if i > 1 else f"{d}*{p}")
        body = " + ".join(terms)
        return f"{p}^{self._val} * ({body}) + O({p}^{self._val + self.precision})"

    __str__ = render

    def __repr__(self) -> str:
        tail = "" if self.known_abs is None else f", known_abs={self.known_abs}"
        return (f"PadicNumber({self.value!r}, prime={self.prime.value}, "
                f"precision={self.precision}{tail})")


def _min_bound(a: int | None, b: int | None) -> int | None:
    return b if a is None else a if b is None else min(a, b)
