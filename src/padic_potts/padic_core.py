"""Exact p-adic scalar arithmetic at bounded working precision.

A number is stored as a rational representative together with an absolute
precision bound: the ideal value it stands for is congruent to the
representative modulo p**known_abs.  Values built directly from rationals are
exact (no bound) and keep their rational as it is; series evaluations and
other approximations carry a finite bound and keep only the canonical
representative r / p**e of their class mod p**known_abs (p**e the p-part of
the denominator, 0 <= r < p**(known_abs + e)), so the digits nobody knows
are never carried.  Arithmetic on the representatives is exact, and
congruent operands give congruent results, so valuations below the bound are
certain, and a result whose representative collapses into the uncertain
range raises PrecisionExhausted instead of pretending to be zero.

The canonical digit expansion x = p**v * (d0 + d1*p + ...) with d0 != 0 is
derived on demand from the representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import DivisionByZero, PrecisionExhausted

DEFAULT_PRECISION = 32


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


@total_ordering
@dataclass(frozen=True, slots=True)
class Valuation:
    """An element of Z united with +infinity, ordered the usual way.

    ``exponent is None`` encodes +infinity (the valuation of zero).
    """

    exponent: int | None

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.exponent is None

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Valuation(other)
        if not isinstance(other, Valuation):
            return NotImplemented
        return self.exponent == other.exponent

    def __lt__(self, other) -> bool:
        if isinstance(other, int):
            other = Valuation(other)
        if not isinstance(other, Valuation):
            return NotImplemented
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.exponent < other.exponent

    def __hash__(self):
        return hash(self.exponent)

    def __add__(self, other: "Valuation | int") -> "Valuation":
        if isinstance(other, int):
            other = Valuation(other)
        if self.is_infinite or other.is_infinite:
            return Valuation.infinite()
        return Valuation(self.exponent + other.exponent)

    __radd__ = __add__

    def __int__(self) -> int:
        if self.exponent is None:
            raise ValueError("infinite valuation has no integer value")
        return self.exponent

    def __str__(self) -> str:
        return "+inf" if self.exponent is None else str(self.exponent)

    def __repr__(self) -> str:
        return f"Valuation({self.exponent})"


def _vp(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(x: Fraction | int, p: int | Prime) -> int | None:
    """p-adic valuation of an exact rational; None for zero."""
    return _fraction_valuation(Fraction(x), as_prime(p).value)


def _fraction_valuation(x: Fraction, pv: int) -> int | None:
    """Valuation of x at the prime pv; None for zero.

    Works off the reduced numerator and denominator, so at most one of the
    two carries a power of p.
    """
    if not x:
        return None
    return _vp(x.numerator, pv) or -_vp(x.denominator, pv)


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


def digits_of_residue(r: int, p: int | Prime, k: int) -> tuple[int, ...]:
    """Base-p digits (least significant first) of r, padded to length k."""
    pv = as_prime(p).value
    out = []
    for _ in range(k):
        r, d = divmod(r, pv)
        out.append(d)
    return tuple(out)


class PadicNumber:
    """A p-adic number carried to N significant base-p digits.

    Attributes:
        prime: the prime p.
        precision: count N of significant digits past the leading one.
        value: the exact rational when exact; when inexact, the canonical
            representative mod p**known_abs, r / p**e with p**e the p-part of
            the denominator and 0 <= r < p**(known_abs + e).
        known_abs: absolute precision bound, or None when the representative
            is the ideal value itself.  When finite, only the congruence
            class of ``value`` modulo p**known_abs is meaningful.

    The constructor normalizes: the effective precision is clamped so that
    valuation + precision never exceeds the absolute bound, and a value whose
    representative cannot be told apart from zero raises PrecisionExhausted.
    """

    __slots__ = ("prime", "precision", "value", "known_abs", "_val")

    def __init__(
        self,
        value: Fraction | int,
        prime: int | Prime,
        precision: int = DEFAULT_PRECISION,
        known_abs: int | None = None,
    ):
        prime = as_prime(prime)
        value = Fraction(value)
        if precision < 1:
            raise ValueError("precision must be a positive digit count")
        self._set(value, prime, precision, known_abs, _fraction_valuation(value, prime.value))

    @classmethod
    def _make(
        cls, value: Fraction, prime: Prime, precision: int, known_abs: int | None, val: int | None
    ) -> "PadicNumber":
        """An arithmetic result: operands already hold a valid prime and
        precision, and ``val`` is the valuation of ``value``."""
        out = cls.__new__(cls)
        out._set(value, prime, precision, known_abs, val)
        return out

    def _set(self, value, prime, precision, known_abs, val):
        # the one place an inexact value is checked and reduced
        if known_abs is not None:
            if val is None or val >= known_abs:
                raise PrecisionExhausted(bound=known_abs)
            precision = min(precision, known_abs - val)
            value = _canonical(value, prime.value, known_abs, val)
        self.prime = prime
        self.precision = precision
        self.value = value
        self.known_abs = known_abs
        self._val = val

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(
        cls, x: Fraction | int, p: int | Prime, precision: int = DEFAULT_PRECISION
    ) -> "PadicNumber":
        return cls(Fraction(x), p, precision)

    @classmethod
    def from_residue(
        cls, residue: int, p: int | Prime, known_abs: int, precision: int = DEFAULT_PRECISION
    ) -> "PadicNumber":
        """Wrap an integer known only modulo p**known_abs (series output)."""
        return cls(Fraction(residue), p, precision, known_abs=known_abs)

    @classmethod
    def zero(cls, p: int | Prime, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls(Fraction(0), p, precision)

    @classmethod
    def one(cls, p: int | Prime, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls(Fraction(1), p, precision)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True only for the exact zero element."""
        return self._val is None

    @property
    def is_exact(self) -> bool:
        return self.known_abs is None

    def norm_valuation(self) -> Valuation:
        """gamma(x) with |x|_p = p**(-gamma(x)); +inf for zero."""
        return Valuation(self._val)

    def norm(self) -> Fraction:
        """|x|_p as an exact rational."""
        if self._val is None:
            return Fraction(0)
        if self._val >= 0:
            return Fraction(1, self.prime.value**self._val)
        return Fraction(self.prime.value ** (-self._val))

    def is_unit(self) -> bool:
        return self._val == 0

    @property
    def unit_digits(self) -> tuple[int, ...]:
        """Digits of the unit part, length == precision, leading digit nonzero.

        Zero has an empty digit sequence.
        """
        return self.leading_digits(self.precision)

    def leading_digits(self, m: int) -> tuple[int, ...]:
        """The first m digits of the unit part (all ``precision`` of them when
        m is larger), computed mod p**m only; () for zero."""
        if self._val is None:
            return ()
        m = min(m, self.precision)
        unit = self.value / Fraction(self.prime.value) ** self._val
        return digits_of_residue(residue_of_rational(unit, self.prime, m), self.prime, m)

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
        return residue_of_rational(self.value, self.prime, k)

    # -- arithmetic --------------------------------------------------------

    def _check_same_prime(self, other: "PadicNumber"):
        if self.prime != other.prime:
            raise ValueError(f"mixed primes {self.prime} and {other.prime}")

    def _coerce(self, other) -> "PadicNumber | None":
        if isinstance(other, PadicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber(Fraction(other), self.prime, self.precision)
        return None

    def add(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        k = _min_bound(self.known_abs, other.known_abs)
        n = min(self.precision, other.precision)
        if self.is_zero and other.is_zero:
            return PadicNumber._make(Fraction(0), self.prime, n, None, None)
        value = self.value + other.value
        val = _fraction_valuation(value, self.prime.value)
        return PadicNumber._make(value, self.prime, n, k, val)

    def neg(self) -> "PadicNumber":
        if self.is_zero:
            return self
        return PadicNumber._make(-self.value, self.prime, self.precision, self.known_abs, self._val)

    def sub(self, other: "PadicNumber") -> "PadicNumber":
        return self.add(other.neg())

    def mul(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        n = min(self.precision, other.precision)
        if self.is_zero or other.is_zero:
            # an exact zero factor annihilates even approximate ones
            return PadicNumber._make(Fraction(0), self.prime, n, None, None)
        k = _min_bound(
            None if other.known_abs is None else self._val + other.known_abs,
            None if self.known_abs is None else other._val + self.known_abs,
        )
        return PadicNumber._make(self.value * other.value, self.prime, n, k, self._val + other._val)

    def inverse(self) -> "PadicNumber":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        k = None if self.known_abs is None else self.known_abs - 2 * self._val
        return PadicNumber._make(1 / self.value, self.prime, self.precision, k, -self._val)

    def div(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        return self.mul(other.inverse())

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.add(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.sub(other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.sub(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.mul(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.div(other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.div(self)

    def __neg__(self):
        return self.neg()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = PadicNumber(Fraction(1), self.prime, self.precision)
        base = self
        e = exponent
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
        k = _min_bound(self.known_abs, other.known_abs)
        diff = self.value - other.value
        if k is None:
            return diff == 0
        v = _fraction_valuation(diff, self.prime.value)
        return v is None or v >= k

    __hash__ = None

    def valuation_at_least(self, k: int) -> bool:
        """Soundly decide whether the ideal value has valuation >= k."""
        if self._val is None:
            return True
        if self.known_abs is not None and k > self.known_abs:
            return False
        return self._val >= k

    def distance_valuation(self, other) -> Valuation:
        """Sound lower bound for valuation(self - other).

        Exact whenever the difference is resolvable below both absolute
        bounds; otherwise returns the shared bound itself.
        """
        other = self._coerce(other)
        self._check_same_prime(other)
        k = _min_bound(self.known_abs, other.known_abs)
        v = _fraction_valuation(self.value - other.value, self.prime.value)
        if v is None or (k is not None and v >= k):
            return Valuation(k)
        return Valuation(v)

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

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        tail = "" if self.known_abs is None else f", known_abs={self.known_abs}"
        return (
            f"PadicNumber({self.value!r}, prime={self.prime.value}, "
            f"precision={self.precision}{tail})"
        )


def _canonical(x: Fraction, pv: int, known_abs: int, val: int) -> Fraction:
    """The representative r / p**e of x mod p**known_abs, with p**e the p-part
    of x's denominator and 0 <= r < p**(known_abs + e).

    Requires val = v(x) < known_abs, so r keeps x's valuation.
    """
    e = max(0, -val)
    pe, mod = pv**e, pv ** (known_abs + e)
    num, den = x.numerator, x.denominator
    if den != pe:
        num *= pow(den // pe, -1, mod)
    elif 0 <= num < mod:
        return x
    return Fraction(num % mod, pe)


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
