"""p-adic exponential and logarithm, and root finding inside disks.

The two series are evaluated in modular integer arithmetic: a term with
valuation at or above the absolute target contributes nothing representable,
so the sum runs only until every remaining term provably clears the target.
The terms, their powers of p and the unit parts of their divisors depend
only on (p, valuation, k), so a bounded cache plans them once per triple as
blocks of about sqrt(terms) terms with small integer coefficients (Smith,
Math. Comp. 52 (1989)).  A call computes the first m powers of the unit
residue, sums each block as big-by-small products, folds the blocks into
num/den mod p**k by two full-width products each and pays one modular
inverse (Newton-lifted, ``padic_core._inverse_mod``): the same sum mod p**k
as a term-by-term loop.
Truncation bounds use v(n!) = (n - digitsum_p(n)) / (p - 1), estimated from
above by (n - 1) / (p - 1), and v(n) <= log_p(n).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainViolation, LiftStall, PrecisionExhausted
from .padic_core import (
    PadicNumber,
    Prime,
    _inverse_mod,
    _vp,
    as_prime,
    rational_valuation,
    residue_of_rational,
)

# residual digits a root may miss at the working precision and still verify
ROOT_RESIDUAL_MARGIN = 4

# series plans kept, one per (series, p, valuation, k); one op of any perfbench
# workload meets ten at most
PLAN_CACHE_SIZE = 16
_MIN_BLOCK = 8  # below this many terms a series is one block


def exp_domain_min_valuation(p: int | Prime) -> int:
    """Least valuation admitted by the exponential disk: 1, except 2 at p=2.

    This is the integer form of the bound |x|_p < p**(-1/(p-1)).
    """
    return 2 if as_prime(p).value == 2 else 1


def exp_p(x: PadicNumber, precision: int | None = None) -> PadicNumber:
    """Sum of x**n / n! over n >= 0, defined on the exp disk.

    The result is a unit congruent to 1 + x modulo higher terms, carried to
    the precision of x unless a wider relative target is requested (useful
    when an exact argument must feed a deep modular computation).  Raises
    DomainViolation off the disk.
    """
    p = x.prime
    pv = p.value
    n_rel = x.precision if precision is None else precision
    if x.is_zero:
        return PadicNumber.one(p, n_rel)
    if not x.valuation_at_least(exp_domain_min_valuation(p)):
        raise DomainViolation(
            f"exp argument needs valuation >= {exp_domain_min_valuation(p)}, "
            f"got {x.norm_valuation()}"
        )
    vx = x._val
    k = vx + n_rel + 2
    if x.known_abs is not None:
        k = min(k, x.known_abs)
    total = _blocked_sum(x._unit_mod(k), 1, _series_plan(False, pv, vx, k), pv, k)
    return PadicNumber.from_residue(total, p, k, n_rel)


def log_p(x: PadicNumber, precision: int | None = None) -> PadicNumber:
    """Sum of -(-1)**n (x-1)**n / n over n >= 1, for valuation(x-1) >= 1.

    Raises DomainViolation off the disk, and PrecisionExhausted when x is
    congruent to 1 at its full working precision so no digit of the result
    can be trusted.
    """
    p = x.prime
    pv = p.value
    n_rel = x.precision if precision is None else precision
    t = x - 1  # raises PrecisionExhausted when x - 1 is 0 + O(p**known_abs)
    if t.is_zero:
        return PadicNumber.zero(p, n_rel)
    vt = t._val
    if vt < 1:
        raise DomainViolation(f"log argument needs valuation(x - 1) >= 1, got {vt}")
    k = vt + n_rel + 2
    if x.known_abs is not None:
        k = min(k, x.known_abs)
    ut = t._unit_mod(k)
    total = _blocked_sum(ut, ut, _series_plan(True, pv, vt, k), pv, k)
    return PadicNumber.from_residue(total, p, k, n_rel)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _series_plan(log: bool, pv: int, v: int, k: int) -> tuple:
    """The exp (or log) series at an argument of valuation v, mod p**k, in blocks.

    The n-th term is u**n * p**e_n / D_n for the argument's unit residue u:
    for exp (n >= 0) e_n = n*v - v_p(n!) and D_n is the product of the unit
    parts of 1..n; for log (n >= 1) e_n = n*v - v_p(n) and D_n = -(-1)**n
    times the unit part of n.  With E the least e_n from a block's first n = s
    on, the terms from s on sum to u**s * p**E / D_(s-1) * R (exp; log
    without D_(s-1)), R = (sum_r u**r * c_r + F * u**m * R') / W and R' that
    of the next block.  W is the product of the block's new units, c_r is
    p**(e_(s+r) - E) times W over the units up to s+r (log: over that of
    s+r alone) and F = p**(E' - E), times W for log.  Returns p**E of the
    first block and the blocks' (c, W, F), the last block first.
    """
    terms = []  # (e_n, the unit that term n brings into D_n)
    if log:
        n = digits = 1
        while True:
            # v(t**n / n) >= n*v - (digits_p(n) - 1), nondecreasing since v >= 1
            while pv**digits <= n:
                digits += 1
            if n * v - (digits - 1) >= k:
                break
            j = _vp(n, pv)
            terms.append((n * v - j, n // pv**j if n % 2 else -(n // pv**j)))
            n += 1
    else:
        terms.append((0, 1))
        # every term from n on has valuation >= n*v - (n-1)/(p-1)
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


def _blocked_sum(u: int, y: int, plan: tuple, pv: int, k: int) -> int:
    """y times a series plan evaluated at u, mod p**k: u**0 .. u**(m-1) once,
    each block as one sum of big-by-small products, folded into num/den by
    two full-width products per block, and one modular inverse in all."""
    first, blocks = plan
    modulus = pv**k
    u %= modulus
    powers = [1]
    for _ in range(len(blocks[-1][0]) - 1):
        powers.append(powers[-1] * u % modulus)
    u_m = powers[-1] * u % modulus
    num, den = 0, 1
    for coeffs, w, f in blocks:
        num = (sum(map(mul, powers, coeffs)) * den + f * u_m * num) % modulus
        den = den * w % modulus
    return y * first * num * _inverse_mod(den, pv, k) % modulus


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


def _poly_eval_fraction(coeffs: list[Fraction], z: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def hensel_roots_in_disk(
    f: tuple[PadicNumber, ...], center: PadicNumber, min_valuation_offset: int
) -> list[PadicNumber]:
    """All roots z of f with valuation(z - center) >= min_valuation_offset.

    ``f`` is the tuple of coefficients in ascending degree order; the roots
    carry the least precision among them, and the least ``known_abs`` blurs
    them.  Walks residues digit by digit: a residue where the reduced
    derivative is a unit is lifted by the Newton step, a repeated residue is
    refined one digit deeper.  A branch that neither separates nor
    terminates within depth 2N raises LiftStall.  Returned roots are
    verified to push the residual valuation to at least
    N - ROOT_RESIDUAL_MARGIN and are deduplicated at that same threshold.

    Raises:
        ValueError: if f is empty, mixes primes, or has degree >= 1 and an
            exact-zero leading coefficient.
    """
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
    found: list[tuple[Fraction, int | None]] = []  # (value, digits known past offset)

    # Depth-first over residue branches, children in residue order, on an
    # explicit stack: a repeated residue refines one digit per level down to
    # depth 2N, which at high precision is past the interpreter's frame limit.
    work: list[tuple] = [("branch", 0, 0)]  # ("branch", prefix, depth) | ("root", value, known)
    while work:
        item = work.pop()
        if item[0] == "root":
            found.append(item[1:])
            continue
        _, prefix, depth = item
        a = c0 + Fraction(pv) ** min_valuation_offset * prefix
        b = Fraction(pv) ** (min_valuation_offset + depth)
        g = _shifted_coefficients(base_coeffs, a, b)
        content = min(v for c in g if (v := rational_valuation(c, p)) is not None)
        norm = [c / Fraction(pv) ** content for c in g]
        norm_mod_p = [residue_of_rational(c, p, 1) for c in norm]
        deriv_mod_p = [(j * c) % pv for j, c in enumerate(norm_mod_p)][1:] or [0]
        children = []
        for r in range(pv):
            if _poly_eval_int(norm_mod_p, r, pv) != 0:
                continue
            if _poly_eval_int(deriv_mod_p, r, pv) != 0:
                w = _newton_lift(norm, r, p, n_rel + min_valuation_offset + depth + 8)
                res = _lift_digits(norm, w, p)
                known = None if res is None else min_valuation_offset + depth + res
                children.append(("root", a + b * w, known))
            elif depth + 1 > depth_cap:
                raise LiftStall(
                    f"residue branch at digits {prefix + r * pv**depth} "
                    f"did not separate within depth {depth_cap}"
                )
            else:
                children.append(("branch", prefix + r * pv**depth, depth + 1))
        work.extend(reversed(children))

    roots: list[PadicNumber] = []
    seen: list[Fraction] = []
    # f' with each inexact coefficient times i reduced mod its own bound, which
    # c.value * i would not be
    slope_coeffs = None if k_f is None else [(c * i).value for i, c in enumerate(f) if i]
    for value, lift_known in sorted(found, key=lambda rv: _root_sort_key(rv[0], c0, p)):
        residual = rational_valuation(_poly_eval_fraction(base_coeffs, value), p)
        if residual is not None and residual < target:
            continue
        if any(_agree(value, s, p, target) for s in seen):
            continue
        seen.append(value)
        known = lift_known
        if k_f is not None:
            # fuzzy coefficients blur the root by their own uncertainty
            slope = rational_valuation(_poly_eval_fraction(slope_coeffs, value), p)
            coeff_known = k_f - (slope if slope is not None else 0)
            known = coeff_known if known is None else min(known, coeff_known)
        if value == 0 and known is not None:
            raise PrecisionExhausted(
                "root indistinguishable from zero at working precision", bound=known
            )
        roots.append(PadicNumber(value, p, n_rel, known_abs=known))
    return roots


def _poly_eval_int(coeffs: list[int], x: int, mod: int) -> int:
    """Horner evaluation of integer coefficients at x, mod ``mod``."""
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % mod
    return out


def _newton_lift(norm: list[Fraction], r: int, p: Prime, digits: int) -> int:
    """Lift a simple residue root of a content-free polynomial to Z/p**digits.

    The coefficients and their derivative are reduced mod p**digits once;
    each doubling step then evaluates both by Horner mod p**prec.  The
    derivative's inverse is lifted alongside: one inverse mod p, then
    inv <- inv(2 - f'(w) inv) per step.  A step that doubles w's digits needs
    f'(w)**-1 only to w's old digits, which inv, one step behind w, has.  The
    result is the unique root mod p**digits over r.
    """
    pv = p.value
    coeffs = [residue_of_rational(c, p, digits) for c in norm]
    deriv = [j * c for j, c in enumerate(coeffs)][1:]
    w = r
    inv = pow(_poly_eval_int(deriv, r, pv), -1, pv)
    prec = 1
    while prec < digits:
        prec = min(2 * prec, digits)
        mod = pv**prec
        fw, dw = _poly_eval_int(coeffs, w, mod), _poly_eval_int(deriv, w, mod)
        inv = inv * (2 - dw * inv) % mod
        w = (w - fw * inv) % mod
    return w


def _lift_digits(norm: list[Fraction], w: int, p: Prime) -> int | None:
    """Residual valuation of the lift; None when w is an exact root."""
    return rational_valuation(_poly_eval_fraction(norm, Fraction(w)), p)


def _agree(a: Fraction, b: Fraction, p: Prime, digits: int) -> bool:
    v = rational_valuation(a - b, p)
    return v is None or v >= digits


def _root_sort_key(value: Fraction, center: Fraction, p: Prime):
    diff = value - center
    v = rational_valuation(diff, p)
    if v is None:
        return (1, 0, 0)
    unit = diff / Fraction(p.value) ** v
    return (0, v, residue_of_rational(unit, p, 12))
