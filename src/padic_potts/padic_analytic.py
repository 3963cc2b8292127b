"""p-adic exponential and logarithm, and root finding inside disks.

The two series are evaluated in modular integer arithmetic: a term with
valuation at or above the absolute target contributes nothing representable,
so the sum runs only until every remaining term provably clears the target.
The terms, their powers of p and the unit parts of their divisors depend
only on (p, valuation, k), so a bounded cache plans them once per triple as
blocks of about sqrt(terms) terms with small integer coefficients (Smith,
Math. Comp. 52 (1989)); v_p(n) and the unit parts come from a sieve over
the multiples of p, p**2, ...  The blocks fold into num/den mod p**k, and
den does not depend on the argument either, so the plan holds each block's
running denominator and pays the series' one modular inverse (Newton-lifted,
``padic_core._inverse_mod``) once per plan, not once per call.  A call
computes the first m powers of the unit residue and sums each block as
big-by-small products folded into num by two full-width products: the same
sum mod p**k as a term-by-term loop.
Truncation bounds use v(n!) = (n - digitsum_p(n)) / (p - 1), estimated from
above by (n - 1) / (p - 1), and v(n) <= log_p(n).

The Hensel root search walks the residues of a disk on integers: the
coefficients over one common denominator, each branch's polynomial its
parent's under an integer Taylor shift (von zur Gathen and Gerhard, ISSAC
1997), and each root's residual valuation read off the walk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .errors import DomainViolation, LiftStall, PrecisionExhausted
from .padic_core import (
    PadicNumber,
    Prime,
    _inverse_mod,
    _vp,
    as_prime,
)

# residual digits a root may miss at the working precision and still verify
ROOT_RESIDUAL_MARGIN = 4

# series plans kept, one per (series, p, valuation, k).  Over seeds 0-3 and
# five cycles each (300 ops), a series-verify op met at most 14 distinct
# plans, 22 ops met ten or more and 12 more than ten, and no op built any
# plan twice
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
    s+r alone) and F = p**(E' - E), times W for log.  Folded last block
    first, the sum is num over the product of every W.  That product does
    not depend on u, so the plan pays its inverse: it returns p**E of the
    first block over that product, mod p**k, and each block's (c, P, F),
    the last block first, with P the product mod p**k of the W of the blocks
    before it in that order.
    """
    e, d = _series_terms(log, pv, v, k)
    m = max(_MIN_BLOCK, math.isqrt(len(e)))
    modulus = pv**k
    blocks, least, above, den = [], k, None, 1
    for s in reversed(range(0, len(e), m)):
        chunk_e, chunk_d = e[s:s + m], d[s:s + m]
        least = min(least, *chunk_e)
        w = rest = math.prod(chunk_d)
        coeffs = []
        for e_n, d_n in zip(chunk_e, chunk_d):
            rest = w // d_n if log else rest // d_n
            coeffs.append(rest * pv ** (e_n - least))
        f = 1 if above is None else pv ** (above - least) * (w if log else 1)
        blocks.append((tuple(coeffs), den, f))
        den = den * w % modulus
        above = least
    return pv**least * _inverse_mod(den, pv, k) % modulus, tuple(blocks)


def _series_terms(log: bool, pv: int, v: int, k: int) -> tuple[list[int], list[int]]:
    """The e_n of the terms a series plan keeps, and the unit each term
    brings into D_n (see ``_series_plan``), in the order of n.

    The term count is closed-form, and v_p(n) and the unit part of every n
    come from one pass over the multiples of p, p**2, ...
    """
    if log:
        # v(t**n / n) >= n*v - floor(log_p n), nondecreasing since v >= 1,
        # and the first n where it reaches k ends the series.  That n is at
        # least ceil((k + floor(log_p s)) / v) for any s short of it
        stop = -(-k // v)
        while stop * v - _floor_log(stop, pv) < k:
            stop = -(-(k + _floor_log(stop, pv)) // v)
        vals, units = _sieve(pv, stop)
        units[2::2] = [-u for u in units[2::2]]
        return [n * v - j for n, j in enumerate(vals)][1:], units[1:]
    # every term from n on has valuation >= n*v - (n-1)/(p-1): the series
    # ends at the first n >= 1 with n*(v*(p-1) - 1) >= k*(p-1) - 1
    vals, units = _sieve(pv, max(1, -(-(k * (pv - 1) - 1) // (v * (pv - 1) - 1))))
    steps = [v - j for j in vals]
    steps[0], units[0] = 0, 1
    return list(accumulate(steps)), units


def _floor_log(n: int, pv: int) -> int:
    """floor(log_p n) for n >= 1."""
    top, q = 0, pv
    while q <= n:
        top, q = top + 1, q * pv
    return top


def _sieve(pv: int, count: int) -> tuple[list[int], list[int]]:
    """v_p(n) and the unit part of n for 0 <= n < count (0 for n = 0), by one
    pass over the multiples of each power of p below count."""
    vals, units = [0] * count, list(range(count))
    q = pv
    while q < count:
        vals[q::q] = [j + 1 for j in vals[q::q]]
        units[q::q] = [u // pv for u in units[q::q]]
        q *= pv
    return vals, units


def _blocked_sum(u: int, y: int, plan: tuple, pv: int, k: int) -> int:
    """y times a series plan evaluated at u, mod p**k: u**0 .. u**(m-1) once,
    and each block as one sum of big-by-small products folded into the
    numerator by two full-width products.  The plan holds the blocks'
    running denominators and the inverse of their product, so a call
    inverts nothing."""
    first, blocks = plan
    modulus = pv**k
    u %= modulus
    powers = [1]
    for _ in range(len(blocks[-1][0]) - 1):
        powers.append(powers[-1] * u % modulus)
    u_m = powers[-1] * u % modulus
    num = 0
    for coeffs, den, f in blocks:
        num = (sum(map(mul, powers, coeffs)) * den + f * u_m * num) % modulus
    return y * first * num % modulus


def _shifted(coeffs: list[int], a: int, b: int) -> list[int]:
    """Coefficients of P(a + b*w) given those of P(z), integers: a Taylor
    shift by a (the Horner scheme, d(d+1)/2 multiply-adds; von zur Gathen
    and Gerhard, ISSAC 1997), then w scaled by b."""
    out = list(coeffs)
    deg = len(out) - 1
    if a:
        for i in range(deg):
            for j in range(deg - 1, i - 1, -1):
                out[j] += a * out[j + 1]
    return [c * b**j for j, c in enumerate(out)]


def _cleared(coeffs: list[Fraction], d: int) -> tuple[list[int], int]:
    """Integers P_i and K with sum P_i * y**i = K * sum c_i * (y/d)**i:
    the coefficients over one common denominator, and d cleared."""
    den = math.lcm(*(c.denominator for c in coeffs))
    deg = len(coeffs) - 1
    ints = [c.numerator * (den // c.denominator) * d ** (deg - i) for i, c in enumerate(coeffs)]
    return ints, den * d**deg


def _horner(coeffs: list[int], x: int) -> int:
    """The integer polynomial at x, exactly."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def hensel_roots_in_disk(
    f: tuple[PadicNumber, ...], center: PadicNumber, min_valuation_offset: int
) -> list[PadicNumber]:
    """All roots z of f with valuation(z - center) >= min_valuation_offset.

    ``f`` is the tuple of coefficients in ascending degree order; the roots
    carry the least precision among them, and the least ``known_abs`` blurs
    them.  Walks residues digit by digit on integers: the disk is
    z = center + p**offset * t with denominators cleared once, and each
    branch holds an integer polynomial in its next digits, its parent's
    shifted by the branch digit with w scaled by p.  A residue where the
    reduced derivative is a unit is lifted by the Newton step, a repeated
    residue is refined one digit deeper.  A branch that neither separates nor
    terminates within depth 2N raises LiftStall.  A root's residual valuation
    is the branch content plus the lift's, read off the walk; returned roots
    push it to at least N - ROOT_RESIDUAL_MARGIN and are deduplicated at that
    same threshold.

    Raises:
        ValueError: if f is empty, mixes primes, is the zero polynomial, or
            has degree >= 1 and an exact-zero leading coefficient.
    """
    if not f:
        raise ValueError("a polynomial needs at least one coefficient")
    p = f[0].prime
    if any(c.prime != p for c in f):
        raise ValueError("coefficients mix primes")
    if f[-1].is_zero:
        raise ValueError("the zero polynomial vanishes on the whole disk" if len(f) == 1
                         else "leading coefficient is zero; drop it first")
    pv = p.value
    n_rel = min(c.precision for c in f)
    k_f = min((c.known_abs for c in f if c.known_abs is not None), default=None)
    target = n_rel - ROOT_RESIDUAL_MARGIN
    depth_cap = 2 * n_rel
    m, c0 = min_valuation_offset, center.value
    # z = center + p**m * t = (a + b*t) / d, all three integers
    a = c0.numerator * pv ** max(0, -m)
    b, d = c0.denominator * pv ** max(0, m), c0.denominator * pv ** max(0, -m)
    base, scale = _cleared([c.value for c in f], d)
    found: list[tuple] = []  # (t, depth, content, residual of the lift or None if exact)

    # Depth-first over residue branches, children in residue order, on an
    # explicit stack: a repeated residue refines one digit per level down to
    # depth 2N, which at high precision is past the interpreter's frame limit.
    # A branch at t = prefix + p**depth * w holds an integer g(w) that is f
    # over p**above times a unit.
    work: list[tuple] = [("branch", 0, 0, -_vp(scale, pv), _shifted(base, a, b))]
    while work:
        item = work.pop()
        if item[0] == "root":
            found.append(item[1:])
            continue
        _, prefix, depth, above, g = item
        content = _vp(math.gcd(*g), pv)
        norm = [c // pv**content for c in g]
        content += above
        norm_mod_p = [c % pv for c in norm]
        deriv_mod_p = [(j * c) % pv for j, c in enumerate(norm_mod_p)][1:] or [0]
        step = pv**depth
        children = []
        for r in range(pv):
            if _horner(norm_mod_p, r) % pv:
                continue
            if _horner(deriv_mod_p, r) % pv:
                digits = n_rel + m + depth + 8
                w = _newton_lift(norm, r, p, digits)
                rest = _horner(norm, w) // pv**digits  # norm(w) = 0 mod p**digits
                res = digits + _vp(rest, pv) if rest else None
                children.append(("root", prefix + step * w, depth, content, res))
            elif depth + 1 > depth_cap:
                raise LiftStall(
                    f"residue branch at digits {prefix + r * step} "
                    f"did not separate within depth {depth_cap}"
                )
            else:
                children.append(("branch", prefix + r * step, depth + 1, content,
                                 _shifted(norm, r, pv)))
        work.extend(reversed(children))

    def order(root):  # by the offset's valuation, then its unit mod p**12
        v = _vp(root[0], pv) if root[0] else None
        return (1, 0, 0) if v is None else (0, m + v, root[0] // pv**v % pv**12)

    if k_f is not None and found:
        # f' with each inexact coefficient times i reduced mod its own bound,
        # which c.value * i would not be
        slope, slope_scale = _cleared([(c * i).value for i, c in enumerate(f) if i], d)
    roots: list[PadicNumber] = []
    seen: list[int] = []
    for t, depth, content, res in sorted(found, key=order):
        if res is not None and content + res < target:
            continue
        if any(t == s or m + _vp(t - s, pv) >= target for s in seen):
            continue
        seen.append(t)
        y, known = a + b * t, None if res is None else m + depth + res
        if k_f is not None:
            # fuzzy coefficients blur the root by their own uncertainty
            at_y = _horner(slope, y)
            coeff_known = k_f - (_vp(at_y, pv) - _vp(slope_scale, pv) if at_y else 0)
            known = coeff_known if known is None else min(known, coeff_known)
        if y == 0 and known is not None:
            raise PrecisionExhausted(
                "root indistinguishable from zero at working precision", bound=known
            )
        roots.append(PadicNumber(Fraction(y, d), p, n_rel, known_abs=known))
    return roots


def _newton_lift(norm: list[int], r: int, p: Prime, digits: int) -> int:
    """Lift a simple residue root of a content-free integer polynomial to
    Z/p**digits.

    The coefficients and their derivative are reduced mod p**digits once;
    each doubling step then evaluates both at w by Horner, mod p**prec.  The
    derivative's inverse is lifted alongside: one inverse mod p, then
    inv <- inv(2 - f'(w) inv) per step.  A step that doubles w's digits needs
    f'(w)**-1 only to w's old digits, which inv, one step behind w, has.  The
    result is the unique root mod p**digits over r.
    """
    pv = p.value
    top = pv**digits
    coeffs = [c % top for c in norm]
    deriv = [j * c for j, c in enumerate(coeffs)][1:]
    w = r
    inv = pow(_horner(deriv, r), -1, pv)
    prec = 1
    while prec < digits:
        prec = min(2 * prec, digits)
        mod = pv**prec
        fw, dw = _horner(coeffs, w) % mod, _horner(deriv, w) % mod
        inv = inv * (2 - dw * inv) % mod
        w = (w - fw * inv) % mod
    return w
