"""Fixed-point analysis of the boundary-law recursion.

Everything here runs in multiplicative coordinates: a boundary law is the
vector z of one-site weight ratios, the recursion sends a parent to the
product over its children of a Moebius-type factor, and a phase question
becomes a question about fixed points of that product map inside the disk
where the ratios are units congruent to 1 mod p.

Additive field coordinates are recovered through the logarithm only at the
edges of the module (witness-to-field reconstruction), because when p
divides q the logarithm arguments can leave their disk while the
multiplicative form stays perfectly well defined.

Verdicts name the mechanism that grounds them, and a verdict stronger than
the computation supports is never emitted: each certificate is checked, and
when a check fails the report says what was actually found instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cayley_tree import TreeShape
from .errors import (
    DenominatorDegenerate,
    DivisionByZero,
    DomainViolation,
    NotInvertible,
    PrecisionExhausted,
)
from .padic_analytic import (
    ROOT_RESIDUAL_MARGIN,
    exp_domain_min_valuation,
    hensel_roots_in_disk,
    log_p,
)
from .padic_core import (
    DEFAULT_PRECISION,
    PadicNumber,
    _inverse_mod,
    _vp,
    as_prime,
    rational_valuation,
    render_valuation,
)
from .potts_model import BoundaryField, CouplingField, _guard, _level_couplings

VERDICT_UNIQUE = "unique_by_contraction"
VERDICT_MULTIPLE_TI = "multiple_translation_invariant"
VERDICT_INCONCLUSIVE = "inconclusive"


def hprime_to_h(hprime: tuple[PadicNumber, ...]) -> tuple[PadicNumber, ...]:
    """Inverse of the complement-sum map h'_i = sum of h_j over j != i;
    defined only for q >= 3.

    q is one more than the vector's length.  For q = 2 the complement sum
    is identically zero and carries no information, so inversion is refused
    rather than guessed.
    """
    q = len(hprime) + 1
    if q == 2:
        raise NotInvertible("the two-state complement-sum map collapses to zero")
    # written so component k never subtracts a copy of itself (which would
    # cancel past every known digit): the self term carries the exact factor
    # (3 - q)/(q - 2), zero at q = 3
    self_factor = Fraction(3 - q, q - 2)
    out = []
    for k in range(q - 1):
        acc = hprime[k] * self_factor
        for i, c in enumerate(hprime):
            if i != k:
                acc = acc + c * Fraction(1, q - 2)
        out.append(acc)
    return tuple(out)


def f_map_z(z: tuple[PadicNumber, ...], theta: PadicNumber, q: int) -> tuple[PadicNumber, ...]:
    """One child's multiplicative factor of the recursion.

    Component i maps to 1 + (theta - 1)(z_i - 1) / D with the shared
    denominator D = sum_j (z_j - 1) + (theta - 1) + q, an exact rewrite of
    the defining quotient that exposes the contraction structure: when q is
    a unit so is D, and the offset from 1 gains at least the valuation of
    theta - 1.
    """
    one = PadicNumber.one(theta.prime, theta.precision)
    th_offset = theta - one
    denom = th_offset + q
    if len(z) != q - 1:
        raise ValueError(f"boundary law needs {q - 1} components for q={q}")
    offsets = [c - one for c in z]
    for off in offsets:
        denom = denom + off
    try:
        scale = th_offset * denom.inverse()
    except DivisionByZero as exc:
        raise DenominatorDegenerate("recursion denominator is exactly zero") from exc
    except PrecisionExhausted as exc:
        raise DenominatorDegenerate(
            "recursion denominator is indistinguishable from zero at working precision"
        ) from exc
    return tuple(one + scale * off for off in offsets)


@dataclass(frozen=True)
class RecursionResult:
    """Backward recursion output: the root law and how fast levels flatten.

    ``per_level_offset[m]`` is the valuation of the largest-norm offset from
    the all-ones law over the vertices of level m (so the list is indexed
    root first and the final entry describes the boundary data itself).
    """

    root_z: tuple[PadicNumber, ...]
    per_level_offset: list


def recursion_backward(
    shape: TreeShape,
    boundary_z: dict,
    J: CouplingField,
    n: int,
    precision: int = DEFAULT_PRECISION,
) -> RecursionResult:
    """Propagate boundary laws from the n-th sphere down to the root.

    Each parent's law is the product over its children of the single-edge
    factor.  ``boundary_z`` maps the address of every vertex of the n-th
    sphere to its law, a tuple of q - 1 PadicNumbers; it is read once per
    vertex, in address order, after the guard on the ball's size has passed.

    In the regime of claim (i) -- q prime to p, every theta - 1 of
    valuation >= 1, and every boundary component exactly 1 or congruent to
    1 mod p -- every denominator is a unit and the fold runs on integers
    (``_integer_fold``), giving the very values, bounds and precisions the
    per-object fold gives.  A law is carried as its offsets
    z - 1 = p**v * s + O(p**k), and PadicNumber's capped-relative rules for
    the factor's fixed sequence of operations collapse to closed forms:

    * the denominator D is known to k_D = min(K_theta, the child's bounds);
    * the scale (theta - 1)/D has relative precision
      r_s = min(K_theta - v_t, k_D), v_t the valuation of theta - 1;
    * each factor is 1 + p**(v_t + v) * (scale * s mod p**r)
      + O(p**(v_t + v + r)) with r = min(r_s, k - v);
    * a product takes the least bound.

    Each level's denominators are inverted together, with one modular
    inverse (Montgomery's trick).  Every other input -- p dividing q, a law
    off the disk, a zero coupling, a component of another prime or a law of
    the wrong length -- takes the per-object fold (``_object_fold``),
    unchanged.  Both take the coupling ids ``_level_couplings`` reads for
    levels n..1 after the sphere's laws and before any fold, and raise the
    same errors in the same order: edges in reverse, deepest level first.
    """
    if n < 1:
        raise ValueError("recursion needs at least one level")
    _guard(J.q, shape, n, configurations=False)
    laws = [boundary_z[a] for a in shape.level_addresses(n)]
    couplings = _level_couplings(shape, J, range(n, 0, -1))
    result = _integer_fold(shape, couplings, laws, J, n, precision)
    if result is None:
        result = _object_fold(shape, couplings, laws, J, n, precision)
    return result


def _object_fold(shape: TreeShape, couplings: tuple, laws: list, J: CouplingField, n: int,
                 precision: int) -> RecursionResult:
    """The recursion on PadicNumbers, ``f_map_z`` per edge, for the sphere's
    ``laws`` in address order.  ``couplings`` is ``_level_couplings`` read
    for levels n..1: one theta per coupling id, and the edge into offset o
    of level m takes the theta of its id, ``off.get(o, default)``."""
    values, levels = couplings
    thetas = [J.theta(value, precision) for value in values]
    starts = [0] + [shape.ball_size(m) for m in range(n + 1)]
    folded: list = [None] * starts[n] + laws
    # each level folds into the one above it, its edges taken in reverse, so
    # every child's law is folded before its parent's; the child at offset o
    # of level m has the parent at offset o // k of level m - 1
    for m in range(n, 0, -1):
        (default, off), step = levels[m], shape.successor_count(m - 1)
        for j in range(starts[m + 1] - 1, starts[m] - 1, -1):
            i = starts[m - 1] + (j - starts[m]) // step
            factor = f_map_z(folded[j], thetas[off.get(j - starts[m], default)], J.q)
            if folded[i] is not None:
                factor = tuple(a * b for a, b in zip(factor, folded[i]))
            folded[i] = factor
    offsets = [
        min(_offset_valuation(law) for law in folded[starts[m] : starts[m + 1]])
        for m in range(n + 1)
    ]
    return RecursionResult(root_z=folded[0], per_level_offset=offsets)


class _Powers(dict):
    """p**e on demand, each power made once."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, e: int) -> int:
        self[e] = power = self.p**e
        return power


def _theta_terms(theta: PadicNumber, q: int):
    """(t, v_t, K, P, t + q) for theta = exp(J) = 1 + t + O(p**K), J an
    admissible nonzero coupling (``CouplingField``), so t = p**v_t * u with
    v_t = v_p(J) >= 1, as the edge map's PadicNumbers hold them (P is the
    precision of t and of the shift t + q); None for the exact theta of J = 0."""
    K = theta.known_abs
    if K is None:
        return None
    p = theta.prime.value
    t = (theta._unit - 1) % p**K
    v = _vp(t, p)
    return t, v, K, min(theta.precision, K - v), t + q


def _law_offsets(law, prime, q: int):
    """A sphere law (z_1, ..., z_{q-1}) as (t, k, P, B), with
    z_c - 1 = t[c] / B + O(p**k[c]): B is the product of the exact
    components' denominators, k[c] is inf for an exact component and P is
    the least precision.  None unless the law has q - 1 components of the
    prime ``prime``, each exactly 1 or congruent to 1 mod p."""
    if type(law) not in (tuple, list) or len(law) != q - 1:
        return None
    p, B, P = prime.value, 1, math.inf
    for c in law:
        if type(c) is not PadicNumber or c.prime != prime or c._val != 0:
            return None
        if c.known_abs is None:
            if (c._unit - c._den) % p:
                return None
            B *= c._den
        elif c._unit % p != 1:
            return None
        P = min(P, c.precision)
    ts, ks = [], []
    for c in law:
        if c.known_abs is None:
            ts.append((c._unit - c._den) * (B // c._den))
            ks.append(math.inf)
        else:
            ts.append((c._unit - 1) * B % p**c.known_abs)
            ks.append(c.known_abs)
    return ts, ks, P, B


def _integer_fold(shape: TreeShape, couplings: tuple, laws: list, J: CouplingField, n: int,
                  precision: int) -> RecursionResult | None:
    """The recursion on integers in the regime of claim (i), level by level;
    None outside it (see ``recursion_backward``).  Takes what
    ``_object_fold`` takes."""
    prime, q = J.prime, J.q
    p = prime.value
    if q % p == 0:
        return None
    values, levels = couplings
    terms = [_theta_terms(J.theta(value, precision), q) for value in values]  # by coupling id
    if None in terms:
        return None
    # each denominator is inverted mod p**widest, widest >= its r_s
    widest = max(K - v_t for _, v_t, K, _, _ in terms)
    level = [_law_offsets(law, prime, q) for law in laws]
    if None in level:
        return None

    inf, pw = math.inf, _Powers(p)
    mod = pw[widest]
    offsets: list = [inf] * (n + 1)
    for m in range(n - 1, -1, -1):
        default, off = levels[m + 1]  # row[i]: the edge above vertex i of level m + 1
        row = [terms[default]] * len(level)
        for o, i in off.items():
            row[o] = terms[i]
        # each child's denominator D = t_D / B and its bounds, the children
        # taken in the object fold's order so that the first cancelled
        # offset raises where it raises there; acc is the product of the
        # denominators met so far (Montgomery's trick: one inverse of the
        # product gives each one's inverse)
        dens, acc, least = [], 1, inf
        for (ts, ks, P, B), th in zip(reversed(level), reversed(row)):
            _, v_t, K, P_D, shift = th
            t_D, k_D, vals = shift * B, K, []
            for t, kc in zip(ts, ks):
                if t:
                    v = _vp(t, p)
                    t_D += t
                    if kc < k_D:
                        k_D = kc
                    if kc - v < P_D:
                        P_D = kc - v
                elif kc == inf:  # exactly 1
                    v = inf
                else:
                    raise PrecisionExhausted(bound=kc)
                if v < least:
                    least = v
                vals.append(v)
            r_s = K - v_t if K - v_t < k_D else k_D
            dens.append((acc, t_D, r_s, P_D if P_D < P else P, vals))
            acc = acc * t_D % mod
        offsets[m + 1] = least
        inv = _inverse_mod(acc, p, widest)  # of every denominator's product
        step = shape.successor_count(m)
        parents = [([0] * (q - 1), [inf] * (q - 1)) for _ in range(len(level) // step)]
        precisions = [inf] * len(parents)
        for i, (before, t_D, r_s, P_D, vals) in enumerate(reversed(dens)):
            t_th, v_t = row[i][0], row[i][1]
            scale = t_th * before * inv  # (theta - 1) / (B * D)
            inv = inv * t_D % mod
            a = i // step
            if P_D < precisions[a]:
                precisions[a] = P_D
            pts, pks = parents[a]
            ts, ks = level[i][0], level[i][1]
            for c in range(q - 1):
                t = ts[c]
                if not t:
                    continue  # a factor of exactly 1
                kc, e = ks[c], vals[c] + r_s
                k_f = v_t + (e if e < kc else kc)
                f = scale * t % pw[k_f]
                if k_f < pks[c]:
                    pks[c] = k_f
                tp = pts[c]
                pts[c] = (tp + f + tp * f) % pw[pks[c]]
        level = [(ts, ks, P, 1) for (ts, ks), P in zip(parents, precisions)]

    ts, ks, P, _ = level[0]
    offsets[0] = min(_vp(t, p) if t else kc for t, kc in zip(ts, ks))
    root = tuple(
        PadicNumber.one(prime, P) if kc == inf else PadicNumber.from_residue(1 + t, prime, kc, P)
        for t, kc in zip(ts, ks)
    )
    return RecursionResult(root_z=root, per_level_offset=offsets)


def _offset_valuation(z: tuple[PadicNumber, ...]) -> int | float:
    """Valuation of the largest-norm component of z - 1.

    Raises:
        ValueError: for the empty law, which has no prime.
    """
    if not z:
        raise ValueError("boundary law needs at least one component")
    one = PadicNumber.one(z[0].prime)
    return min(c.distance_valuation(one) for c in z)


def uniqueness_certificate(p, q: int) -> str | None:
    """The certificate text when the contraction argument guarantees a
    unique boundary law, which it does when q is a unit at p; else None."""
    if q % as_prime(p).value:
        return (
            "q is a unit, so every recursion denominator is a unit and each level "
            "contracts the offset from the all-ones law by at least one digit; the "
            "only law compatible at every depth is the trivial one"
        )
    return None


@dataclass(frozen=True)
class PhaseReport:
    """Classification outcome with its witnesses and measured diagnostics."""

    verdict: str
    witnesses: list
    certificate: str
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": self.certificate,
            "witnesses": [_witness_json(w) for w in self.witnesses],
            "diagnostics": self.diagnostics,
        }


def _per_component(f, z: tuple) -> list:
    """``f`` of every component of a law, computed once per distinct
    component: a law (z, 1, ..., 1) shares its one object."""
    done: dict = {}
    for c in z:
        if id(c) not in done:
            done[id(c)] = f(c)
    return [done[id(c)] for c in z]


def _witness_sort_key(z: tuple[PadicNumber, ...]) -> list:
    """(offset valuation, first 8 digits) per component of a law."""
    one = PadicNumber.one(z[0].prime)
    return _per_component(lambda c: (c.distance_valuation(one), c.leading_digits(8)), z)


def _witness_json(z: tuple[PadicNumber, ...]) -> dict:
    return {
        "components": [
            {"offset_valuation": render_valuation(v), "digits": list(digits)}
            for v, digits in _witness_sort_key(z)
        ]
    }


def _report(p, q: int, witnesses: list, diag: dict, multiple: str, trivial: str) -> PhaseReport:
    """The verdict on a branch's sorted ``witnesses``: more than one is
    ``multiple`` (the certificate text), else the contraction certificate
    decides between unique and inconclusive (``trivial`` the text then)."""
    if len(witnesses) > 1:
        return PhaseReport(VERDICT_MULTIPLE_TI, witnesses, multiple, diag)
    cert = uniqueness_certificate(p, q)
    if cert is not None:
        return PhaseReport(VERDICT_UNIQUE, witnesses, cert, diag)
    return PhaseReport(VERDICT_INCONCLUSIVE, witnesses, trivial, diag)


def _law_from_first_component(z: PadicNumber, q: int, precision: int) -> tuple[PadicNumber, ...]:
    """The law (z, 1, ..., 1) with q - 1 components, its q - 2 ones one object."""
    return (z, *(PadicNumber.one(z.prime, precision),) * (q - 2))


def _mobius_step(z: PadicNumber, theta: PadicNumber, q: int) -> PadicNumber:
    """(theta*z + q - 1) / (z + theta + q - 2), the scalar one-child step."""
    num, den = theta * z + (q - 1), z + theta + (q - 2)
    try:
        return num / den
    except (DivisionByZero, PrecisionExhausted) as exc:
        raise DenominatorDegenerate("scalar recursion step denominator degenerate") from exc


def solve_k1_bipartite(
    theta1: PadicNumber,
    theta2: PadicNumber,
    q: int,
    precision: int = DEFAULT_PRECISION,
) -> PhaseReport:
    """Period-two boundary laws on the line with alternating couplings.

    Composing the two alternating one-child steps gives a single scalar
    fixed-point equation whose root set is {1, 1-q} whenever the composite
    parameter differs from 1, i.e. whenever neither coupling vanishes.  A
    root is a Gibbs witness only if its offset from 1 has valuation >= 1,
    which for 1-q means exactly that p divides q.
    """
    p = theta1.prime
    alpha_num, alpha_den = theta1 * theta2 + (q - 1), theta1 + theta2 + (q - 2)
    try:
        alpha = alpha_num / alpha_den
    except (DivisionByZero, PrecisionExhausted) as exc:
        raise DenominatorDegenerate("composite coupling parameter degenerate") from exc

    one_minus = (theta1 - 1) * (theta2 - 1)
    degenerate = one_minus.is_zero  # exactly when one coupling is exactly zero
    roots = [PadicNumber.one(p, precision)]
    if not degenerate:
        roots.append(PadicNumber.from_fraction(1 - q, p, precision))

    def one_period(c: PadicNumber) -> tuple[PadicNumber, int | float]:
        """A component's partner, and how close one full period returns it."""
        partner = _mobius_step(c, theta2, q)
        return partner, _mobius_step(partner, theta1, q).distance_valuation(c)

    witnesses = []
    rejected = []
    pairs = {}
    for root in roots:
        offset = root.distance_valuation(PadicNumber.one(p, precision))
        vec = _law_from_first_component(root, q, precision)
        if offset >= 1:
            period = _per_component(one_period, vec)
            partner = tuple(x for x, _ in period)
            residual = min(r for _, r in period)
            if residual < precision - ROOT_RESIDUAL_MARGIN:
                raise DomainViolation(
                    f"fixed-point residual only reaches valuation {render_valuation(residual)}"
                )
            witnesses.append(vec)
            pairs[len(witnesses) - 1] = partner
        else:
            rejected.append(vec)

    witnesses.sort(key=_witness_sort_key)
    diag = {
        "alpha_offset_valuation": render_valuation(alpha.distance_valuation(PadicNumber.one(p))),
        "rejected_roots": [_witness_json(r) for r in rejected],
        "paired_laws": [_witness_json(pairs[i]) for i in sorted(pairs)],
    }
    return _report(
        p, q, witnesses, diag,
        "two distinct period-two boundary laws verified as fixed points of the "
        "composed alternating step",
        "only the trivial law arises on this branch (a coupling vanishes or every "
        "nontrivial root leaves the disk) and no uniqueness certificate applies",
    )


def translation_invariant_cubic(
    theta: PadicNumber,
    q: int,
    precision: int = DEFAULT_PRECISION,
) -> PhaseReport:
    """Constant boundary laws on the order-2 tree via the reduced cubic.

    The fixed-point condition for a law constant across the tree, with all
    but the first component equal to 1, collapses to a monic cubic whose
    coefficients sum to zero, so 1 is always a root; the remaining disk
    roots are found by Hensel search.
    """
    p = theta.prime
    one = PadicNumber.one(p, theta.precision)
    u = theta - one  # offset of the edge weight from 1
    c3 = PadicNumber.one(p, theta.precision)
    c2 = (2 * q - 3) - u * u
    c1 = u * u + (q * q - 4 * q + 3)
    c0 = PadicNumber.from_fraction(-((q - 1) ** 2), p, theta.precision)
    roots = hensel_roots_in_disk((c0, c1, c2, c3), PadicNumber.one(p, precision), 1)

    witnesses = [_law_from_first_component(r, q, precision) for r in roots]
    witnesses.sort(key=_witness_sort_key)
    try:
        at_one = render_valuation((c3 + c2 + c1 + c0).norm_valuation())
    except PrecisionExhausted as exc:
        # total cancellation: the value is zero past every known digit
        at_one = f">={exc.bound}"
    diag = {
        "disk_root_count": len(roots),
        "value_at_one_valuation": at_one,
    }
    return _report(
        p, q, witnesses, diag,
        "the reduced cubic has more than one root in the unit disk around 1, each "
        "a verified constant boundary law",
        "only the trivial constant law was found yet no uniqueness certificate applies",
    )


def period2_k2_analysis(
    theta: PadicNumber,
    q: int,
    precision: int = DEFAULT_PRECISION,
) -> PhaseReport:
    """Two-level alternating laws on the order-2 tree.

    Eliminating one unknown from the alternating pair system leaves a
    quadratic a*z**2 + b*z + c in the first component.  The classical
    certificate for ruling out extra solutions demands that a and b lose a
    digit while c stays a unit.  It never applies to the inputs taken here
    (an odd p dividing q, theta = exp(J) congruent to 1 mod p): then
    c = (theta(q - 1) + (theta + q - 2)**2)**2 loses at least two digits.
    So the routine measures all three valuations, searches the disk and
    reports whatever is actually there, an inconclusive verdict.  A
    quadratic root is only accepted after the full two-step cycle closes on
    it.
    """
    p = theta.prime
    if p.value < 3:
        raise DomainViolation("the alternating-pair analysis needs an odd prime")
    if q % p.value != 0:
        raise DomainViolation("the alternating-pair analysis targets q divisible by p")
    if theta.distance_valuation(1) < 1:
        raise DomainViolation("the alternating-pair analysis needs theta congruent to 1 mod p")

    a = (theta * theta + theta + (q - 2)) ** 2
    b = (
        theta**4
        + 4 * (q - 1) * theta**3
        + (q * q + 6 * q - 12) * theta * theta
        + 2 * (5 * q * q - 18 * q + 16) * theta
        + (2 * q**3 - 13 * q * q + 26 * q - 17)
    )
    c = (theta * (q - 1) + (theta + (q - 2)) ** 2) ** 2

    va, vb, vc = (x.norm_valuation() for x in (a, b, c))
    roots = hensel_roots_in_disk((c, b, a), PadicNumber.one(p, precision), 1)

    witnesses = []
    cycles = []
    for r in roots:
        vec = _law_from_first_component(r, q, precision)
        partner_first = _mobius_step(r, theta, q) ** 2
        partner = _law_from_first_component(partner_first, q, precision)
        back_first = _mobius_step(partner_first, theta, q) ** 2
        closure = back_first.distance_valuation(r)
        witnesses.append(vec)
        cycles.append(
            {
                "partner": _witness_json(partner),
                "cycle_closure_valuation": render_valuation(closure),
                "partner_distinct_valuation": render_valuation(partner_first.distance_valuation(r)),
            }
        )

    diag = {
        "leading_valuation": render_valuation(va),
        "middle_valuation": render_valuation(vb),
        "constant_valuation": render_valuation(vc),
        "disk_root_count": len(roots),
        "cycles": cycles,
    }
    return PhaseReport(
        VERDICT_INCONCLUSIVE,
        sorted(witnesses, key=_witness_sort_key),
        "the unit-constant-term certificate fails here (the constant term itself "
        "loses digits) and the disk search returns genuine two-cycles, so the "
        "collapse of alternating laws is not certified",
        diag,
    )


# p = 2 threshold table for the order-2 tree: (q mod condition, coupling
# valuation condition) -> multiple constant laws guaranteed.
def _two_adic_threshold(q: int, j_valuation: int) -> bool:
    m = _vp(q, 2)
    if m == 2:
        return j_valuation == 2
    if m >= 3:
        return j_valuation >= 2
    return False


def classify_phase(k: int, J: CouplingField, precision: int = DEFAULT_PRECISION) -> PhaseReport:
    """Dispatch to the strongest applicable analysis for branching k and the
    coupling J, which carries p and q.  Before any branch, q a unit at p and
    a homogeneous or bipartite coupling zero on every edge are unique at every
    k; a per-edge table lists only finitely many edges, so it is not."""
    prime, q = J.prime, J.q
    cert = uniqueness_certificate(prime, q)
    if cert is not None:
        return PhaseReport(VERDICT_UNIQUE, [], cert, {"q_unit": True})
    if J.pattern in ("homogeneous", "bipartite") and not any(J.values.values()):
        return PhaseReport(VERDICT_UNIQUE, [], "the coupling is zero on every edge, so every "
                           "recursion factor is exactly 1 and one level sends every law to the "
                           "all-ones law, the only one", {"zero_coupling": True})

    if k == 1 and J.pattern in ("homogeneous", "bipartite"):
        theta1 = J.theta(J.level_coupling(1), precision)
        theta2 = J.theta(J.level_coupling(2), precision)
        return solve_k1_bipartite(theta1, theta2, q, precision)

    if k == 2 and J.pattern == "homogeneous":
        j_val = rational_valuation(J.level_coupling(1), prime)
        if prime.value == 2:
            diag = {"coupling_valuation": render_valuation(j_val)}
            if _two_adic_threshold(q, j_val):
                return PhaseReport(
                    VERDICT_MULTIPLE_TI,
                    [],
                    "the two-adic threshold table guarantees more than one constant "
                    "law at this coupling norm (no roots are searched at p = 2)",
                    diag,
                )
            return PhaseReport(
                VERDICT_INCONCLUSIVE,
                [],
                "outside the two-adic threshold table nothing is certified",
                diag,
            )
        theta = J.theta(J.level_coupling(1), precision)
        constant = translation_invariant_cubic(theta, q, precision)
        alternating = period2_k2_analysis(theta, q, precision)
        merged = dict(constant.diagnostics)
        merged["alternating_verdict"] = alternating.verdict
        merged["alternating_diagnostics"] = alternating.diagnostics
        return PhaseReport(
            constant.verdict,
            constant.witnesses + alternating.witnesses,
            constant.certificate + "; alternating-pair analysis: " + alternating.certificate,
            merged,
        )

    return PhaseReport(
        VERDICT_INCONCLUSIVE,
        [],
        "no implemented analysis covers this combination of branching, coupling "
        "pattern, and divisibility",
        {},
    )


def witness_boundary_field(
    witness: tuple[PadicNumber, ...], precision: int | None = None
) -> BoundaryField:
    """The constant boundary field whose one-site weight ratios equal ``witness``,
    over q = ``len(witness)`` + 1 spin states.

    The field's complement-sum coordinates are minus the componentwise log of
    the witness: with that orientation the finite-volume measures built from
    the field marginalize consistently whenever the witness is a genuine
    fixed point.  At p = 2 the reconstruction additionally needs every
    component offset at valuation >= 2 so the exponentials downstream stay
    defined.

    ``precision`` deepens the logarithms past the witness's display precision
    (effective only for exact components); measure checks escalate their
    working modulus with volume, so reconstruct with headroom to spare.
    An empty witness is refused with ValueError.
    """
    offset = _offset_valuation(witness)
    need = exp_domain_min_valuation(witness[0].prime)
    if offset < need:
        raise DomainViolation(
            f"witness offset below valuation {need}; its field has no admissible "
            "exponent at this prime"
        )
    hprime = tuple(-log_p(c, precision=precision) for c in witness)
    return BoundaryField.constant(hprime_to_h(hprime))
