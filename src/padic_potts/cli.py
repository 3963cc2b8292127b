"""Command-line front end.

Machine-readable JSON goes to stdout (or --out), human commentary to stderr.
Every subcommand is deterministic for a fixed flag set and seed, down to the
byte: keys are sorted, separators fixed, and no timing or environment data
leaks into the output.

Exit codes: 0 success (and a holding compatibility check), 1 configuration
error or suite/check violation, 2 domain violation, 3 degeneracy of the
computation (vanishing partition function or denominator, a stalled root
lift, exhausted precision), 4 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .errors import (
    DenominatorDegenerate,
    DomainViolation,
    EnumerationTooLarge,
    LiftStall,
    NotInvertible,
    PartitionFunctionDegenerate,
    PrecisionExhausted,
)
from .padic_analytic import exp_domain_min_valuation, exp_p, log_p
from .padic_core import (
    DEFAULT_PRECISION,
    PadicNumber,
    Prime,
    _INTEGER_TEXT,
    as_prime,
    render_valuation,
)

# The Cayley-tree, measure and solver layers are imported inside the
# functions that run them, so a command loads only the layers it uses: the
# exp-log and product-distance suites need none of them.

SUITES = ("exp-log", "product-distance", "contraction", "compat", "all")

EXIT_OK = 0
EXIT_CONFIG_OR_VIOLATION = 1
EXIT_DOMAIN = 2
EXIT_DEGENERATE = 3
EXIT_GUARD = 4


class ConfigError(Exception):
    """Bad flags or bad input files; reported on stderr with exit 1."""


def _check_flags(args) -> None:
    """Refuse the out-of-range flags every subcommand shares.

    ``p`` and ``q`` stay None when not given, so a suite can tell a chosen
    value from its own default; each default is applied where it is read.
    """
    if args.p is not None:
        try:
            as_prime(args.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if args.q is not None and args.q < 2:
        raise ConfigError("q must be at least 2")
    if args.k < 1:
        raise ConfigError("k must be at least 1")
    if args.n < 0:
        raise ConfigError("n must be nonnegative")
    if args.precision < 8:
        raise ConfigError("precision below 8 digits leaves no room for slack")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if args.checks is not None and args.checks < 1:
        raise ConfigError("checks must be positive")


def _coupling(args) -> CouplingField:
    """The coupling from --couplings, or the default coupling."""
    from .cayley_tree import TreeShape
    from .potts_model import coupling_from_json

    if args.couplings is None:
        return _default_coupling(args.p or 3, args.q or 3)
    text = args.couplings.strip()
    if not text.startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read couplings file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"couplings JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the int-string limit
        raise ConfigError(f"couplings JSON: {exc}") from exc
    try:
        J = coupling_from_json(doc, TreeShape(args.k))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"couplings field invalid: {exc}") from exc
    if args.p is not None and J.prime.value != args.p:
        raise ConfigError("couplings prime disagrees with --p")
    if args.q is not None and J.q != args.q:
        raise ConfigError("couplings q disagrees with --q")
    return J


def _boundary_field(args, J: CouplingField) -> BoundaryField:
    """The field from --field on the --k tree, or the zero field."""
    from .cayley_tree import TreeShape
    from .potts_model import BoundaryField, boundary_field_from_json

    if args.field is None:
        return BoundaryField.zero(J.q, J.prime)
    try:
        with open(args.field, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read field file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"field JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the int-string limit, or bad UTF-8
        raise ConfigError(f"field JSON: {exc}") from exc
    try:
        return boundary_field_from_json(doc, J.q, J.prime, TreeShape(args.k))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"field file invalid: {exc}") from exc


def _default_coupling(p: int, q: int) -> CouplingField:
    """Homogeneous J = p**v with v the least valuation the exponential admits:
    J = p at odd p, J = 4 at p = 2."""
    from .potts_model import CouplingField

    return CouplingField.homogeneous(Fraction(p ** exp_domain_min_valuation(p)), p, q)


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc


def _p_free(rng: random.Random, p: int, top: int) -> int:
    """A draw from [1, top), moved up to the next integer prime to p."""
    x = rng.randrange(1, top)
    while x % p == 0:
        x += 1
    return x


def _random_exp_argument(rng: random.Random, prime: Prime, N: int) -> PadicNumber:
    """A nonzero exact value in the exponential domain at p, to N digits:
    +-p**v * num/den, v up to two past the least, num < p**6, den < p**4."""
    p = prime.value
    v = exp_domain_min_valuation(prime) + rng.randrange(0, 3)
    num = _p_free(rng, p, p**6)
    den = _p_free(rng, p, p**4)
    sign = -1 if rng.random() < 0.5 else 1
    return PadicNumber.from_ratio(sign * num * p**v, den, prime, N)


def _random_unit(rng: random.Random, prime: Prime, N: int) -> PadicNumber:
    """An exact unit a/b at p, a < p**8 and b < p**5, to N digits."""
    p = prime.value
    return PadicNumber.from_ratio(_p_free(rng, p, p**8), _p_free(rng, p, p**5), prime, N)


def _random_law_component(rng: random.Random, prime: Prime, N: int) -> PadicNumber:
    """1 + p**e * num/den = (den + p**e * num)/den for e in 1..3, num < p**8
    and den < p**5 p-free, to N digits: a component of a contraction law."""
    p = prime.value
    pe = p ** (1 + rng.randrange(0, 3))
    num = _p_free(rng, p, p**8)
    den = _p_free(rng, p, p**5)
    return PadicNumber.from_ratio(den + pe * num, den, prime, N)


def _certified_distance(lhs, rhs) -> int | float:
    """The valuation of lhs() - rhs() as ``distance_valuation`` bounds it.

    A side that cancels past its known digits raises PrecisionExhausted: it
    is 0 + O(p**bound).  The difference then has valuation at least the
    least of that bound and the other side's valuation, the certified bound
    ``distance_valuation`` reports for a difference it cannot resolve.
    """
    sides = []
    for side in (lhs, rhs):
        try:
            sides.append(side())
        except PrecisionExhausted as exc:
            sides.append(exc.bound)
    a, b = sides
    if isinstance(a, PadicNumber) and isinstance(b, PadicNumber):
        return a.distance_valuation(b)
    return min(s.norm_valuation() if isinstance(s, PadicNumber) else s for s in sides)


def _tally(suite: str, total: int, outcomes) -> dict:
    """A suite's report from its checks' ``(ok, detail)`` outcomes, in order.

    ``detail()`` renders one check; it is called only for the first three
    passes, which are the samples, and for the first failure, and before the
    next outcome is drawn, so it may read the generator's loop variables.
    """
    passed = 0
    first_failure = None
    samples = []
    for i, (ok, detail) in enumerate(outcomes):
        if ok:
            passed += 1
            if len(samples) < 3:
                samples.append(detail())
        elif first_failure is None:
            first_failure = {"index": i, **detail()}
    return {
        "suite": suite,
        "checks": total,
        "passed": passed,
        "first_failure": first_failure,
        "samples": samples,
    }


def _suite_exp_log(args) -> dict:
    rng = random.Random(args.seed)
    primes = [as_prime(p) for p in ([args.p] if args.p is not None else [2, 3, 5, 7])]
    total = args.checks or 2000
    N = args.precision

    def outcomes():
        for i in range(total):
            prime = primes[i % len(primes)]
            p = prime.value
            kind = i % 5
            x = _random_exp_argument(rng, prime, N)
            y = _random_exp_argument(rng, prime, N)
            if kind == 4:
                lhs, rhs = (exp_p(x) - 1).norm_valuation(), x.norm_valuation()
                ok = lhs == rhs
                check = f"isometry valuations {render_valuation(lhs)} vs {render_valuation(rhs)}"
            else:
                if kind == 0:
                    what = "additive homomorphism"
                    d = exp_p(x + y).distance_valuation(exp_p(x) * exp_p(y))
                elif kind == 1:
                    what = "multiplicative homomorphism"
                    z, w = exp_p(x), exp_p(y)
                    d = _certified_distance(lambda: log_p(z * w), lambda: log_p(z) + log_p(w))
                elif kind == 2:
                    what = "log-exp round trip"
                    d = log_p(exp_p(x)).distance_valuation(x)
                else:
                    what = "exp-log round trip"
                    z = exp_p(x)
                    d = exp_p(log_p(z)).distance_valuation(z)
                ok = d >= N - 2
                check = f"{what} distance {render_valuation(d)}"
            yield ok, lambda: {"p": p, "x": x.render(), "check": check}

    return _tally("exp-log", total, outcomes())


def _suite_product_distance(args) -> dict:
    rng = random.Random(args.seed)
    primes = [as_prime(p) for p in ([args.p] if args.p is not None else [2, 3, 5, 7])]
    total = args.checks or 500
    N = args.precision

    def outcomes():
        for i in range(total):
            prime = primes[i % len(primes)]
            p = prime.value
            m = rng.randrange(1, 9)
            a = [_random_unit(rng, prime, N) for _ in range(m)]
            b = [_random_unit(rng, prime, N) for _ in range(m)]
            prod_a = PadicNumber.one(prime, N)
            prod_b = PadicNumber.one(prime, N)
            for u, w in zip(a, b):
                prod_a, prod_b = prod_a * u, prod_b * w
            lhs = prod_a.distance_valuation(prod_b)
            rhs = min(u.distance_valuation(w) for u, w in zip(a, b))
            yield lhs >= rhs, lambda: {"p": p, "factors": m, "bound": render_valuation(rhs),
                                       "got": render_valuation(lhs)}

    return _tally("product-distance", total, outcomes())


def _suite_contraction(args) -> dict:
    from .cayley_tree import TreeShape
    from .gibbs_solver import recursion_backward

    rng = random.Random(args.seed)
    p = args.p or 3
    prime = as_prime(p)
    q = args.q or 2
    if q % p == 0:
        raise ConfigError("the contraction suite needs q not divisible by p")
    n = args.n
    if n < 1:
        raise ConfigError("the contraction suite needs n >= 1")
    total = args.checks or 25
    N = args.precision
    J = _default_coupling(p, q)
    shape = TreeShape(args.k)

    class RandomLaws:
        # a fresh law for each sphere vertex the recursion reads, in its
        # reading order, so nothing is drawn before its guard has passed
        def __getitem__(self, address) -> tuple[PadicNumber, ...]:
            return tuple(_random_law_component(rng, prime, N) for _ in range(q - 1))

    def outcomes():
        for _ in range(total):
            offs = recursion_backward(shape, RandomLaws(), J, n, N).per_level_offset
            ok = all(offs[m] >= offs[m + 1] + 1 for m in range(n))
            yield ok, lambda: {"offsets": [render_valuation(v) for v in offs]}

    return _tally("contraction", total, outcomes())


def _suite_compat(args) -> dict:
    from .cayley_tree import TreeShape
    from .potts_model import BoundaryField, CouplingField, compatibility_check

    # fixed canonical instances; global flags are deliberately ignored so the
    # suite always exercises the same two measure computations
    N = args.precision
    J = CouplingField.homogeneous(Fraction(3), 3, 3)
    zero = PadicNumber.zero(3, N)
    alternating = BoundaryField.by_parity((PadicNumber.from_fraction(3, 3, N), zero), (zero, zero))
    checks = (  # (name, shape, field, expected to hold)
        ("zero field stays consistent", TreeShape(2), BoundaryField.zero(3, 3), True),
        ("alternating field breaks consistency", TreeShape(1), alternating, False),
    )

    def outcomes():
        for name, shape, field, expected in checks:
            rep = compatibility_check(shape, field, J, 2, N)
            # a break counts only where it is resolved, not a vanishing bound
            ok = rep.holds if expected else not rep.holds and rep.resolved
            yield ok, lambda: {
                "name": name,
                "expected_holds": expected,
                "holds": rep.holds,
                "worst_discrepancy": render_valuation(rep.max_discrepancy_valuation),
                "terms": rep.terms_enumerated,
                "ok": ok,
            }

    return _tally("compat", len(checks), outcomes())


_SUITE_RUNNERS = {
    "exp-log": _suite_exp_log,
    "product-distance": _suite_product_distance,
    "contraction": _suite_contraction,
    "compat": _suite_compat,
}


def cmd_verify(args) -> int:
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    reports = [_SUITE_RUNNERS[name](args) for name in names]
    ok = all(r["passed"] == r["checks"] for r in reports)
    doc = {
        "command": "verify",
        "seed": args.seed,
        "precision": args.precision,
        "ok": ok,
        "suites": reports,
    }
    _emit(doc, args.out)
    if not ok:
        print("suite violation; see first_failure entries", file=sys.stderr)
        return EXIT_CONFIG_OR_VIOLATION
    return EXIT_OK


def _head(args, J: CouplingField, **fields) -> dict:
    """A run document's head: the command, the p and q of ``J``, the k and
    precision it ran at, then ``fields``."""
    return {
        "command": args.command,
        "p": J.prime.value,
        "q": J.q,
        "k": args.k,
        "precision": args.precision,
        **fields,
    }


def cmd_classify(args) -> int:
    from .gibbs_solver import classify_phase

    J = _coupling(args)
    report = classify_phase(args.k, J, args.precision)
    _emit(_head(args, J, report=report.to_json()), args.out)
    return EXIT_OK


def _measure(args, run) -> tuple:
    """``run`` on the shape, field, coupling, n and precision the flags give,
    with the head of the document that reports it."""
    from .cayley_tree import TreeShape

    J = _coupling(args)
    field = _boundary_field(args, J)
    try:
        result = run(TreeShape(args.k), field, J, args.n, args.precision)
    except KeyError as exc:  # a per-edge coupling table that misses an edge of the ball
        raise ConfigError(exc.args[0]) from exc
    return result, _head(args, J, n=args.n)


def cmd_compat_check(args) -> int:
    from .potts_model import compatibility_check

    if args.n < 1:
        raise ConfigError("compat-check needs n >= 1")
    report, doc = _measure(args, compatibility_check)
    doc.update(
        holds=report.holds,
        max_discrepancy_valuation=render_valuation(report.max_discrepancy_valuation),
        threshold=report.threshold,
        resolved=report.resolved,
        terms=report.terms_enumerated,
    )
    _emit(doc, args.out)
    return EXIT_OK if report.holds else EXIT_CONFIG_OR_VIOLATION


def cmd_norm_profile(args) -> int:
    from .potts_model import measure_norm_profile

    rows, doc = _measure(args, measure_norm_profile)
    # a level's weights all share one valuation, printed as its least and greatest
    doc["rows"] = [
        {"level": r.level, "min_valuation": str(r.valuation), "max_valuation": str(r.valuation)}
        for r in rows
    ]
    doc["bounded_so_far"] = all(r.valuation >= 0 for r in rows)
    _emit(doc, args.out)
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "classify": cmd_classify,
    "compat-check": cmd_compat_check,
    "norm-profile": cmd_norm_profile,
}


def _int_flag(text: str) -> int:
    """An int flag's value in the input number grammar: an optional '-' and
    ASCII digits, refused in argparse's words for int."""
    try:
        if _INTEGER_TEXT.fullmatch(text):
            return int(text)
    except ValueError:  # past the int-string digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=_int_flag, default=None, help="prime modulus")
    common.add_argument("--q", type=_int_flag, default=None, help="number of spin states")
    common.add_argument("--k", type=_int_flag, default=2, help="tree branching order")
    common.add_argument("--n", type=_int_flag, default=2, help="ball depth")
    common.add_argument("--precision", type=_int_flag, default=DEFAULT_PRECISION)
    common.add_argument("--seed", type=_int_flag, default=0)
    common.add_argument(
        "--couplings",
        default=None,
        help="coupling JSON, inline or a file path (default: homogeneous J = p, "
        "or J = 4 at p = 2)",
    )
    common.add_argument("--out", default=None, help="write JSON here instead of stdout")
    common.set_defaults(checks=None, field=None)  # read by every subcommand

    parser = argparse.ArgumentParser(
        prog="padic-potts",
        description="Exact p-adic analysis of nearest-neighbour spin systems on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="run an invariant suite")
    v.add_argument("--suite", choices=SUITES, required=True)
    v.add_argument("--checks", type=_int_flag, default=None, help="override the suite's count")

    sub.add_parser("classify", parents=[common], help="phase classification report")

    c = sub.add_parser(
        "compat-check", parents=[common], help="test a boundary field for consistency"
    )
    c.add_argument("--field", default=None, help="boundary-field JSON file")

    np_ = sub.add_parser(
        "norm-profile", parents=[common], help="per-level measure valuations"
    )
    np_.add_argument("--field", default=None, help="boundary-field JSON file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_OR_VIOLATION
    except (DomainViolation, NotInvertible) as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (
        PartitionFunctionDegenerate,
        DenominatorDegenerate,
        LiftStall,
        PrecisionExhausted,
    ) as exc:
        print(f"degenerate computation: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except EnumerationTooLarge as exc:
        print(f"enumeration guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
