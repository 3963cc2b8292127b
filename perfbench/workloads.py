"""Operation streams for the three benchmark workloads.

Every operation is one call of the ``padic-potts`` CLI: an argv list plus the
field and coupling JSON files it names.  A workload is a fixed cycle of op
*shapes* (subcommand, sizes, prime, field kind); the workload seed draws what
varies inside a shape (per-op suite seeds, coupling values, field values), so
the mix of costs is the same for every seed and each op is distinct from every
other op of the stream.  That keeps a cache in the program from being fed
repeats the workload does not contain.

This module imports nothing from ``padic_potts``: the inputs stay the same
whatever the program's internals become.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("series-verify", "measure-enum", "solver-deep")

# Seed whose first cycle the golden table records.  Every run replays that
# cycle, so the goldens are checked whatever seed a run uses.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Shape:
    """One position of a workload cycle.

    ``smoke`` marks the cheap shapes that the reduced smoke run keeps.
    """

    name: str
    command: str
    params: dict
    smoke: bool = False


@dataclass
class Op:
    """One CLI invocation: argv with ``{name}`` placeholders for its files."""

    shape: str
    command: str
    argv: list
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    configs: int = 0
    refusal: tuple | None = None  # (exit code, stderr prefix) of a known defect

    def key(self) -> str:
        """Identity of the op's inputs, independent of where files are written."""
        doc = json.dumps({"argv": self.argv, "files": self.files}, sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:24]

    def resolve(self, paths: dict) -> list:
        return [paths.get(a[1:-1], a) if a.startswith("{") and a.endswith("}") else a
                for a in self.argv]


# ---------------------------------------------------------------------------
# shapes
#
# Checks per op are set so every series-verify op and most solver-deep ops
# cost roughly the same at the seed commit (about 40-60 ms on a 2-core
# x86-64 sandbox).  A cycle of near-equal ops has no gap in its latency
# distribution, so its median and tail do not jump between shapes when the
# number of whole cycles in a run changes by one.  Cycles have an odd number
# of shapes so the median never falls on a boundary between two shapes.

_SERIES = [
    Shape("exp-log-32-p2", "verify", {"suite": "exp-log", "N": 32, "p": 2, "checks": 60}, True),
    Shape("exp-log-32-p3", "verify", {"suite": "exp-log", "N": 32, "p": 3, "checks": 45}),
    Shape("exp-log-32-p5", "verify", {"suite": "exp-log", "N": 32, "p": 5, "checks": 65}),
    Shape("exp-log-32-p7", "verify", {"suite": "exp-log", "N": 32, "p": 7, "checks": 55}),
    Shape("exp-log-128-p2", "verify", {"suite": "exp-log", "N": 128, "p": 2, "checks": 20}),
    Shape("exp-log-128-p3", "verify", {"suite": "exp-log", "N": 128, "p": 3, "checks": 15}),
    Shape("exp-log-128-p5", "verify", {"suite": "exp-log", "N": 128, "p": 5, "checks": 15}),
    Shape("exp-log-128-p7", "verify", {"suite": "exp-log", "N": 128, "p": 7, "checks": 15}),
    Shape("exp-log-256-p2", "verify", {"suite": "exp-log", "N": 256, "p": 2, "checks": 10}),
    Shape("exp-log-256-p3", "verify", {"suite": "exp-log", "N": 256, "p": 3, "checks": 5}),
    Shape("exp-log-256-p5", "verify", {"suite": "exp-log", "N": 256, "p": 5, "checks": 5}),
    Shape("exp-log-256-p7", "verify", {"suite": "exp-log", "N": 256, "p": 7, "checks": 5}),
    Shape("product-32", "verify", {"suite": "product-distance", "N": 32, "checks": 180}, True),
    Shape("product-128", "verify", {"suite": "product-distance", "N": 128, "checks": 180}),
    Shape("product-256", "verify", {"suite": "product-distance", "N": 256, "checks": 180}),
]

# (k, n, q, p) cases with a field kind; the coupling J is drawn from the
# seed at the least admissible valuation, with its unit part congruent to
# ``J_unit`` mod p.  At p | q that residue decides whether the partition
# valuation outgrows the standard estimate, so that the working modulus is
# widened and the enumeration runs twice (J_unit = -1 at p = 3): fixing it
# per shape keeps that share of the work the same for every seed.
# norm-profile at k=1 uses n=4 because n=5 takes 0.8-1.1 s per op, and the
# k=3 case runs compat-check only for the same reason (its norm profile takes
# 1.2-2 s).  Sorted by cost, the 13 ops of a cycle have a dense band around
# the median, and the dearest shape appears twice so that its block holds
# well over the ten samples above the tail percentile: the tail then lands
# inside one shape rather than on the edge between two.
_MEASURE = [
    Shape("compat-k2n2q2-p3-random", "compat-check",
          {"k": 2, "n": 2, "q": 2, "p": 3, "field": "random"}, True),
    Shape("compat-k2n2q2-p5-zero", "compat-check",
          {"k": 2, "n": 2, "q": 2, "p": 5, "field": "zero"}, True),
    Shape("norm-k2n2q2-p5-parity", "norm-profile",
          {"k": 2, "n": 2, "q": 2, "p": 5, "field": "parity"}, True),
    Shape("norm-k1n4q3-p2-constant", "norm-profile",
          {"k": 1, "n": 4, "q": 3, "p": 2, "field": "constant"}, True),
    Shape("compat-k2n2q3-p3-zero", "compat-check",
          {"k": 2, "n": 2, "q": 3, "p": 3, "field": "zero"}),
    Shape("compat-k2n2q3-p3-random", "compat-check",
          {"k": 2, "n": 2, "q": 3, "p": 3, "field": "random"}),
    Shape("compat-k2n2q3-p3-constant", "compat-check",
          {"k": 2, "n": 2, "q": 3, "p": 3, "field": "constant"}),
    Shape("compat-k1n5q3-p3-zero", "compat-check",
          {"k": 1, "n": 5, "q": 3, "p": 3, "field": "zero"}),
    Shape("norm-k2n2q3-p3-zero", "norm-profile",
          {"k": 2, "n": 2, "q": 3, "p": 3, "field": "zero"}),
    Shape("compat-k1n5q3-p2-parity", "compat-check",
          {"k": 1, "n": 5, "q": 3, "p": 2, "field": "parity"}),
    Shape("compat-k1n5q3-p3-zero-widened", "compat-check",
          {"k": 1, "n": 5, "q": 3, "p": 3, "field": "zero", "J_unit": -1}),
    Shape("compat-k3n2q2-p2-zero", "compat-check",
          {"k": 3, "n": 2, "q": 2, "p": 2, "field": "zero"}),
    Shape("compat-k1n5q3-p3-zero-widened-2", "compat-check",
          {"k": 1, "n": 5, "q": 3, "p": 3, "field": "zero", "J_unit": -1}),
]

# classify grid: p | q at k=1 and k=2, q a unit, p=2; then the contraction
# suite at k in {2, 3}, n in {4..6} (q a unit there by the suite's rule).
_SOLVER = [
    Shape("classify-p3q3k2-512", "classify", {"p": 3, "q": 3, "k": 2, "N": 512}),
    Shape("classify-p3q6k2-512", "classify", {"p": 3, "q": 6, "k": 2, "N": 512}),
    Shape("classify-p5q5k2-512", "classify", {"p": 5, "q": 5, "k": 2, "N": 512}),
    Shape("classify-p7q7k2-384", "classify", {"p": 7, "q": 7, "k": 2, "N": 384}),
    Shape("classify-p3q3k1-512", "classify", {"p": 3, "q": 3, "k": 1, "N": 512}, True),
    Shape("classify-p5q10k1-512", "classify", {"p": 5, "q": 10, "k": 1, "N": 512}),
    Shape("classify-p2q2k1-512", "classify", {"p": 2, "q": 2, "k": 1, "N": 512}),
    Shape("classify-p2q4k2-256", "classify", {"p": 2, "q": 4, "k": 2, "N": 256}, True),
    Shape("classify-p3q2k2-128", "classify", {"p": 3, "q": 2, "k": 2, "N": 128}, True),
    Shape("classify-p5q3k1-128", "classify", {"p": 5, "q": 3, "k": 1, "N": 128}),
    Shape("contraction-k2n4-p3q2", "verify",
          {"suite": "contraction", "k": 2, "n": 4, "p": 3, "q": 2, "checks": 4}, True),
    Shape("contraction-k2n6-p5q3", "verify",
          {"suite": "contraction", "k": 2, "n": 6, "p": 5, "q": 3, "checks": 1}),
    Shape("contraction-k3n5-p3q2", "verify",
          {"suite": "contraction", "k": 3, "n": 5, "p": 3, "q": 2, "checks": 1}),
]

CYCLES = {"series-verify": _SERIES, "measure-enum": _MEASURE, "solver-deep": _SOLVER}


# The two refusals the program makes at the commit that introduced the
# benchmark, as (exit code, stderr prefix).  Both are defects, kept in the
# workloads so that they show; an op may take one only on the shapes where
# it lives (see README.md).  exp-log: now and then a random check cancels
# every digit, mostly at p = 2.  classify at k = 1 with p | q: now and then the fixed
# point of an admissible bipartite coupling is one digit short.
CANCELLATION = (3, "degenerate computation: cancellation consumed every significant digit")
RESIDUAL_SHORT = (2, "domain violation: fixed-point residual only reaches valuation")


# ---------------------------------------------------------------------------
# random admissible values


def _min_exp_valuation(p: int) -> int:
    return 2 if p == 2 else 1


def _unit(rng: random.Random, p: int, top: int) -> int:
    u = rng.randrange(1, top)
    while u % p == 0:
        u += 1
    return u


def _admissible(rng: random.Random, p: int, valuations: int = 2) -> Fraction:
    """A nonzero rational inside the exponential's disk at p, small height.

    Its valuation is one of the ``valuations`` smallest admissible ones.
    """
    v = _min_exp_valuation(p) + rng.randrange(0, valuations)
    value = Fraction(p**v * _unit(rng, p, p**3), _unit(rng, p, p**2))
    return -value if rng.random() < 0.5 else value


def _coupling_value(rng: random.Random, p: int, unit_residue: int) -> Fraction:
    """p**vmin * a/b with a/b congruent to ``unit_residue`` mod p."""
    b = _unit(rng, p, p**2)
    a = rng.randrange(0, p * p) * p + unit_residue * b % p
    return Fraction(p ** _min_exp_valuation(p) * a, b)


# ---------------------------------------------------------------------------
# tree addresses (the CLI's field format: dot-joined child indices)


def ball_addresses(k: int, n: int) -> list:
    """Addresses of the n-ball, root first; the root has k+1 children."""
    out, level = [()], [()]
    for _ in range(n):
        level = [a + (i,) for a in level for i in range(k + 1 if not a else k)]
        out.extend(level)
    return [".".join(map(str, a)) for a in out]


def ball_size(k: int, n: int) -> int:
    return 1 + sum((k + 1) * k ** (m - 1) for m in range(1, n + 1))


# ---------------------------------------------------------------------------
# op construction


def _coupling_doc(pattern: str, p: int, q: int, values: dict) -> str:
    doc = {"pattern": pattern, "p": p, "q": q,
           "values": {k: str(v) for k, v in values.items()}}
    return json.dumps(doc, sort_keys=True)


def _field_doc(rng: random.Random, kind: str, k: int, n: int, q: int, p: int) -> str:
    # one valuation only: at p = 2 the exp series for a valuation-3 entry is
    # half as long as for valuation 2, which would make the cost of a parity
    # or constant field depend on the seed
    def draw() -> str:
        return str(_admissible(rng, p, valuations=1))

    addrs = ball_addresses(k, n)
    doc = {}
    if kind == "constant":
        vec = [draw() for _ in range(q - 1)]
        doc = {a: vec for a in addrs}
    elif kind == "parity":
        even = [draw() for _ in range(q - 1)]
        odd = [draw() for _ in range(q - 1)]
        doc = {a: (even if (a.count(".") + 1 if a else 0) % 2 == 0 else odd) for a in addrs}
    elif kind == "random":
        doc = {a: [draw() for _ in range(q - 1)] for a in addrs}
    return json.dumps(doc, sort_keys=True)


def _make_op(shape: Shape, rng: random.Random) -> Op:
    P = shape.params
    if shape.command == "verify":
        argv = ["verify", "--suite", P["suite"], "--checks", str(P["checks"]),
                "--seed", str(rng.randrange(0, 2**31))]
        if "N" in P:
            argv += ["--precision", str(P["N"])]
        for flag in ("p", "q", "k", "n"):
            if flag in P:
                argv += [f"--{flag}", str(P[flag])]
        refusal = CANCELLATION if P["suite"] == "exp-log" else None
        return Op(shape.name, "verify", argv, refusal=refusal)

    if shape.command == "classify":
        p, q, k = P["p"], P["q"], P["k"]
        if k == 1:
            coupling = _coupling_doc("bipartite", p, q, {
                "even_to_odd": _admissible(rng, p), "odd_to_even": _admissible(rng, p)})
        else:
            coupling = _coupling_doc("homogeneous", p, q, {"J": _admissible(rng, p)})
        argv = ["classify", "--p", str(p), "--q", str(q), "--k", str(k),
                "--precision", str(P["N"]), "--couplings", "{coupling}"]
        return Op(shape.name, "classify", argv, files={"coupling": coupling},
                  expect={"unique": q % p != 0},
                  refusal=RESIDUAL_SHORT if k == 1 and q % p == 0 else None)

    # compat-check / norm-profile
    k, n, q, p = P["k"], P["n"], P["q"], P["p"]
    J = _coupling_value(rng, p, P.get("J_unit", 1))
    coupling = _coupling_doc("homogeneous", p, q, {"J": J})
    fdoc = _field_doc(rng, P["field"], k, n, q, p)
    argv = [shape.command, "--p", str(p), "--q", str(q), "--k", str(k), "--n", str(n),
            "--couplings", "{coupling}", "--field", "{field}"]
    if shape.command == "compat-check":
        configs = q ** ball_size(k, n)
        expect = {"terms": configs}
        if P["field"] == "zero":
            expect["holds"] = True
    else:
        configs = sum(q ** ball_size(k, m) for m in range(n + 1))
        expect = {"rows": n + 1}
        if q % p != 0:
            expect["rows_zero"] = True
    return Op(shape.name, shape.command, argv, files={"coupling": coupling, "field": fdoc},
              expect=expect, configs=configs)


class OpStream:
    """The workload's op sequence for one seed, generated a cycle at a time."""

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.shapes = CYCLES[workload]
        self.smoke = smoke
        self.rng = random.Random(f"{workload}:{seed}")

    def next_cycle(self) -> list:
        # every shape draws, so a smoke cycle is a subset of the full one
        ops = [_make_op(s, self.rng) for s in self.shapes]
        return [op for s, op in zip(self.shapes, ops) if s.smoke or not self.smoke]


# ---------------------------------------------------------------------------
# a-priori invariants of each op's output


# The CLI's documented error exits.
ERROR_EXITS = (2, 3, 4)


def check_output(op: Op, rc: int, stdout: str, stderr: str) -> str | None:
    """Why the op's output breaks a known invariant, or None when it holds.

    An error exit passes here only as the op's known refusal: its exit code,
    nothing on stdout, and stderr starting with the defect's message.  The
    run counts it apart.  Any other error exit is a failure.  The invariants
    below apply to every report printed.
    """
    if rc not in (0, 1, *ERROR_EXITS):
        return f"exit code {rc} outside the documented 0-4"
    if rc in ERROR_EXITS:
        if op.refusal is None or rc != op.refusal[0] or stdout \
                or not stderr.startswith(op.refusal[1]):
            return f"exit {rc} is not a known refusal of this shape: {stderr.strip()[:160]!r}"
        return None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"stdout is not one JSON document (exit {rc})"
    exp = op.expect
    if op.command == "verify":
        if doc.get("ok") is not True or rc != 0:
            return f"verify reports ok={doc.get('ok')} with exit {rc}"
    elif op.command == "classify":
        verdict = doc.get("report", {}).get("verdict")
        if (verdict == "unique_by_contraction") != exp["unique"]:
            return f"verdict {verdict!r} but p {'does not divide' if exp['unique'] else 'divides'} q"
    elif op.command == "compat-check":
        if doc.get("terms") != exp["terms"]:
            return f"terms {doc.get('terms')} != q**|ball| = {exp['terms']}"
        if rc != (0 if doc.get("holds") else 1):
            return f"exit {rc} disagrees with holds={doc.get('holds')}"
        if exp.get("holds") and doc.get("holds") is not True:
            return "zero field fails the compatibility check"
    elif op.command == "norm-profile":
        rows = doc.get("rows", [])
        if len(rows) != exp["rows"]:
            return f"{len(rows)} rows, expected {exp['rows']}"
        if exp.get("rows_zero") and any(
            r["min_valuation"] != "0" or r["max_valuation"] != "0" for r in rows
        ):
            return "norm profile row off zero although p does not divide q"
    return None
