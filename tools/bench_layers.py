"""Layer timings of the scalar kernel, for before/after records (BENCH_*.json).

    python3 tools/bench_layers.py --tree parent=PARENT --tree change=. > BENCH_10.json

Each ``--tree NAME=PATH`` is a checkout root, recorded under NAME with its
commit and the line count of ``src/padic_potts/*.py`` (never its path).  Its
``src`` is imported in a fresh interpreter per round, and the trees take
turns for ROUNDS rounds, so that a slow stretch of a shared host falls
on all of them alike.  Each entry is the median time of one call over every
round's ``timeit`` repeats, raw and scaled to the speed at which the
benchmark's reference kernel (``perfbench/speed.py``, timed between the
repeats) takes ``speed.REF_MS``, so that records made on different days
compare.  Each entry of a tree after the first also carries the ratio of
its scaled median to the first tree's in every round, and their median:
the spread of those ratios over entries whose code did not change is the
tool's own A/A band.

The ``cold.*`` entries time whole fresh interpreters: one CLI command run as
the ``padic-potts`` script runs it, with the tree's ``src`` on PYTHONPATH,
and two baselines, ``python -c pass`` and ``python -I -c pass``.  Each round
runs every cold entry COLD_REPEATS times per tree, the trees taking turns run
by run in alternating order, and scales each run by the kernel timed just
before and after it.  Whether PYTHONDONTWRITEBYTECODE was set, so that every
run recompiled the package, is recorded.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from fractions import Fraction

ROUNDS = 5  # fresh interpreters per tree, taken in turns
REPEATS = 5  # timeit repeats per round and tree
KERNEL_SAMPLES = 5  # reference-kernel timings between two timeit repeats
COLD_REPEATS = 20  # fresh-interpreter runs per round, tree and cold entry

# what the padic-potts script runs
_SCRIPT = "import sys; from padic_potts.cli import main; sys.exit(main())"
# (name, params, interpreter arguments) of each fresh-interpreter entry
COLD = (
    ("cold.python", {"argv": "-c pass"}, ["-c", "pass"]),
    ("cold.python", {"argv": "-I -c pass"}, ["-I", "-c", "pass"]),
    *(("cold.cli", {"argv": argv}, ["-c", _SCRIPT, *argv.split()])
      for argv in ("verify --suite exp-log --checks 10", "compat-check --n 2", "classify")),
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _entries():
    """(name, params, callable) for every timed layer; built from fixed inputs."""
    import random

    from padic_potts import cayley_tree, padic_analytic
    from padic_potts.cayley_tree import TreeShape
    from padic_potts.gibbs_solver import f_map_z, recursion_backward, solve_k1_bipartite
    from padic_potts.padic_analytic import exp_p, hensel_roots_in_disk, log_p
    from padic_potts.padic_core import PadicNumber
    from padic_potts.potts_model import (
        BoundaryField,
        CouplingField,
        _level_couplings,
        _LevelWeights,
        boundary_field_from_json,
        compatibility_check,
        coupling_from_json,
        finite_measure,
        measure_norm_profile,
    )

    # The inputs' vertices are address tuples, made here from the levels'
    # addresses so that every tree times the same work.  A tree whose library
    # still names vertices by TreeVertex takes its keys as TreeVertex objects,
    # and a per-edge table keyed by (parent, child); this fork goes once no
    # recorded parent has TreeVertex.
    vertex_class = getattr(cayley_tree, "TreeVertex", None)

    def ball(shape, n):  # the n-ball's addresses in level order
        return [a for m in range(n + 1) for a in shape.level_addresses(m)]

    def vertex(a):  # a sphere law's, a spin's or a field entry's key
        return a if vertex_class is None else vertex_class(a)

    def edge(a):  # the per-edge table's key of the edge into a
        return a if vertex_class is None else (vertex_class(a[:-1]), vertex_class(a))

    def text(a):  # an address as a document writes it
        return ".".join(map(str, a))

    out = []
    # inexact N = 128 operands as a computation leaves them: quotients and
    # sums of series values
    p, n_rel = 3, 128
    e = [exp_p(PadicNumber(Fraction(3 * (7 * i + 2), 3 * i + 2), p, n_rel)) for i in range(6)]
    a = e[0] * e[1].inverse() + e[2]
    b = e[3] * e[4].inverse() + e[5]
    params = {"p": p, "N": n_rel, "operands": "exp_p(x) / exp_p(y) + exp_p(z)"}
    out.append(("PadicNumber.add", params, lambda: a.add(b)))
    out.append(("PadicNumber.mul", params, lambda: a.mul(b)))
    # the inverse of such a unit mod 3**(N + 3): 31 bits at N = 16, below the
    # 40 bits where pow gives way to the Newton lift, 56 bits at N = 32 and
    # 817 bits at N = 512
    for n_inv in (16, 32, 128, 512):
        e = [exp_p(PadicNumber(Fraction(3 * (7 * i + 2), 3 * i + 2), p, n_inv)) for i in range(3)]
        c = e[0] * e[1].inverse() + e[2]
        out.append(("PadicNumber.inverse", {**params, "N": n_inv}, lambda c=c: c.inverse()))
    # exact p = 7 units of the size the product-distance suite draws
    # (numerator below 7**8, denominator below 7**5), 8 to a product
    def unit(top):
        u = draw.randrange(1, top)
        return u + 1 if u % 7 == 0 else u

    def product(factors):
        acc = PadicNumber.one(7, n_rel)
        for f in factors:
            acc = acc * f
        return acc

    draw = random.Random(7)
    draws = [Fraction(unit(7**8), unit(7**5)) for _ in range(16)]
    units = [PadicNumber.from_fraction(u, 7, n_rel) for u in draws]
    prod_a, prod_b, seven = product(units[:8]), product(units[8:]), product(units[8:15])
    params = {"p": 7, "N": n_rel, "operands": "products of 8 units a/b, a < 7**8, b < 7**5"}
    out.append(("PadicNumber.mul.exact", params, lambda: seven.mul(units[15])))
    out.append(("PadicNumber.distance_valuation.exact", params,
                lambda: prod_a.distance_valuation(prod_b)))
    out.append(("PadicNumber.from_fraction", {"p": 7, "N": n_rel, "x": str(draws[0])},
                lambda: PadicNumber.from_fraction(draws[0], 7, n_rel)))
    num, den = draws[0].numerator, draws[0].denominator  # the same draw as two integers
    out.append(("PadicNumber.from_ratio", {"p": 7, "N": n_rel, "x": str(draws[0])},
                lambda: PadicNumber.from_ratio(num, den, 7, n_rel)))
    for n_rel in (32, 128, 512):
        x = PadicNumber(Fraction(3 * 12345, 678), p, n_rel)
        out.append(("exp_p", {"p": p, "N": n_rel, "x": "3 * 12345/678"}, lambda x=x: exp_p(x)))
        y = x + 1
        out.append(("log_p", {"p": p, "N": n_rel, "x": "1 + 3 * 12345/678"}, lambda y=y: log_p(y)))
    # the same series with the plan cache cleared inside the call
    def cold(series, arg):
        padic_analytic._series_plan.cache_clear()
        return series(arg)

    x = PadicNumber(Fraction(3 * 12345, 678), p, 128)
    out.append(("exp_p.cold_plan", {"p": p, "N": 128, "x": "3 * 12345/678"},
                lambda: cold(exp_p, x)))
    out.append(("log_p.cold_plan", {"p": p, "N": 128, "x": "1 + 3 * 12345/678"},
                lambda y=x + 1: cold(log_p, y)))
    # the contraction suite's recursion at k = 3, n = 5 (p = 3, q = 2, J = 3)
    shape, q, n = TreeShape(3), 2, 5
    rng = random.Random(0)
    def law():  # 1 + 3**j * unit, as the contraction suite draws them
        unit = 3 * rng.randrange(10**6) + 1
        return (PadicNumber(1 + 3 ** rng.randrange(1, 4) * unit, p),)

    laws = {vertex(a): law() for a in shape.level_addresses(n)}
    J = CouplingField.homogeneous(Fraction(3), p, q)
    out.append(
        ("recursion_backward", {"p": p, "q": q, "k": 3, "n": n, "N": 32},
         lambda: recursion_backward(shape, laws, J, n, 32))
    )
    # the same fold where p divides q (p = q = 3, k = 2, n = 4), outside the
    # integer pass's regime: laws 1 + 3**j * unit, folded on PadicNumbers
    shape2, n2 = TreeShape(2), 4
    J3 = CouplingField.homogeneous(Fraction(3), p, 3)
    laws3 = {vertex(a): law() + law() for a in shape2.level_addresses(n2)}
    out.append(
        ("recursion_backward.fallback", {"p": p, "q": 3, "k": 2, "n": n2, "N": 32},
         lambda: recursion_backward(shape2, laws3, J3, n2, 32))
    )
    # the k = 3 fold's laws at k = 2, n = 6 over a per-edge table (values
    # cycling 3, 6, 9 in level order), each edge's coupling looked up by address
    shape4, n4 = TreeShape(2), 6
    J4 = CouplingField.per_edge({edge(a): Fraction(3 * (e % 3 + 1))
                                 for e, a in enumerate(ball(shape4, n4)[1:])}, p, q)
    laws4 = {vertex(a): law() for a in shape4.level_addresses(n4)}
    out.append(
        ("recursion_backward.per_edge",
         {"p": p, "q": q, "k": 2, "n": n4, "N": 32, "couplings": "per-edge 3/6/9"},
         lambda: recursion_backward(shape4, laws4, J4, n4, 32))
    )
    # one child's factor where the contraction suite's k = 2, n = 6 run meets
    # it, at the sphere (p = 5, q = 3, J = 5): drawn laws 1 + 5**j * unit
    theta5 = exp_p(PadicNumber(5, 5, 32))
    z5 = tuple(PadicNumber(1 + 5 ** (1 + i) * Fraction(7 * i + 3, 11), 5) for i in range(2))
    out.append(("f_map_z", {"p": 5, "q": 3, "J": 5, "N": 32}, lambda: f_map_z(z5, theta5, 3)))
    # classify's constant-law search at k = 2, p = q = 3, J = 3, N = 512: the
    # cubic z**3 + (3 - u**2) z**2 + u**2 z - 4 in u = theta - 1, built as
    # translation_invariant_cubic builds it, over the disk around 1
    theta3 = CouplingField.homogeneous(Fraction(3), 3, 3).theta(Fraction(3), 512)
    def P(c):
        return PadicNumber(c, 3, theta3.precision)

    u = theta3 - P(1)
    cubic = (P(-4), u * u + P(0), P(3) - u * u, P(1))
    out.append(
        ("hensel_roots_in_disk", {"p": 3, "q": 3, "k": 2, "J": 3, "N": 512},
         lambda: hensel_roots_in_disk(cubic, PadicNumber(1, 3, 512), 1))
    )
    # classify's alternating-pair search at k = 2, p = q = 5, J = 5, N = 512:
    # the quadratic a z**2 + b z + c, built as period2_k2_analysis builds it
    # from the theta classify_phase makes, over the disk around 1
    theta = CouplingField.homogeneous(Fraction(5), 5, 5).theta(Fraction(5), 512)
    def Q(n):
        return PadicNumber.from_fraction(n, 5, theta.precision)

    q = 5
    quad_a = (theta * theta + theta + Q(q - 2)) ** 2
    quad_b = (
        theta**4
        + Q(4 * (q - 1)) * theta**3
        + Q(q * q + 6 * q - 12) * theta * theta
        + Q(2 * (5 * q * q - 18 * q + 16)) * theta
        + Q(2 * q**3 - 13 * q * q + 26 * q - 17)
    )
    quad_c = (theta * Q(q - 1) + (theta + Q(q - 2)) ** 2) ** 2
    quadratic = (quad_c, quad_b, quad_a)
    out.append(
        ("hensel_roots_in_disk.quadratic", {"p": 5, "q": 5, "k": 2, "J": 5, "N": 512},
         lambda: hensel_roots_in_disk(quadratic, PadicNumber.one(5, 512), 1))
    )
    # classify's dearest shape, the alternating line at k = 1, p = 5, q = 10,
    # J = 5, N = 512, with its two thetas built as classify_phase builds them
    J5 = CouplingField.homogeneous(Fraction(5), 5, 10)
    theta_a = theta_b = J5.theta(Fraction(5), 512)
    out.append(
        ("solve_k1_bipartite", {"p": 5, "q": 10, "k": 1, "J": 5, "N": 512},
         lambda: solve_k1_bipartite(theta_a, theta_b, 10, 512))
    )
    # the weight tables and the partition sum of a compat-check ball at
    # k = 2, n = 2 (p = q = 3, J = 3, a period-two field), the tables built
    # over their own read of the couplings with fresh coupling and field
    # caches, as one CLI op builds them
    def vec(*cs):
        return tuple(PadicNumber(Fraction(c), 3) for c in cs)

    even, odd, shape = vec(Fraction(3, 7), 9), vec(Fraction(-6, 5), 3), TreeShape(2)
    def tables():
        h, J3 = BoundaryField.by_parity(even, odd), CouplingField.homogeneous(Fraction(3), 3, 3)
        return _LevelWeights(shape, h, J3, 2, 32,
                             couplings=_level_couplings(shape, J3, range(1, 3)))

    params = {"p": 3, "q": 3, "k": 2, "n": 2, "N": 32, "field": "parity"}
    out.append(("_LevelWeights", params, tables))
    system = tables()
    out.append(("_LevelWeights.partition_residue", params, system.partition_residue))
    # the whole compat-check op on that ball, and norm-profile's every level
    # of a zero field at k = 2, q = 2, n = 12 (p = 3, J = 3), each with fresh
    # caches as one CLI op builds them
    def compat():
        h = BoundaryField.by_parity(even, odd)
        return compatibility_check(shape, h, CouplingField.homogeneous(Fraction(3), 3, 3), 2, 32)

    def profile():
        h, J2 = BoundaryField.zero(2, 3), CouplingField.homogeneous(Fraction(3), 3, 2)
        return measure_norm_profile(shape, h, J2, 12, 32)

    out.append(("compatibility_check", params, compat))
    # the benchmark's measure-enum tail shape: compat-check on a random q = 3
    # field, a vector 3 * a/b per component at every address of that ball,
    # read from its document with fresh caches as one CLI op reads it
    draw = random.Random(28)

    def third_free(top):
        u = draw.randrange(1, top)
        return u + 1 if u % 3 == 0 else u

    random_doc = {text(a): [str(Fraction(3 * third_free(27), third_free(9))) for _ in range(2)]
                  for a in ball(shape, 2)}

    def random_compat():
        h = boundary_field_from_json(random_doc, 3, 3, shape)
        return compatibility_check(shape, h, CouplingField.homogeneous(Fraction(3), 3, 3), 2, 32)

    out.append(("compatibility_check", {**params, "field": "random"}, random_compat))
    out.append(("measure_norm_profile",
                {"p": 3, "q": 2, "k": 2, "n": 12, "N": 32, "field": "zero"}, profile))
    # at depth: norm-profile's deepest k = 2, q = 2 ball the guard admits, and
    # compat-check on a constant field at n = 8, which the guard admits at
    # k = 1 (2**15 configurations of the 7-ball; at k = 2 it refuses n >= 5)
    def deep_profile():
        h, J2 = BoundaryField.zero(2, 3), CouplingField.homogeneous(Fraction(3), 3, 2)
        return measure_norm_profile(shape, h, J2, 20, 32)

    def deep_compat():
        h = BoundaryField.constant(vec(Fraction(3, 7)))
        return compatibility_check(TreeShape(1), h, CouplingField.homogeneous(Fraction(3), 3, 2),
                                   8, 32)

    out.append(("measure_norm_profile",
                {"p": 3, "q": 2, "k": 2, "n": 20, "N": 32, "field": "zero"}, deep_profile))
    out.append(("compatibility_check",
                {"p": 3, "q": 2, "k": 1, "n": 8, "N": 32, "field": "constant"}, deep_compat))
    # norm-profile's every level over a per-edge table (p = 3, q = 2, values
    # cycling 3, 6, 9 in level order), where the levels share one read of
    # the table: a fresh coupling per call from its table, as one CLI op
    # builds it
    for k, n_edge in ((1, 100), (2, 8)):
        table = {edge(a): Fraction(3 * (e % 3 + 1))
                 for e, a in enumerate(ball(TreeShape(k), n_edge)[1:])}
        def edge_profile(k=k, n_edge=n_edge, table=table):
            h, J2 = BoundaryField.zero(2, 3), CouplingField.per_edge(table, 3, 2)
            return measure_norm_profile(TreeShape(k), h, J2, n_edge, 32)

        out.append(("measure_norm_profile",
                    {"p": 3, "q": 2, "k": k, "n": n_edge, "N": 32, "field": "zero",
                     "couplings": "per-edge 3/6/9"}, edge_profile))
    # where p | q and J = 6 (unit residue -1 at p = q = 3) the partition
    # valuation outgrows twice its estimate: norm-profile's every level of a
    # zero field at k = 1, n = 40 and k = 2, n = 8, and finite_measure over a
    # per-edge J = 6 table at k = 1, n = 5, which widens its pass once
    for k, n_wide in ((1, 40), (2, 8)):
        def wide_profile(k=k, n_wide=n_wide):
            h, J6 = BoundaryField.zero(3, 3), CouplingField.homogeneous(Fraction(6), 3, 3)
            return measure_norm_profile(TreeShape(k), h, J6, n_wide, 32)

        out.append(("measure_norm_profile",
                    {"p": 3, "q": 3, "k": k, "n": n_wide, "N": 32, "J": 6, "field": "zero"},
                    wide_profile))
    line = TreeShape(1)
    table6 = {edge(a): Fraction(6) for a in ball(line, 5)[1:]}
    spins = {vertex(a): 1 + i % 3 for i, a in enumerate(ball(line, 5))}

    def wide_measure():
        h, J6 = BoundaryField.zero(3, 3), CouplingField.per_edge(table6, 3, 3)
        return finite_measure(line, spins, h, J6, 5, 32)

    out.append(("finite_measure", {"p": 3, "q": 3, "k": 1, "n": 5, "N": 32, "field": "zero",
                                   "couplings": "per-edge 6"}, wide_measure))
    # a constant field file over the k = 2, n = 2 ball: one vector at every address
    constant = {text(a): ["3/7", "9"] for a in ball(shape, 2)}
    out.append(("boundary_field_from_json", {"p": 3, "q": 3, "k": 2, "n": 2, "field": "constant"},
                lambda: boundary_field_from_json(constant, 3, 3, shape)))
    # the two JSON readers over the k = 2, n = 8 ball (p = 3, q = 2): the
    # per-edge document of its 765 edges and a field at its 766 addresses,
    # each with values cycling 3, 6, 9 in level order
    vertices = ball(shape, 8)
    rows = [[text(a[:-1]), text(a), str(3 * (e % 3 + 1))] for e, a in enumerate(vertices[1:])]
    edge_doc = {"pattern": "per_edge", "p": 3, "q": 2, "values": rows}
    field_doc = {text(a): [str(3 * (i % 3 + 1))] for i, a in enumerate(vertices)}
    out.append(("coupling_from_json",
                {"p": 3, "q": 2, "k": 2, "n": 8, "couplings": "per-edge 3/6/9"},
                lambda: coupling_from_json(edge_doc, shape)))
    out.append(("boundary_field_from_json",
                {"p": 3, "q": 2, "k": 2, "n": 8, "field": "per-vertex 3/6/9"},
                lambda: boundary_field_from_json(field_doc, 2, 3, shape)))
    return out


def _speed():
    """The benchmark's reference kernel, ``perfbench/speed.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "speed", os.path.join(ROOT, "perfbench", "speed.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _measure() -> dict:
    """Seconds per call for every entry, REPEATS samples each, raw and scaled
    by REF_MS over the median reference-kernel time on both sides of the
    sample, so that a slow stretch of the host cancels out of the scaled
    figure."""
    speed = _speed()
    result, kernel_ms = {}, []

    def kernel():
        near = [speed.sample_ms() for _ in range(KERNEL_SAMPLES)]
        kernel_ms.extend(near)
        return near

    for name, params, fn in _entries():
        timer = timeit.Timer(fn)
        number, _ = timer.autorange()
        raw, scaled, before = [], [], kernel()
        for _ in range(REPEATS):
            t = timer.timeit(number) / number
            after = kernel()
            raw.append(t)
            scaled.append(t * speed.REF_MS / statistics.median(before + after))
            before = after
        result[json.dumps([name, params], sort_keys=True)] = {"raw": raw, "scaled": scaled}
    return {"kernel_ms": statistics.median(kernel_ms), "entries": result}


def _measure_cold(trees: dict) -> dict:
    """One round of the cold entries: {tree: {key: {"raw", "scaled"}}}, the
    trees taking turns run by run."""
    speed = _speed()
    result: dict = {name: {} for name in trees}
    order = list(trees.items())
    for _ in range(COLD_REPEATS):
        for entry, params, argv in COLD:
            key = json.dumps([entry, params], sort_keys=True)
            order.reverse()  # no tree always runs first
            for name, path in order:
                env = {**os.environ, "PYTHONPATH": os.path.join(path, "src")}
                before = [speed.sample_ms() for _ in range(KERNEL_SAMPLES)]
                t0 = time.perf_counter()
                subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                               check=True)
                t = time.perf_counter() - t0
                after = [speed.sample_ms() for _ in range(KERNEL_SAMPLES)]
                times = result[name].setdefault(key, {"raw": [], "scaled": []})
                times["raw"].append(t)
                times["scaled"].append(t * speed.REF_MS / statistics.median(before + after))
    return result


def _tree_meta(tree: str) -> dict:
    def git(*args):
        run = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else None

    files = sorted(glob.glob(os.path.join(tree, "src", "padic_potts", "*.py")))
    lines = {os.path.basename(f): sum(1 for _ in open(f, encoding="utf-8")) for f in files}
    return {
        "commit": git("rev-parse", "--short", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, help="NAME=PATH of a checkout root")
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # child mode: one tree's src
    args = ap.parse_args()
    if args.measure:
        sys.path.insert(0, os.path.join(args.measure, "src"))
        json.dump(_measure(), sys.stdout)
        return 0
    trees = dict(t.split("=", 1) for t in args.tree)
    rounds: dict = {name: [] for name in trees}  # each round's entries, per tree
    kernel_ms: dict = {name: [] for name in trees}
    for _ in range(ROUNDS):
        for name, path in trees.items():
            run = subprocess.run(
                [sys.executable, __file__, "--tree", name, "--measure", path],
                capture_output=True, text=True, check=True,
            )
            measured = json.loads(run.stdout)
            kernel_ms[name].append(measured["kernel_ms"])
            rounds[name].append(measured["entries"])
        for name, entries in _measure_cold(trees).items():
            rounds[name][-1].update(entries)
    base = next(iter(trees))
    speed = _speed()
    doc = {
        "command": "python3 tools/bench_layers.py " + " ".join(f"--tree {n}=..." for n in trees),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "unit": "s per call",
        "median_scaled": f"median at the speed where perfbench/speed.py's kernel takes "
                         f"REF_MS = {speed.REF_MS} ms",
        "round_ratios": f"per round, this tree's scaled median over {base}'s in the same "
                        f"round; median_ratio is their median",
        "runs": [],
    }
    for name, path in trees.items():
        entries = []
        for key in rounds[name][0]:
            layer, params = json.loads(key)
            raw = [t for entries_of in rounds[name] for t in entries_of[key]["raw"]]
            scaled = [t for entries_of in rounds[name] for t in entries_of[key]["scaled"]]
            entry = {"name": layer, "params": params, "median": statistics.median(raw),
                     "median_scaled": statistics.median(scaled), "reps": len(raw)}
            if name != base and key in rounds[base][0]:
                ratios = [statistics.median(mine[key]["scaled"])
                          / statistics.median(theirs[key]["scaled"])
                          for mine, theirs in zip(rounds[name], rounds[base])]
                entry.update(round_ratios=ratios, median_ratio=statistics.median(ratios))
            entries.append(entry)
        doc["runs"].append({"tree": name, **_tree_meta(path), "kernel_ms": kernel_ms[name],
                            "entries": entries})
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
