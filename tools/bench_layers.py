"""Layer timings of the scalar kernel, for before/after records (BENCH_*.json).

    python3 tools/bench_layers.py --tree parent=PARENT --tree change=. > BENCH_10.json

Each ``--tree NAME=PATH`` is a checkout root, recorded under NAME with its
commit and the line count of ``src/padic_potts/*.py`` (never its path).  Its
``src`` is imported in a fresh interpreter per round, and the trees take
turns for ROUNDS rounds, so that a slow stretch of a shared host falls
on all of them alike.  Each entry is the median time of one call over every
round's ``timeit`` repeats.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
from fractions import Fraction

ROUNDS = 3  # fresh interpreters per tree, taken in turns
REPEATS = 5  # timeit repeats per round and tree


def _entries():
    """(name, params, callable) for every timed layer; built from fixed inputs."""
    import random

    from padic_potts.cayley_tree import TreeShape, TreeVertex, ball_with_edges
    from padic_potts.gibbs_solver import f_map_z, recursion_backward
    from padic_potts.padic_analytic import PadicPolynomial, exp_p, hensel_roots_in_disk, log_p
    from padic_potts.padic_core import PadicNumber
    from padic_potts.potts_model import CouplingField, PadicVector

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
    out.append(("PadicNumber.inverse", params, lambda: a.inverse()))
    for n_rel in (32, 128, 512):
        x = PadicNumber(Fraction(3 * 12345, 678), p, n_rel)
        out.append(("exp_p", {"p": p, "N": n_rel, "x": "3 * 12345/678"}, lambda x=x: exp_p(x)))
        y = x + 1
        out.append(("log_p", {"p": p, "N": n_rel, "x": "1 + 3 * 12345/678"}, lambda y=y: log_p(y)))
    # the contraction suite's recursion at k = 3, n = 5 (p = 3, q = 2, J = 3)
    shape, q, n = TreeShape(3), 2, 5
    rng = random.Random(0)
    vertices, _ = ball_with_edges(shape, n)
    def law():  # 1 + 3**j * unit, as the contraction suite draws them
        unit = 3 * rng.randrange(10**6) + 1
        return PadicVector([PadicNumber(1 + 3 ** rng.randrange(1, 4) * unit, p)])

    laws = {v: law() for v in vertices[shape.ball_size(n - 1):]}
    J = CouplingField.homogeneous(Fraction(3), p, q)
    out.append(
        ("recursion_backward", {"p": p, "q": q, "k": 3, "n": n, "N": 32},
         lambda: recursion_backward(shape, laws, J, n, 32))
    )
    # one child's factor where the contraction suite's k = 2, n = 6 run meets
    # it, at the sphere (p = 5, q = 3, J = 5): drawn laws 1 + 5**j * unit
    theta5 = exp_p(PadicNumber(5, 5, 32))
    z5 = PadicVector([PadicNumber(1 + 5 ** (1 + i) * Fraction(7 * i + 3, 11), 5) for i in range(2)])
    out.append(("f_map_z", {"p": 5, "q": 3, "J": 5, "N": 32}, lambda: f_map_z(z5, theta5, 3)))
    # classify's constant-law search at k = 2, p = q = 3, J = 3, N = 512: the
    # cubic z**3 + (3 - u**2) z**2 + u**2 z - 4 in u = theta - 1, built as
    # translation_invariant_cubic builds it, over the disk around 1
    theta3 = CouplingField.homogeneous(Fraction(3), 3, 3).theta_for_edge(
        TreeVertex.root(), TreeVertex.root().child(0), 512
    )
    def P(c):
        return PadicNumber(c, 3, theta3.precision)

    u = theta3 - P(1)
    cubic = PadicPolynomial((P(-4), u * u + P(0), P(3) - u * u, P(1)))
    out.append(
        ("hensel_roots_in_disk", {"p": 3, "q": 3, "k": 2, "J": 3, "N": 512},
         lambda: hensel_roots_in_disk(cubic, PadicNumber(1, 3, 512), 1))
    )
    return out


def _measure() -> dict:
    """Seconds per call for every entry, REPEATS samples each."""
    result = {}
    for name, params, fn in _entries():
        timer = timeit.Timer(fn)
        number, _ = timer.autorange()
        samples = [t / number for t in timer.repeat(REPEATS, number)]
        result[json.dumps([name, params], sort_keys=True)] = samples
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
    samples: dict = {name: {} for name in trees}
    for _ in range(ROUNDS):
        for name, path in trees.items():
            run = subprocess.run(
                [sys.executable, __file__, "--tree", name, "--measure", path],
                capture_output=True, text=True, check=True,
            )
            for key, values in json.loads(run.stdout).items():
                samples[name].setdefault(key, []).extend(values)
    doc = {
        "command": "python3 tools/bench_layers.py " + " ".join(f"--tree {n}=..." for n in trees),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "unit": "s per call",
        "runs": [],
    }
    for name, path in trees.items():
        entries = []
        for key, values in samples[name].items():
            layer, params = json.loads(key)
            median = statistics.median(values)
            reps = len(values)
            entries.append({"name": layer, "params": params, "median": median, "reps": reps})
        doc["runs"].append({"tree": name, **_tree_meta(path), "entries": entries})
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
