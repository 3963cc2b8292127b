"""The CLI's exact output over a fixed grid of invocations, for byte-equivalence checks.

    python3 tools/cli_grid.py TREE OUT.json
    python3 tools/cli_grid.py --compare OLD NEW
    python3 tools/cli_grid.py --coverage TREE

TREE is a checkout root.  Its ``src`` is imported in one fresh interpreter,
which runs every invocation of the grid through ``padic_potts.cli.main`` in
process, from a scratch directory holding the invocations' input files under
fixed relative names.  OUT.json lists, per invocation, its argv, input files,
exit code, stdout, stderr and (for ``--out``) the written file.  Nothing in
it names the tree, so two trees whose CLI behaves alike give byte-identical
files: compare them with ``cmp``.  ``--compare`` runs the grid on both trees
and prints how many records differ, names the first few by argv and by field
(exit, stdout, stderr, written), and exits 1 on any difference.
``--coverage`` runs the grid on one tree under a line tracer set before the
package is imported, and prints the package's executable lines (those its
compiled code objects list) that no invocation runs, by function in source
order, with the reason ``UNRUN`` gives; it exits 1 when a function keeps
unrun lines that ``UNRUN`` does not name, or ``UNRUN`` names one whose lines
all run.

The grid covers every verify suite over seeds and N = 8 to 128, the
contraction suite over p, q, k and n, classify, compat-check and
norm-profile over p, q and k, per-edge and bipartite couplings and sparse
field files at k = 2 and 3, constant, parity and sparse field files at depth
(k = 2, n up to 10), every configuration-error path, and two cycles
of each benchmark workload (``perfbench/workloads.py``, read only) at a
non-default seed.  Standard library only.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD_SEED = 7
WORKLOAD_CYCLES = 2
FIELDS = ("exit", "stdout", "stderr", "written")
SHOWN = 5  # differing records named by --compare

# Each function of the package that may keep lines no grid invocation runs,
# under the reason it may (a function with lines of two kinds is under both).
UNRUN = {
    "library API the CLI does not call": (
        "__init__.__getattr__",  # the CLI imports the submodules themselves
        "padic_core.PadicNumber.__reduce__",
        "padic_core.PadicNumber.is_exact",
        "padic_core.PadicNumber.norm",
        "padic_core.PadicNumber.is_unit",
        "padic_core.PadicNumber.neg",
        "padic_core.PadicNumber.inverse",  # of an exact number
        "padic_core.PadicNumber.__pow__",  # to a negative exponent
        "padic_core.PadicNumber.__eq__",
        "padic_core.PadicNumber.__repr__",
        "potts_model.BoundaryField.__init__",  # entries given to the constructor
        "potts_model.BoundaryField.assign",
    ),
    "library input the CLI refuses first or never builds: out-of-range or mistyped "
    "arguments, zero, exact or mixed-prime values, and q prime to p, which classify "
    "answers before its branches": (
        "cayley_tree.TreeShape.__post_init__",
        "cayley_tree.TreeShape._check_level",
        "gibbs_solver.recursion_backward",
        "gibbs_solver._report",
        "gibbs_solver.solve_k1_bipartite",
        "gibbs_solver.period2_k2_analysis",
        "padic_analytic.exp_p",
        "padic_analytic.log_p",
        "padic_analytic.hensel_roots_in_disk",
        "padic_core.as_prime",
        "padic_core.PadicNumber.__new__",
        "padic_core.PadicNumber._ratio",
        "padic_core.PadicNumber.from_fraction",
        "padic_core.PadicNumber.from_ratio",
        "padic_core.PadicNumber.from_residue",
        "padic_core.PadicNumber.value",
        "padic_core.PadicNumber.leading_digits",
        "padic_core.PadicNumber.residue",
        "padic_core.PadicNumber._check_same_prime",
        "padic_core.PadicNumber._coerce",
        "padic_core.PadicNumber._operator.<locals>.op",
        "padic_core.PadicNumber.__pow__",
        "padic_core.PadicNumber.render",
        "potts_model._is_address",  # a key that is no address, refused by the writers
        "potts_model.CouplingField.__post_init__",
        "potts_model.CouplingField.per_edge",
        "potts_model.BoundaryField.__init__",
        "potts_model.BoundaryField._checked",
        "potts_model.BoundaryField.by_parity",
        "potts_model._LevelWeights.__init__",
        "potts_model.compatibility_check",
    ),
    "the witness bridge (a classify witness to its field and finite measures), "
    "which no command runs yet": (
        "cayley_tree.TreeShape.level_addresses",  # the root level, read by finite_measure
        "gibbs_solver.hprime_to_h",
        "gibbs_solver._offset_valuation",
        "gibbs_solver.witness_boundary_field",
        "potts_model.BoundaryField.constant",
        "potts_model.finite_measure",
        "potts_model._residue_quotient",
    ),
    "the p | q recursion, and the inputs the contraction suite never draws: it refuses "
    "p | q and draws exact laws off 1 under one nonzero homogeneous coupling": (
        "gibbs_solver.f_map_z",
        "gibbs_solver.recursion_backward",
        "gibbs_solver._object_fold",
        "gibbs_solver._object_fold.<locals>.<listcomp>",
        "gibbs_solver._theta_terms",
        "gibbs_solver._law_offsets",
        "gibbs_solver._integer_fold",
        "gibbs_solver._offset_valuation",
    ),
    "error exits and branches no CLI input reaches: a degenerate denominator, a root "
    "candidate the search prunes or cannot tell from zero, or an inexact input, which "
    "the CLI never builds": (
        "gibbs_solver._mobius_step",
        "gibbs_solver.solve_k1_bipartite",
        "padic_analytic.hensel_roots_in_disk",
        "padic_core.PadicNumber.__new__",
        "padic_core.PadicNumber.residue",
        "padic_core.PadicNumber.inverse",
        "padic_core.PadicNumber.valuation_at_least",
        "potts_model.compatibility_check",
    ),
    "branches that run only when a check fails": (
        "cli._tally",
        "cli.cmd_verify",
    ),
    "the python -m entry": (
        "cli.<module>",
    ),
}

# one invocation per line of stdin: [argv, files]; one result per line of
# stdout.  With a second argument the child traces, before the package is
# imported, every line the package runs, and ends with {module: [lines run]}.
_CHILD = r"""
import contextlib, io, json, os, sys
src = sys.argv[1]
sys.path.insert(0, src)
ran = set()
if len(sys.argv) > 2:
    package = os.path.join(src, "padic_potts") + os.sep

    def tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return tracer

    sys.settrace(lambda frame, event, arg:
                 tracer if frame.f_code.co_filename.startswith(package) else None)
from padic_potts import cli
if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"padic_potts imported from {cli.__file__}, not from {src}")
for line in sys.stdin:
    argv, files = json.loads(line)
    for name, text in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:
        rc = f"raised {type(exc).__name__}: {exc}"
    written = None
    if "--out" in argv and os.path.exists(argv[argv.index("--out") + 1]):
        path = argv[argv.index("--out") + 1]
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(path)
    for name in files:
        os.remove(name)
    record = {"argv": argv, "files": files, "exit": rc, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "written": written}
    sys.__stdout__.write(json.dumps(record, sort_keys=True) + "\n")
    sys.__stdout__.flush()
if len(sys.argv) > 2:
    sys.settrace(None)
    lines = {}
    for path, number in ran:
        lines.setdefault(os.path.basename(path)[:-3], []).append(number)
    sys.__stdout__.write(json.dumps(lines, sort_keys=True) + "\n")
"""


def _suites() -> list:
    out = []
    for suite in ("exp-log", "product-distance", "contraction", "compat", "all"):
        for seed in range(5):
            for N in (8, 16, 32, 64, 128):
                out.append((["verify", "--suite", suite, "--seed", str(seed),
                             "--precision", str(N), "--checks", "4"], {}))
    for suite in ("exp-log", "product-distance"):
        for p in (2, 3, 5, 7):
            out.append((["verify", "--suite", suite, "--p", str(p), "--checks", "10",
                         "--seed", "3"], {}))
    out.append((["verify", "--suite", "contraction"], {}))
    out.append((["verify", "--suite", "compat", "--out", "verify-out.json"], {}))
    return out


def _contraction() -> list:
    out = []
    for p in (2, 3, 5, 7):
        for q in (2, 3, 4):
            for k in (1, 2, 3):
                for n in (1, 2, 4):
                    out.append((["verify", "--suite", "contraction", "--p", str(p),
                                 "--q", str(q), "--k", str(k), "--n", str(n),
                                 "--checks", "3", "--seed", str(p + q + k + n)], {}))
    # n = 0 is refused; N = 8 lets offsets run past its depth
    out.append((["verify", "--suite", "contraction", "--n", "0", "--checks", "2"], {}))
    out.append((["verify", "--suite", "contraction", "--precision", "8", "--k", "1",
                 "--n", "10", "--p", "3", "--q", "2", "--seed", "1"], {}))
    return out


def _measures() -> list:
    out = []
    for p in (2, 3, 5):
        for q in (2, 3, 4, 5):
            for k in (1, 2, 3):
                base = ["--p", str(p), "--q", str(q), "--k", str(k)]
                out.append((["classify", *base], {}))
                if k < 3:
                    out.append((["compat-check", *base, "--n", "2"], {}))
                    out.append((["norm-profile", *base, "--n", "2"], {}))
    for N in (16, 64, 256):
        out.append((["classify", "--p", "3", "--q", "3", "--k", "2", "--precision", str(N)], {}))
    out.append((["classify"], {}))
    out.append((["compat-check"], {}))
    out.append((["norm-profile"], {}))
    bip = '{"pattern":"bipartite","p":3,"q":3,"values":{"even_to_odd":"3","odd_to_even":"9"}}'
    out.append((["classify", "--k", "1", "--couplings", bip], {}))
    out.append((["compat-check", "--k", "1", "--couplings", "c.json"], {"c.json": bip}))
    edge = '{"pattern":"per_edge","p":3,"q":3,"values":[["","0","3"],["","1","9"]]}'
    out.append((["compat-check", "--k", "1", "--n", "1", "--couplings", edge], {}))
    out.append((["norm-profile", "--k", "1", "--n", "1", "--couplings", edge], {}))
    fields = {
        "root": '{"": ["3", "0"]}',
        "inner": '{"": ["3", "0"], "0": ["0", "3"]}',
        "leaves": '{"0.0": ["3", "9"], "1.0": ["9/2", "0"]}',
    }
    for name, doc in fields.items():
        for command in ("compat-check", "norm-profile"):
            out.append(([command, "--k", "1", "--n", "2", "--field", f"{name}.json"],
                        {f"{name}.json": doc}))
    out.append((["compat-check", "--out", "compat-out.json"], {}))
    # J = 6 at p = q = 3, where the partition valuations outgrow their
    # estimate: finite_measure's rule and compat-check widen their pass
    six = '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":"6"}}'
    for k, n in ((1, 5), (2, 3)):
        for command in ("norm-profile", "compat-check"):
            out.append(([command, "--k", str(k), "--n", str(n), "--couplings", six], {}))
    # classify branches no record above takes: the primality test's
    # Miller-Rabin squarings, the k = 1 line with a zero coupling (one root,
    # no certificate), and both rows of the two-adic threshold table
    zero_line = ('{"pattern":"bipartite","p":3,"q":3,'
                 '"values":{"even_to_odd":"0","odd_to_even":"3"}}')
    out.append((["classify", "--p", "1997", "--q", "2"], {}))
    out.append((["classify", "--p", "3", "--q", "3", "--k", "1", "--couplings", zero_line], {}))
    out.append((["classify", "--p", "2", "--q", "4", "--couplings",
                 '{"pattern":"homogeneous","p":2,"q":4,"values":{"J":"0"}}'], {}))
    out.append((["classify", "--p", "2", "--q", "8"], {}))
    # J = 0 at k = 2, p | q: the reduced cubic (z - 1)(z + q - 1)**2 has a
    # double root in the disk, which the root search cannot separate
    out.append((["classify", "--couplings",
                 '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":"0"}}'], {}))
    return out + _deep_tables() + _depth()


def _level(k: int, m: int) -> list:
    """The addresses of level m of the k tree, in level order."""
    if m == 0:
        return [""]
    return [".".join(map(str, a)) for a in itertools.product(range(k + 1), *[range(k)] * (m - 1))]


def _deep_tables() -> list:
    """Per-edge and bipartite couplings and sparse field files at k = 2 and 3,
    n = 2 and 3, where a ball's index arithmetic tells the root's k + 1
    children from every other vertex's k, and even levels from odd ones (at
    k = 3, n = 3 compat-check meets the guard, norm-profile does not)."""
    out, q = [], 3  # at q = 2 a field shifts both spins alike and cancels
    for k in (2, 3):
        for n in (2, 3):
            children = [y for m in range(1, n + 1) for y in _level(k, m)]
            rows = [[y.rpartition(".")[0], y, ("3", "6", "9/2", "-3/5")[i % 4]]
                    for i, y in enumerate(children)]
            couplings = {
                "per-edge": {"pattern": "per_edge", "p": 3, "q": q, "values": rows},
                "bipartite": {"pattern": "bipartite", "p": 3, "q": q,
                              "values": {"even_to_odd": "3", "odd_to_even": "-9/2"}},
            }
            # every third sphere vertex, one interior vertex and one past the ball
            picks = _level(k, n)[::3] + [_level(k, n - 1)[-1], _level(k, n + 1)[1]]
            field = {x: [("3", "9/2", "-6")[(i + c) % 3] for c in range(q - 1)]
                     for i, x in enumerate(picks)}
            cases = [("per-edge", None), ("bipartite", None), (None, field),
                     ("per-edge", field)]
            for name, doc in cases:
                files, flags = {}, ["--p", "3", "--q", str(q), "--k", str(k), "--n", str(n)]
                if name is not None:
                    files[f"{name}-k{k}n{n}.json"] = json.dumps(couplings[name])
                    flags += ["--couplings", f"{name}-k{k}n{n}.json"]
                if doc is not None:
                    files[f"sparse-k{k}n{n}.json"] = json.dumps(doc)
                    flags += ["--field", f"sparse-k{k}n{n}.json"]
                for command in ("compat-check", "norm-profile"):
                    out.append(([command, *flags], files))
    # a per-edge table missing two edges, the later one listed first
    rows = [[y.rpartition(".")[0], y, "3"] for m in (3, 2, 1) for y in _level(2, m)
            if y not in ("1.1", "0.1.0")]
    doc = json.dumps({"pattern": "per_edge", "p": 3, "q": 3, "values": rows})
    for command in ("compat-check", "norm-profile"):
        out.append(([command, "--k", "2", "--n", "3", "--couplings", "holes.json"],
                    {"holes.json": doc}))
    return out


def _depth() -> list:
    """Constant, parity and sparse field files at k = 2, q = 2 and 3, deep
    enough that the tree pass folds many vertices into each row: norm-profile
    at n = 6 to 10, and compat-check at every n from 2 that its guard admits
    (4 at q = 2, 3 at q = 3) and at n = 6, which it refuses.  A sparse file
    sets the last vertex of every level, the root included, and at q = 3
    runs under a bipartite coupling too."""
    out, k = [], 2
    values = ("3", "9/2", "-6")
    bipartite = json.dumps({"pattern": "bipartite", "p": 3, "q": 3,
                            "values": {"even_to_odd": "3", "odd_to_even": "-9/2"}})
    for q in (2, 3):
        compat = [2, 3, 4, 6] if q == 2 else [2, 3, 6]
        for n in sorted({*compat, *range(6, 11)}):
            ball = [(m, x) for m in range(n + 1) for x in _level(k, m)]
            fields = {
                "constant": {x: list(values[:q - 1]) for _, x in ball},
                "parity": {x: list(values[m % 2:m % 2 + q - 1]) for m, x in ball},
                "sparse": {x: [values[(m + c) % 3] for c in range(q - 1)]
                           for m in range(n + 1) for x in _level(k, m)[-1:]},
            }
            commands = ["norm-profile"] * (n >= 6) + ["compat-check"] * (n in compat)
            for name, doc in fields.items():
                files = {f"{name}-q{q}n{n}.json": json.dumps(doc)}
                flags = ["--q", str(q), "--k", str(k), "--n", str(n), "--field",
                         f"{name}-q{q}n{n}.json"]
                runs = [flags]
                if name == "sparse" and q == 3:
                    runs.append(flags + ["--couplings", bipartite])
                for command in commands:
                    out += [([command, *run], files) for run in runs]
    return out


def _errors() -> list:
    """Every configuration error and every other documented error exit."""
    out = [(argv, {}) for argv in (
        ["classify", "--p", "4"],
        ["classify", "--p", "1"],
        ["classify", "--q", "1"],
        ["classify", "--k", "0"],
        ["compat-check", "--n", "-1"],
        ["classify", "--precision", "7"],
        ["classify", "--seed", "-1"],
        ["verify", "--suite", "exp-log", "--checks", "0"],
        ["verify", "--suite", "contraction", "--p", "3", "--q", "3"],
        ["verify", "--suite", "contraction", "--p", "2", "--q", "4"],
        ["verify", "--suite", "contraction", "--k", "2", "--n", "40"],
        ["verify", "--suite", "contraction", "--p", "2", "--q", "3", "--k", "2", "--n", "3",
         "--precision", "8", "--seed", "2"],
        ["verify", "--suite", "bogus"],
        ["verify"],
        ["bogus"],
        [],
        ["classify", "--p", "x"],
        ["--help"],
        ["verify", "--help"],
        ["compat-check", "--help"],
        ["compat-check", "--n", "0"],
        ["compat-check", "--n", "5"],
        ["norm-profile", "--k", "2", "--n", "40"],
        ["classify", "--couplings", "{not json"],
        ["classify", "--couplings", "missing-couplings.json"],
        ["classify", "--couplings", '{"pattern":"homogeneous","p":5,"q":3,"values":{"J":"5"}}',
         "--p", "3"],
        ["classify", "--couplings", '{"pattern":"homogeneous","p":3,"q":4,"values":{"J":"3"}}',
         "--q", "3"],
        ["classify", "--couplings", '{"pattern":"nope","p":3,"q":3,"values":["3"]}'],
        ["classify", "--couplings", '{"pattern":"homogeneous","p":3,"q":3}'],
        ["classify", "--couplings", '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":"1/0"}}'],
        ["classify", "--couplings", '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":"1"}}'],
        ["classify", "--couplings", '{"pattern":"bipartite","p":3,"q":3,"values":{"a":1}}'],
        ["classify", "--couplings", '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":"'
         + "9" * 5000 + '"}}'],
        ["classify", "--couplings", '{"p": ' + "9" * 5000 + "}"],
        ["compat-check", "--k", "1", "--n", "1", "--couplings",
         '{"pattern":"per_edge","p":3,"q":3,"values":[["","0","3"]]}'],
        ["compat-check", "--k", "1", "--n", "1", "--couplings",
         '{"pattern":"per_edge","p":3,"q":3,"values":[[1,2,"3"]]}'],
        ["compat-check", "--k", "1", "--n", "1", "--couplings",
         '{"pattern":"per_edge","p":3,"q":3,"values":[["","0","3"],["","1","3"],["7","7.3","9"]]}'],
        ["compat-check", "--field", "missing-field.json"],
        # JSON booleans, which Python reads as the ints 0 and 1
        ["compat-check", "--p", "3", "--q", "3", "--n", "1", "--couplings",
         '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":false}}'],
        ["compat-check", "--p", "3", "--q", "3", "--n", "1", "--couplings",
         '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":true}}'],
        ["compat-check", "--p", "3", "--q", "3", "--n", "1", "--couplings",
         '{"pattern":"per_edge","p":3,"q":3,"values":[["","0",true]]}'],
        ["compat-check", "--p", "3", "--q", "3", "--n", "1", "--couplings",
         '{"pattern":"homogeneous","p":3,"q":true,"values":{"J":"3"}}'],
        # spellings that int and Fraction read as other numbers ("1_1" as 11,
        # "\u0663" as 3, " 3_0 " as 30), outside the ASCII number grammar
        ["classify", "--p", "1_1", "--q", "\u0663"],
        ["compat-check", "--couplings",
         '{"pattern":"homogeneous","p":3,"q":"1_0","values":{"J":"3"}}'],
        ["compat-check", "--couplings",
         '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":" 3_0 "}}'],
    )]
    # per-edge rows that are not [parent, child, value] arrays
    out += [(["compat-check", "--n", "1", "--couplings",
              '{"pattern":"per_edge","p":3,"q":3,"values":[' + row + "]}"], {})
            for row in ('"ab0"', '"000"', '["","0","3","9"]', "5")]
    bad_fields = {
        "syntax": "{not json",
        "list": '["3", "0"]',
        "name": '{"default": ["3", "0"]}',
        "length": '{"": ["3"]}',
        "zero-div": '{"": ["1/0", "0"]}',
        "off-tree": '{"7.3": ["3", "0"]}',
        "domain": '{"": ["1", "0"]}',
        "big": '{"": ["' + "9" * 5000 + '", "0"]}',
        "bool": '{"": [false, false]}',
        "bool-after-zero": '{"": ["3", 0], "0": [0, false]}',
        "grammar": '{"": ["\u0663", "3_0"]}',
    }
    for name, doc in bad_fields.items():
        for command in ("compat-check", "norm-profile"):
            out.append(([command, "--k", "1", "--n", "1", "--field", f"bad-{name}.json"],
                        {f"bad-{name}.json": doc}))
    out.append((["compat-check", "--field", "unicode.json"], {"unicode.json": '{"é": 1}'}))
    # an edge or a vertex named twice, in either order of its two entries
    for rows in ('["","0","3"],["","0","6"],["","1","3"]',
                 '["","0","6"],["","00","3"],["","1","3"]'):
        out.append((["norm-profile", "--k", "1", "--n", "1", "--couplings",
                     '{"pattern":"per_edge","p":3,"q":3,"values":[' + rows + "]}"], {}))
    for name, doc in (("twice", '{"0": ["3", "0"], "00": ["6", "0"]}'),
                      ("twice-swapped", '{"00": ["6", "0"], "0": ["3", "0"]}')):
        out.append((["compat-check", "--k", "1", "--n", "1", "--field", f"{name}.json"],
                    {f"{name}.json": doc}))
    # an error names the address canonically however the field file spells it
    for command in ("compat-check", "norm-profile"):
        out.append(([command, "--k", "2", "--n", "1", "--field", "bad-spelling.json"],
                    {"bad-spelling.json": '{"00.01": ["1", "0"]}'}))
    # the couplings p follows the integer rule of q, then must be prime
    for p in ('"3"', '"x"', '"1_1"', "true", "3.0", "4", '"4"', "null"):
        out.append((["compat-check", "--n", "1", "--couplings",
                     '{"pattern":"homogeneous","p":' + p + ',"q":3,"values":{"J":"3"}}'], {}))
    out.append((["compat-check", "--n", "1", "--couplings",
                 '{"pattern":"homogeneous","p":3,"q":null,"values":{"J":"3"}}'], {}))
    # couplings documents that are not JSON objects
    for name, doc in (("array", "[1]"), ("string", '"x"'), ("number", "3")):
        out.append((["classify", "--couplings", f"couplings-{name}.json"],
                    {f"couplings-{name}.json": doc}))
    # values of the wrong JSON kind for their pattern
    for pattern, values in (("homogeneous", '["3"]'), ("per_edge", "{}")):
        out.append((["classify", "--couplings",
                     '{"pattern":"' + pattern + '","p":3,"q":3,"values":' + values + "}"], {}))
    # past the guard's vertex count, the int-string digit limit (a flag and a
    # field file's JSON integer) and the primality test's deterministic range
    out.append((["norm-profile", "--n", "17200"], {}))
    out.append((["classify", "--p", "9" * 5000], {}))
    out.append((["compat-check", "--k", "1", "--n", "1", "--field", "bad-int.json"],
                {"bad-int.json": '{"": [' + "9" * 5000 + ", 0]}"}))
    out.append((["classify", "--p", "3317044064679887385961983"], {}))
    # the zero field's partition valuation at J = -3 (3 per edge) outgrows
    # the one pass norm-profile takes at n = 4
    out.append((["norm-profile", "--p", "3", "--q", "3", "--k", "2", "--n", "4", "--couplings",
                 '{"pattern":"homogeneous","p":3,"q":3,"values":{"J":"-3"}}'], {}))
    # a composite with no factor up to 41, which only Miller-Rabin refuses
    out.append((["classify", "--p", str(43 * 47)], {}))
    # a multiplicative exp-log check whose log(z * w) cancels past its digits
    out.append((["verify", "--suite", "exp-log", "--p", "2", "--checks", "50", "--seed", "61",
                 "--precision", "8"], {}))
    # a k = 1 period-two root whose cycle residual misses the precision
    out.append((["classify", "--p", "3", "--q", "3", "--k", "1", "--precision", "512",
                 "--couplings", '{"pattern":"bipartite","p":3,"q":3,'
                 '"values":{"even_to_odd":"15/4","odd_to_even":"-42/5"}}'], {}))
    # --out into a directory that does not exist (an --out path that exists
    # is read back as the written file, so never an existing directory)
    for argv in (["verify", "--suite", "exp-log", "--checks", "2"], ["classify"],
                 ["compat-check"], ["norm-profile"]):
        out.append(([*argv, "--out", "missing-dir/out.json"], {}))
    return out


def _workloads() -> list:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import WORKLOADS, OpStream
    finally:
        sys.path.pop(0)
    out = []
    for workload in WORKLOADS:
        stream = OpStream(workload, WORKLOAD_SEED)
        for cycle in range(WORKLOAD_CYCLES):
            for i, op in enumerate(stream.next_cycle()):
                names = {name: f"{workload}-{cycle}-{i}-{name}.json" for name in op.files}
                out.append((op.resolve(names),
                            {names[name]: text for name, text in op.files.items()}))
    return out


def grid() -> list:
    """Every invocation as (argv, {relative file name: contents})."""
    return _suites() + _contraction() + _measures() + _errors() + _workloads()


def run(tree: str, invocations: list, trace: bool = False) -> list:
    """Run the invocations against ``tree``'s ``src`` in one fresh interpreter.
    With ``trace``, the records are followed by {module: [lines run]}."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = {**os.environ, "COLUMNS": "80", "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as work:
        stdin = "".join(json.dumps(inv) + "\n" for inv in invocations)
        proc = subprocess.run([sys.executable, "-c", _CHILD, src, *["trace"] * trace],
                              input=stdin, cwd=work, env=env, capture_output=True,
                              text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"grid interpreter failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def diff_records(old: list, new: list) -> list:
    """(argv, differing fields) for each invocation whose records differ, the
    two lists taken in grid order."""
    out = []
    for a, b in zip(old, new, strict=True):
        if a["argv"] != b["argv"]:
            raise ValueError(f"records out of step: {a['argv']} vs {b['argv']}")
        fields = [f for f in FIELDS if a[f] != b[f]]
        if fields:
            out.append((a["argv"], fields))
    return out


def compare(old_tree: str, new_tree: str) -> int:
    invocations = grid()
    diffs = diff_records(run(old_tree, invocations), run(new_tree, invocations))
    print(f"{len(invocations)} invocations, {len(diffs)} differ")
    for argv, fields in diffs[:SHOWN]:
        print(f"  {json.dumps(argv)}: {', '.join(fields)}")
    return 1 if diffs else 0


def executable_lines(tree: str) -> dict:
    """{module: {line: function}} over ``tree``'s ``src/padic_potts``: every
    line its compiled code objects list, nested code included, named
    ``module.qualname`` by the outermost code object that lists it."""
    out = {}
    for path in sorted(glob.glob(os.path.join(tree, "src", "padic_potts", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            codes = [compile(fh.read(), path, "exec")]
        names = out[module] = {}
        for code in codes:  # outer code before the code it nests
            for _, _, line in code.co_lines():
                if line:  # None lists no line, 0 the module's entry
                    names.setdefault(line, f"{module}.{code.co_qualname}")
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return out


def _spans(lines: list) -> str:
    """Sorted line numbers as comma-separated runs, like 3-5,9."""
    runs: list = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def coverage(tree: str) -> int:
    """Print the lines of ``tree``'s package that no grid invocation runs, by
    function in source order; 1 if a function keeps unrun lines that
    ``UNRUN`` does not name, or ``UNRUN`` names one whose lines all run."""
    invocations = grid()
    ran = run(tree, invocations, trace=True)[-1]
    unrun: dict = {}  # function -> its unrun lines, in source order
    total = 0
    for module, names in executable_lines(tree).items():
        done = set(ran.get(module, ()))
        total += len(names)
        for line in sorted(names):
            if line not in done:
                unrun.setdefault(names[line], []).append(line)
    reasons: dict = {}
    for reason, functions in UNRUN.items():
        for function in functions:
            reasons.setdefault(function, []).append(reason)
    for function, lines in unrun.items():
        print(f"{function} {_spans(lines)}: {'; '.join(reasons.get(function, ['NOT NAMED']))}")
    count = sum(map(len, unrun.values()))
    print(f"{count} of {total} executable lines unrun over {len(invocations)} "
          f"invocations, in {len(unrun)} functions")
    unnamed = [f for f in unrun if f not in reasons]
    stale = [f for f in reasons if f not in unrun]
    if unnamed:
        print(f"unrun lines in functions UNRUN does not name: {', '.join(unnamed)}")
    if stale:
        print(f"named in UNRUN, yet every line runs: {', '.join(stale)}")
    return 1 if unnamed or stale else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(args[1], args[2])
    if len(args) == 2 and args[0] == "--coverage":
        return coverage(args[1])
    if len(args) != 2 or args[0].startswith("-"):
        print("\n".join(line.strip() for line in __doc__.strip().splitlines()[2:5]),
              file=sys.stderr)
        return 2
    tree, out = args
    records = run(tree, grid())
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(records)} invocations -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
