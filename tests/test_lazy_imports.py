"""The package and the CLI load a layer only when something runs it."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import padic_potts

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# run one CLI command, then list the package's submodules it loaded
_CHILD = r"""
import contextlib, io, sys
from padic_potts import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("padic_potts.")))
"""

SCALAR = ["cli", "errors", "padic_analytic", "padic_core"]
MEASURE = SCALAR + ["cayley_tree", "potts_model"]
EVERY = MEASURE + ["gibbs_solver"]

COMMANDS = {  # a command and the layers it loads
    "exp-log": (["verify", "--suite", "exp-log", "--checks", "5"], SCALAR),
    "product-distance": (["verify", "--suite", "product-distance", "--checks", "5"], SCALAR),
    "compat-check": (["compat-check", "--n", "2"], MEASURE),
    "norm-profile": (["norm-profile", "--n", "2"], MEASURE),
    "compat": (["verify", "--suite", "compat"], MEASURE),
    "classify": (["classify"], EVERY),
    "contraction": (["verify", "--suite", "contraction", "--checks", "2"], EVERY),
}


@pytest.mark.parametrize("argv,layers", COMMANDS.values(), ids=COMMANDS)
def test_a_fresh_interpreter_loads_only_the_layers_a_command_runs(argv, layers):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, *loaded = run.stdout.split()
    assert code == "0"
    assert loaded == sorted(f"padic_potts.{layer}" for layer in layers)


def test_every_public_name_is_its_submodules_object():
    assert len(padic_potts.__all__) == 44 and padic_potts.__all__[-1] == "__version__"
    for module, names in padic_potts._EXPORTS.items():
        owner = importlib.import_module(f"padic_potts.{module}")
        for name in names:
            assert getattr(padic_potts, name) is getattr(owner, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from padic_potts import *", namespace)
    assert set(padic_potts.__all__) <= set(namespace)
    assert namespace["PadicNumber"] is padic_potts.padic_core.PadicNumber
    assert namespace["classify_phase"] is padic_potts.gibbs_solver.classify_phase


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        padic_potts.no_such_name
    with pytest.raises(ImportError):
        from padic_potts import no_such_name  # noqa: F401
