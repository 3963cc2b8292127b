"""The layer-timing tool's entries still run against the present API."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_layer_entry_runs_once():
    tool = _tool()
    entries = tool._entries()
    names = {name for name, _, _ in entries}
    assert {
        "PadicNumber.inverse", "exp_p", "f_map_z", "hensel_roots_in_disk",
        "hensel_roots_in_disk.quadratic", "exp_p.cold_plan",
        "log_p.cold_plan", "_LevelWeights", "_LevelWeights.partition_residue",
        "PadicNumber.mul.exact", "PadicNumber.distance_valuation.exact",
        "PadicNumber.from_fraction", "PadicNumber.from_ratio", "solve_k1_bipartite", "recursion_backward",
        "recursion_backward.fallback", "recursion_backward.per_edge", "compatibility_check", "measure_norm_profile",
        "boundary_field_from_json", "finite_measure",
    } <= names
    # the inverse on both sides of the pow / Newton crossover
    assert {16, 32, 512} <= {params["N"] for name, params, _ in entries
                             if name == "PadicNumber.inverse"}
    keys = set()
    for name, params, fn in entries:
        keys.add(json.dumps([name, params], sort_keys=True))
        fn()
    assert len(keys) == len(entries)  # no two entries share a record key
    assert tool._speed().sample_ms() > 0  # the reference kernel every record is scaled by


def test_every_cold_entry_runs_once_per_tree(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "COLD_REPEATS", 1)
    measured = tool._measure_cold({"here": str(TOOL.parents[1])})
    keys = measured["here"]
    assert len(keys) == len(tool.COLD) == 5  # no two entries share a record key
    assert {json.loads(key)[1]["argv"] for key in keys} >= {
        "-c pass", "-I -c pass", "compat-check --n 2", "classify"}
    for times in keys.values():
        assert len(times["raw"]) == len(times["scaled"]) == 1 and times["raw"][0] > 0
