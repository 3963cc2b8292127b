"""The layer-timing tool's entries still run against the present API."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def test_every_layer_entry_runs_once():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
