import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_potts.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    doc = json.loads(out)
    assert out.endswith("\n")
    return doc


class TestVerify:
    def test_exp_log_suite(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "exp-log", "--checks", "60", "--p", "3"
        )
        assert code == 0
        doc = parse(out)
        assert doc["ok"] is True
        assert doc["suites"][0]["checks"] == 60
        assert doc["suites"][0]["passed"] == 60

    def test_product_distance_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "product-distance", "--checks", "40"
        )
        assert code == 0
        assert parse(out)["ok"] is True

    def test_contraction_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "contraction", "--checks", "4")
        assert code == 0
        assert parse(out)["ok"] is True

    def test_contraction_guard_refuses_huge_balls(self, capsys):
        # the 40-ball has 3 * 2**40 - 2 vertices; the guard refuses it before
        # any level is built or any boundary law drawn
        code, out, err = run(capsys, "verify", "--suite", "contraction", "--k", "2", "--n", "40")
        assert code == 4
        assert out == ""
        assert err.startswith("enumeration guard:")

    def test_contraction_at_two_uses_an_admissible_default_coupling(self, capsys):
        # J = 4 at p = 2, where J = p would leave the exponential's disk
        code, out, err = run(capsys, "verify", "--suite", "contraction", "--p", "2", "--q", "3")
        assert (code, err) == (0, "")
        suite = parse(out)["suites"][0]
        assert suite["passed"] == suite["checks"] == 25

    def test_contraction_refuses_divisible_q(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "contraction", "--q", "3", "--p", "3"
        )
        assert code == 1
        assert "config error" in err

    def test_compat_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "compat")
        assert code == 0
        doc = parse(out)
        suite = doc["suites"][0]
        assert suite["checks"] == 2
        assert suite["passed"] == 2

    def test_deterministic_bytes(self, capsys):
        args = ("verify", "--suite", "exp-log", "--checks", "30", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_changes_draws(self, capsys):
        _, a, _ = run(capsys, "verify", "--suite", "exp-log", "--checks", "30")
        _, b, _ = run(
            capsys, "verify", "--suite", "exp-log", "--checks", "30", "--seed", "5"
        )
        da, db = parse(a), parse(b)
        assert da["ok"] and db["ok"]
        assert da["seed"] != db["seed"]

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "no-such-suite"])
        assert exc.value.code == 2


class TestClassify:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "classify")
        assert code == 0
        doc = parse(out)
        assert doc["p"] == 3 and doc["q"] == 3 and doc["k"] == 2
        assert doc["report"]["verdict"] == "multiple_translation_invariant"

    def test_unit_q(self, capsys):
        code, out, _ = run(capsys, "classify", "--q", "2")
        assert code == 0
        assert parse(out)["report"]["verdict"] == "unique_by_contraction"

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "classify")
        _, second, _ = run(capsys, "classify")
        assert first == second

    def test_default_coupling_at_two(self, capsys):
        # J = 4 has valuation 2, so the two-adic threshold table applies
        code, out, err = run(capsys, "classify", "--p", "2", "--q", "4")
        assert (code, err) == (0, "")
        report = parse(out)["report"]
        assert report["verdict"] == "multiple_translation_invariant"
        assert report["diagnostics"] == {"coupling_valuation": "2"}

    def test_composite_modulus_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "4")
        assert code == 1
        assert "not prime" in err

    def test_inline_and_file_couplings_agree(self, capsys, tmp_path):
        doc = {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "3"}}
        text = json.dumps(doc)
        path = tmp_path / "couplings.json"
        path.write_text(text)
        _, inline_out, _ = run(capsys, "classify", "--couplings", text)
        _, file_out, _ = run(capsys, "classify", "--couplings", str(path))
        assert inline_out == file_out

    def test_coupling_flag_disagreement(self, capsys):
        doc = json.dumps(
            {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "3"}}
        )
        code, _, err = run(capsys, "classify", "--couplings", doc, "--p", "5")
        assert code == 1
        assert "config error" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "classify"


class TestCompatCheck:
    def test_zero_field_holds(self, capsys):
        code, out, _ = run(capsys, "compat-check", "--n", "1")
        assert code == 0
        doc = parse(out)
        assert doc["holds"] is True
        assert doc["terms"] == 81

    def test_alternating_field_fails(self, capsys, tmp_path):
        # root carries a nonzero vector, unlisted vertices default to zero
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"": ["3", "0"]}))
        code, out, _ = run(
            capsys, "compat-check", "--k", "1", "--n", "1", "--field", str(field)
        )
        assert code == 1
        doc = parse(out)
        assert doc["holds"] is False
        assert doc["resolved"] is True
        assert doc["max_discrepancy_valuation"] == "-3"

    def test_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "compat-check", "--n", "5")
        assert code == 4
        assert "guard" in err

    def test_zero_field_holds_at_n3(self, capsys):
        # the inner loop visits 3**10 configurations; the larger ball's
        # 3**22 lies past the enumeration guard
        code, out, _ = run(capsys, "compat-check", "--k", "2", "--n", "3")
        assert code == 0
        doc = parse(out)
        assert doc["holds"] is True
        assert doc["terms"] == 3**22

    def test_two_states_hold_at_n4(self, capsys):
        # 2**22 configurations of the 3-ball, but the check weighs only the
        # one-spin changes of one base on its sphere
        code, out, _ = run(capsys, "compat-check", "--q", "2", "--n", "4")
        assert code == 0
        doc = parse(out)
        assert doc["holds"] is True
        assert doc["terms"] == 2**46

    @pytest.mark.parametrize("command", ["compat-check", "norm-profile"])
    def test_guard_refuses_huge_balls_at_once(self, capsys, command):
        code, out, err = run(capsys, command, "--k", "2", "--n", "40")
        assert code == 4
        assert out == ""
        assert "guard" in err

    def test_depth_zero_is_a_config_error(self, capsys):
        code, out, err = run(capsys, "compat-check", "--n", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("config error:")

    def test_per_edge_table_missing_an_edge(self, capsys):
        doc = {"pattern": "per_edge", "p": 3, "q": 3, "values": [["", "0", "3"]]}
        code, out, err = run(
            capsys, "compat-check", "--k", "1", "--n", "1", "--couplings", json.dumps(doc)
        )
        assert code == 1
        assert out == ""
        assert err == "config error: no coupling listed for edge '' -> '1'\n"

    def test_inadmissible_field_is_domain_error(self, capsys, tmp_path):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"": ["1", "0"]}))
        code, _, err = run(capsys, "compat-check", "--n", "1", "--field", str(field))
        assert code == 2
        assert "domain violation" in err

    def test_inadmissible_root_field_names_the_root(self, capsys, tmp_path):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"": ["1", "0"]}))
        code, out, err = run(capsys, "compat-check", "--n", "1", "--field", str(field))
        assert (code, out) == (2, "")
        assert err == "domain violation: field at root leaves the exponential domain at p=3\n"

    def test_default_coupling_at_two(self, capsys):
        code, out, err = run(capsys, "compat-check", "--p", "2", "--q", "3", "--n", "2")
        assert (code, err) == (0, "")
        assert parse(out)["holds"] is True


class TestNormProfile:
    def test_three_states_unbounded(self, capsys):
        code, out, _ = run(capsys, "norm-profile", "--n", "2")
        assert code == 0
        doc = parse(out)
        assert doc["bounded_so_far"] is False
        assert [r["min_valuation"] for r in doc["rows"]] == ["-1", "-4", "-10"]

    def test_three_states_at_n3(self, capsys):
        code, out, _ = run(capsys, "norm-profile", "--n", "3")
        assert code == 0
        rows = parse(out)["rows"]
        assert [r["min_valuation"] for r in rows] == ["-1", "-4", "-10", "-22"]
        assert [r["max_valuation"] for r in rows] == ["-1", "-4", "-10", "-22"]

    def test_three_states_at_n4(self, capsys):
        # v_3(Z_4) = |B_4| = 46 lies past the 35-digit modulus the level would
        # have without the extra working digits finite_measure takes
        code, out, _ = run(capsys, "norm-profile", "--k", "2", "--n", "4")
        assert code == 0
        rows = parse(out)["rows"]
        want = ["-1", "-4", "-10", "-22", "-46"]
        assert [r["min_valuation"] for r in rows] == want
        assert [r["max_valuation"] for r in rows] == want

    def test_two_states_bounded(self, capsys):
        code, out, _ = run(capsys, "norm-profile", "--q", "2", "--n", "2")
        assert code == 0
        doc = parse(out)
        assert doc["bounded_so_far"] is True
        assert all(r["min_valuation"] == "0" for r in doc["rows"])

    def test_default_coupling_at_two(self, capsys):
        # p = q = 2: v_2(Z_n) = |B_n|, one digit per vertex of the ball
        code, out, err = run(capsys, "norm-profile", "--p", "2", "--q", "2", "--n", "2")
        assert (code, err) == (0, "")
        assert [r["min_valuation"] for r in parse(out)["rows"]] == ["-1", "-4", "-10"]

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "norm-profile", "--n", "1")
        _, second, _ = run(capsys, "norm-profile", "--n", "1")
        assert first == second


BAD_COUPLINGS = {
    "zero denominator": {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "1/0"}},
    "values as a list": {"pattern": "homogeneous", "p": 3, "q": 3, "values": ["3"]},
    "numeric edge address": {"pattern": "per_edge", "p": 3, "q": 3, "values": [[1, 2, "3"]]},
    "infinite q": {"pattern": "homogeneous", "p": 3, "q": float("inf"), "values": {"J": "3"}},
    "fractional q": {"pattern": "homogeneous", "p": 3, "q": 3.5, "values": {"J": "3"}},
}
BAD_FIELDS = {
    "zero denominator": {"": ["1/0", "0"]},
    "document as a list": [["3", "0"]],
    "components as a string": {"": "30"},
}


@pytest.mark.parametrize(
    "couplings,field",
    [(doc, None) for doc in BAD_COUPLINGS.values()] + [(None, doc) for doc in BAD_FIELDS.values()],
    ids=[f"couplings {name}" for name in BAD_COUPLINGS] + [f"field {name}" for name in BAD_FIELDS],
)
def test_malformed_documents_are_config_errors(capsys, tmp_path, couplings, field):
    argv = ["compat-check", "--n", "1"]
    if couplings is not None:
        argv += ["--couplings", json.dumps(couplings)]
    if field is not None:
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field))
        argv += ["--field", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:")


@pytest.mark.parametrize("n", ["20000", str(10**9)])
@pytest.mark.parametrize(
    "command",
    [["compat-check"], ["norm-profile"], ["verify", "--suite", "contraction"]],
    ids=["compat-check", "norm-profile", "contraction"],
)
def test_guard_refuses_deep_balls_at_once(capsys, command, n):
    # |B_n| has more digits than an int may print; the guard refuses the
    # ball by its depth without forming that count
    code, out, err = run(capsys, *command, "--k", "2", "--n", n)
    assert (code, out) == (4, "")
    assert err.startswith("enumeration guard:")


@pytest.mark.parametrize("flag", ["--couplings", "--field"])
@pytest.mark.parametrize(
    "content",
    [b'{"q": ' + b"9" * 5000 + b"}", b"\xff\xfe{}"],
    ids=["integer past the digit limit", "not UTF-8"],
)
def test_undecodable_files_are_config_errors(capsys, tmp_path, flag, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "compat-check", "--n", "1", flag, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("config error:")


class TestFlagValidation:
    def test_precision_floor(self, capsys):
        code, _, err = run(capsys, "classify", "--precision", "4")
        assert code == 1
        assert "config error" in err

    def test_negative_depth(self, capsys):
        code, _, err = run(capsys, "norm-profile", "--n", "-1")
        assert code == 1
        assert "config error" in err


# Random JSON documents for --couplings and --field: any shape, any atom.
_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["3", "9", "4", "9/2", "-6/5", "0", "1/0", "1e3", "x", ""]),
)
_VALUES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["J", "even_to_odd", "odd_to_even", "x"]), inner, max_size=3),
    ),
    max_leaves=6,
)
_ADDRESSES = st.sampled_from(["", "0", "1", "2", "0.1", "1.0", "0.0", "-1", "a", "0..1", "1.", " 0"])
_EDGE_ROWS = st.lists(
    st.one_of(st.tuples(_ADDRESSES, _ADDRESSES, _VALUES).map(list), _VALUES), max_size=4
)
_COUPLINGS = st.one_of(
    st.fixed_dictionaries(
        {
            "pattern": st.sampled_from(["homogeneous", "bipartite", "per_edge", "bogus"]),
            "p": st.one_of(st.sampled_from([2, 3, 5]), _VALUES),
            "q": st.one_of(st.sampled_from([2, 3, 4, 6]), _VALUES),
            "values": st.one_of(_VALUES, _EDGE_ROWS),
        }
    ),
    _VALUES,
)
_FIELDS = st.one_of(
    st.dictionaries(_ADDRESSES, st.one_of(st.lists(_ATOMS, max_size=3), _VALUES), max_size=4),
    _VALUES,
)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    command=st.sampled_from(["compat-check", "norm-profile", "classify"]),
    k=st.integers(1, 2),
    n=st.integers(0, 2),
    couplings=st.one_of(st.none(), _COUPLINGS),
    field=st.one_of(st.none(), _FIELDS),
)
def test_random_json_documents_exit_in_range(command, k, n, couplings, field):
    argv = [command, "--k", str(k), "--n", str(n)]
    if couplings is not None:
        argv.append("--couplings=" + json.dumps(couplings))  # a document may start with "-"
    with tempfile.TemporaryDirectory() as tmp:
        if field is not None and command != "classify":
            path = os.path.join(tmp, "field.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(field, fh)
            argv += ["--field", path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in range(5)
