import contextlib
import dataclasses
import io
import json
import os
import random
import tempfile
import types
from fractions import Fraction

import pytest
from conftest import ball_with_edges
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_potts import cli, gibbs_solver, potts_model
from padic_potts.cayley_tree import TreeShape, render_address
from padic_potts.cli import SUITES, main
from padic_potts.errors import (
    DenominatorDegenerate,
    LiftStall,
    PartitionFunctionDegenerate,
    PrecisionExhausted,
)
from padic_potts.padic_analytic import exp_domain_min_valuation, exp_p
from padic_potts.padic_core import DEFAULT_PRECISION, PadicNumber, as_prime


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

    def test_exp_log_cancellation_is_a_certified_distance(self, capsys):
        # check 16 draws x = 400/11 and y = -400/11, so exp(x) * exp(y) agrees
        # with 1 at every known digit: log of it and log exp(x) + log exp(y)
        # are both 0 + O(2**38), and their distance is certified to 38 >= N - 2
        code, out, err = run(
            capsys, "verify", "--suite", "exp-log", "--checks", "60",
            "--seed", "815857961", "--precision", "32", "--p", "2",
        )
        assert (code, err) == (0, "")
        doc = parse(out)
        assert doc["ok"] is True
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

    def test_contraction_offsets_run_past_the_precision(self, capsys):
        # capped-relative bounds: at N = 8 the root's offset reaches 12 digits
        # on a 10-level line, and the bytes are those the per-object fold
        # printed before the recursion ran on integers
        code, out, err = run(
            capsys, "verify", "--suite", "contraction", "--precision", "8", "--k", "1",
            "--n", "10", "--p", "3", "--q", "2", "--seed", "1",
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"command":"verify","ok":true,"precision":8,"seed":1,"suites":[{"checks":25,'
            '"first_failure":null,"passed":25,"samples":['
            '{"offsets":["12","10","9","8","7","6","5","4","3","2","1"]},'
            '{"offsets":["12","11","10","9","8","7","6","5","4","3","2"]},'
            '{"offsets":["11","10","9","8","7","6","5","4","3","2","1"]}],'
            '"suite":"contraction"}]}\n'
        )

    def test_contraction_refuses_depth_zero(self, capsys):
        # --n defaults to 2 in the parser; an explicit 0 is no depth at all
        code, out, err = run(capsys, "verify", "--suite", "contraction", "--n", "0")
        assert (code, out) == (1, "")
        assert err == "config error: the contraction suite needs n >= 1\n"

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

    # A failing check: the report keeps its first three passes as samples and
    # names the first failure by its index; the run exits 1.

    def test_exp_log_reports_its_first_failure(self, capsys, monkeypatch):
        # the fourth log_p call is check 2's log(exp(x)); off by p, the round
        # trip misses x at the first digit
        real, calls = cli.log_p, []

        def log_p(z):
            calls.append(z)
            got = real(z)
            return got + z.prime.value if len(calls) == 4 else got

        monkeypatch.setattr(cli, "log_p", log_p)
        code, out, err = run(
            capsys, "verify", "--suite", "exp-log", "--p", "3", "--checks", "6",
            "--precision", "16",
        )
        assert (code, err) == (1, "suite violation; see first_failure entries\n")
        assert out == (
            '{"command":"verify","ok":false,"precision":16,"seed":0,"suites":[{"checks":6,'
            '"first_failure":{"check":"log-exp round trip distance 1","index":2,"p":3,'
            '"x":"3^1 * (1 + 2*3 + 2*3^2 + 1*3^3 + 1*3^4 + 2*3^5 + 2*3^6 + 1*3^7 + 2*3^8 '
            '+ 2*3^10 + 1*3^11 + 1*3^12 + 1*3^15) + O(3^17)"},"passed":5,"samples":['
            '{"check":"additive homomorphism distance 20","p":3,"x":"3^2 * (1 + 1*3 + 1*3^3 '
            '+ 1*3^4 + 1*3^5 + 2*3^6 + 1*3^8 + 2*3^10 + 1*3^11 + 2*3^12 + 1*3^14) + O(3^18)"},'
            '{"check":"multiplicative homomorphism distance 19","p":3,"x":"3^2 * (1 + 1*3 '
            '+ 1*3^2 + 2*3^3 + 1*3^4 + 1*3^5 + 1*3^7 + 1*3^10 + 2*3^11 + 2*3^14 + 1*3^15) '
            '+ O(3^18)"},{"check":"exp-log round trip distance 20","p":3,"x":"3^2 * (1 + 1*3 '
            '+ 1*3^2 + 2*3^3 + 2*3^4 + 2*3^7 + 2*3^8 + 2*3^11 + 2*3^12 + 2*3^15) + O(3^18)"}],'
            '"suite":"exp-log"}]}\n'
        )

    def test_product_distance_reports_its_first_failure(self, capsys, monkeypatch):
        # each check starts both products from PadicNumber.one; the third call
        # (check 1's first product) starts from 1/p, a distance of valuation -1
        real, calls = PadicNumber.one.__func__, []

        def one(cls, p, precision=DEFAULT_PRECISION):
            calls.append(p)
            got = real(cls, p, precision)
            if len(calls) == 3:
                return got * PadicNumber.from_fraction(Fraction(1, 3), p, precision)
            return got

        monkeypatch.setattr(PadicNumber, "one", classmethod(one))
        code, out, err = run(
            capsys, "verify", "--suite", "product-distance", "--p", "3", "--checks", "5",
            "--precision", "16",
        )
        assert (code, err) == (1, "suite violation; see first_failure entries\n")
        assert out == (
            '{"command":"verify","ok":false,"precision":16,"seed":0,"suites":[{"checks":5,'
            '"first_failure":{"bound":"0","factors":3,"got":"-1","index":1,"p":3},"passed":4,'
            '"samples":[{"bound":"0","factors":7,"got":"0","p":3},'
            '{"bound":"0","factors":4,"got":"0","p":3},{"bound":"1","factors":1,"got":"1","p":3}],'
            '"suite":"product-distance"}]}\n'
        )

    def test_contraction_reports_its_first_failure(self, capsys, monkeypatch):
        # the second recursion's offsets flattened to their leaf value: no
        # level contracts
        real, calls = gibbs_solver.recursion_backward, []

        def recursion_backward(*args):
            res = real(*args)
            calls.append(res)
            if len(calls) == 2:
                return types.SimpleNamespace(
                    per_level_offset=[res.per_level_offset[-1]] * len(res.per_level_offset)
                )
            return res

        monkeypatch.setattr(gibbs_solver, "recursion_backward", recursion_backward)
        code, out, err = run(capsys, "verify", "--suite", "contraction", "--checks", "5", "--n", "3")
        assert (code, err) == (1, "suite violation; see first_failure entries\n")
        assert out == (
            '{"command":"verify","ok":false,"precision":32,"seed":0,"suites":[{"checks":5,'
            '"first_failure":{"index":1,"offsets":["1","1","1","1"]},"passed":4,"samples":['
            '{"offsets":["4","3","2","1"]},{"offsets":["6","3","2","1"]},'
            '{"offsets":["5","3","2","1"]}],"suite":"contraction"}]}\n'
        )

    def test_compat_reports_its_first_failure(self, capsys, monkeypatch):
        # the second check's report turned to "holds": the alternating field
        # no longer breaks consistency
        real, calls = potts_model.compatibility_check, []

        def compatibility_check(*args):
            calls.append(args)
            got = real(*args)
            return dataclasses.replace(got, holds=True) if len(calls) == 2 else got

        monkeypatch.setattr(potts_model, "compatibility_check", compatibility_check)
        code, out, err = run(capsys, "verify", "--suite", "compat")
        assert (code, err) == (1, "suite violation; see first_failure entries\n")
        assert out == (
            '{"command":"verify","ok":false,"precision":32,"seed":0,"suites":[{"checks":2,'
            '"first_failure":{"expected_holds":false,"holds":true,"index":1,'
            '"name":"alternating field breaks consistency","ok":false,"terms":243,'
            '"worst_discrepancy":"-3"},"passed":1,"samples":[{"expected_holds":true,'
            '"holds":true,"name":"zero field stays consistent","ok":true,"terms":59049,'
            '"worst_discrepancy":"35"}],"suite":"compat"}]}\n'
        )

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "no-such-suite"])
        assert exc.value.code == 2


# The verify draws as first written, each a Fraction that from_fraction then
# took apart: the oracles of the draw helpers, which must give the same
# values from the same rng calls.


def _exp_argument_as_fraction(rng, p):
    v = exp_domain_min_valuation(p) + rng.randrange(0, 3)
    num = cli._p_free(rng, p, p**6)
    den = cli._p_free(rng, p, p**4)
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * num * p**v, den)


def _unit_as_fraction(rng, p):
    return Fraction(cli._p_free(rng, p, p**8), cli._p_free(rng, p, p**5))


def _law_component_as_fraction(rng, p):
    pe = p ** (1 + rng.randrange(0, 3))
    num = cli._p_free(rng, p, p**8)
    den = cli._p_free(rng, p, p**5)
    return Fraction(den + pe * num, den)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize(
    "draw,oracle",
    [
        (cli._random_exp_argument, _exp_argument_as_fraction),
        (cli._random_unit, _unit_as_fraction),
        (cli._random_law_component, _law_component_as_fraction),
    ],
    ids=["exp-argument", "unit", "law-component"],
)
def test_draws_match_the_fraction_draws(p, draw, oracle):
    prime = as_prime(p)
    for seed in range(200):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = draw(rng, prime, 24)
            want = PadicNumber.from_fraction(oracle(twin, p), p, 24)
            assert (got._key(), got.precision) == (want._key(), want.precision)
        assert rng.getstate() == twin.getstate()


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

    def test_zero_coupling_at_two_prints_infinite_valuation(self, capsys):
        doc = json.dumps({"pattern": "homogeneous", "p": 2, "q": 8, "values": {"J": "0"}})
        code, out, err = run(
            capsys, "classify", "--p", "2", "--q", "8", "--k", "2", "--couplings", doc
        )
        assert (code, err) == (0, "")
        assert '"coupling_valuation":"+inf"' in out
        assert parse(out)["report"]["diagnostics"] == {"coupling_valuation": "+inf"}

    def test_exact_padding_prints_infinite_offset(self, capsys):
        # every witness at p = q = 3 is (z, 1), and the exact 1 has offset +inf
        code, out, err = run(capsys, "classify")
        assert (code, err) == (0, "")
        assert '"offset_valuation":"+inf"' in out
        witnesses = parse(out)["report"]["witnesses"]
        assert witnesses
        assert all(w["components"][1]["offset_valuation"] == "+inf" for w in witnesses)

    def test_composite_modulus_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "4")
        assert code == 1
        assert "not prime" in err

    def test_mersenne_prime_61_answers(self, capsys):
        code, out, err = run(capsys, "classify", "--p", str(2**61 - 1))
        assert (code, err) == (0, "")
        assert parse(out)["p"] == 2**61 - 1

    def test_modulus_past_the_primality_bound_is_a_config_error(self, capsys):
        code, out, err = run(capsys, "classify", "--p", str(2**89 - 1))
        assert (code, out) == (1, "")
        assert err.startswith("config error:") and "past" in err

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

    def test_coupling_q_disagreement(self, capsys):
        doc = '{"pattern":"homogeneous","p":3,"q":4,"values":{"J":"3"}}'
        code, out, err = run(capsys, "classify", "--couplings", doc, "--q", "3")
        assert (code, out, err) == (1, "", "config error: couplings q disagrees with --q\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "classify"

    def test_out_file_that_cannot_be_written_is_a_config_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "classify", "--p", "3", "--q", "2", "--out", str(target))
        assert (code, out) == (1, "")
        assert err == (f"config error: cannot write output file: [Errno 2] No such file or "
                       f"directory: {str(target)!r}\n")


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

    @pytest.mark.parametrize("command", ["compat-check", "norm-profile", "classify"])
    @pytest.mark.parametrize(
        "row",
        [
            ["7", "7.3", "9"],  # the child is no vertex of the k = 1 tree
            ["1", "0.0", "9"],  # a vertex of the tree, but 0's child, not 1's
            ["", "", "9"],  # the root is nobody's child
        ],
    )
    def test_per_edge_row_off_the_tree_is_a_config_error(self, capsys, command, row):
        values = [["", "0", "3"], ["", "1", "3"], row]
        doc = {"pattern": "per_edge", "p": 3, "q": 3, "values": values}
        code, out, err = run(capsys, command, "--k", "1", "--couplings", json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == (
            f"config error: couplings field invalid: per-edge row {row[0]!r} -> "
            f"{row[1]!r} names no edge of the k=1 tree\n"
        )

    @pytest.mark.parametrize("row", ["ab0", "000", ["", "0", "3", "9"], 5],
                             ids=["string", "digit string", "four", "number"])
    def test_per_edge_row_of_the_wrong_shape_is_a_config_error(self, capsys, row):
        doc = {"pattern": "per_edge", "p": 3, "q": 3, "values": [row]}
        code, out, err = run(capsys, "compat-check", "--n", "1", "--couplings", json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == ("config error: couplings field invalid: per-edge row 0 must be a "
                       f"[parent, child, value] array, got {row!r}\n")

    @pytest.mark.parametrize("command", ["compat-check", "norm-profile"])
    def test_per_edge_table_missing_two_edges_names_the_first_in_level_order(
        self, capsys, command
    ):
        # '1' -> '1.1' (level 2) comes before '0.1' -> '0.1.0' (level 3) in
        # level order, though not in the order the rows are listed
        vertices, pairs = ball_with_edges(TreeShape(2), 3)
        missing = {("0.1", "0.1.0"), ("1", "1.1")}
        edges = [(render_address(vertices[i]), render_address(vertices[j]), j)
                 for i, j in reversed(pairs)]
        rows = [[x, y, ("3", "6", "9/2")[j % 3]] for x, y, j in edges if (x, y) not in missing]
        doc = {"pattern": "per_edge", "p": 3, "q": 2, "values": rows}
        code, out, err = run(capsys, command, "--k", "2", "--n", "3", "--couplings",
                             json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == "config error: no coupling listed for edge '1' -> '1.1'\n"

    @pytest.mark.parametrize("command", ["compat-check", "norm-profile"])
    @pytest.mark.parametrize("address", ["0", "2.1.0"])
    def test_inadmissible_entry_off_the_sphere_is_refused(self, capsys, tmp_path, command,
                                                          address):
        # no site table of the 2-ball reads an interior vertex's entry, nor
        # one past the ball, but every entry is checked as it is read in
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"1.1": ["3", "0"], address: ["1", "0"]}))
        code, out, err = run(capsys, command, "--k", "2", "--n", "2", "--field", str(field))
        assert (code, out) == (2, "")
        assert err == (f"domain violation: field at {address} leaves the exponential "
                       f"domain at p=3\n")

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

    @pytest.mark.parametrize("command", ["compat-check", "norm-profile"])
    def test_field_address_off_the_tree_is_a_config_error(self, capsys, tmp_path, command):
        # at k = 1 the root has children 0 and 1, every other vertex child 0
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"7.3": ["3", "0"]}))
        code, out, err = run(capsys, command, "--k", "1", "--n", "1", "--field", str(field))
        assert (code, out) == (1, "")
        assert err.startswith("config error:")
        assert "'7.3'" in err and "k=1" in err

    # int() would read '1_0' as 10, a child of the root at k = 10
    @pytest.mark.parametrize(
        "command,address",
        [("compat-check", "default"), ("norm-profile", "default"),
         ("compat-check", "1_0"), ("norm-profile", "1_0")],
        ids=["compat-check", "norm-profile", "compat-check-1_0", "norm-profile-1_0"],
    )
    def test_malformed_field_address_names_the_format(self, capsys, tmp_path, command, address):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({address: ["3", "0"]}))
        code, out, err = run(capsys, command, "--k", "10", "--n", "1", "--field", str(field))
        assert (code, out) == (1, "")
        assert err == (
            f"config error: field file invalid: vertex address {address!r} is not dot-joined "
            "child indices like '0.1' (the root is '')\n"
        )

    @pytest.mark.parametrize("command", ["compat-check", "norm-profile", "classify"])
    def test_malformed_per_edge_address_names_the_format(self, capsys, command):
        values = [["", "0", "3"], ["", "1", "3"], ["0", "0.x", "3"]]
        doc = {"pattern": "per_edge", "p": 3, "q": 3, "values": values}
        code, out, err = run(capsys, command, "--k", "1", "--couplings", json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == (
            "config error: couplings field invalid: vertex address '0.x' is not dot-joined "
            "child indices like '0.1' (the root is '')\n"
        )

    def test_field_address_past_the_ball_is_accepted(self, capsys, tmp_path):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"1.0.0.0": ["3", "0"]}))
        with_field = run(capsys, "compat-check", "--k", "1", "--n", "1", "--field", str(field))
        assert with_field == run(capsys, "compat-check", "--k", "1", "--n", "1")

    def test_constant_field_pays_one_table_per_precision(self, capsys, tmp_path, monkeypatch):
        # the same vector at every vertex of the 2-ball, as distinct objects:
        # at most q site exponentials per working precision, plus the thetas
        site_precisions, theta_calls = [], []

        def counting_exp(x, precision=None):
            (theta_calls if precision is None else site_precisions).append(precision)
            return exp_p(x, precision)

        monkeypatch.setattr(potts_model, "exp_p", counting_exp)
        addresses = [render_address(a) for a in ball_with_edges(TreeShape(2), 2)[0]]
        field = tmp_path / "field.json"
        field.write_text(json.dumps({a: ["3", "9/2"] for a in addresses}))
        code, out, err = run(capsys, "compat-check", "--k", "2", "--n", "2", "--field", str(field))
        assert code in (0, 1) and err == ""  # a constant field need not be consistent
        assert parse(out)["n"] == 2
        assert 1 <= len(set(site_precisions)) <= 2
        calls = len(site_precisions) + len(theta_calls)
        assert calls <= 3 * len(set(site_precisions)) + len(theta_calls)


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


@pytest.mark.parametrize("text", ["[1]", '"x"', "3"])
def test_couplings_document_that_is_not_an_object_is_named(capsys, tmp_path, text):
    path = tmp_path / "couplings.json"
    path.write_text(text)
    code, out, err = run(capsys, "classify", "--couplings", str(path))
    assert (code, out) == (1, "")
    assert err == ("config error: couplings field invalid: a coupling document must be a "
                   f"JSON object, got {json.loads(text)!r}\n")


@pytest.mark.parametrize("pattern,values,kind", [("homogeneous", ["3"], "object"),
                                                 ("bipartite", "3", "object"),
                                                 ("per_edge", {}, "array")])
def test_couplings_values_of_the_wrong_kind_are_named(capsys, pattern, values, kind):
    doc = json.dumps({"pattern": pattern, "p": 3, "q": 3, "values": values})
    code, out, err = run(capsys, "classify", "--couplings", doc)
    assert (code, out) == (1, "")
    assert err == (f"config error: couplings field invalid: {pattern} coupling values must "
                   f"be a JSON {kind}, got {values!r}\n")


@pytest.mark.parametrize("flag, what", [("--couplings", "couplings"), ("--field", "field")])
def test_json_syntax_errors_name_their_line(capsys, tmp_path, flag, what):
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "compat-check", "--n", "1", flag, str(path))
    assert (code, out) == (1, "")
    assert err == (f"config error: {what} JSON at line 1: Expecting property name enclosed "
                   "in double quotes\n")


@pytest.mark.parametrize(
    "error", [PartitionFunctionDegenerate, DenominatorDegenerate, LiftStall, PrecisionExhausted]
)
def test_degenerate_computations_exit_3(capsys, monkeypatch, error):
    def classify(args):
        raise error("nothing left to resolve")

    monkeypatch.setitem(cli._COMMANDS, "classify", classify)
    code, out, err = run(capsys, "classify")
    assert (code, out, err) == (3, "", "degenerate computation: nothing left to resolve\n")


@pytest.mark.parametrize(
    "pattern, values, key",
    [
        ("homogeneous", {}, "J"),
        ("homogeneous", {"j": "3"}, "J"),
        ("bipartite", {"odd_to_even": "3"}, "even_to_odd"),
        ("bipartite", {"even_to_odd": "3"}, "odd_to_even"),
    ],
)
def test_missing_coupling_value_is_named(capsys, pattern, values, key):
    doc = {"pattern": pattern, "p": 3, "q": 3, "values": values}
    code, out, err = run(capsys, "classify", "--couplings", json.dumps(doc))
    assert (code, out) == (1, "")
    assert err == (
        f"config error: couplings field invalid: {pattern} coupling values lack field {key!r}\n"
    )


RATIONAL_TEXT = "rationals must be given as strings like '3/4', got"


@pytest.mark.parametrize(
    "couplings, field, error",
    [
        (None, {"": [False, False]}, f"field file invalid: {RATIONAL_TEXT} False"),
        # an earlier 0 must not hand false its cached value
        (None, {"": ["3", 0], "0": [0, False]}, f"field file invalid: {RATIONAL_TEXT} False"),
        ({"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": False}}, None,
         f"couplings field invalid: {RATIONAL_TEXT} False"),
        ({"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": True}}, None,
         f"couplings field invalid: {RATIONAL_TEXT} True"),
        ({"pattern": "per_edge", "p": 3, "q": 3, "values": [["", "0", True]]}, None,
         f"couplings field invalid: {RATIONAL_TEXT} True"),
        ({"pattern": "homogeneous", "p": 3, "q": True, "values": {"J": "3"}}, None,
         "couplings field invalid: q must be an integer, got True"),
    ],
    ids=["field false", "field false after 0", "J false", "J true", "per-edge true", "q true"],
)
def test_json_booleans_are_config_errors(capsys, tmp_path, couplings, field, error):
    # JSON true and false are Python ints, equal to and hashing as 1 and 0
    argv = ["compat-check", "--p", "3", "--q", "3", "--n", "1"]
    if couplings is not None:
        argv += ["--couplings", json.dumps(couplings)]
    if field is not None:
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field))
        argv += ["--field", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"config error: {error}\n")


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


# int and Fraction read "1_1" as 11, "\u0663" as 3 and " 3_0 " as 30: every
# number text is an optional '-' and ASCII digits, a rational adding one '/'
# and a second run of digits
OFF_GRAMMAR = ["1_1", "\u0663", " 3", "3 ", "+3", "3.0", "3e1"]


@pytest.mark.parametrize("text", OFF_GRAMMAR)
@pytest.mark.parametrize("flag", ["--p", "--q", "--k", "--n", "--precision", "--seed", "--checks"])
def test_int_flags_outside_the_number_grammar_are_refused(capsys, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "exp-log", flag, text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: invalid int value: {text!r}\n")


def test_grammar_refusal_repros(capsys, tmp_path):
    # each ran at the parent as another number: p = 11, q = 3; q = 10; J = 30;
    # and a field that printed the bytes of {"": ["3", "30"]}
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "1_1", "--q", "\u0663"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --p: invalid int value: '1_1'\n")
    doc = {"pattern": "homogeneous", "p": 3, "q": "1_0", "values": {"J": "3"}}
    assert run(capsys, "compat-check", "--couplings", json.dumps(doc)) == (
        1, "", "config error: couplings field invalid: q must be an integer, got '1_0'\n")
    doc = {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": " 3_0 "}}
    assert run(capsys, "compat-check", "--couplings", json.dumps(doc)) == (
        1, "", "config error: couplings field invalid: Invalid literal for Fraction: ' 3_0 '\n")
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"": ["\u0663", "3_0"]}))
    assert run(capsys, "compat-check", "--field", str(path)) == (
        1, "", "config error: field file invalid: Invalid literal for Fraction: '\u0663'\n")


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_coupling_q_outside_the_number_grammar_is_a_config_error(capsys, text):
    doc = {"pattern": "homogeneous", "p": 3, "q": text, "values": {"J": "3"}}
    assert run(capsys, "classify", "--couplings", json.dumps(doc)) == (
        1, "", f"config error: couplings field invalid: q must be an integer, got {text!r}\n")


def test_coupling_q_as_ascii_digits_is_read():
    doc = {"pattern": "homogeneous", "p": 3, "q": "3", "values": {"J": "3"}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compat-check", "--n", "1", "--couplings", json.dumps(doc)]) == 0
    assert json.loads(out.getvalue())["q"] == 3


# the couplings p is read by the rule for q, then checked prime; a p that
# reached the prime check unread was refused as "'3' is not prime"
@pytest.mark.parametrize("key", ["p", "q"])
@pytest.mark.parametrize("value", ["x", "1_1", True, 3.0, None, [3]])
def test_coupling_p_and_q_outside_the_integer_rule_are_config_errors(capsys, key, value):
    doc = {"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "3"}, key: value}
    assert run(capsys, "compat-check", "--n", "1", "--couplings", json.dumps(doc)) == (
        1, "", f"config error: couplings field invalid: {key} must be an integer, got {value!r}\n")


@pytest.mark.parametrize("p", [4, "4"])
def test_coupling_p_as_a_composite_integer_is_not_prime(capsys, p):
    doc = {"pattern": "homogeneous", "p": p, "q": 3, "values": {"J": "3"}}
    assert run(capsys, "compat-check", "--n", "1", "--couplings", json.dumps(doc)) == (
        1, "", "config error: couplings field invalid: 4 is not prime\n")


def test_coupling_p_as_ascii_digits_is_read(capsys):
    doc = {"pattern": "homogeneous", "p": "3", "q": 3, "values": {"J": "3"}}
    code, out, err = run(capsys, "compat-check", "--n", "1", "--couplings", json.dumps(doc))
    assert (code, err) == (0, "")
    assert parse(out)["p"] == 3


@pytest.mark.parametrize("address", ["0.1", "00.01", "0.001", "000.1"])
def test_field_error_names_the_canonical_address(capsys, tmp_path, address):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({address: ["1", "0"]}))
    assert run(capsys, "compat-check", "--k", "2", "--n", "1", "--field", str(path)) == (
        2, "", "domain violation: field at 0.1 leaves the exponential domain at p=3\n")


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
    st.sampled_from(["3", "9", "4", "9/2", "-6/5", "0", "1/0", "1e3", "x", "",
                     "1_0", " 3_0 ", "\u0663", "+3", "3.0"]),
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


# Argv fuzzing: real subcommands and flags, bogus tokens and missing values,
# small numbers.  Values naming a file are placeholders "@name" that the test
# points at files it writes; --out only ever names the null device.
_COUPLING_TEXTS = [
    json.dumps({"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "3"}}),
    json.dumps({"pattern": "homogeneous", "p": 2, "q": 2, "values": {"J": "4"}}),
    json.dumps(
        {
            "pattern": "bipartite",
            "p": 5,
            "q": 3,
            "values": {"even_to_odd": "5", "odd_to_even": "-10/3"},
        }
    ),
    json.dumps({"pattern": "homogeneous", "p": 3, "q": 3, "values": {"J": "1/3"}}),
    "{",
    "@missing",
]
_FIELD_DOCS = {
    "sparse": {"": ["3", "0"], "0.1": ["9", "-3/2"]},
    "offtree": {"7.3": ["3", "0"]},
    "short": {"0": ["3"]},
}
_COMMON_VALUES = {
    "--p": st.sampled_from(["2", "3", "5", "7", "0", "1", "4", "9", "-3"]),
    "--q": st.integers(-1, 5).map(str),
    "--k": st.integers(-1, 3).map(str),
    "--n": st.integers(-1, 3).map(str),
    "--precision": st.integers(-1, 32).map(str),
    "--seed": st.integers(-1, 5).map(str),
    "--couplings": st.sampled_from(_COUPLING_TEXTS),
    "--out": st.just(os.devnull),
}
_FIELD_VALUES = {"--field": st.sampled_from(["@" + name for name in _FIELD_DOCS] + ["@missing"])}
_VERIFY_VALUES = {"--suite": st.sampled_from(SUITES), "--checks": st.integers(-1, 3).map(str)}
_FLAG_VALUES = {  # per subcommand; None stands for a missing or bogus subcommand
    "verify": {**_COMMON_VALUES, **_VERIFY_VALUES},
    "classify": _COMMON_VALUES,
    "compat-check": {**_COMMON_VALUES, **_FIELD_VALUES},
    "norm-profile": {**_COMMON_VALUES, **_FIELD_VALUES},
    None: {**_COMMON_VALUES, **_FIELD_VALUES, **_VERIFY_VALUES},
}


def _flags(values):
    return st.lists(
        st.sampled_from(sorted(values)).flatmap(lambda f: values[f].map(lambda v: [f, v])),
        max_size=5,
    )


_BOGUS = st.sampled_from(
    ["--bogus", "frobnicate", "-x", "--", "", "3", "--p=", "--k=abc", "--help", "--suite"]
)
# a token or pair that spoils the argv; a third of the argvs get one
_SPOILERS = st.one_of(
    st.sampled_from(sorted(set(_FLAG_VALUES[None]) - {"--out"})).map(lambda f: [f]),  # no value
    _BOGUS.map(lambda t: [t]),
    st.sampled_from(
        [["--p", "x"], ["--suite", "bogus"], ["--field", "@sparse"], ["--checks", "2"]]
    ),
)


@st.composite
def _argvs(draw):
    commands = ["verify", "classify", "compat-check", "norm-profile"]
    command = draw(st.sampled_from([*commands, *commands, "bogus", None]))
    head = [] if command is None else [command]
    if command == "verify":
        # a suite and a bounded --checks, which later items may override
        head += ["--suite", draw(st.sampled_from(SUITES)), "--checks", str(draw(st.integers(1, 3)))]
    items = draw(_flags(_FLAG_VALUES.get(command, _FLAG_VALUES[None])))
    if draw(st.integers(0, 2)) == 0:
        items.insert(draw(st.integers(0, len(items))), draw(_SPOILERS))
    return head + [t for item in items for t in item]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=_argvs())
def test_random_argv_exits_in_range_and_repeats(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"@missing": os.path.join(tmp, "missing.json")}
        for name, doc in _FIELD_DOCS.items():
            paths["@" + name] = os.path.join(tmp, name + ".json")
            with open(paths["@" + name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = [paths.get(t, t) for t in argv]
        first = _outcome(argv)
        assert _outcome(argv) == first  # the shared parser carries nothing between calls
    code, out, err = first
    if code == ("SystemExit", 2):
        assert "usage:" in err
    elif code == ("SystemExit", 0):
        assert out.startswith("usage:")  # --help
    else:
        assert code in range(5)


def test_documents_naming_one_edge_or_vertex_twice_are_config_errors(capsys, tmp_path):
    # the later entry used to win: norm-profile read level 1 at -4 or -3,
    # and compat-check its discrepancy at -1 or -3, by the order of the entries
    rows = [["", "0", "3"], ["", "0", "6"], ["", "1", "3"]]
    doc = {"pattern": "per_edge", "p": 3, "q": 3, "values": rows}
    flags = ["--p", "3", "--q", "3", "--k", "1", "--n", "1"]
    assert run(capsys, "norm-profile", *flags, "--couplings", json.dumps(doc)) == (
        1, "", "config error: couplings field invalid: per-edge rows 0 and 1 both name edge "
               "'' -> '0'\n")
    path = tmp_path / "field.json"
    path.write_text('{"0": ["3", "0"], "00": ["6", "0"]}')
    assert run(capsys, "compat-check", *flags, "--field", str(path)) == (
        1, "", "config error: field file invalid: field addresses '0' and '00' both name "
               "vertex '0'\n")
