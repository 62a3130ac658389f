import io
import json
import os
import subprocess
import sys
import time

import pytest
from golden import GOLDEN_PATH
from hypothesis import HealthCheck, given, settings, strategies as st

import srlab
from srlab.cli import main
from srlab.construct import pair_distance
from srlab.errors import NegativeBudget
from srlab.jsonio import code_from_obj, code_to_obj, dumps, field_from_obj, field_to_obj
from srlab.field import extension, prime_field
from srlab.cyclic import bch_generator, cyclic_code


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_field_info(capsys):
    rc, out, _ = run_cli(capsys, "field", "info", "--characteristic", "2", "--degrees", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["order"] == 4 and obj["tower"] == [[2, [1, 1, 1]]]


def test_cyclic_bch_and_code_roundtrip(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--bch", "2", "1")
    assert rc == 0
    obj = json.loads(out)
    assert len(obj["generator"]) == 7
    path = tmp_path / "c.json"
    path.write_text(out)

    rc, out2, _ = run_cli(capsys, "code", "mindist", str(path))
    assert rc == 0 and json.loads(out2) == {"d": 5, "exact": True}

    rc, out3, _ = run_cli(capsys, "code", "info", str(path))
    assert rc == 0
    info = json.loads(out3)
    assert info["k"] == 7 and info["lcd"] is True and info["selfdual"] is False

    # a designed distance past n adds no exponents, and must not walk them all
    rc, huge, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--bch", "100000000", "1")
    assert rc == 0
    assert huge == run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--bch", "14", "1")[1]


def test_cyclic_gen_selfdual(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "2", "--gen", "1+x")
    assert rc == 0
    path = tmp_path / "sd.json"
    path.write_text(out)
    rc, out2, _ = run_cli(capsys, "code", "selfdual", str(path))
    assert rc == 0 and json.loads(out2) == {"selfdual": True}
    rc, out3, _ = run_cli(capsys, "code", "dual", str(path))
    assert rc == 0
    assert json.loads(out3)["generator"] == json.loads(out)["generator"]


def test_code_dual_prints_plain_json(capsys, tmp_path):
    f4 = extension(prime_field(2), 2)
    from srlab.code import LinearCode

    c = LinearCode.from_rows(f4, 6, [[1, 2, 3, 0, 1, 2], [0, 1, 1, 3, 2, 2]])
    p = tmp_path / "c.json"
    p.write_text(dumps(code_to_obj(c)))
    rc, out, _ = run_cli(capsys, "code", "dual", str(p))
    assert rc == 0
    assert out == dumps(json.loads(out)) + "\n"
    gen = json.loads(out)["generator"]
    assert len(gen) == 4 and all(type(e) is int for row in gen for e in row)


def test_code_dual_of_zero(capsys, tmp_path, monkeypatch):
    f4 = extension(prime_field(2), 2)
    from srlab.code import LinearCode

    z = LinearCode.zero(f4, 3)
    p = tmp_path / "z.json"
    p.write_text(dumps(code_to_obj(z)))
    rc, out, _ = run_cli(capsys, "code", "dual", str(p))
    assert rc == 0
    assert len(json.loads(out)["generator"]) == 3  # full space


def test_sr_pipeline(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "2", "--gen", "1+x")
    c = tmp_path / "c212.json"
    c.write_text(out)
    rc, out, _ = run_cli(capsys, "sr", "construct-sr", str(c), str(c))
    assert rc == 0
    sr = tmp_path / "sr.json"
    sr.write_text(out)
    rc, out, _ = run_cli(capsys, "sr", "info", str(sr))
    info = json.loads(out)
    assert info["dim"] == 4 and info["selfdual"] is True
    rc, out, _ = run_cli(capsys, "sr", "mindist", str(sr))
    assert rc == 0 and json.loads(out) == {"d": 2, "exact": True}
    rc, out, _ = run_cli(capsys, "sr", "mindist", str(c), str(c))
    assert rc == 0 and json.loads(out) == {"d": 2, "exact": True}


def test_sr_matb_profile_flag(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--bch", "13", "1")
    c = tmp_path / "c.json"
    c.write_text(out)
    rc, out, _ = run_cli(
        capsys, "sr", "construct-matb", str(c), "--basis", "w,w^2",
        "--profile", "2x3,2x2*5",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["blocks"] == [[2, 3]] + [[2, 2]] * 5
    assert len(obj["generator"]) == 2


def test_empty_basis_and_profile_are_usage_errors(tmp_path, capsys):
    # an empty value is an argument given, not the default left in place
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--bch", "13", "1")
    c = tmp_path / "c.json"
    c.write_text(out)
    for argv in (("construct-matb", str(c), "--profile", ""),
                 ("construct-matb", str(c), "--basis", ""),
                 ("construct-matb", str(c), "--basis", " "),
                 ("construct-sr", str(c), str(c), "--basis", "")):
        rc, out, err = run_cli(capsys, "sr", *argv)
        assert_input_error(rc, out, err)
        assert "--basis" in err or "profile part ''" in err, (argv, err)


def test_sr_bounds(capsys):
    rc, out, _ = run_cli(capsys, "sr", "bounds", "--theorem23", "2", "5", "13")
    assert rc == 0 and json.loads(out) == {"lower": 10, "upper": 10, "exact": True}
    rc, out, _ = run_cli(capsys, "sr", "bounds", "--cor32", "5", "13")
    assert json.loads(out)["lower"] == 3


def test_sr_verify_duality(capsys):
    rc, out, _ = run_cli(capsys, "sr", "verify-duality", "--kind", "sr",
                         "--trials", "10", "--seed", "1")
    assert rc == 0 and json.loads(out)["failures"] == 0
    rc, out, _ = run_cli(capsys, "sr", "verify-duality", "--kind", "matb",
                         "--trials", "10", "--seed", "1")
    assert rc == 0 and json.loads(out)["failures"] == 0


def test_mindist_budget_exit_code(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--bch", "2", "1")
    c = tmp_path / "c.json"
    c.write_text(out)
    rc, out, _ = run_cli(capsys, "code", "mindist", str(c), "--budget", "64")
    assert rc == 2
    assert json.loads(out)["exact"] is False
    # the pair distance takes the same budget, counted in support-class pairs
    code = code_from_obj(json.loads(c.read_text()))
    rc, out, _ = run_cli(capsys, "sr", "mindist", str(c), str(c), "--budget", "10")
    obj = json.loads(out)
    assert rc == 2 and obj["exact"] is False and obj["enumerated"] == 10
    assert obj["d"] >= pair_distance(code, code)
    # and runs no threads, so any other --jobs is a usage error
    rc, out, err = run_cli(capsys, "sr", "mindist", str(c), str(c), "--jobs", "7")
    assert_input_error(rc, out, err)
    assert "--jobs 7" in err


def test_walker_budget_counts_messages(tmp_path, capsys):
    # a GF(3) code takes the array walker, a GF(4) code the packed one: the
    # budget counts messages from the zero one on, and a cut search prints the
    # lightest word it saw
    f4 = extension(prime_field(2), 2)
    g4 = code_to_obj(code_from_obj({"q_tower": field_to_obj(f4), "n": 4,
                                    "generator": [[1, 2, 0, 1]]}))
    g3 = {"q_tower": {"characteristic": 3, "tower": []}, "n": 4, "generator": [[1, 2, 0, 1]]}
    for obj, total in ((g3, "3"), (g4, "4")):
        c = tmp_path / "c.json"
        c.write_text(json.dumps(obj))
        for budget, want in (("2", '{"d":3,"enumerated":2,"exact":false}'),
                             ("0", '{"d":null,"enumerated":0,"exact":false}')):
            rc, out, _ = run_cli(capsys, "code", "mindist", str(c), "--budget", budget)
            assert (rc, out.strip()) == (2, want), total
        rc, out, _ = run_cli(capsys, "code", "mindist", str(c), "--budget", total)
        assert (rc, out.strip()) == (0, '{"d":3,"exact":true}')


def test_usage_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "code", "info", str(bad))
    assert rc == 1 and err
    rc, _, err = run_cli(capsys, "cyclic", "--q", "4", "--n", "6", "--bch", "2", "0")
    assert rc == 1  # gcd(4, 6) != 1
    # fields above 2^32 elements are refused before any search
    assert_input_error(*run_cli(capsys, "field", "info", "--degrees", "2,100000"))
    assert_input_error(*run_cli(capsys, "field", "info", "--characteristic", str(2**61 - 1)))
    # argparse errors exit 1 too; exit 2 is reserved for a budget that ran out
    assert_input_error(*run_cli(capsys, "tables", "2", "--format", "xml"))
    assert_input_error(*run_cli(capsys, "code", "frob"))
    assert_input_error(*run_cli(capsys, "tables", "2", "--budget", "x"))
    assert_input_error(*run_cli(capsys, "tables", "x"))
    assert_input_error(*run_cli(capsys, "field", "info", "--degrees", "2,x"))
    assert_input_error(*run_cli(capsys, "sr", "bounds", "--cor32", "a", "3"))
    assert_input_error(*run_cli(capsys, "sr", "bounds", "--prop38", "x", "2x2"))
    # polynomial text the parser cannot read is a named error
    for text in ("1+y", "(x+1", ""):
        assert_input_error(*run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--gen", text))
    # sr actions check how many JSON inputs they got
    assert_input_error(*run_cli(capsys, "sr", "construct-matb"))
    assert_input_error(*run_cli(capsys, "sr", "construct-sr", "--basis", "1,w"))
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "13", "--bch", "13", "1")
    c = tmp_path / "c.json"
    c.write_text(out)
    assert_input_error(*run_cli(capsys, "sr", "construct-matb", str(c), "--profile", "2x"))
    # a negative count is refused, not read as an empty profile
    rc, out, err = run_cli(capsys, "sr", "bounds", "--prop38", "5", "2x2*-1")
    assert_input_error(rc, out, err)
    assert "2x2*-1" in err


def test_cyclic_lengths_are_bounded(capsys):
    # lengths and exponents above MAX_CYCLIC_LENGTH are refused before any
    # O(n) allocation
    for args in (["--n", "1000000007", "--bch", "2", "1"],
                 ["--n", "1000000007", "--gen", "1+x"],
                 ["--n", "13", "--gen", "x^1000000000+1"]):
        t0 = time.time()
        rc, out, err = run_cli(capsys, "cyclic", "--q", "4", *args)
        assert time.time() - t0 < 1.0
        assert_input_error(rc, out, err)
        assert "exceeds the bound 4096" in err


def test_nonpositive_cyclic_lengths_are_named_errors(capsys):
    # x^0 - 1 is built as 1 and a negative exponent has no polynomial, so
    # the length is refused before either is formed
    for n in ("0", "-3"):
        rc, out, err = run_cli(capsys, "cyclic", "--q", "4", "--n", n, "--gen", "1")
        assert_input_error(rc, out, err)
        assert "n must be positive" in err


def test_outside_lengths_are_bounded(tmp_path, capsys):
    # a length read from JSON or from a profile argument is refused before
    # any work or allocation proportional to it
    f2 = {"characteristic": 2, "tower": []}
    objs = [("code", "info", {"q_tower": f2, "n": 1000000000, "generator": []}),
            ("code", "dual", {"q_tower": f2, "n": 100000, "generator": []}),
            ("sr", "info", {"q_tower": f2, "blocks": [[1, 1000000000]], "generator": []})]
    cases = []
    for i, (cmd, action, obj) in enumerate(objs):
        p = tmp_path / f"long{i}.json"
        p.write_text(json.dumps(obj))
        cases.append((cmd, action, str(p)))
    cases.append(("sr", "bounds", "--prop38", "5", "2x2*1000000000"))
    for argv in cases:
        t0 = time.time()
        rc, out, err = run_cli(capsys, *argv)
        assert time.time() - t0 < 1.0
        assert_input_error(rc, out, err)
        assert "exceeds the bound 4096" in err
    assert code_from_obj({"q_tower": f2, "n": 4096, "generator": []}).n == 4096


def test_overlong_integers_are_named_errors(tmp_path, capsys, monkeypatch):
    # integer literals past int()'s 4300-digit limit, from arguments and JSON
    nines = "9" * 5000
    text = '{"q_tower": {"characteristic": 2, "tower": []}, "n": %s, "generator": []}' % nines
    p = tmp_path / "long.json"
    p.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    cases = [("sr", "bounds", "--prop38", "5", f"2x2*{nines}"),
             ("sr", "bounds", "--prop38", "5", f"{nines}x2"),
             ("sr", "bounds", "--prop38", nines, "2x2"),
             ("cyclic", "--q", "4", "--n", "2", "--gen", f"x^{nines}+1"),
             ("code", "info", str(p)),
             ("code", "info")]  # stdin
    for argv in cases:
        t0 = time.time()
        rc, out, err = run_cli(capsys, *argv)
        assert time.time() - t0 < 1.0
        assert_input_error(rc, out, err)
        assert len(err) < 200
    rc, out, _ = run_cli(capsys, "sr", "bounds", "--prop38", "5", "2x2*3")
    assert rc == 0


def test_deeply_nested_json_is_a_named_error(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    for i, text in enumerate((deep, '{"q_tower": %s, "n": 1, "generator": []}' % deep)):
        p = tmp_path / f"deep{i}.json"
        p.write_text(text)
        rc, out, err = run_cli(capsys, "code", "info", str(p))
        assert_input_error(rc, out, err)
        assert "nested too deeply" in err


def test_method_pairs_rejects_non_f4(tmp_path, capsys):
    f8 = extension(prime_field(2), 3)
    from srlab.code import LinearCode

    c = LinearCode.from_rows(f8, 2, [[1, 1]])
    p = tmp_path / "c8.json"
    p.write_text(dumps(code_to_obj(c)))
    rc, _, err = run_cli(capsys, "sr", "mindist", str(p), str(p))
    assert rc == 1


def test_verbs_declare_their_own_arguments(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "2", "--gen", "1+x")
    c = tmp_path / "c.json"
    c.write_text(out)
    rc, out, _ = run_cli(capsys, "sr", "construct-sr", str(c), str(c))
    sr = tmp_path / "sr.json"
    sr.write_text(out)
    # two inputs are two linear codes: their pair distance, no flag needed
    code = code_from_obj(json.loads(c.read_text()))
    rc, out, _ = run_cli(capsys, "sr", "mindist", str(c), str(c))
    assert rc == 0 and json.loads(out) == {"d": pair_distance(code, code), "exact": True}
    # an option the verb does not take, a wrong input count, no bound formula
    # or two are usage errors that point at the verb's own help
    for argv in (["sr", "info", str(sr), "--trials", "3"],
                 ["sr", "info", str(sr), "--trials", "3", "--theorem23", "1", "--basis", "w"],
                 ["code", "info", str(c), "--budget", "5"],
                 ["code", "info", str(c), "--budget", "5", "--jobs", "9"],
                 ["code", "dual", str(c), "--pair-budget", "5"],
                 ["sr", "mindist", str(c), str(c), "--pair-budget", "5"],
                 ["sr", "mindist", str(sr), "--method", "pairs"],
                 ["sr", "mindist", str(c), str(c), str(c)],
                 ["sr", "construct-matb", str(c), str(c)],
                 ["sr", "verify-duality", str(c)],
                 ["sr", "bounds"],
                 ["sr", "bounds", "--cor32", "5", "13", "--theorem23", "2", "5", "13"]):
        rc, out, err = run_cli(capsys, *argv)
        assert_input_error(rc, out, err)
        assert f"(see srlab {argv[0]} {argv[1]} --help)" in err
    rc, out, err = run_cli(capsys, "sr", "info", str(sr), "--trials", "3")
    assert "unrecognized arguments: --trials 3 (see srlab sr info --help)" in err
    # every code and sr verb has its own parser
    verbs = ["info", "dual", "selfdual", "lcd", "mindist"]
    for argv in ([["code", v] for v in verbs]
                 + [["sr", v] for v in verbs + ["construct-sr", "construct-matb", "bounds",
                                                 "verify-duality"]]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert f"usage: srlab {' '.join(argv)}" in capsys.readouterr().out


def test_json_roundtrip_bit_identical(tmp_path, capsys):
    f4 = extension(prime_field(2), 2)
    code = cyclic_code(bch_generator(f4, 13, 3, 0), 13)
    obj = code_to_obj(code)
    text = dumps(obj)
    again = code_from_obj(json.loads(text))
    assert dumps(code_to_obj(again)) == text
    f = field_from_obj(field_to_obj(f4))
    assert f is f4  # cached singleton


def test_tables_cli(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    rc, _, _ = run_cli(capsys, "tables", "2", "--format", "csv", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("table,row,status")
    assert len(lines) == 4
    rc, _, err = run_cli(capsys, "tables", "6")
    assert rc == 1  # no manifest for table 6
    rc, out, err = run_cli(capsys, "tables", "2", "--pair-budget", "5")
    assert_input_error(rc, out, err)
    assert "unrecognized arguments: --pair-budget 5" in err


def test_full_report_is_the_golden_file(tmp_path, capsys):
    # the whole report, summary and formatting included, byte for byte on
    # stdout and in the --out file
    with open(GOLDEN_PATH, "rb") as fh:
        golden = fh.read()
    argv = ["tables", "1", "2", "3", "4", "5", "7", "8", "9", "11", "12", "--format", "json"]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 3 and out.encode() == golden
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert rc == 3 and out == "" and path.read_bytes() == golden


F4_TOWER = {"characteristic": 2, "tower": [[2, [1, 1, 1]]]}


def assert_input_error(rc, out, err):
    """Exit 1 through a named SrlabError: no traceback, no generic fallback."""
    assert rc == 1 and out == ""
    assert err.startswith("srlab: ") and "bad input" not in err and "Traceback" not in err


def test_negative_budget_is_a_named_error(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "2", "--gen", "1+x")
    c = tmp_path / "c.json"
    c.write_text(out)
    rc, out, _ = run_cli(capsys, "sr", "construct-sr", str(c), str(c))
    sr = tmp_path / "sr.json"
    sr.write_text(out)
    assert_input_error(*run_cli(capsys, "code", "mindist", str(c), "--budget", "-5"))
    assert_input_error(*run_cli(capsys, "sr", "mindist", str(sr), "--budget", "-5"))
    assert_input_error(*run_cli(capsys, "sr", "mindist", str(c), str(c), "--budget", "-5"))
    code = code_from_obj(json.loads(c.read_text()))
    with pytest.raises(NegativeBudget):
        code.min_distance(budget=-5)
    with pytest.raises(NegativeBudget):
        pair_distance(code, code, budget=-5)
    with pytest.raises(NegativeBudget):
        code.certified_distance(budget=-5)


def test_counts_below_their_least_are_usage_errors(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "cyclic", "--q", "4", "--n", "2", "--gen", "1+x")
    c = tmp_path / "c.json"
    c.write_text(out)
    rc, out, _ = run_cli(capsys, "sr", "construct-sr", str(c), str(c))
    sr = tmp_path / "sr.json"
    sr.write_text(out)
    # every search runs in one thread: no verb takes --jobs
    rc, out, err = run_cli(capsys, "tables", "2", "--jobs", "2")
    assert_input_error(rc, out, err)
    assert "unrecognized arguments: --jobs 2" in err
    rc, out, err = run_cli(capsys, "sr", "verify-duality", "--trials", "-1")
    assert_input_error(rc, out, err)
    assert "--trials: must be at least 0" in err
    rc, out, _ = run_cli(capsys, "sr", "verify-duality", "--trials", "0")
    assert rc == 0 and json.loads(out)["trials"] == 0
    # a table with no budgeted search refuses a negative budget as one that has
    for table in ("1", "2"):
        assert_input_error(*run_cli(capsys, "tables", table, "--budget", "-4"))
    for argv in (["0"], ["-1"], ["0", "5"]):
        assert_input_error(*run_cli(capsys, "sr", "bounds", "--theorem23", *argv))


def test_pairs_on_codes_longer_than_64(tmp_path, capsys):
    from srlab.code import LinearCode

    c = LinearCode.from_rows(extension(prime_field(2), 2), 70, [[1] * 70])
    p = tmp_path / "c70.json"
    p.write_text(dumps(code_to_obj(c)))
    assert_input_error(*run_cli(capsys, "sr", "mindist", str(p), str(p)))


def test_code_entries_outside_the_field(tmp_path, capsys):
    gf4 = tmp_path / "gf4.json"
    gf4.write_text(json.dumps({"q_tower": F4_TOWER, "n": 3, "generator": [[1, 7, 0]]}))
    assert_input_error(*run_cli(capsys, "code", "info", str(gf4)))
    assert_input_error(*run_cli(capsys, "code", "mindist", str(gf4)))
    gf3 = tmp_path / "gf3.json"
    gf3.write_text(json.dumps({"q_tower": {"characteristic": 3, "tower": []}, "n": 2,
                               "generator": [[1, -1]]}))
    assert_input_error(*run_cli(capsys, "code", "mindist", str(gf3)))


def test_sum_rank_entries_outside_the_field(tmp_path, capsys):
    sr2 = tmp_path / "sr2.json"
    sr2.write_text(json.dumps({"q_tower": {"characteristic": 2, "tower": []},
                               "blocks": [[1, 2]], "generator": [[1, 3]]}))
    assert_input_error(*run_cli(capsys, "sr", "mindist", str(sr2)))


def test_top_level_json_must_be_an_object(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1, 2, 3]")
    assert_input_error(*run_cli(capsys, "code", "info", str(p)))
    assert_input_error(*run_cli(capsys, "sr", "info", str(p)))
    code = {"q_tower": F4_TOWER, "n": 2, "generator": [[1, 1]]}
    sr = {"q_tower": F4_TOWER, "blocks": [[1, 2]], "generator": [[1, 1]]}
    bad_codes = [
        {**code, "q_tower": []},
        {**code, "q_tower": {"characteristic": 2, "tower": [5]}},
        {**code, "q_tower": {"characteristic": 2, "tower": [[2.5, [1, 1, 1]]]}},
        {**code, "q_tower": {"characteristic": 2, "tower": [[2, [1, 1, 7]]]}},
        {**code, "generator": 5},
        {**code, "generator": [5]},
        {**code, "generator": [[1, 1.5]]},
        {**code, "generator": [[1, True]]},
        {**code, "generator": [[1, "1"]]},
        {**code, "n": -1},
        {**code, "n": 2.0},
        {k: v for k, v in code.items() if k != "n"},
        {k: v for k, v in code.items() if k != "q_tower"},
        {**code, "q_tower": {"characteristic": 1000000000000000003, "tower": []},
         "n": 1, "generator": [[1]]},
    ]
    bad_srs = [
        {**sr, "blocks": 3},
        {**sr, "blocks": [[1, 2, 3]]},
        {**sr, "blocks": [[1, 2.0]]},
        {**sr, "generator": [[1, False]]},
        {k: v for k, v in sr.items() if k != "blocks"},
    ]
    for i, (action, obj) in enumerate([("code", o) for o in bad_codes]
                                      + [("sr", o) for o in bad_srs]):
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps(obj))
        assert_input_error(*run_cli(capsys, action, "info", str(p)))
    p.write_text('{"n": 2,')
    assert_input_error(*run_cli(capsys, "code", "info", str(p)))


_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                       st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=2))
_json = st.recursive(_json_leaf, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=8)
_valid_wire = st.fixed_dictionaries({
    "q_tower": st.sampled_from([F4_TOWER, {"characteristic": 2}, {"characteristic": 3}]),
    "n": st.integers(-1, 4),
    "generator": st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=3),
    "blocks": st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), max_size=3),
})


def _slots(value):
    """Every (container, key) inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _wire(draw):
    """A well-shaped code or sum-rank code object with one value replaced or one key
    dropped, so the fuzz reaches every level of the wire format."""
    obj = json.loads(json.dumps(draw(_valid_wire)))  # a copy: F4_TOWER is shared
    container, key = draw(st.sampled_from(list(_slots(obj))))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(_json)
    return obj


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(obj=_wire() | st.dictionaries(st.text(max_size=3), _json, max_size=4),
       action=st.sampled_from(["code", "sr"]))
def test_wire_input_fuzz(tmp_path, capsys, obj, action):
    """Any JSON object: a result, or exit 1 through a named error."""
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, action, "info", str(p))
    if rc != 0:
        assert_input_error(rc, out, err)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srlab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "srlab", "field", "info"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["order"] == 2
