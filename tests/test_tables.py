import json
import re

import pytest

from golden import GOLDEN_ROWS, assert_golden
from srlab import tables
from srlab.construct import default_expansion_profile, symbol_sum_rank_weight
from srlab.errors import NegativeBudget, UnknownTable, UsageError
from srlab.sumrank import BlockProfile
from srlab.tables import (
    TABLE_IDS,
    load_manifest,
    report_exit_code,
    report_to_csv,
    report_to_json,
    run_tables,
)


def test_manifest_loading():
    for tid in TABLE_IDS:
        m = load_manifest(tid)
        assert m["table"] == tid
        assert m["rows"]
    with pytest.raises(UnknownTable):
        load_manifest(6)
    with pytest.raises(UnknownTable):
        run_tables([10])


def test_every_manifest_code_spec_is_a_kind_the_runner_builds():
    # a stale or misspelt spec kind fails here, not inside a table run
    ctx = tables._Ctx(tables.DEFAULT_TABLE_WORD_BUDGET)
    kinds = set()
    for tid in TABLE_IDS:
        for row in load_manifest(tid)["rows"]:
            specs = [row[key] for key in ("code", "c0", "c1") if key in row]
            specs += [row] if "bch" in row or "gen" in row else []
            for spec in specs:
                key, code = ctx.code_from_spec(spec)
                assert code.n == (spec["bch"][1] if "bch" in spec else spec["n"]), (tid, row["id"])
                kinds.add(key[0])
    assert kinds == {"bch", "gen", "rows"}
    with pytest.raises(UnknownTable):
        ctx.code_from_spec({"search_best_selfdual": {"n": 4}})


def test_a_negative_budget_is_refused_before_any_row():
    # table 2 runs no budgeted search, so only an up-front check refuses it
    for ids in ([2], [1], [2, 10]):
        with pytest.raises(NegativeBudget):
            run_tables(ids, word_budget=-4)


def test_table2_all_match():
    res = run_tables([2])
    assert_golden(res)
    assert [r.status for r in res] == ["match"] * 3
    assert report_exit_code(res) == 0


def test_table8_flags_known_dimension_discrepancy():
    res = run_tables([8])
    assert_golden(res)
    by_row = {r.row: r for r in res}
    assert by_row["delta=2,b=1"].status == "inside-bounds"
    assert by_row["delta=3,b=0"].status == "inside-bounds"
    flagged = by_row["delta=13,b=1"]
    assert flagged.status == "mismatch"
    assert "known discrepancy" in flagged.note
    assert "d_sr=6" in flagged.computed
    assert report_exit_code(res) == 3


def test_table9_d_sr_equals_the_least_symbol_weight():
    # a small code's expansion d_sr is the least span-based sum-rank weight of
    # its GF(4) codewords; the expansion's search keeps its own budget, so a
    # word budget of 10 leaves the rows as they are
    res = run_tables([9], word_budget=10)
    assert_golden(res)
    reported = {r.row: int(m.group(1)) for r in res
                for m in [re.search(r"d_sr=(\d+)", r.computed)] if m}
    ctx = tables._Ctx(tables.DEFAULT_TABLE_WORD_BUDGET)
    least = {}
    for row in load_manifest(9)["rows"]:
        _, c = ctx.code_from_spec(row)
        if c.k <= 5:
            profile = BlockProfile(ctx.f2, default_expansion_profile(2, c.n))
            least[row["id"]] = min(symbol_sum_rank_weight(w, ctx.f4, profile)
                                   for w in c.codewords() if any(w))
    assert reported == least
    assert sorted(least.values()) == [102, 142]


def test_table1_formula_rows():
    res = run_tables([1])
    assert_golden(res)
    assert all(r.status == "match" for r in res)
    assert report_exit_code(res) == 0


def test_report_formats():
    res = run_tables([2])
    assert_golden(res)
    payload = json.loads(report_to_json(res))
    assert payload["exit_code"] == 0
    assert payload["summary"]["match"] == 3
    csv_text = report_to_csv(res)
    assert csv_text.splitlines()[0] == "table,row,status,expected,computed,note"


def test_tables_run_in_one_thread():
    with pytest.raises(UsageError):
        run_tables([2], jobs=2)


def test_each_known_discrepancy_is_stated_once():
    # the failure text names the discrepancy and no note repeats it; table 8
    # runs here, and test_c09 ties the table 5 and 9 rows to the golden file
    notes = {(row["table"], row["row"]): row["note"] for row in GOLDEN_ROWS}
    notes.update(((r.table, r.row), r.note) for r in run_tables([8]))
    known = {(tid, row["id"]): row["known_discrepancy"] for tid in (5, 8, 9)
             for row in load_manifest(tid)["rows"] if "known_discrepancy" in row}
    assert set(known) == {(5, "r6"), (8, "delta=13,b=1"), (9, "delta=49,b=1")}
    for key, text in known.items():
        assert notes[key].count(text) == 1, notes[key]
        assert notes[key].count("known discrepancy: ") == 1, notes[key]
        assert notes[key].endswith("known discrepancy: " + text), notes[key]


def test_tiny_budgets_give_budget_limited_rows():
    # budgets far below the codes' sizes: every exact search falls back to
    # its budget-limited evidence instead of aborting the run
    res = run_tables([2, 3, 7, 8], word_budget=10)
    assert len(res) == 30
    assert report_exit_code(res) == 3
    assert [(r.table, r.row) for r in res if r.status == "mismatch"] == [(8, "delta=13,b=1")]
    limited = {r.table for r in res if r.status == "budget-limited"}
    assert {3, 7, 8} <= limited


def test_a_scan_that_finds_a_word_at_its_depth_settles_d_h():
    # a word budget of 10 sends every d_H to the low-weight scan,
    # which lists every codeword through the printed weight
    res = run_tables([2], word_budget=10)
    assert [r.status for r in res] == ["match"] * 3
    assert_golden(res)


def test_pair_rows_settle_when_the_found_weight_meets_the_formula():
    # over the word budget, d_sr lies between the formula lower bound and the
    # lightest weight found; where the two meet the row is exact.  Rows that
    # the one-sided bound 2 min d_H settles cross no pair and stay in budget
    full = {r.row: r for r in run_tables([3])}
    res = {r.row: r for r in run_tables([3], word_budget=10)}
    for row in ("r1", "r2", "r5"):
        assert (res[row].status, res[row].computed) == (full[row].status, full[row].computed)
        assert "d_sr=" in res[row].computed
        assert "meets the formula lower bound" in res[row].note, res[row]
    for row in ("r3", "r6", "r7", "r8", "r9"):
        assert res[row].status == "match" and res[row].note == "", res[row]
        assert res[row].computed == full[row].computed and "d_sr=" in res[row].computed
    assert res["r4"].status == "budget-limited", res["r4"]
    assert res["r4"].computed.endswith("d_sr<=10")
    assert report_exit_code(list(res.values())) == 2


def test_over_budget_d_h_witnesses_are_codewords():
    # past the word budget d_H comes from the window certificate, whose
    # witness is a codeword of exactly the certified weight
    ctx = tables._Ctx(tables.DEFAULT_TABLE_WORD_BUDGET)
    over = set()
    for tid in (11, 12):
        for row in load_manifest(tid)["rows"]:
            for text in row["generators"]:
                spec = {"gen": text, "n": row.get("n", row["t"])}
                code, h = ctx.hamming(tables._RowScratch(), spec, row["d_hamming"], text)
                if code.field.order**code.k > ctx.word_budget:
                    over.add((spec["n"], text))
                    assert (h.lo, h.hi) == (row["d_hamming"],) * 2, (text, h)
                    assert code.contains(h.witness)
                    assert sum(1 for v in h.witness if v) == h.hi
    assert {n for n, _ in over} == {26, 28, 30}


def _table_hamming_specs(ctx):
    """(spec, printed d_H) of every code whose d_H tables 2, 3, 4, 8, 11 and
    12 check."""
    for tid in (2, 4, 8):
        for row in load_manifest(tid)["rows"]:
            if row.get("d_check", "exact") == "exact":
                yield row, ctx.printed_d(row)
    for row in load_manifest(3)["rows"]:
        yield from ((row[c], ctx.printed_d(row[c])) for c in ("c0", "c1"))
    for tid in (11, 12):
        for row in load_manifest(tid)["rows"]:
            for text in row["generators"]:
                yield {"gen": text, "n": row.get("n", row["t"])}, row["d_hamming"]


def test_d_h_by_certificate_equals_the_exhaustive_search():
    # within the word budget d_H is exhaustive only where a certificate would
    # list the whole code anyway; every code that a certificate settles
    # instead has the exhaustive value
    ctx = tables._Ctx(tables.DEFAULT_TABLE_WORD_BUDGET)
    certified = set()
    for spec, printed in _table_hamming_specs(ctx):
        code, h = ctx.hamming(tables._RowScratch(), spec, printed, "the code")
        if code.field.order**code.k <= ctx.word_budget:
            assert (h.lo, h.hi) == (code.min_distance(),) * 2, (spec, h)
            if "certified" in h.note:
                certified.add(code)
    assert len(certified) >= 10  # 11 of the 27 codes in budget


def test_only_two_by_two_expansions_reach_the_certificate(monkeypatch):
    # table 8 expands length 13 into a (2,3) block and (2,2) blocks, where the
    # (2,2) weight would be wrong; table 7 t=2 is all (2,2) and over budget
    calls = []
    real = tables.uniform22_certified_distance
    monkeypatch.setattr(tables, "uniform22_certified_distance",
                        lambda c, budget: calls.append(c.n) or real(c, budget))
    run_tables([8], word_budget=10)
    assert calls == []
    run_tables([7], word_budget=10)
    assert calls == [4]
