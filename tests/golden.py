"""The deterministic report of every bundled table, as a test oracle.

data/report_golden.json is byte for byte the output of `srlab tables 1 2 3 4
5 7 8 9 11 12 --format json`.  List what a change moves, one line per field
as `table row field: old -> new` (exit status 1 if anything differs):

    PYTHONPATH=src python tests/golden.py --diff

Regenerate it only when new evidence changes a row, and record why in
CHANGES.md:

    PYTHONPATH=src python tests/golden.py --write
"""

import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "report_golden.json")

with open(GOLDEN_PATH) as fh:
    GOLDEN_ROWS = json.load(fh)["rows"]


def assert_golden(results):
    """`results` are exactly the golden rows of their tables, in run order."""
    order = list(dict.fromkeys(r.table for r in results))
    want = [row for tid in order for row in GOLDEN_ROWS if row["table"] == tid]
    got = [r.__dict__ for r in results]
    for a, b in zip(got, want):
        assert a == b, (a, b)
    assert len(got) == len(want), (len(got), len(want))


def full_report() -> str:
    """The JSON report of every bundled table, as the golden file holds it."""
    from srlab.tables import TABLE_IDS, report_to_json, run_tables

    return report_to_json(run_tables(TABLE_IDS)) + "\n"


def diff_golden(report: dict) -> list:
    """`table row field: old -> new` for every field of a report row that
    differs from the golden file (a row on one side only reads null on the
    other), then `key: old -> new` for the report's other keys; values are
    JSON."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    old, new = ({(r["table"], r["row"]): r for r in rep["rows"]} for rep in (golden, report))
    lines = []
    for key in {**old, **new}:
        a, b = old.get(key, {}), new.get(key, {})
        lines += [f"{key[0]} {key[1]} {f}: {json.dumps(a.get(f))} -> {json.dumps(b.get(f))}"
                  for f in {**a, **b} if a.get(f) != b.get(f)]
    lines += [f"{k}: {json.dumps(golden.get(k))} -> {json.dumps(report.get(k))}"
              for k in {**golden, **report} if k != "rows" and golden.get(k) != report.get(k)]
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(GOLDEN_PATH, "w") as fh:
            fh.write(full_report())
    elif sys.argv[1:] == ["--diff"]:
        lines = diff_golden(json.loads(full_report()))
        for line in lines:
            print(line)
        sys.exit(1 if lines else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --write | --diff")
