"""The deterministic report of every bundled table, as a test oracle.

data/report_golden.json holds `srlab tables 1 2 3 4 5 7 8 9 11 12 --format
json` with each row's `elapsed` removed.  Regenerate it only when new
evidence changes a row, and record why in CHANGES.md:

    PYTHONPATH=src python tests/golden.py --write
"""

import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "report_golden.json")

with open(GOLDEN_PATH) as fh:
    GOLDEN_ROWS = json.load(fh)["rows"]


def report_rows(results):
    """RowResults as golden rows: every field but `elapsed`."""
    return [{k: v for k, v in r.__dict__.items() if k != "elapsed"} for r in results]


def assert_golden(results):
    """`results` are exactly the golden rows of their tables, in run order."""
    order = list(dict.fromkeys(r.table for r in results))
    want = [row for tid in order for row in GOLDEN_ROWS if row["table"] == tid]
    got = report_rows(results)
    for a, b in zip(got, want):
        assert a == b, (a, b)
    assert len(got) == len(want), (len(got), len(want))


def write_golden():
    """Rewrite the golden file from a full run of every bundled table."""
    from srlab.tables import TABLE_IDS, report_to_json, run_tables

    payload = json.loads(report_to_json(run_tables(TABLE_IDS)))
    payload["rows"] = [{k: v for k, v in r.items() if k != "elapsed"} for r in payload["rows"]]
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --write")
    write_golden()
