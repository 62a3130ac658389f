"""The deterministic report of every bundled table, as a test oracle.

data/report_golden.json is byte for byte the output of `srlab tables 1 2 3 4
5 7 8 9 11 12 --format json`.  Regenerate it only when new evidence changes a
row, and record why in CHANGES.md:

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


def write_golden():
    """Rewrite the golden file from a full run of every bundled table."""
    from srlab.tables import TABLE_IDS, report_to_json, run_tables

    with open(GOLDEN_PATH, "w") as fh:
        fh.write(report_to_json(run_tables(TABLE_IDS)) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --write")
    write_golden()
