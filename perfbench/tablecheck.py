"""Check table rows against the manifests without trusting status strings.

The check reads the exact values a row reports in its `computed` text
(`dim=`, `d=`, `d_sr=`, and the open bounds `d_sr<=`, `d>=`) and compares
them with the values the manifest prints.  Only the three documented
discrepancies may report `mismatch`, and each of them must.  A row that
reports only an open bound must call itself budget-limited.  A pass that
raised counts every row it should have produced as failed.
"""

from __future__ import annotations

import json
import os
import re

KNOWN_MISMATCHES = {(5, "r6"), (8, "delta=13,b=1"), (9, "delta=49,b=1")}
STATUSES = {"match", "inside-bounds", "budget-limited", "mismatch"}

_EXACT = {
    "dim": re.compile(r"(?<![\w<>])dim=(\d+)"),
    "d": re.compile(r"(?<![\w<>])d=(\d+)"),
    "d_sr": re.compile(r"(?<![\w<>])d_sr=(\d+)"),
}
_DSR_UPPER = re.compile(r"d_sr<=(\d+)")
_D_LOWER = re.compile(r"(?<![\w<>])d>=(\d+)")
_FORMULA = re.compile(r"formula bounds (\d+)\.\.(\d+)")


def load_manifests(root, table_ids):
    """Expected rows, in run order, as (table id, manifest row) pairs."""
    out = []
    for tid in table_ids:
        path = os.path.join(root, "src", "srlab", "manifests", f"table{tid:02d}.json")
        with open(path) as fh:
            out.extend((tid, row) for row in json.load(fh)["rows"])
    return out


def _printed_dsr(row):
    spec = row["dsr"]
    if spec["kind"] == "exact":
        return spec["value"], spec["value"]
    return spec["lo"], spec["hi"]


def row_problems(tid, want, got):
    """Reasons the reported row `got` disagrees with manifest row `want`."""
    problems = []
    if (got.get("table"), got.get("row")) != (tid, want["id"]):
        return [f"expected row {tid}/{want['id']}, got {got.get('table')}/{got.get('row')}"]
    status = got.get("status")
    text = got.get("computed", "")
    known = (tid, want["id"]) in KNOWN_MISMATCHES
    if status not in STATUSES:
        problems.append(f"unknown status {status!r}")
    if known != (status == "mismatch"):
        problems.append(f"status {status} on a row {'with' if known else 'without'} a documented discrepancy")
    lo, hi = _printed_dsr(want) if "dsr" in want else (None, None)
    for value in map(int, _EXACT["dim"].findall(text)):
        if value != want.get("dim", 2 * want.get("t", 0)):
            problems.append(f"dim={value}, manifest {want.get('dim', 2 * want.get('t', 0))}")
    for value in map(int, _EXACT["d"].findall(text)):
        if value != want.get("d"):
            problems.append(f"d={value}, manifest d={want.get('d')}")
    for value in map(int, _EXACT["d_sr"].findall(text)):
        if lo is None or not lo <= value <= hi:
            problems.append(f"d_sr={value} outside the printed {lo}..{hi}")
    open_bounds = _DSR_UPPER.findall(text) + _D_LOWER.findall(text)
    for value in map(int, _DSR_UPPER.findall(text)):
        if lo is None or value < lo:
            problems.append(f"d_sr<={value} below the printed lower bound {lo}")
    for value in map(int, _D_LOWER.findall(text)):
        if value > want.get("d", -1):
            problems.append(f"d>={value} above the printed d={want.get('d')}")
    if open_bounds and status != "budget-limited":
        problems.append(f"only a bound was computed, but the status is {status}")
    if not known:
        for a, b in _FORMULA.findall(text):
            if lo is not None and not int(a) <= lo <= hi <= int(b):
                problems.append(f"printed {lo}..{hi} outside formula bounds {a}..{b}")
    return problems


def check_pass(expected, rows, error):
    """(attempted, failed, unsettled, messages) for one pass of run_tables."""
    if error is not None:
        return len(expected), len(expected), 0, [f"run_tables raised {error}"]
    messages = []
    failed = 0
    if len(rows) != len(expected):
        messages.append(f"{len(rows)} rows reported, {len(expected)} expected")
    for i, (tid, want) in enumerate(expected):
        problems = row_problems(tid, want, rows[i]) if i < len(rows) else ["row missing"]
        if problems:
            failed += 1
            messages.append(f"table {tid} {want['id']}: " + "; ".join(problems))
    failed += max(0, len(rows) - len(expected))  # rows the manifest does not have
    unsettled = sum(1 for r in rows if r.get("status") == "budget-limited")
    return len(expected), failed, unsettled, messages
