"""Self-test of the span wrappers.

    python3 perfbench/selftest.py

Run from the root of a checkout.  First, in this process: every binding of
every span is wrapped (including the `srlab` package re-exports and the
`from .x import y` copies), a call through any binding is counted once, and
BudgetExceeded reaches the caller unchanged with its words counted.  Then one
traced run of each workload, which fails unless every span that spans.EXPECTED
names for that workload recorded calls.  Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(msg):
    print(f"selftest: FAIL {msg}")
    sys.exit(1)


def check_bindings():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import spans

    tracer = spans.Tracer()
    patched = spans.install(tracer)
    missed = spans.unpatched(tracer)
    if missed:
        _fail("unwrapped bindings: " + ", ".join(missed))

    import srlab
    from srlab import cli, construct, tables
    from srlab.errors import BudgetExceeded
    from srlab.linalg import MatrixGF

    if not (srlab.pair_distance is construct.pair_distance is tables.pair_distance
            is cli.pair_distance is not tracer.originals["construct.pair_distance"]):
        _fail("pair_distance bindings are not all the same wrapper")
    if MatrixGF.__dict__["rref"] is tracer.originals["linalg.MatrixGF.rref"]:
        _fail("MatrixGF.rref is not wrapped")

    f4 = srlab.extension(srlab.prime_field(2), 2)
    c = srlab.LinearCode.from_rows(f4, 6, [[1, 1, 0, 0, 1, 2], [0, 1, 1, 3, 0, 1]])
    for fn in (srlab.pair_distance, construct.pair_distance, tables.pair_distance):
        fn(c, c)
    rec = tracer.records
    if rec["construct.pair_distance"].calls != 3:
        _fail(f"3 pair_distance calls recorded as {rec['construct.pair_distance'].calls}")
    try:
        c.min_distance(budget=1)
    except BudgetExceeded as exc:
        if type(exc) is not BudgetExceeded or rec["wordenum.min_weight_char2"].words != exc.enumerated:
            _fail("BudgetExceeded changed or its words were not counted")
    else:
        _fail("a budget of 1 word did not raise BudgetExceeded")
    if rec["code.LinearCode.min_distance"].budget_hits != 1:
        _fail("the budget hit was not counted")
    if not tracer.stack == []:
        _fail("span stack not empty after the calls returned")
    print(f"selftest: {patched} bindings wrapped, none missed")


def check_workloads():
    for workload in ("tables-bch", "tables-selfdual", "codes-seeded"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            _fail(f"{workload}: exit {proc.returncode}: {proc.stderr[-1000:]}")
        if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            _fail(f"{workload}: traced run not correct: {proc.stderr[-1000:]}")
        print(f"selftest: {workload} traced run correct, every expected span called")


if __name__ == "__main__":
    check_bindings()
    check_workloads()
    print("selftest: ok")
