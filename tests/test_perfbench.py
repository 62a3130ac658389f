"""The benchmark still binds to the library.

perfbench/spans.py names the library functions it times, and its word
counts read some of their arguments by name.  Its own binding check
(`perfbench/selftest.py`) runs here in a fresh interpreter, and each word
count is applied to its kernel's parameter names, so a span function that is
renamed, moved or re-signed fails the test suite, not only a benchmark run.
The requests the benchmark sends (perfbench/child.py, perfbench/codes.py)
are read the same way, from their source: every name they import from srlab
must exist, and every call to such a name must bind to its signature.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = """
import inspect, sys
sys.path.insert(0, "perfbench")
import selftest, spans
selftest.check_bindings()
from srlab import extension, prime_field
sample = {"field": extension(prime_field(2), 2), "rows": [[1, 0]], "max_msg_weight": 1}
for name, count in spans.KERNELS.items():
    params = inspect.signature(spans._original(*spans.SPANS[name])).parameters
    count({p: sample.get(p) for p in params})
print("every word count binds")
"""


def test_every_span_binds():
    proc = subprocess.run([sys.executable, "-c", CHECK], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "none missed" in proc.stdout and "every word count binds" in proc.stdout, proc.stdout


SPAN_CALLS = """
import sys
sys.path.insert(0, "perfbench")
import codes, run, spans
from srlab.tables import run_tables
workload = sys.argv[1]
tracer = spans.Tracer()
spans.install(tracer)
assert not spans.unpatched(tracer)
if run.WORKLOADS[workload] is None:  # codes-seeded: one pass of seed 1's requests
    for req in codes.generate(1):
        codes.execute(codes.wire(req))
else:
    run_tables(run.WORKLOADS[workload])
# tables.row is opened by child.py's RowResult hooks, which this run lacks
idle = [name for name, loads in spans.EXPECTED.items()
        if workload in loads and name != spans.ROW_SPAN and not tracer.records[name].calls]
print("spans without calls:", idle)
"""


@pytest.mark.parametrize("workload", ["tables-bch", "tables-selfdual", "codes-seeded"])
def test_every_expected_span_records_calls(workload):
    # a traced benchmark run calls itself incorrect when a span listed for its
    # workload records no call; the table workloads are one run_tables each and
    # codes-seeded one pass of its requests, so the same check runs here (a
    # change that routes the generic requests off the walker spans fails it)
    proc = subprocess.run([sys.executable, "-c", SPAN_CALLS, workload], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "spans without calls: []" in proc.stdout, proc.stdout


def _srlab_calls(path):
    """Each call in a file to a name it imports from srlab, or to an
    attribute of an imported srlab module, as (name, target, call)."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "srlab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                # a submodule is imported by the statement, so it may not be
                # an attribute yet; a missing name raises either way
                names[alias.asname or alias.name] = (
                    getattr(module, alias.name) if hasattr(module, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in names:
            calls.append((fn.id, names[fn.id], node))
        elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
              and inspect.ismodule(names.get(fn.value.id))):
            module = names[fn.value.id]
            assert hasattr(module, fn.attr), f"{path}: no {module.__name__}.{fn.attr}"
            calls.append((fn.attr, getattr(module, fn.attr), node))
    return calls


def test_benchmark_requests_bind():
    bench = os.path.join(ROOT, "perfbench")
    called = set()
    for fname in ("child.py", "codes.py"):
        for name, target, call in _srlab_calls(os.path.join(bench, fname)):
            try:
                inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                raise AssertionError(f"{fname}:{call.lineno} {name}: {exc}") from None
            called.add(name)
    # the calls that carry every workload's requests were found and bound
    assert {"run_tables", "qpoly_code", "pair_distance", "basis_expand_code",
            "symbol_sum_rank_weight", "sr_code_from_obj", "code_from_obj",
            "BlockProfile", "duality_transport_qpoly", "duality_transport_expansion"} <= called
