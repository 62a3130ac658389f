"""The benchmark's span table still binds to the library.

perfbench/spans.py names the library functions it times, and its word
counts read some of their arguments by name.  Its own binding check
(`perfbench/selftest.py`) runs here in a fresh interpreter, and each word
count is applied to its kernel's parameter names, so a span function that is
renamed, moved or re-signed fails the test suite, not only a benchmark run.
"""

import os
import subprocess
import sys

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
