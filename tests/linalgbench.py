"""Per-call time of `MatrixGF` and its code-level callers, in fresh interpreters.

The library requests of the `codes-seeded` benchmark workload read codes
from JSON rows (`LinearCode.from_rows`), take duals and hull dimensions.
This script times those three calls at the workload's shapes, GF(4) 8 x 64
and 10 x 80, GF(2) 24 x 200 and GF(3) 12 x 150, and three tiny matrices
(a GF(2) 2 x 4 rref, a GF(4) 2 x 4 kernel and a GF(4) 4 x 8 Gram matrix),
where numpy's per-call cost is largest against the work.

Each step runs in an interpreter of its own, after `srlab` is imported and
random inputs are built (seeded, the same on every tree) and one warm-up
call has filled the field tables, none of that timed.  The step then times
`--reps` batches of `--calls` calls, each call on an input of its own (a
hull dimension is kept on its code), and prints the best batch's time per
call.  With several `--src` trees the runs alternate between them, round by
round, and each step's printed result (a sum over the batch: dimensions,
ranks, entries) must be the same on every tree.  One JSON object goes to
stdout: per tree and step the microseconds per call of each round, their
best and median.

    python tests/linalgbench.py [--rounds 5] [--reps 5] [--calls 200] [--src SRC_DIR ...]

`--src` defaults to this checkout's `src`.  It is not part of the test
suite: it starts `15 * rounds` interpreters per tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

FIELDS = {2: "prime_field(2)", 3: "prime_field(3)", 4: "extension(prime_field(2), 2)"}


def _code_steps():
    """from_rows, dual and hull_dimension at the codes-seeded shapes."""
    for q, k, n in ((4, 8, 64), (4, 10, 80), (2, 24, 200), (3, 12, 150)):
        code = f"LinearCode.from_rows(F, {n}, rows({k}, {n}))"
        yield (f"from_rows GF({q}) {k}x{n}", q, f"rows({k}, {n})",
               f"LinearCode.from_rows(F, {n}, x)", "y.k")
        yield f"dual GF({q}) {k}x{n}", q, code, "x.dual()", "y.k"
        yield f"hull_dimension GF({q}) {k}x{n}", q, code, "x.hull_dimension()", "y"


# step: (field order, input built per call, timed call on x, summary of its result y)
STEPS = {name: rest for name, *rest in _code_steps()}
STEPS.update({
    "rref GF(2) 2x4": (2, "MatrixGF(F, rows(2, 4))", "x.rref()", "y.nrows"),
    "kernel_basis GF(4) 2x4": (4, "MatrixGF(F, rows(2, 4))", "x.kernel_basis()", "y.nrows"),
    "gram GF(4) 4x8": (4, "MatrixGF(F, rows(4, 8))", "x.gram()", "sum(map(sum, y.rows))"),
})

_CHILD = """
import random
import time
from srlab import LinearCode, MatrixGF, extension, prime_field
F = {field}
rnd = random.Random(1)

def rows(k, n):
    return [[rnd.randrange(F.order) for _ in range(n)] for _ in range(k)]

batches = [[{make} for _ in range({calls})] for _ in range({reps})]
x = {make}
{call}  # warm-up
best = float("inf")
for batch in batches:
    start = time.perf_counter()
    out = [{call} for x in batch]
    best = min(best, (time.perf_counter() - start) / len(batch))
print(1e6 * best, sum({summary} for y in out))
"""


def _run(src, q, make, call, summary, reps, calls):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = _CHILD.format(field=FIELDS[q], make=make, call=call, summary=summary,
                         reps=reps, calls=calls)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    us, result = proc.stdout.split(" ", 1)
    return float(us), result.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--src", action="append",
                        help="a tree's src directory; repeat to alternate between trees")
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(HERE, os.pardir, "src")]]
    us = {src: {step: [] for step in STEPS} for src in srcs}
    results = {}
    for r in range(args.rounds):
        for src in srcs[r % len(srcs):] + srcs[:r % len(srcs)]:
            for step, spec in STEPS.items():
                t, result = _run(src, *spec, args.reps, args.calls)
                if results.setdefault(step, result) != result:
                    sys.exit(f"{step}: {src} gave {result!r}, not {results[step]!r}")
                us[src][step].append(t)
    print(json.dumps({
        "rounds": args.rounds,
        "reps": args.reps,
        "calls": args.calls,
        "results": results,
        "trees": {src: {step: {"best": min(s), "median": statistics.median(s), "runs": s}
                        for step, s in by_step.items()}
                  for src, by_step in us.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
