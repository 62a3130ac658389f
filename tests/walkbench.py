"""Per-call time of the packed enumeration kernels, in fresh interpreters.

The exhaustive packed walk (`wordenum.codeword_chunks` under `_walk_min`)
and the low-weight lister (`wordenum.low_weight_blocks`) do most of the
work of the tables' self-dual rows and of the `codes-seeded` benchmark
workload's distance requests.  This script times five calls on them:

- `min_weight_char2` on a GF(4) [64, 8], a GF(4) [40, 7] and a GF(2)
  [64, 16] code, the Hamming walk;
- `sr_min_weight_packed` on a GF(4) [30, 8] symbol code in ten (2, 3)
  blocks, the sum-rank walk of symbols;
- `low_weight_min_char2` at message weight 5 under the (2,2) block-rank
  weight (`construct._pair_ranks`) on a GF(4) [30, 15] code, the lister.

Each step runs in an interpreter of its own, after `srlab` is imported and
its seeded random code is built (the same on every tree) and one warm-up
call has built the kernel's tables, none of that timed.  The step then
times `--reps` batches of `--calls` calls on that code and prints the best
batch's time per call.  With several `--src` trees the runs alternate
between them, round by round, and each step's printed result (the weight
found) must be the same on every tree.  One JSON object goes to stdout:
per tree and step the microseconds per call of each round, their best and
median.

    python tests/walkbench.py [--rounds 5] [--reps 5] [--calls 20] [--src SRC_DIR ...]

`--src` defaults to this checkout's `src`.  It is not part of the test
suite: it starts `5 * rounds` interpreters per tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

FIELDS = {2: "prime_field(2)", 4: "extension(prime_field(2), 2)"}
BUDGET = 1 << 40  # past every code's size: the walks run whole

# step: (field order, (n, k) of the random code, timed call on its rref
# generator array x)
STEPS = {
    "min_weight_char2 GF(4) [64,8]": (4, (64, 8), f"wordenum.min_weight_char2(F, x, 64, {BUDGET})"),
    "min_weight_char2 GF(4) [40,7]": (4, (40, 7), f"wordenum.min_weight_char2(F, x, 40, {BUDGET})"),
    "min_weight_char2 GF(2) [64,16]": (2, (64, 16), f"wordenum.min_weight_char2(F, x, 64, {BUDGET})"),
    "sr_min_weight_packed GF(4) [30,8] (2,3)x10":
        (4, (30, 8), f"wordenum.sr_min_weight_packed(F, x, [(2, 3)] * 10, {BUDGET})"),
    "low_weight_min_char2 (2,2) GF(4) [30,15] weight 5":
        (4, (30, 15), "wordenum.low_weight_min_char2(F, x, 30, 5, weight, 5)[0]"),
}

_CHILD = """
import random
import time
from srlab import LinearCode, extension, prime_field, wordenum
from srlab.construct import _pair_ranks
F = {field}
rnd = random.Random(1)
n, k = {shape}
x = LinearCode.from_rows(F, n, [[rnd.randrange(F.order) for _ in range(n)]
                                for _ in range(k)]).generator._array()
weight = _pair_ranks(n) if n % 2 == 0 else None
y = {call}  # warm-up
best = float("inf")
for _ in range({reps}):
    start = time.perf_counter()
    for _ in range({calls}):
        y = {call}
    best = min(best, (time.perf_counter() - start) / {calls})
print(1e6 * best, y)
"""


def _run(src, q, shape, call, reps, calls):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = _CHILD.format(field=FIELDS[q], shape=shape, call=call, reps=reps, calls=calls)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    us, result = proc.stdout.split(" ", 1)
    return float(us), result.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--calls", type=int, default=20)
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
