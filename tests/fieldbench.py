"""Wall time of the field layer's fixed costs in a fresh interpreter.

A `srlab tables` process builds the BCH splitting fields GF(4^6) and
GF(4^10), their moduli and the root tables from nothing.  This script times
each of these steps alone, in an interpreter of its own, after `srlab` is
imported and GF(4) and what the step reads are built (none of that timed):

- `smallest_irreducible(GF(4), 10)`, the modulus search (Ben-Or tests);
- `extension(GF(4), 6)` and `extension(GF(4), 10)`, modulus, primitive
  element and (for GF(4^6)) log tables;
- `cyclic._root_digits(GF(4), 205)`, the 205 powers of the root in GF(4^10),
  once that field and root are built;
- `bch_generator(GF(4), 205, 33, 1)`, the minimal polynomials and their
  product, once the root's powers are tabulated.

Every step runs `--rounds` times, each in a new process.  With several
`--src` trees the runs alternate between them, round by round, and each
step's printed result must be the same on every tree.  One JSON object goes
to stdout: per tree and step the milliseconds of each run, their best and
median.

    python tests/fieldbench.py [--rounds 11] [--src SRC_DIR ...]

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

# step: (untimed set-up, timed expression)
STEPS = {
    "smallest_irreducible(GF(4), 10)": ("None", "str(poly.smallest_irreducible(F4, 10))"),
    "extension(GF(4), 6)": ("None", "field.extension(F4, 6).primitive_element"),
    "extension(GF(4), 10)": ("None", "field.extension(F4, 10).primitive_element"),
    "cyclic._root_digits(GF(4), 205)": ("cyclic.splitting_root(F4, 205)",
                                        "cyclic._root_digits(F4, 205).sum()"),
    "bch_generator(GF(4), 205, 33, 1)": ("cyclic._root_digits(F4, 205)",
                                         "str(cyclic.bch_generator(F4, 205, 33, 1))"),
}

_CHILD = """
import time
from srlab import cyclic, field, poly
F4 = field.extension(field.prime_field(2), 2)
{setup}
start = time.perf_counter()
result = {expr}
print(1000 * (time.perf_counter() - start), result)
"""


def _run(src: str, setup: str, expr: str):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(setup=setup, expr=expr)],
                          capture_output=True, text=True, env=env, check=True)
    ms, result = proc.stdout.split(" ", 1)
    return float(ms), result.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--src", action="append",
                        help="a tree's src directory; repeat to alternate between trees")
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(HERE, os.pardir, "src")]]
    ms = {src: {step: [] for step in STEPS} for src in srcs}
    results = {}
    for r in range(args.rounds):
        for src in srcs[r % len(srcs):] + srcs[:r % len(srcs)]:
            for step, (setup, expr) in STEPS.items():
                t, result = _run(src, setup, expr)
                if results.setdefault(step, result) != result:
                    sys.exit(f"{step}: {src} gave {result!r}, not {results[step]!r}")
                ms[src][step].append(t)
    print(json.dumps({
        "rounds": args.rounds,
        "results": {step: r[:80] for step, r in results.items()},
        "trees": {src: {step: {"best": min(s), "median": statistics.median(s), "runs": s}
                        for step, s in by_step.items()}
                  for src, by_step in ms.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
