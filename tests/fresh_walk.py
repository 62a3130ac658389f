"""Wall time of the exhaustive packed walk in a fresh interpreter.

Each `srlab` command runs in an interpreter of its own, so a walk pays for
every first allocation itself.  This script times two such commands on
seeded codes of 2**24 codewords each, the default budget:

- `srlab sr mindist` of a GF(2) sum-rank code of twelve (2,2) blocks and
  dimension 24 (`sr_min_weight_packed`);
- `srlab code mindist` of a GF(4) [24, 12] code (`min_weight_char2`).

Every command runs `--rounds` times in a new process, interpreter start and
imports included.  With several `--src` trees the runs alternate between
them, round by round, and the stdout of one command must be the same on
every tree.  One JSON object goes to stdout: per tree and command the
seconds of each run, their best and median.

    python tests/fresh_walk.py [--rounds 11] [--src SRC_DIR ...]

`--src` defaults to this checkout's `src`.  It is not part of the test
suite: it takes about a second per process.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _codes(src: str):
    """JSON texts of the two seeded codes, built through `src`'s srlab."""
    sys.path.insert(0, src)
    from srlab.code import LinearCode
    from srlab.field import extension, prime_field
    from srlab.jsonio import code_to_obj, dumps, sr_code_to_obj
    from srlab.sumrank import BlockProfile, SumRankCode

    f2 = prime_field(2)
    f4 = extension(f2, 2)
    rnd = random.Random(2024)
    while True:
        profile = BlockProfile(f2, [(2, 2)] * 12)
        sr = SumRankCode.from_rows(profile, [[rnd.randrange(2) for _ in range(48)]
                                             for _ in range(24)])
        if sr.dim == 24:
            break
    while True:
        code = LinearCode.from_rows(f4, 24, [[rnd.randrange(4) for _ in range(24)]
                                             for _ in range(12)])
        if code.k == 12:
            break
    return {"sr mindist": dumps(sr_code_to_obj(sr)), "code mindist": dumps(code_to_obj(code))}


def _run(src: str, verb: str, path: str):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "srlab", *verb.split(), path],
                          capture_output=True, text=True, env=env, check=True)
    return time.perf_counter() - start, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--src", action="append",
                        help="a tree's src directory; repeat to alternate between trees")
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(HERE, os.pardir, "src")]]
    seconds = {src: {verb: [] for verb in ("sr mindist", "code mindist")} for src in srcs}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for verb, text in _codes(srcs[0]).items():
            paths[verb] = os.path.join(tmp, verb.split()[0] + ".json")
            with open(paths[verb], "w") as fh:
                fh.write(text)
        for r in range(args.rounds):
            for src in srcs[r % len(srcs):] + srcs[:r % len(srcs)]:
                for verb, path in paths.items():
                    wall, out = _run(src, verb, path)
                    if outputs.setdefault(verb, out) != out:
                        sys.exit(f"{verb}: {src} printed {out!r}, not {outputs[verb]!r}")
                    seconds[src][verb].append(wall)
    print(json.dumps({
        "rounds": args.rounds,
        "stdout": outputs,
        "trees": {src: {verb: {"best": min(s), "median": statistics.median(s), "runs": s}
                        for verb, s in by_verb.items()}
                  for src, by_verb in seconds.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
