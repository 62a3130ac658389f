"""srlab benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload tables-bch --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports srlab from `src/` there and
nowhere else.  Every pass runs in a fresh interpreter (child.py) with
jobs=1, because a command-line user pays for field towers and cache fills on
every invocation.  Passes start while the next one is expected to end within
`--seconds`, and at least one runs.  Set-up is timed in every pass and in
set-up-only interpreters run before each pass, and reported as the median.
Every time is in reference seconds: wall-clock seconds scaled by the speed
of a fixed calibration burst run between the program's steps (calib.py).

With `--trace 0` the last line carries the end-to-end metrics, measured with
no tracing.  With `--trace 1` untraced and traced passes alternate and the
last line carries the per-layer metrics of the traced passes (see spans.py),
with `trace.overhead_frac` from the wall times of the two kinds of pass.
Outputs are checked outside the timed region: table rows against the
manifests (tablecheck.py), library requests against brute-force references
(codes.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import codes
import spans
import tablecheck

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    # field/poly/cyclic heavy: BCH codes over GF(4) with splitting fields
    # GF(4^6) and GF(4^10); the enumeration kernels do almost no work
    "tables-bch": [2, 3, 4, 5, 8, 9],
    # enumeration heavy: self-dual GF(4) codes from printed generators; holds
    # 9 of the 11 budget-limited rows of the full table run
    "tables-selfdual": [1, 7, 11, 12],
    # many small complete library requests through jsonio (codes.py)
    "codes-seeded": None,
}
SETUP_PROBES_PER_PASS = 2  # set-up-only interpreters before each pass
MIN_SETUPS = 11  # set-up samples per run, topped up after the last pass
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _child(root, job, deadline):
    """Run child.py once; returns its JSON output or an error string."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # an installed srlab has bytecode caches, so set-up should not recompile
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=root, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return "pass did not finish before the run's time limit"
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout)


def _quantile(passes, pct):
    """Percentile over requests of each request's median latency over passes.

    Every pass of a run sends the same requests in the same order.  One
    request's latency moves by 10-15% between passes (the host's speed
    varies at the millisecond scale too), and the requests around the
    median differ in cost by only a few percent, so a single pass's
    percentile moves by up to 10%.  The median over passes of each
    request's latency removes most of that noise.  A table pass is a single
    request (one run_tables call), so there this is the median pass time.
    """
    per_request = [statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in passes))]
    if len(per_request) == 1:
        return per_request[0]
    return statistics.quantiles(per_request, n=100)[pct - 1]


class Checker:
    """Checks every pass's outputs and keeps the counts for the result line."""

    def __init__(self, root, workload, requests):
        self.requests = requests
        self.expected = None
        if requests is None:
            self.expected = tablecheck.load_manifests(root, WORKLOADS[workload])
        self.attempted = 0
        self.failed = 0
        self.unsettled = 0
        self.messages = []
        self._checked_answers = None

    def items(self):
        return len(self.requests) if self.requests is not None else len(self.expected)

    def add(self, out):
        if isinstance(out, str):
            self.attempted += self.items()
            self.failed += self.items()
            self.messages.append(out)
            return
        if self.requests is None:
            a, f, u, msgs = tablecheck.check_pass(self.expected, out["rows"], out["error"])
        else:
            a, f, u, msgs = self._check_answers(out["answers"])
        self.attempted += a
        self.failed += f
        self.unsettled += u
        self.messages.extend(msgs)

    def _check_answers(self, answers):
        # every pass sends the same requests: a pass whose answers equal an
        # already verified set needs no second brute-force check
        if answers == self._checked_answers:
            return len(answers), 0, 0, []
        bad = [i for i, (req, ans) in enumerate(zip(self.requests, answers))
               if not codes.check(req, json.loads(ans))]
        bad += list(range(len(answers), len(self.requests)))
        if not bad:
            self._checked_answers = answers
        msgs = [f"request {i} ({self.requests[i]['kind']} {self.requests[i]['shape']}): "
                f"{answers[i] if i < len(answers) else 'missing'}" for i in bad[:10]]
        return len(self.requests), len(bad), 0, msgs


def run(root, workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    requests = wire = None
    if workload == "codes-seeded":
        requests = codes.generate(seed)
        wire = [codes.wire(r) for r in requests]
    job = {"workload": workload, "table_ids": WORKLOADS[workload], "requests": wire,
           "setup_only": True, "trace": 0}
    checker = Checker(root, workload, requests)

    def setup_probe():
        out = _child(root, job, deadline)
        if isinstance(out, str):
            raise SystemExit(f"set-up failed: {out}")
        return out["setup_s"]

    setup_probe()  # the first interpreter also writes the bytecode caches
    setups = []
    kinds = [0, 1] if trace else [0]
    passes = {0: [], 1: []}
    measure_start = time.monotonic()
    # Start passes while the next one is expected to end within --seconds;
    # at least one runs.  Set-up probes are spread over the run so that they
    # see the same machine conditions as the passes.  Outputs are checked
    # after the last pass, so that checking takes no measuring time.
    outs = []
    failed = False
    while not failed:
        setups += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        for kind in kinds:
            out = _child(root, dict(job, setup_only=False, trace=kind), deadline)
            outs.append(out)
            failed = isinstance(out, str)  # a failed pass ends the run
            if failed:
                break
            passes[kind].append(out)
            setups.append(out["setup_s"])
        elapsed = time.monotonic() - measure_start
        if failed or elapsed * (len(passes[0]) + 1) / len(passes[0]) > seconds:
            break
    while not failed and len(setups) < MIN_SETUPS:
        setups.append(setup_probe())
    for out in outs:
        checker.add(out)

    result = {"correct": checker.failed == 0 and all(passes[k] for k in kinds),
              "attempted": max(1, checker.attempted), "failed": checker.failed, "metrics": {}}
    untraced, traced = passes[0], passes[1]
    if not untraced:
        return result, checker, None
    wall = statistics.median(p["wall_s"] for p in untraced)
    unsettled_frac = checker.unsettled / max(1, checker.attempted)
    fail_frac = checker.failed / max(1, checker.attempted)
    raw_wall = statistics.median(p["raw_wall_s"] for p in untraced)
    info = {"passes": len(untraced), "latency_samples_per_pass": len(untraced[0]["latencies_s"]),
            "setup_samples": len(setups), "raw_wall_s": raw_wall,
            "speed": raw_wall / wall,  # wall-clock seconds per reference second
            "rows_unsettled": round(unsettled_frac * checker.items()), "fail_frac": fail_frac}
    if not trace:
        e2e = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "request_p50_ms": (1000 * _quantile(untraced, 50), "ms"),
            "request_p95_ms": (1000 * _quantile(untraced, 95), "ms"),
            "settled_frac": (1 - unsettled_frac, "frac"),
            "ok_frac": (1 - fail_frac, "frac"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
        }
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        return result, checker, info
    if not traced:
        return result, checker, info
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    for name, expected_on in spans.EXPECTED.items():
        if workload in expected_on and layers[f"{name}.calls"] == 0:
            result["correct"] = False
            checker.messages.append(f"span {name} recorded no calls on {workload}")
    info["traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    layers["trace.overhead_frac"] = info["traced_wall_s"] / wall - 1
    layers["trace.uncovered_s"] = statistics.median(p["uncovered_s"] for p in traced)
    result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    return result, checker, info


def _layer_unit(name):
    for suffix, unit in ((".calls", "count"), (".self_s", "s"), (".words_per_s", "1/s"),
                         (".words", "count"), ("_frac", "frac"), (".yield", "frac"),
                         (".uncovered_s", "s")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "srlab", "__init__.py")):
        print(f"no srlab sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    result, checker, info = run(root, args.workload, args.seed, args.seconds, args.trace)
    for msg in checker.messages[:20]:
        print(f"check: {msg}", file=sys.stderr)
    if info:
        print(f"{args.workload}: " + ", ".join(f"{k}={v:.6g}" for k, v in info.items()))
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
