"""One timed pass of one workload, in a fresh interpreter.

Reads a job from stdin: {"workload", "trace", "setup_only", "requests"}.
Writes one JSON object to stdout.  The checkout's `src` directory must be
the first entry of PYTHONPATH; the pass refuses to run against any other
copy of srlab.  Set-up (importing srlab, building GF(2) and GF(4), loading
the table manifests) is timed first, then the workload pass, with jobs=1 and
one request at a time.

Every timing runs on a calib.Calibration's clock and is reported in
reference seconds (see calib.py); `raw_wall_s` keeps the pass's wall-clock
seconds.
"""

import json
import os
import resource
import sys

import calib


def main():
    job = json.load(sys.stdin)
    cal = calib.Calibration()
    cal.start()
    t0 = cal.clock()
    import srlab
    from srlab import extension, prime_field
    from srlab.tables import TABLE_IDS, load_manifest

    extension(prime_field(2), 2)
    for tid in TABLE_IDS:
        load_manifest(tid)
    t1 = cal.clock()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(srlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"srlab was imported from {srlab.__file__}, not from {src}")
    res = None if job["setup_only"] else run_pass(job, cal)
    cal.stop()
    out = {"setup_s": (t1 - t0) * cal.scale(t0, t1)}
    if res is not None:
        out.update(_to_reference(res, cal))
    out["peak_rss_mb"] = _peak_rss_mb()
    json.dump(out, sys.stdout)


def _peak_rss_mb():
    """High-water resident set of this interpreter.

    ru_maxrss would also count the benchmark parent, whose resident set the
    child inherits at fork; VmHWM belongs to the image started by exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _to_reference(res, cal):
    """Scale a pass's clock intervals to reference seconds."""
    start, end = res.pop("span")
    factor = cal.scale(start, end)
    out = {"wall_s": (end - start) * factor, "raw_wall_s": end - start,
           "latencies_s": [(b - a) * cal.scale(a, b) for a, b in res.pop("intervals")]}
    out.update(res)
    tracer = out.pop("tracer", None)
    if tracer is not None:
        out["layers"] = tracer.metrics(factor)
        out["uncovered_s"] = out["wall_s"] - factor * tracer.self_total()
    return out


def run_pass(job, cal):
    import spans

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer(clock=cal.clock)
        spans.install(tracer)
        missed = spans.unpatched(tracer)
        if missed:
            raise SystemExit("span wrappers missed bindings: " + ", ".join(missed))
    if job["workload"] == "codes-seeded":
        res = _codes_pass(job["requests"], cal.clock)
    else:
        res = _tables_pass(job["table_ids"], tracer, cal.clock)
    res["tracer"] = tracer
    return res


def _tables_pass(table_ids, tracer, clock):
    """One run_tables call: the pass's single request.

    When traced, each RowResult closes one `tables.row` span and opens the
    next; the first opens when run_tables is called.
    """
    from srlab import tables

    init = tables.RowResult.__init__
    if tracer is not None:
        def row_end(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.next_row()

        tables.RowResult.__init__ = row_end
        tracer.open_row()
    results, error = [], None
    start = clock()
    try:
        results = tables.run_tables(table_ids, jobs=1)
    except Exception as exc:  # reported as failed rows, never as a crash
        error = f"{type(exc).__name__}: {exc}"
    end = clock()
    if tracer is not None:
        tables.RowResult.__init__ = init
        if error is None:
            tracer.drop_row()
    rows = [{k: v for k, v in r.__dict__.items() if k != "elapsed"} for r in results]
    return {"span": (start, end), "intervals": [(start, end)], "rows": rows, "error": error}


def _codes_pass(requests, clock):
    import codes  # only now: it imports numpy, which set-up must include

    answers, intervals = [], []
    start = clock()
    for req in requests:
        t = clock()
        try:
            answer = codes.execute(req)
        except Exception as exc:  # a failed request counts as failed, not fatal
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        intervals.append((t, clock()))
        answers.append(json.dumps(answer))  # a string adds nothing for the GC to walk
    return {"span": (start, clock()), "intervals": intervals, "answers": answers}


if __name__ == "__main__":
    main()
