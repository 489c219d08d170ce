"""One fresh interpreter: set up yexp, run one job, write its result as JSON.

Usage: python3 perfbench/worker.py JOB_JSON SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import yexp`` and ``calibrate_reading()``.  Nothing else
is imported before that point.  Times are raw ``perf_counter`` seconds; the
parent (run.py) turns them into normalised seconds.
"""

import sys
import time


def setup():
    import yexp
    import yexp.cli  # noqa: F401  (high_rank drives the CLI)

    yexp.calibrate_reading()


def main(job_json, setup_s):
    import json
    import types

    import workloads
    from spans import Tracer

    job = json.loads(job_json)
    result = {"setup_s": setup_s}
    if job["kind"] == "work":
        tracer = Tracer() if job["trace"] else types.SimpleNamespace(case=None)
        if job["trace"]:
            tracer.install()
        t0 = time.perf_counter()
        if job["workload"] == "high_rank":
            cases = [workloads.high_rank_case(job["case"], job["seed"], job["report"], tracer)]
        else:
            cases = workloads.PASSES[job["workload"]](job["seed"], job["params"], tracer)
        result.update(cases=cases, wall_s=time.perf_counter() - t0)
        if job["trace"]:
            result["trace"] = tracer.summary()
            tracer.dump(job["spans"])
    with open(job["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    setup()
    main(sys.argv[1], time.monotonic() - float(sys.argv[2]))
