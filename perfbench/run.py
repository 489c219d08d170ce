"""Benchmark harness for yexp: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``sweep``, ``high_rank``,
``orbits`` and ``qtables``.  The loop is closed with one client: a single
case runs at a time, each pass of a workload in a fresh interpreter (so no
``lru_cache`` carries over), and BLAS is pinned to one thread.

A run first starts one uncounted interpreter to warm the bytecode cache, then
SETUP_RUNS interpreters that only set up, then repeats the workload in fresh
interpreters until ``--seconds`` have passed (at least once).  With
``--trace 1`` it first makes one extra traced pass and reports per-layer
metrics from it, plus the tracing overhead against the untraced passes of the
same run; otherwise it reports the end-to-end metrics.

Normalised seconds.  A shared 2-core host (the machine in baseline.json)
slows down by up to about 1.9x for seconds to minutes at a time, often on
one core only, which no amount of repetition inside a run averages out.  So
the run pins itself and its workers to one core, and while a worker runs,
this process (not the worker) times a fixed probe every PROBE_PERIOD_S in its
own CPU seconds.  Every time a worker reports is multiplied by
PROBE_REFERENCE_S over the mean probe time during that worker, giving seconds
on the host at its reference speed.  The probe runs in this process, never
in a worker, and calls no yexp code, so a change to yexp does not change it:
beside each workload its time was within 5% of its time beside a plain busy
loop (probe_check.py).  The raw wall seconds and each worker's factor
(``speed``) stay in the record.

End-to-end metrics (``--trace 0``), in normalised seconds; the operations and
cases are defined in workloads.py.

  setup_s         time from spawning an interpreter to the end of
                  ``import yexp`` and ``calibrate_reading()``; median of the
                  set-up-only interpreters and every pass's
  wall_s          a pass's work after set-up (on high_rank, the sum of its
                  cases' ``cli.main`` times, a killed case counting as the
                  whole budget); median over passes
  verify_s        sum of the cases' times, where a case that raises, fails a
                  check or is killed counts as the whole budget; median over
                  passes
  cases_verified  cases that pass every check; fewest over passes
  passed_frac     1 - failed / attempted operations over all passes (the
                  result line's ``failed`` and ``attempted``)
  peak_rss_mb     peak RSS of a pass's process (of its largest case process
                  on high_rank); median over passes

Per-layer metrics (``--trace 1``), from the traced pass, summed over its
processes: ``<layer>.<function>.calls`` and ``.s`` (inclusive) for every
function in spans.WRAPPED; ``<layer>.self_s``, span time minus the time
covered by child spans; the redundancy ratios ``.per_case`` (base:
``trace.cases``) and ``rootsys.build_root_system.hit_ratio`` (base: its
``.calls``); ``ysys.newton_fixed_point.raised``;
``spectral.checks_failed.<check>``; ``cli.process_s`` (seconds of the
high_rank case processes, spawn to exit) and ``cli.exit.<code>``;
``trace.spans``; and ``trace.overhead``, the traced pass's time over the
median untraced one, both on the cases that no pass had killed.

A high_rank case process is killed at ``workloads.CASE_BUDGET_S``, or earlier
if the run reaches RUN_LIMIT_S; either way it counts as a failed case charged
the whole budget, so a slow run still reports its result.

The last line of standard output is the result object.  Lines before it list
every metric with its unit and every failed operation.  The full record of
the run (every pass, case, failure and gate verdict) is written to
``perfbench/out/<workload>-seed<seed>-trace<trace>/result.json``.  Exit code
2 means the yexp sources are not there; 1 means the run itself failed.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7
PROBE_PERIOD_S = 0.1
# Mean probe time on the machine in baseline.json at its usual fast speed; it
# fixes the unit of the normalised seconds.
PROBE_REFERENCE_S = 1.6e-3
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no worker outlives this

WORKLOADS = ("sweep", "high_rank", "orbits", "qtables")
SPECTRAL_CHECKS = ("fixed_point", "periodicity", "jacobian_fd", "conjecture_38",
                   "lemma_vectors", "relations", "c_reduction", "csol")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s": "s",
    "cases_verified": "count",
    "passed_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".hit_ratio", ".overhead")):
        return "ratio"
    if name.endswith(".per_case"):
        return "calls/case"
    return "count"


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("YEXP_TOL_SCALE", None)
    return env


class Probe:
    """A fixed piece of work of the kinds yexp does, timed in this process's CPU seconds."""

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).uniform(size=(24, 24))

    def __call__(self):
        from fractions import Fraction

        t0 = time.thread_time()
        acc = Fraction(0)
        for i in range(1, 240):
            acc += Fraction(i, i + 7)
        x = 0
        for i in range(12000):
            x += i * i % 7
        for _ in range(80):
            self._matrix @ self._matrix
        return time.thread_time() - t0


def normalise(res, speed):
    """Turn a worker's raw seconds into normalised ones; keep the raw wall time."""
    res["speed"], res["raw_wall_s"] = speed, res.get("wall_s")
    for key in ("setup_s", "wall_s"):
        if key in res:
            res[key] *= speed
    for case in res.get("cases", ()):
        case["s"] *= speed
    for rec in (res.get("trace") or {}).get("functions", {}).values():
        rec["s"] *= speed
        rec["self_s"] *= speed
    return res


class Run:
    """One benchmark run: spawns workers and keeps their raw results."""

    def __init__(self, workload, seed, seconds, trace, params, setup_runs):
        import workloads

        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.params = params or workloads.FULL[workload]
        self.setup_runs = setup_runs
        self.budget_s = workloads.CASE_BUDGET_S
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # workers inherit it
        self.probe = Probe()
        self._jobs = 0

    def spawn(self, job, timeout=None):
        """Run one worker; return (result or None if killed, process s, peak RSS MB).

        The worker is killed after ``timeout`` seconds or at the run's deadline.
        The probe runs while it waits; the result and process s are normalised.
        """
        self._jobs += 1
        job = dict(job, out=str(self.dir / f"job{self._jobs}.json"))
        out = Path(job["out"])
        out.unlink(missing_ok=True)
        limit = self.deadline - time.monotonic()
        timeout = limit if timeout is None else min(timeout, limit)
        with open(self.dir / f"job{self._jobs}.stderr", "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job), repr(t_spawn)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            end = t_spawn + max(timeout, 0.0)
            pidfd = os.pidfd_open(proc.pid)
            probes = []
            try:
                while True:
                    wait = min(PROBE_PERIOD_S, end - time.monotonic())
                    ready, _, _ = select.select([pidfd], [], [], max(wait, 0.0))
                    if ready or time.monotonic() >= end:
                        break
                    probes.append(self.probe())
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            process_s = time.monotonic() - t_spawn
            proc.returncode = os.waitstatus_to_exitcode(status)
        if not probes:  # a worker shorter than one period: probe right after it
            probes.append(self.probe())
        speed = PROBE_REFERENCE_S * len(probes) / sum(probes)
        if not ready:
            return None, process_s * speed, usage.ru_maxrss / 1024
        if proc.returncode != 0:
            tail = (self.dir / f"job{self._jobs}.stderr").read_text()[-2000:]
            raise RuntimeError(f"worker failed with exit {proc.returncode} on {job}:\n{tail}")
        return (normalise(json.loads(out.read_text()), speed), process_s * speed,
                usage.ru_maxrss / 1024)

    def setup_samples(self):
        self.spawn({"kind": "setup"})  # warm-up: compiles bytecode, not counted
        return [self.spawn({"kind": "setup"})[0]["setup_s"] for _ in range(self.setup_runs)]

    def one_pass(self, traced):
        """One pass of the workload: its cases, times, set-up samples and trace."""
        job = {"kind": "work", "workload": self.workload, "seed": self.seed,
               "params": self.params, "trace": traced}
        if self.workload != "high_rank":
            if traced:
                job["spans"] = str(self.dir / "spans.json.gz")
            res, process_s, rss = self.spawn(job)
            if res is None:
                raise RuntimeError(f"a {self.workload} pass overran the run's {RUN_LIMIT_S} s")
            return {"wall_s": res["wall_s"], "raw_wall_s": res["raw_wall_s"],
                    "speed": res["speed"], "cases": res["cases"], "setup": [res["setup_s"]],
                    "rss_mb": rss, "process_s": 0.0, "traces": [res.get("trace")]}
        out = {"wall_s": 0.0, "cases": [], "setup": [], "rss_mb": 0.0, "process_s": 0.0,
               "traces": []}
        for name in self.params["cases"]:
            job.update(case=name, report=str(self.dir / f"verify-{name}.json"))
            if traced:
                job["spans"] = str(self.dir / f"spans-{name}.json.gz")
            res, process_s, rss = self.spawn(job, timeout=self.budget_s)
            if res is None:
                limit = (f"the run's {RUN_LIMIT_S} s limit" if time.monotonic() >= self.deadline
                         else f"the {self.budget_s} s budget")
                case = {"case": name, "s": self.budget_s, "ok": False, "killed": True,
                        "ops": 1, "failed_ops": 1, "exit": None, "gate": [],
                        "failures": [{"layer": "cli", "function": "main", "error": "Timeout",
                                      "message": f"killed at {limit} after {process_s:.1f} s"}]}
            else:
                case = dict(res["cases"][0], speed=res["speed"])
                out["setup"].append(res["setup_s"])
                out["traces"].append(res.get("trace"))
            case["process_s"] = process_s
            out["cases"].append(case)
            out["wall_s"] += case["s"]
            out["process_s"] += process_s
            out["rss_mb"] = max(out["rss_mb"], rss)
        return out

    def execute(self):
        setup = self.setup_samples()
        traced = self.one_pass(traced=True) if self.trace else None
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < self.seconds:
            passes.append(self.one_pass(traced=False))
        for p in passes + ([traced] if traced else []):
            setup += p["setup"]
        return setup, passes, traced


def charged_s(case, budget_s):
    """A case's time for verify_s: its own time, or the whole budget if it failed."""
    return case["s"] if case["ok"] else budget_s


def end_to_end(setup, passes, budget_s):
    attempted = sum(c["ops"] for p in passes for c in p["cases"])
    failed = sum(c["failed_ops"] for p in passes for c in p["cases"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "verify_s": statistics.median(sum(charged_s(c, budget_s) for c in p["cases"])
                                      for p in passes),
        "cases_verified": min(sum(c["ok"] for c in p["cases"]) for p in passes),
        "passed_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(traced, passes):
    """Per-layer metrics from the traced pass, summed over its processes."""
    from spans import FUNCTIONS, LAYERS

    funcs = {f: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0} for f in FUNCTIONS}
    hits = misses = spans = 0
    for tr in filter(None, traced["traces"]):
        for name, rec in tr["functions"].items():
            for key in funcs[name]:
                funcs[name][key] += rec[key]
        hits += tr["root_cache"]["hits"]
        misses += tr["root_cache"]["misses"]
        spans += tr["spans"]
    cases = traced["cases"]
    out = {}
    for name, rec in funcs.items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.s"] = rec["s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(rec["self_s"] for name, rec in funcs.items()
                                     if name.startswith(layer + "."))
    lookups = funcs["rootsys.build_root_system"]["calls"]
    out["rootsys.build_root_system.misses"] = misses
    out["rootsys.build_root_system.hit_ratio"] = hits / lookups if lookups else 0.0
    for name in ("quiver.build_mutation_loop", "yseed.loop_jacobian", "ysys.assemble_eta"):
        out[f"{name}.per_case"] = funcs[name]["calls"] / len(cases)
    out["ysys.newton_fixed_point.raised"] = funcs["ysys.newton_fixed_point"]["raised"]
    for check in SPECTRAL_CHECKS:
        out[f"spectral.checks_failed.{check}"] = sum(
            check in f.get("checks", {}) for c in cases for f in c["failures"]
            if f.get("layer") == "spectral")
    out["cli.process_s"] = traced["process_s"]
    for code in (0, 1, 2):
        out[f"cli.exit.{code}"] = sum(c.get("exit") == code for c in cases)
    out["trace.cases"] = len(cases)
    out["trace.spans"] = spans
    out["trace.overhead"] = tracing_overhead(traced, passes)
    return out


def tracing_overhead(traced, passes):
    """Traced time over the median untraced one, on the cases no pass had killed.

    0.0 when every case was killed in some pass.
    """
    def finished(p):
        return {c["case"]: c["s"] for c in p["cases"] if not c.get("killed")}

    done, untraced = finished(traced), [finished(p) for p in passes]
    common = done.keys() & set.intersection(*(set(u) for u in untraced))
    if not common:
        return 0.0
    return (sum(done[c] for c in common)
            / statistics.median(sum(u[c] for c in common) for u in untraced))


def measure(workload, seed, seconds, trace, params=None, setup_runs=SETUP_RUNS):
    """Make one run; return (result object, full record)."""
    run = Run(workload, seed, seconds, trace, params, setup_runs)
    setup, passes, traced = run.execute()
    if trace:
        values, units = per_layer(traced, passes), per_layer_unit
    else:
        values, units = end_to_end(setup, passes, run.budget_s), END_TO_END_UNITS.get
    gate = [g for p in passes + ([traced] if traced else []) for c in p["cases"]
            for g in c["gate"]]
    result = {
        "correct": not gate,
        "attempted": sum(c["ops"] for p in passes for c in p["cases"]),
        "failed": sum(c["failed_ops"] for p in passes for c in p["cases"]),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in values.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "params": run.params, "budget_s": run.budget_s, "setup_samples": setup,
              "passes": passes, "traced_pass": traced, "gate_violations": gate,
              "result": result}
    (run.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def describe(record):
    """Human-readable lines: every metric with its unit, then every failure."""
    lines = [f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}"]
    for name, m in record["result"]["metrics"].items():
        lines.append(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    seen = set()
    for p in record["passes"] + ([record["traced_pass"]] if record["traced_pass"] else []):
        for c in p["cases"]:
            for f in c["failures"]:
                text = f"FAIL {c['case']} {json.dumps(f, sort_keys=True)}"
                if text not in seen:
                    seen.add(text)
                    lines.append(text)
    lines += [f"GATE {g}" for g in dict.fromkeys(record["gate_violations"])]
    return lines


def use_sources():
    """Put the checkout's yexp sources on sys.path; False when they are missing."""
    if not (SRC / "yexp" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not use_sources():
        print(f"error: yexp sources not found under {SRC}", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(describe(record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
