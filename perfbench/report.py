"""Run every workload the way the benchmark is driven and print every metric.

Usage (from the repository root):

    python3 perfbench/report.py [--runs N] [--workloads sweep,orbits] [--out FILE]

For each workload this makes N untraced runs (seeds 0..N-1) and one traced
run (seed 0), each as ``python3 perfbench/run.py ...`` in its own process,
exactly as BENCHMARK.json's command.  It prints every end-to-end metric with
its unit, median and quartile spread (IQR / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), then every
per-layer metric of the traced run and its tracing overhead.  With ``--out``
it also writes all of that, with a description of the machine, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, trace):
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(BENCHMARK["run_seconds"]),
                                  "--trace", str(trace)]
    proc = subprocess.run([sys.executable] + cmd[1:], cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines[:-1] if ln.startswith(("FAIL", "GATE"))]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def machine():
    import mpmath
    import numpy

    model = next((ln.split(":", 1)[1].strip() for ln in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if ln.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1"}


def report(workload, runs):
    print(f"# {workload}: {runs} untraced run(s), seeds 0..{runs - 1}; one traced run, seed 0")
    results = [one_run(workload, seed, 0) for seed in range(runs)]
    out = {"seeds": list(range(runs)), "end_to_end": {}, "failures": results[0][1],
           "correct": all(r["correct"] for r, _ in results),
           "attempted": results[0][0]["attempted"], "failed": results[0][0]["failed"]}
    for m in BENCHMARK["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r, _ in results]
        row = {"median": statistics.median(values), "unit": m["unit"], "values": values}
        if runs >= 2:
            row["spread"] = spread(values)
        out["end_to_end"][m["name"]] = row
        extra = f"  spread {row['spread']:.4f} (bound {m['bound']})" if runs >= 2 else ""
        print(f"{m['name']:48s} {row['median']:>14.6g} {m['unit']}{extra}")
    traced, failures = one_run(workload, 0, 1)
    out["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
    for name, m in traced["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"correct={out['correct']} attempted={out['attempted']} failed={out['failed']}")
    for line in dict.fromkeys(out["failures"] + failures):
        print(line)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    info = machine()
    print(json.dumps(info))
    data = {"machine": info, "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        data["workloads"][workload] = report(workload, args.runs)
    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
