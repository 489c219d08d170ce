"""Check that the speed probe of run.py does not depend on the workload beside it.

Usage (from the repository root):  python3 perfbench/probe_check.py [ROUNDS]

Each round starts one child per workload, and one that only spins in a
plain loop, each busy for CHILD_S seconds on the core the harness uses, in
an order that rotates from round to round.  While a child runs, this process
times the probe exactly as run.py does.  It prints, per workload, the probe's
mean time beside that workload over its time beside the spinning child in
the same round: median and quartiles over the rounds.  A median near 1 means
the normalised seconds do not depend on what yexp is doing.
"""

import os
import select
import statistics
import subprocess
import sys
import time
import types

import run

CHILD_S = 2.0
SMALL = {
    "sweep": {"rank_max": 6, "periodicity_points": 5, "samples": 32},
    "orbits": {"ranks": [8, 12], "points": 2},
    "qtables": {"cases": ["B6", "C6"]},
}
KINDS = ("spin",) + tuple(SMALL)
SKIP_PROBES = 5  # the child's interpreter start and imports


def child(kind):
    import workloads

    tracer = types.SimpleNamespace(case=None)
    t0 = time.perf_counter()
    x = 0
    while time.perf_counter() - t0 < CHILD_S:
        if kind == "spin":
            x += 1
        else:
            workloads.PASSES[kind](0, SMALL[kind], tracer)


def probe_beside(kind, probe, env):
    proc = subprocess.Popen([sys.executable, __file__, "--child", kind], env=env)
    pidfd = os.pidfd_open(proc.pid)
    times = []
    try:
        while not select.select([pidfd], [], [], run.PROBE_PERIOD_S)[0]:
            times.append(probe())
    finally:
        os.close(pidfd)
    if proc.wait() != 0:
        raise RuntimeError(f"{kind} child failed")
    return statistics.mean(times[SKIP_PROBES:])


def main(rounds):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe, env = run.Probe(), run.child_env()
    ratios = {kind: [] for kind in SMALL}
    for r in range(rounds):
        order = KINDS[r % len(KINDS):] + KINDS[:r % len(KINDS)]
        times = {kind: probe_beside(kind, probe, env) for kind in order}
        for kind in SMALL:
            ratios[kind].append(times[kind] / times["spin"])
    for kind, values in ratios.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{kind:8s} probe beside it / beside spin: median {statistics.median(values):.4f}"
              f"  quartiles {q1:.4f} {q3:.4f}  ({rounds} rounds)")


if __name__ == "__main__":
    if not run.use_sources():
        sys.exit("error: yexp sources not found under src/")
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main(int(sys.argv[1]) if len(sys.argv) > 1 else 32)
