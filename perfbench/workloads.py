"""The benchmark's workloads, run inside a fresh worker interpreter.

Each workload is a list of *cases*.  A case is made of *operations*, the unit
that ``attempted`` and ``failed`` count: a whole case for ``sweep`` and
``high_rank``, one random point for ``orbits``, one table cell for
``qtables``.  Every case record says how long it took, whether every check
passed, and, for each failed operation, the layer and function that raised
with the exception type, or the failing check names with their residuals.

The correctness gate is separate from failure counting: a case that runs to
the end must reproduce the period, vertex count and exponent multiset
recorded in ``reference.json`` (``sweep``, ``high_rank``), every periodicity
residual must stay within ``PERIODICITY_TOL`` (``orbits``), and each KR table
must match its closed form with Q- and Y-system residuals within
``QTABLE_TOL`` (``qtables``).
"""

import contextlib
import io
import json
import random
import time
import traceback
from pathlib import Path

import numpy as np

from yexp import cli, qsys, quiver, rootsys, spectral, ysys, yseed
from yexp.rootsys import DynkinType

REFERENCE_PATH = Path(__file__).with_name("reference.json")

RANK_FLOOR = {"A": 1, "B": 2, "C": 2, "D": 4}
CASE_BUDGET_S = 30.0  # high_rank kills a case here; every failed case is charged it
PERIODICITY_TOL = 1e-8
QTABLE_TOL = 1e-9

# Sizes of the measured workloads.  The smoke test passes smaller ones.
FULL = {
    "sweep": {"rank_max": 10, "periodicity_points": 5, "samples": 32},
    "high_rank": {"cases": ["A24", "B16", "C18", "C20", "D19"]},
    "orbits": {"ranks": [8, 16, 24], "points": 3},
    "qtables": {"cases": ["B8", "B10", "C8", "C10", "D10"]},
}


def parse_case(name):
    return DynkinType(name[0], int(name[1:]))


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def case_signature(report):
    """The exact integers the gate compares: period, vertex count, exponents."""
    return {
        "period": int(report["period"]),
        "n_vertices": int(report["n_vertices"]),
        "exponents": sorted(int(m) for m in report["exponents"]),
    }


def gate_case(name, report, reference):
    """Gate violations (empty when correct) of one case report against the reference."""
    if name not in reference:
        return [f"{name}: no reference values"]
    got, want = case_signature(report), reference[name]
    return [f"{name}.{key}: got {got[key]} expected {want[key]}"
            for key in ("period", "n_vertices", "exponents") if got[key] != want[key]]


def exception_origin(exc):
    """Layer and function of the innermost yexp frame that raised, and the type."""
    layer, function = "benchmark", "?"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("yexp."):
            layer, function = module.split(".", 1)[1], frame.f_code.co_name
    return {"layer": layer, "function": function, "error": type(exc).__name__,
            "message": str(exc)[:200]}


def failed_checks(report):
    """Failure entry for a run_case report: the failing checks and their residuals."""
    return {"layer": "spectral", "function": "run_case",
            "checks": {name: c["residual"] for name, c in report["checks"].items()
                       if not c["pass"]}}


def _case_record(name, seconds, ops, failures, gate):
    failed_ops = sum(f.get("ops", 1) for f in failures)
    return {"case": name, "s": seconds, "ok": not failures, "ops": ops,
            "failed_ops": failed_ops, "failures": failures, "gate": gate}


def sweep(seed, params, tracer):
    """spectral.run_case on every family from its rank floor to rank_max."""
    reference = load_reference()
    tol = spectral.Tolerances()
    cases = []
    for family in "ABCD":
        for rank in range(RANK_FLOOR[family], params["rank_max"] + 1):
            name = f"{family}{rank}"
            tracer.case = name
            t0 = time.perf_counter()
            failures, gate = [], []
            try:
                report = spectral.run_case(
                    DynkinType(family, rank), tol, samples=params["samples"], seed=seed,
                    periodicity_points=params["periodicity_points"])
            except Exception as exc:  # a raising case is a failed operation, not a crash
                failures.append(exception_origin(exc))
            else:
                gate = gate_case(name, report, reference)
                if not spectral.case_passed(report):
                    failures.append(failed_checks(report))
            cases.append(_case_record(name, time.perf_counter() - t0, 1, failures, gate))
    return cases


def orbits(seed, params, tracer):
    """Mutation loops with periodicity and loop Jacobians at seeded random points."""
    rng = np.random.default_rng(seed)
    cases = []
    for family in "ABCD":
        for rank in params["ranks"]:
            name = f"{family}{rank}"
            tracer.case = name
            t0 = time.perf_counter()
            failures, gate = [], []
            dt = DynkinType(family, rank)
            loop = quiver.build_mutation_loop(dt)
            _, _, period = rootsys.group_constants(dt)
            for k in range(params["points"]):
                y = rng.uniform(0.5, 2.0, loop.n_vertices)
                residual = yseed.check_periodicity(loop, y, period)
                finite = bool(np.isfinite(yseed.loop_jacobian(loop, y).matrix).all())
                if not (residual <= PERIODICITY_TOL and finite):
                    checks = {"periodicity": residual, "jacobian_finite": finite}
                    failures.append({"op": f"point {k}", "layer": "yseed",
                                     "function": "check_periodicity", "checks": checks})
                    gate.append(f"{name} point {k}: {checks}")
            cases.append(_case_record(name, time.perf_counter() - t0, params["points"],
                                      failures, gate))
    return cases


def qtables(seed, params, tracer):
    """KR q-tables against closed forms, with the Q- and Y-system residuals."""
    names = list(params["cases"])
    random.Random(seed).shuffle(names)
    cases = []
    for name in names:
        tracer.case = name
        t0 = time.perf_counter()
        dt = parse_case(name)
        table = qsys.kr_qtable(dt)
        closed = qsys.closed_form_qtable(dt)
        failures = []
        for (i, m), q in sorted(table.values.items()):
            want = closed.value(i, m)
            rel = abs(q - want) / abs(want)
            if not rel <= QTABLE_TOL:
                failures.append({"op": f"Q[{i},{m}]", "layer": "qsys", "function": "kr_qtable",
                                 "checks": {"closed_form": rel}})
        residuals = {
            ("qsys", "check_restricted_qsystem"): qsys.check_restricted_qsystem(table),
            ("ysys", "check_ysystem"): ysys.check_ysystem(ysys.y_from_q(table)),
        }
        for (layer, function), residual in residuals.items():
            if not residual <= QTABLE_TOL:  # a table-level failure; no cell is counted
                failures.append({"op": "table", "ops": 0, "layer": layer,
                                 "function": function, "checks": {"residual": residual}})
        gate = [f"{name} {f['op']}: {f['checks']}" for f in failures]
        cases.append(_case_record(name, time.perf_counter() - t0, len(table.values),
                                  failures, gate))
    return cases


def high_rank_case(name, seed, report_path, tracer):
    """One ``yexp verify`` run through the CLI entry point; returns its case record.

    The CLI turns an exception into exit code 2 and a one-line message, so a
    pass-through wrapper on ``spectral.run_case`` keeps the exception's origin.
    """
    tracer.case = name
    raised = []
    run_case = spectral.run_case

    def keep_origin(*args, **kwargs):
        try:
            return run_case(*args, **kwargs)
        except Exception as exc:
            raised.append(exception_origin(exc))
            raise

    spectral.run_case = keep_origin
    report_path = Path(report_path)
    report_path.unlink(missing_ok=True)
    dt = parse_case(name)
    argv = ["verify", "--family", dt.family, "--rank", str(dt.rank), "--seed", str(seed),
            "--json", str(report_path)]
    stderr = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    failures, gate = [], []
    if code == 2:
        failures.append(raised[-1] if raised else
                        {"layer": "cli", "function": "main", "error": "exit 2",
                         "message": stderr.getvalue().strip()[:200]})
    else:
        report = json.loads(report_path.read_text())
        gate = gate_case(name, report, load_reference())
        if code != 0:
            failures.append(failed_checks(report))
    record = _case_record(name, seconds, 1, failures, gate)
    record["exit"] = code
    return record


PASSES = {"sweep": sweep, "orbits": orbits, "qtables": qtables}
