"""Command-line front end: construction dumps, verification sweeps, reports.

`COMMANDS` lists the flags each command reads, besides `--rank-max`; any other
flag is a usage error. The `--tol-*` defaults are `spectral.Tolerances()`.
YEXP_TOL_SCALE multiplies every tolerance of the commands that gate on one:
periodicity, verify, conjecture-c and sweep. `periodicity` runs each orbit in
log coordinates, at positive points.

Exit codes: 0 all checks passed, 1 a verification check failed (out of memory
in a check too), 2 usage or domain error, or out of memory outside a check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from typing import List, Optional

from . import qsys, spectral, ysys
from .quiver import build_dynkin_quiver, build_mutation_loop, dump_quiver
from .rootsys import _MIN_RANK, DynkinType, group_constants

_TOLERANCES = ("fixed_point", "periodicity", "charpoly", "fd_jacobian")
_TOL_FLAGS = tuple("tol-" + name.replace("_", "-") for name in _TOLERANCES)
_TABLE = ("family", "rank", "csv")

COMMANDS = {
    **dict.fromkeys(("quiver", "qtable", "ytable", "eta"), _TABLE),
    "periodicity": ("family", "rank", "seed", "tol-periodicity", "csv"),
    "exponents": _TABLE,
    "verify": ("family", "rank", "samples", "seed", *_TOL_FLAGS, "json", "csv"),
    "conjecture-c": ("rank", "samples", "json"),
    "sweep": ("samples", "seed", *_TOL_FLAGS, "json", "csv"),
}


_TEXT = {  # the text each table command writes for one case
    "quiver": lambda dt: f"# {dt}\n" + dump_quiver(build_dynkin_quiver(dt)),
    "qtable": lambda dt: qsys.qtable_csv(qsys.kr_qtable(dt)),
    "ytable": lambda dt: ysys.ytable_csv(ysys.y_solution(dt)),
    "eta": lambda dt: ysys.eta_csv(ysys.assemble_eta(dt)),
    "exponents": lambda dt: spectral.exponents_csv(
        [{"type": dt.family, "rank": dt.rank, **asdict(spectral.build_case(dt).exponents)}]),
}


def _parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The parser of `commands`, all of them by default. Built for fewer, its metavar
    keeps every command in the usage line; the full parser has none, so that its
    errors still call the action "command"."""
    defaults = spectral.Tolerances()
    flags = {
        "family": dict(required=True, choices=sorted(_MIN_RANK)),
        "rank": dict(type=int, required=True),
        "samples": dict(type=int, default=32),
        "seed": dict(type=int, default=0),
        "json": dict(default=None),
        "csv": dict(default=None),
        **{flag: dict(type=float, default=getattr(defaults, name))
           for flag, name in zip(_TOL_FLAGS, _TOLERANCES)},
    }
    p = argparse.ArgumentParser(
        prog="yexp",
        description="Level-2 Dynkin quiver mutation loops: fixed points, spectra, exponents.",
    )
    every = "{" + ",".join(COMMANDS) + "}" if len(commands) < len(COMMANDS) else None
    sub = p.add_subparsers(dest="command", required=True, metavar=every)
    for command in commands:
        sp = sub.add_parser(command, allow_abbrev=False)  # so --rank never means --rank-max
        sp.add_argument("--rank-max", type=int, default=8 if command == "sweep" else None)
        for name in COMMANDS[command]:
            sp.add_argument("--" + name, **flags[name])
    return p


def _emit(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _types(args) -> List[DynkinType]:
    if args.command == "sweep":
        spans = [(fam, lo, args.rank_max) for fam, lo in _MIN_RANK.items()]
    else:  # conjecture-c is about type C
        spans = [(getattr(args, "family", "C"), args.rank, args.rank if args.rank_max is None else args.rank_max)]
    types = [DynkinType(fam, r) for fam, lo, hi in spans for r in range(lo, hi + 1)]
    if not types:  # a run that checks nothing must not report a pass
        raise ValueError(f"--rank-max {args.rank_max} selects no case")
    return types


def _tolerances(args) -> spectral.Tolerances:
    """The defaults, overridden by the command's --tol-* flags, scaled by YEXP_TOL_SCALE."""
    given = {name: getattr(args, "tol_" + name) for name in _TOLERANCES if hasattr(args, "tol_" + name)}
    scale = float(os.environ.get("YEXP_TOL_SCALE", "1.0"))
    if not (0 < scale < math.inf):  # false for nan as well
        raise ValueError(f"YEXP_TOL_SCALE must be positive and finite, got {scale}")
    tol = replace(spectral.Tolerances(), **given).scaled(scale)
    for name, value in asdict(tol).items():
        if not (0 < value < math.inf):
            raise ValueError(f"tolerance {name} must be positive and finite, got {value}")
    return tol


def main(argv=None) -> int:
    """Run one command; return its exit code (see the module docstring)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's subparser; help, no command or an unknown one need them all
    commands = argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS
    try:
        args = _parser(commands).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    types = _types(args)
    if cmd in _TEXT:
        _emit("".join(map(_TEXT[cmd], types)), args.csv)
        return 0
    tol = _tolerances(args)
    if getattr(args, "samples", 1) <= 0:
        raise ValueError("samples must be positive")
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be nonnegative")
    if cmd == "periodicity":
        lines, ok = ["family,rank,period,max_residual"], True
        for dt in types:
            period = group_constants(dt)[2]
            v = spectral.periodicity_verdict(build_mutation_loop(dt), period, args.seed, 20, tol.periodicity)
            ok = ok and v["pass"]
            lines.append(f"{dt.family},{dt.rank},{period},{v['residual']!r}")
        _emit("\n".join(lines) + "\n", args.csv)
        return 0 if ok else 1
    if cmd == "conjecture-c":
        cases = [{"rank": dt.rank, "checks": spectral.c_checks(spectral.build_case(dt), tol, args.samples)}
                 for dt in types]
    else:
        cases = [spectral.run_case(dt, tol, samples=args.samples, seed=args.seed,
                                   periodicity_points=5 if cmd == "sweep" else 20)
                 for dt in types]
    ok = all(map(spectral.case_passed, cases))
    payload = cases[0] if cmd == "verify" and len(cases) == 1 else {"cases": cases, "all_passed": ok}
    _emit(json.dumps(payload, indent=2) + "\n", args.json)
    if getattr(args, "csv", None):
        _emit(spectral.exponents_csv(cases), args.csv)
    if cmd == "sweep":
        for c in cases:
            print(f"{c['type']}{c['rank']}: {'PASS' if spectral.case_passed(c) else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
