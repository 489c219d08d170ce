"""Command-line front end: construction dumps, verification sweeps, reports.

Exit codes: 0 all checks passed, 1 a verification check failed,
2 usage or domain error. YEXP_TOL_SCALE multiplies every tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import List, Optional

from . import qsys, spectral, ysys
from .quiver import build_dynkin_quiver, build_mutation_loop, dump_quiver
from .rootsys import _MIN_RANK, DynkinType, group_constants
from .yseed import check_periodicity


@dataclass
class RunConfig:
    command: str
    family: Optional[str]
    rank: Optional[int]
    rank_max: Optional[int]
    tolerances: spectral.Tolerances
    samples: int
    seed: int
    json_path: Optional[str]
    csv_path: Optional[str]

    def __post_init__(self):
        if any(v <= 0 for v in self.tolerances.__dict__.values()):
            raise ValueError("tolerances must be strictly positive")
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.rank is not None and self.rank_max is not None and self.rank_max < self.rank:
            raise ValueError("--rank-max below --rank")


def _config_from(args) -> RunConfig:
    tol = spectral.Tolerances(
        fixed_point=args.tol_fixed_point,
        periodicity=args.tol_periodicity,
        charpoly=args.tol_charpoly,
        fd_jacobian=args.tol_fd_jacobian,
    )
    scale = float(os.environ.get("YEXP_TOL_SCALE", "1.0"))
    if scale <= 0:
        raise ValueError("YEXP_TOL_SCALE must be positive")
    return RunConfig(
        command=args.command,
        family=getattr(args, "family", None),
        rank=getattr(args, "rank", None),
        rank_max=args.rank_max,
        tolerances=tol.scaled(scale),
        samples=args.samples,
        seed=args.seed,
        json_path=args.json_path,
        csv_path=args.csv_path,
    )


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="yexp",
        description="Level-2 Dynkin quiver mutation loops: fixed points, spectra, exponents.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, family=True, rank=True, rank_max=None):
        if family:
            sp.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
        if rank:
            sp.add_argument("--rank", type=int, required=True)
        sp.add_argument("--rank-max", type=int, default=rank_max)
        sp.add_argument("--samples", type=int, default=32)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", dest="json_path", default=None)
        sp.add_argument("--csv", dest="csv_path", default=None)
        sp.add_argument("--tol-fixed-point", type=float, default=1e-9)
        sp.add_argument("--tol-periodicity", type=float, default=1e-8)
        sp.add_argument("--tol-charpoly", type=float, default=1e-7)
        sp.add_argument("--tol-fd-jacobian", type=float, default=1e-5)

    for name in ("quiver", "qtable", "ytable", "eta", "periodicity", "exponents", "verify"):
        common(sub.add_parser(name))
    common(sub.add_parser("conjecture-c"), family=False)
    common(sub.add_parser("sweep"), family=False, rank=False, rank_max=8)
    return p


def _emit(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _case_types(cfg: RunConfig) -> List[DynkinType]:
    hi = cfg.rank_max or cfg.rank
    return [DynkinType(cfg.family, r) for r in range(cfg.rank, hi + 1)]


def _sweep_types(rank_max: int) -> List[DynkinType]:
    out = []
    for fam, lo in _MIN_RANK.items():
        for r in range(lo, rank_max + 1):
            out.append(DynkinType(fam, r))
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cfg = _config_from(args)
    cmd = cfg.command
    tol = cfg.tolerances
    if cmd == "sweep":
        cases = [
            spectral.run_case(dt, tol, samples=cfg.samples, seed=cfg.seed,
                              periodicity_points=5)
            for dt in _sweep_types(cfg.rank_max)
        ]
        cases.sort(key=lambda c: (c["type"], c["rank"]))
        ok = all(spectral.case_passed(c) for c in cases)
        payload = {"cases": cases, "all_passed": ok}
        _emit(json.dumps(payload, indent=2) + "\n", cfg.json_path)
        if cfg.csv_path:
            _emit(spectral.exponents_csv(cases), cfg.csv_path)
        for c in cases:
            status = "PASS" if spectral.case_passed(c) else "FAIL"
            print(f"{c['type']}{c['rank']}: {status}", file=sys.stderr)
        return 0 if ok else 1

    if cmd == "conjecture-c":
        if cfg.rank < 2:
            raise ValueError("type C needs rank >= 2")
        hi = cfg.rank_max or cfg.rank
        results = [
            {"rank": r,
             "checks": spectral.c_checks(spectral.build_case(DynkinType("C", r)), tol, cfg.samples)}
            for r in range(cfg.rank, hi + 1)
        ]
        ok = all(spectral.case_passed(c) for c in results)
        _emit(json.dumps({"cases": results, "all_passed": ok}, indent=2) + "\n", cfg.json_path)
        return 0 if ok else 1

    types = _case_types(cfg)
    if cmd == "quiver":
        text = "".join(
            f"# {dt}\n" + dump_quiver(build_dynkin_quiver(dt)) for dt in types
        )
        _emit(text, cfg.json_path or cfg.csv_path)
        return 0
    if cmd == "qtable":
        text = "".join(qsys.qtable_csv(qsys.kr_qtable(dt)) for dt in types)
        _emit(text, cfg.csv_path or cfg.json_path)
        return 0
    if cmd == "ytable":
        text = "".join(ysys.ytable_csv(ysys.y_solution(dt)) for dt in types)
        _emit(text, cfg.csv_path or cfg.json_path)
        return 0
    if cmd == "eta":
        text = "".join(ysys.eta_csv(ysys.assemble_eta(dt)) for dt in types)
        _emit(text, cfg.csv_path or cfg.json_path)
        return 0
    if cmd == "periodicity":
        ok = True
        lines = ["family,rank,period,max_residual"]
        for dt in types:
            loop = build_mutation_loop(dt)
            _, _, period = group_constants(dt)
            points = spectral._seeded_uniform(cfg.seed, (20, loop.n_vertices), 0.5, 2.0)
            worst = check_periodicity(loop, points, period)
            ok = ok and worst <= tol.periodicity
            lines.append(f"{dt.family},{dt.rank},{period},{worst!r}")
        _emit("\n".join(lines) + "\n", cfg.csv_path or cfg.json_path)
        return 0 if ok else 1
    if cmd == "exponents":
        cases = [
            spectral.verify_conjecture(dt) for dt in types
        ]
        rows = [
            {
                "type": dt.family,
                "rank": dt.rank,
                "period": rep.exponents.period,
                "exponents": list(rep.exponents.exponents),
            }
            for dt, rep in zip(types, cases)
        ]
        _emit(spectral.exponents_csv(rows), cfg.csv_path or cfg.json_path)
        return 0
    if cmd == "verify":
        cases = [
            spectral.run_case(dt, tol, samples=cfg.samples, seed=cfg.seed)
            for dt in types
        ]
        ok = all(spectral.case_passed(c) for c in cases)
        payload = cases[0] if len(cases) == 1 else {"cases": cases, "all_passed": ok}
        _emit(json.dumps(payload, indent=2) + "\n", cfg.json_path)
        if cfg.csv_path:
            _emit(spectral.exponents_csv(cases), cfg.csv_path)
        return 0 if ok else 1
    raise ValueError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
