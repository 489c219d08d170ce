import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import yexp
from yexp import cli, spectral
from yexp.cli import main
from yexp.errors import ConvergenceError
from yexp.qsys import closed_form_qtable
from yexp.rootsys import DynkinType
from yexp.spectral import run_case


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_csv_row(capsys):
    code, out, _ = run(capsys, "exponents", "--family", "D", "--rank", "4")
    assert code == 0
    assert out.strip() == "D,4,8,2,4,4,6"


def test_verify_json(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "verify", "--family", "B", "--rank", "6", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["type"] == "B" and data["rank"] == 6
    assert data["period"] == 26 and data["n_vertices"] == 13
    assert data["checks"]["conjecture_38"]["pass"] is True
    assert data["checks"]["fixed_point"]["pass"] is True
    assert data["checks"]["lemma_vectors"]["pass"] is True
    for key in ("residual", "pass"):
        for check in data["checks"].values():
            assert key in check
    assert len(data["exponents"]) == data["n_vertices"]
    assert data["calibration"]["qy_order"] in ("direct", "swapped")


def test_the_benchmark_tracer_finds_every_function_it_wraps(capsys):
    # perfbench/spans.py wraps these names by module and name; a traced run fails on a missing one
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.WRAPPED.items():
        module = importlib.import_module(f"yexp.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"yexp.{layer}.{name}"
    code, out, _ = run(capsys, "verify", "--family", "B", "--rank", "4")
    assert code == 0
    assert json.loads(out)["calibration"] == asdict(yexp.calibrate_reading())


def test_the_distribution_is_named_yexp():
    # pip registers the distribution by this name, so `pip show yexp` finds it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    assert project["name"] == "yexp"
    assert project["version"] == yexp.__version__
    assert project["scripts"]["yexp"] == "yexp.cli:main"


def test_verify_d19_passes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "D", "--rank", "19")
    assert code == 0
    assert all(check["pass"] for check in json.loads(out)["checks"].values())


def test_conjecture_c(capsys):
    code, out, _ = run(capsys, "conjecture-c", "--rank", "5", "--samples", "32")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    csol = data["cases"][0]["checks"]["csol"]
    assert csol["csol_k"] <= 1e-7
    assert csol["csol_l"] <= 1e-7


@pytest.mark.parametrize("samples,csol,reduction", [(["--samples", "8"], 31, 16), ([], 33, 17),
                                                     (["--samples", "64"], 65, 33)])
def test_conjecture_c_reports_the_points_each_check_reads(capsys, samples, csol, reduction):
    # before the shared grid csol read `samples` points and the reduction max(16, samples // 2)
    code, out, _ = run(capsys, "conjecture-c", "--rank", "4", *samples)
    assert code == 0
    checks = json.loads(out)["cases"][0]["checks"]
    assert checks["csol"]["points"] == csol and checks["c_reduction"]["points"] == reduction
    given = int(samples[1]) if samples else 32
    assert csol >= given and reduction >= max(16, given // 2)
    assert checks["csol"]["method"] == checks["c_reduction"]["method"] == "banded LU"
    assert checks["csol"]["half_bandwidths"] == {"K": 1, "L": 2}
    assert checks["c_reduction"]["half_bandwidths"] == {"K": 1, "L": 2, "Khat": 2, "Lhat": 4}


def test_conjecture_c_rejects_charpoly_tolerance(capsys):
    code, out, err = run(capsys, "conjecture-c", "--rank", "5", "--tol-charpoly", "1e-30")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tol-charpoly" in err


TOL_FLAGS = ["--tol-fixed-point", "--tol-periodicity", "--tol-charpoly", "--tol-fd-jacobian"]
TABLE_FLAGS = ["--family", "--rank", "--csv"]
# the flags each command reads, besides --rank-max
READS = {
    **dict.fromkeys(["quiver", "qtable", "ytable", "eta", "exponents"], TABLE_FLAGS),
    "periodicity": ["--family", "--rank", "--seed", "--tol-periodicity", "--csv"],
    "verify": ["--family", "--rank", "--samples", "--seed", *TOL_FLAGS, "--json", "--csv"],
    "conjecture-c": ["--rank", "--samples", "--json"],
    "sweep": ["--samples", "--seed", *TOL_FLAGS, "--json", "--csv"],
}
SHARED_FLAGS = ["--family", "--rank", "--samples", "--seed", "--json", "--csv", *TOL_FLAGS]


@pytest.mark.parametrize("command", READS)
def test_each_command_takes_only_the_flags_it_reads(command, tmp_path, capsys):
    values = {"--family": "C", "--rank": "2", "--samples": "16", "--seed": "1",
              "--json": str(tmp_path / "out.json"), "--csv": str(tmp_path / "out.csv"),
              **dict.fromkeys(TOL_FLAGS, "1e-5")}
    rank_max = ["--rank-max", "1" if command == "sweep" else "2"]
    full = [command, *rank_max] + [part for flag in READS[command] for part in (flag, values[flag])]
    code, _, err = run(capsys, *full)
    assert code == 0, err
    minimal = [command, *rank_max] + [part for flag in ("--family", "--rank") if flag in READS[command]
                                      for part in (flag, values[flag])]
    for flag in SHARED_FLAGS:
        if flag not in READS[command]:
            code, out, err = run(capsys, *minimal, flag, values[flag])
            assert code == 2 and out == ""
            assert f"unrecognized arguments: {flag}" in err


def test_conjecture_c_scaled_tolerances_fail(capsys, monkeypatch):
    monkeypatch.setenv("YEXP_TOL_SCALE", "1e-20")
    code, out, _ = run(capsys, "conjecture-c", "--rank", "5")
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False
    assert not any(c["pass"] for c in data["cases"][0]["checks"].values())


GOLDEN_B2 = """# B2
0 -> 1 x1
0 -> 3 x1
1 -> 2 x1
2 -> 0 x1
2 -> 4 x1
3 -> 2 x1
vertex 0: y_1^(1) white sign=0 nu=4
vertex 1: y_1^(2) black sign=+ nu=1
vertex 2: y_2^(2) black sign=- nu=2
vertex 3: y_3^(2) black sign=+ nu=3
vertex 4: y_1^(3) white sign=+ nu=0
"""


def test_quiver_dump_golden(capsys):
    code, out, _ = run(capsys, "quiver", "--family", "B", "--rank", "2")
    assert code == 0
    assert out == GOLDEN_B2


def test_tables_parse(capsys):
    code, out, _ = run(capsys, "qtable", "--family", "C", "--rank", "3")
    assert code == 0
    assert out.splitlines()[0] == "i,m,Q"
    code, out, _ = run(capsys, "ytable", "--family", "C", "--rank", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 8  # header + |H_2| = 7
    code, out, _ = run(capsys, "eta", "--family", "D", "--rank", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_qtable_c16_matches_the_closed_forms(capsys):
    code, out, _ = run(capsys, "qtable", "--family", "C", "--rank", "16")
    assert code == 0
    closed = closed_form_qtable(DynkinType("C", 16))
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {(int(i), int(m)) for i, m, _ in rows} == set(closed.values)
    for i, m, q in rows:
        assert float(q) == pytest.approx(closed.value(int(i), int(m)), abs=1e-9), (i, m)


def test_periodicity_command(capsys):
    code, out, _ = run(capsys, "periodicity", "--family", "A", "--rank", "2")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "family,rank,period,max_residual"
    cells = row.split(",")
    assert cells[:3] == ["A", "2", "5"]
    assert float(cells[3]) <= 1e-8


@pytest.mark.parametrize("case", [("B", "200"), ("D", "256")], ids="".join)
def test_periodicity_at_high_rank(case, capsys):
    # y overflows along these orbits (max|log y| grows like twice the rank); log y does not
    family, rank = case
    code, out, err = run(capsys, "periodicity", "--family", family, "--rank", rank)
    assert code == 0, err
    assert float(out.strip().splitlines()[1].split(",")[3]) <= 1e-8


def periodicity_rows(capsys, *argv):
    code, out, _ = run(capsys, "periodicity", *argv)
    assert code == 0
    return {int(row.split(",")[1]): float(row.split(",")[3]) for row in out.strip().splitlines()[1:]}


def test_periodicity_points_depend_only_on_seed_and_rank(capsys):
    alone = periodicity_rows(capsys, "--family", "B", "--rank", "6", "--seed", "3")
    in_range = periodicity_rows(capsys, "--family", "B", "--rank", "4", "--rank-max", "6", "--seed", "3")
    assert in_range[6] == alone[6]
    report = run_case(DynkinType("B", 6), seed=3, periodicity_points=20)
    assert alone[6] == report["checks"]["periodicity"]["residual"]


def test_verify_checks_periodicity_at_the_command_points(capsys):
    # at C5, seed 0, the worst of the 20 points is not among the first 5 that sweep uses
    rows = periodicity_rows(capsys, "--family", "C", "--rank", "5")
    code, out, _ = run(capsys, "verify", "--family", "C", "--rank", "5")
    assert code == 0
    assert json.loads(out)["checks"]["periodicity"]["residual"] == rows[5]


@pytest.mark.parametrize("argv", [("periodicity", "--family", "A", "--rank", "2"),
                                  ("verify", "--family", "A", "--rank", "3"),
                                  ("sweep", "--rank-max", "2")], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(capsys, argv, monkeypatch):
    # rejected before any case runs
    monkeypatch.setattr(spectral, "run_case", None)
    monkeypatch.setattr(spectral, "periodicity_verdict", None)
    code, _, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2 and "seed" in err


def test_cli_runs_never_import_numpy_random():
    # a fresh interpreter, since this one has imported numpy.random already; numpy.ma
    # too, which np.unique without return_index imports lazily, at about 20 ms a process
    script = (
        "import contextlib, io, sys\n"
        "from yexp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--family', 'C', '--rank', '4']),\n"
        "             main(['periodicity', '--family', 'B', '--rank', '4', '--rank-max', '6'])]\n"
        "print(codes, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    assert _fresh_interpreter(script) == "[0, 0] False False"


def test_importing_yexp_loads_neither_fractions_nor_decimal():
    # the B/D closed forms are int pairs; fractions would bring decimal, 2 ms of every process's start
    script = "import sys, yexp, yexp.cli\nprint('fractions' in sys.modules, 'decimal' in sys.modules)\n"
    assert _fresh_interpreter(script) == "False False"


def _fresh_interpreter(script: str) -> str:
    """The stripped stdout of `script` run by a new interpreter that imports yexp from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=True).stdout.strip()


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "verify", "--family", "E", "--rank", "6")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--family", "D", "--rank", "3")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def parse_with_every_command(capsys, argv):
    """Exit code and output of the parser that holds all of the commands' subparsers."""
    code = None
    try:
        cli._parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spy_on_parsers(monkeypatch):
    built, original = [], cli._parser
    monkeypatch.setattr(cli, "_parser", lambda commands=cli.COMMANDS: built.append(list(commands))
                        or original(commands))
    return built


def _required(command):
    given = {"family": ["--family", "B"], "rank": ["--rank", "4"]}
    return [part for name in given if name in cli.COMMANDS[command] for part in given[name]]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_subparser_prints_what_the_full_parser_prints(command, capsys, monkeypatch):
    # sweep requires no flag, so a flag without its value stands in for a missing one
    missing = [command] if _required(command) else [command, "--rank-max"]
    unknown = [command, *_required(command), "--bogus"]
    for argv in ([command, "--help"], unknown, missing):
        want = parse_with_every_command(capsys, argv)
        built = spy_on_parsers(monkeypatch)
        assert run(capsys, *argv) == want
        assert built == [[command]]
        monkeypatch.undo()
    # an unknown flag is reported by the top-level parser, under its usage line
    err = parse_with_every_command(capsys, unknown)[2]
    assert err.startswith("usage: yexp [-h]") and "{" + ",".join(cli.COMMANDS) + "}" in err


@pytest.mark.parametrize("argv,message", [([], "error: the following arguments are required: command\n"),
                                          (["bogus"], "error: argument command: invalid choice: 'bogus'"),
                                          (["--help"], "")])
def test_no_or_an_unknown_command_reads_the_full_parser(argv, message, capsys, monkeypatch):
    want = parse_with_every_command(capsys, argv)
    built = spy_on_parsers(monkeypatch)
    assert run(capsys, *argv) == want
    assert built == [list(cli.COMMANDS)]
    assert message in want[2]


@pytest.mark.parametrize("argv", [["sweep", "--rank-max", "0"], ["sweep", "--rank-max", "-3"],
                                  ["verify", "--family", "B", "--rank", "5", "--rank-max", "4"]])
def test_a_range_selecting_no_case_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "selects no case" in err


def test_unwritable_output(capsys):
    code, _, _ = run(capsys, "verify", "--family", "A", "--rank", "2",
                     "--json", "/nonexistent-dir/x.json")
    assert code == 2


def test_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "verify", "--family", "C", "--rank", "3", "--seed", "7", "--json", str(a))
    run(capsys, "verify", "--family", "C", "--rank", "3", "--seed", "7", "--json", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_tol_scale_env(capsys, monkeypatch):
    monkeypatch.setenv("YEXP_TOL_SCALE", "1e6")
    code, _, _ = run(capsys, "verify", "--family", "A", "--rank", "3")
    assert code == 0
    monkeypatch.setenv("YEXP_TOL_SCALE", "-1")
    code, _, _ = run(capsys, "verify", "--family", "A", "--rank", "3")
    assert code == 2


def test_tol_scale_env_is_read_only_by_gated_commands(capsys, monkeypatch):
    monkeypatch.setenv("YEXP_TOL_SCALE", "-1")
    for command in ("quiver", "qtable", "ytable", "eta", "exponents"):
        code, out, _ = run(capsys, command, "--family", "A", "--rank", "2")
        assert code == 0 and out
    code, _, err = run(capsys, "verify", "--family", "A", "--rank", "2")
    assert code == 2 and "YEXP_TOL_SCALE" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["periodicity", "verify"])
def test_a_non_finite_tolerance_is_a_usage_error(command, value, capsys, monkeypatch):
    # an infinite tolerance would pass any finite residual, a nan one fail every check
    case = [command, "--family", "A", "--rank", "3"]
    monkeypatch.setenv("YEXP_TOL_SCALE", value)
    code, out, err = run(capsys, *case)
    assert (code, out) == (2, "") and "YEXP_TOL_SCALE must be positive and finite" in err
    monkeypatch.delenv("YEXP_TOL_SCALE")
    for flag in READS[command]:
        if flag in TOL_FLAGS:
            code, out, err = run(capsys, *case, flag, value)
            name = flag.removeprefix("--tol-").replace("-", "_")
            assert (code, out) == (2, ""), flag
            assert f"tolerance {name} must be positive and finite" in err, flag


def test_failed_check_exits_one(capsys, monkeypatch):
    # impossibly tight tolerances turn residuals into reported failures
    monkeypatch.setenv("YEXP_TOL_SCALE", "1e-12")
    code, out, _ = run(capsys, "verify", "--family", "A", "--rank", "3")
    assert code == 1
    data = json.loads(out)
    assert any(not c["pass"] for c in data["checks"].values())


def test_sweep_small(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--rank-max", "4", "--json", str(path),
                     "--csv", str(csv_path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["all_passed"] is True
    keys = [(c["type"], c["rank"]) for c in data["cases"]]
    assert keys == sorted(keys)
    assert ("A", 1) in keys and ("D", 4) in keys and ("C", 4) in keys
    rows = csv_path.read_text().strip().splitlines()
    assert any(r.startswith("D,4,8,") for r in rows)


def test_raising_check_is_recorded_not_fatal(capsys, monkeypatch):
    def no_convergence(loop, *args, **kwargs):
        raise ConvergenceError(1.0, "Newton did not converge")

    monkeypatch.setattr(spectral, "newton_fixed_point", no_convergence)
    code, out, _ = run(capsys, "verify", "--family", "B", "--rank", "4")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["fixed_point"]["pass"] is False
    assert checks["fixed_point"]["error"] == "ConvergenceError: Newton did not converge"
    rest = {name: c["pass"] for name, c in checks.items() if name != "fixed_point"}
    assert rest == {"periodicity": True, "jacobian_fd": True, "conjecture_38": True,
                    "lemma_vectors": True, "relations": True}


@pytest.mark.parametrize("argv", [("verify", "--family", "C", "--rank", "4"), ("sweep", "--rank-max", "4")],
                         ids=lambda argv: argv[0])
def test_out_of_memory_while_building_a_case_exits_two(argv, capsys, monkeypatch):
    def no_memory(loop, eta):
        raise MemoryError()

    monkeypatch.setattr(spectral, "spectrum", no_memory)
    assert run(capsys, *argv) == (2, "", "error: MemoryError\n")


def test_verify_report_names_the_failing_relation(tmp_path, capsys, monkeypatch):
    # one entry of L moved in row top(n - 1), which minus_outer_last alone reads
    build_case = spectral.build_case

    def moved(dt, tol):
        case = build_case(dt, tol)
        jac = case.jacobian.copy()
        row = 3 * (dt.rank - 2)
        jac[row, np.flatnonzero(jac[row])[0]] += 1e-8
        return dataclasses.replace(case, jacobian=jac)

    monkeypatch.setattr(spectral, "build_case", moved)
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "verify", "--family", "C", "--rank", "6", "--json", str(path))
    assert code == 1
    relations = json.loads(path.read_text())["checks"]["relations"]
    identities = {name: r for name, r in relations.items() if name not in ("residual", "pass", "method")}
    assert len(identities) == 14 and relations["pass"] is False
    assert {name for name, r in identities.items() if r > spectral.Tolerances().relations} == {"minus_outer_last"}
    assert relations["residual"] == identities["minus_outer_last"]
