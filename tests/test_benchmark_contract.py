"""The names the benchmark harness calls in yexp exist, so that a rename fails here
rather than in a traced benchmark run.

`perfbench/spans.py` wraps each `yexp.<layer>.<name>` of its `WRAPPED` table by
`getattr`, the orbits workload reads `yseed.loop_jacobian(loop, y).matrix`, the
worker's set-up calls `yexp.calibrate_reading()`, and `perfbench/record_reference.py`
rebuilds the gated exponents of `reference.json`. The files are read by path and run
from their source with bytecode writing off, which writes nothing next to them.
"""

import importlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import yexp
from yexp import yseed
from yexp.quiver import build_mutation_loop
from yexp.rootsys import DynkinType

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WRAPPED = runpy.run_path(str(PERFBENCH / "spans.py"), run_name="perfbench_spans")["WRAPPED"]


@pytest.mark.parametrize("name", [f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns])
def test_every_traced_function_exists_and_is_callable(name):
    layer, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"yexp.{layer}"), fn, None)), name


@pytest.mark.parametrize("dt", [DynkinType(f, 8) for f in "ABCD"], ids=str)
def test_the_orbits_loop_jacobian_is_finite_at_a_positive_point(dt):
    loop = build_mutation_loop(dt)
    y = np.random.default_rng(dt.rank).uniform(0.5, 2.0, loop.n_vertices)
    matrix = yseed.loop_jacobian(loop, y).matrix
    assert matrix.shape == (loop.n_vertices, loop.n_vertices) and np.isfinite(matrix).all()


def test_the_worker_set_up_call_exists():
    assert callable(yexp.calibrate_reading)


@pytest.fixture(scope="module")
def record_reference():
    """record_reference.py's namespace; it imports its sibling `workloads` by name."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sys, "dont_write_bytecode", True)
        m.syspath_prepend(str(PERFBENCH))
        yield runpy.run_path(str(PERFBENCH / "record_reference.py"), run_name="perfbench_record_reference")
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("name", ["A3", "B4", "C4", "D5", "C18"])
def test_record_reference_reproduces_the_gated_values(name, record_reference):
    assert record_reference["record"](name) == record_reference["workloads"].load_reference()[name]
