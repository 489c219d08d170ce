"""The names the benchmark harness calls in yexp exist, so that a rename fails here
rather than in a traced benchmark run.

`perfbench/spans.py` wraps each `yexp.<layer>.<name>` of its `WRAPPED` table by
`getattr`, and the orbits workload reads `yseed.loop_jacobian(loop, y).matrix`.
The file is read by path and run from its source, which writes nothing next to it.
"""

import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

from yexp import yseed
from yexp.quiver import build_mutation_loop
from yexp.rootsys import DynkinType

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WRAPPED = runpy.run_path(str(SPANS), run_name="perfbench_spans")["WRAPPED"]


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
