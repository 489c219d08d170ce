from fractions import Fraction

import numpy as np
import pytest

from yexp.errors import ConvergenceError
from yexp.qsys import closed_form_qtable
from yexp.quiver import build_mutation_loop
from yexp.rootsys import DynkinType, build_root_system
from yexp.yseed import cluster_transform
from yexp.ysys import (GReading, YSolution, assemble_eta, calibrate_reading,
                       check_ysystem, closed_form_y_exact, eta_csv,
                       g_coefficient, index_set_H, newton_fixed_point,
                       y_from_q, y_solution, ytable_csv)


def test_index_set_examples():
    assert index_set_H(DynkinType("D", 4)) == ((1, 1), (2, 1), (3, 1), (4, 1))
    b4 = index_set_H(DynkinType("B", 4))
    assert set(b4) == {(1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3)}
    c3 = index_set_H(DynkinType("C", 3))
    assert len(c3) == 7
    assert set(c3) == {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)}


def test_calibration_unique_and_logged():
    reading = calibrate_reading()
    assert isinstance(reading, GReading)
    # the two formula uses end up with transposed index order
    assert {reading.ysys_order, reading.qy_order} == {"direct", "swapped"}


def test_g_coefficient_examples():
    rs = build_root_system(DynkinType("B", 4))
    assert g_coefficient(rs, 2, 1, 2, 1) == -2
    assert g_coefficient(rs, 4, 2, 3, 1) == 2  # short node couples through the convolution
    a4 = build_root_system(DynkinType("A", 4))
    assert g_coefficient(a4, 2, 1, 3, 1) == 1


def test_closed_form_y_values_exact():
    for n in (2, 4, 6, 8):
        vals = closed_form_y_exact(DynkinType("B", n))
        for i in range(1, n):
            assert vals[(i, 1)] == i * (i + 2)
        assert vals[(n, 1)] == Fraction(n, n + 1)
        assert vals[(n, 2)] == Fraction(n * n, 2 * n + 1)
    for n in (4, 5, 6):
        vals = closed_form_y_exact(DynkinType("D", n))
        assert vals[(n - 1, 1)] == vals[(n, 1)] == n - 1


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("B", 7), DynkinType("D", 6),
                                DynkinType("D", 9)], ids=str)
def test_y_from_q_reproduces_printed_rationals(dt):
    ys = y_from_q(closed_form_qtable(dt))
    for (i, m), v in closed_form_y_exact(dt).items():
        assert abs(ys.value(i, m) - float(v)) <= 1e-12 * max(1.0, float(v))


ALL_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for r in range(lo, 11)]


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_ysystem_residual(dt):
    ys = y_solution(dt)
    assert all(v > 0 for v in ys.values.values())
    assert check_ysystem(ys) <= 1e-9


def test_ysystem_sensitivity():
    ys = y_solution(DynkinType("B", 4))
    perturbed = dict(ys.values)
    perturbed[(2, 1)] *= 1.01
    assert check_ysystem(YSolution(ys.type, ys.level, perturbed)) > 1e-3


def test_eta_examples():
    b4 = assemble_eta(DynkinType("B", 4))
    lq = b4.loop.start
    assert b4.eta[lq.vertex_of(1, 1)] == pytest.approx(1 / 3)
    assert b4.eta[lq.vertex_of(4, 2)] == pytest.approx((4 * 2 + 1) / (4 * 2 * 2), rel=1e-12)
    for n in (4, 6, 8):
        d = assemble_eta(DynkinType("D", n))
        assert d.eta[n - 1] == pytest.approx(1.0 / (n - 1), rel=1e-12)


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_eta_is_fixed_point(dt):
    ep = assemble_eta(dt)
    out = cluster_transform(ep.loop, ep.eta)
    assert np.max(np.abs(out - ep.eta) / np.abs(ep.eta)) <= 1e-9


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_newton_agrees_with_assembled_eta(dt):
    ep = assemble_eta(dt)
    newton = newton_fixed_point(ep.loop)
    assert np.max(np.abs(newton - ep.eta) / np.abs(ep.eta)) <= 1e-8


def test_newton_d4_from_ones():
    loop = build_mutation_loop(DynkinType("D", 4))
    eta = newton_fixed_point(loop)
    res = np.max(np.abs(cluster_transform(loop, eta) - eta) / np.abs(eta))
    assert res <= 1e-12


def test_newton_b2_matches_closed_form():
    loop = build_mutation_loop(DynkinType("B", 2))
    eta = newton_fixed_point(loop)
    # vertex carrying Y_1^{(1)} = 3 sits at the right wing end: eta = Y = 3
    lq = loop.start
    assert eta[lq.vertex_of(3, 1)] == pytest.approx(3.0, rel=1e-10)


def test_newton_failure_reports_residual():
    loop = build_mutation_loop(DynkinType("B", 4))
    with pytest.raises(ConvergenceError) as err:
        newton_fixed_point(loop, max_iter=1)
    assert err.value.last_residual > 0


def test_csv_emitters():
    ys = y_solution(DynkinType("D", 4))
    text = ytable_csv(ys)
    assert text.splitlines()[0] == "i,m,Y"
    assert len(text.strip().splitlines()) == 5
    ep = assemble_eta(DynkinType("A", 2))
    lines = eta_csv(ep).strip().splitlines()
    assert lines[0] == "vertex,i,m,eta"
    assert len(lines) == 3
