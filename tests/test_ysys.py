import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from yexp import ysys
from yexp.errors import ConvergenceError, FixedPointError
from yexp.qsys import QTable, check_restricted_qsystem, closed_form_qtable
from yexp.quiver import build_mutation_loop
from yexp.rootsys import DynkinType, build_root_system
from yexp.yseed import cluster_transform
from yexp.ysys import (GReading, YSolution, assemble_eta, calibrate_reading, check_ysystem,
                       closed_form_y_exact, eta_csv, index_set_H, newton_fixed_point, y_from_q,
                       y_solution, ytable_csv)

from oracles import dense_cartan, dense_g, g_coefficient, interior_items


def test_index_set_examples():
    assert index_set_H(DynkinType("D", 4)) == ((1, 1), (2, 1), (3, 1), (4, 1))
    b4 = index_set_H(DynkinType("B", 4))
    assert set(b4) == {(1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3)}
    c3 = index_set_H(DynkinType("C", 3))
    assert len(c3) == 7
    assert set(c3) == {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)}


def test_g_coefficient_examples():
    rs = build_root_system(DynkinType("B", 4))
    assert g_coefficient(rs, 2, 1, 2, 1) == -2
    assert g_coefficient(rs, 4, 2, 3, 1) == 2  # short node couples through the convolution
    a4 = build_root_system(DynkinType("A", 4))
    assert g_coefficient(a4, 2, 1, 3, 1) == 1
    # pairs beyond the level-2 index set are looked up in a larger one
    reading = calibrate_reading()
    assert g_coefficient(rs, 4, 6, 3, 3) == oracle_g(rs, 4, 6, 3, 3, reading, reading.qy_order) == 2


# Scalar oracles: the coupling rule applied one (i, m), (j, k) pair at a time, under any of
# the 16 readings of the formula (Cartan transpose, ratio direction, G or G^T in each system).

ALL_READINGS = [GReading(*r) for r in product(("row", "col"), ("first/second", "second/first"),
                                              ("direct", "swapped"), ("direct", "swapped"))]


@lru_cache(maxsize=None)
def oracle_cartan(rs, convention):
    cartan = dense_cartan(rs.type)
    return cartan if convention == "row" else cartan.T


def oracle_g_formula(t_i, cartan, a, bm, c, dk, direction):
    """The three-case coupling formula, with the convolution case picked by t_a/t_c
    ("first/second") or t_c/t_a ("second/first")."""
    ta, tc = t_i[a - 1], t_i[c - 1]
    num, den = (ta, tc) if direction == "first/second" else (tc, ta)
    if num == 2 * den:
        return -cartan[c - 1, a - 1] * ((bm == 2 * dk - 1) + 2 * (bm == 2 * dk) + (bm == 2 * dk + 1))
    if num == 3 * den:
        return -cartan[c - 1, a - 1] * (
            (bm == 3 * dk - 2) + 2 * (bm == 3 * dk - 1) + 3 * (bm == 3 * dk)
            + 2 * (bm == 3 * dk + 1) + (bm == 3 * dk + 2)
        )
    return -cartan[a - 1, c - 1] * (tc * bm == ta * dk)


def oracle_g(rs, i, m, j, k, reading, order):
    """Exponent of (j, k) in the relation at (i, m) when the equation family's index order is `order`."""
    first, second = ((i, m), (j, k)) if order == "direct" else ((j, k), (i, m))
    return oracle_g_formula(rs.t_i, oracle_cartan(rs, reading.cartan_convention),
                            *first, *second, reading.case_direction)


def oracle_y_from_q(qt, reading):
    rs = build_root_system(qt.type)
    pairs = list(interior_items(qt))
    out = {}
    for (i, m), q in pairs:
        prod = 1.0
        for (j, k), qjk in pairs:
            e = oracle_g(rs, i, m, j, k, reading, reading.qy_order)
            if e:
                prod *= qjk ** e
        out[(i, m)] = q * q * prod / (qt.value(i, m - 1) * qt.value(i, m + 1))
    return out


def oracle_check_ysystem(ys, reading):
    rs = build_root_system(ys.type)
    items = sorted(ys.values.items())
    worst = 0.0
    for (i, m), y in items:
        top = rs.t_i[i - 1] * ys.level
        den = 1.0
        if m - 1 > 0:
            den *= 1.0 + 1.0 / ys.value(i, m - 1)
        if m + 1 < top:
            den *= 1.0 + 1.0 / ys.value(i, m + 1)
        num = 1.0
        for (j, k), yjk in items:
            e = oracle_g(rs, i, m, j, k, reading, reading.ysys_order) + 2 * (i == j and m == k)
            if e:
                num *= (1.0 + yjk) ** e
        worst = max(worst, abs(y * y - num / den) / abs(y * y))
    return worst


def oracle_check_qsystem(qt, reading):
    rs = build_root_system(qt.type)
    worst = 0.0
    pairs = list(interior_items(qt))
    for (i, m), q in pairs:
        prod = 1.0
        for (j, k), qjk in pairs:
            e = oracle_g(rs, i, m, j, k, reading, reading.qy_order)
            if e:
                prod *= qjk ** e
        rhs = qt.value(i, m - 1) * qt.value(i, m + 1) + q * q * prod
        worst = max(worst, abs(q * q - rhs) / abs(q * q))
    return worst


CLOSED_FORM_TYPES = [DynkinType(f, r) for f, lo in (("B", 2), ("D", 4)) for r in range(lo, 13)]


def fits_the_closed_forms(reading, dt):
    """The exact B/D solution satisfies the Y-system and is rebuilt from the closed-form Q-table."""
    exact = {h: p / q for h, (p, q) in closed_form_y_exact(dt).items()}
    ys = YSolution(dt, 2, exact)
    rebuilt = oracle_y_from_q(closed_form_qtable(dt), reading)
    return oracle_check_ysystem(ys, reading) <= 1e-9 and all(
        abs(rebuilt[h] - v) <= 1e-10 * max(1.0, v) for h, v in exact.items())


def test_calibration_unique_and_logged():
    """Of the 16 readings exactly one fits the closed forms, and it is the one every case uses."""
    survivors = [r for r in ALL_READINGS if all(fits_the_closed_forms(r, dt) for dt in CLOSED_FORM_TYPES)]
    reading = calibrate_reading()
    assert survivors == [reading]
    assert isinstance(reading, GReading)
    # the two formula uses end up with transposed index order
    assert {reading.ysys_order, reading.qy_order} == {"direct", "swapped"}


ORACLE_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                for r in range(lo, 13)]


@lru_cache(maxsize=None)
def oracle_dense_g(dt, level, order):
    """The scalar oracle over H x H under the calibrated reading, as nested lists."""
    rs, reading, H = build_root_system(dt), calibrate_reading(), index_set_H(dt, level)
    return [[oracle_g(rs, i, m, j, k, reading, order) for j, k in H] for i, m in H]


@pytest.mark.parametrize("dt", ORACLE_TYPES, ids=str)
def test_g_entries_are_the_nonzeros_of_the_oracle(dt):
    for level in (2, 3, 4):
        entries = ysys._g_entries(dt, level)
        want = np.array(oracle_dense_g(dt, level, calibrate_reading().qy_order))
        rows, cols = np.nonzero(want)  # row-major
        assert [e.tolist() for e in entries] == [rows.tolist(), cols.tolist(), want[rows, cols].tolist()]
        assert all(e.dtype == np.int64 and not e.flags.writeable for e in entries)


def test_y_solution_forms_no_h_by_h_array():
    # C1024's H has 3,070 pairs: a dense G would be 72 MiB, its float cast as much again
    dt = DynkinType("C", 1024)
    tracemalloc.start()
    try:
        y_solution(dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("dt", ORACLE_TYPES, ids=str)
def test_coupling_arrays_match_the_scalar_oracle(dt):
    reading = calibrate_reading()
    for level in (2, 3, 4):
        g = dense_g(dt, level)
        for got, order in ((g, reading.qy_order), (g.T, reading.ysys_order)):
            assert got.tolist() == oracle_dense_g(dt, level, order)
    qt = closed_form_qtable(dt)
    ys = y_solution(dt)
    rebuilt = y_from_q(qt).values
    for h, v in oracle_y_from_q(qt, reading).items():
        assert abs(rebuilt[h] - v) <= 1e-12 * abs(v)
    # each residual is relative already, so one of rounding size agrees to 1e-12 absolutely
    res, ref = check_ysystem(ys), oracle_check_ysystem(ys, reading)
    assert abs(res - ref) <= 1e-12 * max(1.0, ref)
    res, ref = check_restricted_qsystem(qt), oracle_check_qsystem(qt, reading)
    assert abs(res - ref) <= 1e-12 * max(1.0, ref)


def test_closed_form_y_values_exact():
    for n in (2, 4, 6, 8):
        vals = closed_form_y_exact(DynkinType("B", n))
        for i in range(1, n):
            assert vals[(i, 1)] == (i * (i + 2), 1)
        assert vals[(n, 1)] == (n, n + 1)
        assert vals[(n, 2)] == (n * n, 2 * n + 1)
    for n in (4, 5, 6):
        vals = closed_form_y_exact(DynkinType("D", n))
        assert vals[(n - 1, 1)] == vals[(n, 1)] == (n - 1, 1)


@pytest.mark.parametrize("dt", CLOSED_FORM_TYPES + [DynkinType("B", 1000), DynkinType("D", 1000)], ids=str)
def test_closed_form_y_pairs_are_in_lowest_terms_and_divide_as_fractions(dt):
    # int true division rounds once, as float(Fraction) does
    ys = y_solution(dt)
    for h, (p, q) in closed_form_y_exact(dt).items():
        assert type(p) is type(q) is int and q > 0 and math.gcd(p, q) == 1
        assert ys.value(*h).hex() == float(Fraction(p, q)).hex()


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("B", 7), DynkinType("D", 6),
                                DynkinType("D", 9)], ids=str)
def test_y_from_q_reproduces_printed_rationals(dt):
    ys = y_from_q(closed_form_qtable(dt))
    for (i, m), (p, q) in closed_form_y_exact(dt).items():
        assert abs(ys.value(i, m) - p / q) <= 1e-12 * max(1.0, p / q)


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


@pytest.mark.parametrize("dt", [DynkinType("C", 40), DynkinType("B", 40)], ids=str)
@pytest.mark.parametrize("node", [(2, 1), (39, 1), (40, 1)], ids=str)
def test_residual_sensitivity_at_rank_40(dt, node):
    ys = y_solution(dt)
    perturbed = dict(ys.values)
    perturbed[node] *= 1 + 1e-6
    assert check_ysystem(YSolution(ys.type, ys.level, perturbed)) > 1e-9
    qt = closed_form_qtable(dt)
    perturbed = dict(qt.values)
    perturbed[node] *= 1 + 1e-6
    assert check_restricted_qsystem(QTable(qt.type, qt.level, qt.t_i, perturbed)) > 1e-9


def test_eta_examples():
    b4 = assemble_eta(DynkinType("B", 4))
    lq = b4.loop.start
    assert b4.eta[lq.vertex_of(1, 1)] == pytest.approx(1 / 3)
    assert b4.eta[lq.vertex_of(4, 2)] == pytest.approx((4 * 2 + 1) / (4 * 2 * 2), rel=1e-12)
    for n in (4, 6, 8):
        d = assemble_eta(DynkinType("D", n))
        assert d.eta[n - 1] == pytest.approx(1.0 / (n - 1), rel=1e-12)


@pytest.mark.parametrize("n", range(2, 41))
def test_b_right_wing_plus_entries_are_exact(n):
    # eta is Y = s(s + 2) at a right-wing "+" vertex of mirror node s, read directly,
    # not as 1 / (1 / Y)
    ep = assemble_eta(DynkinType("B", n))
    lq = ep.loop.start
    for v, ((i, m), sign) in enumerate(zip(lq.hindex, lq.sign)):
        if i > n and sign == "+":
            s = 2 * n - i
            assert ep.eta[v] == s * (s + 2)


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_eta_is_fixed_point(dt):
    ep = assemble_eta(dt)
    out = cluster_transform(ep.loop, ep.eta)
    assert np.max(np.abs(out - ep.eta) / np.abs(ep.eta)) <= 1e-9


def test_assembled_residual_is_the_relative_image_gap(monkeypatch):
    # eta moved off the fixed point by up to 1e-6: the residual kept on the point is
    # max|mu(eta) - eta| / eta, and past `tol`, or nan, it raises with every component
    dt = DynkinType("C", 5)
    components = ysys._eta_components
    exact = assemble_eta(dt)
    assert exact.residual == np.max(np.abs(np.expm1(ysys.log_cluster_transform(exact.loop, np.log(exact.eta))
                                                    - np.log(exact.eta))))
    n = exact.loop.n_vertices
    monkeypatch.setattr(ysys, "_eta_components", lambda dt, ys: components(dt, ys) * np.linspace(1, 1 + 1e-6, n))
    ep = assemble_eta(dt, tol=1e-3)
    gap = np.max(np.abs(cluster_transform(ep.loop, ep.eta) - ep.eta) / ep.eta)
    assert 1e-7 < ep.residual == pytest.approx(gap, rel=1e-6)
    with pytest.raises(FixedPointError) as err:
        assemble_eta(dt)
    assert err.value.residuals.shape == (n,) and np.max(err.value.residuals) == ep.residual
    monkeypatch.setattr(ysys, "_eta_components", lambda dt, ys: np.where(np.arange(n) == 2, np.nan, 1.0))
    with pytest.raises(FixedPointError):
        assemble_eta(dt, tol=1e3)


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_newton_agrees_with_assembled_eta(dt):
    ep = assemble_eta(dt)
    newton = newton_fixed_point(ep.loop)
    assert np.max(np.abs(newton - ep.eta) / np.abs(ep.eta)) <= 1e-8


@pytest.mark.parametrize("dt", [DynkinType("C", 18), DynkinType("C", 21), DynkinType("D", 19),
                                DynkinType("D", 27)], ids=str)
def test_newton_converges_at_high_rank(dt):
    ep = assemble_eta(dt)
    newton = newton_fixed_point(build_mutation_loop(dt))
    assert np.max(np.abs(newton - ep.eta) / np.abs(ep.eta)) <= 1e-8


def test_newton_steps_once_past_its_stopping_test():
    # stopping as soon as the residual passed left C256 at 5.1e-10 from eta
    ep = assemble_eta(DynkinType("C", 256))
    assert np.max(np.abs(newton_fixed_point(ep.loop) - ep.eta) / ep.eta) <= 1e-11


@pytest.mark.parametrize("start,match", [([1.0, 1.0], "values per point"), ([1.0] * 4, "values per point"),
                                         ([1.0, np.nan, 1.0], "positive"), ([1.0, 1.0, np.inf], "positive")],
                         ids=["short", "long", "nan", "inf"])
def test_newton_start_must_be_one_positive_point(start, match):
    with pytest.raises(ValueError, match=match):
        newton_fixed_point(build_mutation_loop(DynkinType("A", 3)), start=start)


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


def _arctan_map(monkeypatch):
    """Replace the loop with y -> y exp(-arctan(log y)), that is x -> x - arctan(x)
    in log coordinates, so F(x) = -arctan(x): full Newton steps diverge from
    |x| > 1.4, and only backtracking converges."""
    def transform(loop, x):
        return x - np.arctan(x)

    def jacobian(loop, x):
        return np.diag(1 - 1 / (1 + x * x))

    monkeypatch.setattr(ysys, "log_cluster_transform", transform)
    monkeypatch.setattr(ysys, "log_loop_jacobian", jacobian)
    return build_mutation_loop(DynkinType("A", 1))


def test_newton_backtracks_where_full_steps_diverge(monkeypatch):
    loop = _arctan_map(monkeypatch)
    eta = newton_fixed_point(loop, start=[math.exp(3.0)])
    assert abs(eta[0] - 1.0) <= 1e-12


def test_newton_line_search_stall_raises(monkeypatch):
    loop = _arctan_map(monkeypatch)

    def defined_only_at_start(loop, x):
        # NaN, as where the map has no finite image, fails every Armijo test
        return np.where(x == 3.0, x - np.arctan(x), np.nan)

    monkeypatch.setattr(ysys, "log_cluster_transform", defined_only_at_start)
    with pytest.raises(ConvergenceError, match="line search") as err:
        newton_fixed_point(loop, start=[math.exp(3.0)])
    assert err.value.last_residual > 0


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
