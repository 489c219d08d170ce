import math
from itertools import product

import numpy as np
import pytest

from yexp import qsys
from yexp.qsys import (_QDIM_ENTRIES, _kr_terms, _sin_pi, check_restricted_qsystem, closed_form_qtable,
                       kr_qchar, kr_qtable, qdim, qtable_csv)
from yexp.rootsys import DynkinType, build_root_system

from oracles import check_qsol_properties, interior_items
from test_quiver import imported_names
from test_rootsys import _rows


def test_qsys_never_imports_ysys():
    # ysys reads the coupling matrix and the Q-to-Y map from qsys; the layering runs one way
    assert not [name for name in imported_names(qsys) if "ysys" in name.split(".")]


def test_qdim_trivial_weight():
    rs = build_root_system(DynkinType("C", 3))
    assert qdim(rs, 2, (0, 0, 0)) == pytest.approx(1.0)


def test_qdim_examples():
    b2 = build_root_system(DynkinType("B", 2))
    assert qdim(b2, 2, (1, 0)) == pytest.approx(2.0, abs=1e-12)
    d4 = build_root_system(DynkinType("D", 4))
    assert qdim(d4, 2, (0, 0, 0, 1)) == pytest.approx(2.0, abs=1e-12)  # sqrt(4)


def test_qdim_positive_in_level_window():
    rs = build_root_system(DynkinType("B", 3))
    t = rs.t_group
    period = t * (2 + rs.h_dual)
    inside = 0
    for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2), (2, 0, 0), (0, 2, 0)]:
        # t<alpha, rho + lambda> = sum_j k_j (t/t_j)(1 + c_j)
        shifted = [sum(k * (t // ti) * (1 + c) for k, ti, c in zip(row, rs.t_i, w))
                   for row in _rows(rs).tolist()]
        if all(a < period for a in shifted):
            inside += 1
            assert qdim(rs, 2, w) > 0
    assert inside == 5  # (0, 2, 0) lies outside the level-2 alcove


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("C", 6), ("D", 7)])
def test_qdim_on_a_stack_matches_single_weights(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    weights = np.random.default_rng(rank).integers(0, 4, (9, rank))
    stacked = qdim(rs, 2, weights)
    assert stacked.shape == (9,)
    assert [q.hex() for q in stacked.tolist()] == [qdim(rs, 2, tuple(w)).hex() for w in weights.tolist()]


def test_sin_pi_vanishes_exactly_at_multiples():
    for p in (1, 2, 5, 12):
        for a in range(-13, 14):
            assert _sin_pi(a * p, p) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 12, 26])
def test_sin_pi_matches_float_sine(p):
    # a runs over two full periods, [-2p, 2p], so each quarter-period is hit
    # with either sign
    for a in range(-2 * p, 2 * p + 1):
        assert _sin_pi(a, p) == pytest.approx(math.sin(math.pi * a / p), abs=1e-15)
        assert _sin_pi(a, -p) == -_sin_pi(a, p)
    a = np.arange(-2 * p, 2 * p + 1)
    assert np.allclose(_sin_pi(a, p), np.sin(np.pi * a / p), rtol=0, atol=1e-15)


@pytest.mark.parametrize("level", [-1, -3, -4, -5])
def test_qdim_vanishing_denominator_raises(level):
    # A2, heights 1, 1, 2: P = level + 3 is 2, 0, -1 and -2, and each divides a height
    rs = build_root_system(DynkinType("A", 2))
    with pytest.raises(ZeroDivisionError):
        qdim(rs, level, (0, 0))


def test_kr_examples():
    b4 = build_root_system(DynkinType("B", 4))
    assert kr_qchar(b4, 2, 4, 2) == pytest.approx(5.0, abs=1e-9)
    c3 = build_root_system(DynkinType("C", 3))
    s = lambda x: math.sin(math.pi * x / 6)
    expected = s(1) * s(2) * s(3) / (s(0.5) * s(1.5) * s(2))
    assert kr_qchar(c3, 2, 1, 1) == pytest.approx(expected, abs=1e-9)
    a2 = build_root_system(DynkinType("A", 2))
    s5 = lambda x: math.sin(math.pi * x / 5)
    expected = s5(2) / s5(1) * s5(3) / s5(2)
    assert kr_qchar(a2, 2, 1, 1) == pytest.approx(expected, abs=1e-9)


def test_kr_out_of_range():
    rs = build_root_system(DynkinType("B", 3))
    with pytest.raises(ValueError):
        kr_qchar(rs, 2, 0, 1)
    with pytest.raises(ValueError):
        kr_qchar(rs, 2, 4, 1)


ALL_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for r in range(lo, 11)]
HIGH_RANK = [DynkinType("A", 16), DynkinType("B", 16), DynkinType("C", 12), DynkinType("D", 16)]


@pytest.mark.parametrize("dt", ALL_TYPES + HIGH_RANK, ids=str)
def test_kr_reproduces_closed_forms(dt):
    computed = kr_qtable(dt)
    closed = closed_form_qtable(dt)
    for (i, m), v in closed.values.items():
        assert computed.value(i, m) == pytest.approx(v, abs=1e-9), (i, m)


@pytest.mark.parametrize("n", list(range(1, 33)) + [48, 64])
def test_type_a_closed_form_matches_the_untelescoped_product(n):
    # Q^(i)_1 = prod_{j <= i} prod_{k <= n + 1 - i} s(j + k) / s(j + k - 1), s(x) = sin(pi x / (n + 3))
    def s(x):
        return math.sin(math.pi * x / (n + 3))

    qt = closed_form_qtable(DynkinType("A", n))
    for i in range(1, n + 1):
        want = math.prod(s(j + k) / s(j + k - 1) for j in range(1, i + 1) for k in range(1, n + 2 - i))
        assert qt.value(i, 1) == pytest.approx(want, rel=1e-12), i


def test_closed_form_values_b4():
    qt = closed_form_qtable(DynkinType("B", 4))
    assert qt.value(4, 1) == pytest.approx(math.sqrt(9))
    assert qt.value(4, 3) == pytest.approx(math.sqrt(9))
    assert qt.value(4, 2) == pytest.approx(5.0)
    assert qt.value(2, 1) == pytest.approx(3.0)
    assert qt.value(2, 0) == 1.0 and qt.value(2, 2) == 1.0


def test_closed_form_values_d6():
    qt = closed_form_qtable(DynkinType("D", 6))
    for i in range(1, 5):
        assert qt.value(i, 1) == pytest.approx(i + 1.0)
    assert qt.value(5, 1) == pytest.approx(math.sqrt(6))
    assert qt.value(6, 1) == pytest.approx(math.sqrt(6))


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("D", 5), DynkinType("C", 4),
                                DynkinType("A", 5), DynkinType("C", 7), DynkinType("B", 7)], ids=str)
def test_restricted_qsystem_residual(dt):
    assert check_restricted_qsystem(kr_qtable(dt)) <= 1e-9


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_positivity_and_symmetry(dt):
    qt = kr_qtable(dt)
    for (i, m), v in interior_items(qt):
        assert v > 0
        top = qt.t_i[i - 1] * qt.level
        assert v == pytest.approx(qt.value(i, top - m), abs=1e-9)


@pytest.mark.parametrize("dt", [DynkinType("B", 3), DynkinType("B", 4), DynkinType("C", 3),
                                DynkinType("C", 4), DynkinType("D", 5), DynkinType("A", 3)], ids=str)
def test_qsol_properties(dt):
    rep = check_qsol_properties(dt, vanish_terms=6)
    assert rep["symmetry"] <= 1e-9
    assert rep["growth"] == 0.0
    assert rep["vanishing"] <= 1e-9


def test_vanishing_example_b3():
    # Q_{2+j}^{(1)} = 0 for j = 1..4 (t_1 h_dual - 1 = 4)
    rs = build_root_system(DynkinType("B", 3))
    for j in range(1, 5):
        assert abs(kr_qchar(rs, 2, 1, 2 + j)) <= 1e-9


def test_qtable_csv_roundtrip():
    qt = kr_qtable(DynkinType("B", 2))
    text = qtable_csv(qt)
    lines = text.strip().splitlines()
    assert lines[0] == "i,m,Q"
    rows = {tuple(map(int, ln.split(",")[:2])): float(ln.split(",")[2]) for ln in lines[1:]}
    assert rows[(1, 1)] == pytest.approx(2.0)
    assert rows[(2, 2)] == pytest.approx(3.0)
    assert len(rows) == 3 + 5  # node 1: m=0..2, node 2: m=0..4


def _product_kr_terms(dt, t_i, i, m):
    """Reference terms: type C below node n filters the full product of parity ranges
    (k_j even for j < i, k_i = m mod 2) down to sum <= m; the other cases are one
    term or a chain, which `_kr_terms` lists directly."""
    n = dt.rank
    if dt.family != "C" or i == n or m == 0:
        return _kr_terms(dt, t_i, [(i, m)])[0]
    ranges = [range(m % 2 if j == i else 0, m + 1, 2) for j in range(1, i + 1)]
    return [combo + (0,) * (n - i) for combo in product(*ranges) if sum(combo) <= m]


def _per_cell_qchar(rs, level, i, m):
    """Reference KR value: the cell's own sines and quotients, summed one term at a time."""
    period = rs.t_group * (level + rs.h_dual)
    weights = np.array(_product_kr_terms(rs.type, rs.t_i, i, m))
    shifted = rs.pairings((rs.t_group // np.array(rs.t_i)) * (1 + weights))
    total = 0
    for q in np.prod(_sin_pi(shifted, period) / _sin_pi(rs.heights, period), axis=-1).tolist():
        total += q
    return total


FLOOR_TO_12 = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
               for r in range(lo, 13)]


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("dt", FLOOR_TO_12, ids=str)
def test_kr_qtable_is_the_per_cell_sum_bit_for_bit(dt, level):
    rs = build_root_system(dt)
    qt = kr_qtable(dt, level)
    assert sorted(qt.values) == [(i, m) for i in range(1, dt.rank + 1)
                                 for m in range(rs.t_i[i - 1] * level + 1)]
    for (i, m), v in qt.values.items():
        assert v.hex() == _per_cell_qchar(rs, level, i, m).hex(), (i, m)


@pytest.mark.parametrize("dt", [DynkinType("B", 20), DynkinType("D", 20)], ids=str)
def test_kr_qtable_over_several_qdim_blocks(dt):
    rs = build_root_system(dt)
    qt = kr_qtable(dt)
    stacked = sum(map(len, _kr_terms(dt, rs.t_i, list(qt.values))))
    assert stacked > 2 * (_QDIM_ENTRIES // len(rs.heights))
    for (i, m), v in qt.values.items():
        assert v.hex() == _per_cell_qchar(rs, 2, i, m).hex(), (i, m)


@pytest.mark.parametrize("rank", range(2, 7))
def test_c_terms_are_the_filtered_product_in_its_order(rank):
    # cells past the level-3 table too, as the vanishing check asks for, all in one call
    # and listed from the last node down
    dt = DynkinType("C", rank)
    rs = build_root_system(dt)
    cells = [(i, m) for i in range(rank, 0, -1) for m in range(2 * rs.t_i[i - 1] * 3 + 5)]
    for (i, m), terms in zip(cells, _kr_terms(dt, rs.t_i, cells), strict=True):
        assert terms == _product_kr_terms(dt, rs.t_i, i, m), (i, m)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("dt", [dt for dt in FLOOR_TO_12 if dt.family == "C"], ids=str)
def test_c_table_terms_are_the_filtered_product(dt, level):
    rs = build_root_system(dt)
    cells = [(i, m) for i in range(1, dt.rank + 1) for m in range(rs.t_i[i - 1] * level + 1)]
    for (i, m), terms in zip(cells, _kr_terms(dt, rs.t_i, cells), strict=True):
        assert terms == _product_kr_terms(dt, rs.t_i, i, m), (i, m)


def test_c_closed_form_is_the_per_node_sum():
    for n in range(2, 65):
        s = _sin_pi(np.arange(n + 4), n + 3).tolist()
        qt = closed_form_qtable(DynkinType("C", n))
        for i in range(1, n):
            want = (2 * sum(s[j] * s[j + 1] * s[j + 2] for j in range(0, i + 1))
                    + s[i + 1] * s[i + 2] * s[i + 3]) / (s[1] * s[2] * s[3])
            assert qt.value(i, 2).hex() == want.hex(), (n, i)


@pytest.mark.parametrize("dt", [DynkinType("A", 4), DynkinType("B", 5), DynkinType("C", 6),
                                DynkinType("D", 6)], ids=str)
def test_kr_qtable_calls_qdim_once_and_matches_kr_qchar(dt, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return qdim(*args)

    monkeypatch.setattr(qsys, "qdim", counted)
    qt = kr_qtable(dt, 3)
    assert len(calls) == 1
    rs = build_root_system(dt)
    for (i, m), v in qt.values.items():
        assert kr_qchar(rs, 3, i, m).hex() == v.hex(), (i, m)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 4), ("C", 5), ("D", 5)])
def test_qdim_sine_table_matches_the_direct_sines(family, rank):
    # the table is read at each pairing mod 2P, so pairings below zero or past 2P read it
    # too; the last stack mixes blocks of both kinds
    rs = build_root_system(DynkinType(family, rank))
    period = rs.t_group * (2 + rs.h_dual)
    rows = _QDIM_ENTRIES // len(rs.heights)
    rng = np.random.default_rng(period)
    mixed = np.concatenate((rng.integers(0, 2, (rows, rank)), rng.integers(0, 3 * period, (40, rank))))
    for weights in (rng.integers(0, 3, (40, rank)), rng.integers(0, 3 * period, (40, rank)),
                    rng.integers(-3 * period, period, (40, rank)), mixed):
        shifted = rs.pairings((rs.t_group // np.array(rs.t_i)) * (1 + weights))
        want = np.prod(_sin_pi(shifted, period) / _sin_pi(rs.heights, period), axis=-1)
        assert [q.hex() for q in qdim(rs, 2, weights).tolist()] == [q.hex() for q in want.tolist()]


@pytest.mark.parametrize("dt", [DynkinType("B", 6), DynkinType("C", 6), DynkinType("D", 6)], ids=str)
def test_qsol_properties_without_a_vanishing_cap(dt):
    rep = check_qsol_properties(dt)
    assert rep["symmetry"] <= 1e-9
    assert rep["growth"] == 0.0
    assert rep["vanishing"] <= 1e-9
