import math
from itertools import product

import numpy as np
import pytest

from yexp import qsys
from yexp.qsys import (_QDIM_ENTRIES, _kr_terms, _sin_pi, check_restricted_qsystem, closed_form_qtable,
                       kr_qchar, kr_qtable, qdim, qtable_csv)
from yexp.rootsys import DynkinType, build_root_system

from oracles import check_qsol_properties, interior_items, interval_pairings, root_qdim
from test_quiver import imported_names
from test_rootsys import _rows


def test_qsys_never_imports_ysys():
    # ysys reads the coupling matrix and the Q-to-Y map from qsys; the layering runs one way
    assert not [name for name in imported_names(qsys) if "ysys" in name.split(".")]


def test_qdim_trivial_weight():
    assert qdim(DynkinType("C", 3), 2, (0, 0, 0)) == pytest.approx(1.0)


def test_qdim_examples():
    assert qdim(DynkinType("B", 2), 2, (1, 0)) == pytest.approx(2.0, abs=1e-12)
    assert qdim(DynkinType("D", 4), 2, (0, 0, 0, 1)) == pytest.approx(2.0, abs=1e-12)  # sqrt(4)


@pytest.mark.parametrize("weight", [(1.5, 0), (1.0, 0.0), np.array([1.0, 0.0]), (1 + 0j, 0), (True, False),
                                    np.array([1, 0], dtype=object), np.array([[1, 0], [0, 1]], dtype=float)],
                         ids=repr)
def test_qdim_rejects_weights_without_an_integer_dtype(weight):
    # a fractional coordinate names no weight, and the epsilon-pairings would floor it
    with pytest.raises(ValueError, match="integer"):
        qdim(DynkinType("B", 2), 2, weight)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint16])
def test_qdim_takes_every_integer_dtype(dtype):
    dt = DynkinType("D", 5)
    weights = np.random.default_rng(5).integers(0, 3, (6, 5))
    want = [q.hex() for q in qdim(dt, 2, weights).tolist()]
    assert [q.hex() for q in qdim(dt, 2, weights.astype(dtype)).tolist()] == want
    assert qdim(dt, 2, (-1, 0, 2, 0, 0)) == root_qdim(build_root_system(dt), 2, (-1, 0, 2, 0, 0))


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
            assert qdim(rs.type, 2, w) > 0
    assert inside == 5  # (0, 2, 0) lies outside the level-2 alcove


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("C", 6), ("D", 7)])
def test_qdim_on_a_stack_matches_single_weights(family, rank):
    dt = DynkinType(family, rank)
    weights = np.random.default_rng(rank).integers(0, 4, (9, rank))
    stacked = qdim(dt, 2, weights)
    assert stacked.shape == (9,)
    assert [q.hex() for q in stacked.tolist()] == [qdim(dt, 2, tuple(w)).hex() for w in weights.tolist()]


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
    with pytest.raises(ZeroDivisionError):
        qdim(DynkinType("A", 2), level, (0, 0))


def test_kr_examples():
    assert kr_qchar(DynkinType("B", 4), 2, 4, 2) == pytest.approx(5.0, abs=1e-9)
    s = lambda x: math.sin(math.pi * x / 6)
    expected = s(1) * s(2) * s(3) / (s(0.5) * s(1.5) * s(2))
    assert kr_qchar(DynkinType("C", 3), 2, 1, 1) == pytest.approx(expected, abs=1e-9)
    s5 = lambda x: math.sin(math.pi * x / 5)
    expected = s5(2) / s5(1) * s5(3) / s5(2)
    assert kr_qchar(DynkinType("A", 2), 2, 1, 1) == pytest.approx(expected, abs=1e-9)


def test_kr_out_of_range():
    dt = DynkinType("B", 3)
    with pytest.raises(ValueError):
        kr_qchar(dt, 2, 0, 1)
    with pytest.raises(ValueError):
        kr_qchar(dt, 2, 4, 1)


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
    for j in range(1, 5):
        assert abs(kr_qchar(DynkinType("B", 3), 2, 1, 2 + j)) <= 1e-9


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
    """Reference terms of cell (i, m), from the textbook rule: the full product of the
    coordinates' ranges, filtered, in the product's (lexicographic) order.

    C below node n: k_1, ..., k_{i-1} even, k_i = m mod 2 and k_1 + ... + k_i <= m.
    B and D below the fork: k_j = 0 unless j = i mod 2, k_i = m mod t_i, and
    k_i + t_i (k_{i-2} + k_{i-4} + ...) = m, or <= m at even i, where omega_0 = 0 takes the rest.
    A, C's node n and D's fork nodes: m omega_i alone.
    """
    n, fam = dt.rank, dt.family
    if fam == "A" or (fam == "C" and i == n) or (fam == "D" and i >= n - 1):
        return [(0,) * (i - 1) + (m,) + (0,) * (n - i)]
    if fam == "C":
        ti, ranges = 1, [range(0, m + 1, 2)] * (i - 1) + [range(m % 2, m + 1, 2)]
    else:
        ti = t_i[i - 1]
        ranges = [range(m // ti + 1) if j % 2 == i % 2 else range(1) for j in range(1, i)]
        ranges.append(range(m % ti, m + 1, ti))
    fits = (lambda total: total == m) if fam != "C" and i % 2 else (lambda total: total <= m)
    return [combo + (0,) * (n - i) for combo in product(*ranges) if fits(combo[-1] + ti * sum(combo[:-1]))]


def _per_cell_qchar(rs, level, i, m):
    """Reference KR value: the cell's own sines and quotients, summed one term at a time."""
    period = rs.t_group * (level + rs.h_dual)
    weights = np.array(_product_kr_terms(rs.type, rs.t_i, i, m))
    shifted = interval_pairings(rs.ends, (rs.t_group // np.array(rs.t_i)) * (1 + weights))
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


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("dt", [dt for dt in FLOOR_TO_12 if dt.family != "C"], ids=str)
def test_table_terms_are_the_filtered_product(dt, level):
    # C's are test_c_table_terms_are_the_filtered_product
    rs = build_root_system(dt)
    cells = [(i, m) for i in range(1, dt.rank + 1) for m in range(rs.t_i[i - 1] * level + 1)]
    for (i, m), terms in zip(cells, _kr_terms(dt, rs.t_i, cells), strict=True):
        assert terms == _product_kr_terms(dt, rs.t_i, i, m), (i, m)


@pytest.mark.parametrize("dt", [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                                for r in range(lo, 7)], ids=str)
def test_terms_past_the_table_are_the_filtered_product(dt):
    # the level-2 table and the cells (i, 2 t_i + j), 1 <= j <= t_i h_dual - 1, that the
    # vanishing check asks for, all in one call and listed from the last node down
    rs = build_root_system(dt)
    cells = [(i, m) for i in range(dt.rank, 0, -1) for m in range(rs.t_i[i - 1] * (2 + rs.h_dual))]
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
    for (i, m), v in qt.values.items():
        assert kr_qchar(dt, 3, i, m).hex() == v.hex(), (i, m)


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
        shifted = interval_pairings(rs.ends, (rs.t_group // np.array(rs.t_i)) * (1 + weights))
        want = np.prod(_sin_pi(shifted, period) / _sin_pi(rs.heights, period), axis=-1)
        assert [q.hex() for q in qdim(rs.type, 2, weights).tolist()] == [q.hex() for q in want.tolist()]


@pytest.mark.parametrize("dt", [DynkinType("B", 6), DynkinType("C", 6), DynkinType("D", 6)], ids=str)
def test_qsol_properties_without_a_vanishing_cap(dt):
    rep = check_qsol_properties(dt)
    assert rep["symmetry"] <= 1e-9
    assert rep["growth"] == 0.0
    assert rep["vanishing"] <= 1e-9


@pytest.mark.parametrize("dt", [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                                for r in range(lo, 17)], ids=str)
def test_kr_qtable_is_the_root_based_qdim_bit_for_bit(dt, monkeypatch):
    # the same KR stack through the oracle, which pairs the roots' interval ends
    want = {k: v.hex() for k, v in kr_qtable(dt).values.items()}
    rs = build_root_system(dt)
    monkeypatch.setattr(qsys, "qdim", lambda _, level, weight: root_qdim(rs, level, weight))
    assert {k: v.hex() for k, v in kr_qtable(dt).values.items()} == want
