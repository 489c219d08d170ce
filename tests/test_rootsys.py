from math import comb

import numpy as np
import pytest

from yexp.qsys import qdim
from yexp.rootsys import DynkinType, build_root_system, cartan_entries, group_constants


POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
}

H_DUAL = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1, "D": lambda n: 2 * n - 2}

FLOOR = (("A", 1), ("B", 2), ("C", 2), ("D", 4))
ALL_TYPES = [DynkinType(f, r) for f, lo in FLOOR for r in range(lo, 13)]
TYPES_TO_40 = [DynkinType(f, r) for f, lo in FLOOR for r in range(lo, 41)]


def _rows(rs):
    """Simple-root coefficient rows of the positive roots, expanded from `ends`."""
    k = np.arange(rs.type.rank)
    lo1, hi1, lo2, hi2 = (e[:, None] for e in rs.ends.T)
    return ((lo1 <= k) & (k < hi1)).astype(np.int64) + ((lo2 <= k) & (k < hi2))


def _gram(rs):
    """Integer Gram matrix t<alpha_i, alpha_j> = C_ij t/t_i."""
    t_i = np.array(rs.t_i)
    return np.array(rs.cartan) * (rs.t_group // t_i)[:, None]


def _root_strings(cartan):
    """Positive roots from the Cartan matrix alone, by alpha-strings.

    Humphreys, Introduction to Lie Algebras, section 9.4: for a positive root
    alpha != alpha_i, with p the largest integer such that alpha - p alpha_i is
    a root, alpha + alpha_i is a root iff p - <alpha, alpha_i^vee> > 0.
    Roots are generated layer by layer in the sum of their coefficients.
    """
    cmat = np.array(cartan)
    n = len(cmat)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(unit)
    layer = set(unit)
    while layer:
        nxt = set()
        for a in layer:
            coroot_pairings = cmat @ np.array(a)  # <alpha, alpha_i^vee> (row convention)
            for i in range(n):
                p = 0
                down = list(a)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p - coroot_pairings[i] > 0:
                    up = list(a)
                    up[i] += 1
                    nxt.add(tuple(up))
        roots |= nxt
        layer = nxt
    return roots


@pytest.mark.parametrize("dt", TYPES_TO_40, ids=str)
def test_root_counts_and_lengths(dt):
    # `long` is set per block of roots, so the Gram matrix here is its only check
    rs = build_root_system(dt)
    rows = _rows(rs)
    assert rows.shape == (POSITIVE_COUNTS[dt.family](dt.rank), dt.rank)
    assert rs.ends.shape == (len(rows), 4)
    assert len(rs.long) == len(rs.heights) == len(rows)
    gram = _gram(rs)
    assert (gram == gram.T).all()
    t = rs.t_group
    lengths = np.einsum("ri,ij,rj->r", rows, gram, rows)  # t<alpha, alpha>: long 2t, short 2
    assert (lengths == np.where(rs.long, 2 * t, 2)).all()
    n_long = int(rs.long.sum())
    if dt.family == "B":
        assert len(rs.long) - n_long == dt.rank
    elif dt.family == "C":
        assert n_long == dt.rank
    else:
        assert rs.long.all()


@pytest.mark.parametrize("dt", TYPES_TO_40, ids=str)
def test_closed_form_roots_match_root_strings(dt):
    rs = build_root_system(dt)
    rows = [tuple(k) for k in _rows(rs).tolist()]
    assert len(set(rows)) == len(rows)
    assert set(rows) == _root_strings(rs.cartan)


def test_family_split_examples():
    b2 = build_root_system(DynkinType("B", 2))
    assert len(_rows(b2)) == 4
    assert int(b2.long.sum()) == 2
    d4 = build_root_system(DynkinType("D", 4))
    assert len(_rows(d4)) == 12 and d4.long.all()
    c3 = build_root_system(DynkinType("C", 3))
    assert len(_rows(c3)) == 9 and int(c3.long.sum()) == 3
    # long C roots are 2 e_i = 2(alpha_i + ... + alpha_{n-1}) + alpha_n
    assert {tuple(k) for k in _rows(c3)[c3.long].tolist()} == {(2, 2, 1), (0, 2, 1), (0, 0, 1)}


def test_pairing_examples():
    # B2 by hand: alpha_1 = e1 - e2 (long), alpha_2 = e2 (short), t = 2
    b2 = build_root_system(DynkinType("B", 2))
    assert _gram(b2).tolist() == [[4, -2], [-2, 2]]
    with pytest.raises(ValueError):
        qdim(b2, 2, (1,))


def test_rho_half_sum_oracle_b2():
    # independent oracle: the four positive roots of B_2 listed by hand,
    # with heights t<rho, alpha> from rho = (3/2, 1/2) in epsilon coordinates
    rs = build_root_system(DynkinType("B", 2))
    by_hand = {(1, 0): 2, (0, 1): 1, (1, 1): 3, (1, 2): 4}
    rows = list(map(tuple, _rows(rs).tolist()))
    assert dict(zip(rows, rs.heights.tolist())) == by_hand
    assert rs.long.tolist() == [k in ((1, 0), (1, 2)) for k in rows]


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_rho_equals_weight_sum(dt):
    # rho = half the sum of the positive roots equals the sum of the fundamental
    # weights: it pairs with every simple coroot to 1, i.e. t<rho, alpha_i> = t/t_i,
    # and with every positive root to its height
    rs = build_root_system(dt)
    gram = _gram(rs)
    rows = _rows(rs)
    two_rho = rows.sum(axis=0)
    assert (two_rho @ gram).tolist() == [2 * (rs.t_group // ti) for ti in rs.t_i]
    assert (rows @ gram @ two_rho).tolist() == (2 * rs.heights).tolist()


@pytest.mark.parametrize("dt", TYPES_TO_40, ids=str)
def test_pairings_match_rows(dt):
    rs = build_root_system(dt)
    rows = _rows(rs)
    w = np.random.default_rng(dt.rank).integers(-1000, 1000, (5, dt.rank))
    assert rs.pairings(w).tolist() == (w @ rows.T).tolist()
    assert rs.pairings(w[0]).tolist() == (rows @ w[0]).tolist()


@pytest.mark.parametrize("dt", [DynkinType("B", 256), DynkinType("D", 256)], ids=str)
def test_root_arrays_are_linear_in_the_root_count(dt):
    # the dense R x n rows would be 2 KB per root at rank 256
    rs = build_root_system(dt)
    n_roots = POSITIVE_COUNTS[dt.family](dt.rank)
    assert len(rs.heights) == n_roots
    assert rs.ends.nbytes + rs.long.nbytes + rs.heights.nbytes <= 64 * n_roots


def _fundamental_dims(dt):
    """Dimensions of the fundamental representations (Bourbaki, ch. VIII, tables)."""
    n = dt.rank
    if dt.family == "A":
        return [comb(n + 1, i) for i in range(1, n + 1)]
    if dt.family == "B":
        return [comb(2 * n + 1, i) for i in range(1, n)] + [2 ** n]
    if dt.family == "C":
        return [comb(2 * n, i) - comb(2 * n, i - 2) if i > 1 else 2 * n for i in range(1, n + 1)]
    return [comb(2 * n, i) for i in range(1, n - 1)] + [2 ** (n - 1)] * 2


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_fundamental_weight_duality(dt):
    # the fundamental-weight coordinates that qdim pairs with the roots are dual
    # to the simple coroots: at a large level the q-dimension of each
    # fundamental weight tends to the Weyl dimension of that representation
    rs = build_root_system(dt)
    for i, dim in enumerate(_fundamental_dims(dt)):
        weight = tuple(int(i == j) for j in range(dt.rank))
        assert qdim(rs, 10 ** 8, weight) == pytest.approx(dim, rel=1e-9)


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_group_constants(dt):
    rs = build_root_system(dt)
    assert rs.h_dual == H_DUAL[dt.family](dt.rank)
    assert rs.t_group == (2 if dt.family in ("B", "C") else 1)
    n = dt.rank
    expected_t_i = {"B": (1,) * (n - 1) + (2,), "C": (2,) * (n - 1) + (1,)}.get(dt.family, (1,) * n)
    assert rs.t_i == expected_t_i
    heights = dict(zip(map(tuple, _rows(rs).tolist()), rs.heights.tolist()))
    for i, ti in enumerate(rs.t_i):
        simple = tuple(int(i == j) for j in range(n))
        assert heights[simple] == rs.t_group // ti


def test_periods():
    for n in range(2, 9):
        assert group_constants(DynkinType("C", n))[2] == 2 * n + 6
        assert group_constants(DynkinType("B", n))[2] == 4 * n + 2
    for n in range(4, 9):
        assert group_constants(DynkinType("D", n))[2] == 2 * n
    assert group_constants(DynkinType("A", 2))[2] == 5


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 6)])
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        DynkinType(family, rank)


@pytest.mark.parametrize("family,lo", [("A", 1), ("B", 2), ("C", 2), ("D", 4)])
def test_cartan_entries_are_the_nonzeros_of_the_cartan_matrix(family, lo):
    for rank in list(range(lo, 13)) + [40]:
        rs = build_root_system(DynkinType(family, rank))
        cartan = np.array(rs.cartan)
        rows, cols = np.nonzero(cartan)  # row-major
        entries = cartan_entries(rs.type)
        assert [e.tolist() for e in entries] == [rows.tolist(), cols.tolist(), cartan[rows, cols].tolist()]
        # symmetrized by the squared root lengths, proportional to 1 / t_i
        scaled = cartan / np.array(rs.t_i)[:, None]
        assert np.array_equal(scaled, scaled.T)


def test_cartan_convention_b():
    # rows normalized by the row root: C[n-1][n] = -1 (long row), C[n][n-1] = -2 (short row)
    rs = build_root_system(DynkinType("B", 4))
    assert rs.cartan[2][3] == -1
    assert rs.cartan[3][2] == -2
    rs = build_root_system(DynkinType("C", 4))
    assert rs.cartan[2][3] == -2
    assert rs.cartan[3][2] == -1
