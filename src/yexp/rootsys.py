"""Root-system data for the classical families A/B/C/D.

Everything lives on the integer simple-root lattice. A root is its row of
coefficients k in alpha = sum_j k_j alpha_j, and inner products are
normalized so that long roots have squared length 2. Scaled by t = t_group
every pairing the package needs is an integer: t<alpha_i, alpha_j> =
C_ij t/t_i, and t<alpha, rho + lambda> = sum_j k_j (t/t_j)(1 + c_j) for a
weight lambda with fundamental-weight coordinates c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

import numpy as np

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}


@dataclass(frozen=True, order=True)
class DynkinType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _MIN_RANK:
            raise ValueError(f"unknown family {self.family!r}: expected one of A, B, C, D")
        lo = _MIN_RANK[self.family]
        if not isinstance(self.rank, int) or self.rank < lo:
            raise ValueError(f"rank {self.rank!r} invalid for family {self.family}: need an integer >= {lo}")

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootSystem:
    """Cartan data plus the positive roots as read-only integer arrays.

    `positive_roots[r]` is the simple-root coefficient row of root r,
    `long[r]` says whether it is long and `heights[r]` = t<rho, alpha_r>.
    The arrays follow from `type` and take no part in equality.
    """

    type: DynkinType
    cartan: Tuple[Tuple[int, ...], ...]
    t_i: Tuple[int, ...]
    t_group: int
    h_dual: int
    positive_roots: np.ndarray = field(compare=False)
    long: np.ndarray = field(compare=False)
    heights: np.ndarray = field(compare=False)


def _cartan(dt: DynkinType):
    """Row convention C_ij = 2<alpha_i, alpha_j>/<alpha_i, alpha_i>."""
    n = dt.rank
    c = 2 * np.eye(n, dtype=np.int64)
    for i in range(n - 1):
        c[i, i + 1] = c[i + 1, i] = -1
    if dt.family == "B":
        c[n - 1, n - 2] = -2
    elif dt.family == "C":
        c[n - 2, n - 1] = -2
    elif dt.family == "D":
        c[n - 2, n - 1] = c[n - 1, n - 2] = 0
        c[n - 3, n - 1] = c[n - 1, n - 3] = -1
    return c


def _positive_roots(dt: DynkinType):
    """Simple-root coefficient rows of the positive roots (Bourbaki, ch. VI, plates I-IV).

    e_i - e_j is the interval alpha_i + ... + alpha_{j-1}; for B/C/D,
    e_i + e_j adds the family's row for 2 e_j, and B/C add e_i and 2 e_i.
    """
    n, fam = dt.rank, dt.family

    def seg(lo, hi, c=1):
        row = np.zeros(n, dtype=np.int64)
        row[lo:hi] = c
        return row

    if fam == "A":
        return [seg(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    if fam == "B":
        two_e = [seg(j, n, 2) for j in range(n)]
    elif fam == "C":
        two_e = [seg(j, n - 1, 2) + seg(n - 1, n) for j in range(n)]
    else:  # D: alpha_{n-1} = e_{n-1} - e_n and alpha_n = e_{n-1} + e_n
        two_e = [seg(j, n - 2, 2) + seg(n - 2, n) for j in range(n - 1)]
        two_e.append(seg(n - 1, n) - seg(n - 2, n - 1))
    rows = [seg(i, j) for i in range(n) for j in range(i + 1, n)]
    rows += [seg(i, j) + two_e[j] for i in range(n) for j in range(i + 1, n)]
    if fam == "B":
        rows += [e // 2 for e in two_e]
    elif fam == "C":
        rows += two_e
    return rows


@lru_cache(maxsize=None)
def build_root_system(dt: DynkinType) -> RootSystem:
    """Construct the positive roots and Cartan data on the integer lattice."""
    cartan = _cartan(dt)
    t_group = 2 if dt.family in ("B", "C") else 1
    t_i = np.ones(dt.rank, dtype=np.int64)  # t_i = t for short simple roots
    if dt.family == "B":
        t_i[-1] = 2
    elif dt.family == "C":
        t_i[:-1] = 2
    gram = cartan * (t_group // t_i)[:, None]  # t<alpha_i, alpha_j>
    roots = np.array(_positive_roots(dt))
    long = np.einsum("ri,ij,rj->r", roots, gram, roots) == 2 * t_group
    heights = roots @ (t_group // t_i)
    assert not np.any(heights[long] % t_group), dt
    h_dual = 1 + int(heights[long].max()) // t_group
    for a in (roots, long, heights):
        a.setflags(write=False)
    return RootSystem(
        type=dt,
        cartan=tuple(map(tuple, cartan.tolist())),
        t_i=tuple(t_i.tolist()),
        t_group=t_group,
        h_dual=h_dual,
        positive_roots=roots,
        long=long,
        heights=heights,
    )


def group_constants(dt: DynkinType, level: int = 2):
    """Return (t, h_dual, period) with period = t * (level + h_dual)."""
    if level < 2:
        raise ValueError(f"level {level} not supported: need level >= 2")
    rs = build_root_system(dt)
    return rs.t_group, rs.h_dual, rs.t_group * (level + rs.h_dual)
