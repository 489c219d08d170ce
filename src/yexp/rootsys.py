"""Root-system data for the classical families A/B/C/D.

Everything lives on the integer simple-root lattice. Every positive root
alpha = sum_j k_j alpha_j is the sum of two intervals of simple roots, so its
pairing sum_j k_j w_j with an integer vector w is a difference of prefix sums
of w. Inner products are normalized so that long roots have squared length 2.
Scaled by t = t_group every pairing the package needs is an integer:
t<alpha, rho + lambda> = sum_j k_j (t/t_j)(1 + c_j) for a weight lambda with
fundamental-weight coordinates c.
"""

from __future__ import annotations

import operator
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
        try:  # any integer but a bool, numpy's too, kept as a Python int
            rank = -1 if isinstance(self.rank, bool) else operator.index(self.rank)
        except TypeError:
            rank = -1
        if rank < lo:
            raise ValueError(f"rank {self.rank!r} invalid for family {self.family}: need an integer >= {lo}")
        object.__setattr__(self, "rank", rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootSystem:
    """Lie data (t_i, t, dual Coxeter number) plus the positive roots as read-only arrays.

    Root r is the sum of alpha_k over lo1 <= k < hi1 and over lo2 <= k < hi2
    (k 0-based), with (lo1, hi1, lo2, hi2) = `ends[r]`; `long[r]` says whether
    it is long and `heights[r]` = t<rho, alpha_r>. `ends` and `heights` are
    int32. The arrays follow from `type` and take no part in equality.
    """

    type: DynkinType
    t_i: Tuple[int, ...]
    t_group: int
    h_dual: int
    ends: np.ndarray = field(compare=False)
    long: np.ndarray = field(compare=False)
    heights: np.ndarray = field(compare=False)

    def pairings(self, w):
        """sum_k c_k w_k for every root sum_k c_k alpha_k; see `_pairings`."""
        return _pairings(self.ends, w)


def _pairings(ends, w):
    """Prefix-sum differences of `w`, one (n,) vector or a (W, n) stack, at the
    interval ends; the result is (R,) or (W, R)."""
    w = np.asarray(w)
    prefix = np.concatenate((np.zeros_like(w[..., :1]), np.cumsum(w, axis=-1)), axis=-1)
    lo1, hi1, lo2, hi2 = ends.T
    return prefix[..., hi1] - prefix[..., lo1] + prefix[..., hi2] - prefix[..., lo2]


def cartan_entries(dt: DynkinType):
    """The nonzero entries of the row Cartan matrix C_ij = 2<alpha_i, alpha_j>/<alpha_i, alpha_i>
    as (rows, cols, values) integer arrays, 0-based and row-major: 2 on the diagonal and -1 at
    both ends of each bond of the Dynkin diagram, but -2 in the short node's row of B's and
    C's double bond."""
    n = dt.rank
    a = np.arange(n - 1)
    b = a + 1
    if dt.family == "D":  # the fork: n - 3 bonds to n - 1 in place of n - 2
        a[-1] = n - 3
    ab, ba = np.full(n - 1, -1), np.full(n - 1, -1)
    if dt.family == "B":
        ba[-1] = -2
    elif dt.family == "C":
        ab[-1] = -2
    diag = np.arange(n)
    rows, cols = np.concatenate((diag, a, b)), np.concatenate((diag, b, a))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.concatenate((np.full(n, 2), ab, ba))[order]


def _interval_ends(dt: DynkinType):
    """(lo1, hi1, lo2, hi2) rows of the positive roots (Bourbaki, ch. VI, plates I-IV).

    e_i - e_j is the interval alpha_i + ... + alpha_{j-1}. For B/C/D, e_i + e_j
    is alpha_i + ... + alpha_n plus alpha_j + ... + alpha_tail, with tail n, n-1
    or n-2 for B, C or D (D's e_i + e_n drops alpha_{n-1} instead), and B/C add
    e_i and 2 e_i. The int32 array holds the 0-based half-open ends, each at most n.
    """
    n, fam = dt.rank, dt.family
    i, j = np.triu_indices(n + (fam == "A"), 1)
    blocks = [(i, j, 0, 0)]
    if fam == "D":  # e_i + e_n = (alpha_i + ... + alpha_{n-2}) + alpha_n
        last = j == n - 1
        blocks.append((i, np.where(last, n - 2, n), j, np.where(last, n, n - 2)))
    elif fam != "A":
        blocks.append((i, n, j, n if fam == "B" else n - 1))
        k = np.arange(n)
        blocks.append((k, n, 0, 0) if fam == "B" else (k, n, k, n - 1))
    return np.concatenate([np.stack(np.broadcast_arrays(*b), axis=1, dtype=np.int32) for b in blocks])


@lru_cache(maxsize=8)  # a few recent types: a sweep builds each once, and a large one holds MiBs
def build_root_system(dt: DynkinType) -> RootSystem:
    """Construct the positive roots and their Lie data on the integer lattice."""
    fam = dt.family
    t_group = 2 if fam in ("B", "C") else 1
    t_i = np.ones(dt.rank, dtype=np.int64)  # t_i = t for short simple roots
    if fam == "B":
        t_i[-1] = 2
    elif fam == "C":
        t_i[:-1] = 2
    ends = _interval_ends(dt)
    long = np.full(len(ends), fam != "C")
    if fam in ("B", "C"):
        long[-dt.rank:] = fam == "C"  # B's e_i are short, C's 2 e_i long
    heights = _pairings(ends, t_group // t_i).astype(np.int32)  # each below 2 t h_dual
    assert not np.any(heights[long] % t_group), dt
    for a in (ends, long, heights):
        a.setflags(write=False)
    return RootSystem(
        type=dt,
        t_i=tuple(t_i.tolist()),
        t_group=t_group,
        h_dual=1 + int(heights[long].max()) // t_group,
        ends=ends,
        long=long,
        heights=heights,
    )


def group_constants(dt: DynkinType):
    """Return (t, h_dual, period) with period = t * (2 + h_dual) at level 2."""
    rs = build_root_system(dt)
    return rs.t_group, rs.h_dual, rs.t_group * (2 + rs.h_dual)
