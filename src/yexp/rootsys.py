"""Root-system data for the classical families A/B/C/D, in closed form.

Inner products are normalized so that long roots have squared length 2. Scaled by t = t_group,
t<alpha, lambda> for a positive root alpha and a weight lambda with integer fundamental-weight
coordinates is an integer, a difference or a sum of lambda's epsilon-coordinates or one of them
(`root_pairings`). So no computation builds the roots; `build_root_system` lists them, each the
sum of two intervals of simple roots, for the tests' oracles.
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


@lru_cache(maxsize=4)  # the pairs of a few recent ranks; rank 2048's hold 32 MiB
def _pairs(m: int):
    """Every (i, j) with i < j < m, row-major as np.triu_indices(m, 1) lists them, read-only."""
    pairs = np.nonzero(np.arange(m)[:, None] < np.arange(m))
    for a in pairs:
        a.setflags(write=False)
    return pairs


def root_pairings(dt: DynkinType, weights) -> np.ndarray:
    """t<alpha, lambda> for every positive root alpha, in `_interval_ends`' order, and every weight
    lambda of an integer (n,) vector or (W, n) stack in fundamental coordinates; (R,) or (W, R) int64.

    lambda's epsilon-coordinates are reverse cumulative sums of its coordinates (Bourbaki, ch. VI,
    plates I-IV), taken in 2 epsilon for B and D, where omega_n (B) and omega_{n-1}, omega_n (D)
    contribute halves: twice the sums less c_n (B) or c_{n-1} + c_n (D), which also gives D's e_n
    c_n - c_{n-1}. Scaled by t, e_i -+ e_j pair to differences and sums of them, halved exactly in
    D; B's short e_i to the coordinate and C's long 2 e_i to twice it.
    """
    fam = dt.family
    c = np.asarray(weights)
    eps = np.cumsum(c[..., ::-1], axis=-1)[..., ::-1]
    if fam == "A":  # e_{n+1} pairs to 0
        eps = np.concatenate((eps, np.zeros_like(c[..., :1])), axis=-1)
    elif fam in ("B", "D"):
        eps = 2 * eps - (c[..., -1:] if fam == "B" else c[..., -2:-1] + c[..., -1:])
    i, j = _pairs(eps.shape[-1])
    left, right = eps[..., i], eps[..., j]
    single = (eps,) if fam == "B" else (2 * eps,) if fam == "C" else ()
    out = np.concatenate((left - right, *(() if fam == "A" else (left + right,)), *single), axis=-1)
    if fam == "D":
        out >>= 1  # every e_i -+ e_j pairs to an even sum in 2 epsilon
    return out


def lie_constants(dt: DynkinType):
    """(t_i, t, h_dual) in closed form (Bourbaki, ch. VI, plates I-IV): t_i = t for a short
    simple root (B's alpha_n, C's alpha_1 .. alpha_{n-1}) and 1 for a long one, t = 2 for B
    and C and 1 for A and D, and h_dual = n + 1, 2n - 1, n + 1, 2n - 2 for A, B, C, D."""
    n, fam = dt.rank, dt.family
    t_i = {"B": (1,) * (n - 1) + (2,), "C": (2,) * (n - 1) + (1,)}.get(fam, (1,) * n)
    return t_i, 2 if fam in ("B", "C") else 1, {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2}[fam]


def height_histograms(dt: DynkinType) -> np.ndarray:
    """Rows (short, long): how many positive roots of each length have each height t<rho, alpha>,
    as int64 counts over the heights 0 .. t(h_dual - 1), the highest root's, in O(n).

    rho's epsilon-coordinates, times t, run down the arithmetic progression q_k = a + s k, k < m:
    n .. 0 for A (m = n + 1), 2n - 1, 2n - 3 .. 1 for B, n .. 1 for C and n - 1 .. 0 for D. So
    e_i - e_j has height s d, m - d times for d = 1 .. m - 1; e_i + e_j has 2a + s u, with
    ceil(u / 2) - max(0, u - m + 1) pairs k < l of sum u = 1 .. 2m - 3; B's short e_i has q_k and
    C's long 2 e_i 2 q_k. The e_i -+ e_j are short in C and long elsewhere.
    """
    _, t, h_dual = lie_constants(dt)
    n, fam = dt.rank, dt.family
    m, a, s = (n + 1, 0, 1) if fam == "A" else (n, int(fam != "D"), 1 + (fam == "B"))
    hist = np.zeros((2, t * (h_dual - 1) + 1), dtype=np.int64)
    pairs, d, u, k = int(fam != "C"), np.arange(1, m), np.arange(1, 2 * m - 2), np.arange(m)
    hist[pairs, s * d] += m - d  # each += writes distinct heights: a fancy += drops repeats
    if fam != "A":
        hist[pairs, 2 * a + s * u] += (u + 1) // 2 - np.maximum(0, u - m + 1)
    if fam in ("B", "C"):
        hist[int(fam == "C"), (1 + (fam == "C")) * (a + s * k)] += 1
    return hist


@lru_cache(maxsize=8)  # a few recent types: a sweep builds each once, and a large one holds MiBs
def build_root_system(dt: DynkinType) -> RootSystem:
    """Construct the positive roots on the integer lattice, for the tests' oracles; the roots
    are asserted to give `lie_constants`' t (short roots exactly when t = 2) and h_dual, and
    long heights divisible by t."""
    fam = dt.family
    t_i, t_group, h_dual = lie_constants(dt)
    ends = _interval_ends(dt)
    long = np.full(len(ends), fam != "C")
    if fam in ("B", "C"):
        long[-dt.rank:] = fam == "C"  # B's e_i are short, C's 2 e_i long
    heights = root_pairings(dt, np.ones(dt.rank, dtype=np.int64)).astype(np.int32)  # each below 2 t h_dual
    assert long.all() == (t_group == 1) and not np.any(heights[long] % t_group), dt
    assert h_dual == 1 + int(heights[long].max()) // t_group, dt
    for a in (ends, long, heights):
        a.setflags(write=False)
    return RootSystem(type=dt, t_i=t_i, t_group=t_group, h_dual=h_dual, ends=ends, long=long, heights=heights)


def group_constants(dt: DynkinType):
    """Return (t, h_dual, period) with period = t * (2 + h_dual) at level 2, in closed form."""
    _, t, h_dual = lie_constants(dt)
    return t, h_dual, t * (2 + h_dual)
