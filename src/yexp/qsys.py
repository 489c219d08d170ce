"""Kirillov-Reshetikhin character sums specialized to the root of unity.

The q-dimension of an irreducible character is a product of sine ratios
over positive roots; KR characters at level ell are finite sums of such
terms. At level 2 the sums collapse to closed forms, which this module
also provides directly. The restricted Q-system couples the table through the
integer matrix G over the index set H (`_g_matrix`), which `ysys` reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Dict, Tuple

import numpy as np

from .rootsys import DynkinType, RootSystem, build_root_system

_QDIM_ENTRIES = 1 << 14  # (weight, root) pairs per qdim block


def _sin_pi(a, p: int):
    """sin(pi * a / p) for integer a (scalar or array) and integer p != 0.

    a is reduced mod 2|p| exactly and folded into [0, |p|/2] before the
    float sine, so every multiple of p gives exactly 0.0.
    """
    if p < 0:
        a, p = -a, -p
    r = np.mod(a, 2 * p)
    sign = np.where(r >= p, -1.0, 1.0)
    r = np.where(r >= p, r - p, r)
    r = np.where(2 * r > p, p - r, r)
    return sign * np.sin(np.pi * (r / p))


def qdim(rs: RootSystem, level: int, weight):
    """Specialized dimension of the irreducible with the given dominant weight.

    `weight` lists nonnegative coefficients in the fundamental-weight basis:
    one weight gives a float, a (W, n) stack of weights an array of W values.
    The q-dimension is prod over positive roots of
    sin(pi t<alpha, rho + lambda>/P) / sin(pi t<alpha, rho>/P) with
    P = t(level + h_dual) (Kac, Infinite-dimensional Lie algebras, ch. 13).
    Each sine is read by its integer pairing mod 2|P| from one table of the
    2|P| `_sin_pi` values, unless that table would outnumber the stack's
    (weight, root) pairs (a large |level|); then every sine is taken directly.
    The stack runs in blocks of about _QDIM_ENTRIES (weight, root) pairs.
    """
    n = rs.type.rank
    weight = np.asarray(weight)
    if weight.shape[-1:] != (n,):
        raise ValueError(f"weight needs {n} fundamental coordinates")
    t = rs.t_group
    period = t * (level + rs.h_dual)
    if period == 0 or not np.all(rs.heights % period):
        raise ZeroDivisionError(f"q-dimension denominator vanishes: P = {period} divides a root height")
    den = _sin_pi(rs.heights, period)
    scale = t // np.array(rs.t_i)
    stack = weight.reshape(-1, n)
    size = 2 * abs(period)
    table = _sin_pi(np.arange(size), period) if size <= len(stack) * len(den) else None
    rows = max(1, _QDIM_ENTRIES // len(den))
    q = np.empty(len(stack))
    for lo in range(0, len(stack), rows):
        shifted = rs.pairings(scale * (1 + stack[lo:lo + rows]))
        sines = _sin_pi(shifted, period) if table is None else table[shifted % size]
        q[lo:lo + rows] = np.prod(sines / den, axis=-1)
    q = q.reshape(weight.shape[:-1])
    return float(q) if weight.ndim == 1 else q


def _kr_terms(dt: DynkinType, t_i, i: int, m: int):
    """Weight tuples (fundamental coordinates) of the KR character sum."""
    n = dt.rank
    if m == 0:
        return [tuple([0] * n)]
    terms = []
    if dt.family == "A" or (dt.family == "C" and i == n) or (dt.family == "D" and i >= n - 1):
        w = [0] * n
        w[i - 1] = m
        return [tuple(w)]
    if dt.family in ("B", "D"):
        # chain k_{i'}, k_{i'+2}, ..., k_{i-2}, k_i with
        # t_i * (k_{i'} + ... + k_{i-2}) + k_i = m; node 0 contributes no weight
        ip = i % 2
        interior = list(range(ip, i - 1, 2))
        ti = t_i[i - 1]
        for s in range(m // ti + 1):
            ki = m - ti * s
            for combo in _compositions(s, len(interior)):
                w = [0] * n
                for node, c in zip(interior, combo):
                    if node > 0:
                        w[node - 1] = c
                w[i - 1] += ki
                terms.append(tuple(w))
        return terms
    # C, 1 <= i <= n-1: k_1 + ... + k_i <= m with k_j = m*delta_{i,j} (mod 2),
    # in lexicographic order, each coordinate bounded by what the sum leaves
    tail = (0,) * (n - i)

    def extend(prefix, budget):
        if len(prefix) == i - 1:
            terms.extend(prefix + (k,) + tail for k in range(m % 2, budget + 1, 2))
            return
        for k in range(0, budget + 1, 2):
            extend(prefix + (k,), budget - k)

    extend((), m)
    return terms


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _kr_values(rs: RootSystem, level: int, cells) -> np.ndarray:
    """Q_m^{(i)} for each (i, m) in `cells`: every cell's terms stacked into one
    `qdim` call, each cell's q-dimensions summed in term order by one bincount."""
    terms = [_kr_terms(rs.type, rs.t_i, i, m) for i, m in cells]
    stack = np.array([w for cell in terms for w in cell], dtype=np.int64).reshape(-1, rs.type.rank)
    owner = np.repeat(np.arange(len(terms)), [len(cell) for cell in terms])
    return np.bincount(owner, weights=qdim(rs, level, stack), minlength=len(terms))


def kr_qchar(rs: RootSystem, level: int, i: int, m: int) -> float:
    """KR character value Q_m^{(i)} as a sum of specialized q-dimensions."""
    n = rs.type.rank
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} out of range 1..{n}")
    if m < 0:
        raise ValueError(f"negative m = {m}")
    return float(_kr_values(rs, level, [(i, m)])[0])


@dataclass(frozen=True)
class QTable:
    """Restricted table {Q_m^{(i)} : 0 <= m <= t_i * level}."""

    type: DynkinType
    level: int
    t_i: Tuple[int, ...]
    values: Dict[Tuple[int, int], float]

    @property
    def rank(self):
        return self.type.rank

    def value(self, i: int, m: int) -> float:
        top = self.t_i[i - 1] * self.level
        if m == 0 or m == top:
            return 1.0
        return self.values[(i, m)]


def index_set_H(dt: DynkinType, level: int = 2) -> Tuple[Tuple[int, int], ...]:
    """All (i, m) with 1 <= i <= rank and 1 <= m <= t_i * level - 1."""
    rs = build_root_system(dt)
    return tuple(
        (i, m)
        for i in range(1, dt.rank + 1)
        for m in range(1, rs.t_i[i - 1] * level)
    )


def _g_formula(t_i, cartan: np.ndarray, a: int, bm: int, c: int, dk: int) -> int:
    """Coupling formula on first pair (a, bm), second pair (c, dk); the case is picked by
    t_a / t_c, which is 1, 2 or 1/2 for the classical types (every t_i is 1 or 2)."""
    ta, tc = t_i[a - 1], t_i[c - 1]
    if ta == 2 * tc:
        coef = -cartan[c - 1, a - 1]
        return coef * ((bm == 2 * dk - 1) + 2 * (bm == 2 * dk) + (bm == 2 * dk + 1))
    return -cartan[a - 1, c - 1] * (tc * bm == ta * dk)


@lru_cache(maxsize=None)
def _g_matrix(dt: DynkinType, level: int) -> np.ndarray:
    """Read-only integer G[p, q] = `_g_formula` on pairs H[p], H[q] of H = index_set_H(dt, level)
    with the row Cartan matrix; it vanishes unless the Cartan matrix couples the two nodes, so
    only those node pairs are visited."""
    rs = build_root_system(dt)
    cartan = np.array(rs.cartan)
    H = index_set_H(dt, level)
    pos = {h: p for p, h in enumerate(H)}
    g = np.zeros((len(H), len(H)), dtype=np.int64)
    for a, c in np.argwhere((cartan != 0) | (cartan.T != 0)) + 1:
        for bm, dk in iproduct(range(1, rs.t_i[a - 1] * level), range(1, rs.t_i[c - 1] * level)):
            g[pos[(a, bm)], pos[(c, dk)]] = _g_formula(rs.t_i, cartan, a, bm, c, dk)
    g.setflags(write=False)
    return g


def _q_and_y(qt: QTable):
    """(H, Q_m, Q_{m-1} Q_{m+1}, Y_m) over H = index_set_H, the last three as arrays,
    with Y = Q_m^2 prod Q^G / (Q_{m-1} Q_{m+1})."""
    H = index_set_H(qt.type, qt.level)
    q = np.array([qt.value(i, m) for i, m in H])
    ends = np.array([qt.value(i, m - 1) * qt.value(i, m + 1) for i, m in H])
    g = _g_matrix(qt.type, qt.level)
    return H, q, ends, q * q * np.exp(g @ np.log(q)) / ends


def kr_qtable(dt: DynkinType, level: int = 2) -> QTable:
    """Fill the restricted table by evaluating the KR character sums, all of
    its cells in one stacked pass (`_kr_values`)."""
    rs = build_root_system(dt)
    cells = [(i, m) for i in range(1, dt.rank + 1) for m in range(0, rs.t_i[i - 1] * level + 1)]
    return QTable(dt, level, rs.t_i, dict(zip(cells, _kr_values(rs, level, cells).tolist())))


def closed_form_qtable(dt: DynkinType) -> QTable:
    """Level-2 closed forms of the restricted table for the classical families."""
    rs = build_root_system(dt)
    n = dt.rank
    vals: Dict[Tuple[int, int], float] = {}

    s = _sin_pi(np.arange(n + 4), n + 3).tolist()

    if dt.family == "A":
        # the product over k of s(j + k) / s(j + k - 1) telescopes
        for i in range(1, n + 1):
            q = 1.0
            for j in range(1, i + 1):
                q *= s[j + n + 1 - i] / s[j]
            vals[(i, 1)] = q
    elif dt.family == "B":
        for i in range(1, n):
            vals[(i, 1)] = float(i + 1)
        vals[(n, 1)] = vals[(n, 3)] = math.sqrt(2 * n + 1)
        vals[(n, 2)] = float(n + 1)
    elif dt.family == "D":
        for i in range(1, n - 1):
            vals[(i, 1)] = float(i + 1)
        vals[(n - 1, 1)] = vals[(n, 1)] = math.sqrt(n)
    else:  # C
        sh = _sin_pi(np.arange(n + 4), 2 * (n + 3)).tolist()  # s at half-integer arguments
        for i in range(1, n + 1):
            vals[(i, 1)] = sh[i + 1] * sh[i + 3] * s[i + 2] / (sh[1] * sh[3] * s[2])
        for i in range(1, n):
            vals[(i, 2)] = (
                2 * sum(s[j] * s[j + 1] * s[j + 2] for j in range(0, i + 1))
                + s[i + 1] * s[i + 2] * s[i + 3]
            ) / (s[1] * s[2] * s[3])
            vals[(i, 3)] = vals[(i, 1)]
    for i in range(1, n + 1):
        vals[(i, 0)] = vals[(i, rs.t_i[i - 1] * 2)] = 1.0
    return QTable(dt, 2, rs.t_i, vals)


def check_restricted_qsystem(qt: QTable) -> float:
    """Max relative residual of the level-restricted Q-system Q_m^2 = Q_{m-1} Q_{m+1} + Q_m^2 prod Q^G,
    read as Q_m^2 = Q_{m-1} Q_{m+1} (1 + Y_m) with Y as `y_from_q` builds it, which takes the
    product; one array expression over H."""
    _, q, ends, y = _q_and_y(qt)
    return float(np.max(np.abs(q * q - ends * (1.0 + y)) / (q * q)))


def qtable_csv(qt: QTable) -> str:
    lines = ["i,m,Q"]
    for i in range(1, qt.rank + 1):
        for m in range(0, qt.t_i[i - 1] * qt.level + 1):
            lines.append(f"{i},{m},{qt.value(i, m)!r}")
    return "\n".join(lines) + "\n"
