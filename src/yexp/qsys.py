"""Kirillov-Reshetikhin character sums specialized to the root of unity.

The q-dimension of an irreducible character is a product of sine ratios
over positive roots, read from epsilon-coordinates with no root system built;
KR characters at level ell are finite sums of such terms. At level 2 the sums
collapse to closed forms, which this module also provides directly. A q-table
lists the KR terms of all of its cells by one chain rule for every family, in
one pass over the nodes (`_kr_terms`), and evaluates them in one stacked `qdim`
call. The restricted Q-system couples the table through the integer matrix G
over the index set H, kept as its O(rank) nonzero entries (`_g_entries`), which
`ysys` reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import Dict, Tuple

import numpy as np

from .rootsys import DynkinType, cartan_entries, lie_constants, root_pairings

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


def qdim(dt: DynkinType, level: int, weight):
    """Specialized dimension of the irreducible with the given dominant weight.

    `weight` lists integer coefficients in the fundamental-weight basis:
    one weight gives a float, a (W, n) stack of weights an array of W values.
    The q-dimension is prod over positive roots of
    sin(pi t<alpha, rho + lambda>/P) / sin(pi t<alpha, rho>/P) with
    P = t(level + h_dual) (Kac, Infinite-dimensional Lie algebras, ch. 13),
    every pairing read from epsilon-coordinates by `root_pairings`.
    Each sine is read by its integer pairing mod 2|P| from one table of the
    2|P| `_sin_pi` values, unless that table would outnumber the stack's
    (weight, root) pairs (a large |level|); then every sine is taken directly.
    The stack runs in blocks of about _QDIM_ENTRIES (weight, root) pairs.
    """
    n = dt.rank
    weight = np.asarray(weight)
    if weight.shape[-1:] != (n,) or weight.dtype.kind not in "iu":
        raise ValueError(f"weight needs {n} integer fundamental coordinates, got dtype {weight.dtype}")
    _, t, h_dual = lie_constants(dt)
    heights = root_pairings(dt, np.ones(n, dtype=np.int64))
    period = t * (level + h_dual)
    if period == 0 or not np.all(heights % period):
        raise ZeroDivisionError(f"q-dimension denominator vanishes: P = {period} divides a root height")
    stack = weight.reshape(-1, n).astype(np.int64, copy=False)
    size = 2 * abs(period)
    table = _sin_pi(np.arange(size), period) if size <= len(stack) * len(heights) else None
    den = _sin_pi(heights, period) if table is None else table[heights % size]
    rows = max(1, _QDIM_ENTRIES // len(den))
    q = np.empty(len(stack))
    for lo in range(0, len(stack), rows):
        shifted = root_pairings(dt, 1 + stack[lo:lo + rows])
        sines = _sin_pi(shifted, period) if table is None else table[np.remainder(shifted, size, out=shifted)]
        q[lo:lo + rows] = np.prod(np.divide(sines, den, out=sines), axis=-1)
    q = q.reshape(weight.shape[:-1])
    return float(q) if weight.ndim == 1 else q


def _kr_terms(dt: DynkinType, t_i, cells):
    """Weight tuples (fundamental coordinates) of the KR character sums, one list per
    cell (i, m) of `cells`, in its sum's order: lexicographic in (k_1, ..., k_i).

    Cell (i, m) reads the chain i - g, i - 2g, ... down to node 0 or 1, with g = 1 for type C
    and 2 for B and D, and takes k_i + p (the chain's coordinate sum) = m, each coordinate a
    multiple of u: (u, p) = (2, 1) for C and (1, t_i) for B and D. Node 0 carries no weight
    and absorbs the slack, so where it is on the chain (i = 0 mod g) k_i runs over
    m - p sum, m - p sum - up, ... down to its least nonnegative value. Type A, C's node n and
    D's fork nodes have an empty chain and no slack: one term, k_i = m. All cells take one pass
    over the nodes: for each class of nodes mod g, the prefixes (k_1, ..., k_{i-1}) free at that
    class and 0 elsewhere grow one coordinate at a time under the largest budget, and each cell
    at node i appends its k_i to the prefixes of i's class.
    """
    n, fam = dt.rank, dt.family
    g, u, p = (1, 2, (1,) * n) if fam == "C" else (2, 1, t_i)
    out = [None] * len(cells)
    pending = {}  # chained node -> [(cell index, m)]
    for c, (i, m) in enumerate(cells):
        if fam == "A" or (fam == "C" and i == n) or (fam == "D" and i >= n - 1):
            out[c] = [(0,) * (i - 1) + (m,) + (0,) * (n - i)]
        else:
            pending.setdefault(i, []).append((c, m))
    budget = max((m // p[i - 1] for i, node in pending.items() for _, m in node), default=0)
    prefixes = [[((), 0)]] * g  # prefixes[r]: (k_1, ..., k_{i-1}) and its sum, free at nodes = r mod g
    for i in range(1, max(pending, default=0) + 1):
        if i > 1:
            prefixes = [[(q + (k,), s + k) for q, s in prefixes[r]
                         for k in (range(0, budget - s + 1, u) if (i - 1) % g == r else (0,))] for r in range(g)]
        tail, w, step = (0,) * (n - i), p[i - 1], u * p[i - 1]
        for c, m in pending.get(i, ()):
            tops = [(q, m - w * s) for q, s in prefixes[i % g] if w * s <= m]
            out[c] = [q + (k,) + tail for q, top in tops
                      for k in range(top % step if i % g == 0 else top, top + 1, step)]
    return out


def _kr_values(dt: DynkinType, level: int, cells) -> np.ndarray:
    """Q_m^{(i)} for each (i, m) in `cells`: every cell's terms, listed in one `_kr_terms`
    pass, stacked into one `qdim` call, each cell's q-dimensions summed in term order by
    one bincount."""
    terms = _kr_terms(dt, lie_constants(dt)[0], cells)
    sizes = [len(cell) for cell in terms]
    stack = np.fromiter(chain.from_iterable(chain.from_iterable(terms)), np.int64, sum(sizes) * dt.rank)
    owner = np.repeat(np.arange(len(terms)), sizes)
    return np.bincount(owner, weights=qdim(dt, level, stack.reshape(-1, dt.rank)), minlength=len(terms))


def kr_qchar(dt: DynkinType, level: int, i: int, m: int) -> float:
    """KR character value Q_m^{(i)} as a sum of specialized q-dimensions."""
    n = dt.rank
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} out of range 1..{n}")
    if m < 0:
        raise ValueError(f"negative m = {m}")
    return float(_kr_values(dt, level, [(i, m)])[0])


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
    t_i = lie_constants(dt)[0]
    return tuple(
        (i, m)
        for i in range(1, dt.rank + 1)
        for m in range(1, t_i[i - 1] * level)
    )


@lru_cache(maxsize=None)
def _g_entries(dt: DynkinType, level: int):
    """G's nonzero entries over H = index_set_H(dt, level) as read-only (rows, cols, values)
    integer arrays, sorted row-major.

    G[(a, b), (c, d)] vanishes unless the row Cartan matrix C couples nodes a and c. The case
    is picked by t_a / t_c (every t_i is 1 or 2): -C_ac at t_c b = t_a d, except that
    t_a = 2 t_c gives -C_ca times 1, 2, 1 at b = 2d - 1, 2d, 2d + 1. So each coupled pair
    runs over s = 1 .. min(t_a, t_c) level - 1 with (b, d) = (t_a, t_c) s / min(t_a, t_c),
    and b - 1, b + 1 too in the last case.
    """
    t = np.array(lie_constants(dt)[0])
    a, c, cac = cartan_entries(dt)
    cca = cac[np.lexsort((a, c))]  # the coupled pairs are closed under transposition
    conv = t[a] == 2 * t[c]
    low = np.minimum(t[a], t[c])
    sizes = t * level - 1  # H holds (i, 1), ..., (i, t_i * level - 1)
    first = np.cumsum(sizes) - sizes  # H's position of (i, 1)
    count = low * level - 1
    pair = np.repeat(np.arange(len(a)), count)
    s = np.arange(1, len(pair) + 1) - np.repeat(np.cumsum(count) - count, count)
    pair, s = pair[:, None], s[:, None]
    weight = np.where(conv[pair], [1, 2, 1], [0, 1, 0])
    rows = first[a][pair] + (t[a] // low)[pair] * s + [-2, -1, 0]  # H's position of (a, b + delta), delta = -1, 0, 1
    cols = np.broadcast_to(first[c][pair] + (t[c] // low)[pair] * s - 1, weight.shape)
    values = -np.where(conv, cca, cac)[pair] * weight
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    order = np.lexsort((cols, rows))
    entries = rows[order], cols[order], values[order]
    for e in entries:
        e.setflags(write=False)
    return entries


def _q_and_y(qt: QTable):
    """(H, Q_m, Q_{m-1} Q_{m+1}, Y_m) over H = index_set_H, the last three as arrays,
    with Y = Q_m^2 prod Q^G / (Q_{m-1} Q_{m+1}); G log Q is one bincount over G's entries."""
    H = index_set_H(qt.type, qt.level)
    q = np.array([qt.value(i, m) for i, m in H])
    ends = np.array([qt.value(i, m - 1) * qt.value(i, m + 1) for i, m in H])
    rows, cols, g = _g_entries(qt.type, qt.level)
    g_log_q = np.bincount(rows, weights=g * np.log(q)[cols], minlength=len(H))
    return H, q, ends, q * q * np.exp(g_log_q) / ends


def kr_qtable(dt: DynkinType, level: int = 2) -> QTable:
    """Fill the restricted table by evaluating the KR character sums, all of
    its cells in one stacked pass (`_kr_values`)."""
    t_i = lie_constants(dt)[0]
    cells = [(i, m) for i in range(1, dt.rank + 1) for m in range(0, t_i[i - 1] * level + 1)]
    return QTable(dt, level, t_i, dict(zip(cells, _kr_values(dt, level, cells).tolist())))


def closed_form_qtable(dt: DynkinType) -> QTable:
    """Level-2 closed forms of the restricted table for the classical families."""
    t_i = lie_constants(dt)[0]
    n = dt.rank
    vals: Dict[Tuple[int, int], float] = {}

    s = _sin_pi(np.arange(n + 4), n + 3).tolist()

    if dt.family == "A":
        # prod over j <= i, k <= n + 1 - i of s(j + k) / s(j + k - 1) telescopes, by s(n + 3 - k) = s(k)
        vals.update({(i, 1): s[i + 1] / s[1] for i in range(1, n + 1)})
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
        # running sums of s[j] s[j + 1] s[j + 2] from j = 0, added left to right
        partial = list(accumulate(s[j] * s[j + 1] * s[j + 2] for j in range(n)))
        for i in range(1, n):
            vals[(i, 2)] = (2 * partial[i] + s[i + 1] * s[i + 2] * s[i + 3]) / (s[1] * s[2] * s[3])
            vals[(i, 3)] = vals[(i, 1)]
    for i in range(1, n + 1):
        vals[(i, 0)] = vals[(i, t_i[i - 1] * 2)] = 1.0
    return QTable(dt, 2, t_i, vals)


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
