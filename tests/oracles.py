"""Reference implementations that only the tests call.

The package's fast paths are compared with these: the textbook Y-seed value
rule at one vertex and the relabelling of a quiver, the coupling matrix G as a
dense array and one entry of it, the structural properties of the KR solution,
and a q-table's interior cells.
"""

from typing import Dict, Sequence

import numpy as np

from yexp.qsys import QTable, _g_entries, _kr_values, index_set_H, kr_qtable
from yexp.quiver import Quiver
from yexp.rootsys import DynkinType, RootSystem, build_root_system


class MutationDomainError(ArithmeticError):
    """A Y-seed mutation hit a pole (Y_k = 0 or a factor 1 + Y_k^{-1} = 0)."""

    def __init__(self, vertex, message=None):
        self.vertex = vertex
        super().__init__(message or f"mutation at vertex {vertex} hit a pole")


def mutate_values(arrows: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """The Y-seed value rule at k, applied to a copy of y; `mutate_quiver` is its arrow rule."""
    yk = y[k]
    if yk == 0:
        raise MutationDomainError(k)
    out = y.copy()
    out[k] = 1.0 / yk
    for i in np.flatnonzero(arrows[k] + arrows[:, k]):  # the neighbours of k; no other value changes
        a = arrows[k, i]
        b = arrows[i, k]
        if a > 0:
            base = 1.0 / yk + 1.0
            if base == 0:
                raise MutationDomainError(k)
            out[i] = y[i] * base ** (-a)
        elif b > 0:
            out[i] = y[i] * (yk + 1.0) ** b
    if not np.isfinite(out).all():
        raise MutationDomainError(k, f"mutation at vertex {k} produced a non-finite value")
    return out


def permute_quiver(q: Quiver, nu: Sequence[int]) -> Quiver:
    """Relabel vertices: nu(Q)_{i,j} = Q_{nu^-1(i), nu^-1(j)}."""
    nu = list(nu)
    if sorted(nu) != list(range(q.n_vertices)):
        raise ValueError("nu is not a bijection on the vertex set")
    b = np.zeros_like(q.arrows)
    b[np.ix_(nu, nu)] = q.arrows
    return Quiver(b)


def dense_g(dt: DynkinType, level: int) -> np.ndarray:
    """G as a dense H x H integer array over H = index_set_H(dt, level), scattered from its entries."""
    rows, cols, values = _g_entries(dt, level)
    size = len(index_set_H(dt, level))
    g = np.zeros((size, size), dtype=np.int64)
    g[rows, cols] = values
    return g


def g_coefficient(rs: RootSystem, i: int, m: int, j: int, k: int) -> int:
    """Coupling exponent G[(i, m), (j, k)] attached to (j, k) in the Q-system relation at (i, m)."""
    level = max(2, m // rs.t_i[i - 1] + 1, k // rs.t_i[j - 1] + 1)  # least level whose H holds both
    H = index_set_H(rs.type, level)
    return int(dense_g(rs.type, level)[H.index((i, m)), H.index((j, k))])


def interior_items(qt: QTable):
    """((i, m), Q_m^{(i)}) for every node i and 0 < m < t_i * level."""
    for i in range(1, qt.rank + 1):
        for m in range(1, qt.t_i[i - 1] * qt.level):
            yield (i, m), qt.value(i, m)


def check_qsol_properties(dt: DynkinType, level: int = 2, vanish_terms: int = None) -> Dict[str, float]:
    """Residuals for the three structural properties of the KR solution.

    symmetry:  Q_m = Q_{t_i*level - m} across each node's table;
    growth:    strict increase on the first half (reported as the worst
               margin violation, 0.0 when strictly increasing);
    vanishing: |Q_{t_i*level + j}| for 1 <= j <= t_i*h_dual - 1 (capped at
               `vanish_terms` values per node to keep enumeration small).
    """
    rs = build_root_system(dt)
    qt = kr_qtable(dt, level)
    sym = 0.0
    growth = 0.0
    for i in range(1, dt.rank + 1):
        top = rs.t_i[i - 1] * level
        for m in range(0, top + 1):
            sym = max(sym, abs(qt.value(i, m) - qt.value(i, top - m)))
        for m in range(0, top // 2):
            margin = qt.value(i, m + 1) - qt.value(i, m)
            if margin <= 0:
                growth = max(growth, -margin + 1e-300)
    cells = []
    for i in range(1, dt.rank + 1):
        top = rs.t_i[i - 1] * level
        jmax = rs.t_i[i - 1] * rs.h_dual - 1
        if vanish_terms is not None:
            jmax = min(jmax, vanish_terms)
        cells += [(i, top + j) for j in range(1, jmax + 1)]
    vanish = float(np.max(np.abs(_kr_values(rs, level, cells)), initial=0.0))
    return {"symmetry": sym, "growth": growth, "vanishing": vanish}
