"""Reference implementations that only the tests call.

The package's fast paths are compared with these: the textbook Y-seed value
rule at one vertex, a labeled quiver as a dense `Quiver`, an exchange matrix's
entries and its dense array read from each other, and the relabelling of a quiver,
the plain forward orbit of a periodicity check, the half period's relabelling read
from the theorem, the inverse loop compiled on its own exchange matrices,
the Cartan matrix and the coupling matrix G as dense arrays and one entry of G,
the roots' pairings as interval-prefix differences and the q-dimension read from
them, the structural properties of the KR solution, and a q-table's interior cells.
"""

from typing import Dict, Sequence

import numpy as np

from yexp.qsys import _QDIM_ENTRIES, QTable, _g_entries, _kr_values, _sin_pi, index_set_H, kr_qtable
from yexp.quiver import LabeledQuiver, MutationLoop, Quiver, _compile_loop
from yexp.rootsys import DynkinType, RootSystem, cartan_entries, lie_constants
from yexp.yseed import _run, log_cluster_transform


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


def dense_quiver(lq: LabeledQuiver) -> Quiver:
    """lq's arrow pairs as a dense Quiver, one arrow per pair."""
    a = np.zeros((lq.n_vertices, lq.n_vertices), dtype=int)
    np.add.at(a, tuple(np.array(lq.arrows, dtype=np.intp).reshape(-1, 2).T), 1)
    return Quiver(a)


def exchange_entries(b: np.ndarray):
    """The nonzero entries (i, j, b_ij) of a dense exchange matrix b, sorted by (i, j)."""
    i, j = np.nonzero(b)
    return i, j, b[i, j]


def exchange_matrix(entries, n: int) -> np.ndarray:
    """The dense n x n exchange matrix with these entries (i, j, b_ij)."""
    i, j, values = entries
    b = np.zeros((n, n), dtype=int)
    b[i, j] = values
    return b


def permute_quiver(q: Quiver, nu: Sequence[int]) -> Quiver:
    """Relabel vertices: nu(Q)_{i,j} = Q_{nu^-1(i), nu^-1(j)}."""
    nu = list(nu)
    if sorted(nu) != list(range(q.n_vertices)):
        raise ValueError("nu is not a bijection on the vertex set")
    b = np.zeros_like(q.arrows)
    b[np.ix_(nu, nu)] = q.arrows
    return Quiver(b)


def periodicity_residual(loop: MutationLoop, y: np.ndarray, period: int, sigma=slice(None)) -> float:
    """max |mu_gamma^period(y) - y[sigma]| / |y[sigma]| over the points y (k, N), by `period` forward
    steps on x = log y; sigma relabels the start, the identity by default."""
    x = x0 = np.log(y).T
    for _ in range(period):
        x = log_cluster_transform(loop, x)
    return float(np.max(np.abs(np.expm1(x - x0[sigma]))))


def half_turn_sigma(lq: LabeledQuiver) -> np.ndarray:
    """The half periodicity's relabelling, vertex by vertex from the theorem: v at (i, m) goes to the
    vertex at (omega(i), 2 t_i - m), omega the diagram involution (A's reversal, the swap of odd D's
    fork nodes n - 1 and n), and t_i = 1 past the rank."""
    dt = lq.type
    n, t_i = dt.rank, lie_constants(dt)[0]
    omega = {"A": lambda i: n + 1 - i, "D": lambda i: 2 * n - 1 - i if n % 2 and i >= n - 1 else i}
    flip = omega.get(dt.family, lambda i: i)
    return np.array([lq.vertex_of(flip(i), 2 * (t_i[i - 1] if i <= n else 1) - m) for i, m in lq.hindex])


def inverse_log_transform(loop: MutationLoop, x: np.ndarray) -> np.ndarray:
    """gamma^-1 on x = log y, compiled as a loop of its own: gamma^-1 = nu^-1 . mu_nu(S+) . mu_nu(S-)
    on nu(b''), b'' the exchange matrix that gamma's two phases leave (nu(b'') is b itself when the
    quiver returns), as nu conjugates mu_S on b to mu_nu(S) on nu(b)."""
    a = dense_quiver(loop.start).arrows
    _, end = _compile_loop(exchange_entries(a - a.T), loop.plus_set, loop.minus_set, loop.nu, "gamma")
    nu = np.asarray(loop.nu)
    start = np.empty_like(a)
    start[np.ix_(nu, nu)] = exchange_matrix(end, len(nu))
    (first, second), _ = _compile_loop(exchange_entries(start), tuple(nu[list(loop.minus_set)]),
                                       tuple(nu[list(loop.plus_set)]), tuple(np.argsort(nu)), "gamma^-1")
    return _run(second, _run(first, x))


def dense_cartan(dt: DynkinType) -> np.ndarray:
    """The row Cartan matrix as a dense n x n integer array, scattered from its entries."""
    rows, cols, values = cartan_entries(dt)
    cartan = np.zeros((dt.rank, dt.rank), dtype=np.int64)
    cartan[rows, cols] = values
    return cartan


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


def interval_pairings(ends: np.ndarray, w) -> np.ndarray:
    """sum_k c_k w_k for every root sum_k c_k alpha_k listed by its interval `ends` (as
    `RootSystem.ends`), for one (n,) vector or a (W, n) stack `w`: prefix-sum differences
    of w at the ends; the result is (R,) or (W, R)."""
    w = np.asarray(w)
    prefix = np.concatenate((np.zeros_like(w[..., :1]), np.cumsum(w, axis=-1)), axis=-1)
    lo1, hi1, lo2, hi2 = ends.T
    return prefix[..., hi1] - prefix[..., lo1] + prefix[..., hi2] - prefix[..., lo2]


def root_qdim(rs: RootSystem, level: int, weight):
    """`qsys.qdim` read from the root arrays: pairings t<alpha, rho + lambda> as interval-prefix
    differences of (t / t_j)(1 + c_j), the heights from `rs.heights`; the same sine table and blocks."""
    n = rs.type.rank
    weight = np.asarray(weight)
    if weight.shape[-1:] != (n,):
        raise ValueError(f"weight needs {n} fundamental coordinates")
    t = rs.t_group
    period = np.int64(t * (level + rs.h_dual))  # so that the int32 heights mod 2|P| are taken in int64
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
        shifted = interval_pairings(rs.ends, scale * (1 + stack[lo:lo + rows]))
        sines = _sin_pi(shifted, period) if table is None else table[shifted % size]
        q[lo:lo + rows] = np.prod(sines / den, axis=-1)
    q = q.reshape(weight.shape[:-1])
    return float(q) if weight.ndim == 1 else q


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
    t_i, _, h_dual = lie_constants(dt)
    qt = kr_qtable(dt, level)
    sym = 0.0
    growth = 0.0
    for i in range(1, dt.rank + 1):
        top = t_i[i - 1] * level
        for m in range(0, top + 1):
            sym = max(sym, abs(qt.value(i, m) - qt.value(i, top - m)))
        for m in range(0, top // 2):
            margin = qt.value(i, m + 1) - qt.value(i, m)
            if margin <= 0:
                growth = max(growth, -margin + 1e-300)
    cells = []
    for i in range(1, dt.rank + 1):
        top = t_i[i - 1] * level
        jmax = t_i[i - 1] * h_dual - 1
        if vanish_terms is not None:
            jmax = min(jmax, vanish_terms)
        cells += [(i, top + j) for j in range(1, jmax + 1)]
    vanish = float(np.max(np.abs(_kr_values(dt, level, cells)), initial=0.0))
    return {"symmetry": sym, "growth": growth, "vanishing": vanish}
