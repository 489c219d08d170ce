"""Level-restricted constant Y-systems and the positive fixed point eta.

The coupling exponents form one cached integer matrix G over the index set H,
built from the row Cartan matrix with the convolution case picked by the
ratio t_first/t_second. The Q-system (and so `y_from_q`) reads G, the Y-system
reads its transpose: `READING` names this reading of the formula, the only one
of its 16 under which the closed-form type-B/D solutions satisfy both systems
(the tests search all 16). `newton_fixed_point` finds eta independently of the
Y-solution, in log coordinates, where the loop Jacobian stays bounded at every
rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Dict, Tuple

import numpy as np

from .errors import ConvergenceError, FixedPointError
from .qsys import QTable, closed_form_qtable
from .quiver import MutationLoop, build_mutation_loop
from .rootsys import DynkinType, RootSystem, build_root_system
from .yseed import log_cluster_transform, log_loop_jacobian


def index_set_H(dt: DynkinType, level: int = 2) -> Tuple[Tuple[int, int], ...]:
    """All (i, m) with 1 <= i <= rank and 1 <= m <= t_i * level - 1."""
    rs = build_root_system(dt)
    return tuple(
        (i, m)
        for i in range(1, dt.rank + 1)
        for m in range(1, rs.t_i[i - 1] * level)
    )


@dataclass(frozen=True)
class GReading:
    """A reading of the coupling-coefficient formula.

    cartan_convention: "row" for C_{ij} = 2<a_i,a_j>/<a_i,a_i>, "col" for the transpose.
    case_direction:    which ratio (t_first/t_second or the reverse) selects the
                       convolution case.
    ysys_order/qy_order: whether the exponent attached to position (j,k) in the
                       equation at (i,m) is G[(i,m),(j,k)] ("direct", G) or
                       G[(j,k),(i,m)] ("swapped", G transposed).
    """

    cartan_convention: str
    case_direction: str
    ysys_order: str
    qy_order: str


READING = GReading("row", "first/second", "swapped", "direct")


def _g_formula(t_i, cartan: np.ndarray, a: int, bm: int, c: int, dk: int) -> int:
    """Three-case coupling formula on first pair (a, bm), second pair (c, dk); the case is
    picked by t_a / t_c."""
    ta, tc = t_i[a - 1], t_i[c - 1]
    if ta == 2 * tc:
        coef = -cartan[c - 1, a - 1]
        return coef * ((bm == 2 * dk - 1) + 2 * (bm == 2 * dk) + (bm == 2 * dk + 1))
    if ta == 3 * tc:
        coef = -cartan[c - 1, a - 1]
        return coef * (
            (bm == 3 * dk - 2) + 2 * (bm == 3 * dk - 1) + 3 * (bm == 3 * dk)
            + 2 * (bm == 3 * dk + 1) + (bm == 3 * dk + 2)
        )
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


def g_coefficient(rs: RootSystem, i: int, m: int, j: int, k: int) -> int:
    """Coupling exponent G[(i, m), (j, k)] attached to (j, k) in the Q-system relation at (i, m)."""
    level = max(2, m // rs.t_i[i - 1] + 1, k // rs.t_i[j - 1] + 1)  # least level whose H holds both
    H = index_set_H(rs.type, level)
    return int(_g_matrix(rs.type, level)[H.index((i, m)), H.index((j, k))])


@dataclass(frozen=True)
class YSolution:
    type: DynkinType
    level: int
    values: Dict[Tuple[int, int], float]

    def value(self, i: int, m: int) -> float:
        return self.values[(i, m)]


def closed_form_y_exact(dt: DynkinType) -> Dict[Tuple[int, int], Fraction]:
    """Closed-form level-2 solutions for types B and D, as exact rationals."""
    n = dt.rank
    if dt.family == "B":
        vals = {(i, 1): Fraction(i * (i + 2)) for i in range(1, n)}
        vals[(n, 1)] = vals[(n, 3)] = Fraction(n, n + 1)
        vals[(n, 2)] = Fraction(n * n, 2 * n + 1)
        return vals
    if dt.family == "D":
        vals = {(i, 1): Fraction(i * (i + 2)) for i in range(1, n - 1)}
        vals[(n - 1, 1)] = vals[(n, 1)] = Fraction(n - 1)
        return vals
    raise ValueError(f"closed-form Y values cover types B and D, not {dt.family}")


def _q_and_y(qt: QTable):
    """(H, Q_m, Q_{m-1} Q_{m+1}, Y_m) over H = index_set_H, the last three as arrays,
    with Y = Q_m^2 prod Q^G / (Q_{m-1} Q_{m+1})."""
    H = index_set_H(qt.type, qt.level)
    q = np.array([qt.value(i, m) for i, m in H])
    ends = np.array([qt.value(i, m - 1) * qt.value(i, m + 1) for i, m in H])
    g = _g_matrix(qt.type, qt.level)
    return H, q, ends, q * q * np.exp(g @ np.log(q)) / ends


def y_from_q(qt: QTable) -> YSolution:
    """Positive Y-system solution Y = Q_m^2 prod Q^G / (Q_{m-1} Q_{m+1}) built from a Q-table."""
    H, _, _, y = _q_and_y(qt)
    return YSolution(qt.type, qt.level, dict(zip(H, y.tolist())))


def check_ysystem(ys: YSolution) -> float:
    """Max relative residual of Y_m^2 (1 + 1/Y_{m-1})(1 + 1/Y_{m+1}) = (1 + Y_m)^2 prod (1 + Y)^(G^T),
    with 1 + 1/Y = 1 at the ends m = 0, t_i * level."""
    H = index_set_H(ys.type, ys.level)
    y = np.array([ys.values[h] for h in H])
    inv = {h: 1.0 + 1.0 / v for h, v in ys.values.items()}
    den = np.array([inv.get((i, m - 1), 1.0) * inv.get((i, m + 1), 1.0) for i, m in H])
    g = _g_matrix(ys.type, ys.level).T
    rhs = (1.0 + y) ** 2 * np.exp(g @ np.log1p(y)) / den
    return float(np.max(np.abs(y * y - rhs) / (y * y)))


def calibrate_reading() -> GReading:
    """The reading of the coupling formula that every case uses, `READING`."""
    return READING


def y_solution(dt: DynkinType) -> YSolution:
    """Positive solution of the level-2 Y-system for any classical type."""
    if dt.family in ("B", "D"):
        return YSolution(dt, 2, {k: float(v) for k, v in closed_form_y_exact(dt).items()})
    return y_from_q(closed_form_qtable(dt))


@dataclass(frozen=True)
class EtaPoint:
    """The fixed point eta of a loop, its Y-solution and its residual max|mu_gamma(eta) - eta| / eta."""

    loop: MutationLoop
    eta: np.ndarray
    ysol: YSolution
    residual: float


def _eta_components(dt: DynkinType, ys: YSolution) -> np.ndarray:
    n = dt.rank
    Y = ys.value
    if dt.family == "A":
        vals = [Y(s, 1) if s % 2 == 0 else 1.0 / Y(s, 1) for s in range(1, n + 1)]
        return np.array(vals)
    if dt.family == "D":
        vals = [Y(s, 1) if s % 2 == n % 2 else 1.0 / Y(s, 1) for s in range(1, n - 1)]
        vals += [1.0 / Y(n - 1, 1), 1.0 / Y(n, 1)]
        return np.array(vals)
    if dt.family == "B":
        vals = []
        for s in range(1, n):
            if s == n - 1:
                vals.append((Y(n, 2) + 1.0) / Y(n - 1, 1))
            elif s % 2 == n % 2:
                vals.append(Y(s, 1))
            else:
                vals.append(1.0 / Y(s, 1))
        vals += [Y(n, 1), 1.0 / Y(n, 2), Y(n, 3)]
        right = {n + 1: Y(n - 1, 1)}
        for j in range(n + 2, 2 * n):
            right[j] = 1.0 / vals[(2 * n - j) - 1]
        vals += [right[j] for j in range(n + 1, 2 * n)]
        return np.array(vals)
    # C
    vals = []
    for i in range(1, n):
        for m in (1, 2, 3):
            if (i + m - n) % 2 == 0:
                vals.append(Y(i, m))
            else:
                vals.append(1.0 / Y(i, m))
    vals.append(Y(n, 1))
    vals.append((Y(n - 1, 2) + 1.0) / Y(n, 1))
    return np.array(vals)


def assemble_eta(dt: DynkinType, tol: float = 1e-9) -> EtaPoint:
    """Fixed point of the cluster transformation, assembled from the Y-solution.

    mu_gamma(eta) = eta is enforced on x = log eta by the residuals
    |expm1(mu_gamma(x) - x)| = |mu_gamma(eta) - eta| / eta, Newton's measure: one
    above `tol`, or nan, raises FixedPointError with them all.
    """
    loop = build_mutation_loop(dt)
    ys = y_solution(dt)
    eta = _eta_components(dt, ys)
    x = np.log(eta)
    residuals = np.abs(np.expm1(log_cluster_transform(loop, x) - x))
    worst = float(np.max(residuals))
    if not worst <= tol:
        raise FixedPointError(residuals, f"{dt}: assembled eta is not fixed (max residual {worst:.3e})")
    return EtaPoint(loop, eta, ys, worst)


def newton_fixed_point(
    loop: MutationLoop,
    start=None,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> np.ndarray:
    """Newton solve of mu_gamma(y) = y in log coordinates, from a positive start (default all ones).

    Solves F(x) = log_cluster_transform(x) - x = 0 with the matrix L(x) - I, so
    every iterate y = e^x is positive. The step length t starts at 1 and is halved
    until |F(x + t step)| <= (1 - 1e-4 t) |F(x)|, which a non-finite F never meets
    (Armijo backtracking; Dennis and Schnabel 1983, sec. 6.3). Converged when
    max|expm1(F)| = max|mu_gamma(y) - y| / |y| <= tol; raises ConvergenceError
    when t falls below machine epsilon or max_iter steps do not converge.
    """
    n = loop.n_vertices
    y0 = np.ones(n) if start is None else np.asarray(start, dtype=float)
    if (y0 <= 0).any():
        raise ValueError("start must be strictly positive")

    def residual(x):
        return log_cluster_transform(loop, x) - x

    x = np.log(y0)
    f = residual(x)
    last = math.inf
    for _ in range(max_iter):
        last = float(np.max(np.abs(np.expm1(f))))
        if last <= tol:
            return np.exp(x)
        step = np.linalg.solve(log_loop_jacobian(loop, x) - np.eye(n), -f)
        t = 1.0
        while not np.linalg.norm(trial := residual(x + t * step)) <= (1 - 1e-4 * t) * np.linalg.norm(f):
            t /= 2
            if t < np.finfo(float).eps:
                raise ConvergenceError(last, f"Newton line search stalled (residual {last:.3e})")
        x, f = x + t * step, trial
    raise ConvergenceError(last, f"Newton did not converge in {max_iter} iterations (residual {last:.3e})")


def ytable_csv(ys: YSolution) -> str:
    lines = ["i,m,Y"]
    for (i, m), v in sorted(ys.values.items()):
        lines.append(f"{i},{m},{v!r}")
    return "\n".join(lines) + "\n"


def eta_csv(ep: EtaPoint) -> str:
    lines = ["vertex,i,m,eta"]
    hindex = ep.loop.start.hindex
    for v, val in enumerate(ep.eta):
        i, m = hindex[v]
        lines.append(f"{v},{i},{m},{float(val)!r}")
    return "\n".join(lines) + "\n"
