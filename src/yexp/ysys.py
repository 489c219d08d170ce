"""Level-restricted constant Y-systems and the positive fixed point eta.

The coupling exponents form one integer matrix G over the index set H, cached
as its nonzero entries (`qsys._g_entries`) and built from the row Cartan matrix
with the convolution case picked by the ratio t_first/t_second. The Q-system
(and so `y_from_q`) reads G, the Y-system reads its transpose, each as one sum
over the entries: `READING` names this reading of the formula, the only one
of its 16 under which the closed-form type-B/D solutions satisfy both systems
(the tests search all 16). eta is read from the Y-solution through
the quiver's phase signs: Y at a "+" vertex, 1/Y at every other, with two
closed-form entries (B's node n - 1, C's q). `newton_fixed_point` finds eta
independently of the Y-solution, in log coordinates, where the loop Jacobian
stays bounded at every rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import ConvergenceError, FixedPointError
from .qsys import QTable, _g_entries, _q_and_y, closed_form_qtable, index_set_H
from .quiver import LabeledQuiver, MutationLoop, build_mutation_loop
from .rootsys import DynkinType
from .yseed import _positive_points, log_cluster_transform, log_loop_jacobian

_NEWTON_TOL = 1e-12  # Newton takes its last step once max|mu_gamma(y) - y| / |y| is within this


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


@dataclass(frozen=True)
class YSolution:
    type: DynkinType
    level: int
    values: Dict[Tuple[int, int], float]

    def value(self, i: int, m: int) -> float:
        return self.values[(i, m)]


def closed_form_y_exact(dt: DynkinType) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Closed-form level-2 solutions for types B and D, each an exact rational as a
    (numerator, denominator) int pair in lowest terms."""
    n = dt.rank
    if dt.family == "B":
        vals = {(i, 1): (i * (i + 2), 1) for i in range(1, n)}
        vals[(n, 1)] = vals[(n, 3)] = (n, n + 1)
        vals[(n, 2)] = (n * n, 2 * n + 1)
        return vals
    if dt.family == "D":
        vals = {(i, 1): (i * (i + 2), 1) for i in range(1, n - 1)}
        vals[(n - 1, 1)] = vals[(n, 1)] = (n - 1, 1)
        return vals
    raise ValueError(f"closed-form Y values cover types B and D, not {dt.family}")


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
    rows, cols, g = _g_entries(ys.type, ys.level)
    gt_log = np.bincount(cols, weights=g * np.log1p(y)[rows], minlength=len(H))  # G^T log(1 + Y)
    rhs = (1.0 + y) ** 2 * np.exp(gt_log) / den
    return float(np.max(np.abs(y * y - rhs) / (y * y)))


def calibrate_reading() -> GReading:
    """The reading of the coupling formula that every case uses, `READING`."""
    return READING


def y_solution(dt: DynkinType) -> YSolution:
    """Positive solution of the level-2 Y-system for any classical type."""
    if dt.family in ("B", "D"):
        return YSolution(dt, 2, {k: p / q for k, (p, q) in closed_form_y_exact(dt).items()})  # rounded once
    return y_from_q(closed_form_qtable(dt))


@dataclass(frozen=True, eq=False)
class EtaPoint:
    """The fixed point eta of a loop, its Y-solution and its residual max|mu_gamma(eta) - eta| / eta."""

    loop: MutationLoop
    eta: np.ndarray
    ysol: YSolution
    residual: float


def _eta_components(lq: LabeledQuiver, ys: YSolution) -> np.ndarray:
    """eta_v = Y at v's (node, row) where v is "+", 1/Y elsewhere, with B's right-wing
    node i read at its mirror 2n - i; B's node n - 1 and C's q are the closed forms
    (Y_2^(n) + 1) / Y_1^(n-1) and (Y_2^(n-1) + 1) / Y_1^(n)."""
    n = lq.type.rank
    Y = ys.value
    y = np.array([Y(min(i, 2 * n - i), m) for i, m in lq.hindex])
    eta = np.where(np.array(lq.sign) == "+", y, 1.0 / y)
    if lq.type.family == "B":
        eta[lq.vertex_of(n - 1, 1)] = (Y(n, 2) + 1.0) / Y(n - 1, 1)
    if lq.type.family == "C":
        eta[lq.vertex_of(n + 1, 1)] = (Y(n - 1, 2) + 1.0) / Y(n, 1)
    return eta


def assemble_eta(dt: DynkinType, tol: float = 1e-9) -> EtaPoint:
    """Fixed point of the cluster transformation, assembled from the Y-solution.

    mu_gamma(eta) = eta is enforced on x = log eta by the residuals
    |expm1(mu_gamma(x) - x)| = |mu_gamma(eta) - eta| / eta, Newton's measure: one
    above `tol`, or nan, raises FixedPointError with them all.
    """
    loop = build_mutation_loop(dt)
    ys = y_solution(dt)
    eta = _eta_components(loop.start, ys)
    x = np.log(eta)
    residuals = np.abs(np.expm1(log_cluster_transform(loop, x) - x))
    worst = float(np.max(residuals))
    if not worst <= tol:
        raise FixedPointError(residuals, f"{dt}: assembled eta is not fixed (max residual {worst:.3e})")
    return EtaPoint(loop, eta, ys, worst)


def newton_fixed_point(loop: MutationLoop, start=None, max_iter: int = 60) -> np.ndarray:
    """Newton solve of mu_gamma(y) = y in log coordinates, from a positive start (default all ones).

    The start must be one positive, finite point of N values (`yseed._positive_points`),
    else ValueError.

    Solves F(x) = log_cluster_transform(x) - x = 0 with the matrix L(x) - I, so
    every iterate y = e^x is positive. The step length t starts at 1 and is halved
    until |F(x + t step)| <= (1 - 1e-4 t) |F(x)|, which a non-finite F never meets
    (Armijo backtracking; Dennis and Schnabel 1983, sec. 6.3). Once
    max|expm1(F)| = max|mu_gamma(y) - y| / |y| <= _NEWTON_TOL it takes one more full
    step and returns, so that where the test happens to pass does not set how close
    the result lies to the fixed point. Raises ConvergenceError when t falls below machine
    epsilon or max_iter steps do not converge.
    """
    n = loop.n_vertices
    y0 = np.ones(n) if start is None else _positive_points(loop, start, ndims=(1,))

    def residual(x):
        return log_cluster_transform(loop, x) - x

    x = np.log(y0)
    f = residual(x)
    last = math.inf
    for _ in range(max_iter):
        last = float(np.max(np.abs(np.expm1(f))))
        step = np.linalg.solve(log_loop_jacobian(loop, x) - np.eye(n), -f)
        if last <= _NEWTON_TOL:
            return np.exp(x + step)
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
