"""Level-restricted constant Y-systems and the positive fixed point eta.

The coupling coefficients G admit several inequivalent readings (Cartan
transpose, index order, ratio direction), so this module calibrates the
reading once against the closed-form type-B/D solutions (exact rationals).
Only the search itself passes candidate readings around; everything else uses
the calibrated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Dict, Tuple

import numpy as np

from .errors import CalibrationError, ConvergenceError, FixedPointError
from .qsys import QTable, closed_form_qtable
from .quiver import MutationLoop, build_mutation_loop
from .rootsys import DynkinType, RootSystem, build_root_system
from .yseed import cluster_transform, loop_jacobian


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
    """Calibrated reading of the coupling-coefficient formula.

    cartan_convention: "row" for C_{ij} = 2<a_i,a_j>/<a_i,a_i>, "col" for the transpose.
    case_direction:    which ratio (t_first/t_second or the reverse) selects the
                       convolution case.
    ysys_order/qy_order: whether the exponent attached to position (j,k) in the
                       equation at (i,m) is G[(i,m),(j,k)] ("direct") or
                       G[(j,k),(i,m)] ("swapped").
    """

    cartan_convention: str
    case_direction: str
    ysys_order: str
    qy_order: str


def _cartan_entry(rs: RootSystem, a: int, b: int, convention: str) -> int:
    if convention == "row":
        return rs.cartan[a - 1][b - 1]
    return rs.cartan[b - 1][a - 1]


def _g_formula(rs: RootSystem, a: int, bm: int, c: int, dk: int, convention: str, direction: str) -> int:
    """Three-case coupling formula on first pair (a, bm), second pair (c, dk)."""
    ta, tc = rs.t_i[a - 1], rs.t_i[c - 1]
    num, den = (ta, tc) if direction == "first/second" else (tc, ta)
    if num == 2 * den:
        coef = -_cartan_entry(rs, c, a, convention)
        return coef * ((bm == 2 * dk - 1) + 2 * (bm == 2 * dk) + (bm == 2 * dk + 1))
    if num == 3 * den:
        coef = -_cartan_entry(rs, c, a, convention)
        return coef * (
            (bm == 3 * dk - 2) + 2 * (bm == 3 * dk - 1) + 3 * (bm == 3 * dk)
            + 2 * (bm == 3 * dk + 1) + (bm == 3 * dk + 2)
        )
    return -_cartan_entry(rs, a, c, convention) * (tc * bm == ta * dk)


def g_coefficient(rs: RootSystem, i: int, m: int, j: int, k: int,
                  reading: GReading | None = None) -> int:
    """Coupling exponent attached to (j, k) in the Q-system relation at (i, m)
    under `reading` (default: the calibrated one)."""
    reading = reading or calibrate_reading()
    if reading.qy_order == "direct":
        return _g_formula(rs, i, m, j, k, reading.cartan_convention, reading.case_direction)
    return _g_formula(rs, j, k, i, m, reading.cartan_convention, reading.case_direction)


def _g_ysys(rs: RootSystem, i: int, m: int, j: int, k: int, reading: GReading) -> int:
    if reading.ysys_order == "direct":
        return _g_formula(rs, i, m, j, k, reading.cartan_convention, reading.case_direction)
    return _g_formula(rs, j, k, i, m, reading.cartan_convention, reading.case_direction)


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


def y_from_q(qt: QTable, reading: GReading | None = None) -> YSolution:
    """Positive Y-system solution built from a Q-table (default: calibrated reading)."""
    reading = reading or calibrate_reading()
    rs = build_root_system(qt.type)
    pairs = list(qt.interior_items())
    out = {}
    for (i, m), q in pairs:
        prod = 1.0
        for (j, k), qjk in pairs:
            e = g_coefficient(rs, i, m, j, k, reading)
            if e:
                prod *= qjk ** e
        out[(i, m)] = q * q * prod / (qt.value(i, m - 1) * qt.value(i, m + 1))
    return YSolution(qt.type, qt.level, out)


def check_ysystem(ys: YSolution, reading: GReading | None = None) -> float:
    """Max relative residual of the restricted constant Y-system (default: calibrated reading)."""
    reading = reading or calibrate_reading()
    rs = build_root_system(ys.type)
    level = ys.level
    items = sorted(ys.values.items())
    worst = 0.0
    for (i, m), y in items:
        top = rs.t_i[i - 1] * level
        den = 1.0
        if m - 1 > 0:
            den *= 1.0 + 1.0 / ys.value(i, m - 1)
        if m + 1 < top:
            den *= 1.0 + 1.0 / ys.value(i, m + 1)
        num = 1.0
        for (j, k), yjk in items:
            e = _g_ysys(rs, i, m, j, k, reading) + 2 * (i == j and m == k)
            if e:
                num *= (1.0 + yjk) ** e
        lhs = y * y
        rhs = num / den
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def _calibration_cases():
    return (DynkinType("B", 4), DynkinType("B", 5), DynkinType("D", 5))


@lru_cache(maxsize=None)
def calibrate_reading() -> GReading:
    """Search the finite space of readings for the one matching the closed forms.

    A reading passes when (a) the closed-form B/D solutions satisfy the
    Y-system and (b) rebuilding them from the closed-form Q-tables reproduces
    the same rationals. Raises CalibrationError unless exactly one survives.
    """
    cases = _calibration_cases()
    exact = {dt: closed_form_y_exact(dt) for dt in cases}
    ysols = {
        dt: YSolution(dt, 2, {k: float(v) for k, v in exact[dt].items()}) for dt in cases
    }
    qtabs = {dt: closed_form_qtable(dt) for dt in cases}
    survivors = []
    space = iproduct(("row", "col"), ("first/second", "second/first"), ("direct", "swapped"), ("direct", "swapped"))
    for conv, direction, oy, oq in space:
        reading = GReading(conv, direction, oy, oq)
        ok = True
        for dt in cases:
            if check_ysystem(ysols[dt], reading) > 1e-9:
                ok = False
                break
            rebuilt = y_from_q(qtabs[dt], reading)
            if any(
                abs(rebuilt.value(i, m) - float(v)) > 1e-10 * max(1.0, float(v))
                for (i, m), v in exact[dt].items()
            ):
                ok = False
                break
        if ok:
            survivors.append(reading)
    if len(survivors) != 1:
        raise CalibrationError(
            f"expected exactly one consistent reading, found {len(survivors)}: {survivors}"
        )
    return survivors[0]


def y_solution(dt: DynkinType) -> YSolution:
    """Positive solution of the level-2 Y-system for any classical type."""
    if dt.family in ("B", "D"):
        return YSolution(dt, 2, {k: float(v) for k, v in closed_form_y_exact(dt).items()})
    return y_from_q(closed_form_qtable(dt))


@dataclass(frozen=True)
class EtaPoint:
    """The fixed point eta of a loop, with the Y-solution it was assembled from."""

    loop: MutationLoop
    eta: np.ndarray
    ysol: YSolution


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

    The defining property mu_gamma(eta) = eta is enforced; a residual above
    `tol` raises FixedPointError with the per-component residuals.
    """
    loop = build_mutation_loop(dt)
    ys = y_solution(dt)
    eta = _eta_components(dt, ys)
    image = cluster_transform(loop, eta)
    residuals = np.abs(image - eta) / np.abs(eta)
    if residuals.max() > tol:
        raise FixedPointError(
            residuals, f"{dt}: assembled eta is not fixed (max residual {residuals.max():.3e})"
        )
    return EtaPoint(loop, eta, ys)


def newton_fixed_point(
    loop: MutationLoop,
    start=None,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> np.ndarray:
    """Damped Newton solve of mu_gamma(y) = y from a positive start (default all ones)."""
    n = loop.n_vertices
    y = np.ones(n) if start is None else np.asarray(start, dtype=float).copy()
    if (y <= 0).any():
        raise ValueError("start must be strictly positive")
    last = math.inf
    for _ in range(max_iter):
        f = cluster_transform(loop, y) - y
        last = float(np.max(np.abs(f) / np.abs(y)))
        if last <= tol:
            return y
        jac = loop_jacobian(loop, y).matrix - np.eye(n)
        step = np.linalg.solve(jac, -f)
        scale = 1.0
        while scale > 1e-6 and ((y + scale * step) <= 0).any():
            scale /= 2
        if scale <= 1e-6:
            raise ConvergenceError(last, "Newton step could not stay in the positive orthant")
        y = y + scale * step
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
