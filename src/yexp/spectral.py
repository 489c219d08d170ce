"""Jacobian spectra, exponents, the conjectured characteristic polynomial,
eigenvector identities, and the type-C block reduction.

Every root of the conjectured numerator N and denominator D is a P-th root of
unity, P = t(2 + h_dual), so both are kept as exact multisets of integer
exponents, histograms of length P whose entry m counts the root e^{2 pi i m / P}.
The conjecture det(zI - J) = N/D is then decided on integers: D is contained in
N, and N - D equals the exponent multiset of the snapped spectrum of J.

Each (family, rank) case is built once, as one frozen `Case`: the fixed point
eta with its loop and Y-solution, and the spectrum of the log-coordinate Jacobian
L = diag(1/eta) J diag(eta) there. L is similar to J and stays bounded at every
rank, so every check reads L, unscaled, with J's closed forms carried over; the
type-C relations read L's plus factor L_+ beside it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .qsys import _sin_pi
from .quiver import LabeledQuiver, MutationLoop
from .rootsys import DynkinType, group_constants, height_histograms, lie_constants
from .yseed import (check_periodicity, finite_difference_jacobian, log_cluster_transform, log_loop_jacobian,
                    log_plus_phase)
from .ysys import EtaPoint, assemble_eta, calibrate_reading, newton_fixed_point


@dataclass(frozen=True)
class ExponentSequence:
    period: int
    exponents: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """What several checks read: L at eta, its eigenvalues, their exponents and the worst snap error."""

    type: DynkinType
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    exponents: ExponentSequence
    exponent_snap: float


# ------------------------------------------------------ conjectured N/D

def conjectured_charpoly(dt: DynkinType) -> Tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the conjectured det(zI - J) as exponent multisets,
    each a histogram of length P: entry m counts the roots e^{2 pi i m / P}.

    Exponents are integers mod P = t(2 + h_dual). The numerator
    prod_i (z^P - 1)/(z^{t/t_i} - 1) holds every k in [0, P) with
    k t/t_i != 0 mod P, once per simple root i. A short root alpha contributes
    the denominator factor z - e^{2 pi i <rho,alpha>/(2 + h_dual)}, exponent
    t<rho,alpha>; a long root contributes z^t - e^{2 pi i <rho,alpha>/(2 + h_dual)},
    whose t roots have the exponents <rho,alpha> + j(2 + h_dual), j < t. The roots are
    read only through their closed-form height counts, `height_histograms`.
    """
    t_i = lie_constants(dt)[0]
    t, h_dual, period = group_constants(dt)
    nodes = np.bincount(t // np.array(t_i), minlength=t + 1)  # nodes per ratio t/t_i, which is 1 or 2
    num = nodes @ (np.outer(np.arange(t + 1), np.arange(period)) % period != 0)
    short, long = height_histograms(dt)
    long = long[::t]  # by <rho,alpha>: a long root's height is a multiple of t
    den = np.zeros(period, dtype=np.int64)
    # per sign (the positive roots and their negatives) and per shift j of a long root; every
    # height is below P, so each += writes distinct exponents
    for sign in (1, -1):
        den[sign * np.arange(len(short)) % period] += short
        for j in range(t):
            den[(sign * np.arange(len(long)) + j * (2 + h_dual)) % period] += long
    return num, den


def _worst(*residuals) -> float:
    """The largest residual, or nan if any is: builtin max keeps its first argument against a later nan."""
    return math.nan if any(map(math.isnan, residuals)) else float(max(residuals))


# ------------------------------------------------------------------- spectrum

def snap_exponents(eigenvalues: np.ndarray, period: int) -> Tuple[Tuple[int, ...], float]:
    """Round eigenvalue phases to integers modulo the period; return worst snap error.
    A non-finite eigenvalue gets no exponent and makes the error nan."""
    finite = eigenvalues[np.isfinite(eigenvalues)]
    m = np.rint(np.angle(finite) / (2 * np.pi) * period).astype(int) % period
    worst = np.max(np.abs(finite - np.exp(2j * np.pi * m / period)), initial=0.0)
    return tuple(sorted(m.tolist())), float(worst) if len(finite) == len(eigenvalues) else math.nan


def spectrum(loop: MutationLoop, eta) -> SpectralReport:
    """The log-coordinate loop Jacobian L at a verified fixed point, its eigenvalues and their
    snapped exponents with the worst snap error; L^P is left to `check_conjecture_38`."""
    dt = loop.start.type
    _, _, period = group_constants(dt)
    jac = log_loop_jacobian(loop, np.log(eta))
    eigs = np.linalg.eigvals(jac)
    exps, snap = snap_exponents(eigs, period)
    return SpectralReport(dt, jac, eigs, ExponentSequence(period, exps), snap)


def check_conjecture_38(rep: SpectralReport, tol: float) -> Dict:
    """Verdict on det(zI - L) = N/D for the Jacobian L of a spectrum report.

    Passes when D is contained in N, N - D equals the snapped spectrum exactly,
    and max(snap error, |L^P - I|_max) is within `tol`; the verdict carries both, the
    report's `exponent_snap` and `power_identity`, computed here. With L^P = I the minimal
    polynomial of L divides the separable z^P - 1, so L is diagonalizable and its eigenvalue
    multiset fixes det(zI - L), which is det(zI - J). The snap error also bounds every ||lambda| - 1|.
    Its `method` names the three sources: the spectrum, the power and N/D.
    """
    num, den = conjectured_charpoly(rep.type)
    jac, period = rep.jacobian, rep.exponents.period
    power = float(np.max(np.abs(np.linalg.matrix_power(jac, period) - np.eye(len(jac)))))
    division_exact = bool((den <= num).all())
    quotient_matches = np.array_equal(np.maximum(num - den, 0),
                                      np.bincount(rep.exponents.exponents, minlength=len(num)))
    return _named_verdict({"exponent_snap": rep.exponent_snap, "power_identity": power}, tol,
                          division_exact and quotient_matches, division_exact=division_exact,
                          quotient_matches_spectrum=quotient_matches,
                          method="dense eigvals, dense L^P, closed-form root heights")


@dataclass(frozen=True, eq=False)
class Case(SpectralReport, EtaPoint):
    """One (family, rank) case, whose fields every check reads directly: the fixed point
    `eta` with its `loop`, `ysol` and `residual` (an `EtaPoint`), and the spectrum of the
    loop Jacobian at eta (a `SpectralReport`), whose `jacobian` is the case's only one, L."""


def build_case(dt: DynkinType, tol: float = 1e-9) -> Case:
    """Assemble eta (fixed-point residual within `tol`) and take its spectrum, as one `Case`."""
    point = assemble_eta(dt, tol=tol)
    return Case(**vars(point), **vars(spectrum(point.loop, point.eta)))


def _seeded_uniform(seed: int, shape: Tuple[int, int]) -> np.ndarray:
    """Uniform draws on [0.5, 2) from random.Random(seed), row by row, so a shorter
    draw is the first rows of a longer one. `random` is this module's own import: numpy does not load it."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    return 0.5 + 1.5 * np.array([rng.random() for _ in range(shape[0] * shape[1])]).reshape(shape)


# ------------------------------------------------------- B/D relation matrices

def _relation_matrix_B(n: int) -> Dict[int, Dict[int, float]]:
    """Rows of the y-space J_gamma(eta) for B_{2l} in closed form (1-based indices)."""
    l = n // 2
    rows: Dict[int, Dict[int, float]] = {}
    for k in range(1, l):
        rows[2 * k - 1] = {4 * l - 2 * k + 3: -1.0 / (4 * k * k - 1) ** 2}
        rows[2 * k] = {
            4 * l - 2 * k + 1: k / (k + 1),
            4 * l - 2 * k + 2: 16.0 * k * k * (k + 1) ** 2,
            4 * l - 2 * k + 3: (k + 1) / k,
        }
        rows[2 * l + 2 * k + 2] = {2 * l - 2 * k: -1.0 / (16.0 * (l - k) ** 2 * (l - k + 1) ** 2)}
        entries = {
            2 * l - 2 * k - 1: float((2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2),
            2 * l - 2 * k: (2 * l - 2 * k - 1) / (2 * l - 2 * k + 1),
        }
        if 2 * l - 2 * k - 2 >= 1:
            entries[2 * l - 2 * k - 2] = (2 * l - 2 * k + 1) / (2 * l - 2 * k - 1)
        rows[2 * l + 2 * k + 3] = entries
    rows[2 * l - 1] = {
        2 * l: 2 * l * (2 * l + 1) / ((2 * l - 1) * (4 * l + 1) ** 2),
        2 * l + 2: 2 * l * (2 * l + 1) / ((2 * l - 1) * (4 * l + 1) ** 2),
        2 * l + 1: 16.0 * l ** 4 / ((4 * l * l - 1) * (4 * l + 1) ** 2),
        2 * l + 3: -2.0 / ((2 * l - 1) ** 2 * (2 * l + 1) * (4 * l + 1)),
    }
    for r, other in ((2 * l, 2 * l + 2), (2 * l + 2, 2 * l)):
        rows[r] = {
            r: -2 * l / (2 * l + 1),
            2 * l + 1: 8.0 * l ** 3 / (2 * l + 1) ** 3,
            other: 1.0 / (2 * l + 1),
            2 * l + 3: (4 * l + 1) / (2 * l * (2 * l + 1) ** 3),
        }
    rows[2 * l + 1] = {
        2 * l: -((2 * l + 1) ** 2) / (8.0 * l ** 3),
        2 * l + 2: -((2 * l + 1) ** 2) / (8.0 * l ** 3),
        2 * l + 3: -(4 * l + 1) / (16.0 * l ** 4),
        2 * l + 1: -1.0,
    }
    entries = {
        2 * l - 1: float((2 * l - 1) ** 2 * (4 * l + 1)),
        2 * l: float(4 * l * l - 1),
        2 * l + 2: float(4 * l * l - 1),
        2 * l + 1: 16.0 * l ** 4 * (2 * l - 1) / ((2 * l + 1) * (4 * l + 1)),
        2 * l + 3: (2 * l - 1) / (2 * l + 1),
    }
    if 2 * l - 2 >= 1:
        entries[2 * l - 2] = (2 * l + 1) / (2 * l - 1)
    rows[2 * l + 3] = entries
    return rows


def _relation_matrix_D(n: int) -> Dict[int, Dict[int, float]]:
    l = n // 2
    rows: Dict[int, Dict[int, float]] = {}
    for k in range(1, l):
        entries = {2 * k: -1.0 / ((2 * k - 1) * (2 * k + 1) ** 3), 2 * k - 1: -1.0}
        if 2 * k - 2 >= 1:
            entries[2 * k - 2] = -1.0 / ((2 * k - 1) ** 3 * (2 * k + 1))
        rows[2 * k - 1] = entries
    for k in range(1, l - 1):
        entries = {
            2 * k - 1: (k + 1) * (2 * k - 1) ** 2 * (2 * k + 1) ** 2 / k,
            2 * k: (k * (k + 1) - 1) / (1.0 * k * (k + 1)),
            2 * k + 1: k * (2 * k + 1) ** 2 * (2 * k + 3) ** 2 / (k + 1),
            2 * k + 2: k * (2 * k + 1) / ((k + 1) * (2 * k + 3)),
        }
        if 2 * k - 2 >= 1:
            entries[2 * k - 2] = (k + 1) * (2 * k + 1) / (k * (2 * k - 1))
        rows[2 * k] = entries
    entries = {
        2 * l - 3: l * (2 * l - 3) ** 2 * (2 * l - 1) ** 2 / (l - 1),
        2 * l - 2: (2 * l - 3) / (l - 1),
        2 * l - 1: 2.0 * (l - 1) * (2 * l - 1) ** 2,
        2 * l: 2.0 * (l - 1) * (2 * l - 1) ** 2,
    }
    if 2 * l - 4 >= 1:
        entries[2 * l - 4] = l * (2 * l - 1) / ((l - 1) * (2 * l - 3))
    rows[2 * l - 2] = entries
    for r in (2 * l - 1, 2 * l):
        rows[r] = {2 * l - 2: -1.0 / (2 * l - 1) ** 3, r: -1.0}
    return rows


def relation_residuals(case: Case) -> Dict[str, float]:
    """Residuals of the closed-form eigen-equation rows against the engine Jacobian.

    Types B and D compare the rows of L with the closed-form rows of J carried
    into log coordinates, J[r, c] eta_c / eta_r; type C checks the phase-factor
    identities on rows of L_+ and L (`_c_relation_residuals`) at every rank; B and D
    have closed-form rows at even rank only.
    """
    dt = case.type
    if dt.family in ("B", "D"):
        n = dt.rank
        if n % 2:
            raise ValueError("relation rows of types B and D are available for even ranks only")
        rows = _relation_matrix_B(n) if dt.family == "B" else _relation_matrix_D(n)
        eta = case.eta
        r = np.array(sorted(rows))
        gap = case.jacobian[r - 1]  # a copy of the rows, less each closed-form entry below
        for k, row in enumerate(r):
            for c, v in rows[row].items():
                gap[k, c - 1] -= v * eta[c - 1] / eta[row - 1]
        return {"rows": float(np.max(np.abs(gap, out=gap)))}
    if dt.family != "C":
        raise ValueError(f"no closed-form relation rows for family {dt.family}")
    return _c_relation_residuals(case)


_C_NODES = 32  # nodes per block of the type-C relation rows: a block holds a few of L's rows per node


def _c_relation_residuals(case: Case) -> Dict[str, float]:
    """The C_n phase-factor identities psi' = J_+ psi, psi'' = J_- psi' (J_- before
    nu) in closed form, for every psi at once: psi = diag(eta), row k eta_k e_k, so
    psi' = diag(y') L_+ with y' = mu_+(eta) and psi'' = diag(y'') L_- L_+ with y''
    the loop's image before nu, where (L_- L_+)[v] = L[nu(v)]. Each residual is a
    row's max|lhs - rhs| over the lhs row's scale: a gap on a row of L_+ or of L.

    Each phase maps the rows of its column vertices, (i, m) with i < n, from
    src = psi or psi' to lhs = psi' or psi'': a vertex the phase mutates goes to
    -src[v] / Y^2, every other to the neighbour sum of a mid (m = 2) or an outer
    row. Top and bot rows both read Y(i, 1); p is the neighbour after node n - 1's
    mid. The rules run on node vectors, _C_NODES nodes at a time, both phases at once:
    src holds psi and psi' on the rows (node, m) of a block's nodes and one node on each
    side, so a neighbour is a shifted slice, and on the columns where those rows of L_+
    can be nonzero (the first phase's identities check every column of them); off those
    columns rhs is 0. Each identity keeps its worst row. Only p's and q's identities are
    written out, on L_+'s rows and L's."""
    n = case.type.rank
    Y, eta, jac = case.ysol.value, case.eta, case.jacobian
    loop, x, nu = case.loop, np.log(eta), np.array(case.loop.nu)
    p, q = 3 * n - 3, 3 * n - 2
    x_plus, plus = log_plus_phase(loop, x)
    y_plus, y_minus = np.exp(x_plus), np.exp(log_cluster_transform(loop, x))[nu]
    # by node i = 0..n and row m: Y(i, 1), Y(i, 2), Y(i, 1); 0 at node 0, and Y(n, 1) at node n
    y = np.array([(0.0, 0.0, 0.0)] + [(Y(i, 1), Y(i, 2), Y(i, 1)) for i in range(1, n)] + [(Y(n, 1),) * 3])[..., None]
    y_1, y_y1, minus_square = y + 1, y * (y + 1), -y ** 2  # Y + 1, Y(Y + 1) and -Y^2
    # the vertex of row (i, m), -1 where there is none: node 0 has no rows, node n only p, its mid
    vertex = np.concatenate(([[-1, -1, -1]], np.arange(p).reshape(n - 1, 3), [[-1, p, -1]]))
    mutated = np.array(loop.start.sign[:p]).reshape(n - 1, 3) == np.array(["+", "-"])[:, None, None]
    gaps = np.empty((2, n - 1, 3))  # by phase, node and m
    for a in range(1, n, _C_NODES):
        b = min(a + _C_NODES, n)  # the nodes a..b - 1, whose rules read nodes a - 1..b
        held = vertex[a - 1:b + 1] >= 0
        v = vertex[a - 1:b + 1][held]
        # the columns of nodes a - 2..b + 1, then p and q, off which src's rows of L_+ are 0
        lo, hi = max(0, 3 * a - 9), min(p, 3 * b + 3)
        cols = np.concatenate((np.arange(lo, hi), [p, q]))
        src = np.zeros((2,) + held.shape + cols.shape)  # psi and psi' on cols, by phase, node and m
        src[0][held, np.searchsorted(cols, v)] = eta[v]
        src[1][held] = y_plus[v, None] * plus[v[:, None], cols]
        k, before, after = slice(a, b), slice(a - 1, b - 1), slice(a + 1, b + 1)
        y1, y2 = y[k, :1], y[k, 1:2]
        outer, mid = src[:, :, ::2], src[:, :, 1:2]
        rhs = np.empty((2, b - a) + src.shape[2:])
        rhs[:, :, ::2] = y1 * (outer[:, :-2] / y_1[before, ::2] + y1 * outer[:, 1:-1]  # the outer rule
                               + mid[:, 1:-1] / y_y1[k, 1:2] + outer[:, 2:] / y_1[after, ::2])
        rhs[:, :, 1:2] = y2 * (mid[:, :-2] / y_1[before, 1:2] + (src[:, 1:-1, :1] + src[:, 1:-1, 2:]) / y_y1[k, :1]
                               + y2 * mid[:, 1:-1] + mid[:, 2:] / y_1[after, 1:2])  # the mid rule
        np.copyto(rhs, src[:, 1:-1] / minus_square[k], where=mutated[:, before, :, None])  # a mutated row's rule
        rows = slice(3 * a - 3, 3 * b - 3)
        for phase, scale, lhs in ((0, y_plus[rows], plus[rows]), (1, y_minus[rows], jac[nu[rows]])):
            gap = np.abs(scale[:, None] * lhs[:, cols] - rhs[phase].reshape(len(scale), -1)).max(axis=-1)
            for off in (slice(0, lo), slice(hi, p)) if lo or hi < p else ():  # max|lhs| off cols, where rhs is 0
                gap = np.maximum(gap, scale * np.abs(lhs[:, off]).max(axis=-1, initial=0.0))
            gaps[phase, before] = (gap / scale).reshape(b - a, 3)
    # each row's identity: the phase, outer or mid, then odd, even or last, the rows that the phase
    # leaves at node n - 1, whose sums end at p (mid) or at its own column (outer)
    node = np.arange(1, n)[:, None]
    code = (np.where(~mutated & (node == n - 1), 2, node % 2 == 0) + [[[0, 3, 0]], [[6, 9, 6]]]).ravel()
    worst = np.full(12, -np.inf)
    with np.errstate(invalid="ignore"):  # a nan row makes its identity's worst nan
        np.maximum.at(worst, code, gaps.ravel())
    names = [f"{phase}_{row}_{kind}" for phase in ("plus", "minus") for row in ("outer", "mid")
             for kind in ("odd", "even", "last")]
    residuals = {names[c]: float(worst[c]) for c in dict.fromkeys(code.tolist())}
    psi = eta * (np.arange(len(x)) == np.array([p - 3, p - 1, p, q])[:, None])  # rows top and bot of node n - 1, p, q
    outer, psi_p_mid = psi[0] + psi[1], y_plus[p - 2] * plus[p - 2]  # node n - 1's top + bot, and psi'[mid]
    rhs = {"plus_white_plus": -psi[2] / Y(n, 1) ** 2,
           "plus_white_fixed": (Y(n - 1, 1) + 1) ** 2 * psi[3]
                               + (Y(n - 1, 2) + 1) * (Y(n - 1, 1) + 1) / Y(n, 1) * outer,
           "minus_white_plus": psi_p_mid / Y(n, 1) - (Y(n - 1, 2) + 1) * psi[2] / Y(n, 1) ** 2,
           "minus_white_fixed": Y(n, 1) * (psi_p_mid / (Y(n - 1, 2) + 1) + outer / (Y(n - 1, 1) + 1)
                                           + Y(n, 1) * psi[3] / (Y(n - 1, 2) + 1))}
    lhs, scale = np.concatenate((plus[p:], jac[nu[p:]])), np.concatenate((y_plus[p:], y_minus[p:]))  # rows p, q
    white = np.abs(scale[:, None] * lhs - np.array(list(rhs.values()))).max(axis=-1) / scale
    residuals.update(zip(rhs, white.tolist()))
    return residuals


# ------------------------------------------------------- eigenvector lemmas

def _lemma_phi_B(n: int, power: Callable[[int], np.ndarray]) -> np.ndarray:
    """phi at each lambda in power(1), with lambda^j = power(j); one column per lambda."""
    l = n // 2
    k = np.arange(1, l)  # power(j(k)) is indexed [lambda, k]
    lam = power(1)[:, None]
    phi = np.zeros((lam.size, 2 * n + 1), dtype=complex)
    phi[:, 2 * l - 1] = phi[:, 2 * l + 1] = 1.0  # phi_{2l}, phi_{2l+2}

    def geom(lo, hi):  # lambda^lo + ... + lambda^hi, with lambda != 1
        return (power(hi + 1) - power(lo)) / (lam - 1)

    coef_odd = -2 * (l - k) * (2 * l + 1) ** 2 / ((2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2 * (4 * l + 1))
    phi[:, 2 * l - 2 * k - 2] = (coef_odd / lam) * (
        (2 * l - 2 * k + 1) * (power(2 * k + 1) + power(2 * k) + power(-2 * k) + power(-(2 * k + 1)))
        + 2 * geom(-(2 * k - 1), 2 * k - 1)
    )
    coef_even = (2 * l - 2 * k + 1) * (2 * l + 1) ** 2 / (4 * l + 1)
    phi[:, 2 * l - 2 * k - 1] = 2 * coef_even * (
        (l - k + 1) * (power(2 * k) + power(2 * k - 1) + power(-(2 * k - 1)) + power(-2 * k))
        + geom(-(2 * k - 2), 2 * k - 2)
    )
    phi[:, 2 * l - 2] = -(2 * l * (2 * l + 1) ** 2 / ((2 * l - 1) ** 2 * (4 * l + 1) ** 2)) * (
        2 + (2 * l + 1) * power(-1) + (2 * l + 1) * power(-2)
    )
    phi[:, 2 * l] = -((2 * l + 1) ** 3 / (8 * l ** 3)) * (1 + power(-1))
    phi[:, 2 * l + 2] = (2 * l * (2 * l + 1) ** 2 / (4 * l + 1)) * ((2 * l + 1) * (power(1) + power(-1)) + 4 * l)
    phi[:, 2 * l + 2 * k + 1] = -phi[:, 2 * l - 2 * k - 1] / (16 * lam * (l - k) ** 2 * (l - k + 1) ** 2)
    phi[:, 2 * l + 2 * k + 2] = -lam * (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2 * phi[:, 2 * l - 2 * k - 2]
    return phi.T


def _lemma_phi_D(n: int, power: Callable[[int], np.ndarray]) -> np.ndarray:
    """phi at each lambda in power(1), with lambda^j = power(j); one column per lambda."""
    l = n // 2
    k = np.arange(1, l)  # power(j(k)) is indexed [lambda, k]
    lam = power(1)[:, None]
    phi = np.zeros((lam.size, n), dtype=complex)
    phi[:, n - 2:] = 1.0
    coef_odd = (l - k) * (2 * l - 1) ** 2 / (l * (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2)
    full = (power(k) - power(-(k - 1))) / (lam - 1)  # lambda^{-(k-1)} + ... + lambda^{k-1}
    phi[:, 2 * l - 2 * k - 2] = coef_odd * ((2 * l - 2 * k + 1) * (power(k) + power(-k)) + 2 * full)
    coef_even = -(2 * l - 2 * k + 1) * (2 * l - 1) ** 2 / l
    mid = (power(k) - power(-(k - 2))) / (lam - 1)  # lambda^{-(k-2)} + ... + lambda^{k-1}
    phi[:, 2 * l - 2 * k - 1] = coef_even * ((l - k + 1) * (power(k) + power(-(k - 1))) + mid)
    return phi.T


def lemma_parameters(dt: DynkinType) -> int:
    """Admissible exponent count a_max = order - 1 of the eigenvector family
    lambda = zeta^a, with zeta a primitive root of unity of that order:
    4l + 1 for B_{2l} and 2l for D_{2l}."""
    if dt.rank % 2:
        raise ValueError("the closed-form eigenvector family needs even rank")
    if dt.family not in ("B", "D"):
        raise ValueError(f"no closed-form eigenvector family for type {dt.family}")
    return 2 * dt.rank if dt.family == "B" else dt.rank - 1


def _lemma_powers(dt: DynkinType, a) -> Callable[[int], np.ndarray]:
    """j -> lambda^j for lambda = zeta^a, indexed [a, j] for arrays of a and j, read
    from one table of the order's roots of unity at the exact index a j mod order."""
    order = lemma_parameters(dt) + 1
    k = np.arange(order)
    roots = _sin_pi(order + 4 * k, 2 * order) + 1j * _sin_pi(2 * k, order)  # cos + i sin of 2 pi k/order
    return lambda j: roots[np.multiply.outer(a, j) % order]


def lemma_basis(case: Case) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All of L's closed-form eigenvectors at even B/D, as one basis Psi (N x N).

    Column a - 1 (a = 1 ... order - 1) is the lemma's Phi at lambda = zeta^a, and the
    last column the special vector e_i - e_j at lambda = -1, on the two symmetric
    vertices where Phi is (1, 1). Each Phi is an eigenvector of J, so Phi / eta is
    one of L = diag(1/eta) J diag(eta). The order divides the period P, so the
    exponents are exact integers: m = a P / order, and P / 2 for the special column.
    Returns the exponents, Psi and each column's max|L psi - lambda psi| / max|psi|,
    all from one L @ Psi.
    """
    dt = case.type
    order, period = lemma_parameters(dt) + 1, case.exponents.period
    a = np.arange(1, order)
    power = _lemma_powers(dt, a)
    phi = _lemma_phi_B(dt.rank, power) if dt.family == "B" else _lemma_phi_D(dt.rank, power)
    i, j = (dt.rank - 1, dt.rank + 1) if dt.family == "B" else (dt.rank - 2, dt.rank - 1)
    special = np.zeros(len(phi))
    special[i], special[j] = 1.0, -1.0
    psi = np.column_stack((phi, special)) / case.eta[:, None]
    lam = np.append(power(1), -1.0)
    residuals = np.max(np.abs(case.jacobian @ psi - lam * psi), axis=0) / np.max(np.abs(psi), axis=0)
    return np.append(a * (period // order), period // 2), psi, residuals


def lemma_summary(case: Case) -> Dict[str, float]:
    """The worst column residual of `lemma_basis`, and whether its exponents equal the
    snapped spectrum's as an integer multiset (0.0 if they do, else 1.0)."""
    exps, _, residuals = lemma_basis(case)
    match = tuple(np.sort(exps).tolist()) == case.exponents.exponents
    return {"vectors": float(np.max(residuals)), "exponent_multiset_match": 0.0 if match else 1.0}


# ------------------------------------------------------------- type-C blocks

@dataclass(frozen=True, eq=False)
class CBlockPair:
    """What the C_n block split of a case's L computes: the diagonal blocks K-hat and L-hat,
    their residuals against J's closed-form tables (`khat_reference`, `lhat_reference`) and
    the largest entry of the off-diagonal blocks, `offdiag`; the rest is read from the case."""

    Khat: np.ndarray
    Lhat: np.ndarray
    residuals: Dict[str, float]
    offdiag: float


def _c_split(a: np.ndarray, n: int, w: float) -> np.ndarray:
    """The rows of a in the C_n basis of c_blocks: w(top - bot) per node i < n, then
    w(top + bot) and mid per node, then p and q."""
    top, mid, bot = (a[j:3 * n - 3:3] for j in range(3))
    out = np.empty_like(a)
    out[:n - 1] = w * (top - bot)
    out[n - 1:3 * n - 3:2] = w * (top + bot)
    out[n:3 * n - 3:2] = mid
    out[3 * n - 3:] = a[3 * n - 3:]
    return out


def _hat_reference(lq: LabeledQuiver, Y, rows: Tuple[int, ...]) -> np.ndarray:
    """J's closed-form C_n block on the basis rows m in `rows` of each node i < n:
    K-hat on (1,), whose column i is top - bot, and L-hat on (1, 2), whose columns
    are top + bot (m = 1) and mid (m = 2) per node, then p and q.

    Column (i, m) of a vertex the first phase mutates holds -1 + R(m, i - 1) + R(m, i)
    and a product per neighbour and per second neighbour in row m; every other column
    holds -1 and a product per neighbour. L-hat adds S(i) to the first diagonal and
    the entries in the other row o = 3 - m, each carrying w = 3 - m. Y and R are read
    once per node. Only the entries of p and q are written out."""
    n = lq.type.rank
    cross = len(rows) == 2
    k = len(rows)  # rows is (1,) or (1, 2): column (i, m) is k(i - 1) + m - 1, row (r, m') k(r - i) + m' - m on
    y = {m: [0.0] + [Y(i, m) for i in range(1, n + 2 - m)] for m in (1, 2)}  # Y(i, m) at y[m][i], Y(n, 1) too
    R = {m: [0.0] + [y[m][r] * y[m][r + 1] / ((y[m][r] + 1) * (y[m][r + 1] + 1)) for r in range(1, n - 1)] + [0.0]
         for m in rows}  # R(m, r) at R[m][r], 0 unless 0 < r < n - 1
    h = np.zeros((2 * n, 2 * n) if cross else (n - 1, n - 1))
    for i in range(1, n):
        near = [r for r in (i - 1, i + 1) if 0 < r < n]
        for m in rows:
            o = w = 3 - m
            ym, yo = y[m], y[o]
            c = k * (i - 1) + m - 1
            if lq.sign[3 * i + m - 4] == "+":  # vertex (i, m)'s sign
                h[c, c] = -1.0 + R[m][i - 1] + R[m][i]
                for r in near:
                    h[c + k * (r - i), c] = -1.0 / (ym[r] * (ym[i] + 1))
                for r, mid in ((i - 2, i - 1), (i + 2, i + 1)):
                    if 0 < r < n:
                        h[c + k * (r - i), c] = ym[r] * ym[mid] / ((ym[i] + 1) * (ym[mid] + 1))
                if cross:
                    h[c, c] += 2.0 / ((y[1][i] + 1) * (y[2][i] + 1))
                    h[c + o - m, c] = -w / (y[1][i] * y[2][i] * (ym[i] + 1))
                    for r in near:
                        h[c + k * (r - i) + o - m, c] = w * yo[r] / (ym[i] + 1) * (
                            1.0 / (ym[r] + 1) + yo[i] / (ym[i] * (yo[i] + 1)))
            else:
                h[c, c] = -1.0
                for r in near:
                    h[c + k * (r - i), c] = ym[r] * ym[i] ** 2 / (ym[i] + 1)
                if cross:
                    h[c + o - m, c] = w * y[1][i] * y[2][i] / (ym[i] + 1)
    if not cross:
        return h
    p, q, outer, mid = 2 * n - 2, 2 * n - 1, 2 * n - 4, 2 * n - 3  # the last two: node n - 1's
    if n >= 3:  # node n - 2's mid
        h[p, mid - 2] = y[2][n - 1] * y[1][n] / ((y[2][n - 2] + 1) * (y[2][n - 1] + 1))
        h[q, mid - 2] = y[2][n - 1] / (y[1][n] * (y[2][n - 2] + 1))
        h[mid - 2, p] = y[2][n - 2] * y[2][n - 1] / ((y[2][n - 1] + 1) * (y[1][n] + 1))
    h[p, outer] = 2 * y[1][n] / (y[1][n - 1] + 1) * (1 + y[2][n - 1] / (y[1][n - 1] * (y[2][n - 1] + 1)))
    h[q, outer] = 2 * y[2][n - 1] / (y[1][n - 1] * y[1][n] * (y[1][n - 1] + 1))
    h[p, mid] = y[2][n - 1] ** 2 * y[1][n] / (y[2][n - 1] + 1)
    h[q, mid] = y[2][n - 1] ** 2 / y[1][n]
    h[outer, p] = y[1][n - 1] / ((y[2][n - 1] + 1) * (y[1][n] + 1))
    h[mid, p] = -1.0 / (y[2][n - 1] * (y[1][n] + 1))
    h[p, p] = y[2][n - 1] * y[1][n] / ((y[2][n - 1] + 1) * (y[1][n] + 1))
    # Y(n-1,2)/(Y(n,1)(Y(n,1)+1)) - (Y(n-1,2)+1)/Y(n,1)^2, without its cancellation at high rank
    h[q, p] = -(y[2][n - 1] + y[1][n] + 1) / (y[1][n] ** 2 * (y[1][n] + 1))
    h[p, q] = y[1][n] ** 2 / (y[2][n - 1] + 1)
    return h


def _plus_diagonal(band: np.ndarray, shift) -> np.ndarray:
    """The bands of a + s I, one per entry s of `shift`, from the band of a."""
    width = band.shape[-1]
    return band + np.asarray(shift)[..., None, None] * (np.arange(width) == width // 2)


def _reduced_blocks(n: int, Y, lams) -> Tuple[np.ndarray, np.ndarray]:
    """K(lambda) and L(lambda) of the C_n reduction on their bands, at one lambda or an
    array of them: row i holds columns i - h .. i + h, h = 1 for K and 2 for L. The
    lambda-free entries are built first, then lambda + 1/lambda is added on the diagonal
    and L's three entries in lambda^{+-1} are set."""
    y1 = np.array([Y(i, 1) for i in range(1, n)])
    y2 = np.array([Y(i, 2) for i in range(1, n)])
    yn = Y(n, 1)

    def chain(y):  # M[i, i - 1] and M[i, i + 1] of the chain M[i, i +- 1] = y_i / (y_{i +- 1} + 1)
        c = np.zeros((len(y), 2))
        c[1:, 0] = y[1:] / (y[:-1] + 1)
        c[:-1, 1] = y[:-1] / (y[1:] + 1)
        return c

    k0 = np.zeros((n - 1, 3))
    k0[:, ::2] = chain(y1)
    l0 = np.zeros((2 * n, 5))  # L's entry (i, j) at [i, j - i + 2]
    l0[0:2 * n - 2:2, ::4] = chain(y1)
    l0[1:2 * n - 2:2, ::4] = chain(y2)
    l0[0:2 * n - 2:2, 3] = y1 / (y2 * (y2 + 1))
    l0[1:2 * n - 2:2, 1] = 2 * y2 / (y1 * (y1 + 1))
    l0[2 * n - 2, 1] = 2 * yn / (y2[-1] + 1)
    l0[2 * n - 3, 3] = y2[-1] / (yn + 1)
    l0[2 * n - 1, 1] = y2[-1] + 1
    l0[2 * n - 2, 3] = 2.0 / (y2[-1] + 1)
    lam = np.asarray(lams, dtype=complex)
    band = _plus_diagonal(l0, lam + 1 / lam)
    band[..., 2 * n - 2, 0] = -2 / lam * yn / (y1[-1] + 1)
    band[..., 2 * n - 1, 0] = lam * yn
    band[..., 2 * n - 3, 4] = y2[-1] / (lam * (y2[-1] + 1) * (yn + 1))
    return _plus_diagonal(k0, lam + 1 / lam), band


def c_blocks(case: Case) -> CBlockPair:
    """Block-diagonalize the case's C_n Jacobian L in the symmetric/antisymmetric basis.

    The largest entry of the off-diagonal blocks is reported as `offdiag`, for
    `c_checks` to gate; the split is taken whatever it reads. The diagonal blocks are
    compared with J's closed-form tables (`_hat_reference`) scaled by d_col / d_row, d being
    eta on each basis vector (eta is equal on each folded pair), entry by entry: relative
    to |table entry| where it is nonzero, and to max(1, max|table|) where it is zero.
    """
    if case.type.family != "C":
        raise ValueError(f"the block reduction is for type C, not {case.type.family}")
    n = case.type.rank
    # m = u^-1 L u for the basis u of columns top - bot, top + bot, mid, p and q (one or
    # two +-1 entries each): the columns combined as u's, the rows as u^-1's, which halves them
    m = _c_split(_c_split(case.jacobian.T, n, 1.0).T, n, 0.5)
    nk = n - 1
    khat, lhat = m[:nk, :nk].copy(), m[nk:, nk:].copy()
    Y, lq = case.ysol.value, case.loop.start
    residuals = {}
    v = np.arange(3 * n - 1)
    d = case.eta[np.concatenate((v[:3 * n - 3:3], v[v % 3 != 2]))]  # at each column's first vertex
    # per entry, since the entries of L-hat span many magnitudes at high rank
    for name, block, rows, dd in (("khat_reference", khat, (1,), d[:nk]), ("lhat_reference", lhat, (1, 2), d[nk:])):
        ref = _hat_reference(lq, Y, rows) * dd[None, :] / dd[:, None]
        scale = np.where(ref != 0, np.abs(ref), max(1.0, float(np.max(np.abs(ref)))))
        residuals[name] = float(np.max(np.abs(block - ref) / scale))
    return CBlockPair(khat, lhat, residuals, _worst(np.max(np.abs(m[:nk, nk:])), np.max(np.abs(m[nk:, :nk]))))


def _unit_circle_samples(count: int) -> np.ndarray:
    return np.exp(1j * np.linspace(0.11, np.pi - 0.11, count))


def _band(a: np.ndarray) -> np.ndarray:
    """The square matrix a on its band: row i holds columns i - h .. i + h, zero outside a,
    with h the largest |i - j| over a's nonzero entries (a nan among them), so no entry is dropped."""
    rows, cols = np.nonzero(a)
    h = int(np.max(np.abs(rows - cols), initial=0))
    i = np.arange(len(a))[:, None]
    j = i + np.arange(-h, h + 1)
    return np.where((j >= 0) & (j < len(a)), a[i, j % len(a)], 0)


def _banded_dets(*stacks: np.ndarray) -> List[np.ndarray]:
    """det of every matrix in each stack, by one LU with partial pivoting on the band of them all.

    A stack is (count, size, 2h + 1), row i of a matrix holding its columns i - h .. i + h
    (zero outside the matrix). Every matrix is padded to the largest size with identity rows
    and to the largest h. Step k pivots in rows k .. k + h, the only ones with a nonzero in
    column k, and the pivot row reaches column k + 2h at most; so each step reads a window of
    h + 1 rows, row r at slot r mod (h + 1), over columns k .. k + 2h, and then takes in row
    k + h + 1 at the slot of row k. The pivot product is taken in log form; a member with a
    zero pivot has det exactly 0 and one holding a nan has det nan."""
    size = max(s.shape[1] for s in stacks)
    h = max(s.shape[2] // 2 for s in stacks)
    width = 2 * h + 1
    total = sum(map(len, stacks))
    rows = np.zeros((size + h + 1, width, total), dtype=complex)  # then h + 1 zero rows to take in
    first = 0
    for s in stacks:
        m, hs = s.shape[1], s.shape[2] // 2
        rows[:m, h - hs:h + hs + 1, first:first + len(s)] = s.transpose(1, 2, 0)
        rows[m:size, h, first:first + len(s)] = 1.0
        first += len(s)
    # slot s of the window holds column c of its row at [c + h, s]; step k reads [k + h : k + h + width],
    # whose entry (c, s, member) is flat[(k + h + c) * stride + s * total + member]
    window = np.zeros((size + 3 * h + 1, h + 1, total), dtype=complex)
    for r in range(h + 1):
        window[r:r + width, r] = rows[r]
    flat, stride = window.reshape(-1), (h + 1) * total
    row_at = np.arange(width)[:, None] * stride + np.arange(total)
    pivots = np.empty((size, total), dtype=complex)
    chosen = np.empty((size, total), dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):  # past a zero pivot a member's pivots are not read
        for k in range(size):
            s, w = k % (h + 1), window[k + h:k + h + width]
            chosen[k] = p = np.abs(w[0]).argmax(axis=0)
            at = row_at + ((k + h) * stride + total * p)  # the pivot row
            pivot_row = flat[at]
            flat[at] = w[:, s]  # row k moves to the pivot's slot
            pivots[k] = pivot_row[0]
            w[1:] -= (w[0] * (1 / pivots[k])) * pivot_row[1:, None]
            window[k + h + 1:k + h + width + 1, s] = rows[k + h + 1]
        det = _product(pivots.T)
    swaps = (chosen != (np.arange(size) % (h + 1))[:, None]).sum(axis=0)
    det *= np.where(swaps % 2, -1, 1)
    det[(pivots == 0).any(axis=0)] = 0
    det[np.isnan(rows).any(axis=(0, 1))] = np.nan
    return np.split(det, np.cumsum([len(s) for s in stacks])[:-1])


@dataclass(frozen=True, eq=False)
class CDeterminants:
    """det K(lambda) and det L(lambda) on one grid of the upper unit half-circle, and
    det(K-hat - lambda^2 I) and det(L-hat - lambda^2 I) at every other point of it,
    all from one banded LU, with the half-bandwidth of each matrix."""

    lams: np.ndarray
    k: np.ndarray
    l: np.ndarray
    khat: np.ndarray
    lhat: np.ndarray
    half_bandwidths: Dict[str, int]


def c_determinants(case: Case, blocks: CBlockPair, samples: int = 32) -> CDeterminants:
    """The determinants of the C_n reduction on 2m - 1 points, m = max(16, samples // 2 + 1):
    `csol` reads all of them, at least `samples`, and `c_reduction` every other one, which
    are the m points `_unit_circle_samples(m)`. K(lambda) and L(lambda) are built from the
    case's Y, the hat blocks read from `blocks`."""
    lams = _unit_circle_samples(2 * max(16, samples // 2 + 1) - 1)
    z = lams[::2] ** 2
    k, l = _reduced_blocks(case.type.rank, case.ysol.value, lams)
    bands = {"K": k, "L": l,
             "Khat": _plus_diagonal(_band(blocks.Khat), -z), "Lhat": _plus_diagonal(_band(blocks.Lhat), -z)}
    return CDeterminants(lams, *_banded_dets(*bands.values()),
                         half_bandwidths={name: band.shape[2] // 2 for name, band in bands.items()})


def _product(factors: np.ndarray) -> np.ndarray:
    """prod(factors) along the last axis as exp(sum log|f|) prod(f / |f|): a running
    product of thousands of factors can over- and underflow (to inf * 0 = nan) where
    the product is modest, and summed angles near +-pi round away tiny phases. A zero
    factor makes the product 0 (log 0 = -inf), a nan factor makes it nan."""
    factors = np.asarray(factors, dtype=complex)
    modulus = np.abs(factors)
    nonzero = modulus != 0
    log_modulus = np.log(modulus, out=np.full(modulus.shape, -np.inf), where=nonzero)
    phase = np.divide(factors, modulus, out=np.ones_like(factors), where=nonzero)
    return np.exp(np.sum(log_modulus, axis=-1)) * np.prod(phase, axis=-1)


def _relative_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


def verify_c_reduction(case: Case, blocks: CBlockPair, dets: CDeterminants) -> Dict[str, float]:
    """Residuals of the determinant identities linking the hat blocks to K, L, and of the
    full factorization det(zI - J) = z^{(3n-1)/2} det K det L, at every other point of the
    grid of `dets`, then the split's table residuals. det(zI - J) is prod_i (z - lambda_i),
    in log form, over the case's eigenvalues, which fix it since L^P = I."""
    n = case.type.rank
    lams = dets.lams[::2]
    det_k, det_l = dets.k[::2], dets.l[::2]
    lhs_k = (-lams) ** (-(n - 1)) * dets.khat
    lhs_l = lams ** (-2 * n) * dets.lhat
    lhs_f = _product(lams[:, None] ** 2 - case.eigenvalues[None, :])
    return {
        "k_reduction": _relative_gap(lhs_k, det_k),
        "l_reduction": _relative_gap(lhs_l, det_l),
        "full_det": _relative_gap(lhs_f, lams ** (3 * n - 1) * det_k * det_l),
        **blocks.residuals,
    }


def csol_products(n: int, lam):
    """Right-hand sides of the two conjectured determinant factorizations, at one
    sample lambda or at an array of them, each a product in log form."""
    big = np.asarray(lam + 1 / lam)[..., None]
    two_cos = lambda ks, den: np.array([2 * math.cos(k * math.pi / den) for k in ks])
    prod_k = _product(big - two_cos(range(5, 2 * n + 2, 2), 2 * (n + 3)))
    squared = big - two_cos(range(3, n + 1), n + 3)
    prod_l = _product(np.concatenate((squared, squared, big - two_cos((1, 2, n + 1, n + 2), n + 3)), axis=-1))
    return prod_k, prod_l


def verify_conjecture_csol(case: Case, dets: CDeterminants) -> Dict[str, float]:
    """Residuals of the open determinant conjecture at every point of the grid of `dets`:
    numerical evidence only, which `c_checks` labels in the verdict's `status`."""
    prod_k, prod_l = csol_products(case.type.rank, dets.lams)
    return {"csol_k": _relative_gap(dets.k, prod_k), "csol_l": _relative_gap(dets.l, prod_l)}


# ---------------------------------------------------------- case verification

@dataclass(frozen=True)
class Tolerances:
    fixed_point: float = 1e-9
    periodicity: float = 1e-8
    charpoly: float = 1e-7
    fd_jacobian: float = 1e-5
    relations: float = 1e-9
    lemma: float = 1e-8
    c_identities: float = 1e-7
    block_diag: float = 1e-9
    newton_agreement: float = 1e-8

    def scaled(self, factor: float) -> "Tolerances":
        if factor == 1.0:
            return self
        return Tolerances(**{k: v * factor for k, v in self.__dict__.items()})


def _verdict(residual: float, tol: float, holds: bool = True, **details) -> Dict:
    """A check's entry: it passes when `holds` and the residual is within `tol`."""
    return {"residual": float(residual), "pass": bool(holds and residual <= tol), **details}


def _named_verdict(components: Dict[str, float], tol: float, holds: bool = True, **details) -> Dict:
    """A multi-part check's entry: the worst of its named components (nan if any is), and each one."""
    return _verdict(_worst(*components.values()), tol, holds, **components, **details)


def _failed(exc: Exception) -> Dict:
    return {"residual": None, "pass": False, "error": f"{type(exc).__name__}: {exc}"}


def _guarded(compute: Callable[[], Dict]) -> Dict:
    """Run one check; a check whose call raises is recorded as failing with its error."""
    try:
        return compute()
    except Exception as exc:  # one failing check must not abort the rest of the suite
        return _failed(exc)


def check_jacobian_fd(case: Case, tol: float) -> Dict:
    """Verdict on the analytic L against central differences of the log-coordinate
    loop: the residual is max|L - L_fd|, where |L| is at most the largest arrow
    multiplicity at every rank."""
    fd = finite_difference_jacobian(case.loop, case.eta)
    return _verdict(np.max(np.abs(case.jacobian - fd)), tol)


def periodicity_verdict(loop: MutationLoop, period: int, seed: int, points: int, tol: float) -> Dict:
    """Verdict on mu_gamma^period = id at `points` seeded points drawn from [0.5, 2), checked
    as gamma^ceil(period/2)(y) = gamma^-floor(period/2)(y) by `check_periodicity`, the "half-orbits" method."""
    y = _seeded_uniform(seed, (points, loop.n_vertices))
    return _verdict(check_periodicity(loop, y, period), tol, method="half-orbits")


def c_checks(case: Case, tolerances: Tolerances = Tolerances(), samples: int = 32) -> Dict[str, Dict]:
    """The type-C checks of C_n: the block reduction and the (open) Csol conjecture.

    Both read the case, one block split and one set of banded LU determinants
    (`c_determinants`), and gate on `c_identities`. `c_reduction` also fails when the
    split's `offdiag` exceeds `block_diag`, and still reports its other components;
    `csol` reads only K(lambda) and L(lambda), built from Y, so the bound does not
    gate it, and its `status` labels it as evidence for an open conjecture. If the
    split or the determinants raise, both fail with the error.
    """
    try:
        blocks = c_blocks(case)
        dets = c_determinants(case, blocks, samples)
    except Exception as exc:  # recorded like any raising check
        return {"c_reduction": _failed(exc), "csol": _failed(exc)}

    def method(*names, points):
        return {"method": "banded LU", "points": points,
                "half_bandwidths": {name: dets.half_bandwidths[name] for name in names}}

    def reduction():
        return _named_verdict(verify_c_reduction(case, blocks, dets), tolerances.c_identities,
                              blocks.offdiag <= tolerances.block_diag, offdiag=blocks.offdiag,
                              **method("K", "L", "Khat", "Lhat", points=len(dets.khat)))

    def csol():
        return _named_verdict(verify_conjecture_csol(case, dets), tolerances.c_identities,
                              status="open; numerical evidence only", **method("K", "L", points=len(dets.lams)))

    return {"c_reduction": _guarded(reduction), "csol": _guarded(csol)}


def run_case(
    dt: DynkinType,
    tolerances: Tolerances = Tolerances(),
    samples: int = 32,
    seed: int = 0,
    periodicity_points: int = 20,
) -> Dict:
    """Full verification suite for one (family, rank) case, built once.

    Building the case (eta and the spectrum) can raise; past that the suite never aborts: each
    check computes its own evidence (`conjecture_38` its L^P) and reports its residual, pass flag
    and named components, or its error if its call raises (out of memory too).
    """
    # assemble under a coarse guard so an over-tight configured tolerance is
    # reported as a failing check instead of aborting the suite
    case = build_case(dt, tol=max(tolerances.fixed_point, 1e-6))
    loop, eta = case.loop, case.eta
    period = case.exponents.period

    def fixed_point():
        newton_res = float(np.max(np.abs(newton_fixed_point(loop) - eta) / np.abs(eta)))
        return _verdict(case.residual, tolerances.fixed_point,
                        newton_res <= tolerances.newton_agreement, newton_agreement=newton_res)

    checks: Dict[str, Dict] = {
        "fixed_point": _guarded(fixed_point),
        "periodicity": _guarded(lambda: periodicity_verdict(loop, period, seed, periodicity_points,
                                                             tolerances.periodicity)),
        "jacobian_fd": _guarded(lambda: check_jacobian_fd(case, tolerances.fd_jacobian)),
        "conjecture_38": _guarded(lambda: check_conjecture_38(case, tolerances.charpoly)),
    }
    even_bd = dt.family in ("B", "D") and dt.rank % 2 == 0
    if even_bd:
        checks["lemma_vectors"] = _guarded(lambda: _named_verdict(lemma_summary(case), tolerances.lemma))
    if dt.family == "C":
        checks.update(c_checks(case, tolerances, samples))
    if even_bd or dt.family == "C":
        checks["relations"] = _guarded(lambda: _named_verdict(relation_residuals(case), tolerances.relations))

    return {
        "type": dt.family,
        "rank": dt.rank,
        "level": 2,
        "period": period,
        "n_vertices": loop.n_vertices,
        "exponents": list(case.exponents.exponents),
        "seed": seed,
        "calibration": asdict(calibrate_reading()),
        "checks": checks,
    }


def case_passed(case: Dict) -> bool:
    return all(c["pass"] for c in case["checks"].values())


def exponents_csv(cases) -> str:
    """CSV rows "family,rank,period,m_1..m_N" for one or more case reports."""
    lines = []
    for case in cases:
        cells = [case["type"], str(case["rank"]), str(case["period"])]
        cells += [str(m) for m in case["exponents"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
