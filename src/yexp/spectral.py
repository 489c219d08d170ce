"""Jacobian spectra, exponents, the conjectured characteristic polynomial,
eigenvector identities, and the type-C block reduction.

Every root of the conjectured numerator N and denominator D is a P-th root of
unity, P = t(2 + h_dual), so both are kept as exact multisets of integer
exponents, histograms of length P whose entry m counts the root e^{2 pi i m / P}.
The conjecture det(zI - J) = N/D is then decided on integers: D is contained in
N, and N - D equals the exponent multiset of the snapped spectrum of J.

Each (family, rank) case is built once, as a frozen `Case`: the fixed point
eta with its Y-solution, and the spectrum of the log-coordinate Jacobian
L = diag(1/eta) J diag(eta) there. L is similar to J and stays bounded at every
rank, so every check reads L, unscaled, with J's closed forms carried over; the
type-C relations read L's plus factor L_+ beside it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from .qsys import _sin_pi
from .quiver import MutationLoop
from .rootsys import DynkinType, RootSystem, build_root_system, group_constants
from .yseed import (check_periodicity, finite_difference_jacobian, log_cluster_transform, log_loop_jacobian,
                    log_plus_phase)
from .ysys import EtaPoint, assemble_eta, calibrate_reading, newton_fixed_point


@dataclass(frozen=True)
class ExponentSequence:
    period: int
    exponents: Tuple[int, ...]


@dataclass
class SpectralReport:
    type: DynkinType
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    exponents: ExponentSequence
    residuals: Dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------ conjectured N/D

def conjectured_charpoly(rs: RootSystem) -> Tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the conjectured det(zI - J) as exponent multisets,
    each a histogram of length P: entry m counts the roots e^{2 pi i m / P}.

    Exponents are integers mod P = t(2 + h_dual). The numerator
    prod_i (z^P - 1)/(z^{t/t_i} - 1) holds every k in [0, P) with
    k t/t_i != 0 mod P, once per simple root i. A short root alpha contributes
    the denominator factor z - e^{2 pi i <rho,alpha>/(2 + h_dual)}, exponent
    t<rho,alpha>; a long root contributes z^t - e^{2 pi i <rho,alpha>/(2 + h_dual)},
    whose t roots have the exponents <rho,alpha> + j(2 + h_dual), j < t.
    """
    t, h_dual, period = group_constants(rs.type)
    nodes = np.bincount(t // np.array(rs.t_i), minlength=t + 1)  # nodes per ratio t/t_i, which is 1 or 2
    num = nodes @ (np.outer(np.arange(t + 1), np.arange(period)) % period != 0)
    h = np.concatenate((rs.heights, -rs.heights))  # the positive roots and their negatives
    long = np.concatenate((rs.long, rs.long))
    den = np.concatenate((h[~long], np.add.outer(h[long] // t, (2 + h_dual) * np.arange(t)).ravel()))
    return num, np.bincount(den % period, minlength=period)


def _worst(*residuals) -> float:
    """The largest residual, or nan if any is: builtin max keeps its first argument against a later nan."""
    return math.nan if any(map(math.isnan, residuals)) else float(max(residuals))


# ------------------------------------------------------------------- spectrum

def snap_exponents(eigenvalues: np.ndarray, period: int) -> Tuple[Tuple[int, ...], float]:
    """Round eigenvalue phases to integers modulo the period; return worst snap error."""
    m = np.rint(np.angle(eigenvalues) / (2 * np.pi) * period).astype(int) % period
    worst = np.max(np.abs(eigenvalues - np.exp(2j * np.pi * m / period)), initial=0.0)
    return tuple(sorted(m.tolist())), float(worst)


def spectrum(loop: MutationLoop, eta) -> SpectralReport:
    """Eigen-decomposition of the log-coordinate loop Jacobian L at a verified fixed point."""
    dt = loop.start.type
    _, _, period = group_constants(dt)
    jac = log_loop_jacobian(loop, np.log(eta))
    eigs = np.linalg.eigvals(jac)
    exps, snap = snap_exponents(eigs, period)
    residuals = {
        "unit_circle": float(np.max(np.abs(np.abs(eigs) - 1.0))),
        "exponent_snap": float(snap),
        "power_identity": float(
            np.max(np.abs(np.linalg.matrix_power(jac, period) - np.eye(len(jac))))
        ),
    }
    return SpectralReport(
        type=dt,
        jacobian=jac,
        eigenvalues=eigs,
        exponents=ExponentSequence(period, exps),
        residuals=residuals,
    )


def check_conjecture_38(rep: SpectralReport, tol: float) -> Dict:
    """Verdict on det(zI - L) = N/D for the Jacobian L of a spectrum report.

    Passes when D is contained in N, N - D equals the snapped spectrum exactly,
    and max(snap error, |L^P - I|_max) is within `tol`. With L^P = I the minimal
    polynomial of L divides the separable z^P - 1, so L is diagonalizable and
    its eigenvalue multiset fixes det(zI - L), which is det(zI - J).
    """
    num, den = conjectured_charpoly(build_root_system(rep.type))
    residual = _worst(rep.residuals["exponent_snap"], rep.residuals["power_identity"])
    division_exact = bool((den <= num).all())
    quotient_matches = np.array_equal(np.maximum(num - den, 0),
                                      np.bincount(rep.exponents.exponents, minlength=len(num)))
    return _verdict(residual, tol, division_exact and quotient_matches,
                    division_exact=division_exact, quotient_matches_spectrum=quotient_matches)


@dataclass(frozen=True)
class Case:
    """One (family, rank) case: eta with its Y-solution, and the spectrum of
    the loop Jacobian at eta, which holds the case's only Jacobian, L."""

    point: EtaPoint
    report: SpectralReport

    @property
    def type(self) -> DynkinType:
        return self.report.type

    @property
    def jacobian(self) -> np.ndarray:
        return self.report.jacobian


def build_case(dt: DynkinType, tol: float = 1e-9) -> Case:
    """Assemble eta (fixed-point residual within `tol`) and take its spectrum."""
    point = assemble_eta(dt, tol=tol)
    return Case(point, spectrum(point.loop, point.eta))


def _seeded_uniform(seed: int, shape: Tuple[int, int]) -> np.ndarray:
    """Uniform draws on [0.5, 2) from random.Random(seed), row by row, so a shorter
    draw is the first rows of a longer one. `import numpy` has loaded `random` already."""
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
    identities on rows of L_+ and L (`_c_relation_residuals`). Even rank only.
    """
    dt = case.type
    if dt.rank % 2:
        raise ValueError("relation rows are available for even ranks only")
    if dt.family in ("B", "D"):
        n = dt.rank
        rows = _relation_matrix_B(n) if dt.family == "B" else _relation_matrix_D(n)
        eta = case.point.eta
        r = np.array(sorted(rows))
        gap = case.jacobian[r - 1]  # a copy of the rows, less each closed-form entry below
        for k, row in enumerate(r):
            for c, v in rows[row].items():
                gap[k, c - 1] -= v * eta[c - 1] / eta[row - 1]
        return {"rows": float(np.max(np.abs(gap, out=gap)))}
    if dt.family != "C":
        raise ValueError(f"no closed-form relation rows for family {dt.family}")
    return _c_relation_residuals(case)


class _ScaledRows:
    """Row k of diag(scale) M, built on demand from M's row `row(k)`."""

    def __init__(self, scale: np.ndarray, row: Callable[[int], np.ndarray]):
        self.scale, self.row = scale, row

    def __getitem__(self, k: int) -> np.ndarray:
        return self.scale[k] * self.row(k)


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
    mid. Only p's and q's identities are written out."""
    n = case.type.rank
    Y = case.point.ysol.value
    loop, x = case.point.loop, np.log(case.point.eta)
    lq, nu = loop.start, list(loop.nu)
    at = dict(zip(lq.hindex, range(lq.n_vertices)))
    p, q = at[n, 1], at[n + 1, 1]
    x_plus, plus = log_plus_phase(loop, x)
    psi = _ScaledRows(case.point.eta, lambda k: np.eye(1, len(x), k)[0])
    psi_p = _ScaledRows(np.exp(x_plus), plus.__getitem__)
    psi_pp = _ScaledRows(np.exp(log_cluster_transform(loop, x))[nu], lambda k: case.jacobian[nu[k]])
    worst: Dict[str, float] = {}

    def record(name, rows, k, rhs):
        r = np.max(np.abs(rows[k] - rhs)) / rows.scale[k]
        worst[name] = _worst(worst.get(name, 0.0), r)

    def mid_sum(src, i):
        terms = [src[at[i - 1, 2]] / (Y(i - 1, 2) + 1)] if i > 1 else []
        terms += [(src[at[i, 1]] + src[at[i, 3]]) / (Y(i, 1) * (Y(i, 1) + 1)), Y(i, 2) * src[at[i, 2]],
                  src[at[i + 1, 2]] / (Y(i + 1, 2) + 1) if i < n - 1 else src[p] / (Y(n, 1) + 1)]
        return Y(i, 2) * sum(terms)

    def outer_sum(src, i, m):
        terms = [src[at[i - 1, m]] / (Y(i - 1, 1) + 1)] if i > 1 else []
        terms += [Y(i, 1) * src[at[i, m]], src[at[i, 2]] / (Y(i, 2) * (Y(i, 2) + 1))]
        terms += [src[at[i + 1, m]] / (Y(i + 1, 1) + 1)] if i < n - 1 else []
        return Y(i, 1) * sum(terms)

    for phase, mutated, lhs, src in (("plus", "+", psi_p, psi), ("minus", "-", psi_pp, psi_p)):
        for v in range(p):  # the column vertices; p and q come last
            i, m = lq.hindex[v]
            row, parity = "mid" if m == 2 else "outer", "odd" if i % 2 else "even"
            if lq.sign[v] == mutated:
                record(f"{phase}_{row}_{parity}", lhs, v, -src[v] / Y(i, 2 if m == 2 else 1) ** 2)
            else:  # node n - 1's sums end at p (mid) or at its own column (outer)
                rhs = mid_sum(src, i) if m == 2 else outer_sum(src, i, m)
                record(f"{phase}_{row}_{'last' if i == n - 1 else parity}", lhs, v, rhs)
    mid = at[n - 1, 2]
    record("minus_white_plus", psi_pp, p, psi_p[mid] / Y(n, 1) - (Y(n - 1, 2) + 1) * psi[p] / Y(n, 1) ** 2)
    rhs = Y(n, 1) * (
        psi_p[mid] / (Y(n - 1, 2) + 1)
        + (psi[at[n - 1, 1]] + psi[at[n - 1, 3]]) / (Y(n - 1, 1) + 1)
        + Y(n, 1) * psi[q] / (Y(n - 1, 2) + 1)
    )
    record("minus_white_fixed", psi_pp, q, rhs)
    return worst


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


def _lemma_vectors(case: Case, a: np.ndarray):
    """Closed-form eigenvectors Phi of J at lambda = zeta^a for an array of a: returns
    lambda (A,), Phi (N, A) and the residual of each column, all from one L @ Psi,
    with Psi = Phi / eta the same eigenvectors for L = diag(1/eta) J diag(eta)."""
    dt = case.type
    power = _lemma_powers(dt, a)
    phi = _lemma_phi_B(dt.rank, power) if dt.family == "B" else _lemma_phi_D(dt.rank, power)
    lam = power(1)
    psi = phi / case.point.eta[:, None]
    residuals = np.max(np.abs(case.jacobian @ psi - lam * psi), axis=0) / np.max(np.abs(psi), axis=0)
    return lam, phi, residuals


def lemma_eigenvector(case: Case, a: int):
    """Closed-form eigenvector phi of J at lambda = zeta^a; returns (lambda, phi, residual on L)."""
    amax = lemma_parameters(case.type)
    if not 1 <= a <= amax:
        raise ValueError(f"a = {a} out of range 1..{amax}")
    lam, phi, residuals = _lemma_vectors(case, np.array([a]))
    return lam[0], phi[:, 0], float(residuals[0])


def special_eigenvector(case: Case):
    """The lambda = -1 vector supported on the two symmetric vertices. eta is equal
    there, so it is an eigenvector of L as of J."""
    dt = case.type
    n = dt.rank
    if dt.family == "B":
        psi = np.zeros(2 * n + 1)
        psi[n - 1] = 1.0
        psi[n + 1] = -1.0
    elif dt.family == "D":
        psi = np.zeros(n)
        psi[n - 2] = 1.0
        psi[n - 1] = -1.0
    else:
        raise ValueError(f"no special vector for family {dt.family}")
    residual = float(np.max(np.abs(case.jacobian @ psi + psi)) / np.max(np.abs(psi)))
    return -1.0, psi, residual


def lemma_boundary_value(dt: DynkinType, a):
    """|phi_0| from the continued closed form (one a or an array); vanishes at lambda = zeta^a."""
    power = _lemma_powers(dt, a)
    l = dt.rank // 2
    if dt.family == "B":
        val = (2 * (2 * l + 1) ** 2 / (4 * l + 1)) * power(-2 * l) * power(np.arange(4 * l + 1)).sum(axis=-1)
    else:
        val = (2 * (2 * l - 1) ** 2 / (2 * l)) * power(-(l - 1)) * power(np.arange(2 * l)).sum(axis=-1)
    return abs(val)


def lemma_summary(case: Case) -> Dict[str, float]:
    """Worst residuals over all admissible a, the special vector, and phi_0, plus
    the exponent multiset comparison against the direct spectrum."""
    a = np.arange(1, lemma_parameters(case.type) + 1)
    lams, _, residuals = _lemma_vectors(case, a)
    special_lam, _, special_res = special_eigenvector(case)
    exps = case.report.exponents
    lemma_exps, _ = snap_exponents(np.append(lams, special_lam), exps.period)
    return {
        "vectors": _worst(np.max(residuals), special_res),
        "boundary": float(np.max(lemma_boundary_value(case.type, a))),
        "exponent_multiset_match": 0.0 if lemma_exps == exps.exponents else 1.0,
    }


# ------------------------------------------------------------- type-C blocks

@dataclass
class CBlockPair:
    """The C_n block split of L: the hat blocks, the reduced blocks K(lambda) and
    L(lambda), and L's eigenvalues, which fix det(zI - L) = det(zI - J) since L^P = I."""

    rank: int
    eigenvalues: np.ndarray
    Khat: np.ndarray
    Lhat: np.ndarray
    K: Callable[[complex], np.ndarray]
    L: Callable[[complex], np.ndarray]
    residuals: Dict[str, float]


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


def _khat_reference(n: int, Y) -> np.ndarray:
    d = n - 1
    R1 = lambda i: Y(i, 1) * Y(i + 1, 1) / ((Y(i, 1) + 1) * (Y(i + 1, 1) + 1))
    k = np.zeros((d, d))
    for j in range(1, d + 1):
        for i in range(max(1, j - 2), min(d, j + 2) + 1):  # the band |i - j| <= 2 holds every entry
            if j % 2 == 0:
                if i == j:
                    k[i - 1, j - 1] = -1.0
                elif abs(i - j) == 1:
                    k[i - 1, j - 1] = Y(i, 1) * Y(j, 1) ** 2 / (Y(j, 1) + 1)
            else:
                if i == j:
                    k[i - 1, j - 1] = -1.0 + (R1(j - 1) if j >= 2 else 0.0) + (0.0 if j == d else R1(j))
                elif abs(i - j) == 1:
                    k[i - 1, j - 1] = -1.0 / (Y(i, 1) * (Y(j, 1) + 1))
                elif abs(i - j) == 2:
                    mid = (i + j) // 2
                    k[i - 1, j - 1] = Y(i, 1) * Y(mid, 1) / ((Y(j, 1) + 1) * (Y(mid, 1) + 1))
    return k


def _lhat_reference(n: int, Y) -> np.ndarray:
    l = n // 2
    d = 4 * l
    R = lambda m, i: Y(i, m) * Y(i + 1, m) / ((Y(i, m) + 1) * (Y(i + 1, m) + 1))
    S = lambda i: 2.0 / ((Y(i, 1) + 1) * (Y(i, 2) + 1))
    L = np.zeros((d, d))
    for j in range(1, 4 * l - 1):
        for i in range(max(1, j - 4), min(4 * l - 2, j + 4) + 1):  # the band |i - j| <= 4 holds every entry
            v = 0.0
            if j % 4 == 0:
                jj = j // 2
                if i == j:
                    v = -1.0 + R(2, jj - 1) + (R(2, jj) if jj < 2 * l - 1 else 0.0) + S(jj)
                elif i == j - 1:
                    v = -1.0 / (Y(jj, 1) * Y(jj, 2) * (Y(jj, 2) + 1))
                elif abs(i - j) == 2 and i % 2 == 0:
                    v = -1.0 / (Y(i // 2, 2) * (Y(jj, 2) + 1))
                elif abs(i + 1 - j) == 2 and i % 2 == 1:
                    v = Y((i + 1) // 2, 1) / (Y(jj, 2) + 1) * (
                        1.0 / (Y((i + 1) // 2, 2) + 1) + Y(jj, 1) / (Y(jj, 2) * (Y(jj, 1) + 1))
                    )
                elif abs(i - j) == 4 and i % 2 == 0:
                    nb = jj + 1 if i > j else jj - 1
                    v = Y(nb, 2) * Y(i // 2, 2) / ((Y(jj, 2) + 1) * (Y(nb, 2) + 1))
            elif j % 4 == 1:
                jj = (j + 1) // 2
                if i == j:
                    v = -1.0 + (R(1, jj - 1) if jj >= 2 else 0.0) + (0.0 if j == 4 * l - 3 else R(1, jj)) + S(jj)
                elif i == j + 1:
                    v = -2.0 / (Y(i // 2, 1) * Y(i // 2, 2) * (Y(i // 2, 1) + 1))
                elif abs(i - j) == 2 and i % 2 == 1:
                    v = -1.0 / (Y((i + 1) // 2, 1) * (Y(jj, 1) + 1))
                elif abs(i - 1 - j) == 2 and i % 2 == 0:
                    v = 2 * Y(i // 2, 2) / (Y(jj, 1) + 1) * (
                        1.0 / (Y(i // 2, 1) + 1) + Y(jj, 2) / (Y(jj, 1) * (Y(jj, 2) + 1))
                    )
                elif abs(i - j) == 4 and i % 2 == 1:
                    nb = jj + 1 if i > j else jj - 1
                    v = Y(nb, 1) * Y((i + 1) // 2, 1) / ((Y(jj, 1) + 1) * (Y(nb, 1) + 1))
            elif j % 4 == 2:
                jj = j // 2
                if i == j:
                    v = -1.0
                elif i == j - 1:
                    v = Y(jj, 1) * Y(jj, 2) / (Y(jj, 2) + 1)
                elif abs(i - j) == 2 and i % 2 == 0:
                    v = Y(i // 2, 2) * Y(jj, 2) ** 2 / (Y(jj, 2) + 1)
            else:
                jj = (j + 1) // 2
                if i == j:
                    v = -1.0
                elif i == j + 1:
                    v = 2 * Y(i // 2, 1) * Y(i // 2, 2) / (Y(i // 2, 1) + 1)
                elif abs(i - j) == 2 and i % 2 == 1:
                    v = Y((i + 1) // 2, 1) * Y(jj, 1) ** 2 / (Y(jj, 1) + 1)
            if v:
                L[i - 1, j - 1] = v
    m = 2 * l  # node index n
    if l >= 2:
        L[4 * l - 2, 4 * l - 5] = Y(m - 1, 2) * Y(m, 1) / ((Y(m - 2, 2) + 1) * (Y(m - 1, 2) + 1))
        L[4 * l - 1, 4 * l - 5] = Y(m - 1, 2) / (Y(m, 1) * (Y(m - 2, 2) + 1))
        L[4 * l - 5, 4 * l - 2] = Y(m - 2, 2) * Y(m - 1, 2) / ((Y(m - 1, 2) + 1) * (Y(m, 1) + 1))
    L[4 * l - 2, 4 * l - 4] = 2 * Y(m, 1) / (Y(m - 1, 1) + 1) * (
        1 + Y(m - 1, 2) / (Y(m - 1, 1) * (Y(m - 1, 2) + 1))
    )
    L[4 * l - 1, 4 * l - 4] = 2 * Y(m - 1, 2) / (Y(m - 1, 1) * Y(m, 1) * (Y(m - 1, 1) + 1))
    L[4 * l - 2, 4 * l - 3] = Y(m - 1, 2) ** 2 * Y(m, 1) / (Y(m - 1, 2) + 1)
    L[4 * l - 1, 4 * l - 3] = Y(m - 1, 2) ** 2 / Y(m, 1)
    L[4 * l - 4, 4 * l - 2] = Y(m - 1, 1) / ((Y(m - 1, 2) + 1) * (Y(m, 1) + 1))
    L[4 * l - 3, 4 * l - 2] = -1.0 / (Y(m - 1, 2) * (Y(m, 1) + 1))
    L[4 * l - 2, 4 * l - 2] = Y(m - 1, 2) * Y(m, 1) / ((Y(m - 1, 2) + 1) * (Y(m, 1) + 1))
    # Y(m-1,2)/(Y(m,1)(Y(m,1)+1)) - (Y(m-1,2)+1)/Y(m,1)^2, without its cancellation at high rank
    L[4 * l - 1, 4 * l - 2] = -(Y(m - 1, 2) + Y(m, 1) + 1) / (Y(m, 1) ** 2 * (Y(m, 1) + 1))
    L[4 * l - 2, 4 * l - 1] = Y(m, 1) ** 2 / (Y(m - 1, 2) + 1)
    return L


def _chain(y: np.ndarray) -> np.ndarray:
    """Zero-diagonal tridiagonal M with M[i, i +- 1] = y_i / (y_{i +- 1} + 1)."""
    return np.diag(y[:-1] / (y[1:] + 1), 1) + np.diag(y[1:] / (y[:-1] + 1), -1)


def _reduced_blocks(n: int, Y) -> Tuple[Callable[[complex], np.ndarray], Callable[[complex], np.ndarray]]:
    """K(lambda) and L(lambda) of the C_n reduction: the lambda-free entries are built
    once, and each call adds (lambda + 1/lambda) I and the three entries in lambda^{+-1}."""
    y1 = np.array([Y(i, 1) for i in range(1, n)])
    y2 = np.array([Y(i, 2) for i in range(1, n)])
    yn = Y(n, 1)
    k0 = _chain(y1)
    l0 = np.zeros((2 * n, 2 * n))
    l0[0:2 * n - 2:2, 0:2 * n - 2:2] = k0
    l0[1:2 * n - 2:2, 1:2 * n - 2:2] = _chain(y2)
    r = np.arange(n - 1)
    l0[2 * r, 2 * r + 1] = y1 / (y2 * (y2 + 1))
    l0[2 * r + 1, 2 * r] = 2 * y2 / (y1 * (y1 + 1))
    l0[2 * n - 2, 2 * n - 3] = 2 * yn / (y2[-1] + 1)
    l0[2 * n - 3, 2 * n - 2] = y2[-1] / (yn + 1)
    l0[2 * n - 1, 2 * n - 2] = y2[-1] + 1
    l0[2 * n - 2, 2 * n - 1] = 2.0 / (y2[-1] + 1)

    def K(lam):
        return k0 + (lam + 1 / lam) * np.eye(n - 1)

    def L(lam):
        m = l0 + (lam + 1 / lam) * np.eye(2 * n)
        m[2 * n - 2, 2 * n - 4] = -2 / lam * yn / (y1[-1] + 1)
        m[2 * n - 1, 2 * n - 3] = lam * yn
        m[2 * n - 3, 2 * n - 1] = y2[-1] / (lam * (y2[-1] + 1) * (yn + 1))
        return m

    return K, L


def c_blocks(case: Case, block_tol: float = 1e-9) -> CBlockPair:
    """Block-diagonalize the C_n Jacobian L in the symmetric/antisymmetric basis.

    Raises if the off-diagonal blocks exceed `block_tol`. For even rank the blocks
    are compared with J's closed-form tables scaled by d_col / d_row, d being eta on
    each basis vector (eta is equal on each folded pair), entry by entry: relative
    to |table entry| where it is nonzero, and to max(1, max|table|) where it is zero.
    The case's eigenvalues are handed on for the full determinant identity.
    """
    if case.type.family != "C":
        raise ValueError(f"the block reduction is for type C, not {case.type.family}")
    n = case.type.rank
    # m = u^-1 L u for the basis u of columns top - bot, top + bot, mid, p and q (one or
    # two +-1 entries each): the columns combined as u's, the rows as u^-1's, which halves them
    m = _c_split(_c_split(case.jacobian.T, n, 1.0).T, n, 0.5)
    nk = n - 1
    offdiag = _worst(np.max(np.abs(m[:nk, nk:])), np.max(np.abs(m[nk:, :nk])))
    if not offdiag <= block_tol:
        raise RuntimeError(
            f"C_{n}: subspace invariance fails (off-diagonal block {offdiag:.3e})"
        )
    khat = m[:nk, :nk].copy()
    lhat = m[nk:, nk:].copy()
    Y = case.point.ysol.value
    residuals = {"offdiag": offdiag}
    if n % 2 == 0:
        v = np.arange(3 * n - 1)
        d = case.point.eta[np.concatenate((v[:3 * n - 3:3], v[v % 3 != 2]))]  # at each column's first vertex
        # per entry, since the entries of L-hat span many magnitudes at high rank
        for name, block, ref, dd in (("khat_reference", khat, _khat_reference(n, Y), d[:nk]),
                                     ("lhat_reference", lhat, _lhat_reference(n, Y), d[nk:])):
            ref = ref * dd[None, :] / dd[:, None]
            scale = np.where(ref != 0, np.abs(ref), max(1.0, float(np.max(np.abs(ref)))))
            residuals[name] = float(np.max(np.abs(block - ref) / scale))
    K, L = _reduced_blocks(n, Y)
    return CBlockPair(
        rank=n,
        eigenvalues=case.report.eigenvalues,
        Khat=khat,
        Lhat=lhat,
        K=K,
        L=L,
        residuals=residuals,
    )


def _unit_circle_samples(count: int) -> np.ndarray:
    return np.exp(1j * np.linspace(0.11, np.pi - 0.11, count))


def _dets(block: Callable[[complex], np.ndarray], lams: np.ndarray) -> np.ndarray:
    """det block(lambda) by LU, one sample at a time: stacked over 32 samples, the
    2n x 2n L(lambda) of C512 would hold 537 MB."""
    return np.array([np.linalg.det(block(lam)) for lam in lams])


def _product(factors: np.ndarray) -> np.ndarray:
    """prod(factors) along the last axis as exp(sum log|f|) prod(f / |f|): a running
    product of thousands of factors can over- and underflow (to inf * 0 = nan) where
    the product is modest, and summed angles near +-pi round away tiny phases."""
    factors = np.asarray(factors, dtype=complex)
    modulus = np.abs(factors)
    return np.exp(np.sum(np.log(modulus), axis=-1)) * np.prod(factors / modulus, axis=-1)


def _relative_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


def verify_c_reduction(blocks: CBlockPair, samples: int = 16) -> Dict[str, float]:
    """Residuals of the determinant identities linking the hat blocks to K, L,
    and of the full factorization det(zI - J) = z^{(3n-1)/2} det K det L.

    det K, det L and the hat-block determinants are LU determinants per sample;
    det(zI - J) is prod_i (z - lambda_i) over the case's eigenvalues, in log form.
    """
    n = blocks.rank
    lams = _unit_circle_samples(samples)
    z = lams ** 2
    eye_k, eye_l = np.eye(n - 1), np.eye(2 * n)
    det_k, det_l = _dets(blocks.K, lams), _dets(blocks.L, lams)
    lhs_k = (-lams) ** (-(n - 1)) * _dets(lambda lam: blocks.Khat - lam ** 2 * eye_k, lams)
    lhs_l = lams ** (-2 * n) * _dets(lambda lam: blocks.Lhat - lam ** 2 * eye_l, lams)
    lhs_f = _product(z[:, None] - blocks.eigenvalues[None, :])
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


def verify_conjecture_csol(blocks: CBlockPair, samples: int = 32) -> Dict[str, float]:
    """Numerical evidence for the open determinant conjecture (clearly labeled as such)."""
    lams = _unit_circle_samples(samples)
    prod_k, prod_l = csol_products(blocks.rank, lams)
    return {"csol_k": _relative_gap(_dets(blocks.K, lams), prod_k),
            "csol_l": _relative_gap(_dets(blocks.L, lams), prod_l),
            "conjecture_status": "open; numerical evidence only"}


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
    fd = finite_difference_jacobian(case.point.loop, case.point.eta)
    return _verdict(np.max(np.abs(case.jacobian - fd)), tol)


def periodicity_verdict(loop: MutationLoop, period: int, seed: int, points: int, tol: float) -> Dict:
    """Verdict on mu_gamma^period = id at `points` seeded points drawn from [0.5, 2)."""
    y = _seeded_uniform(seed, (points, loop.n_vertices))
    return _verdict(check_periodicity(loop, y, period), tol)


def c_checks(case: Case, tolerances: Tolerances = Tolerances(), samples: int = 32) -> Dict[str, Dict]:
    """The type-C checks of C_n: the block reduction and the (open) Csol conjecture.

    Both read one block split, made under the off-diagonal bound `block_diag`,
    and gate on `c_identities`. If the split raises, both fail with its error.
    """
    try:
        blocks = c_blocks(case, tolerances.block_diag)
    except Exception as exc:  # recorded like any raising check
        return {"c_reduction": _failed(exc), "csol": _failed(exc)}

    def reduction():
        red = verify_c_reduction(blocks, samples=max(16, samples // 2))
        return _verdict(_worst(*(v for k, v in red.items() if k != "offdiag")),
                        tolerances.c_identities, **red)

    def csol():
        cs = verify_conjecture_csol(blocks, samples=samples)
        return _verdict(_worst(cs["csol_k"], cs["csol_l"]), tolerances.c_identities,
                        csol_k=cs["csol_k"], csol_l=cs["csol_l"], status=cs["conjecture_status"])

    return {"c_reduction": _guarded(reduction), "csol": _guarded(csol)}


def run_case(
    dt: DynkinType,
    tolerances: Tolerances = Tolerances(),
    samples: int = 32,
    seed: int = 0,
    periodicity_points: int = 20,
) -> Dict:
    """Full verification suite for one (family, rank) case, built once.

    Never aborts mid-suite: every check runs and reports a residual with its
    pass flag, and a check whose call raises reports its error instead of a
    residual; the caller decides what a failure means.
    """
    # assemble under a coarse guard so an over-tight configured tolerance is
    # reported as a failing check instead of aborting the suite
    case = build_case(dt, tol=max(tolerances.fixed_point, 1e-6))
    loop, eta = case.point.loop, case.point.eta
    rep = case.report
    period = rep.exponents.period

    def fixed_point():
        newton_res = float(np.max(np.abs(newton_fixed_point(loop) - eta) / np.abs(eta)))
        return _verdict(case.point.residual, tolerances.fixed_point,
                        newton_res <= tolerances.newton_agreement, newton_agreement=newton_res)

    def lemma_vectors():
        summary = lemma_summary(case)
        return _verdict(_worst(summary["vectors"], summary["boundary"],
                               summary["exponent_multiset_match"]), tolerances.lemma)

    def relations():
        return _verdict(_worst(*relation_residuals(case).values()), tolerances.relations)

    checks: Dict[str, Dict] = {
        "fixed_point": _guarded(fixed_point),
        "periodicity": _guarded(lambda: periodicity_verdict(loop, period, seed, periodicity_points,
                                                             tolerances.periodicity)),
        "jacobian_fd": _guarded(lambda: check_jacobian_fd(case, tolerances.fd_jacobian)),
        "conjecture_38": _guarded(lambda: check_conjecture_38(rep, tolerances.charpoly)),
    }
    if dt.family in ("B", "D") and dt.rank % 2 == 0:
        checks["lemma_vectors"] = _guarded(lemma_vectors)
    if dt.family == "C":
        checks.update(c_checks(case, tolerances, samples))
    if dt.family != "A" and dt.rank % 2 == 0:
        checks["relations"] = _guarded(relations)

    return {
        "type": dt.family,
        "rank": dt.rank,
        "level": 2,
        "period": period,
        "n_vertices": loop.n_vertices,
        "exponents": list(rep.exponents.exponents),
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
