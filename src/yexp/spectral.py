"""Jacobian spectra, exponents, the conjectured characteristic polynomial,
eigenvector identities, and the type-C block reduction.

Every root of the conjectured numerator N and denominator D is a P-th root of
unity, P = t(2 + h_dual), so both are kept as exact multisets of integer
exponents: m stands for the root e^{2 pi i m / P}. The conjecture
det(zI - J) = N/D is then decided on integers: D is contained in N, and N - D
equals the exponent multiset of the snapped spectrum of J.

Each (family, rank) case is built once, as a frozen `Case`: the fixed point
eta with its Y-solution, and the spectrum of the loop Jacobian J there. Every
per-case check reads J, its phase factors and the Y-values from that `Case`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .quiver import MutationLoop
from .rootsys import DynkinType, RootSystem, build_root_system, group_constants
from .yseed import (LoopJacobian, check_periodicity, cluster_transform,
                    finite_difference_jacobian, loop_jacobian)
from .ysys import EtaPoint, assemble_eta, calibrate_reading


@dataclass(frozen=True)
class ExponentSequence:
    period: int
    exponents: Tuple[int, ...]


@dataclass
class SpectralReport:
    type: DynkinType
    jacobian: LoopJacobian
    eigenvalues: np.ndarray
    exponents: ExponentSequence
    residuals: Dict[str, float] = field(default_factory=dict)
    conjecture: Optional[Dict] = None


# ------------------------------------------------------ conjectured N/D

def conjectured_charpoly(rs: RootSystem) -> Tuple[Counter, Counter]:
    """Numerator and denominator of the conjectured det(zI - J) as exponent multisets.

    Exponents are integers mod P = t(2 + h_dual). The numerator
    prod_i (z^P - 1)/(z^{t/t_i} - 1) holds every k in [0, P) with
    k t/t_i != 0 mod P, once per simple root i. A short root alpha contributes
    the denominator factor z - e^{2 pi i <rho,alpha>/(2 + h_dual)}, exponent
    t<rho,alpha>; a long root contributes z^t - e^{2 pi i <rho,alpha>/(2 + h_dual)},
    whose t roots have the exponents <rho,alpha> + j(2 + h_dual), j < t.
    """
    t, h_dual, period = group_constants(rs.type)
    shift = 2 + h_dual
    num: Counter = Counter()
    for ti in rs.t_i:
        num.update(k for k in range(period) if k * (t // ti) % period)
    den: Counter = Counter()
    for root in rs.roots:
        height = rs.pairing(rs.rho, root.vec)
        if root.long:
            assert height.denominator == 1, (rs.type, root)
            den.update((int(height) + j * shift) % period for j in range(t))
        else:
            assert (t * height).denominator == 1, (rs.type, root)
            den[int(t * height) % period] += 1
    return num, den


# ------------------------------------------------------------------- spectrum

def snap_exponents(eigenvalues: np.ndarray, period: int) -> Tuple[Tuple[int, ...], float]:
    """Round eigenvalue phases to integers modulo the period; return worst snap error."""
    exps = []
    worst = 0.0
    for lam in eigenvalues:
        m = int(round(np.angle(lam) / (2 * np.pi) * period)) % period
        worst = max(worst, abs(lam - np.exp(2j * np.pi * m / period)))
        exps.append(m)
    return tuple(sorted(exps)), worst


def spectrum(loop: MutationLoop, eta) -> SpectralReport:
    """Eigen-decomposition of the loop Jacobian at a verified fixed point."""
    dt = loop.start.type
    _, _, period = group_constants(dt)
    lj = loop_jacobian(loop, eta)
    jac = lj.matrix
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
        jacobian=lj,
        eigenvalues=eigs,
        exponents=ExponentSequence(period, exps),
        residuals=residuals,
    )


def check_conjecture_38(rep: SpectralReport, tol: float) -> Dict:
    """Verdict on det(zI - J) = N/D for the Jacobian of a spectrum report.

    Passes when D is contained in N, N - D equals the snapped spectrum exactly,
    and max(snap error, |J^P - I|_max / max(1, |J|_max)) is within `tol`. With
    J^P = I the minimal polynomial of J divides the separable z^P - 1, so J is
    diagonalizable and its eigenvalue multiset fixes det(zI - J).
    """
    num, den = conjectured_charpoly(build_root_system(rep.type))
    scale = max(1.0, float(np.max(np.abs(rep.jacobian.matrix))))
    residual = max(rep.residuals["exponent_snap"], rep.residuals["power_identity"] / scale)
    division_exact = not (den - num)
    quotient_matches = num - den == Counter(rep.exponents.exponents)
    return _verdict(residual, tol, division_exact and quotient_matches,
                    division_exact=division_exact, quotient_matches_spectrum=quotient_matches)


@dataclass(frozen=True)
class Case:
    """One (family, rank) case: eta with its Y-solution, and the spectrum of
    the loop Jacobian at eta, which holds the case's only Jacobian."""

    point: EtaPoint
    report: SpectralReport

    @property
    def type(self) -> DynkinType:
        return self.report.type

    @property
    def jacobian(self) -> np.ndarray:
        return self.report.jacobian.matrix


def build_case(dt: DynkinType, tol: float = 1e-9) -> Case:
    """Assemble eta (fixed-point residual within `tol`) and take its spectrum."""
    point = assemble_eta(dt, tol=tol)
    return Case(point, spectrum(point.loop, point.eta))


def verify_conjecture(dt: DynkinType) -> SpectralReport:
    """Spectrum report with the `check_conjecture_38` verdict at the default tolerance."""
    rep = build_case(dt).report
    rep.conjecture = check_conjecture_38(rep, Tolerances().charpoly)
    return rep


# ------------------------------------------------------- B/D relation matrices

def _relation_matrix_B(n: int, N: int) -> Dict[int, Dict[int, float]]:
    """Rows of J_gamma(eta) for B_{2l} in closed form (1-based indices)."""
    l = n // 2
    rows: Dict[int, Dict[int, float]] = {}

    def put(r, entries):
        rows[r] = {c: v for c, v in entries.items() if 1 <= c <= N}

    for k in range(1, l):
        put(2 * k - 1, {4 * l - 2 * k + 3: -1.0 / (4 * k * k - 1) ** 2})
        put(2 * k, {
            4 * l - 2 * k + 1: k / (k + 1),
            4 * l - 2 * k + 2: 16.0 * k * k * (k + 1) ** 2,
            4 * l - 2 * k + 3: (k + 1) / k,
        })
        put(2 * l + 2 * k + 2, {2 * l - 2 * k: -1.0 / (16.0 * (l - k) ** 2 * (l - k + 1) ** 2)})
        entries = {
            2 * l - 2 * k - 1: float((2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2),
            2 * l - 2 * k: (2 * l - 2 * k - 1) / (2 * l - 2 * k + 1),
        }
        if 2 * l - 2 * k - 2 >= 1:
            entries[2 * l - 2 * k - 2] = (2 * l - 2 * k + 1) / (2 * l - 2 * k - 1)
        put(2 * l + 2 * k + 3, entries)
    put(2 * l - 1, {
        2 * l: 2 * l * (2 * l + 1) / ((2 * l - 1) * (4 * l + 1) ** 2),
        2 * l + 2: 2 * l * (2 * l + 1) / ((2 * l - 1) * (4 * l + 1) ** 2),
        2 * l + 1: 16.0 * l ** 4 / ((4 * l * l - 1) * (4 * l + 1) ** 2),
        2 * l + 3: -2.0 / ((2 * l - 1) ** 2 * (2 * l + 1) * (4 * l + 1)),
    })
    for r, other in ((2 * l, 2 * l + 2), (2 * l + 2, 2 * l)):
        put(r, {
            r: -2 * l / (2 * l + 1),
            2 * l + 1: 8.0 * l ** 3 / (2 * l + 1) ** 3,
            other: 1.0 / (2 * l + 1),
            2 * l + 3: (4 * l + 1) / (2 * l * (2 * l + 1) ** 3),
        })
    put(2 * l + 1, {
        2 * l: -((2 * l + 1) ** 2) / (8.0 * l ** 3),
        2 * l + 2: -((2 * l + 1) ** 2) / (8.0 * l ** 3),
        2 * l + 3: -(4 * l + 1) / (16.0 * l ** 4),
        2 * l + 1: -1.0,
    })
    entries = {
        2 * l - 1: float((2 * l - 1) ** 2 * (4 * l + 1)),
        2 * l: float(4 * l * l - 1),
        2 * l + 2: float(4 * l * l - 1),
        2 * l + 1: 16.0 * l ** 4 * (2 * l - 1) / ((2 * l + 1) * (4 * l + 1)),
        2 * l + 3: (2 * l - 1) / (2 * l + 1),
    }
    if 2 * l - 2 >= 1:
        entries[2 * l - 2] = (2 * l + 1) / (2 * l - 1)
    put(2 * l + 3, entries)
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


def relation_residuals(case: Case, seed: int = 0) -> Dict[str, float]:
    """Residuals of the closed-form eigen-equation rows against the engine Jacobian.

    Types B and D compare predicted Jacobian rows on coordinate vectors; type C
    checks the phase-factor identities on random vectors. Even rank only.
    """
    dt = case.type
    if dt.rank % 2:
        raise ValueError("relation rows are available for even ranks only")
    if dt.family in ("B", "D"):
        jac = case.jacobian
        n = dt.rank
        rows = _relation_matrix_B(n, 2 * n + 1) if dt.family == "B" else _relation_matrix_D(n)
        worst = 0.0
        for r, entries in rows.items():
            predicted = np.zeros(jac.shape[0])
            for c, v in entries.items():
                predicted[c - 1] = v
            scale = max(1.0, float(np.max(np.abs(jac[r - 1]))))
            worst = max(worst, float(np.max(np.abs(jac[r - 1] - predicted))) / scale)
        return {"rows": worst}
    if dt.family != "C":
        raise ValueError(f"no closed-form relation rows for family {dt.family}")
    return _c_relation_residuals(case, seed)


def _c_relation_residuals(case: Case, seed: int) -> Dict[str, float]:
    n = case.type.rank
    l = n // 2
    Y = case.point.ysol.value
    jp, jm, _ = case.report.jacobian.phase_factors
    rng = np.random.default_rng(seed)

    def top(i):
        return 3 * (i - 1)

    def mid(i):
        return 3 * (i - 1) + 1

    def bot(i):
        return 3 * (i - 1) + 2

    p, q = 3 * n - 3, 3 * n - 2
    worst: Dict[str, float] = {}

    def record(name, lhs, rhs):
        r = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst[name] = max(worst.get(name, 0.0), r)

    for _ in range(4):
        psi = rng.uniform(-1.0, 1.0, 3 * n - 1)
        psi_p = jp @ psi
        psi_pp = jm @ psi_p
        for k in range(1, l + 1):
            for row in (top, bot):
                record("plus_outer_odd", psi_p[row(2 * k - 1)], -psi[row(2 * k - 1)] / Y(2 * k - 1, 1) ** 2)
            record("minus_mid_odd", psi_pp[mid(2 * k - 1)], -psi_p[mid(2 * k - 1)] / Y(2 * k - 1, 2) ** 2)
        for k in range(1, l):
            i = 2 * k - 1
            rhs = Y(i, 2) * (
                (psi[mid(i - 1)] / (Y(i - 1, 2) + 1) if i - 1 >= 1 else 0.0)
                + (psi[top(i)] + psi[bot(i)]) / (Y(i, 1) * (Y(i, 1) + 1))
                + Y(i, 2) * psi[mid(i)]
                + psi[mid(i + 1)] / (Y(i + 1, 2) + 1)
            )
            record("plus_mid_odd", psi_p[mid(i)], rhs)
            i = 2 * k
            for row in (top, bot):
                rhs = Y(i, 1) * (
                    psi[row(i - 1)] / (Y(i - 1, 1) + 1)
                    + Y(i, 1) * psi[row(i)]
                    + psi[mid(i)] / (Y(i, 2) * (Y(i, 2) + 1))
                    + psi[row(i + 1)] / (Y(i + 1, 1) + 1)
                )
                record("plus_outer_even", psi_p[row(i)], rhs)
            record("plus_mid_even", psi_p[mid(i)], -psi[mid(i)] / Y(i, 2) ** 2)
            for row in (top, bot):
                record("minus_outer_even", psi_pp[row(i)], -psi_p[row(i)] / Y(i, 1) ** 2)
            rhs = Y(i, 2) * (
                psi_p[mid(i - 1)] / (Y(i - 1, 2) + 1)
                + (psi_p[top(i)] + psi_p[bot(i)]) / (Y(i, 1) * (Y(i, 1) + 1))
                + Y(i, 2) * psi_p[mid(i)]
                + psi_p[mid(i + 1)] / (Y(i + 1, 2) + 1)
            )
            record("minus_mid_even", psi_pp[mid(i)], rhs)
            i = 2 * k - 1
            for row in (top, bot):
                rhs = Y(i, 1) * (
                    (psi_p[row(i - 1)] / (Y(i - 1, 1) + 1) if i - 1 >= 1 else 0.0)
                    + Y(i, 1) * psi_p[row(i)]
                    + psi_p[mid(i)] / (Y(i, 2) * (Y(i, 2) + 1))
                    + psi_p[row(i + 1)] / (Y(i + 1, 1) + 1)
                )
                record("minus_outer_odd", psi_pp[row(i)], rhs)
        i = 2 * l - 1
        rhs = Y(i, 2) * (
            (psi[mid(i - 1)] / (Y(i - 1, 2) + 1) if i - 1 >= 1 else 0.0)
            + (psi[top(i)] + psi[bot(i)]) / (Y(i, 1) * (Y(i, 1) + 1))
            + Y(i, 2) * psi[mid(i)]
            + psi[p] / (Y(n, 1) + 1)
        )
        record("plus_mid_last", psi_p[mid(i)], rhs)
        for row in (top, bot):
            rhs = Y(i, 1) * (
                (psi_p[row(i - 1)] / (Y(i - 1, 1) + 1) if i - 1 >= 1 else 0.0)
                + Y(i, 1) * psi_p[row(i)]
                + psi_p[mid(i)] / (Y(i, 2) * (Y(i, 2) + 1))
            )
            record("minus_outer_last", psi_pp[row(i)], rhs)
        record("minus_white_plus", psi_pp[p], psi_p[mid(2 * l - 1)] / Y(n, 1) - (Y(n - 1, 2) + 1) * psi[p] / Y(n, 1) ** 2)
        rhs = Y(n, 1) * (
            psi_p[mid(2 * l - 1)] / (Y(n - 1, 2) + 1)
            + (psi[top(2 * l - 1)] + psi[bot(2 * l - 1)]) / (Y(n - 1, 1) + 1)
            + Y(n, 1) * psi[q] / (Y(n - 1, 2) + 1)
        )
        record("minus_white_fixed", psi_pp[q], rhs)
    return worst


# ------------------------------------------------------- eigenvector lemmas

def _lemma_phi_B(n: int, lam: complex) -> np.ndarray:
    l = n // 2
    phi = np.zeros(2 * n + 1, dtype=complex)
    phi[2 * l - 1] = 1.0  # phi_{2l}
    phi[2 * l + 1] = 1.0  # phi_{2l+2}

    def geom(lo, hi):
        return sum(lam ** j for j in range(lo, hi + 1))

    for k in range(1, l):
        coef_odd = -2 * (l - k) * (2 * l + 1) ** 2 / (
            (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2 * (4 * l + 1)
        )
        phi[2 * l - 2 * k - 2] = (coef_odd / lam) * (
            (2 * l - 2 * k + 1) * (lam ** (2 * k + 1) + lam ** (2 * k) + lam ** (-2 * k) + lam ** (-(2 * k + 1)))
            + 2 * geom(-(2 * k - 1), 2 * k - 1)
        )
        coef_even = (2 * l - 2 * k + 1) * (2 * l + 1) ** 2 / (4 * l + 1)
        phi[2 * l - 2 * k - 1] = 2 * coef_even * (
            (l - k + 1) * (lam ** (2 * k) + lam ** (2 * k - 1) + lam ** (-(2 * k - 1)) + lam ** (-2 * k))
            + geom(-(2 * k - 2), 2 * k - 2)
        )
    phi[2 * l - 2] = -(2 * l * (2 * l + 1) ** 2 / ((2 * l - 1) ** 2 * (4 * l + 1) ** 2)) * (
        2 + (2 * l + 1) / lam + (2 * l + 1) / lam ** 2
    )
    phi[2 * l] = -((2 * l + 1) ** 3 / (8 * l ** 3)) * (1 + 1 / lam)
    phi[2 * l + 2] = (2 * l * (2 * l + 1) ** 2 / (4 * l + 1)) * ((2 * l + 1) * (lam + 1 / lam) + 4 * l)
    for k in range(1, l):
        phi[2 * l + 2 * k + 1] = -phi[2 * l - 2 * k - 1] / (16 * lam * (l - k) ** 2 * (l - k + 1) ** 2)
        phi[2 * l + 2 * k + 2] = (
            -lam * (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2 * phi[2 * l - 2 * k - 2]
        )
    return phi


def _lemma_phi_D(n: int, lam: complex) -> np.ndarray:
    l = n // 2
    phi = np.zeros(n, dtype=complex)
    phi[n - 2] = 1.0
    phi[n - 1] = 1.0
    for k in range(1, l):
        coef_odd = (l - k) * (2 * l - 1) ** 2 / (
            l * (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2
        )
        full = sum(lam ** j for j in range(-(k - 1), k))
        phi[2 * l - 2 * k - 2] = coef_odd * ((2 * l - 2 * k + 1) * (lam ** k + lam ** (-k)) + 2 * full)
        coef_even = -(2 * l - 2 * k + 1) * (2 * l - 1) ** 2 / l
        mid = sum(lam ** j for j in range(-(k - 2), k))
        phi[2 * l - 2 * k - 1] = coef_even * ((l - k + 1) * (lam ** k + lam ** (-(k - 1))) + mid)
    return phi


def lemma_parameters(dt: DynkinType) -> Tuple[complex, int]:
    """(primitive root zeta, admissible exponent count) for the eigenvector family."""
    if dt.rank % 2:
        raise ValueError("the closed-form eigenvector family needs even rank")
    l = dt.rank // 2
    if dt.family == "B":
        order = 4 * l + 1
    elif dt.family == "D":
        order = 2 * l
    else:
        raise ValueError(f"no closed-form eigenvector family for type {dt.family}")
    return np.exp(2j * np.pi / order), order - 1


def lemma_eigenvector(case: Case, a: int):
    """Closed-form eigenvector at lambda = zeta^a; returns (lambda, psi, residual)."""
    dt = case.type
    zeta, amax = lemma_parameters(dt)
    if not 1 <= a <= amax:
        raise ValueError(f"a = {a} out of range 1..{amax}")
    lam = zeta ** a
    phi = _lemma_phi_B(dt.rank, lam) if dt.family == "B" else _lemma_phi_D(dt.rank, lam)
    residual = float(np.max(np.abs(case.jacobian @ phi - lam * phi)) / np.max(np.abs(phi)))
    return lam, phi, residual


def special_eigenvector(case: Case):
    """The lambda = -1 vector supported on the two symmetric vertices."""
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


def lemma_boundary_value(dt: DynkinType, a: int) -> float:
    """|phi_0| from the continued closed form; vanishes exactly at lambda = zeta^a."""
    zeta, amax = lemma_parameters(dt)
    lam = zeta ** a
    l = dt.rank // 2
    if dt.family == "B":
        val = (2 * (2 * l + 1) ** 2 / (4 * l + 1)) * lam ** (-2 * l) * sum(lam ** j for j in range(4 * l + 1))
    else:
        val = (2 * (2 * l - 1) ** 2 / (2 * l)) * lam ** (-(l - 1)) * sum(lam ** j for j in range(2 * l))
    return abs(val)


def lemma_summary(case: Case) -> Dict[str, float]:
    """Worst residuals over all admissible a, the special vector, and phi_0, plus
    the exponent multiset comparison against the direct spectrum."""
    _, amax = lemma_parameters(case.type)
    vectors = [lemma_eigenvector(case, a) for a in range(1, amax + 1)]
    vectors.append(special_eigenvector(case))
    exps = case.report.exponents
    lemma_exps, _ = snap_exponents(np.array([lam for lam, _, _ in vectors]), exps.period)
    return {
        "vectors": max(res for _, _, res in vectors),
        "boundary": max(lemma_boundary_value(case.type, a) for a in range(1, amax + 1)),
        "exponent_multiset_match": 0.0 if lemma_exps == exps.exponents else 1.0,
    }


# ------------------------------------------------------------- type-C blocks

@dataclass
class CBlockPair:
    rank: int
    jacobian: np.ndarray
    Khat: np.ndarray
    Lhat: np.ndarray
    K: Callable[[complex], np.ndarray]
    L: Callable[[complex], np.ndarray]
    basis: np.ndarray
    residuals: Dict[str, float]


def _c_basis(n: int) -> np.ndarray:
    N = 3 * n - 1
    u = np.zeros((N, N))
    col = 0
    for k in range(1, n):
        u[3 * k - 3, col] = 1.0
        u[3 * k - 1, col] = -1.0
        col += 1
    for k in range(1, n):
        u[3 * k - 3, col] = 1.0
        u[3 * k - 1, col] = 1.0
        col += 1
        u[3 * k - 2, col] = 1.0
        col += 1
    u[3 * n - 3, col] = 1.0
    u[3 * n - 2, col + 1] = 1.0
    return u


def _khat_reference(n: int, Y) -> np.ndarray:
    d = n - 1
    R1 = lambda i: Y(i, 1) * Y(i + 1, 1) / ((Y(i, 1) + 1) * (Y(i + 1, 1) + 1))
    k = np.zeros((d, d))
    for i in range(1, d + 1):
        for j in range(1, d + 1):
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
        for i in range(1, 4 * l - 1):
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
    L[4 * l - 1, 4 * l - 2] = Y(m - 1, 2) / (Y(m, 1) * (Y(m, 1) + 1)) - (Y(m - 1, 2) + 1) / Y(m, 1) ** 2
    L[4 * l - 2, 4 * l - 1] = Y(m, 1) ** 2 / (Y(m - 1, 2) + 1)
    return L


def _k_reduced(n: int, Y, lam: complex) -> np.ndarray:
    big = lam + 1 / lam
    d = n - 1
    k = np.zeros((d, d), dtype=complex)
    for i in range(1, d + 1):
        k[i - 1, i - 1] = big
        for j in (i - 1, i + 1):
            if 1 <= j <= d:
                k[i - 1, j - 1] = Y(i, 1) / (Y(j, 1) + 1)
    return k


def _l_reduced(n: int, Y, lam: complex) -> np.ndarray:
    big = lam + 1 / lam
    d = 2 * n
    L = np.zeros((d, d), dtype=complex)
    for i in range(1, 2 * n - 1):
        L[i - 1, i - 1] = big
        if i % 2 == 1:
            j = i + 1
            if j <= 2 * n - 2:
                L[i - 1, j - 1] = Y(j // 2, 1) / (Y(j // 2, 2) * (Y(j // 2, 2) + 1))
            for j in (i - 2, i + 2):
                if 1 <= j <= 2 * n - 2:
                    L[i - 1, j - 1] = Y((i + 1) // 2, 1) / (Y((j + 1) // 2, 1) + 1)
        else:
            L[i - 1, i - 2] = 2 * Y(i // 2, 2) / (Y(i // 2, 1) * (Y(i // 2, 1) + 1))
            for j in (i - 2, i + 2):
                if 1 <= j <= 2 * n - 2:
                    L[i - 1, j - 1] = Y(i // 2, 2) / (Y(j // 2, 2) + 1)
    L[2 * n - 2, 2 * n - 2] = big
    L[2 * n - 1, 2 * n - 1] = big
    L[2 * n - 2, 2 * n - 4] = -2 / lam * Y(n, 1) / (Y(n - 1, 1) + 1)
    L[2 * n - 2, 2 * n - 3] = 2 * Y(n, 1) / (Y(n - 1, 2) + 1)
    L[2 * n - 1, 2 * n - 3] = lam * Y(n, 1)
    L[2 * n - 3, 2 * n - 2] = Y(n - 1, 2) / (Y(n, 1) + 1)
    L[2 * n - 1, 2 * n - 2] = Y(n - 1, 2) + 1
    L[2 * n - 3, 2 * n - 1] = Y(n - 1, 2) / (lam * (Y(n - 1, 2) + 1) * (Y(n, 1) + 1))
    L[2 * n - 2, 2 * n - 1] = 2.0 / (Y(n - 1, 2) + 1)
    return L


def c_blocks(case: Case, block_tol: float = 1e-9) -> CBlockPair:
    """Block-diagonalize the C_n Jacobian in the symmetric/antisymmetric basis.

    Raises if the off-diagonal blocks exceed `block_tol`. For even rank the
    extracted blocks are also compared against their closed-form entry tables.
    """
    if case.type.family != "C":
        raise ValueError(f"the block reduction is for type C, not {case.type.family}")
    n = case.type.rank
    jac = case.jacobian
    u = _c_basis(n)
    m = np.linalg.solve(u, jac @ u)
    nk = n - 1
    offdiag = max(float(np.max(np.abs(m[:nk, nk:]))), float(np.max(np.abs(m[nk:, :nk]))))
    if not offdiag <= block_tol:
        raise RuntimeError(
            f"C_{n}: subspace invariance fails (off-diagonal block {offdiag:.3e})"
        )
    khat = m[:nk, :nk].copy()
    lhat = m[nk:, nk:].copy()
    Y = case.point.ysol.value
    residuals = {"offdiag": offdiag}
    if n % 2 == 0:
        residuals["khat_reference"] = float(np.max(np.abs(khat - _khat_reference(n, Y))))
        residuals["lhat_reference"] = float(np.max(np.abs(lhat - _lhat_reference(n, Y))))
    return CBlockPair(
        rank=n,
        jacobian=jac,
        Khat=khat,
        Lhat=lhat,
        K=lambda lam: _k_reduced(n, Y, lam),
        L=lambda lam: _l_reduced(n, Y, lam),
        basis=u,
        residuals=residuals,
    )


def _unit_circle_samples(count: int):
    return [np.exp(1j * t) for t in np.linspace(0.11, np.pi - 0.11, count)]


def verify_c_reduction(blocks: CBlockPair, samples: int = 16) -> Dict[str, float]:
    """Residuals of the determinant identities linking the hat blocks to K, L,
    and of the full factorization det(zI - J) = z^{(3n-1)/2} det K det L."""
    n = blocks.rank
    eye_k = np.eye(n - 1)
    eye_l = np.eye(2 * n)
    out = {"k_reduction": 0.0, "l_reduction": 0.0, "full_det": 0.0}
    out.update(blocks.residuals)
    for lam in _unit_circle_samples(samples):
        det_k = np.linalg.det(blocks.K(lam))
        det_l = np.linalg.det(blocks.L(lam))
        lhs_k = (-lam) ** (-(n - 1)) * np.linalg.det(blocks.Khat - lam ** 2 * eye_k)
        out["k_reduction"] = max(out["k_reduction"], abs(lhs_k - det_k) / max(1.0, abs(det_k)))
        lhs_l = lam ** (-2 * n) * np.linalg.det(blocks.Lhat - lam ** 2 * eye_l)
        out["l_reduction"] = max(out["l_reduction"], abs(lhs_l - det_l) / max(1.0, abs(det_l)))
        z = lam ** 2
        lhs_f = np.linalg.det(z * np.eye(3 * n - 1) - blocks.jacobian)
        rhs_f = lam ** (3 * n - 1) * det_k * det_l
        out["full_det"] = max(out["full_det"], abs(lhs_f - rhs_f) / max(1.0, abs(rhs_f)))
    return out


def csol_products(n: int, lam: complex) -> Tuple[complex, complex]:
    """Right-hand sides of the two conjectured determinant factorizations."""
    big = lam + 1 / lam
    prod_k = np.prod([big - 2 * math.cos((2 * i + 3) * math.pi / (2 * (n + 3))) for i in range(1, n)])
    prod_l = np.prod(
        [(big - 2 * math.cos((i + 2) * math.pi / (n + 3))) ** 2 for i in range(1, n - 1)]
    ) * np.prod([big - 2 * math.cos(j * math.pi / (n + 3)) for j in (1, 2, n + 1, n + 2)])
    return prod_k, prod_l


def verify_conjecture_csol(blocks: CBlockPair, samples: int = 32) -> Dict[str, float]:
    """Numerical evidence for the open determinant conjecture (clearly labeled as such)."""
    n = blocks.rank
    out = {"csol_k": 0.0, "csol_l": 0.0, "conjecture_status": "open; numerical evidence only"}
    for lam in _unit_circle_samples(samples):
        prod_k, prod_l = csol_products(n, lam)
        det_k = np.linalg.det(blocks.K(lam))
        det_l = np.linalg.det(blocks.L(lam))
        out["csol_k"] = max(out["csol_k"], abs(det_k - prod_k) / max(1.0, abs(prod_k)))
        out["csol_l"] = max(out["csol_l"], abs(det_l - prod_l) / max(1.0, abs(prod_l)))
    return out


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
    """Verdict on the analytic loop Jacobian against central differences.

    The residual is max|J - J_fd| / max(1, max|J|): the entries of J grow with
    rank, and the float error of the differences grows with them.
    """
    fd = finite_difference_jacobian(case.point.loop, case.point.eta)
    scale = max(1.0, float(np.max(np.abs(case.jacobian))))
    return _verdict(np.max(np.abs(case.jacobian - fd)) / scale, tol)


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
        return _verdict(max(v for k, v in red.items() if k != "offdiag"),
                        tolerances.c_identities, **red)

    def csol():
        cs = verify_conjecture_csol(blocks, samples=samples)
        return _verdict(max(cs["csol_k"], cs["csol_l"]), tolerances.c_identities,
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
    from .ysys import newton_fixed_point  # looked up per call, so it can be replaced

    # assemble under a coarse guard so an over-tight configured tolerance is
    # reported as a failing check instead of aborting the suite
    case = build_case(dt, tol=max(tolerances.fixed_point, 1e-6))
    loop, eta = case.point.loop, case.point.eta
    rep = case.report
    period = rep.exponents.period

    def fixed_point():
        fixed_res = np.max(np.abs(cluster_transform(loop, eta) - eta) / np.abs(eta))
        newton_res = float(np.max(np.abs(newton_fixed_point(loop) - eta) / np.abs(eta)))
        return _verdict(fixed_res, tolerances.fixed_point,
                        newton_res <= tolerances.newton_agreement, newton_agreement=newton_res)

    def periodicity():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(periodicity_points):
            y = rng.uniform(0.5, 2.0, loop.n_vertices)
            worst = max(worst, check_periodicity(loop, y, period))
        return _verdict(worst, tolerances.periodicity)

    def lemma_vectors():
        summary = lemma_summary(case)
        return _verdict(max(summary["vectors"], summary["boundary"],
                            summary["exponent_multiset_match"]), tolerances.lemma)

    def relations():
        return _verdict(max(relation_residuals(case, seed=seed).values()), tolerances.relations)

    checks: Dict[str, Dict] = {
        "fixed_point": _guarded(fixed_point),
        "periodicity": _guarded(periodicity),
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
