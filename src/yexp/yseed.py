"""Y-seed mutation, cluster transformations of mutation loops, and their Jacobians.

A loop's two phases are each a set of commuting mutations at pairwise
unconnected vertices, compiled once by build_mutation_loop, so each phase is
applied as one vectorized update, with its closed-form Jacobian. The
single-mutation rule (`mutate_yseed`) is kept as the public engine and the
reference the phase updates are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import MutationDomainError
from .quiver import MutationLoop, Phase, Quiver, mutate_quiver


@dataclass(frozen=True)
class YSeed:
    quiver: Quiver
    values: Tuple


@dataclass(frozen=True)
class LoopJacobian:
    """Loop Jacobian at a point, with its per-phase factors.

    phase_factors = (J_plus at y, J_minus at mu_+(y), permutation matrix of nu);
    their product equals `matrix`.
    """

    matrix: np.ndarray
    phase_factors: Tuple[np.ndarray, np.ndarray, np.ndarray]


def _mutate_values(arrows: np.ndarray, y: np.ndarray, k: int, jac: Optional[np.ndarray]):
    """Apply the Y-seed value rule at k in place of y; update jac rows if given."""
    yk = y[k]
    if yk == 0:
        raise MutationDomainError(k)
    out = y.copy()
    out[k] = 1.0 / yk
    row_k = jac[k, :].copy() if jac is not None else None
    if jac is not None:
        jac[k, :] = (-1.0 / yk ** 2) * row_k
    n = y.shape[0]
    for i in range(n):
        if i == k:
            continue
        a = arrows[k, i]
        b = arrows[i, k]
        if a > 0:
            base = 1.0 / yk + 1.0
            if base == 0:
                raise MutationDomainError(k)
            f = base ** (-a)
            out[i] = y[i] * f
            if jac is not None:
                dfk = a * y[i] * base ** (-a - 1) / yk ** 2
                jac[i, :] = f * jac[i, :] + dfk * row_k
        elif b > 0:
            f = (yk + 1.0) ** b
            out[i] = y[i] * f
            if jac is not None:
                dfk = b * y[i] * (yk + 1.0) ** (b - 1)
                jac[i, :] = f * jac[i, :] + dfk * row_k
    if not np.isfinite(out).all():
        raise MutationDomainError(k, f"mutation at vertex {k} produced a non-finite value")
    return out


def mutate_yseed(seed: YSeed, k: int) -> YSeed:
    """Single Y-seed mutation at vertex k."""
    y = np.asarray(seed.values, dtype=complex if any(isinstance(v, complex) for v in seed.values) else float)
    out = _mutate_values(seed.quiver.arrows, y, k, None)
    return YSeed(mutate_quiver(seed.quiver, k), tuple(out))


def _apply_phase(phase: Phase, y: np.ndarray, want_jac: bool):
    """Mutate y at every vertex of a phase at once; return the image and its Jacobian.

    For k in the phase, y_k -> 1/y_k. Every other y_i is multiplied by
    (1 + y_k)^a for each arrow i -> k of multiplicity a, and by
    (1 + 1/y_k)^-a for each arrow k -> i. The Jacobian is diagonal except in
    the phase's columns; it is None unless asked for.
    """
    s, rows, cols, e = phase.vertices, phase.rows, phase.cols, phase.exponents
    yk = y[s]
    # y_k = 0, or 1 + 1/y_k = 0 where k has an outgoing arrow, is a pole; the
    # first one in phase order is raised, as one mutation at a time would
    zero = yk == 0
    inv = 1.0 / np.where(zero, 1.0, yk)
    into = e > 0
    base = np.where(into, yk[cols] + 1.0, inv[cols] + 1.0)
    pole = zero.copy()
    pole[cols[~into & (base == 0)]] = True
    if pole.any():
        raise MutationDomainError(int(s[np.argmax(pole)]))
    gain = np.ones_like(y)
    np.multiply.at(gain, rows, base ** e)
    out = y * gain
    out[s] = inv
    finite = np.isfinite(out)
    if not finite.all():
        v = int(np.argmin(finite))
        raise MutationDomainError(v, f"phase mutation produced a non-finite value at vertex {v}")
    if not want_jac:
        return out, None
    jac = np.diag(gain)
    jac[s, s] = -inv * inv
    plus_one = yk[cols] + 1.0
    coeff = np.where(into, e / plus_one, -e / (yk[cols] * plus_one))
    jac[rows, s[cols]] = out[rows] * coeff
    return out, jac


def permutation_matrix(nu, dtype=float) -> np.ndarray:
    n = len(nu)
    p = np.zeros((n, n), dtype=dtype)
    for j in range(n):
        p[nu[j], j] = 1.0
    return p


def cluster_transform(loop: MutationLoop, y) -> np.ndarray:
    """Composite transformation nu . mu_- . mu_+ applied to the value tuple."""
    y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
    if y.shape != (loop.n_vertices,):
        raise ValueError(f"expected {loop.n_vertices} values, got shape {y.shape}")
    plus, minus = loop.phases
    end, _ = _apply_phase(minus, _apply_phase(plus, y, False)[0], False)
    out = np.empty_like(end)
    out[list(loop.nu)] = end
    return out


def check_periodicity(loop: MutationLoop, y, period: int) -> float:
    """Max relative residual of mu_gamma^period against the identity."""
    y0 = np.asarray(y, dtype=float)
    z = y0.copy()
    for _ in range(period):
        z = cluster_transform(loop, z)
    return float(np.max(np.abs(z - y0) / np.abs(y0)))


def loop_jacobian(loop: MutationLoop, y) -> LoopJacobian:
    """Analytic Jacobian of the cluster transformation at y, with phase factors."""
    y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
    plus, minus = loop.phases
    mid, jp = _apply_phase(plus, y, True)
    _, jm = _apply_phase(minus, mid, True)
    pmat = permutation_matrix(loop.nu, dtype=y.dtype)
    return LoopJacobian(pmat @ jm @ jp, (jp, jm, pmat))


def finite_difference_jacobian(loop: MutationLoop, y, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the cluster transformation (test oracle)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    jac = np.zeros((n, n))
    for j in range(n):
        up, dn = y.copy(), y.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (cluster_transform(loop, up) - cluster_transform(loop, dn)) / (2 * h)
    return jac
