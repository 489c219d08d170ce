"""Y-seed mutation, cluster transformations of mutation loops, and their Jacobians.

A loop's two phases are each a set of commuting mutations at pairwise
unconnected vertices, compiled once by build_mutation_loop, so each phase is
applied as one vectorized update, to one point or a batch of points, with its
closed-form Jacobian. The single-mutation rule (`mutate_yseed`) is kept as the
public engine and the reference the phase updates are tested against.
On x = log y (`log_cluster_transform`) orbits stay finite, and the Jacobian
L = diag(1/y') J diag(y) stays within the arrow multiplicities at every rank;
the y-space J (`loop_jacobian`) serves complex points and is L's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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

    phase_factors = (J_plus at y, J_minus at mu_+(y)); `matrix` is their product
    J_minus J_plus with its rows relabelled by nu, (J_minus J_plus)[loop.back].
    """

    matrix: np.ndarray
    phase_factors: Tuple[np.ndarray, np.ndarray]


def _mutate_values(arrows: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """The Y-seed value rule at k, applied to a copy of y."""
    yk = y[k]
    if yk == 0:
        raise MutationDomainError(k)
    out = y.copy()
    out[k] = 1.0 / yk
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
            out[i] = y[i] * base ** (-a)
        elif b > 0:
            out[i] = y[i] * (yk + 1.0) ** b
    if not np.isfinite(out).all():
        raise MutationDomainError(k, f"mutation at vertex {k} produced a non-finite value")
    return out


def mutate_yseed(seed: YSeed, k: int) -> YSeed:
    """Single Y-seed mutation at vertex k."""
    y = np.asarray(seed.values, dtype=complex if any(isinstance(v, complex) for v in seed.values) else float)
    out = _mutate_values(seed.quiver.arrows, y, k)
    return YSeed(mutate_quiver(seed.quiver, k), tuple(out))


def _apply_phase(phase: Phase, y: np.ndarray, want_jac: bool):
    """Mutate y at every vertex of a phase at once; return the image and its Jacobian.

    y is one point (N,) or a batch of points (k, N). For k in the phase,
    y_k -> 1/y_k. Every other y_i is multiplied by (1 + y_k)^a for each arrow
    i -> k of multiplicity a, and by (1 + 1/y_k)^-a for each arrow k -> i.
    The Jacobian, of a single point only, is diagonal except in the phase's
    columns; it is None unless asked for.
    """
    s, rows, cols, e = phase.vertices, phase.rows, phase.cols, phase.exponents
    into = e > 0
    # vertices on axis 0, so one point and a batch index alike
    yt = y.T
    yk = yt[s]
    if y.ndim == 2:
        into, e = into[:, None], e[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / yk
        base = np.where(into, yk[cols] + 1.0, inv[cols] + 1.0)
        gain = np.multiply.reduceat(base ** e, phase.starts)
        out = yt.copy()
        out[phase.targets] = yt[phase.targets] * gain
    out[s] = inv
    # every pole makes the image non-finite, so one test covers them all
    if not np.isfinite(out).all():
        _raise_domain_error(phase, yt, out)
    if not want_jac:
        return out.T, None
    jac = np.eye(len(y), dtype=y.dtype)
    jac[phase.targets, phase.targets] = gain
    jac[s, s] = -inv * inv
    plus_one = yk[cols] + 1.0
    coeff = np.where(into, e / plus_one, -e / (yk[cols] * plus_one))
    jac[rows, s[cols]] = out[rows] * coeff
    return out, jac


def _raise_domain_error(phase: Phase, yt: np.ndarray, out: np.ndarray):
    """Raise for the first point whose image is non-finite, as one mutation at a time would.

    y_k = 0, or 1 + 1/y_k = 0 where k has an outgoing arrow, is a pole; the
    first pole in phase order is named, and otherwise the first non-finite
    value.
    """
    if yt.ndim == 2:
        point = int(np.argmin(np.isfinite(out).all(axis=0)))
        yt, out = yt[:, point], out[:, point]
    s, cols, e = phase.vertices, phase.cols, phase.exponents
    yk = yt[s]
    pole = yk == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        pole[cols[(e < 0) & (1.0 / yk[cols] + 1.0 == 0)]] = True
    if pole.any():
        raise MutationDomainError(int(s[np.argmax(pole)]))
    v = int(np.argmin(np.isfinite(out)))
    raise MutationDomainError(v, f"phase mutation produced a non-finite value at vertex {v}")


def cluster_transform(loop: MutationLoop, y) -> np.ndarray:
    """Composite transformation nu . mu_- . mu_+ of one point (N,) or a batch (k, N)."""
    y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
    if y.ndim not in (1, 2) or y.shape[-1] != loop.n_vertices:
        raise ValueError(f"expected {loop.n_vertices} values per point, got shape {y.shape}")
    plus, minus = loop.phases
    end, _ = _apply_phase(minus, _apply_phase(plus, y, False)[0], False)
    return end[..., loop.back]


def _apply_phase_log(phase: Phase, x: np.ndarray) -> np.ndarray:
    """The phase's mutations on x = log y, vertices on axis 0, for positive points.

    x_k -> -x_k for k in the phase, and arrow j adds e_j log(1 + y_k^sign(e_j)) to
    its target, as in `_apply_phase`; log(1 + 1/y_k) = log(1 + y_k) - x_k.
    """
    s, cols, e = phase.vertices, phase.cols, phase.exponents
    if x.ndim == 2:
        e = e[:, None]
    xs = x[s]
    soft = np.logaddexp(0.0, xs)[cols]
    out = x.copy()
    out[phase.targets] += np.add.reduceat(e * np.where(e > 0, soft, soft - xs[cols]), phase.starts)
    out[s] = -xs
    return out


def _log_phase_jacobian(phase: Phase, x: np.ndarray) -> np.ndarray:
    """Jacobian of `_apply_phase_log` at one point x (N,): -1 on the phase's diagonal,
    1 on the rest, and arrow j adds |e_j| sigma(sign(e_j) x_k) at (target, k), the
    derivative of e_j log(1 + y_k^sign(e_j)), with sigma the logistic function."""
    s, rows, cols, e = phase.vertices, phase.rows, phase.cols, phase.exponents
    jac = np.eye(len(x))
    jac[s, s] = -1.0
    jac[rows, s[cols]] = np.abs(e) * np.exp(-np.logaddexp(0.0, -np.sign(e) * x[s][cols]))
    return jac


def log_cluster_transform(loop: MutationLoop, x: np.ndarray) -> np.ndarray:
    """The loop nu . mu_- . mu_+ on x = log y: one point (N,) or a batch with
    vertices on axis 0 (N, k). It is finite wherever x is, so it never raises."""
    plus, minus = loop.phases
    return _apply_phase_log(minus, _apply_phase_log(plus, x))[loop.back]


def log_loop_jacobian(loop: MutationLoop, x: np.ndarray) -> np.ndarray:
    """Loop Jacobian in log coordinates at x = log y: L = diag(1/y') J diag(y) with
    y' the image of y, so L at a fixed point is similar to J."""
    plus, minus = loop.phases
    jp = _log_phase_jacobian(plus, x)
    jm = _log_phase_jacobian(minus, _apply_phase_log(plus, x))
    return (jm @ jp)[loop.back]


def check_periodicity(loop: MutationLoop, y, period: int) -> float:
    """Max relative residual |mu_gamma^period(y) - y| / |y| over one positive point or a batch.

    The orbit runs on x = log y, which stays finite where y overflows (max|log y|
    grows like twice the rank); the residual is |expm1(x_period - x_0)|.
    """
    y0 = np.asarray(y, dtype=float)
    if not (y0 > 0).all():
        raise ValueError("periodicity is checked at positive points only")
    x = x0 = np.log(y0).T
    for _ in range(period):
        x = log_cluster_transform(loop, x)
    return float(np.max(np.abs(np.expm1(x - x0)), initial=0.0))


def loop_jacobian(loop: MutationLoop, y) -> LoopJacobian:
    """Analytic Jacobian of the cluster transformation at y, with phase factors."""
    y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
    plus, minus = loop.phases
    mid, jp = _apply_phase(plus, y, True)
    _, jm = _apply_phase(minus, mid, True)
    return LoopJacobian((jm @ jp)[loop.back], (jp, jm))


def finite_difference_jacobian(loop: MutationLoop, y, h: float = 1e-6) -> np.ndarray:
    """Central-difference `log_loop_jacobian` at x = log y, for positive y (test oracle).

    The 2N shifted points run through `log_cluster_transform` as one batch.
    """
    x = np.log(np.asarray(y, dtype=float))
    n = x.shape[0]
    step = h * np.eye(n)
    images = log_cluster_transform(loop, (x + np.vstack((step, -step))).T)
    return (images[:, :n] - images[:, n:]) / (2 * h)
