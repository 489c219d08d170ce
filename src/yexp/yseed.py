"""Y-seed mutation, cluster transformations of mutation loops, and their Jacobians.

Y-seed mutation is subtraction-free, so a loop maps positive points to positive
points, and on x = log y each of its two phases runs as one `quiver.LogProgram`
(`MutationLoop.programs`, compiled once by `quiver.build_mutation_loop`): a
gather, a softplus, a gather, a multiply and a row sum, on one point or a batch.
There orbits stay finite and the Jacobian L = diag(1/y') J diag(y) stays within
the arrow multiplicities at every rank. This module runs the programs and is the
one engine: the y-space `cluster_transform` and `loop_jacobian` are views of it,
defined at positive points only (anything else raises ValueError).

The inverse loop needs no programs of its own: y -> 1/y (x -> -x) conjugates mutation
on b to mutation on -b, so gamma^-1(x) = -P1(nu^-1(P2(nu^-1(-x)))) with P1, P2 the
loop's programs, and `check_periodicity` runs half an orbit each way in one batch
(`MutationLoop.half_orbit_programs`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .quiver import LogProgram, MutationLoop

_FD_COLUMNS = 64  # columns per finite-difference batch
_FD_STEP = 1e-6  # the central-difference step in x = log y


@dataclass(frozen=True, eq=False)
class LoopJacobian:
    """Loop Jacobian J = diag(y') L diag(1/y) at a positive point y, y' its image
    and L the log-coordinate Jacobian."""

    matrix: np.ndarray


def _softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + e^t) in place; finite for every finite t. It is log1p(e^t) with t
    capped at 40, below exp's overflow, then raised to at least t, which it equals
    in floating point from t = 37 on: four calls of vectorized loops, several
    times faster per entry than the scalar loop of np.logaddexp."""
    u = np.minimum(t, 40.0)
    np.exp(u, out=u)
    np.log1p(u, out=u)
    return np.maximum(u, t, out=t)


def _run(program: LogProgram, x: np.ndarray) -> np.ndarray:
    """A phase program on x = log y: one point (N,) or a batch with vertices on axis 0 (N, k).

    gather, softplus, gather, multiply, and a bincount that sums each row's
    terms in entry order, one point alone or in a batch, where entry a of
    point j lands in row rows[a] * k + j of the flattened image; that index is
    built once per batch width (`program.batch`).
    """
    z = x[program.reads]
    _softplus(z[len(x):])
    terms = z[program.index]
    if x.ndim == 1:
        terms *= program.weights
        return np.bincount(program.rows, weights=terms, minlength=len(x))
    terms *= program.weights[:, None]
    n, k = x.shape
    where = program.batch.get(k)
    if where is None:
        program.batch.clear()
        where = program.batch[k] = ((program.rows * k)[:, None] + np.arange(k)).ravel()
        where.setflags(write=False)
    return np.bincount(where, weights=terms.ravel(), minlength=n * k).reshape(n, k)


def _values(program: LogProgram, x: np.ndarray) -> np.ndarray:
    """The program's Jacobian entries at one point x: each weight times its slope,
    1 on x_k and sigma(x_k) = e^-softplus(-x_k) on softplus(x_k), with sigma the
    logistic function."""
    n = len(x)
    slope = np.ones(len(program.reads))
    slope[n:] = np.exp(-_softplus(-x[program.reads[n:]]))
    return program.weights * slope[program.index]


def log_cluster_transform(loop: MutationLoop, x: np.ndarray) -> np.ndarray:
    """The loop nu . mu_- . mu_+ on x = log y: one point (N,) or a batch with
    vertices on axis 0 (N, k), as the loop's two LogPrograms (`loop.programs`),
    the second with nu folded in. It is finite wherever x is, so it never raises."""
    plus, minus = loop.programs
    return _run(minus, _run(plus, x))


def log_loop_jacobian(loop: MutationLoop, x: np.ndarray) -> np.ndarray:
    """Loop Jacobian in log coordinates at x = log y: L = diag(1/y') J diag(y) with
    y' the image of y, so L at a fixed point is similar to J.

    L = J_- J_+ with rows relabelled by nu, summed from the two programs' entries:
    every pair of entries that meets in the product (`loop.jacobian_pairs`) adds
    its term to L in one bincount; O(pairs + N^2), no N^3 product.
    """
    plus, minus = loop.programs
    a, b, flat = loop.jacobian_pairs
    n = len(x)
    terms = _values(minus, _run(plus, x))[a] * _values(plus, x)[b]
    return np.bincount(flat, weights=terms, minlength=n * n).reshape(n, n)


def log_plus_phase(loop: MutationLoop, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The plus phase at x = log y: its image x' = log mu_+(y) and its Jacobian
    L_+ = diag(1/y') J_+ diag(y), the right factor that `log_loop_jacobian` pairs,
    the program's entries scattered to (rows[e], reads[index[e]])."""
    plus = loop.programs[0]
    n = len(x)
    where = plus.rows * n + plus.reads[plus.index]
    return _run(plus, x), np.bincount(where, weights=_values(plus, x), minlength=n * n).reshape(n, n)


def _positive_points(loop: MutationLoop, y, ndims=(1, 2)) -> np.ndarray:
    """y as float points, one (N,) or a batch (k, N) of k >= 1 as `ndims` allows. A complex,
    non-positive, non-finite or mis-shaped y, or an empty batch, raises ValueError: it is
    never cast."""
    y = np.asarray(y)
    if y.ndim not in ndims or y.shape[-1] != loop.n_vertices:
        raise ValueError(f"expected {loop.n_vertices} values per point, got shape {y.shape}")
    if not y.size:
        raise ValueError("the batch holds no points")
    if np.iscomplexobj(y) or not ((y > 0) & (y < np.inf)).all():
        raise ValueError("the loop is defined at positive points only")
    return y.astype(float)


def cluster_transform(loop: MutationLoop, y) -> np.ndarray:
    """Composite transformation nu . mu_- . mu_+ of one positive point (N,) or a
    batch (k, N): exp(`log_cluster_transform`(log y))."""
    x = np.log(_positive_points(loop, y))
    return np.exp(log_cluster_transform(loop, x.T)).T


def check_periodicity(loop: MutationLoop, y, period: int) -> float:
    """Max relative gap |gamma^a(y) / gamma^-b(y) - 1| over one positive point or a batch,
    with a = ceil(period / 2) and b = floor(period / 2): gamma being a bijection of the positive
    orthant, gamma^a(y) = gamma^-b(y) exactly when mu_gamma^period(y) = y.

    Both half-orbits run on x = log y, which stays finite where y overflows (max|log y| grows
    like twice the rank), as one stacked batch [x; -x] through the loop's two block programs
    (`MutationLoop.half_orbit_programs`): b steps, after one `log_cluster_transform` of x when
    the period is odd. The inverse is read off the loop's own programs by y -> 1/y duality,
    gamma^-1(x) = -P1(nu^-1(P2(nu^-1(-x)))), so the backward half holds -gamma^-k(x) and the
    gap is |expm1(x_fwd + u_bwd)|. A period that is not an integer >= 1 raises ValueError.
    """
    try:
        steps = -1 if isinstance(period, bool) else operator.index(period)
    except TypeError:
        steps = -1
    if steps < 1:
        raise ValueError(f"period {period!r} invalid: need an integer >= 1")
    x = np.log(_positive_points(loop, y)).T
    first, second = loop.half_orbit_programs
    u = np.concatenate((log_cluster_transform(loop, x) if steps % 2 else x, -x))
    for _ in range(steps // 2):
        u = _run(second, _run(first, u))
    n = loop.n_vertices
    return float(np.max(np.abs(np.expm1(u[:n] + u[n:])), initial=0.0))


def loop_jacobian(loop: MutationLoop, y) -> LoopJacobian:
    """Jacobian of the loop at one positive point y: `log_loop_jacobian` at x = log y
    carried to y, J[r, c] = L[r, c] y'_r / y_c."""
    y = _positive_points(loop, y, ndims=(1,))
    x = np.log(y)
    return LoopJacobian(log_loop_jacobian(loop, x) * np.exp(log_cluster_transform(loop, x))[:, None] / y)


def finite_difference_jacobian(loop: MutationLoop, y) -> np.ndarray:
    """Central-difference `log_loop_jacobian` at x = log y, step _FD_STEP, for one positive y.

    The shifted points run through `log_cluster_transform` in batches of
    _FD_COLUMNS columns (2 _FD_COLUMNS points), so the batch's temporaries stay
    bounded at any rank; every column is what it would be on its own.
    """
    x = np.log(_positive_points(loop, y, ndims=(1,)))
    n = x.shape[0]
    jac = np.empty((n, n))
    for lo in range(0, n, _FD_COLUMNS):
        m = min(_FD_COLUMNS, n - lo)
        step = np.zeros((m, n))
        step[np.arange(m), lo + np.arange(m)] = _FD_STEP
        images = log_cluster_transform(loop, (x + np.vstack((step, -step))).T)
        jac[:, lo:lo + m] = (images[:, :m] - images[:, m:]) / (2 * _FD_STEP)
    return jac
