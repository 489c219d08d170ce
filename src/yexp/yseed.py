"""Y-seed mutation, cluster transformations of mutation loops, and their Jacobians.

A loop's two phases are each a set of commuting mutations at pairwise
unconnected vertices, compiled once by build_mutation_loop, so each phase is
applied as one vectorized update, to one point or a batch of points, with its
closed-form Jacobian. The single-mutation rule (`mutate_yseed`) is kept as the
public engine and the reference the phase updates are tested against.
On x = log y (`log_cluster_transform`) orbits stay finite, and the Jacobian
L = diag(1/y') J diag(y) stays within the arrow multiplicities at every rank;
there each phase is the loop's `LogProgram` (`MutationLoop.programs`): a
gather, a softplus, a gather, a multiply and a row sum. The y-space J
(`loop_jacobian`) serves complex points and is L's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import MutationDomainError
from .quiver import MutationLoop, Phase, Quiver, mutate_quiver

_FD_COLUMNS = 64  # columns per finite-difference batch


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


@dataclass(frozen=True, eq=False)
class LogProgram:
    """One phase on x = log y, compiled to one weighted sum per vertex.

    z = x[reads] = [x; x[vertices]], with softplus(t) = log(1 + e^t) taken on
    its last len(vertices) entries, so z = [x; softplus(x_S)]. Row i of the
    image is the sum, in entry order, of weights[a] z[index[a]] over the entries
    a with rows[a] = i, and entry a reads vertex reads[index[a]]. The entries
    are sorted by row and cover every row. A phase vertex's row is its -1
    diagonal. Any other vertex's is its +1 diagonal, then, arrow by arrow:
    e softplus(x_k) for an arrow it -> k of multiplicity e, and -e softplus(x_k)
    followed by the linear e x_k for an arrow k -> it, since
    log(1 + 1/y_k) = softplus(x_k) - x_k.
    `batch` keeps the flat image index of the last batch width k that `_run`
    saw, so an orbit or a finite-difference block of k points builds it once.
    """

    reads: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    batch: dict = field(default_factory=dict, repr=False)


def _compile_log_program(phase: Phase, order: np.ndarray) -> LogProgram:
    """The phase as a LogProgram whose row i is vertex order[i] after the phase."""
    n = len(order)
    s, rows, e = phase.vertices, phase.rows, phase.exponents
    arrow = np.arange(len(rows))
    out = e < 0
    diagonal = np.ones(n)
    diagonal[s] = -1.0
    # entries: the diagonals, a softplus per arrow, a linear term per arrow out of the phase
    row = np.concatenate((np.arange(n), rows, rows[out]))
    index = np.concatenate((np.arange(n), n + phase.cols, s[phase.cols[out]]))
    weights = np.concatenate((diagonal, e, -e[out])).astype(float)
    kind = np.repeat((0, 1, 2), (n, len(rows), int(out.sum())))
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    by = np.lexsort((kind, np.concatenate((np.full(n, -1), arrow, arrow[out])), position[row]))
    parts = (np.concatenate((np.arange(n), s)), index[by], weights[by], position[row[by]])
    for part in parts:
        part.setflags(write=False)
    return LogProgram(*parts)


def compile_log_programs(loop: MutationLoop) -> Tuple[LogProgram, LogProgram]:
    """mu_+ and mu_- as LogPrograms (`loop.programs` caches them). mu_+'s rows are
    the vertices in order; row i of mu_-'s is vertex back[i], so the second
    program's image is already relabelled by nu."""
    plus, minus = loop.phases
    return _compile_log_program(plus, np.arange(loop.n_vertices)), _compile_log_program(minus, loop.back)


def log_jacobian_pairs(loop: MutationLoop) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, flat), the terms of L = J_- J_+ on x = log y (`loop.jacobian_pairs`
    caches them). Entry a[p] of mu_-'s program reads some vertex k, entry b[p] of
    mu_+'s program is in row k, and the product of their Jacobian entries adds to
    L.flat[flat[p]]. Row k of mu_+'s program must be vertex k, the order
    `compile_log_programs` gives it."""
    plus, minus = loop.programs
    n = loop.n_vertices
    k = minus.reads[minus.index]
    sizes = np.bincount(plus.rows, minlength=n)
    count = sizes[k]
    a = np.repeat(np.arange(len(k)), count)
    # the pairs of one entry of mu_-'s program run through row k's entries in order
    first = np.cumsum(sizes) - sizes
    b = np.arange(len(a)) + np.repeat(first[k] - (np.cumsum(count) - count), count)
    return a, b, minus.rows[a] * n + plus.reads[plus.index[b]]


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


def check_periodicity(loop: MutationLoop, y, period: int) -> float:
    """Max relative residual |mu_gamma^period(y) - y| / |y| over one positive point or a batch.

    The orbit runs on x = log y, which stays finite where y overflows (max|log y|
    grows like twice the rank), one `log_cluster_transform` (two LogPrograms) per
    step for the whole batch; the residual is |expm1(x_period - x_0)|.
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

    The shifted points run through `log_cluster_transform` in batches of
    _FD_COLUMNS columns (2 _FD_COLUMNS points), so the batch's temporaries stay
    bounded at any rank; every column is what it would be on its own.
    """
    x = np.log(np.asarray(y, dtype=float))
    n = x.shape[0]
    jac = np.empty((n, n))
    for lo in range(0, n, _FD_COLUMNS):
        m = min(_FD_COLUMNS, n - lo)
        step = np.zeros((m, n))
        step[np.arange(m), lo + np.arange(m)] = h
        images = log_cluster_transform(loop, (x + np.vstack((step, -step))).T)
        jac[:, lo:lo + m] = (images[:, :m] - images[:, m:]) / (2 * h)
    return jac
