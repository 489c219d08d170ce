import dataclasses
import warnings

import numpy as np
import pytest

from yexp import quiver, yseed
from yexp.errors import LoopPropertyError
from yexp.quiver import Quiver, build_mutation_loop, mutate_quiver
from yexp.rootsys import DynkinType, group_constants
from yexp.yseed import (_FD_COLUMNS, _run, _softplus, check_periodicity, cluster_transform,
                        finite_difference_jacobian, log_cluster_transform, log_loop_jacobian,
                        log_plus_phase, loop_jacobian)
from yexp.ysys import assemble_eta

from oracles import (MutationDomainError, dense_quiver, exchange_entries, half_turn_sigma, inverse_log_transform,
                     mutate_values, periodicity_residual)
from test_quiver import vertex_chain


def permutation_matrix(nu) -> np.ndarray:
    """The dense matrix of nu: P[nu[i], i] = 1 (oracle for the row relabelling by nu^-1 = argsort(nu))."""
    n = len(nu)
    p = np.zeros((n, n))
    p[nu, np.arange(n)] = 1
    return p


def example_quiver():
    a = np.zeros((4, 4), dtype=int)
    a[0, 1] = 1
    a[1, 2] = 2
    a[1, 3] = 1
    a[3, 0] = 1
    return Quiver(a)


def test_worked_yseed_example_random_points():
    rng = np.random.default_rng(5)
    q = example_quiver()
    for _ in range(100):
        y = rng.uniform(0.2, 3.0, 4)
        out = mutate_values(q.arrows, y, 1)
        expected = (
            y[0] * (y[1] + 1),
            1 / y[1],
            y[2] * (1 / y[1] + 1) ** -2,
            y[3] * (1 / y[1] + 1) ** -1,
        )
        assert np.allclose(out, expected, rtol=1e-12, atol=0)


def test_isolated_vertex_only_inverts():
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = 1
    assert mutate_values(a, np.array([2.0, 3.0, 5.0]), 2).tolist() == [2.0, 3.0, 0.2]


def test_mutation_involution_on_values():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                m = int(rng.integers(0, 3))
                if m:
                    if rng.integers(0, 2):
                        a[i, j] = m
                    else:
                        a[j, i] = m
        y = rng.uniform(0.3, 3.0, n)
        q = Quiver(a)
        k = int(rng.integers(0, n))
        once = mutate_quiver(q, k)
        assert mutate_quiver(once, k) == q
        assert np.allclose(mutate_values(once.arrows, mutate_values(q.arrows, y, k), k), y, rtol=1e-12)


def test_pole_raises():
    a = np.zeros((2, 2), dtype=int)
    a[0, 1] = 1
    with pytest.raises(MutationDomainError):
        mutate_values(a, np.array([0.0, 1.0]), 0)


def _mutate_with_jacobian(arrows, y, k, jac):
    """`mutate_values` at k, with the chain rule applied in place to the rows of jac."""
    out = mutate_values(arrows, y, k)
    yk = y[k]
    row_k = jac[k, :].copy()
    jac[k, :] = (-1.0 / yk ** 2) * row_k
    for i in np.flatnonzero(arrows[k] + arrows[:, k]):  # the rows that change besides k
        a, b = arrows[k, i], arrows[i, k]
        if a > 0:
            base = 1.0 / yk + 1.0
            jac[i, :] = base ** (-a) * jac[i, :] + a * y[i] * base ** (-a - 1) / yk ** 2 * row_k
        elif b > 0:
            jac[i, :] = (yk + 1.0) ** b * jac[i, :] + b * y[i] * (yk + 1.0) ** (b - 1) * row_k
    return out


def _mutate_points(arrows, y, k):
    """`mutate_values` at k on one point (N,) or on each point of a batch (k, N)."""
    points = [mutate_values(arrows, point, k) for point in np.reshape(y, (-1, y.shape[-1]))]
    return np.reshape(points, y.shape)


def _sequential_phases(loop, y, want_jac=False):
    """Reference engine: one `mutate_values` per point and one `mutate_quiver` per vertex.

    y is one point (N,) or, without Jacobians, a batch (k, N). Returns the
    values after mu_+ and after mu_- (before nu), and the two phase Jacobians
    (None unless asked for).
    """
    q = dense_quiver(loop.start)
    images, jacs = [], []
    for phase in (loop.plus_set, loop.minus_set):
        jac = np.eye(len(y), dtype=y.dtype) if want_jac else None
        for k in phase:
            y = _mutate_with_jacobian(q.arrows, y, k, jac) if want_jac else _mutate_points(q.arrows, y, k)
            q = mutate_quiver(q, k)
        images.append(y)
        jacs.append(jac)
    return images, jacs


def _sequential_transform(loop, y):
    (_, end), _ = _sequential_phases(loop, y)
    out = np.empty_like(end)
    out[..., list(loop.nu)] = end
    return out


def _sequential_jacobian(loop, y):
    """Reference image of y, the y-space loop Jacobian there, its phase factors'
    product J_- J_+ relabelled by nu as the values are, and the factors (J_+, J_-).
    The product is an einsum: a BLAS product of this size can take milliseconds
    where BLAS threads contend for the cores."""
    (_, end), (jp, jm) = _sequential_phases(loop, y, want_jac=True)
    image, jac = np.empty_like(end), np.empty_like(jp)
    image[list(loop.nu)] = end
    jac[list(loop.nu)] = np.einsum("ij,jk->ik", jm, jp)
    return image, jac, (jp, jm)


def _phase_images(dt, y):
    """Reference values after mu_+ and after mu_- (before nu), for display checks."""
    (mid, end), _ = _sequential_phases(build_mutation_loop(dt), np.asarray(y, dtype=float))
    return mid, end


def test_printed_transformation_type_d():
    n, l = 8, 4
    dt = DynkinType("D", n)
    rng = np.random.default_rng(1)
    y = rng.uniform(0.5, 2.0, n)
    mid, end = _phase_images(dt, y)
    yv = lambda s: y[s - 1] if s >= 1 else 0.0
    mv = lambda s: mid[s - 1]
    for i in range(1, l):
        assert mid[2 * i - 2] == pytest.approx(yv(2 * i - 1) * (yv(2 * i - 2) + 1) * (yv(2 * i) + 1), rel=1e-12)
        assert mid[2 * i - 1] == pytest.approx(1 / yv(2 * i), rel=1e-12)
    assert mid[2 * l - 2] == pytest.approx(yv(2 * l - 1) * (yv(2 * l - 2) + 1), rel=1e-12)
    assert mid[2 * l - 1] == pytest.approx(yv(2 * l) * (yv(2 * l - 2) + 1), rel=1e-12)
    for i in range(1, l):
        assert end[2 * i - 2] == pytest.approx(1 / mv(2 * i - 1), rel=1e-12)
    assert end[2 * l - 3] == pytest.approx(
        mv(2 * l - 2) * (mv(2 * l - 3) + 1) * (mv(2 * l - 1) + 1) * (mv(2 * l) + 1), rel=1e-12)
    assert end[2 * l - 2] == pytest.approx(1 / mv(2 * l - 1), rel=1e-12)
    assert end[2 * l - 1] == pytest.approx(1 / mv(2 * l), rel=1e-12)


def test_printed_transformation_type_b():
    n, l = 8, 4
    dt = DynkinType("B", n)
    rng = np.random.default_rng(2)
    N = 2 * n + 1
    y = rng.uniform(0.5, 2.0, N)
    mid, end = _phase_images(dt, y)
    lq = build_mutation_loop(dt).start
    yv = lambda i, m=1: y[lq.vertex_of(i, m)]
    mv = lambda i, m=1: mid[lq.vertex_of(i, m)]
    ev = lambda i, m=1: end[lq.vertex_of(i, m)]
    for i in range(1, l):
        left = yv(2 * i - 2) if i > 1 else 0.0
        assert mv(2 * i - 1) == pytest.approx(yv(2 * i - 1) * (left + 1) * (yv(2 * i) + 1), rel=1e-12)
        assert mv(2 * i) == pytest.approx(1 / yv(2 * i), rel=1e-12)
    assert mv(2 * l - 1) == pytest.approx(
        yv(2 * l - 1) * (yv(2 * l - 2) + 1) * (yv(2 * l, 1) + 1) * (yv(2 * l, 3) + 1), rel=1e-12)
    for m in (1, 3):
        assert mv(2 * l, m) == pytest.approx(1 / yv(2 * l, m), rel=1e-12)
    assert mv(2 * l, 2) == pytest.approx(
        yv(2 * l, 2) * (1 / yv(2 * l, 1) + 1) ** -1 * (1 / yv(2 * l, 3) + 1) ** -1 * (yv(2 * l + 1) + 1),
        rel=1e-12)
    assert mv(2 * l + 1) == pytest.approx(1 / yv(2 * l + 1), rel=1e-12)
    for i in range(1, l):
        assert mv(2 * l + 2 * i) == pytest.approx(
            yv(2 * l + 2 * i) * (yv(2 * l + 2 * i - 1) + 1) * (yv(2 * l + 2 * i + 1) + 1), rel=1e-12)
        assert mv(2 * l + 2 * i + 1) == pytest.approx(1 / yv(2 * l + 2 * i + 1), rel=1e-12)
    # second phase touches only the neighborhood of the single "-" vertex
    assert ev(2 * l - 1) == pytest.approx(mv(2 * l - 1) * (mv(2 * l, 2) + 1), rel=1e-12)
    for m in (1, 3):
        assert ev(2 * l, m) == pytest.approx(mv(2 * l, m) * (1 / mv(2 * l, 2) + 1) ** -1, rel=1e-12)
    assert ev(2 * l, 2) == pytest.approx(1 / mv(2 * l, 2), rel=1e-12)
    assert ev(2 * l + 1) == pytest.approx(mv(2 * l + 1) * (mv(2 * l, 2) + 1), rel=1e-12)
    for i in range(1, l):
        assert ev(2 * i - 1) == pytest.approx(mv(2 * i - 1), rel=1e-12)
        assert ev(2 * i) == pytest.approx(mv(2 * i), rel=1e-12)
        assert ev(2 * l + 2 * i) == pytest.approx(mv(2 * l + 2 * i), rel=1e-12)
        assert ev(2 * l + 2 * i + 1) == pytest.approx(mv(2 * l + 2 * i + 1), rel=1e-12)


def test_printed_transformation_type_c():
    n, l = 6, 3
    dt = DynkinType("C", n)
    rng = np.random.default_rng(3)
    y = rng.uniform(0.5, 2.0, 3 * n - 1)
    mid, _ = _phase_images(dt, y)
    lq = build_mutation_loop(dt).start
    yv = lambda i, m: y[lq.vertex_of(i, m)]
    mv = lambda i, m: mid[lq.vertex_of(i, m)]
    for i in range(1, l + 1):
        for m in (1, 3):
            assert mv(2 * i - 1, m) == pytest.approx(1 / yv(2 * i - 1, m), rel=1e-12)
    for i in range(1, l):
        left = yv(2 * i - 2, 2) if i > 1 else 0.0
        expected = (
            yv(2 * i - 1, 2) * (left + 1) * (yv(2 * i, 2) + 1)
            * (1 / yv(2 * i - 1, 1) + 1) ** -1 * (1 / yv(2 * i - 1, 3) + 1) ** -1
        )
        assert mv(2 * i - 1, 2) == pytest.approx(expected, rel=1e-12)
        for m in (1, 3):
            assert mv(2 * i, m) == pytest.approx(
                yv(2 * i, m) * (yv(2 * i - 1, m) + 1) * (yv(2 * i + 1, m) + 1) * (1 / yv(2 * i, 2) + 1) ** -1,
                rel=1e-12)
        assert mv(2 * i, 2) == pytest.approx(1 / yv(2 * i, 2), rel=1e-12)
    expected_last = (
        yv(2 * l - 1, 2) * (yv(2 * l - 2, 2) + 1) * (yv(n, 1) + 1)
        * (1 / yv(2 * l - 1, 1) + 1) ** -1 * (1 / yv(2 * l - 1, 3) + 1) ** -1
    )
    assert mv(2 * l - 1, 2) == pytest.approx(expected_last, rel=1e-12)
    assert mv(n, 1) == pytest.approx(1 / yv(n, 1), rel=1e-12)
    assert mv(n + 1, 1) == pytest.approx(
        yv(n + 1, 1) * (yv(2 * l - 1, 1) + 1) * (yv(2 * l - 1, 3) + 1), rel=1e-12)


ALL_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for r in range(lo, 11)]


ORACLE_TYPES = ALL_TYPES + [DynkinType(f, 24) for f in "BCD"]


@pytest.mark.parametrize("dt", ORACLE_TYPES, ids=str)
def test_phase_updates_match_sequential_mutations(dt):
    # every fast path against one mutation at a time: the log programs, the
    # y-space views of them, and the plus phase with its factor L_+
    loop = build_mutation_loop(dt)
    rng = np.random.default_rng(37)
    for _ in range(3):
        y = rng.uniform(0.5, 2.0, loop.n_vertices)
        want, want_jac, (jp, _) = _sequential_jacobian(loop, y)
        assert np.max(np.abs(cluster_transform(loop, y) - want) / np.abs(want)) <= 1e-13
        assert np.max(np.abs(log_cluster_transform(loop, np.log(y)) - np.log(want))) <= 1e-13
        want_log = want_jac * y / want[:, None]
        got_log = log_loop_jacobian(loop, np.log(y))
        assert np.max(np.abs(got_log - want_log)) <= 1e-13 * np.max(np.abs(want_log))
        got = loop_jacobian(loop, y).matrix
        assert np.max(np.abs(got - want_jac)) <= 1e-13 * max(1.0, np.max(np.abs(want_jac)))
        mid, _ = _phase_images(dt, y)
        x_plus, plus = log_plus_phase(loop, np.log(y))
        assert np.max(np.abs(x_plus - np.log(mid))) <= 1e-13
        assert np.max(np.abs(plus - jp * y / mid[:, None])) <= 1e-13


def _raised_vertex(transform, loop, y):
    with pytest.raises(MutationDomainError) as err:
        transform(loop, y)
    return err.value.vertex


@pytest.mark.parametrize("dt", [DynkinType("A", 6), DynkinType("B", 5), DynkinType("C", 5),
                                DynkinType("D", 7)], ids=str)
def test_domain_errors_name_the_sequential_vertex(dt):
    loop = build_mutation_loop(dt)
    arrows = dense_quiver(loop.start).arrows
    y = np.linspace(0.5, 2.0, loop.n_vertices)
    plus, minus = loop.plus_set[-1], loop.minus_set[0]
    points = {"plus zero": (plus, 0.0), "minus zero": (minus, 0.0)}
    # 1 + 1/y_k = 0 is a pole only where k has an outgoing arrow; in types A
    # and D every plus vertex is a sink
    sources = [k for k in loop.plus_set if arrows[k].any()]
    assert bool(sources) == (dt.family in "BC")
    if sources:
        points["plus pole"] = (sources[0], -1.0)
    for name, (vertex, value) in points.items():
        z = y.copy()
        z[vertex] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _raised_vertex(_sequential_transform, loop, z) == vertex, name


def test_pole_at_a_sink_is_not_an_error():
    # mu_+ of A3 mutates the sink 1: y_1 = -1 zeroes its neighbours instead of raising
    loop = build_mutation_loop(DynkinType("A", 3))
    y = np.array([2.0, -1.0, 3.0])
    np.testing.assert_array_equal(mutate_values(dense_quiver(loop.start).arrows, y, 1), [0.0, -1.0, 0.0])


VIEWS = {
    "cluster_transform": cluster_transform,
    "loop_jacobian": loop_jacobian,
    "check_periodicity": lambda loop, y: check_periodicity(loop, y, 1),
    "finite_difference_jacobian": finite_difference_jacobian,
}


@pytest.mark.parametrize("bad", ["complex", "complex with zero imaginary parts", "zero", "negative", "nan", "inf",
                                 "mis-shaped"])
@pytest.mark.parametrize("name", VIEWS)
def test_y_space_views_reject_points_off_the_positive_domain(name, bad):
    # a complex point raises rather than losing its imaginary part to a cast
    loop = build_mutation_loop(DynkinType("C", 4))
    y = np.linspace(0.5, 2.0, loop.n_vertices + (bad == "mis-shaped"))
    z = y.astype(complex if bad.startswith("complex") else float)
    z[1] = {"complex": 1 + 1j, "zero": 0.0, "negative": -0.5, "nan": np.nan, "inf": np.inf}.get(bad, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in (z, np.stack([y, z])):
            with pytest.raises(ValueError, match="positive points only|values per point"):
                VIEWS[name](loop, point)


BATCH_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
               for r in range(lo, 13)]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("dt", BATCH_TYPES, ids=str)
def test_batched_points_match_single_points_bitwise(dt):
    loop = build_mutation_loop(dt)
    batch = np.random.default_rng(43).uniform(0.5, 2.0, (4, loop.n_vertices))
    _same_bits(cluster_transform(loop, batch), [cluster_transform(loop, y) for y in batch])


def test_cluster_transform_rejects_bad_shapes():
    loop = build_mutation_loop(DynkinType("A", 3))
    for shape in ((), (4,), (2, 4), (2, 2, 3)):
        with pytest.raises(ValueError):
            cluster_transform(loop, np.ones(shape))


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_positivity(dt):
    loop = build_mutation_loop(dt)
    rng = np.random.default_rng(17)
    for _ in range(5):
        y = rng.uniform(0.1, 5.0, loop.n_vertices)
        out = cluster_transform(loop, y)
        assert (out > 0).all()


PERIODICITY_CASES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                     for r in range(lo, 9)]


@pytest.mark.parametrize("dt", PERIODICITY_CASES, ids=str)
def test_periodicity(dt):
    loop = build_mutation_loop(dt)
    _, _, period = group_constants(dt)
    points = np.random.default_rng(23).uniform(0.5, 2.0, (20, loop.n_vertices))
    worst = max(check_periodicity(loop, y, period) for y in points)
    assert worst <= 1e-8
    assert check_periodicity(loop, points, period) == worst
    # off the period the residuals are O(1) and differ from point to point
    off = max(check_periodicity(loop, y, period - 1) for y in points)
    assert check_periodicity(loop, points, period - 1) == off


@pytest.mark.parametrize("dt", ALL_TYPES + [DynkinType("B", 200), DynkinType("D", 256)], ids=str)
def test_log_transform_is_log_of_cluster_transform(dt):
    # one loop step on x = log y, as check_periodicity takes it, against one mutation at a time
    loop = build_mutation_loop(dt)
    y = np.random.default_rng(37).uniform(0.5, 2.0, (5, loop.n_vertices))
    np.testing.assert_allclose(log_cluster_transform(loop, np.log(y).T).T, np.log(_sequential_transform(loop, y)),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("bad", [-0.5, 0.0])
def test_periodicity_needs_positive_points(bad):
    loop = build_mutation_loop(DynkinType("A", 3))
    y = np.ones((2, loop.n_vertices))
    y[1, 1] = bad
    with pytest.raises(ValueError, match="positive"):
        check_periodicity(loop, y, 8)


@pytest.mark.parametrize("evaluate", [lambda loop, y: check_periodicity(loop, y, 8), cluster_transform],
                         ids=["check_periodicity", "cluster_transform"])
def test_an_empty_batch_is_rejected(evaluate):
    loop = build_mutation_loop(DynkinType("A", 3))
    with pytest.raises(ValueError, match="no points"):
        evaluate(loop, np.empty((0, loop.n_vertices)))


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("C", 3), DynkinType("D", 5), DynkinType("A", 2)], ids=str)
def test_no_earlier_period_generically(dt):
    loop = build_mutation_loop(dt)
    _, _, period = group_constants(dt)
    rng = np.random.default_rng(29)
    y = rng.uniform(0.5, 2.0, loop.n_vertices)
    for div in range(1, period):
        if period % div == 0:
            assert check_periodicity(loop, y, div) > 1e-3


@pytest.mark.parametrize("n", [4, 6, 8])
def test_even_rank_d_has_exact_half_period(n):
    # the stated period 2n is not minimal here: mu_gamma^n is already the identity
    dt = DynkinType("D", n)
    loop = build_mutation_loop(dt)
    rng = np.random.default_rng(31)
    y = rng.uniform(0.5, 2.0, loop.n_vertices)
    assert check_periodicity(loop, y, n) <= 1e-9
    assert check_periodicity(loop, y, n // 2) > 1e-3


@pytest.mark.parametrize("dt", BATCH_TYPES, ids=str)
def test_half_orbits_agree_with_the_forward_orbit(dt):
    # gamma^ceil(P/2)(y) = gamma^-floor(P/2)(y) exactly when gamma^P(y) = y, odd P (A2, A4) included:
    # both checks pass at P and at its known multiples of a shorter period, and both fail at P - 1 and
    # every other divisor. A1's loop is y -> 1/y, of order 2; on D_n, n even, mu_gamma^n is the identity.
    loop = build_mutation_loop(dt)
    _, _, period = group_constants(dt)
    least = {"A1": 2}.get(str(dt), period // 2 if dt.family == "D" and dt.rank % 2 == 0 else period)
    y = np.random.default_rng(dt.rank).uniform(0.5, 2.0, (3, loop.n_vertices))
    for steps in {d for d in range(1, period + 1) if period % d == 0} | {period - 1}:
        got, want = check_periodicity(loop, y, steps), periodicity_residual(loop, y, steps)
        if steps % least == 0:
            assert got <= 1e-12 and want <= 1e-12, steps
        else:
            assert got > 1e-3 and want > 1e-3, steps


def _shifted_nu_loop(dt):
    """The loop of dt relabelled by a cyclic shift, whose inverse differs from it (every classical
    nu is an involution), with programs compiled for it as build_mutation_loop compiles them."""
    loop = build_mutation_loop(dt)
    nu = tuple(np.roll(np.arange(loop.n_vertices), 1))
    a = dense_quiver(loop.start).arrows
    programs, _ = quiver._compile_loop(exchange_entries(a - a.T), loop.plus_set, loop.minus_set, nu, f"{dt}, shifted")
    return dataclasses.replace(loop, nu=nu, programs=programs)


def _half_orbit_step(loop, x, u):
    """One run of the two block programs on the stacked point [x; u]: (gamma(x), -gamma^-1(-u))."""
    first, second = loop.half_orbit_programs
    out = _run(second, _run(first, np.concatenate((x, u))))
    return out[:len(x)], out[len(x):]


def _assert_duality_inverse(loop, x):
    # the forward half is gamma's own step, bit for bit; the backward half, read off the same
    # programs by y -> 1/y duality, is gamma^-1 on both sides and the compiled inverse loop
    step = log_cluster_transform(loop, x)
    forward, back = _half_orbit_step(loop, x, -x)
    _same_bits(forward, step)
    inverse = -back
    assert np.max(np.abs(log_cluster_transform(loop, inverse) - x)) <= 1e-13
    assert np.max(np.abs(_half_orbit_step(loop, x, -step)[1] + x)) <= 1e-13
    assert np.max(np.abs(inverse - inverse_log_transform(loop, x))) <= 1e-13


@pytest.mark.parametrize("dt", BATCH_TYPES + [DynkinType(f, 100) for f in "BCD"], ids=str)
def test_duality_inverse_undoes_the_loop(dt):
    loop = build_mutation_loop(dt)
    _assert_duality_inverse(loop, _log_points(loop, dt.rank))
    n = loop.n_vertices
    assert loop.half_orbit_programs is loop.half_orbit_programs
    for program in loop.half_orbit_programs:
        # a LogProgram on the 2N stacked rows: sorted by row, every row covered, read-only
        assert np.array_equal(program.reads[:2 * n], np.arange(2 * n))
        assert (np.diff(program.rows) >= 0).all() and np.array_equal(np.unique(program.rows), np.arange(2 * n))
        assert not any(part.flags.writeable for part in (program.reads, program.index, program.weights, program.rows))


@pytest.mark.parametrize("dt", [DynkinType("B", 3), DynkinType("C", 5), DynkinType("B", 8), DynkinType("C", 9)],
                         ids=str)
def test_duality_inverse_reads_nu_inverse(dt):
    shifted = _shifted_nu_loop(dt)
    assert not np.array_equal(np.argsort(shifted.nu), shifted.nu)
    _assert_duality_inverse(shifted, _log_points(shifted, 67))


@pytest.mark.parametrize("period", [0, -3, 2.0, "18", None, True, np.float64(18)], ids=repr)
def test_a_period_that_is_not_an_integer_above_zero_is_rejected(period):
    loop = build_mutation_loop(DynkinType("B", 4))
    with pytest.raises(ValueError, match="period"):
        check_periodicity(loop, np.ones(loop.n_vertices), period)


def test_a_numpy_integer_period_is_the_period():
    loop = build_mutation_loop(DynkinType("B", 4))
    y = np.random.default_rng(71).uniform(0.5, 2.0, (3, loop.n_vertices))
    for period in (17, 18):
        assert check_periodicity(loop, y, np.int64(period)) == check_periodicity(loop, y, period)


def _half_turn_closed_form(dt, n_vertices):
    """The half period's relabelling, family by family: A with odd n reverses the chain, B swaps
    c1 <-> c3, C swaps top <-> bot in every node column, odd D swaps the fork; else the identity."""
    sigma, n = np.arange(n_vertices), dt.rank
    if dt.family == "A" and n % 2:
        sigma = sigma[::-1].copy()
    elif dt.family == "B":
        sigma[[n - 1, n + 1]] = n + 1, n - 1
    elif dt.family == "C":
        top = np.arange(0, 3 * (n - 1), 3)
        sigma[top], sigma[top + 2] = top + 2, top
    elif dt.family == "D" and n % 2:
        sigma[[n - 2, n - 1]] = n - 1, n - 2
    return sigma


HALF_TURN_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                   for r in list(range(lo, 17)) + [128]]


@pytest.mark.parametrize("dt", HALF_TURN_TYPES, ids=str)
def test_half_turn_is_the_theorems_involution(dt):
    loop = build_mutation_loop(dt)
    steps, sigma = loop.half_turn
    _, _, period = group_constants(dt)
    assert loop.half_turn is loop.half_turn and not sigma.flags.writeable
    assert np.array_equal(sigma[sigma], np.arange(loop.n_vertices))
    assert np.array_equal(sigma, _half_turn_closed_form(dt, loop.n_vertices))
    if period % 2:  # A_n, n even: the half period is half a loop, so the whole period runs
        assert steps == period and dt.family == "A" and dt.rank % 2 == 0
    else:
        assert steps == period // 2
        assert np.array_equal(sigma, half_turn_sigma(loop.start))


@pytest.mark.parametrize("dt", BATCH_TYPES + [DynkinType("B", 128), DynkinType("C", 128), DynkinType("D", 129)],
                         ids=str)
def test_half_turn_is_the_forward_orbit(dt):
    # gamma^(P/2)(y) = y[sigma] by P/2 plain forward steps, and the check's meeting in the middle agrees
    loop = build_mutation_loop(dt)
    steps, sigma = loop.half_turn
    _, _, period = group_constants(dt)
    y = np.random.default_rng(dt.rank + 3).uniform(0.5, 2.0, (3, loop.n_vertices))
    assert periodicity_residual(loop, y, steps, sigma) <= 1e-10
    assert check_periodicity(loop, y, period) <= 1e-10


def _arrow_dropped_loop(loop):
    """The loop compiled, as build_mutation_loop compiles it, on its quiver less its first arrow whose
    loss leaves every phase free of inner arrows (so that the phases still compile)."""
    for arrow in loop.start.arrows:
        a = dense_quiver(loop.start).arrows.copy()
        a[arrow] = 0
        try:
            programs, _ = quiver._compile_loop(exchange_entries(a - a.T), loop.plus_set, loop.minus_set, loop.nu,
                                               f"{loop.start.type} less {arrow}")
        except LoopPropertyError:
            continue
        return dataclasses.replace(loop, programs=programs)
    raise AssertionError("every dropped arrow leaves an arrow inside a phase")


@pytest.mark.parametrize("dt", [dt for dt in BATCH_TYPES if dt.rank > 1], ids=str)
def test_a_wrong_half_turn_or_a_dropped_arrow_fails(dt):
    loop = build_mutation_loop(dt)
    steps, sigma = loop.half_turn
    _, _, period = group_constants(dt)
    y = np.random.default_rng(dt.rank + 5).uniform(0.5, 2.0, (3, loop.n_vertices))
    assert check_periodicity(_arrow_dropped_loop(loop), y, period) > 1e-3
    if not np.array_equal(sigma, np.arange(loop.n_vertices)):
        unturned = dataclasses.replace(loop)
        unturned.__dict__["half_turn"] = (steps, np.arange(loop.n_vertices))  # the cached value, as if sigma = id
        assert check_periodicity(unturned, y, period) > 1e-3
        assert check_periodicity(loop, y, period) <= 1e-10


@pytest.mark.parametrize("dt", [DynkinType(f, r) for f, r in (("A", 2), ("A", 4), ("A", 5), ("B", 4), ("B", 7),
                                                               ("C", 4), ("C", 5), ("D", 4), ("D", 7))], ids=str)
def test_the_check_runs_half_the_steps_at_the_period(dt, monkeypatch):
    # each loop step is two program runs; even P meets in the middle of P/2, odd P (A2, A4) of P
    calls = []
    monkeypatch.setattr(yseed, "_run", lambda program, x: calls.append(1) or _run(program, x))
    loop = build_mutation_loop(dt)
    _, _, period = group_constants(dt)
    y = np.random.default_rng(7).uniform(0.5, 2.0, (2, loop.n_vertices))
    got = check_periodicity(loop, y, period)
    want = -(-period // 4) if period % 2 == 0 else -(-period // 2)
    assert len(calls) == 2 * want
    del calls[:]
    _same_bits(check_periodicity(loop, y, np.int64(period)), got)
    assert len(calls) == 2 * want
    del calls[:]
    check_periodicity(loop, y, period - 1)
    assert len(calls) == 2 * -(-(period - 1) // 2)


@pytest.mark.parametrize("dt", BATCH_TYPES, ids=str)
def test_a_multiple_of_the_period_passes(dt):
    loop = build_mutation_loop(dt)
    _, _, period = group_constants(dt)
    y = np.random.default_rng(dt.rank + 11).uniform(0.5, 2.0, (3, loop.n_vertices))
    assert check_periodicity(loop, y, 2 * period) <= 1e-10


def test_single_vertex_jacobian():
    dt = DynkinType("A", 1)
    loop = build_mutation_loop(dt)
    lj = loop_jacobian(loop, np.array([2.0]))
    assert lj.matrix.shape == (1, 1)
    assert lj.matrix[0, 0] == pytest.approx(-0.25)


@pytest.mark.parametrize("dt", [DynkinType("D", 4), DynkinType("B", 3), DynkinType("C", 4), DynkinType("A", 5)], ids=str)
def test_jacobian_matches_finite_differences(dt):
    ep = assemble_eta(dt)
    analytic = loop_jacobian(ep.loop, ep.eta).matrix
    numeric = _column_differences(lambda y: cluster_transform(ep.loop, y), ep.eta, h=1e-6)
    assert np.max(np.abs(analytic - numeric)) <= 1e-5


def _column_differences(transform, y, h=1e-6):
    """Reference central differences of transform, one column and two calls at a time."""
    n = y.shape[0]
    jac = np.zeros((n, n))
    for j in range(n):
        up, dn = y.copy(), y.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (transform(up) - transform(dn)) / (2 * h)
    return jac


@pytest.mark.parametrize("dt", BATCH_TYPES, ids=str)
def test_finite_differences_match_the_column_loop_bitwise(dt):
    # finite_difference_jacobian differentiates the loop on x = log y
    loop = build_mutation_loop(dt)
    y = np.random.default_rng(47).uniform(0.5, 2.0, loop.n_vertices)
    _same_bits(finite_difference_jacobian(loop, y),
               _column_differences(lambda x: log_cluster_transform(loop, x), np.log(y)))


@pytest.mark.parametrize("dt", [DynkinType("C", 30), DynkinType("B", 70), DynkinType("D", 130)], ids=str)
def test_finite_differences_in_column_blocks_match_the_column_loop_bitwise(dt):
    # N = 89, 141 and 130: two or three blocks of _FD_COLUMNS, the last one partial
    loop = build_mutation_loop(dt)
    assert loop.n_vertices > _FD_COLUMNS and loop.n_vertices % _FD_COLUMNS
    y = np.random.default_rng(71).uniform(0.5, 2.0, loop.n_vertices)
    _same_bits(finite_difference_jacobian(loop, y),
               _column_differences(lambda x: log_cluster_transform(loop, x), np.log(y)))


LOG_JACOBIAN_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                      for r in range(lo, 41)]


@pytest.mark.parametrize("dt", LOG_JACOBIAN_TYPES, ids=str)
def test_log_jacobian_is_the_similar_y_space_jacobian(dt):
    # L = diag(1/y') J diag(y), y' the image of y: at eta, where y' = y, and at a random point
    ep = assemble_eta(dt)
    y_random = np.random.default_rng(53).uniform(0.5, 2.0, ep.loop.n_vertices)
    for y in (ep.eta, y_random):
        image, jac, _ = _sequential_jacobian(ep.loop, y)
        got = log_loop_jacobian(ep.loop, np.log(y))
        want = jac * y[None, :] / image[:, None]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))


def _arrow_lists(q, vertices):
    """(vertices, rows, cols, exponents): arrow j joins rows[j] to vertices[cols[j]] in q,
    with signed multiplicity exponents[j], positive for rows[j] -> vertex."""
    s = np.array(vertices, dtype=np.intp)
    signed = q.arrows[:, s] - q.arrows[s, :].T
    rows, cols = np.nonzero(signed)
    return s, rows, cols, signed[rows, cols]


def _chain_phases(loop):
    """Both phases' arrow lists, each read off the quiver that the single-vertex
    `mutate_quiver` chain (`test_quiver.vertex_chain`) has reached when the phase starts."""
    start, after_plus = (vertex_chain(loop.start.type, phases) for phases in range(2))
    assert start == dense_quiver(loop.start)
    return _arrow_lists(start, loop.plus_set), _arrow_lists(after_plus, loop.minus_set)


def _apply_phase_log(phase, x):
    """Oracle: the phase's mutations on x = log y, vertices on axis 0, for positive points.

    x_k -> -x_k for k in the phase, and arrow j adds e_j log(1 + y_k^sign(e_j)) to
    its row, summed by rows; log(1 + 1/y_k) = log(1 + y_k) - x_k.
    """
    s, rows, cols, e = phase
    if x.ndim == 2:
        e = e[:, None]
    xs = x[s]
    soft = np.logaddexp(0.0, xs)[cols]
    gain = np.zeros_like(x)
    np.add.at(gain, rows, e * np.where(e > 0, soft, soft - xs[cols]))
    out = x + gain
    out[s] = -xs
    return out


def _log_phase_jacobian(phase, x):
    """Oracle: the dense Jacobian of `_apply_phase_log` at one point x (N,): -1 on the
    phase's diagonal, 1 on the rest, and arrow j adds |e_j| sigma(sign(e_j) x_k) at
    (target, k), the derivative of e_j log(1 + y_k^sign(e_j)), sigma the logistic function."""
    s, rows, cols, e = phase
    jac = np.eye(len(x))
    jac[s, s] = -1.0
    jac[rows, s[cols]] = np.abs(e) * np.exp(-np.logaddexp(0.0, -np.sign(e) * x[s][cols]))
    return jac


def _oracle_log_step(loop, phases, x):
    plus, minus = phases
    return _apply_phase_log(minus, _apply_phase_log(plus, x))[np.argsort(loop.nu)]


def _oracle_log_jacobian(loop, phases, x):
    plus, minus = phases
    jm = _log_phase_jacobian(minus, _apply_phase_log(plus, x))
    return (jm @ _log_phase_jacobian(plus, x))[np.argsort(loop.nu)]


PROGRAM_TYPES = LOG_JACOBIAN_TYPES + [DynkinType(f, 256) for f in "ABCD"]


def _log_points(loop, seed, k=4):
    return np.log(np.random.default_rng(seed).uniform(0.5, 2.0, (loop.n_vertices, k)))


def _assert_program_is_the_oracle(loop, x):
    phases = _chain_phases(loop)
    batch = log_cluster_transform(loop, x)
    assert np.max(np.abs(batch - _oracle_log_step(loop, phases, x))) <= 1e-13
    for j in range(x.shape[1]):
        single = log_cluster_transform(loop, x[:, j])
        _same_bits(single, batch[:, j])
        want = _oracle_log_jacobian(loop, phases, x[:, j])
        assert np.max(np.abs(log_loop_jacobian(loop, x[:, j]) - want)) <= 1e-13 * np.max(np.abs(want))
        x_plus, plus = log_plus_phase(loop, x[:, j])
        assert np.max(np.abs(x_plus - _apply_phase_log(phases[0], x[:, j]))) <= 1e-13
        assert np.max(np.abs(plus - _log_phase_jacobian(phases[0], x[:, j]))) <= 1e-15


@pytest.mark.parametrize("dt", PROGRAM_TYPES, ids=str)
def test_log_programs_match_the_phase_oracle(dt):
    # on single and batched points, one step and L, and a batch gives each point's own bits
    loop = build_mutation_loop(dt)
    _assert_program_is_the_oracle(loop, _log_points(loop, dt.rank))


@pytest.mark.parametrize("dt", [DynkinType("B", 3), DynkinType("C", 5), DynkinType("B", 8), DynkinType("C", 9)],
                         ids=str)
def test_log_programs_fold_nu_inverse(dt):
    # a shifted nu, to tell nu from nu^-1
    shifted = _shifted_nu_loop(dt)
    loop = build_mutation_loop(dt)
    assert not np.array_equal(np.argsort(shifted.nu), shifted.nu)
    _assert_program_is_the_oracle(shifted, _log_points(loop, 59))
    y = np.random.default_rng(61).uniform(0.5, 2.0, loop.n_vertices)
    np.testing.assert_allclose(log_cluster_transform(shifted, np.log(y)), np.log(_sequential_transform(shifted, y)),
                               rtol=0, atol=1e-13)
    _, jac, _ = _sequential_jacobian(shifted, y)
    assert np.max(np.abs(loop_jacobian(shifted, y).matrix - jac)) <= 1e-13 * max(1.0, np.max(np.abs(jac)))


def test_log_programs_are_built_once_per_loop():
    loop = build_mutation_loop(DynkinType("C", 6))
    programs = loop.programs
    assert loop.programs is programs
    x = _log_points(loop, 3)
    log_cluster_transform(loop, x)
    log_loop_jacobian(loop, x[:, 0])
    assert loop.programs is programs
    assert loop.jacobian_pairs is loop.jacobian_pairs
    assert build_mutation_loop(DynkinType("C", 6)).programs is not programs
    for program in programs:
        assert not program.index.flags.writeable and not program.weights.flags.writeable


def test_a_batch_index_is_built_once_per_width():
    loop = build_mutation_loop(DynkinType("C", 6))
    plus, _ = loop.programs
    x = _log_points(loop, 5, k=3)
    singles = [_run(plus, x[:, j]) for j in range(3)]
    assert plus.batch == {}  # one point builds no batch index
    image = _run(plus, x)
    where = plus.batch[3]
    assert not where.flags.writeable
    assert _run(plus, x).tobytes() == image.tobytes() and plus.batch[3] is where
    assert [image[:, j].tobytes() for j in range(3)] == [q.tobytes() for q in singles]
    _run(plus, x[:, :2])
    assert list(plus.batch) == [2]  # only the last width is kept


def test_softplus_is_log_one_plus_exp():
    # across exp's overflow, around the cap of 40, and where log(1 + e^t) rounds to t
    t = np.concatenate((np.linspace(-1000.0, 1000.0, 4001), np.linspace(35.0, 41.0, 601), [-0.0, 0.0]))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = _softplus(t.copy())
    want = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("dt", [DynkinType("C", 4), DynkinType("C", 6), DynkinType("B", 4)], ids=str)
def test_phase_factor_product(dt):
    ep = assemble_eta(dt)
    lj = loop_jacobian(ep.loop, ep.eta)
    _, _, (jp, jm) = _sequential_jacobian(ep.loop, ep.eta)
    pmat = permutation_matrix(ep.loop.nu)
    prod = pmat @ jm @ jp
    scale = np.max(np.abs(lj.matrix))
    assert np.max(np.abs(prod - lj.matrix)) <= 1e-12 * scale
    if dt.family == "C":
        # nu acts as the swap of the last two coordinates
        n = ep.loop.n_vertices
        expected = np.eye(n)
        expected[n - 2:, n - 2:] = [[0, 1], [1, 0]]
        assert np.array_equal(pmat, expected)


@pytest.mark.parametrize("dt", [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                                for r in range(lo, 25)], ids=str)
def test_loop_jacobian_is_the_dense_permutation_product(dt):
    loop = build_mutation_loop(dt)
    y = np.random.default_rng(dt.rank).uniform(0.5, 2.0, loop.n_vertices)
    _, _, (jp, jm) = _sequential_jacobian(loop, y)
    want = permutation_matrix(loop.nu) @ jm @ jp
    # the oracle's factors round apart from the engine's: 1.1e-15 relative at worst over these cases
    assert np.max(np.abs(loop_jacobian(loop, y).matrix - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("D", 6)], ids=str)
def test_jacobian_power_identity(dt):
    ep = assemble_eta(dt)
    _, _, period = group_constants(dt)
    jac = loop_jacobian(ep.loop, ep.eta).matrix
    power = np.linalg.matrix_power(jac, period)
    assert np.max(np.abs(power - np.eye(len(jac)))) <= 1e-7


def test_all_ones_returns_after_period_d4():
    dt = DynkinType("D", 4)
    loop = build_mutation_loop(dt)
    y = np.ones(4)
    out = cluster_transform(loop, y)
    assert (out > 0).all()
    assert check_periodicity(loop, y, 8) <= 1e-9


def test_permutation_matrix():
    p = permutation_matrix((1, 0, 2))
    assert np.array_equal(p, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
