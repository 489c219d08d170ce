import dataclasses
import warnings

import numpy as np
import pytest

from yexp.errors import MutationDomainError
from yexp.quiver import Quiver, build_mutation_loop, mutate_quiver
from yexp.rootsys import DynkinType, group_constants
from yexp.yseed import (_FD_COLUMNS, YSeed, _mutate_values, _run, _softplus,
                        check_periodicity, cluster_transform, finite_difference_jacobian,
                        log_cluster_transform, log_loop_jacobian, loop_jacobian, mutate_yseed)
from yexp.ysys import assemble_eta


def permutation_matrix(nu) -> np.ndarray:
    """The dense matrix of nu: P[nu[i], i] = 1 (oracle for the row relabelling by loop.back)."""
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
        out = mutate_yseed(YSeed(q, tuple(y)), 1).values
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
    seed = YSeed(Quiver(a), (2.0, 3.0, 5.0))
    out = mutate_yseed(seed, 2)
    assert out.values == (2.0, 3.0, 0.2)


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
        y = tuple(rng.uniform(0.3, 3.0, n))
        seed = YSeed(Quiver(a), y)
        k = int(rng.integers(0, n))
        back = mutate_yseed(mutate_yseed(seed, k), k)
        assert back.quiver == seed.quiver
        assert np.allclose(back.values, y, rtol=1e-12)


def test_pole_raises():
    a = np.zeros((2, 2), dtype=int)
    a[0, 1] = 1
    with pytest.raises(MutationDomainError):
        mutate_yseed(YSeed(Quiver(a), (0.0, 1.0)), 0)


def _mutate_with_jacobian(arrows, y, k, jac):
    """`_mutate_values` at k, with the chain rule applied in place to the rows of jac."""
    out = _mutate_values(arrows, y, k)
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
    """`_mutate_values` at k on one point (N,) or on each point of a batch (k, N)."""
    points = [_mutate_values(arrows, point, k) for point in np.reshape(y, (-1, y.shape[-1]))]
    return np.reshape(points, y.shape)


def _sequential_phases(loop, y, want_jac=False):
    """Reference engine: one `_mutate_values` per point and one `mutate_quiver` per vertex.

    y is one point (N,) or, without Jacobians, a batch (k, N). Returns the
    values after mu_+ and after mu_- (before nu), and the two phase Jacobians
    (None unless asked for).
    """
    q = loop.start.quiver
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
    # y-space views of them, and both phase factors, J_- taken before nu
    loop = build_mutation_loop(dt)
    rng = np.random.default_rng(37)
    for _ in range(3):
        y = rng.uniform(0.5, 2.0, loop.n_vertices)
        want, want_jac, (jp, jm) = _sequential_jacobian(loop, y)
        assert np.max(np.abs(cluster_transform(loop, y) - want) / np.abs(want)) <= 1e-13
        assert np.max(np.abs(log_cluster_transform(loop, np.log(y)) - np.log(want))) <= 1e-13
        want_log = want_jac * y / want[:, None]
        got_log = log_loop_jacobian(loop, np.log(y))
        assert np.max(np.abs(got_log - want_log)) <= 1e-13 * np.max(np.abs(want_log))
        lj = loop_jacobian(loop, y)
        for got, ref in zip((lj.matrix, *lj.phase_factors), (want_jac, jp, jm), strict=True):
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def _raised_vertex(transform, loop, y):
    with pytest.raises(MutationDomainError) as err:
        transform(loop, y)
    return err.value.vertex


@pytest.mark.parametrize("dt", [DynkinType("A", 6), DynkinType("B", 5), DynkinType("C", 5),
                                DynkinType("D", 7)], ids=str)
def test_domain_errors_name_the_sequential_vertex(dt):
    loop = build_mutation_loop(dt)
    arrows = loop.start.quiver.arrows
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
    np.testing.assert_array_equal(_mutate_values(loop.start.quiver.arrows, y, 1), [0.0, -1.0, 0.0])


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


def _apply_phase_log(phase, x):
    """Oracle: the phase's mutations on x = log y, vertices on axis 0, for positive points.

    x_k -> -x_k for k in the phase, and arrow j adds e_j log(1 + y_k^sign(e_j)) to
    its row, summed by rows; log(1 + 1/y_k) = log(1 + y_k) - x_k.
    """
    s, cols, e = phase.vertices, phase.cols, phase.exponents
    if x.ndim == 2:
        e = e[:, None]
    xs = x[s]
    soft = np.logaddexp(0.0, xs)[cols]
    gain = np.zeros_like(x)
    np.add.at(gain, phase.rows, e * np.where(e > 0, soft, soft - xs[cols]))
    out = x + gain
    out[s] = -xs
    return out


def _log_phase_jacobian(phase, x):
    """Oracle: the dense Jacobian of `_apply_phase_log` at one point x (N,): -1 on the
    phase's diagonal, 1 on the rest, and arrow j adds |e_j| sigma(sign(e_j) x_k) at
    (target, k), the derivative of e_j log(1 + y_k^sign(e_j)), sigma the logistic function."""
    s, rows, cols, e = phase.vertices, phase.rows, phase.cols, phase.exponents
    jac = np.eye(len(x))
    jac[s, s] = -1.0
    jac[rows, s[cols]] = np.abs(e) * np.exp(-np.logaddexp(0.0, -np.sign(e) * x[s][cols]))
    return jac


def _oracle_log_step(loop, x):
    plus, minus = loop.phases
    return _apply_phase_log(minus, _apply_phase_log(plus, x))[loop.back]


def _oracle_log_jacobian(loop, x):
    plus, minus = loop.phases
    jm = _log_phase_jacobian(minus, _apply_phase_log(plus, x))
    return (jm @ _log_phase_jacobian(plus, x))[loop.back]


PROGRAM_TYPES = LOG_JACOBIAN_TYPES + [DynkinType(f, 256) for f in "ABCD"]


def _log_points(loop, seed, k=4):
    return np.log(np.random.default_rng(seed).uniform(0.5, 2.0, (loop.n_vertices, k)))


def _assert_program_is_the_oracle(loop, x):
    batch = log_cluster_transform(loop, x)
    assert np.max(np.abs(batch - _oracle_log_step(loop, x))) <= 1e-13
    for j in range(x.shape[1]):
        single = log_cluster_transform(loop, x[:, j])
        _same_bits(single, batch[:, j])
        want = _oracle_log_jacobian(loop, x[:, j])
        assert np.max(np.abs(log_loop_jacobian(loop, x[:, j]) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dt", PROGRAM_TYPES, ids=str)
def test_log_programs_match_the_phase_oracle(dt):
    # on single and batched points, one step and L, and a batch gives each point's own bits
    loop = build_mutation_loop(dt)
    _assert_program_is_the_oracle(loop, _log_points(loop, dt.rank))


@pytest.mark.parametrize("dt", [DynkinType("B", 3), DynkinType("C", 5), DynkinType("B", 8), DynkinType("C", 9)],
                         ids=str)
def test_log_programs_fold_nu_inverse(dt):
    # every classical nu is an involution; relabel by a cyclic shift, whose inverse differs, to tell nu from nu^-1
    loop = build_mutation_loop(dt)
    nu = tuple(np.roll(np.arange(loop.n_vertices), 1))
    shifted = dataclasses.replace(loop, nu=nu)
    assert not np.array_equal(shifted.back, nu)
    _assert_program_is_the_oracle(shifted, _log_points(loop, 59))
    y = np.random.default_rng(61).uniform(0.5, 2.0, loop.n_vertices)
    np.testing.assert_allclose(log_cluster_transform(shifted, np.log(y)), np.log(_sequential_transform(shifted, y)),
                               rtol=0, atol=1e-13)
    image, jac, (jp, jm) = _sequential_jacobian(shifted, y)
    lj = loop_jacobian(shifted, y)
    for got, ref in zip((lj.matrix, *lj.phase_factors), (jac, jp, jm), strict=True):
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


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
    jp, jm = lj.phase_factors
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
    lj = loop_jacobian(loop, y)
    jp, jm = lj.phase_factors
    want = permutation_matrix(loop.nu) @ jm @ jp
    assert np.max(np.abs(lj.matrix - want)) <= 1e-15 * np.max(np.abs(want))


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
