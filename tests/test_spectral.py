import dataclasses
import math
import tracemalloc
from collections import Counter
from typing import Callable, Dict

import numpy as np
import pytest

from yexp import cli, qsys, spectral, ysys
from yexp.qsys import _sin_pi
from yexp.quiver import build_dynkin_quiver, build_mutation_loop
from yexp.rootsys import DynkinType, build_root_system, group_constants
from yexp.spectral import (ExponentSequence, Tolerances, build_case, c_blocks, c_determinants,
                           case_passed, check_conjecture_38, check_jacobian_fd,
                           conjectured_charpoly, csol_products, lemma_basis, lemma_summary,
                           relation_residuals, run_case, verify_c_reduction, verify_conjecture_csol)
from yexp.yseed import check_periodicity, log_cluster_transform, log_plus_phase, loop_jacobian
from yexp.ysys import y_solution

from test_quiver import imported_names


def c_case_blocks(n):
    case = build_case(DynkinType("C", n))
    return case, c_blocks(case)


def reduced_blocks(case, lams):
    """K(lambda) and L(lambda) on their bands, built from the case's Y as `c_determinants` builds them."""
    return spectral._reduced_blocks(case.type.rank, case.ysol.value, lams)


def dense_of_band(band):
    """The square matrix of a band whose row i holds columns i - h .. i + h (oracle)."""
    size, h = band.shape[0], band.shape[1] // 2
    a = np.zeros((size, size), dtype=band.dtype)
    for i in range(size):
        for d in range(2 * h + 1):
            if 0 <= i - h + d < size:
                a[i, i - h + d] = band[i, d]
    return a


def band_of_dense(a, h):
    """The band of half-bandwidth h of a square a, entries outside it dropped (oracle)."""
    size = len(a)
    band = np.zeros((size, 2 * h + 1), dtype=a.dtype)
    for i in range(size):
        for d in range(2 * h + 1):
            if 0 <= i - h + d < size:
                band[i, d] = a[i, i - h + d]
    return band


def c_basis(n):
    """The dense C_n basis of c_blocks, column by column (oracle for the index split)."""
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


def assert_split_is_the_dense_change_of_basis(case, blocks):
    """c_blocks' index split against u^-1 L u solved with the dense basis (L u as an einsum,
    which contending BLAS threads cannot slow)."""
    n = case.type.rank
    u = c_basis(n)
    m = np.linalg.solve(u, np.einsum("ij,jk->ik", case.jacobian, u))
    nk = n - 1
    assert np.max(np.abs(blocks.Khat - m[:nk, :nk])) <= 1e-14
    assert np.max(np.abs(blocks.Lhat - m[nk:, nk:])) <= 1e-14
    assert abs(blocks.offdiag - max(np.max(np.abs(m[:nk, nk:])), np.max(np.abs(m[nk:, :nk])))) <= 1e-14


def poly_b(n):
    # (z+1)(z^{2n+1}-1)/(z-1)
    return np.polymul([1.0, 1.0], np.ones(2 * n + 1))


def poly_d(n):
    return np.polymul([1.0, 1.0], np.ones(n))


def poly_c(n):
    zeta = np.exp(2j * np.pi / (2 * n + 6))
    out = np.ones(n + 3, dtype=complex)  # (z^{n+3}-1)/(z-1)
    for k in range(5, 2 * n + 2):
        out = np.polymul(out, [1.0, -zeta ** k])
    return out


def exponents_from_poly(coeffs, period):
    """Exponents of the roots of a polynomial that splits into period-th roots of unity.

    Each candidate root is divided out while it leaves no remainder, so repeated
    roots are counted exactly instead of being snapped from a root finder.
    """
    p = np.asarray(coeffs, dtype=complex)
    exps = []
    for m in range(period):
        root = np.exp(2j * np.pi * m / period)
        while len(p) > 1:
            q, rem = np.polydiv(p, [1.0, -root])
            if abs(rem[-1]) > 1e-8:
                break
            exps.append(m)
            p = q
    assert len(p) == 1, "a root is not a period-th root of unity"
    return tuple(exps)


@pytest.mark.parametrize("n,poly,period", [(2, poly_b, 10), (4, poly_d, 8)])
def test_exponent_oracle_agreement(n, poly, period):
    fam = "B" if period == 4 * n + 2 else "D"
    dt = DynkinType(fam, n)
    rep = build_case(dt)
    assert rep.exponents.exponents == exponents_from_poly(poly(n), period)


def test_spectrum_b2():
    rep = build_case(DynkinType("B", 2))
    assert rep.exponents.period == 10
    assert rep.exponents.exponents == (2, 4, 5, 6, 8)
    assert rep.exponent_snap <= 1e-8
    assert check_conjecture_38(rep, Tolerances().charpoly)["power_identity"] <= 1e-7


def test_spectrum_d4():
    rep = build_case(DynkinType("D", 4))
    assert rep.exponents.exponents == (2, 4, 4, 6)
    assert rep.exponents.period == 8


def test_spectrum_c3_matches_template():
    rep = build_case(DynkinType("C", 3))
    assert rep.exponents.period == 12
    assert rep.exponents.exponents == (2, 4, 5, 6, 6, 7, 8, 10)


ALL_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for r in range(lo, 11)]


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_exponent_symmetry_and_charpoly(dt):
    rep = build_case(dt)
    period = rep.exponents.period
    exps = list(rep.exponents.exponents)
    mirrored = sorted((period - m) % period for m in exps)
    assert mirrored == exps
    assert rep.exponent_snap <= 1e-7
    assert np.array_equal(quotient_exponents(dt), histogram(rep.exponents.exponents, period))


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_division_exact(dt):
    num, den = conjectured_charpoly(dt)
    n_vertices = {"A": dt.rank, "B": 2 * dt.rank + 1,
                  "C": 3 * dt.rank - 1, "D": dt.rank}[dt.family]
    assert (den <= num).all()
    assert (num - den).sum() == n_vertices


def test_conjecture_38_fails_when_d_is_not_contained_in_n(monkeypatch):
    # one more denominator root at m = 0, where N and D both have none: N - D keeps its positive part
    rep = build_case(DynkinType("B", 3))
    num, den = conjectured_charpoly(rep.type)
    assert num[0] == den[0] == 0
    monkeypatch.setattr(spectral, "conjectured_charpoly", lambda dt: (num, den + np.eye(len(den), dtype=int)[0]))
    verdict = check_conjecture_38(rep, Tolerances().charpoly)
    assert verdict["division_exact"] is False and verdict["quotient_matches_spectrum"] is True
    assert verdict["pass"] is False


@pytest.mark.parametrize("name,row", [("A5", 1), ("B6", 0), ("B6", 1), ("C5", 0), ("C5", 1), ("D8", 1)])
def test_conjecture_38_fails_when_one_height_count_moves(name, row, monkeypatch):
    # row 0 counts short roots and row 1 long ones; A and D have long roots only
    dt = DynkinType(name[0], int(name[1:]))
    case = build_case(dt)
    assert check_conjecture_38(case, Tolerances().charpoly)["pass"]
    hist = spectral.height_histograms(dt)
    h = int(np.flatnonzero(hist[row])[0])  # one root of the lowest height moves up by one
    hist[row, h] -= 1
    hist[row, h + 1] += 1
    monkeypatch.setattr(spectral, "height_histograms", lambda _: hist)
    assert check_conjecture_38(case, Tolerances().charpoly)["pass"] is False


def _charpoly_loop(rs):
    """The N/D exponent multisets root by root, the reference for the array form."""
    t, h_dual, period = group_constants(rs.type)
    num: Counter = Counter()
    for ti in rs.t_i:
        num.update(k for k in range(period) if k * (t // ti) % period)
    den: Counter = Counter()
    for height, long in zip(rs.heights.tolist(), rs.long.tolist()):
        for h in (height, -height):  # the positive root and its negative
            if long:
                den.update((h // t + j * (2 + h_dual)) % period for j in range(t))
            else:
                den[h % period] += 1
    return num, den


@pytest.mark.parametrize("dt", [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                                for r in [*range(lo, 41), 128, 512]], ids=str)
def test_charpoly_matches_the_root_loop(dt):
    period = group_constants(dt)[2]
    got = conjectured_charpoly(dt)
    want = _charpoly_loop(build_root_system(dt))
    for hist, multiset in zip(got, want, strict=True):
        assert np.array_equal(hist, histogram(multiset.elements(), period))


def histogram(exponents, period):
    """An exponent multiset as the histogram of length `period` that conjectured_charpoly returns."""
    return np.bincount(list(exponents), minlength=period)


def quotient_exponents(dt):
    num, den = conjectured_charpoly(dt)
    return num - den


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_closed_form_b(n):
    dt = DynkinType("B", n)
    period = group_constants(dt)[2]
    assert np.array_equal(quotient_exponents(dt), histogram(exponents_from_poly(poly_b(n), period), period))


@pytest.mark.parametrize("n", range(4, 11))
def test_quotient_closed_form_d(n):
    dt = DynkinType("D", n)
    period = group_constants(dt)[2]
    assert np.array_equal(quotient_exponents(dt), histogram(exponents_from_poly(poly_d(n), period), period))


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_closed_form_c(n):
    dt = DynkinType("C", n)
    period = group_constants(dt)[2]
    assert np.array_equal(quotient_exponents(dt), histogram(exponents_from_poly(poly_c(n), period), period))


@pytest.mark.parametrize("dt", [DynkinType("A", 5), DynkinType("B", 6), DynkinType("C", 5), DynkinType("D", 8)],
                         ids=str)
def test_conjecture_38_reports_its_two_residuals(dt, monkeypatch):
    case = build_case(dt)
    jac, period = case.jacobian, case.exponents.period
    verdict = check_conjecture_38(case, Tolerances().charpoly)
    assert verdict["exponent_snap"] == case.exponent_snap
    assert verdict["power_identity"] == float(np.max(np.abs(np.linalg.matrix_power(jac, period) - np.eye(len(jac)))))
    assert verdict["residual"] == max(verdict["exponent_snap"], verdict["power_identity"])
    assert verdict["method"] == "dense eigvals, dense L^P, closed-form root heights"
    assert run_case(dt)["checks"]["conjecture_38"] == verdict
    # a nan entry of L is a nan power_identity, and fails the verdict
    broken = jac.copy()
    broken[0, 0] = math.nan
    verdict = check_conjecture_38(dataclasses.replace(case, jacobian=broken), Tolerances().charpoly)
    assert math.isnan(verdict["residual"]) and math.isnan(verdict["power_identity"]) and verdict["pass"] is False
    # a nan eigenvalue is a nan exponent_snap, and fails the verdict
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.append(eigvals(a)[1:], math.nan))
    rep = build_case(dt)  # under the suite's warnings-as-errors: the nan is never cast to an integer
    verdict = check_conjecture_38(rep, Tolerances().charpoly)
    assert math.isnan(rep.exponent_snap) and math.isnan(verdict["exponent_snap"])
    assert len(rep.exponents.exponents) == len(rep.jacobian) - 1  # the nan has no exponent
    assert verdict["quotient_matches_spectrum"] is False
    assert math.isnan(verdict["residual"]) and verdict["pass"] is False


def test_a_non_finite_eigenvalue_gets_no_exponent():
    # the suite turns warnings into errors, so a cast of the nan's phase would raise here
    exps, snap = spectral.snap_exponents(np.array([1, math.nan, -1]), 6)
    assert exps == (0, 3) and math.isnan(snap)
    exps, snap = spectral.snap_exponents(np.array([1j, complex(math.inf, 0), -1j]), 4)
    assert exps == (1, 3) and math.isnan(snap)
    exps, snap = spectral.snap_exponents(np.array([1j, -1j]), 4)
    assert exps == (1, 3) and snap <= 1e-15


def test_a_case_is_its_eta_point_and_its_spectrum():
    case = build_case(DynkinType("C", 4))
    assert isinstance(case, spectral.SpectralReport) and isinstance(case, ysys.EtaPoint)
    assert not hasattr(case, "point") and not hasattr(case, "report")
    assert {f.name for f in dataclasses.fields(case)} == {
        f.name for record in (spectral.SpectralReport, ysys.EtaPoint) for f in dataclasses.fields(record)}
    tol = Tolerances().charpoly
    assert check_conjecture_38(case, tol) == check_conjecture_38(spectral.spectrum(case.loop, case.eta), tol)


def test_records_holding_arrays_compare_by_identity():
    # a dataclass __eq__ over array fields raised on two equal builds, and frozen records did not hash
    first, second = build_case(DynkinType("C", 3)), build_case(DynkinType("C", 3))
    assert (first == second) is False and first != second
    assert first == first and {first: 1}[first] == 1
    blocks = c_blocks(first)
    records = [(ysys.assemble_eta(first.type), ysys.assemble_eta(first.type)),
               (spectral.spectrum(first.loop, first.eta), spectral.spectrum(second.loop, second.eta)),
               (blocks, c_blocks(second)), (c_determinants(first, blocks), c_determinants(second, blocks)),
               (loop_jacobian(first.loop, first.eta), loop_jacobian(second.loop, second.eta))]
    for one, other in records:
        assert one != other and one == one and {one: 1}[one] == 1


def test_build_case_takes_no_matrix_power(monkeypatch):
    calls = Counter()
    matrix_power = np.linalg.matrix_power

    def counted(a, n):
        calls["matrix_power"] += 1
        return matrix_power(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    case = build_case(DynkinType("C", 6))
    assert not calls
    assert check_conjecture_38(case, Tolerances().charpoly)["pass"] and calls["matrix_power"] == 1


def test_a_raising_power_fails_conjecture_38_alone(monkeypatch):
    def no_memory(a, n):
        raise MemoryError("Unable to allocate L^P")

    monkeypatch.setattr(np.linalg, "matrix_power", no_memory)
    checks = run_case(DynkinType("C", 6), samples=8, periodicity_points=2)["checks"]
    assert checks["conjecture_38"] == {"residual": None, "pass": False, "error": "MemoryError: Unable to allocate L^P"}
    assert all(c["pass"] for name, c in checks.items() if name != "conjecture_38")


@pytest.mark.parametrize("dt", [DynkinType("B", 6), DynkinType("D", 8), DynkinType("A", 4)], ids=str)
def test_verify_conjecture_examples(dt):
    verdict = check_conjecture_38(build_case(dt), Tolerances().charpoly)
    assert verdict["pass"] is True
    assert verdict["residual"] <= 1e-7


def test_conjecture_38_rejects_a_wrong_spectrum():
    rep = build_case(DynkinType("B", 6))
    assert check_conjecture_38(rep, Tolerances().charpoly)["pass"] is True
    exps = rep.exponents.exponents
    rep = dataclasses.replace(rep, exponents=ExponentSequence(rep.exponents.period, (exps[0] + 1,) + exps[1:]))
    verdict = check_conjecture_38(rep, 1e-7)
    assert verdict["division_exact"] is True
    assert verdict["quotient_matches_spectrum"] is False
    assert verdict["pass"] is False


@pytest.mark.parametrize("dt", [DynkinType("C", 20), DynkinType("D", 24), DynkinType("B", 24)], ids=str)
def test_conjecture_38_high_rank(dt):
    # the float polynomial division reported false failures at these ranks
    verdict = check_conjecture_38(build_case(dt), Tolerances().charpoly)
    assert verdict["division_exact"] is True
    assert verdict["quotient_matches_spectrum"] is True
    assert verdict["pass"] is True


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("D", 6), *(DynkinType("C", n) for n in range(2, 41, 2)),
                                DynkinType("C", 128)], ids=str)
def test_relation_residuals(dt):
    # every family reads unscaled log-coordinate rows, whose gaps stay rounding-sized at every rank
    rel = relation_residuals(build_case(dt))
    assert max(rel.values()) <= 1e-12


def test_a_moved_entry_of_l_fails_relations():
    # minus_outer_last reads row top(n - 1) of the case's own L
    case = build_case(DynkinType("C", 6))
    jac = case.jacobian.copy()
    row = 3 * (6 - 2)
    jac[row, np.flatnonzero(jac[row])[0]] += 1e-8
    broken = dataclasses.replace(case, jacobian=jac)
    assert max(relation_residuals(case).values()) <= 1e-12
    rel = relation_residuals(broken)
    assert rel["minus_outer_last"] >= 1e-9
    assert max(rel.values()) > Tolerances().relations


# C2's relation names; from C4 on, the interior nodes add six
C_RELATION_KEYS = {"plus_outer_odd", "minus_mid_odd", "plus_mid_last", "minus_outer_last",
                   "plus_white_plus", "plus_white_fixed", "minus_white_plus", "minus_white_fixed"}
C_INTERIOR_KEYS = {"plus_mid_odd", "plus_outer_even", "plus_mid_even", "minus_outer_even", "minus_mid_even",
                   "minus_outer_odd"}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 34])
def test_every_c_relation_row_is_read(n, monkeypatch):
    # one moved entry in any row of L_+ or of L fails relations: the column vertices' rows
    # and p's and q's, which plus_white_plus and plus_white_fixed read. At odd rank the
    # parities of the names shift with the signs: 12 names at C3 and 14 from C5 on
    case = build_case(DynkinType("C", n))
    keys = set(relation_residuals(case))
    if n % 2 == 0:
        assert keys == C_RELATION_KEYS | (C_INTERIOR_KEYS if n > 2 else set())
    assert len(keys) == {2: 8, 3: 12}.get(n, 14)
    tol = Tolerances().relations
    log_plus_phase = spectral.log_plus_phase

    def failing(rel):
        assert set(rel) == keys and max(rel.values()) > tol
        return {name for name, r in rel.items() if r > tol}

    read_by_plus = set()
    for v in range(3 * n - 1):
        def moved(loop, x, v=v):
            x_plus, plus = log_plus_phase(loop, x)
            plus[v, np.flatnonzero(plus[v])[0]] += 1e-6
            return x_plus, plus

        with monkeypatch.context() as m:
            m.setattr(spectral, "log_plus_phase", moved)
            read_by_plus |= failing(relation_residuals(case))
    assert read_by_plus == keys
    read_by_l = set()
    for v in range(3 * n - 1):
        jac = case.jacobian.copy()
        jac[v, np.flatnonzero(jac[v])[0]] += 1e-6
        names = failing(relation_residuals(dataclasses.replace(case, jacobian=jac)))
        assert len(names) == 1  # each row of L is read by one identity of the second phase
        read_by_l |= names
    assert read_by_l == {name for name in keys if name.startswith("minus")}


class _ScaledRows:
    """Row k of diag(scale) M, built on demand from M's row `row(k)`."""

    def __init__(self, scale: np.ndarray, row: Callable[[int], np.ndarray]):
        self.scale, self.row = scale, row

    def __getitem__(self, k: int) -> np.ndarray:
        return self.scale[k] * self.row(k)


def c_relation_residuals_oracle(case: spectral.Case) -> Dict[str, float]:
    """The C_n phase-factor identities psi' = J_+ psi, psi'' = J_- psi' (J_- before
    nu) in closed form, for every psi at once: psi = diag(eta), row k eta_k e_k, so
    psi' = diag(y') L_+ with y' = mu_+(eta) and psi'' = diag(y'') L_- L_+ with y''
    the loop's image before nu, where (L_- L_+)[v] = L[nu(v)]. Each residual is a
    row's max|lhs - rhs| over the lhs row's scale: a gap on a row of L_+ or of L.

    Each phase maps the rows of its column vertices, (i, m) with i < n, from
    src = psi or psi' to lhs = psi' or psi'': a vertex the phase mutates goes to
    -src[v] / Y^2, every other to the neighbour sum of a mid (m = 2) or an outer
    row. Top and bot rows both read Y(i, 1); p is the neighbour after node n - 1's
    mid. Only p's and q's identities are written out, on L_+'s rows and L's."""
    n = case.type.rank
    Y = case.ysol.value
    loop, x = case.loop, np.log(case.eta)
    lq, nu = loop.start, list(loop.nu)
    at = dict(zip(lq.hindex, range(lq.n_vertices)))
    p, q = at[n, 1], at[n + 1, 1]
    x_plus, plus = log_plus_phase(loop, x)
    psi = _ScaledRows(case.eta, lambda k: np.eye(1, len(x), k)[0])
    psi_p = _ScaledRows(np.exp(x_plus), plus.__getitem__)
    psi_pp = _ScaledRows(np.exp(log_cluster_transform(loop, x))[nu], lambda k: case.jacobian[nu[k]])
    worst: Dict[str, float] = {}

    def record(name, rows, k, rhs):
        r = np.max(np.abs(rows[k] - rhs)) / rows.scale[k]
        worst[name] = spectral._worst(worst.get(name, 0.0), r)

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
    mid, outer = at[n - 1, 2], psi[at[n - 1, 1]] + psi[at[n - 1, 3]]  # node n - 1's top + bot
    record("plus_white_plus", psi_p, p, -psi[p] / Y(n, 1) ** 2)
    rhs = (Y(n - 1, 1) + 1) ** 2 * psi[q] + (Y(n - 1, 2) + 1) * (Y(n - 1, 1) + 1) / Y(n, 1) * outer
    record("plus_white_fixed", psi_p, q, rhs)
    record("minus_white_plus", psi_pp, p, psi_p[mid] / Y(n, 1) - (Y(n - 1, 2) + 1) * psi[p] / Y(n, 1) ** 2)
    rhs = Y(n, 1) * (
        psi_p[mid] / (Y(n - 1, 2) + 1)
        + outer / (Y(n - 1, 1) + 1)
        + Y(n, 1) * psi[q] / (Y(n - 1, 2) + 1)
    )
    record("minus_white_fixed", psi_pp, q, rhs)
    return worst


@pytest.mark.parametrize("n", [*range(2, 42), 64, 128])
def test_c_relation_residuals_match_the_per_row_oracle(n):
    case = build_case(DynkinType("C", n))
    got, want = relation_residuals(case), c_relation_residuals_oracle(case)
    assert list(got) == list(want)
    for name in want:
        assert abs(got[name] - want[name]) <= 1e-15, name


def test_c_relation_residuals_hold_no_n_by_n_temporary():
    # beyond the L_+ that log_plus_phase returns, the node blocks hold a few rows at a time
    case = build_case(DynkinType("C", 256))
    size = len(case.jacobian)
    tracemalloc.start()
    try:
        relation_residuals(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * size * size * 8


@pytest.mark.parametrize("row,col", [(0, 110), (100, 0)])
def test_an_entry_off_a_block_window_fails_relations(row, col, monkeypatch):
    # C40's two node blocks compute their rules on the columns of their nodes, two more nodes
    # on each side, p and q; an entry of L or of L_+ off them, in either block, still fails relations
    case = build_case(DynkinType("C", 40))
    tol = Tolerances().relations
    jac = case.jacobian.copy()
    jac[row, col] += 1e-6
    broken = dataclasses.replace(case, jacobian=jac)
    assert max(relation_residuals(broken).values()) > tol
    log_plus_phase = spectral.log_plus_phase

    def moved(loop, x):
        x_plus, plus = log_plus_phase(loop, x)
        plus[row, col] += 1e-6
        return x_plus, plus

    monkeypatch.setattr(spectral, "log_plus_phase", moved)
    assert max(relation_residuals(case).values()) > tol


def test_relation_residuals_odd_rank_rejected():
    with pytest.raises(ValueError):
        relation_residuals(build_case(DynkinType("B", 3)))


def test_even_mid_inversion_identity_c4():
    rel = relation_residuals(build_case(DynkinType("C", 4)))
    assert rel["plus_mid_even"] <= 1e-9


@pytest.mark.parametrize("fam,n", [("B", 4), ("B", 6), ("B", 8), ("D", 4), ("D", 6), ("D", 8)])
def test_lemma_eigenvectors(fam, n):
    dt = DynkinType(fam, n)
    summary = lemma_summary(build_case(dt))
    assert summary["vectors"] <= 1e-8
    assert summary["exponent_multiset_match"] == 0.0


def test_lemma_single_vector_b4():
    case = build_case(DynkinType("B", 4))
    exps, psi, res = lemma_basis(case)
    assert psi.shape == (9, 9)
    assert exps[2] == 6 and res[2] <= 1e-8  # a = 3: lambda = zeta_9^3 = e^{2 pi i 6 / 18}
    assert exps[-1] == 9 and res[-1] <= 1e-8  # the special column, at lambda = -1
    eta = case.eta
    assert np.count_nonzero(psi[:, -1]) == 2 and psi[3, -1] == 1 / eta[3] and psi[5, -1] == -1 / eta[5]


def test_lemma_roots_of_unity_table():
    # every lambda^j of the lemma is read from this table, and a skew of 1e-9 in one
    # root moves the D8 eigen-residual only to 2.6e-9, inside the lemma's 1e-8
    for dt in [DynkinType("B", n) for n in range(2, 513, 2)] + [DynkinType("D", n) for n in range(4, 513, 2)]:
        order = spectral.lemma_parameters(dt) + 1
        k = np.arange(order)
        assert np.max(np.abs(spectral._lemma_powers(dt, k)(1) - np.exp(2j * np.pi * k / order))) <= 1e-14, dt


@pytest.mark.parametrize("dt", [DynkinType("B", 6), DynkinType("D", 8)], ids=str)
def test_lemma_vectors_fails_on_one_moved_exponent(dt, monkeypatch):
    case = build_case(dt)
    period, exps = case.exponents.period, list(case.exponents.exponents)
    exps[0] += 1
    broken = dataclasses.replace(case, exponents=ExponentSequence(period, tuple(sorted(exps))))
    summary = lemma_summary(broken)
    assert summary["exponent_multiset_match"] == 1.0 and summary["vectors"] <= Tolerances().lemma
    monkeypatch.setattr(spectral, "build_case", lambda dt, tol: broken)
    verdict = run_case(dt)["checks"]["lemma_vectors"]
    assert not verdict["pass"] and verdict["residual"] == 1.0
    assert verdict["exponent_multiset_match"] == 1.0 and verdict["vectors"] <= Tolerances().lemma


def test_seeded_points_are_drawn_row_by_row():
    long = spectral._seeded_uniform(4, (20, 13))
    assert np.array_equal(spectral._seeded_uniform(4, (5, 13)), long[:5])
    assert long.min() >= 0.5 and long.max() < 2.0
    assert not np.array_equal(spectral._seeded_uniform(5, (20, 13)), long)


# The per-a reference: one scalar phi per admissible a, with lambda^j read
# from the same table of roots of unity, the special vector written out, and
# the exponents snapped from the eigenvalues one at a time.

def oracle_powers(dt, a):
    order = spectral.lemma_parameters(dt) + 1
    k = np.arange(order)
    roots = _sin_pi(order + 4 * k, 2 * order) + 1j * _sin_pi(2 * k, order)
    return lambda j: roots[(a * j) % order]


def oracle_phi_B(n, power):
    l = n // 2
    lam = power(1)
    phi = np.zeros(2 * n + 1, dtype=complex)
    phi[2 * l - 1] = 1.0
    phi[2 * l + 1] = 1.0

    def geom(lo, hi):
        return (power(hi + 1) - power(lo)) / (lam - 1)

    for k in range(1, l):
        coef_odd = -2 * (l - k) * (2 * l + 1) ** 2 / (
            (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2 * (4 * l + 1)
        )
        phi[2 * l - 2 * k - 2] = (coef_odd / lam) * (
            (2 * l - 2 * k + 1) * (power(2 * k + 1) + power(2 * k) + power(-2 * k) + power(-(2 * k + 1)))
            + 2 * geom(-(2 * k - 1), 2 * k - 1)
        )
        coef_even = (2 * l - 2 * k + 1) * (2 * l + 1) ** 2 / (4 * l + 1)
        phi[2 * l - 2 * k - 1] = 2 * coef_even * (
            (l - k + 1) * (power(2 * k) + power(2 * k - 1) + power(-(2 * k - 1)) + power(-2 * k))
            + geom(-(2 * k - 2), 2 * k - 2)
        )
    phi[2 * l - 2] = -(2 * l * (2 * l + 1) ** 2 / ((2 * l - 1) ** 2 * (4 * l + 1) ** 2)) * (
        2 + (2 * l + 1) * power(-1) + (2 * l + 1) * power(-2)
    )
    phi[2 * l] = -((2 * l + 1) ** 3 / (8 * l ** 3)) * (1 + power(-1))
    phi[2 * l + 2] = (2 * l * (2 * l + 1) ** 2 / (4 * l + 1)) * ((2 * l + 1) * (lam + power(-1)) + 4 * l)
    for k in range(1, l):
        phi[2 * l + 2 * k + 1] = -phi[2 * l - 2 * k - 1] / (16 * lam * (l - k) ** 2 * (l - k + 1) ** 2)
        phi[2 * l + 2 * k + 2] = (
            -lam * (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2 * phi[2 * l - 2 * k - 2]
        )
    return phi


def oracle_phi_D(n, power):
    l = n // 2
    lam = power(1)
    phi = np.zeros(n, dtype=complex)
    phi[n - 2] = 1.0
    phi[n - 1] = 1.0
    for k in range(1, l):
        coef_odd = (l - k) * (2 * l - 1) ** 2 / (
            l * (2 * l - 2 * k - 1) ** 2 * (2 * l - 2 * k + 1) ** 2
        )
        full = (power(k) - power(-(k - 1))) / (lam - 1)
        phi[2 * l - 2 * k - 2] = coef_odd * ((2 * l - 2 * k + 1) * (power(k) + power(-k)) + 2 * full)
        coef_even = -(2 * l - 2 * k + 1) * (2 * l - 1) ** 2 / l
        mid = (power(k) - power(-(k - 2))) / (lam - 1)
        phi[2 * l - 2 * k - 1] = coef_even * ((l - k + 1) * (power(k) + power(-(k - 1))) + mid)
    return phi


def oracle_eigenvector(case, a):
    dt = case.type
    power = oracle_powers(dt, a)
    lam = power(1)
    phi = (oracle_phi_B if dt.family == "B" else oracle_phi_D)(dt.rank, power)
    psi = phi / case.eta  # the eigenvector of L = diag(1/eta) J diag(eta)
    return lam, phi, float(np.max(np.abs(case.jacobian @ psi - lam * psi)) / np.max(np.abs(psi)))


def oracle_special_vector(case):
    n = case.type.rank
    phi = np.zeros(len(case.eta))
    if case.type.family == "B":
        phi[n - 1], phi[n + 1] = 1.0, -1.0
    else:
        phi[n - 2], phi[n - 1] = 1.0, -1.0
    psi = phi / case.eta
    return -1.0, phi, float(np.max(np.abs(case.jacobian @ psi + psi)) / np.max(np.abs(psi)))


def oracle_snap(eigenvalues, period):
    exps, worst = [], 0.0
    for lam in eigenvalues:
        m = int(round(np.angle(lam) / (2 * np.pi) * period)) % period
        worst = max(worst, abs(lam - np.exp(2j * np.pi * m / period)))
        exps.append(m)
    return tuple(sorted(exps)), worst


def oracle_lemma_summary(case):
    """lemma_summary's entries and the sorted lemma exponents, snapped from each lambda."""
    a_all = range(1, spectral.lemma_parameters(case.type) + 1)
    vectors = [oracle_eigenvector(case, a) for a in a_all] + [oracle_special_vector(case)]
    exps = case.exponents
    lemma_exps, _ = oracle_snap(np.array([lam for lam, _, _ in vectors]), exps.period)
    return {
        "vectors": max(res for _, _, res in vectors),
        "exponent_multiset_match": 0.0 if lemma_exps == exps.exponents else 1.0,
    }, lemma_exps


ORACLE_LEMMA_TYPES = ([DynkinType("B", n) for n in range(2, 41, 2)]
                      + [DynkinType("D", n) for n in range(4, 41, 2)]
                      + [DynkinType("B", 130), DynkinType("D", 168)])


@pytest.mark.parametrize("dt", ORACLE_LEMMA_TYPES, ids=str)
def test_lemma_summary_matches_the_per_a_loop(dt):
    case = build_case(dt)
    got, (want, want_exps) = lemma_summary(case), oracle_lemma_summary(case)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, want[key]), key
    assert tuple(sorted(lemma_basis(case)[0].tolist())) == want_exps


@pytest.mark.parametrize("dt", [DynkinType("B", 6), DynkinType("D", 8)], ids=str)
def test_lemma_eigenvector_is_a_column_of_the_batch(dt):
    case = build_case(dt)
    exps, psi, residuals = lemma_basis(case)
    order, period = spectral.lemma_parameters(dt) + 1, case.exponents.period
    assert psi.shape == (len(case.eta),) * 2 and np.linalg.matrix_rank(psi) == len(psi)
    wants = [oracle_eigenvector(case, a) for a in range(1, order)] + [oracle_special_vector(case)]
    for m, column, res, (want_lam, want_phi, want_res) in zip(exps, psi.T, residuals, wants, strict=True):
        assert abs(want_lam - np.exp(2j * np.pi * m / period)) <= 1e-14
        np.testing.assert_allclose(column, want_phi / case.eta, rtol=1e-14, atol=0)
        assert abs(res - want_res) <= 1e-12
    assert exps.dtype.kind == "i" and exps[-1] * 2 == period


@pytest.mark.parametrize("dt", [DynkinType("A", 7), DynkinType("B", 9), DynkinType("C", 10),
                                DynkinType("D", 12)], ids=str)
def test_snap_exponents_matches_the_loop(dt):
    rep = build_case(dt)
    got = spectral.snap_exponents(rep.eigenvalues, rep.exponents.period)
    want = oracle_snap(rep.eigenvalues, rep.exponents.period)
    assert got[0] == want[0]
    assert abs(got[1] - want[1]) <= 1e-15


def test_c_blocks_structure():
    case, blocks = c_case_blocks(3)
    assert blocks.Khat.shape == (2, 2)
    assert blocks.Lhat.shape == (6, 6)
    Y = y_solution(DynkinType("C", 3)).value
    lam = np.exp(0.41j)
    k_band, l_band = reduced_blocks(case, lam)
    k = dense_of_band(k_band)
    assert k[0, 1] == pytest.approx(Y(1, 1) / (Y(2, 1) + 1))
    assert k[1, 0] == pytest.approx(Y(2, 1) / (Y(1, 1) + 1))
    assert k[0, 0] == pytest.approx(lam + 1 / lam)
    ell = dense_of_band(l_band)
    assert ell[5, 4] == pytest.approx(Y(2, 2) + 1)  # L_{2n,2n-1}
    _, blocks4 = c_case_blocks(4)
    assert blocks4.Khat.shape == (3, 3)
    assert blocks4.Lhat.shape == (8, 8)
    assert blocks4.residuals["khat_reference"] <= 1e-9
    assert blocks4.residuals["lhat_reference"] <= 1e-9


def test_c50_block_reference_residuals_are_relative():
    # max|L-hat| is 3.3e8 at C50, so rounding alone puts the absolute residual
    # above c_identities = 1e-7
    case = build_case(DynkinType("C", 50))
    residuals = c_blocks(case).residuals
    assert max(residuals["khat_reference"], residuals["lhat_reference"]) <= 1e-12
    assert spectral.c_checks(case)["c_reduction"]["pass"]


@pytest.mark.parametrize("n", range(3, 42, 2))
def test_odd_rank_c_checks_read_the_phase_signs(n):
    # the block tables and the relations follow the quiver's signs, which odd rank shifts by one node
    case = build_case(DynkinType("C", n))
    residuals = c_blocks(case).residuals
    assert max(residuals["khat_reference"], residuals["lhat_reference"]) <= 1e-12
    assert spectral.c_checks(case)["c_reduction"]["pass"]
    assert max(relation_residuals(case).values()) <= 1e-12


def _move_one_lhat_table_entry(monkeypatch):
    # a 1e-4 relative error in L-hat's table entry (2, 3): node 2's top + bot row, mid column
    original = spectral._hat_reference

    def perturbed(lq, Y, rows):
        table = original(lq, Y, rows)
        if rows == (1, 2):
            table[2, 3] *= 1 + 1e-4
        return table

    monkeypatch.setattr(spectral, "_hat_reference", perturbed)


def test_c50_block_reference_residuals_are_per_entry(monkeypatch):
    # a 1e-4 relative error in one small entry of the L-hat table is 1e-13 of max|L-hat|
    _move_one_lhat_table_entry(monkeypatch)
    assert not spectral.c_checks(build_case(DynkinType("C", 50)))["c_reduction"]["pass"]


def test_c51_block_reference_residuals_are_per_entry(monkeypatch):
    # at odd rank node 2's mid column is one the first phase leaves, so the moved entry is another rule's
    case = build_case(DynkinType("C", 51))
    assert spectral.c_checks(case)["c_reduction"]["pass"]
    _move_one_lhat_table_entry(monkeypatch)
    assert not spectral.c_checks(case)["c_reduction"]["pass"]


def k_reduced_oracle(n, Y, lam):
    big = lam + 1 / lam
    d = n - 1
    k = np.zeros((d, d), dtype=complex)
    for i in range(1, d + 1):
        k[i - 1, i - 1] = big
        for j in (i - 1, i + 1):
            if 1 <= j <= d:
                k[i - 1, j - 1] = Y(i, 1) / (Y(j, 1) + 1)
    return k


def l_reduced_oracle(n, Y, lam):
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


@pytest.mark.parametrize("n", range(2, 13))
def test_reduced_blocks_match_the_entrywise_oracle(n):
    case, blocks = c_case_blocks(n)
    Y = y_solution(DynkinType("C", n)).value
    lams = c_determinants(case, blocks).lams
    for lam, k_band, l_band in zip(lams, *reduced_blocks(case, lams)):
        for got, want in ((dense_of_band(k_band), k_reduced_oracle(n, Y, lam)),
                          (dense_of_band(l_band), l_reduced_oracle(n, Y, lam))):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_c_reduction_identities(n):
    case, blocks = c_case_blocks(n)
    res = verify_c_reduction(case, blocks, c_determinants(case, blocks))
    assert blocks.offdiag <= 1e-9
    assert res["k_reduction"] <= 1e-7
    assert res["l_reduction"] <= 1e-7
    assert res["full_det"] <= 1e-7


def test_c_reduction_at_lambda_i():
    case, blocks = c_case_blocks(3)
    lam = 1j
    lhs = (-lam) ** (-2) * np.linalg.det(blocks.Khat - lam ** 2 * np.eye(2))
    rhs = np.linalg.det(dense_of_band(reduced_blocks(case, lam)[0]))
    assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("n", range(3, 11))
def test_conjecture_csol(n):
    case, blocks = c_case_blocks(n)
    res = verify_conjecture_csol(case, c_determinants(case, blocks))
    assert res.keys() == {"csol_k", "csol_l"}
    assert res["csol_k"] <= 1e-7
    assert res["csol_l"] <= 1e-7
    assert "open" in spectral.c_checks(case)["csol"]["status"]


def test_csol_degree_count():
    # det L carries 2(n-2) + 4 = 2n factors
    n = 4
    lam = np.exp(0.3j)
    big = lam + 1 / lam
    _, prod_l = csol_products(n, lam)
    coeffs = np.zeros(2 * n + 1, dtype=complex)
    # expand the product degree by sampling: degree check via polynomial fit
    xs = np.exp(1j * np.linspace(0.2, 2.8, 2 * n + 1))
    vals = [csol_products(n, x)[1] for x in xs]
    bigs = [x + 1 / x for x in xs]
    fitted = np.polyfit(bigs, vals, 2 * n)
    assert abs(fitted[0]) > 1e-6  # leading coefficient of degree 2n is present


def csol_products_oracle(n, lam):
    big = lam + 1 / lam
    prod_k = np.prod([big - 2 * math.cos((2 * i + 3) * math.pi / (2 * (n + 3))) for i in range(1, n)])
    prod_l = np.prod(
        [(big - 2 * math.cos((i + 2) * math.pi / (n + 3))) ** 2 for i in range(1, n - 1)]
    ) * np.prod([big - 2 * math.cos(j * math.pi / (n + 3)) for j in (1, 2, n + 1, n + 2)])
    return prod_k, prod_l


def c_reduction_oracle(case, blocks, lams):
    """The identities of `verify_c_reduction` by dense determinants, sample by sample,
    det(zI - J) among them, taken of the case's full Jacobian."""
    n, jacobian = case.type.rank, case.jacobian
    out = {"k_reduction": 0.0, "l_reduction": 0.0, "full_det": 0.0}
    for lam in lams:
        det_k, det_l = (np.linalg.det(dense_of_band(band)) for band in reduced_blocks(case, lam))
        lhs_k = (-lam) ** (-(n - 1)) * np.linalg.det(blocks.Khat - lam ** 2 * np.eye(n - 1))
        out["k_reduction"] = max(out["k_reduction"], abs(lhs_k - det_k) / max(1.0, abs(det_k)))
        lhs_l = lam ** (-2 * n) * np.linalg.det(blocks.Lhat - lam ** 2 * np.eye(2 * n))
        out["l_reduction"] = max(out["l_reduction"], abs(lhs_l - det_l) / max(1.0, abs(det_l)))
        lhs_f = np.linalg.det(lam ** 2 * np.eye(3 * n - 1) - jacobian)
        rhs_f = lam ** (3 * n - 1) * det_k * det_l
        out["full_det"] = max(out["full_det"], abs(lhs_f - rhs_f) / max(1.0, abs(rhs_f)))
    return out


def csol_oracle(case, lams):
    out = {"csol_k": 0.0, "csol_l": 0.0}
    for lam in lams:
        prod_k, prod_l = csol_products_oracle(case.type.rank, lam)
        det_k, det_l = (np.linalg.det(dense_of_band(band)) for band in reduced_blocks(case, lam))
        out["csol_k"] = max(out["csol_k"], abs(det_k - prod_k) / max(1.0, abs(prod_k)))
        out["csol_l"] = max(out["csol_l"], abs(det_l - prod_l) / max(1.0, abs(prod_l)))
    return out


@pytest.mark.parametrize("n", [*range(2, 41), 64, 128])
def test_c_identities_match_the_dense_determinant_oracle(n):
    case = build_case(DynkinType("C", n))
    blocks = c_blocks(case)
    assert_split_is_the_dense_change_of_basis(case, blocks)
    tol = Tolerances().c_identities
    dets = c_determinants(case, blocks)  # the reduction reads every other point of the grid, csol every point
    for got, want in ((verify_c_reduction(case, blocks, dets), c_reduction_oracle(case, blocks, dets.lams[::2])),
                      (verify_conjecture_csol(case, dets), csol_oracle(case, dets.lams))):
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-9, name
        assert (max(got[name] for name in want) <= tol) == (max(want.values()) <= tol)


@pytest.mark.parametrize("n", [6, 20, 40])
def test_full_det_catches_one_moved_eigenvalue(n):
    case, blocks = c_case_blocks(n)
    dets = c_determinants(case, blocks)
    assert verify_c_reduction(case, blocks, dets)["full_det"] <= Tolerances().c_identities
    moved = case.eigenvalues.copy()
    moved[0] += 1e-6
    res = verify_c_reduction(dataclasses.replace(case, eigenvalues=moved), blocks, dets)
    assert res["full_det"] > Tolerances().c_identities


def test_c_checks_read_the_case_eigenvalues():
    case = build_case(DynkinType("C", 6))
    assert spectral.c_checks(case)["c_reduction"]["pass"]
    moved = case.eigenvalues.copy()
    moved[0] += 1e-6
    reduction = spectral.c_checks(dataclasses.replace(case, eigenvalues=moved))["c_reduction"]
    assert reduction["pass"] is False and reduction["full_det"] > Tolerances().c_identities
    assert max(reduction[name] for name in ("k_reduction", "l_reduction")) <= Tolerances().c_identities


def test_a_block_pair_holds_only_what_the_split_computes():
    assert [f.name for f in dataclasses.fields(spectral.CBlockPair)] == ["Khat", "Lhat", "residuals", "offdiag"]
    case, blocks = c_case_blocks(4)
    assert blocks.residuals.keys() == {"khat_reference", "lhat_reference"}
    assert isinstance(blocks.offdiag, float)
    dets = c_determinants(case, blocks)
    for residuals in (verify_c_reduction(case, blocks, dets), verify_conjecture_csol(case, dets)):
        assert all(type(r) is float for r in residuals.values())


@pytest.mark.parametrize("n", [6, 20, 40])
def test_k_checks_catch_one_scaled_entry_of_k(n, monkeypatch):
    case, blocks = c_case_blocks(n)
    reduced = spectral._reduced_blocks

    def scaled(n, Y, lams):
        k, ell = reduced(n, Y, lams)
        k[..., 0, 2] *= 1 + 1e-5  # K[0, 1] = y_1 / (y_2 + 1), free of lambda
        return k, ell

    monkeypatch.setattr(spectral, "_reduced_blocks", scaled)
    dets = c_determinants(case, blocks)
    tol = Tolerances().c_identities
    assert verify_c_reduction(case, blocks, dets)["k_reduction"] > tol
    assert verify_conjecture_csol(case, dets)["csol_k"] > tol


@pytest.mark.parametrize("n", [6, 20, 40])
def test_l_checks_catch_one_scaled_entry_of_l(n, monkeypatch):
    case, blocks = c_case_blocks(n)
    reduced = spectral._reduced_blocks
    tol = Tolerances().c_identities
    assert verify_c_reduction(case, blocks, c_determinants(case, blocks))["l_reduction"] <= tol

    def scaled(n, Y, lams):
        k, ell = reduced(n, Y, lams)
        ell[..., 0, 3] *= 1 + 1e-5  # L[0, 1] = y_1 / (y_2 (y_2 + 1)), free of lambda
        return k, ell

    monkeypatch.setattr(spectral, "_reduced_blocks", scaled)
    dets = c_determinants(case, blocks)
    assert verify_c_reduction(case, blocks, dets)["l_reduction"] > tol
    assert verify_conjecture_csol(case, dets)["csol_l"] > tol


@pytest.mark.parametrize("n", [6, 20, 40])
def test_l_reduction_catches_one_scaled_entry_of_lhat(n):
    case, blocks = c_case_blocks(n)
    lhat = blocks.Lhat.copy()
    lhat[2, 3] *= 1 + 1e-5  # node 2's top + bot row, mid column: inside the band
    scaled = dataclasses.replace(blocks, Lhat=lhat)
    dets = c_determinants(case, scaled)
    assert dets.half_bandwidths["Lhat"] == 4
    assert verify_c_reduction(case, scaled, dets)["l_reduction"] > Tolerances().c_identities


@pytest.mark.parametrize("n", [6, 20, 40])
def test_an_entry_outside_the_khat_band_is_read(n):
    case, blocks = c_case_blocks(n)
    assert c_determinants(case, blocks).half_bandwidths == {"K": 1, "L": 2, "Khat": 2, "Lhat": 4}
    khat = blocks.Khat.copy()
    khat[0, 4] = 0.5  # four columns right of the diagonal, where K-hat holds 0
    planted = dataclasses.replace(blocks, Khat=khat)
    dets = c_determinants(case, planted)
    assert dets.half_bandwidths["Khat"] == 4
    assert verify_c_reduction(case, planted, dets)["k_reduction"] > Tolerances().c_identities


@pytest.mark.parametrize("h", range(5))
def test_banded_dets_match_numpy_det(h):
    # random complex bands, one stack per size beside a stack of another size and half-bandwidth,
    # so every call pads; member 1 has a small diagonal, so its steps swap rows, member 2 an
    # all-zero column, member 3 a nan
    rng = np.random.default_rng(h)
    for m in range(1, 49):
        dense = [rng.standard_normal((4, size, size)) + 1j * rng.standard_normal((4, size, size))
                 for size in (m, int(rng.integers(1, 49)))]
        halves = (h, int(rng.integers(0, 5)))
        for a, hs in zip(dense, halves):
            i, j = np.indices(a.shape[1:])
            a[:, abs(i - j) > hs] = 0
            a[1, i == j] *= 1e-3
            a[2, :, len(i) // 2] = 0
            a[3, len(i) // 3, len(i) // 3] = np.nan
        got = spectral._banded_dets(*(np.array([band_of_dense(x, hs) for x in a]) for a, hs in zip(dense, halves)))
        for a, g in zip(dense, got):
            with np.errstate(invalid="ignore"):
                want = np.linalg.det(a)
            assert np.all(np.abs(g[:2] - want[:2]) <= 1e-12 * np.abs(want[:2])), (m, h)
            assert g[2] == 0 and want[2] == 0
            assert np.isnan(g[3])  # np.linalg.det reads 0 when its first pivot is the nan


def test_band_reads_the_half_bandwidth_of_the_nonzero_pattern():
    a = np.zeros((7, 7))
    assert spectral._band(a).shape == (7, 1)
    a[6, 3] = 2.0
    a[1, 2] = np.nan
    band = spectral._band(a)
    assert band.shape == (7, 7)
    np.testing.assert_array_equal(dense_of_band(band), a)


def khat_reference_oracle(n: int, Y) -> np.ndarray:
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


def lhat_reference_oracle(n: int, Y) -> np.ndarray:
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
    # Y(m-1,2)/(Y(m,1)(Y(m,1)+1)) - (Y(m-1,2)+1)/Y(m,1)^2, without its cancellation at high rank
    L[4 * l - 1, 4 * l - 2] = -(Y(m - 1, 2) + Y(m, 1) + 1) / (Y(m, 1) ** 2 * (Y(m, 1) + 1))
    L[4 * l - 2, 4 * l - 1] = Y(m, 1) ** 2 / (Y(m - 1, 2) + 1)
    return L


@pytest.mark.parametrize("n", [*range(2, 65, 2), 256])
def test_banded_tables_match_the_full_loop_oracle_bitwise(n):
    dt = DynkinType("C", n)
    Y, lq = y_solution(dt).value, build_dynkin_quiver(dt)
    for got, want in ((spectral._hat_reference(lq, Y, (1,)), khat_reference_oracle(n, Y)),
                      (spectral._hat_reference(lq, Y, (1, 2)), lhat_reference_oracle(n, Y))):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 41))
def test_csol_products_over_an_array_match_the_scalar_oracle(n):
    lams = spectral._unit_circle_samples(32)
    got = csol_products(n, lams)
    want = np.array([csol_products_oracle(n, lam) for lam in lams]).T
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    np.testing.assert_allclose(csol_products(n, lams[3]), want[:, 3], rtol=1e-14, atol=0)


def test_csol_products_match_the_running_product_to_rank_64():
    lams = spectral._unit_circle_samples(32)
    for n in range(2, 65):
        want = np.array([csol_products_oracle(n, lam) for lam in lams]).T
        np.testing.assert_allclose(csol_products(n, lams), want, rtol=1e-12, atol=0, err_msg=f"C{n}")


def test_csol_products_at_c1024_are_finite_and_nonzero():
    # a running product reads 0.0 at 11 of these 32 samples and nan at 11 more:
    # it overflows, then meets an underflow; the log-moduli are summed exactly here
    n = 1024
    lams = spectral._unit_circle_samples(32)
    prod_k, prod_l = csol_products(n, lams)
    for lam, k, l in zip(lams, prod_k, prod_l):
        big = (lam + 1 / lam).real
        cos = lambda ks, den: [big - 2 * math.cos(j * math.pi / den) for j in ks]
        want_k = math.fsum(math.log(abs(f)) for f in cos(range(5, 2 * n + 2, 2), 2 * (n + 3)))
        want_l = math.fsum([2 * math.log(abs(f)) for f in cos(range(3, n + 1), n + 3)]
                           + [math.log(abs(f)) for f in cos((1, 2, n + 1, n + 2), n + 3)])
        assert np.isfinite(k) and np.isfinite(l) and k != 0 and l != 0
        assert abs(math.log(abs(k)) - want_k) <= 1e-9 and abs(math.log(abs(l)) - want_l) <= 1e-9


def test_log_form_product_neither_underflows_nor_overflows():
    factors = np.concatenate((np.full(2000, 1e-3), np.full(2000, 1e3)))
    assert np.prod(factors) == 0.0  # the running product underflows before the large factors
    assert spectral._product(factors) == pytest.approx(1.0, rel=1e-12, abs=0)
    assert spectral._product(-factors[::-1]) == pytest.approx(1.0, rel=1e-12, abs=0)
    z = np.exp(1j * np.linspace(0.3, 2.9, 7)) * np.linspace(0.5, 3.0, 7)
    assert spectral._product(z) == pytest.approx(np.prod(z), rel=1e-14, abs=0)


def test_worst_residual_keeps_a_nan():
    assert max(7.6e-13, math.nan) == 7.6e-13  # builtin max keeps its first argument
    for residuals in ((7.6e-13, math.nan), (math.nan, 7.6e-13), (0.0, 1.0, math.nan, 2.0)):
        assert math.isnan(spectral._worst(*residuals))
    assert spectral._worst(1.0, 3.0, 2.0) == 3.0


def test_csol_fails_on_a_nan_component(monkeypatch):
    def nan_l(case, dets):
        return {"csol_k": 7.6e-13, "csol_l": math.nan}

    monkeypatch.setattr(spectral, "verify_conjecture_csol", nan_l)
    checks = spectral.c_checks(build_case(DynkinType("C", 4)))
    assert checks["c_reduction"]["pass"]
    assert checks["csol"]["pass"] is False and math.isnan(checks["csol"]["residual"])


def test_spectral_imports_no_y_space_view():
    # every check reads the log-coordinate programs; the y-space views are for callers outside
    assert not {"yseed.loop_jacobian", "yseed.cluster_transform"} & set(imported_names(spectral))


def test_a_nan_c_relation_row_fails_relations(monkeypatch):
    # a nan in row mid(1) of L_+ reaches some relation rows and not others
    log_plus_phase = spectral.log_plus_phase

    def nan_row(loop, x):
        x_plus, plus = log_plus_phase(loop, x)
        plus[1] = np.nan
        return x_plus, plus

    monkeypatch.setattr(spectral, "log_plus_phase", nan_row)
    residuals = relation_residuals(build_case(DynkinType("C", 4)))
    assert math.isnan(residuals["plus_mid_odd"])
    assert residuals["plus_outer_odd"] <= 1e-12
    checks = run_case(DynkinType("C", 4), samples=8, periodicity_points=2)["checks"]
    assert checks["relations"]["pass"] is False and math.isnan(checks["relations"]["residual"])
    assert all(c["pass"] for name, c in checks.items() if name != "relations")


def test_fixed_point_verdict_reads_the_assembled_residual(monkeypatch):
    assemble_eta = spectral.assemble_eta
    monkeypatch.setattr(spectral, "assemble_eta",
                        lambda dt, tol: dataclasses.replace(assemble_eta(dt, tol), residual=2e-9))
    checks = run_case(DynkinType("B", 4), samples=8, periodicity_points=2)["checks"]
    assert checks["fixed_point"]["residual"] == 2e-9 and checks["fixed_point"]["pass"] is False


def test_no_periodicity_points_fail_the_periodicity_check_alone():
    checks = run_case(DynkinType("B", 4), samples=8, periodicity_points=0)["checks"]
    assert checks["periodicity"] == {"residual": None, "pass": False,
                                     "error": "ValueError: the batch holds no points"}
    assert all(c["pass"] for name, c in checks.items() if name != "periodicity")


@pytest.mark.parametrize("fam,n", [("C", 3), ("C", 4)])
def test_c_exponents_match_template(fam, n):
    rep = build_case(DynkinType(fam, n))
    evens = [2 * j for j in range(1, n + 3)]
    run = list(range(5, 2 * n + 2))
    assert rep.exponents.exponents == tuple(sorted(evens + run))


def test_jacobian_fd_is_relative_at_c34():
    # max|J| is about 1.9e7 here, and max|J - J_fd| about 1.4e-5, over the 1e-5
    # tolerance; L holds the relative derivatives d log y' / d log y, so max|L| is 1
    # and the unscaled residual is rounding-sized
    case = build_case(DynkinType("C", 34))
    assert np.max(np.abs(case.jacobian)) <= 2.0
    verdict = check_jacobian_fd(case, Tolerances().fd_jacobian)
    assert verdict["pass"] is True
    assert verdict["residual"] <= 1e-7


def test_jacobian_fd_catches_one_scaled_column():
    case = build_case(DynkinType("C", 34))
    jac = case.jacobian.copy()
    jac[:, 5] *= 1 + 1e-4
    broken = dataclasses.replace(case, jacobian=jac)
    assert not check_jacobian_fd(broken, Tolerances().fd_jacobian)["pass"]


def test_c_checks_pass_from_rank_159():
    # the off-diagonal block of the y-space J reached 1.2e-9 here, over block_diag = 1e-9
    checks = spectral.c_checks(build_case(DynkinType("C", 159)))
    assert checks["c_reduction"]["pass"] and checks["csol"]["pass"], checks
    assert checks["c_reduction"]["offdiag"] <= 1e-14


def test_block_diag_catches_a_small_off_diagonal_entry():
    case = build_case(DynkinType("C", 64))
    assert_split_is_the_dense_change_of_basis(case, c_blocks(case))
    u = c_basis(64)
    bump = np.zeros_like(case.jacobian)
    bump[0, 63] = 1e-8  # row of the K-hat block, column of the L-hat block
    jac = case.jacobian + u @ bump @ np.linalg.inv(u)
    broken = dataclasses.replace(case, jacobian=jac)
    assert spectral.c_checks(case)["c_reduction"]["pass"]
    checks = spectral.c_checks(broken)
    reduction = checks["c_reduction"]
    # the split is still taken: the verdict fails on offdiag and reports every other component
    assert not reduction["pass"] and reduction["offdiag"] > Tolerances().block_diag
    assert reduction["residual"] <= Tolerances().c_identities
    assert {"k_reduction", "l_reduction", "full_det", "khat_reference", "lhat_reference"} <= reduction.keys()
    assert checks["csol"]["pass"]  # csol reads K(lambda) and L(lambda), built from Y alone


@pytest.mark.parametrize("dt", [DynkinType("C", 4), DynkinType("B", 6), DynkinType("A", 5), DynkinType("D", 6)],
                         ids=str)
def test_run_case_builds_no_root_system(dt, capsys):
    build_root_system.cache_clear()
    assert case_passed(run_case(dt, samples=8, periodicity_points=2))
    _run_the_kr_paths(dt, capsys)
    info = build_root_system.cache_info()
    assert info.misses == 0 and info.currsize == 0


def _run_the_kr_paths(dt, capsys):
    # the q-dimensions read the epsilon-pairings, the Y-tables the integer closed forms
    qt = qsys.kr_qtable(dt)
    assert qsys.check_restricted_qsystem(qt) <= 1e-9
    assert qsys.kr_qchar(dt, 2, 1, 1) == qt.value(1, 1)
    assert qsys.qdim(dt, 2, (0,) * dt.rank) == 1.0
    for command in ("qtable", "ytable"):
        assert cli.main([command, "--family", dt.family, "--rank", str(dt.rank)]) == 0
        assert capsys.readouterr().out.startswith("i,m,")


@pytest.mark.parametrize("dt", [DynkinType("A", 8), DynkinType("B", 8), DynkinType("C", 8), DynkinType("D", 8)],
                         ids=str)
def test_the_loop_and_periodicity_build_no_root_system(dt, capsys):
    build_root_system.cache_clear()
    loop = build_mutation_loop(dt)
    _, _, period = group_constants(dt)
    y = np.linspace(0.5, 2.0, loop.n_vertices)
    assert check_periodicity(loop, y, period) <= 1e-10
    assert np.isfinite(loop_jacobian(loop, y).matrix).all()
    assert cli.main(["periodicity", "--family", dt.family, "--rank", str(dt.rank)]) == 0
    assert f"{dt.family},{dt.rank},{period}," in capsys.readouterr().out
    _run_the_kr_paths(dt, capsys)
    assert build_root_system.cache_info().misses == 0


BUILDERS = ("assemble_eta", "y_solution", "build_mutation_loop", "spectrum", "c_blocks")


@pytest.mark.parametrize("dt", [DynkinType("B", 6), DynkinType("C", 6), DynkinType("D", 6)], ids=str)
def test_run_case_builds_the_case_once(dt, monkeypatch):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (spectral, ysys):
        for name in BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    report = run_case(dt, samples=8, periodicity_points=2)
    assert case_passed(report)
    expected = {name: 1 for name in BUILDERS if name != "c_blocks" or dt.family == "C"}
    assert calls == Counter(expected)
