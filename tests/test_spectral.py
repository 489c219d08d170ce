from collections import Counter

import numpy as np
import pytest

from yexp import spectral, ysys
from yexp.rootsys import DynkinType, build_root_system, group_constants
from yexp.spectral import (ExponentSequence, Tolerances, build_case, c_blocks,
                           case_passed, check_conjecture_38, check_jacobian_fd,
                           conjectured_charpoly, csol_products, lemma_boundary_value,
                           lemma_eigenvector, lemma_summary, relation_residuals, run_case,
                           special_eigenvector, verify_c_reduction, verify_conjecture,
                           verify_conjecture_csol)
from yexp.ysys import y_solution


def c_case_blocks(n):
    return c_blocks(build_case(DynkinType("C", n)))


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
    rep = build_case(dt).report
    assert rep.exponents.exponents == exponents_from_poly(poly(n), period)


def test_spectrum_b2():
    rep = build_case(DynkinType("B", 2)).report
    assert rep.exponents.period == 10
    assert rep.exponents.exponents == (2, 4, 5, 6, 8)
    assert rep.residuals["unit_circle"] <= 1e-8
    assert rep.residuals["exponent_snap"] <= 1e-6
    assert rep.residuals["power_identity"] <= 1e-7


def test_spectrum_d4():
    rep = build_case(DynkinType("D", 4)).report
    assert rep.exponents.exponents == (2, 4, 4, 6)
    assert rep.exponents.period == 8


def test_spectrum_c3_matches_template():
    rep = build_case(DynkinType("C", 3)).report
    assert rep.exponents.period == 12
    assert rep.exponents.exponents == (2, 4, 5, 6, 6, 7, 8, 10)


ALL_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for r in range(lo, 11)]


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_exponent_symmetry_and_charpoly(dt):
    rep = build_case(dt).report
    period = rep.exponents.period
    exps = list(rep.exponents.exponents)
    mirrored = sorted((period - m) % period for m in exps)
    assert mirrored == exps
    assert rep.residuals["unit_circle"] <= 1e-7
    assert quotient_exponents(dt) == Counter(rep.exponents.exponents)


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_division_exact(dt):
    num, den = conjectured_charpoly(build_root_system(dt))
    n_vertices = {"A": dt.rank, "B": 2 * dt.rank + 1,
                  "C": 3 * dt.rank - 1, "D": dt.rank}[dt.family]
    assert not (den - num)
    assert sum((num - den).values()) == n_vertices


def quotient_exponents(dt):
    num, den = conjectured_charpoly(build_root_system(dt))
    return num - den


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_closed_form_b(n):
    dt = DynkinType("B", n)
    period = group_constants(dt)[2]
    assert quotient_exponents(dt) == Counter(exponents_from_poly(poly_b(n), period))


@pytest.mark.parametrize("n", range(4, 11))
def test_quotient_closed_form_d(n):
    dt = DynkinType("D", n)
    period = group_constants(dt)[2]
    assert quotient_exponents(dt) == Counter(exponents_from_poly(poly_d(n), period))


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_closed_form_c(n):
    dt = DynkinType("C", n)
    period = group_constants(dt)[2]
    assert quotient_exponents(dt) == Counter(exponents_from_poly(poly_c(n), period))


@pytest.mark.parametrize("dt", [DynkinType("B", 6), DynkinType("D", 8), DynkinType("A", 4)], ids=str)
def test_verify_conjecture_examples(dt):
    rep = verify_conjecture(dt)
    assert rep.conjecture["pass"] is True
    assert rep.conjecture["residual"] <= 1e-7


def test_conjecture_38_rejects_a_wrong_spectrum():
    rep = verify_conjecture(DynkinType("B", 6))
    exps = rep.exponents.exponents
    rep.exponents = ExponentSequence(rep.exponents.period, (exps[0] + 1,) + exps[1:])
    verdict = check_conjecture_38(rep, 1e-7)
    assert verdict["division_exact"] is True
    assert verdict["quotient_matches_spectrum"] is False
    assert verdict["pass"] is False


@pytest.mark.parametrize("dt", [DynkinType("C", 20), DynkinType("D", 24), DynkinType("B", 24)], ids=str)
def test_conjecture_38_high_rank(dt):
    # the float polynomial division reported false failures at these ranks
    rep = verify_conjecture(dt)
    assert rep.conjecture["division_exact"] is True
    assert rep.conjecture["quotient_matches_spectrum"] is True
    assert rep.conjecture["pass"] is True


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("D", 6), DynkinType("C", 4)], ids=str)
def test_relation_residuals(dt):
    rel = relation_residuals(build_case(dt))
    assert max(rel.values()) <= 1e-9


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
    assert summary["boundary"] <= 1e-10
    assert summary["exponent_multiset_match"] == 0.0


def test_lemma_single_vector_b4():
    case = build_case(DynkinType("B", 4))
    lam, psi, res = lemma_eigenvector(case, 3)
    assert abs(lam - np.exp(2j * np.pi * 3 / 9)) <= 1e-12
    assert res <= 1e-8
    lam, psi, res = special_eigenvector(case)
    assert lam == -1.0 and res <= 1e-8
    assert psi[3] == 1.0 and psi[5] == -1.0


def test_lemma_a_out_of_range():
    with pytest.raises(ValueError):
        lemma_eigenvector(build_case(DynkinType("B", 4)), 9)
    with pytest.raises(ValueError):
        lemma_eigenvector(build_case(DynkinType("D", 4)), 4)


def test_lemma_boundary_values():
    for a in range(1, 9):
        assert lemma_boundary_value(DynkinType("B", 4), a) <= 1e-10
    for a in range(1, 4):
        assert lemma_boundary_value(DynkinType("D", 4), a) <= 1e-10


def test_c_blocks_structure():
    blocks = c_case_blocks(3)
    assert blocks.Khat.shape == (2, 2)
    assert blocks.Lhat.shape == (6, 6)
    Y = y_solution(DynkinType("C", 3)).value
    lam = np.exp(0.41j)
    k = blocks.K(lam)
    assert k[0, 1] == pytest.approx(Y(1, 1) / (Y(2, 1) + 1))
    assert k[1, 0] == pytest.approx(Y(2, 1) / (Y(1, 1) + 1))
    assert k[0, 0] == pytest.approx(lam + 1 / lam)
    ell = blocks.L(lam)
    assert ell[5, 4] == pytest.approx(Y(2, 2) + 1)  # L_{2n,2n-1}
    blocks4 = c_case_blocks(4)
    assert blocks4.Khat.shape == (3, 3)
    assert blocks4.Lhat.shape == (8, 8)
    assert blocks4.residuals["khat_reference"] <= 1e-9
    assert blocks4.residuals["lhat_reference"] <= 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_c_reduction_identities(n):
    res = verify_c_reduction(c_case_blocks(n), samples=16)
    assert res["offdiag"] <= 1e-9
    assert res["k_reduction"] <= 1e-7
    assert res["l_reduction"] <= 1e-7
    assert res["full_det"] <= 1e-7


def test_c_reduction_at_lambda_i():
    blocks = c_case_blocks(3)
    lam = 1j
    lhs = (-lam) ** (-2) * np.linalg.det(blocks.Khat - lam ** 2 * np.eye(2))
    rhs = np.linalg.det(blocks.K(lam))
    assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("n", range(3, 11))
def test_conjecture_csol(n):
    res = verify_conjecture_csol(c_case_blocks(n), samples=32)
    assert res["csol_k"] <= 1e-7
    assert res["csol_l"] <= 1e-7
    assert "open" in res["conjecture_status"]


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


@pytest.mark.parametrize("fam,n", [("C", 3), ("C", 4)])
def test_c_exponents_match_template(fam, n):
    rep = build_case(DynkinType(fam, n)).report
    evens = [2 * j for j in range(1, n + 3)]
    run = list(range(5, 2 * n + 2))
    assert rep.exponents.exponents == tuple(sorted(evens + run))


def test_jacobian_fd_is_relative_at_c34():
    # max|J| is about 1.9e7 here; the absolute max|J - J_fd| (about 1.4e-5)
    # is over the 1e-5 tolerance, the relative one is about 7e-13
    verdict = check_jacobian_fd(build_case(DynkinType("C", 34)), Tolerances().fd_jacobian)
    assert verdict["pass"] is True


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
