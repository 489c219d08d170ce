"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from collections import Counter

import numpy as np
import pytest

import yexp
from yexp import DynkinType
from yexp.quiver import Quiver, build_mutation_loop, mutate_quiver, permute_quiver
from yexp.rootsys import build_root_system, group_constants
from yexp.spectral import (build_case, c_blocks, conjectured_charpoly, lemma_summary,
                           relation_residuals, verify_c_reduction, verify_conjecture,
                           verify_conjecture_csol)
from yexp.yseed import (YSeed, check_periodicity, cluster_transform,
                        finite_difference_jacobian, loop_jacobian, mutate_yseed)
from yexp.ysys import (assemble_eta, calibrate_reading, check_ysystem,
                       closed_form_y_exact, newton_fixed_point, y_from_q, y_solution)
from yexp.qsys import (check_qsol_properties, check_restricted_qsystem,
                       closed_form_qtable, kr_qtable)


def report(num: int, description: str, passed: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


FAMILY_RANKS = lambda hi: [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                           for r in range(lo, hi + 1)]


def test_criterion_01_quiver_engine():
    start = time.perf_counter()
    a = np.zeros((4, 4), dtype=int)
    a[0, 1], a[1, 2], a[1, 3], a[3, 0] = 1, 2, 1, 1
    out = mutate_quiver(Quiver(a), 1)
    b = np.zeros((4, 4), dtype=int)
    b[1, 0], b[0, 2], b[2, 1], b[3, 1] = 1, 2, 2, 1
    exact = out == Quiver(b)
    rng = np.random.default_rng(0)
    involution = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                mult = int(rng.integers(0, 4))
                if mult:
                    if rng.integers(0, 2):
                        m[i, j] = mult
                    else:
                        m[j, i] = mult
        q = Quiver(m)
        k = int(rng.integers(0, n))
        involution = involution and mutate_quiver(mutate_quiver(q, k), k) == q
    elapsed = time.perf_counter() - start
    report(1, "quiver engine: worked mutation example + involution on 1000 random quivers",
           exact and involution and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_yseed_engine():
    rng = np.random.default_rng(1)
    a = np.zeros((4, 4), dtype=int)
    a[0, 1], a[1, 2], a[1, 3], a[3, 0] = 1, 2, 1, 1
    q = Quiver(a)
    worst = 0.0
    for _ in range(100):
        y = rng.uniform(0.2, 3.0, 4)
        got = np.array(mutate_yseed(YSeed(q, tuple(y)), 1).values)
        want = np.array([
            y[0] * (y[1] + 1),
            1 / y[1],
            y[2] * (1 / y[1] + 1) ** -2,
            y[3] * (1 / y[1] + 1) ** -1,
        ])
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        back = mutate_yseed(mutate_yseed(YSeed(q, tuple(y)), 1), 1)
        worst = max(worst, float(np.max(np.abs(np.array(back.values) - y) / y)))
    report(2, "Y-seed engine: worked example at 100 random points + involution",
           worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_03_mutation_loop_validity():
    ok = True
    rng = np.random.default_rng(2)
    for dt in FAMILY_RANKS(10):
        loop = build_mutation_loop(dt)  # raises if Q != nu(Q'') already
        q_ref = loop.start.quiver
        for k in loop.sequence:
            q_ref = mutate_quiver(q_ref, k)
        ok = ok and permute_quiver(q_ref, loop.nu) == loop.start.quiver
        for _ in range(3):
            plus = list(loop.plus_set)
            minus = list(loop.minus_set)
            rng.shuffle(plus)
            rng.shuffle(minus)
            q = loop.start.quiver
            for k in plus + minus:
                q = mutate_quiver(q, k)
            ok = ok and q == q_ref
    report(3, "mutation loops: Q = nu(Q'') and phase order-independence, ranks <= 10", ok)


def test_criterion_04_periodicity():
    worst = 0.0
    slowest = 0.0
    rng = np.random.default_rng(3)
    for dt in FAMILY_RANKS(8):
        loop = build_mutation_loop(dt)
        _, _, period = group_constants(dt)
        start = time.perf_counter()
        for _ in range(20):
            y = rng.uniform(0.5, 2.0, loop.n_vertices)
            worst = max(worst, check_periodicity(loop, y, period))
        slowest = max(slowest, time.perf_counter() - start)
    report(4, "periodicity at P = t(level + h_dual), 20 random points per case, ranks <= 8",
           worst <= 1e-8 and slowest < 5.0, f"worst {worst:.2e}, slowest case {slowest:.2f}s")


def test_criterion_05_fixed_point():
    worst_fp = worst_newton = worst_printed = 0.0
    for dt in FAMILY_RANKS(8):
        ep = assemble_eta(dt)
        out = cluster_transform(ep.loop, ep.eta)
        worst_fp = max(worst_fp, float(np.max(np.abs(out - ep.eta) / np.abs(ep.eta))))
        newton = newton_fixed_point(ep.loop)
        worst_newton = max(worst_newton, float(np.max(np.abs(newton - ep.eta) / np.abs(ep.eta))))
    for dt in [DynkinType("B", n) for n in range(2, 9)] + [DynkinType("D", n) for n in range(4, 9)]:
        ys = y_from_q(closed_form_qtable(dt))
        for key, frac in closed_form_y_exact(dt).items():
            v = float(frac)
            worst_printed = max(worst_printed, abs(ys.value(*key) - v) / max(1.0, v))
    report(5, "fixed point: eta residual <= 1e-9, Newton agreement <= 1e-8, printed B/D values <= 1e-12",
           worst_fp <= 1e-9 and worst_newton <= 1e-8 and worst_printed <= 1e-12,
           f"eta {worst_fp:.2e}, newton {worst_newton:.2e}, printed {worst_printed:.2e}")


def test_criterion_06_jacobian():
    worst_fd = worst_pow = 0.0
    for dt in [DynkinType("A", 4), DynkinType("B", 4), DynkinType("B", 5),
               DynkinType("C", 4), DynkinType("C", 5), DynkinType("D", 6)]:
        ep = assemble_eta(dt)
        _, _, period = group_constants(dt)
        jac = loop_jacobian(ep.loop, ep.eta).matrix
        fd = finite_difference_jacobian(ep.loop, ep.eta, h=1e-6)
        worst_fd = max(worst_fd, float(np.max(np.abs(jac - fd))))
        power = np.linalg.matrix_power(jac, period)
        worst_pow = max(worst_pow, float(np.max(np.abs(power - np.eye(len(jac))))))
    report(6, "Jacobian: analytic vs central differences <= 1e-5, J^P = I <= 1e-7",
           worst_fd <= 1e-5 and worst_pow <= 1e-7, f"fd {worst_fd:.2e}, power {worst_pow:.2e}")


def quotient_exponents(dt):
    num, den = conjectured_charpoly(build_root_system(dt))
    return num - den


def test_criterion_07_type_b_charpoly():
    ok = True
    for n in range(2, 9):
        dt = DynkinType("B", n)
        rep = verify_conjecture(dt)
        expected = tuple(sorted(list(range(2, 4 * n + 1, 2)) + [2 * n + 1]))
        ok = (ok and rep.exponents.exponents == expected and rep.exponents.period == 4 * n + 2
              and quotient_exponents(dt) == Counter(expected) and rep.conjecture["pass"])
    report(7, "type B: N/D = (z+1)(z^{2n+1}-1)/(z-1), exponents {2,4..4n} + {2n+1}, n = 2..8", ok)


def test_criterion_08_type_d_charpoly():
    ok = True
    for n in range(4, 11):
        dt = DynkinType("D", n)
        rep = verify_conjecture(dt)
        expected = tuple(sorted([k for k in range(2, 2 * n, 2)] + [n]))
        ok = (ok and rep.exponents.exponents == expected and rep.exponents.period == 2 * n
              and quotient_exponents(dt) == Counter(expected) and rep.conjecture["pass"])
    report(8, "type D: N/D = (1+z)(z^n-1)/(z-1), exponents evens + {n}, n = 4..10", ok)


def test_criterion_09_conjecture_rhs():
    failed = []
    for dt in FAMILY_RANKS(10):
        num, den = conjectured_charpoly(build_root_system(dt))
        rep = build_case(dt).report
        if den - num or num - den != Counter(rep.exponents.exponents):
            failed.append(str(dt))
    report(9, "conjectured N/D: D contained in N and N - D = exponents of J (ranks <= 10)",
           not failed, f"failed {failed}" if failed else "")


def test_criterion_10_type_c():
    start = time.perf_counter()
    worst_blk = worst_red = worst_csol = worst_full = 0.0
    for n in range(3, 11):
        blocks = c_blocks(build_case(DynkinType("C", n)))
        red = verify_c_reduction(blocks, samples=16)
        worst_blk = max(worst_blk, red["offdiag"])
        worst_red = max(worst_red, red["k_reduction"], red["l_reduction"])
        worst_full = max(worst_full, red["full_det"])
        cs = verify_conjecture_csol(blocks, samples=32)
        worst_csol = max(worst_csol, cs["csol_k"], cs["csol_l"])
    ok_exps = True
    for n in (3, 4):
        rep = build_case(DynkinType("C", n)).report
        expected = tuple(sorted([2 * j for j in range(1, n + 3)] + list(range(5, 2 * n + 2))))
        ok_exps = ok_exps and rep.exponents.exponents == expected
    elapsed = time.perf_counter() - start
    report(10, "type C: blocks <= 1e-9, reductions and Csol products <= 1e-7 (n = 3..10), "
               "full determinant identity, exponent template",
           worst_blk <= 1e-9 and worst_red <= 1e-7 and worst_csol <= 1e-7
           and worst_full <= 1e-7 and ok_exps and elapsed < 30.0,
           f"blocks {worst_blk:.1e}, red {worst_red:.1e}, csol {worst_csol:.1e}, "
           f"det {worst_full:.1e}, {elapsed:.1f}s")


def test_criterion_11_eigenvector_lemmas():
    worst_vec = worst_rel = 0.0
    for fam in ("B", "D"):
        for n in (4, 6, 8):
            case = build_case(DynkinType(fam, n))
            summary = lemma_summary(case)
            worst_vec = max(worst_vec, summary["vectors"], summary["boundary"],
                            summary["exponent_multiset_match"])
            rel = relation_residuals(case)
            worst_rel = max(worst_rel, max(rel.values()))
    for n in (4, 6, 8):
        rel = relation_residuals(build_case(DynkinType("C", n)))
        worst_rel = max(worst_rel, max(rel.values()))
    report(11, "eigenvector lemmas (B/D n = 4,6,8) <= 1e-8 and relation rows <= 1e-9",
           worst_vec <= 1e-8 and worst_rel <= 1e-9,
           f"vectors {worst_vec:.2e}, relations {worst_rel:.2e}")


def test_criterion_12_q_and_y_systems():
    reading = calibrate_reading()
    logged = all(
        getattr(reading, f) in ("row", "col", "first/second", "second/first", "direct", "swapped")
        for f in ("cartan_convention", "case_direction", "ysys_order", "qy_order")
    )
    worst_closed = worst_qsys = worst_ysys = 0.0
    props_ok = True
    for dt in FAMILY_RANKS(10):
        computed = kr_qtable(dt)
        closed = closed_form_qtable(dt)
        for (i, m), v in closed.values.items():
            worst_closed = max(worst_closed, abs(computed.value(i, m) - v) / max(1.0, abs(v)))
        worst_qsys = max(worst_qsys, check_restricted_qsystem(computed))
        worst_ysys = max(worst_ysys, check_ysystem(y_solution(dt)))
    for dt in [DynkinType("B", 3), DynkinType("C", 3), DynkinType("D", 5), DynkinType("A", 4)]:
        props = check_qsol_properties(dt, vanish_terms=5)
        props_ok = props_ok and props["symmetry"] <= 1e-9 and props["growth"] == 0.0 \
            and props["vanishing"] <= 1e-9
    report(12, "KR closed forms <= 1e-9, Q-system <= 1e-9, solution properties, "
               "Y-system <= 1e-9 under the calibrated (logged) reading",
           logged and worst_closed <= 1e-9 and worst_qsys <= 1e-9
           and worst_ysys <= 1e-9 and props_ok,
           f"closed {worst_closed:.1e}, qsys {worst_qsys:.1e}, ysys {worst_ysys:.1e}, "
           f"reading {reading.cartan_convention}/{reading.case_direction}/"
           f"{reading.ysys_order}/{reading.qy_order}")
