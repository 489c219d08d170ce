"""Kirillov-Reshetikhin character sums specialized to the root of unity.

The q-dimension of an irreducible character is a product of sine ratios
over positive roots; KR characters at level ell are finite sums of such
terms. At level 2 the sums collapse to closed forms, which this module
also provides directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, Tuple

from .rootsys import DynkinType, RootSystem, build_root_system


def _sin_pi(x: Fraction) -> float:
    """sin(pi * x) for exact rational x, with the argument reduced first."""
    r = x - 2 * (x / 2).__floor__()  # x mod 2 in [0, 2)
    sign = 1.0
    if r >= 1:
        r -= 1
        sign = -1.0
    if r > Fraction(1, 2):
        r = 1 - r
    return sign * math.sin(math.pi * float(r))


def qdim(rs: RootSystem, level: int, weight: Tuple[int, ...]) -> float:
    """Specialized dimension of the irreducible with the given dominant weight.

    `weight` lists nonnegative coefficients in the fundamental-weight basis.
    """
    n = rs.type.rank
    if len(weight) != n:
        raise ValueError(f"weight needs {n} fundamental coordinates")
    denom_shift = level + rs.h_dual
    vec = list(rs.rho)
    for c, w in zip(weight, rs.fundamental_weights):
        if c:
            vec = [a + c * b for a, b in zip(vec, w)]
    out = 1.0
    for root in rs.positive_roots:
        num = rs.pairing(root.vec, tuple(vec)) / denom_shift
        den = rs.pairing(root.vec, rs.rho) / denom_shift
        s_den = _sin_pi(den)
        if abs(s_den) < 1e-12:
            raise ZeroDivisionError(f"q-dimension denominator vanishes at root {root.vec}")
        out *= _sin_pi(num) / s_den
    return out


def _kr_terms(dt: DynkinType, t_i, i: int, m: int):
    """Weight tuples (fundamental coordinates) of the KR character sum."""
    n = dt.rank
    if m == 0:
        return [tuple([0] * n)]
    terms = []
    if dt.family == "A" or (dt.family == "C" and i == n) or (dt.family == "D" and i >= n - 1):
        w = [0] * n
        w[i - 1] = m
        return [tuple(w)]
    if dt.family in ("B", "D"):
        # chain k_{i'}, k_{i'+2}, ..., k_{i-2}, k_i with
        # t_i * (k_{i'} + ... + k_{i-2}) + k_i = m; node 0 contributes no weight
        ip = i % 2
        interior = list(range(ip, i - 1, 2))
        ti = t_i[i - 1]
        for s in range(m // ti + 1):
            ki = m - ti * s
            for combo in _compositions(s, len(interior)):
                w = [0] * n
                for node, c in zip(interior, combo):
                    if node > 0:
                        w[node - 1] = c
                w[i - 1] += ki
                terms.append(tuple(w))
        return terms
    # C, 1 <= i <= n-1: k_1 + ... + k_i <= m with k_j = m*delta_{i,j} (mod 2)
    ranges = []
    for j in range(1, i + 1):
        par = m % 2 if j == i else 0
        ranges.append(range(par, m + 1, 2))
    for combo in iproduct(*ranges):
        if sum(combo) <= m:
            w = [0] * n
            for j, c in enumerate(combo):
                w[j] = c
            terms.append(tuple(w))
    return terms


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def kr_qchar(rs: RootSystem, level: int, i: int, m: int) -> float:
    """KR character value Q_m^{(i)} as a sum of specialized q-dimensions."""
    n = rs.type.rank
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} out of range 1..{n}")
    if m < 0:
        raise ValueError(f"negative m = {m}")
    return sum(qdim(rs, level, w) for w in _kr_terms(rs.type, rs.t_i, i, m))


@dataclass(frozen=True)
class QTable:
    """Restricted table {Q_m^{(i)} : 0 <= m <= t_i * level}."""

    type: DynkinType
    level: int
    t_i: Tuple[int, ...]
    values: Dict[Tuple[int, int], float]

    @property
    def rank(self):
        return self.type.rank

    def value(self, i: int, m: int) -> float:
        top = self.t_i[i - 1] * self.level
        if m == 0 or m == top:
            return 1.0
        return self.values[(i, m)]

    def interior_items(self):
        for i in range(1, self.rank + 1):
            for m in range(1, self.t_i[i - 1] * self.level):
                yield (i, m), self.value(i, m)


def kr_qtable(dt: DynkinType, level: int = 2) -> QTable:
    """Fill the restricted table by evaluating the KR character sums."""
    rs = build_root_system(dt)
    vals = {}
    for i in range(1, dt.rank + 1):
        for m in range(0, rs.t_i[i - 1] * level + 1):
            vals[(i, m)] = kr_qchar(rs, level, i, m)
    return QTable(dt, level, rs.t_i, vals)


def closed_form_qtable(dt: DynkinType, level: int = 2) -> QTable:
    """Level-2 closed forms of the restricted table for the classical families."""
    if level != 2:
        raise ValueError("closed forms are available at level 2 only")
    rs = build_root_system(dt)
    n = dt.rank
    vals: Dict[Tuple[int, int], float] = {}

    def s(x):
        return _sin_pi(Fraction(x) / (n + 3))

    if dt.family == "A":
        for i in range(1, n + 1):
            q = 1.0
            for j in range(1, i + 1):
                for k in range(1, n + 2 - i):
                    q *= s(j + k) / s(j + k - 1)
            vals[(i, 1)] = q
    elif dt.family == "B":
        for i in range(1, n):
            vals[(i, 1)] = float(i + 1)
        vals[(n, 1)] = vals[(n, 3)] = math.sqrt(2 * n + 1)
        vals[(n, 2)] = float(n + 1)
    elif dt.family == "D":
        for i in range(1, n - 1):
            vals[(i, 1)] = float(i + 1)
        vals[(n - 1, 1)] = vals[(n, 1)] = math.sqrt(n)
    else:  # C
        def sh(x):
            return _sin_pi(Fraction(x) / (2 * (n + 3)))  # s at half-integer arguments

        for i in range(1, n + 1):
            vals[(i, 1)] = sh(i + 1) * sh(i + 3) * s(i + 2) / (sh(1) * sh(3) * s(2))
        for i in range(1, n):
            vals[(i, 2)] = (
                2 * sum(s(j) * s(j + 1) * s(j + 2) for j in range(0, i + 1))
                + s(i + 1) * s(i + 2) * s(i + 3)
            ) / (s(1) * s(2) * s(3))
            vals[(i, 3)] = vals[(i, 1)]
    for i in range(1, n + 1):
        vals[(i, 0)] = vals[(i, rs.t_i[i - 1] * level)] = 1.0
    return QTable(dt, level, rs.t_i, vals)


def check_restricted_qsystem(qt: QTable) -> float:
    """Max relative residual of the level-restricted Q-system over the index set."""
    from .ysys import g_coefficient

    rs = build_root_system(qt.type)
    worst = 0.0
    pairs = list(qt.interior_items())
    for (i, m), q in pairs:
        prod = 1.0
        for (j, k), qjk in pairs:
            e = g_coefficient(rs, i, m, j, k)
            if e:
                prod *= qjk ** e
        lhs = q * q
        rhs = qt.value(i, m - 1) * qt.value(i, m + 1) + q * q * prod
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def check_qsol_properties(dt: DynkinType, level: int = 2, vanish_terms: int = None) -> Dict[str, float]:
    """Residuals for the three structural properties of the KR solution.

    symmetry:  Q_m = Q_{t_i*level - m} across each node's table;
    growth:    strict increase on the first half (reported as the worst
               margin violation, 0.0 when strictly increasing);
    vanishing: |Q_{t_i*level + j}| for 1 <= j <= t_i*h_dual - 1 (capped at
               `vanish_terms` values per node to keep enumeration small).
    """
    rs = build_root_system(dt)
    qt = kr_qtable(dt, level)
    sym = 0.0
    growth = 0.0
    for i in range(1, dt.rank + 1):
        top = rs.t_i[i - 1] * level
        for m in range(0, top + 1):
            sym = max(sym, abs(qt.value(i, m) - qt.value(i, top - m)))
        for m in range(0, top // 2):
            margin = qt.value(i, m + 1) - qt.value(i, m)
            if margin <= 0:
                growth = max(growth, -margin + 1e-300)
    vanish = 0.0
    for i in range(1, dt.rank + 1):
        top = rs.t_i[i - 1] * level
        jmax = rs.t_i[i - 1] * rs.h_dual - 1
        if vanish_terms is not None:
            jmax = min(jmax, vanish_terms)
        for j in range(1, jmax + 1):
            vanish = max(vanish, abs(kr_qchar(rs, level, i, top + j)))
    return {"symmetry": sym, "growth": growth, "vanishing": vanish}


def qtable_csv(qt: QTable) -> str:
    lines = ["i,m,Q"]
    for i in range(1, qt.rank + 1):
        for m in range(0, qt.t_i[i - 1] * qt.level + 1):
            lines.append(f"{i},{m},{qt.value(i, m)!r}")
    return "\n".join(lines) + "\n"
