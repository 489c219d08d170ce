"""Quivers without 1- and 2-cycles, quiver mutation, and the level-2 Dynkin quivers.

A quiver on N vertices is stored as an N x N nonnegative integer matrix
whose (i, j) entry counts the arrows i -> j. The level-2 Dynkin quiver of
each classical family is encoded together with vertex colors (black/white),
phase signs (+ / - / 0 where 0 marks white vertices mutated in neither
phase), the folding permutation nu, and the (node, row) coordinate of each
vertex in the underlying index set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .errors import LoopPropertyError
from .rootsys import DynkinType


class Quiver:
    """Immutable arrow-multiplicity matrix without loops or 2-cycles."""

    __slots__ = ("arrows",)

    def __init__(self, arrows):
        a = np.array(arrows, dtype=int)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("arrow matrix must be square")
        if (a < 0).any():
            raise ValueError("arrow multiplicities must be nonnegative")
        if np.diagonal(a).any():
            raise ValueError("quiver has a 1-cycle (loop)")
        if np.minimum(a, a.T).any():
            raise ValueError("quiver has a 2-cycle")
        a.setflags(write=False)
        object.__setattr__(self, "arrows", a)

    def __setattr__(self, *_):
        raise AttributeError("Quiver is immutable")

    @property
    def n_vertices(self) -> int:
        return self.arrows.shape[0]

    def __eq__(self, other):
        return isinstance(other, Quiver) and np.array_equal(self.arrows, other.arrows)

    def __hash__(self):
        return hash(self.arrows.tobytes())

    def __repr__(self):
        return f"Quiver(n={self.n_vertices}, arrows={int(self.arrows.sum())})"


def mutate_quiver(q: Quiver, k: int) -> Quiver:
    """Mutate at vertex k: compose paths through k, reverse at k, cancel 2-cycles."""
    a = q.arrows
    n = a.shape[0]
    if not 0 <= k < n:
        raise IndexError(f"vertex {k} out of range for quiver on {n} vertices")
    b = a + np.outer(a[:, k], a[k, :])
    b[k, :] = a[:, k]
    b[:, k] = a[k, :]
    b -= np.minimum(b, b.T)
    return Quiver(b)


def permute_quiver(q: Quiver, nu: Sequence[int]) -> Quiver:
    """Relabel vertices: nu(Q)_{i,j} = Q_{nu^-1(i), nu^-1(j)}."""
    nu = list(nu)
    if sorted(nu) != list(range(q.n_vertices)):
        raise ValueError("nu is not a bijection on the vertex set")
    b = np.zeros_like(q.arrows)
    b[np.ix_(nu, nu)] = q.arrows
    return Quiver(b)


@dataclass(frozen=True)
class LabeledQuiver:
    """Dynkin quiver with vertex colors, phase signs, folding nu, and coordinates.

    sign[v] is "+" for vertices mutated in the first phase, "-" for the
    second phase, and "0" for white vertices mutated in neither.
    hindex[v] = (i, m) locates the vertex as the m-th row of the i-th node
    column of the underlying diagram.
    """

    type: DynkinType
    quiver: Quiver
    color: Tuple[str, ...]
    sign: Tuple[str, ...]
    nu: Tuple[int, ...]
    hindex: Tuple[Tuple[int, int], ...]

    @property
    def n_vertices(self):
        return self.quiver.n_vertices

    def vertex_of(self, i: int, m: int) -> int:
        return self.hindex.index((i, m))


@dataclass(frozen=True, eq=False)
class Phase:
    """One phase of a mutation loop, compiled once.

    The phase mutates at the pairwise unconnected vertices `vertices` of the
    quiver it acts on, so its mutations commute and none changes the arrows
    at another. Arrow e joins rows[e] to vertices[cols[e]], with signed
    multiplicity exponents[e]: positive for rows[e] -> vertex, negative for
    vertex -> rows[e]. The arrows are sorted by row, then by vertex. Values
    run only as the phase's `yseed.LogProgram`, on x = log y.
    """

    vertices: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    exponents: np.ndarray


def _compile_phase(q: Quiver, vertices: Tuple[int, ...], name: str) -> Phase:
    s = np.array(vertices, dtype=np.intp)
    a = q.arrows
    inside = a[np.ix_(s, s)]
    if inside.any():
        i, j = np.argwhere(inside)[0]
        raise LoopPropertyError(
            f"phase {name} has an arrow {s[i]} -> {s[j]} inside it; "
            "its mutations do not commute"
        )
    signed = a[:, s] - a[s, :].T
    rows, cols = np.nonzero(signed)
    parts = (s, rows, cols, signed[rows, cols])
    for part in parts:
        part.setflags(write=False)
    return Phase(*parts)


def _mutate_phase(q: Quiver, phase: Phase) -> Quiver:
    """Mutate q at every vertex k of the phase at once. On b = a - a^T, off the phase,
    b_ij gains sum_k [b_ik]+ [b_kj]+ - [-b_ik]+ [-b_kj]+ = (U - U^T)_ij with U = [c]+ [-c]+^T
    for c = b[t, vertices], t the rows joined to the phase; its rows and columns change sign."""
    s, t = phase.vertices, np.flatnonzero(np.bincount(phase.rows))
    b = q.arrows - q.arrows.T
    c = b[np.ix_(t, s)]
    u = np.maximum(c, 0) @ np.maximum(-c, 0).T
    b[np.ix_(t, t)] += u - u.T
    b[s] *= -1
    b[:, s] *= -1
    return Quiver(np.maximum(b, 0))


@dataclass(frozen=True)
class MutationLoop:
    """The loop nu . mu_- . mu_+ on a labeled quiver.

    `phases` holds mu_+ and mu_- compiled against the quivers they act on;
    build_mutation_loop fills it. It takes no part in equality or hashing,
    since the start quiver and the vertex sets determine it. `programs` holds
    the same two phases on x = log y, with nu folded into mu_-'s row order,
    and `jacobian_pairs` the pairs of their entries that meet in J_- J_+.
    """

    start: LabeledQuiver
    plus_set: Tuple[int, ...]
    minus_set: Tuple[int, ...]
    nu: Tuple[int, ...]
    phases: Tuple[Phase, ...] = field(default=(), compare=False, repr=False)

    @property
    def sequence(self):
        return self.plus_set + self.minus_set

    @property
    def n_vertices(self):
        return self.start.n_vertices

    @cached_property
    def back(self) -> np.ndarray:
        """nu^-1 as an index array, made once per loop: v[back] is v relabelled by nu."""
        return np.argsort(self.nu)

    @cached_property
    def programs(self):
        """mu_+ and mu_- as `yseed.LogProgram`s, made once per loop by
        `yseed.compile_log_programs`."""
        from .yseed import compile_log_programs  # yseed imports this module

        return compile_log_programs(self)

    @cached_property
    def jacobian_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs of program entries that meet in J_- J_+, made once per loop by
        `yseed.log_jacobian_pairs`."""
        from .yseed import log_jacobian_pairs

        return log_jacobian_pairs(self)


def _build_A(n):
    arrows = np.zeros((n, n), dtype=int)
    for s in range(1, n + 1):
        if s % 2 == 1:
            for t in (s - 1, s + 1):
                if 1 <= t <= n:
                    arrows[s - 1, t - 1] = 1
    color = ("black",) * n
    sign = tuple("+" if s % 2 == 0 else "-" for s in range(1, n + 1))
    nu = tuple(range(n))
    hindex = tuple((s, 1) for s in range(1, n + 1))
    return arrows, color, sign, nu, hindex


def _build_D(n):
    arrows = np.zeros((n, n), dtype=int)
    for s in range(1, n - 1):
        if s % 2 == (n - 1) % 2:
            for t in (s - 1, s + 1):
                if 1 <= t <= n - 2:
                    arrows[s - 1, t - 1] = 1
    arrows[n - 2, n - 3] = 1
    arrows[n - 1, n - 3] = 1
    color = ("black",) * n
    sign = ["+" if s % 2 == n % 2 else "-" for s in range(1, n - 1)] + ["-", "-"]
    nu = tuple(range(n))
    hindex = tuple((s, 1) for s in range(1, n + 1))
    return arrows, color, tuple(sign), nu, hindex


def _build_B(n):
    # left wing nodes 1..n-1, the three-vertex column of the short node n,
    # right wing nodes n+1..2n-1; nu mirrors node s <-> 2n-s.
    N = 2 * n + 1
    arrows = np.zeros((N, N), dtype=int)
    c1, c2, c3 = n - 1, n, n + 1

    def left(s):
        return s - 1

    def right(j):
        return j + 1

    for s in range(1, n):
        if s % 2 == (n - 1) % 2:
            for t in (s - 1, s + 1):
                if 1 <= t <= n - 1:
                    arrows[left(s), left(t)] = 1
    arrows[left(n - 1), c1] = 1
    arrows[left(n - 1), c3] = 1
    arrows[c1, c2] = 1
    arrows[c3, c2] = 1
    arrows[c2, left(n - 1)] = 1
    arrows[c2, right(n + 1)] = 1
    for j in range(n + 1, 2 * n):
        if j % 2 == n % 2:
            for t in (j - 1, j + 1):
                if n + 1 <= t <= 2 * n - 1:
                    arrows[right(j), right(t)] = 1

    color = ["white"] * (n - 1) + ["black"] * 3 + ["white"] * (n - 1)
    sign = [""] * N
    for s in range(1, n):
        sign[left(s)] = "+" if s % 2 == n % 2 else "0"
    sign[c1] = sign[c3] = "+"
    sign[c2] = "-"
    for j in range(n + 1, 2 * n):
        sign[right(j)] = "+" if j % 2 == (n + 1) % 2 else "0"
    nu = list(range(N))
    for s in range(1, n):
        nu[left(s)] = right(2 * n - s)
        nu[right(2 * n - s)] = left(s)
    hindex = [(s, 1) for s in range(1, n)] + [(n, 1), (n, 2), (n, 3)] + \
        [(j, 1) for j in range(n + 1, 2 * n)]
    return arrows, tuple(color), tuple(sign), tuple(nu), tuple(hindex)


def _build_C(n):
    # columns of three black vertices for nodes 1..n-1, then the two white
    # vertices p (+) and q (-); nu swaps p and q.
    N = 3 * n - 1
    arrows = np.zeros((N, N), dtype=int)

    def top(i):
        return 3 * (i - 1)

    def mid(i):
        return 3 * (i - 1) + 1

    def bot(i):
        return 3 * (i - 1) + 2

    p, q = 3 * n - 3, 3 * n - 2

    def type_o(i):
        return i % 2 == (n - 1) % 2

    for i in range(1, n):
        if type_o(i):
            arrows[top(i), mid(i)] = 1
            arrows[bot(i), mid(i)] = 1
            for t in (i - 1, i + 1):
                if 1 <= t <= n - 1:
                    arrows[mid(i), mid(t)] = 1
        else:
            arrows[mid(i), top(i)] = 1
            arrows[mid(i), bot(i)] = 1
            for t in (i - 1, i + 1):
                if 1 <= t <= n - 1:
                    arrows[top(i), top(t)] = 1
                    arrows[bot(i), bot(t)] = 1
    arrows[mid(n - 1), p] = 1
    arrows[mid(n - 1), q] = 1
    arrows[q, top(n - 1)] = 1
    arrows[q, bot(n - 1)] = 1

    color = ["black"] * (3 * n - 3) + ["white", "white"]
    sign = [""] * N
    for i in range(1, n):
        if type_o(i):
            sign[top(i)] = sign[bot(i)] = "+"
            sign[mid(i)] = "-"
        else:
            sign[top(i)] = sign[bot(i)] = "-"
            sign[mid(i)] = "+"
    sign[p] = "+"
    sign[q] = "0"
    nu = list(range(N))
    nu[p], nu[q] = q, p
    hindex = []
    for i in range(1, n):
        hindex += [(i, 1), (i, 2), (i, 3)]
    hindex += [(n, 1), (n + 1, 1)]
    return arrows, tuple(color), tuple(sign), tuple(nu), tuple(hindex)


def build_dynkin_quiver(dt: DynkinType) -> LabeledQuiver:
    """Level-2 Dynkin quiver of a classical type, with labels and folding."""
    builder = {"A": _build_A, "B": _build_B, "C": _build_C, "D": _build_D}[dt.family]
    arrows, color, sign, nu, hindex = builder(dt.rank)
    return LabeledQuiver(dt, Quiver(arrows), color, sign, nu, hindex)


def build_mutation_loop(dt: DynkinType) -> MutationLoop:
    """Mutation loop (mu_+, mu_-, nu) on the Dynkin quiver, with both phases compiled.

    Raises LoopPropertyError if a phase has an arrow inside it or the quiver
    does not return to its start.
    """
    lq = build_dynkin_quiver(dt)
    plus = tuple(v for v in range(lq.n_vertices) if lq.sign[v] == "+")
    minus = tuple(v for v in range(lq.n_vertices) if lq.sign[v] == "-")
    q = lq.quiver
    phases = []
    for name, vertices in (("+", plus), ("-", minus)):
        phases.append(_compile_phase(q, vertices, f"mu_{name} of {dt}"))
        q = _mutate_phase(q, phases[-1])
    if permute_quiver(q, lq.nu) != lq.quiver:
        raise LoopPropertyError(
            f"{dt}: quiver does not return to its start after mu_+, mu_-, nu; "
            "the quiver encoding is wrong"
        )
    return MutationLoop(lq, plus, minus, lq.nu, tuple(phases))


def dump_quiver(lq: LabeledQuiver) -> str:
    """Textual dump: one line per arrow "i -> j xM", then label lines."""
    lines = []
    a = lq.quiver.arrows
    for i in range(lq.n_vertices):
        for j in range(lq.n_vertices):
            if a[i, j]:
                lines.append(f"{i} -> {j} x{a[i, j]}")
    for v in range(lq.n_vertices):
        i, m = lq.hindex[v]
        lines.append(f"vertex {v}: y_{m}^({i}) {lq.color[v]} sign={lq.sign[v]} nu={lq.nu[v]}")
    return "\n".join(lines) + "\n"
