"""Quivers without 1- and 2-cycles, quiver mutation, and the level-2 Dynkin quivers.

A level-2 Dynkin quiver is its arrows as (tail, head) pairs, each of multiplicity 1,
with vertex colors (black/white), phase signs (+ / - / 0 where 0 marks white vertices
mutated in neither phase), the folding permutation nu, and the (node, row) coordinate
of each vertex in the underlying index set. The signs state the orientation once: every
edge of a Dynkin chain points into its "+" end and every arrow inside B's and C's node
columns leaves it (`_path`); only the arrows that join the chains to B's column, D's
fork and C's p and q are listed. `Quiver` and `mutate_quiver` are the textbook dense
operation, which the tests compare with. A mutation loop carries the exchange matrix
b = a - a^T through its two phases (commuting mutations at pairwise unconnected vertices)
as its nonzero entries, so no N x N array is formed. Each phase reads its signed arrows
from the entries once, compiles them to a `LogProgram` on x = log y, which `yseed` runs,
and merges the entries of the mutated b from the same list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .errors import LoopPropertyError
from .rootsys import DynkinType, lie_constants


class Quiver:
    """Immutable arrow-multiplicity matrix without loops or 2-cycles."""

    __slots__ = ("arrows",)

    def __init__(self, arrows):
        a = np.array(arrows)
        if a.dtype != int:
            with np.errstate(invalid="ignore"):  # nan and inf fail the comparison below
                whole = a.astype(int)
            if not np.array_equal(whole, a):
                raise ValueError("arrow multiplicities must be integers")
            a = whole
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


@dataclass(frozen=True)
class LabeledQuiver:
    """Dynkin quiver with vertex colors, phase signs, folding nu, and coordinates.

    arrows lists each arrow once as a (tail, head) pair, sorted; every arrow
    has multiplicity 1. sign[v] is "+" for vertices mutated in the first phase,
    "-" for the second phase, and "0" for white vertices mutated in neither.
    hindex[v] = (i, m) locates the vertex as the m-th row of the i-th node
    column of the underlying diagram.
    """

    type: DynkinType
    arrows: Tuple[Tuple[int, int], ...]
    color: Tuple[str, ...]
    sign: Tuple[str, ...]
    nu: Tuple[int, ...]
    hindex: Tuple[Tuple[int, int], ...]

    @property
    def n_vertices(self):
        return len(self.sign)

    def vertex_of(self, i: int, m: int) -> int:
        return self.hindex.index((i, m))


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
    `batch` keeps the flat image index of the last batch width k that
    `yseed._run` saw, so an orbit or a finite-difference block of k points builds it once.
    """

    reads: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    batch: dict = field(default_factory=dict, repr=False)


def _compile_phase(entries, vertices: Tuple[int, ...], order: np.ndarray, name: str):
    """(program, entries'): the phase mutating the exchange matrix b at `vertices` as a LogProgram
    whose row i is vertex order[i] after the phase, and the mutated b. Both b's are their nonzero
    entries (i, j, b_ij), both signs, sorted by (i, j); the argument is left as it is. The vertices
    must be pairwise unconnected, so the mutations commute and none changes the arrows at another;
    only the arrows between them and the rest enter, each with its signed multiplicity b_vk: positive
    for v -> k, negative for k -> v. Off the phase, each path i -> k -> j through it adds b_ik b_kj to
    b_ij and takes it from b_ji, and the phase's entries change sign (Fomin-Zelevinsky, in O(entries))."""
    i, j, b = entries
    n = len(order)
    s = np.array(vertices, dtype=np.intp)
    where = np.full(n, -1, dtype=np.intp)  # each vertex's place in the phase
    where[s] = np.arange(len(s))
    at_row, at_col = where[i] >= 0, where[j] >= 0
    inside = np.flatnonzero(at_row & at_col & (b > 0))
    if len(inside):
        raise LoopPropertyError(
            f"phase {name} has an arrow {i[inside[0]]} -> {j[inside[0]]} inside it; "
            "its mutations do not commute"
        )
    rows, cols, e = i[at_col], where[j[at_col]], b[at_col]  # the arrows, by row, then by phase vertex
    arrow = np.arange(len(rows))
    out = e < 0
    diagonal = np.ones(n)
    diagonal[s] = -1.0
    # entries: the diagonals, a softplus per arrow, a linear term per arrow out of the phase
    row = np.concatenate((np.arange(n), rows, rows[out]))
    index = np.concatenate((np.arange(n), n + cols, s[cols[out]]))
    weights = np.concatenate((diagonal, e, -e[out])).astype(float)
    kind = np.repeat((0, 1, 2), (n, len(rows), int(out.sum())))
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    by = np.lexsort((kind, np.concatenate((np.full(n, -1), arrow, arrow[out])), position[row]))
    parts = (np.concatenate((np.arange(n), s)), index[by], weights[by], position[row[by]])
    for part in parts:
        part.setflags(write=False)
    into = np.flatnonzero(~out)  # the paths i -> k -> j: arrows into the phase, and out of it by k
    away = np.flatnonzero(out)[np.argsort(cols[out])]
    p, r = _pairs(cols[into], cols[away], len(s))
    tail, head, w = rows[into[p]], rows[away[r]], -e[into[p]] * e[away[r]]
    flipped = np.where(at_row | at_col, -b, b)
    if not len(w):  # no path through the phase (every phase of A and D): only signs change
        return LogProgram(*parts), (i, j, flipped)
    # merge the paths' terms into the entries by key i * n + j, and drop the entries they cancel
    keys, inverse = np.unique(np.concatenate((i * n + j, tail * n + head, head * n + tail)), return_inverse=True)
    total = np.bincount(inverse, np.concatenate((flipped, w, -w)))
    kept = total != 0
    return LogProgram(*parts), (*np.divmod(keys[kept], n), total[kept].astype(b.dtype))


def _stacked(first: LogProgram, second: LogProgram, read: np.ndarray, row: np.ndarray) -> LogProgram:
    """One LogProgram on 2N rows: `first` on rows 0..N-1 of the stacked point, and on rows
    N..2N-1 `second`, reading its vertex v at N + read[v] and writing its row i to N + row[i].
    Every entry keeps its weight, and each row its entries in order."""
    n = len(read)
    soft = len(first.reads) - n, len(second.reads) - n
    # where each program's z = [x; softplus(x_S)] sits in the stacked z
    first_z = np.concatenate((np.arange(n), 2 * n + np.arange(soft[0])))
    second_z = np.concatenate((n + read, 2 * n + soft[0] + np.arange(soft[1])))
    by = np.argsort(row[second.rows], kind="stable")
    parts = (np.concatenate((np.arange(2 * n), first.reads[n:], n + read[second.reads[n:]])),
             np.concatenate((first_z[first.index], second_z[second.index[by]])),
             np.concatenate((first.weights, second.weights[by])),
             np.concatenate((first.rows, n + row[second.rows[by]])))
    for part in parts:
        part.setflags(write=False)
    return LogProgram(*parts)


def _pairs(keys: np.ndarray, sorted_keys: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(p, r): every pair of positions with keys[p] == sorted_keys[r], for keys in [0, n);
    the pairs of one p run through its r in order."""
    sizes = np.bincount(sorted_keys, minlength=n)
    count = sizes[keys]
    p = np.repeat(np.arange(len(keys)), count)
    first = np.cumsum(sizes) - sizes
    return p, np.arange(len(p)) + np.repeat(first[keys] - (np.cumsum(count) - count), count)


@dataclass(frozen=True)
class MutationLoop:
    """The loop nu . mu_- . mu_+ on a labeled quiver.

    `programs` holds mu_+ and mu_- as LogPrograms on x = log y, compiled
    against the exchange matrices they act on, with nu folded into mu_-'s row order;
    build_mutation_loop fills it by `_compile_loop`. It takes no part in
    equality or hashing, since the start quiver, the vertex sets and nu
    determine it: a loop made with another of those (say by `dataclasses.replace`)
    needs programs compiled for it by `_compile_loop`. The inverse loop is read off the
    same programs, P1 and P2 (nu folded in), by y -> 1/y duality,
    gamma^-1(x) = -P1(nu^-1(P2(nu^-1(-x)))), and `half_orbit_programs` stacks it beside the loop.
    """

    start: LabeledQuiver
    plus_set: Tuple[int, ...]
    minus_set: Tuple[int, ...]
    nu: Tuple[int, ...]
    programs: Tuple[LogProgram, ...] = field(compare=False, repr=False)

    @property
    def n_vertices(self):
        return self.start.n_vertices

    @cached_property
    def jacobian_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, flat), the terms of L = J_- J_+ on x = log y, made once per loop.
        Entry a[p] of mu_-'s program reads some vertex k, entry b[p] of mu_+'s program
        is in row k, and the product of their Jacobian entries adds to L.flat[flat[p]].
        Row k of mu_+'s program is vertex k, the order `_compile_loop` gives it."""
        plus, minus = self.programs
        n = self.n_vertices
        a, b = _pairs(minus.reads[minus.index], plus.rows, n)
        return a, b, minus.rows[a] * n + plus.reads[plus.index[b]]

    @cached_property
    def half_orbit_programs(self) -> Tuple[LogProgram, LogProgram]:
        """Two LogPrograms on the 2N rows of a stacked point [x; u] whose run, one after the
        other, takes x to gamma(x) and u = -x' to -gamma^-1(x'), with gamma = nu . mu_- . mu_+
        the loop on x = log y; made once per loop from `programs`, with no compile.

        Mutation at S reads only the arrows between S and the rest and negates them, and
        x -> -x (y -> 1/y) conjugates mu_S on b to mu_S on -b, so mu_S on mu_S(b) is
        x -> -mu_S(-x) on b, and gamma^-1(x) = -P1(nu^-1(P2(nu^-1(-x)))) with P1, P2 the
        two `programs` and (nu^-1 z)_j = z[nu[j]]. The first block program is P1 on the
        first N rows and nu^-1 . P2 . nu^-1 on the last N; the second is P2 and P1."""
        plus, minus = self.programs
        nu = np.asarray(self.nu)
        same = np.arange(len(nu))
        return _stacked(plus, minus, nu, np.argsort(nu)), _stacked(minus, plus, same, same)

    @cached_property
    def half_turn(self) -> Tuple[int, np.ndarray]:
        """(steps, sigma), gamma^steps(y) = y[sigma]: at even P = t(2 + h_dual), P / 2 and v at (i, m) -> the
        vertex at (omega(i), 2 t_i - m) (t_i = 1 past the rank; omega reverses odd A and swaps odd D's fork),
        by Y^(a)_m(u + h_dual + 2) = Y^(omega(a))_(2 t_a - m)(u) (Inoue-Iyama-Kuniba-Nakanishi-Suzuki 2010;
        B, C: Inoue-Iyama-Keller-Kuniba-Nakanishi 2013); at odd P (A_n, n even; half a loop), P and id."""
        t_i, t, h_dual = lie_constants(self.start.type)
        n, family, period = len(t_i), self.start.type.family, t * (2 + h_dual)
        omega = {} if n % 2 == 0 or family in "BC" else \
            {n - 1: n, n: n - 1} if family == "D" else {i: n + 1 - i for i in range(1, n + 1)}
        vertex = {label: v for v, label in enumerate(self.start.hindex)}
        sigma = np.array([vertex[omega.get(i, i), 2 * (t_i[i - 1] if i <= n else 1) - m]
                          for i, m in self.start.hindex], dtype=np.intp)
        sigma.setflags(write=False)
        return (period if period % 2 else period // 2), sigma


def _path(vertices: Sequence[int], sign: Sequence[str]):
    """The edges between consecutive vertices of a chain as (tail, head) pairs, each pointing
    into its "+" end: the first phase mutates the sinks of every chain. Reversed, each points
    out of its "+" end, as inside B's and C's node columns."""
    return [(u, v) if sign[v] == "+" else (v, u) for u, v in zip(vertices, vertices[1:])]


def _build_A(n):
    sign = tuple("+" if s % 2 == 0 else "-" for s in range(1, n + 1))
    return _path(range(n), sign), ("black",) * n, sign, tuple(range(n)), tuple((s, 1) for s in range(1, n + 1))


def _build_D(n):
    # the path of nodes 1..n-1, and the fork's other leg n -> n-2
    sign = tuple("+" if s % 2 == n % 2 else "-" for s in range(1, n - 1)) + ("-", "-")
    arrows = _path(range(n - 1), sign) + [(n - 1, n - 3)]
    return arrows, ("black",) * n, sign, tuple(range(n)), tuple((s, 1) for s in range(1, n + 1))


def _build_B(n):
    # left wing nodes 1..n-1, the three-vertex column c1, c2, c3 of the short node n,
    # right wing nodes n+1..2n-1; nu mirrors node s <-> 2n-s and fixes the column.
    N = 2 * n + 1
    c1, c2, c3 = n - 1, n, n + 1
    sign = tuple("+" if s % 2 == n % 2 else "0" for s in range(1, n)) + ("+", "-", "+") + \
        tuple("+" if j % 2 != n % 2 else "0" for j in range(n + 1, 2 * n))
    arrows = _path(range(n - 1), sign) + _path(range(n + 2, N), sign) + \
        [(v, u) for u, v in _path((c1, c2, c3), sign)] + \
        [(n - 2, c1), (n - 2, c3), (c2, n - 2), (c2, n + 2)]  # n - 2, n + 2: the wings' inner ends
    nu = list(range(N - 1, -1, -1))
    nu[c1], nu[c3] = c1, c3
    color = ("white",) * (n - 1) + ("black",) * 3 + ("white",) * (n - 1)
    hindex = tuple((s, 1) for s in range(1, n)) + ((n, 1), (n, 2), (n, 3)) + \
        tuple((j, 1) for j in range(n + 1, 2 * n))
    return arrows, color, sign, tuple(nu), hindex


def _build_C(n):
    # columns (top, mid, bot) of three black vertices for nodes 1..n-1, then the two
    # white vertices p (+) and q (0); nu swaps p and q.
    N = 3 * n - 1
    p, q = N - 2, N - 1
    columns = (("+", "-", "+"), ("-", "+", "-"))  # node n-1's column, then alternating
    sign = tuple(s for i in range(1, n) for s in columns[(n - 1 - i) % 2]) + ("+", "0")
    arrows = [pair for row in range(3) for pair in _path(range(row, p, 3), sign)]
    arrows += [(v, u) for top in range(0, p, 3) for u, v in _path(range(top, top + 3), sign)]
    arrows += [(p - 2, p), (p - 2, q), (q, p - 3), (q, p - 1)]  # node n-1's column is p-3..p-1
    nu = list(range(N))
    nu[p], nu[q] = q, p
    hindex = tuple((i, m) for i in range(1, n) for m in (1, 2, 3)) + ((n, 1), (n + 1, 1))
    return arrows, ("black",) * (N - 2) + ("white", "white"), sign, tuple(nu), hindex


def build_dynkin_quiver(dt: DynkinType) -> LabeledQuiver:
    """Level-2 Dynkin quiver of a classical type, with labels and folding."""
    builder = {"A": _build_A, "B": _build_B, "C": _build_C, "D": _build_D}[dt.family]
    arrows, color, sign, nu, hindex = builder(dt.rank)
    return LabeledQuiver(dt, tuple(sorted(arrows)), color, sign, nu, hindex)


def _compile_loop(entries, plus, minus, nu, name: str):
    """(programs, entries'): the programs of nu . mu_- . mu_+ on the exchange matrix with
    these entries, and the entries that mu_- . mu_+ leave. mu_+'s rows are the vertices in
    order; row i of mu_-'s is vertex nu^-1(i), so its image is relabelled."""
    plus_program, entries = _compile_phase(entries, plus, np.arange(len(nu)), f"mu_+ of {name}")
    minus_program, entries = _compile_phase(entries, minus, np.argsort(nu), f"mu_- of {name}")
    return (plus_program, minus_program), entries


def build_mutation_loop(dt: DynkinType) -> MutationLoop:
    """Mutation loop (mu_+, mu_-, nu) on the Dynkin quiver, with both phases compiled.

    Raises LoopPropertyError if a phase has an arrow inside it or the quiver
    does not return to its start.
    """
    lq = build_dynkin_quiver(dt)
    n = lq.n_vertices
    plus = tuple(v for v in range(n) if lq.sign[v] == "+")
    minus = tuple(v for v in range(n) if lq.sign[v] == "-")
    tail, head = np.array(lq.arrows, dtype=np.intp).reshape(-1, 2).T
    i, j, e = np.concatenate((tail, head)), np.concatenate((head, tail)), np.repeat((1, -1), len(tail))
    by = np.argsort(i * n + j)
    programs, (i2, j2, e2) = _compile_loop((i[by], j[by], e[by]), plus, minus, lq.nu, str(dt))
    back = np.argsort(lq.nu)  # nu(b') is the start b iff b' is b relabelled by nu^-1
    key = back[i] * n + back[j]
    by = np.argsort(key)
    if not (np.array_equal(key[by], i2 * n + j2) and np.array_equal(e[by], e2)):
        raise LoopPropertyError(
            f"{dt}: quiver does not return to its start after mu_+, mu_-, nu; "
            "the quiver encoding is wrong"
        )
    return MutationLoop(lq, plus, minus, lq.nu, programs)


def dump_quiver(lq: LabeledQuiver) -> str:
    """Textual dump: one line per arrow "i -> j xM", then label lines."""
    lines = [f"{i} -> {j} x1" for i, j in lq.arrows]
    for v in range(lq.n_vertices):
        i, m = lq.hindex[v]
        lines.append(f"vertex {v}: y_{m}^({i}) {lq.color[v]} sign={lq.sign[v]} nu={lq.nu[v]}")
    return "\n".join(lines) + "\n"
