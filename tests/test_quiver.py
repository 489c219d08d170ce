import ast
import functools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from yexp import quiver
from yexp.errors import LoopPropertyError
from yexp.quiver import (LabeledQuiver, MutationLoop, Quiver, build_dynkin_quiver,
                         build_mutation_loop, dump_quiver, mutate_quiver)
from yexp.rootsys import DynkinType

from oracles import dense_quiver, exchange_entries, permute_quiver


def arrows_of(pairs, n):
    a = np.zeros((n, n), dtype=int)
    for i, j, m in pairs:
        a[i, j] = m
    return Quiver(a)


def test_worked_mutation_example():
    # 1->2, 2->3 (x2), 2->4, 4->1; mutate at vertex 2
    q = arrows_of([(0, 1, 1), (1, 2, 2), (1, 3, 1), (3, 0, 1)], 4)
    out = mutate_quiver(q, 1)
    expected = arrows_of([(1, 0, 1), (0, 2, 2), (2, 1, 2), (3, 1, 1)], 4)
    assert out == expected


def test_isolated_vertex_noop():
    q = arrows_of([(0, 1, 3)], 3)
    assert mutate_quiver(q, 2) == q


def _random_quiver(rng, n, max_mult=3):
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            m = rng.integers(0, max_mult + 1)
            if m:
                if rng.integers(0, 2):
                    a[i, j] = m
                else:
                    a[j, i] = m
    return Quiver(a)


def test_mutation_involution_brute():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        q = _random_quiver(rng, n)
        k = int(rng.integers(0, n))
        assert mutate_quiver(mutate_quiver(q, k), k) == q


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver([[1, 0], [0, 0]])  # loop
    with pytest.raises(ValueError):
        Quiver([[0, 1], [1, 0]])  # 2-cycle
    with pytest.raises(IndexError):
        mutate_quiver(arrows_of([], 2), 5)


@pytest.mark.parametrize("multiplicity", [0.5, 1.7, -0.5, np.nan, np.inf])
def test_non_integral_multiplicities_are_rejected(multiplicity):
    with pytest.raises(ValueError, match="integers"):
        Quiver([[0, multiplicity], [0, 0]])


def test_integral_multiplicities_of_any_dtype_are_one_quiver():
    one = Quiver([[0, 1], [0, 0]])
    for arrows in ([[0, 1.0], [0, 0]], np.array([[0, 1], [0, 0]], dtype=np.int32),
                   np.array([[False, True], [False, False]])):
        q = Quiver(arrows)
        assert q == one and hash(q) == hash(one) and q.arrows.dtype == one.arrows.dtype
    given = np.array([[0, 2], [0, 0]])
    Quiver(given)
    assert given.flags.writeable  # the quiver froze its own copy


def test_permute_quiver():
    q = arrows_of([(0, 1, 1)], 2)
    assert permute_quiver(q, (0, 1)) == q
    assert permute_quiver(q, (1, 0)) == arrows_of([(1, 0, 1)], 2)
    with pytest.raises(ValueError):
        permute_quiver(q, (0, 0))
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        q = _random_quiver(rng, n)
        nu = list(rng.permutation(n))
        inv = [0] * n
        for i, v in enumerate(nu):
            inv[v] = i
        assert permute_quiver(permute_quiver(q, nu), inv) == q


VERTEX_COUNTS = {
    "A": lambda n: n,
    "B": lambda n: 2 * n + 1,
    "C": lambda n: 3 * n - 1,
    "D": lambda n: n,
}

ALL_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for r in range(lo, 13)]


@pytest.mark.parametrize("dt", ALL_TYPES, ids=str)
def test_dynkin_quiver_shape(dt):
    lq = build_dynkin_quiver(dt)
    assert lq.n_vertices == VERTEX_COUNTS[dt.family](dt.rank)
    assert list(lq.arrows) == sorted(set(lq.arrows))  # each arrow once, in (tail, head) order
    nu = lq.nu
    assert sorted(nu) == list(range(lq.n_vertices))
    assert all(nu[nu[v]] == v for v in range(lq.n_vertices))
    if dt.family in ("A", "D"):
        assert nu == tuple(range(lq.n_vertices))
        assert all(c == "black" for c in lq.color)
        assert all(s in "+-" for s in lq.sign)
    else:
        # white "0" vertices exist and are never mutated
        assert "0" in lq.sign


LOOP_TYPES = [DynkinType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
              for r in range(lo, 41)]


@functools.cache
def vertex_chain(dt, phases):
    """The quiver that the single-vertex mutate_quiver chain reaches on dt's Dynkin quiver
    after its first `phases` phases (mu_+, then mu_-), one vertex at a time in increasing
    order. Cached, since the tests of quiver and of yseed both read it."""
    lq = build_dynkin_quiver(dt)
    if phases == 0:
        return dense_quiver(lq)
    q = vertex_chain(dt, phases - 1)
    for k in (v for v in range(lq.n_vertices) if lq.sign[v] == "+-"[phases - 1]):
        q = mutate_quiver(q, k)
    return q


def assert_phases_match_vertex_chain(loop):
    """Each compiled program's softplus entries list exactly the arrows between its
    phase and the rest of the quiver that the single-vertex mutate_quiver chain has
    reached, each in its vertex's row, and the phase's one-step update equals
    mutate_quiver at each of its vertices in turn, entry for entry."""
    n = loop.n_vertices
    chain = [vertex_chain(loop.start.type, phases) for phases in range(3)]
    assert chain[0] == dense_quiver(loop.start)
    for q, after, vertices, program, order in zip(chain[:2], chain[1:], (loop.plus_set, loop.minus_set),
                                                  loop.programs, (np.arange(n), np.argsort(loop.nu)), strict=True):
        a = q.arrows
        s = list(vertices)
        assert not a[np.ix_(s, s)].any()
        assert program.reads.tolist() == list(range(n)) + s
        soft = program.index >= n
        signed = np.zeros((n, len(s)), dtype=int)
        signed[order[program.rows[soft]], program.index[soft] - n] = program.weights[soft]
        assert np.array_equal(signed, a[:, s] - a[s, :].T)
        _, entries = quiver._compile_phase(exchange_entries(a - a.T), vertices, order, "one phase")
        assert np.array_equal(np.stack(entries), np.stack(exchange_entries(after.arrows - after.arrows.T)))
    assert permute_quiver(chain[2], loop.nu) == chain[0]


@pytest.mark.parametrize("dt", LOOP_TYPES, ids=str)
def test_mutation_loop_property(dt):
    loop = build_mutation_loop(dt)
    assert set(loop.plus_set).isdisjoint(loop.minus_set)
    assert_phases_match_vertex_chain(loop)


@pytest.mark.parametrize("dt", [DynkinType("B", 256), DynkinType("C", 127), DynkinType("D", 256)], ids=str)
def test_phase_updates_match_vertex_chain_at_high_rank(dt):
    assert_phases_match_vertex_chain(build_mutation_loop(dt))


@pytest.mark.parametrize("sign, message, compiled", [
    (("+", "+", "-", "-"), "mu_+ of A4 has an arrow 0 -> 1", 1),
    (("+", "-", "-", "0"), "mu_- of A4 has an arrow 2 -> 1", 2),
], ids=["plus", "minus"])
def test_phase_with_an_inner_arrow_is_rejected(sign, message, compiled, monkeypatch):
    # A4 is 0 -> 1 <- 2 -> 3; {0, 1} is joined in the start quiver, and {1, 2}
    # is still joined after mutating at 0. The phase is rejected with its entries unchanged.
    real = build_dynkin_quiver(DynkinType("A", 4))
    bad = LabeledQuiver(real.type, real.arrows, real.color, sign, real.nu, real.hindex)
    monkeypatch.setattr(quiver, "build_dynkin_quiver", lambda dt: bad)
    seen = []
    compile_phase = quiver._compile_phase

    def spy(entries, *args):
        seen.append((entries, np.stack(entries)))
        return compile_phase(entries, *args)

    monkeypatch.setattr(quiver, "_compile_phase", spy)
    with pytest.raises(LoopPropertyError, match=re.escape(message)):
        build_mutation_loop(DynkinType("A", 4))
    assert len(seen) == compiled
    entries, before = seen[-1]
    assert np.array_equal(np.stack(entries), before)


@pytest.mark.parametrize("dt", [DynkinType("A", 5), DynkinType("B", 4), DynkinType("C", 5), DynkinType("D", 6)], ids=str)
def test_a_loop_build_constructs_no_quiver(dt, monkeypatch):
    # the builders give arrow pairs; both phases and the loop check work on the exchange matrix's entries
    made = []
    init = Quiver.__init__
    monkeypatch.setattr(Quiver, "__init__", lambda self, arrows: made.append(1) or init(self, arrows))
    build_mutation_loop(dt)
    assert not made


def _peak_bytes(build):
    """The tracemalloc peak while `build()` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_loop_build_or_dump_allocates_n_by_n():
    # one int64 N x N array is 18 MiB at C512 (N = 1,535) and 1.1 GiB at C4096 (N = 12,287)
    assert _peak_bytes(lambda: build_mutation_loop(DynkinType("C", 512))) < 8 * 2 ** 20
    assert _peak_bytes(lambda: dump_quiver(build_dynkin_quiver(DynkinType("C", 4096)))) < 16 * 2 ** 20


def _phase_update(q, vertices):
    """The exchange matrix's entries, stacked, after compiling the phase at `vertices` on q's."""
    _, entries = quiver._compile_phase(exchange_entries(q.arrows - q.arrows.T), tuple(vertices),
                                       np.arange(q.n_vertices), "a test phase")
    return np.stack(entries)


def _mutated_in_turn(q, vertices):
    for k in vertices:
        q = mutate_quiver(q, k)
    return np.stack(exchange_entries(q.arrows - q.arrows.T))


def test_phase_update_pairs_out_arrows_by_phase_vertex():
    # phase {0, 1}; read row by row, its arrows out of the phase are 1 -> 2, 0 -> 3, 1 -> 4:
    # unlike in every Dynkin quiver, they are not in phase-vertex order
    q = arrows_of([(5, 0, 1), (6, 1, 2), (5, 1, 1), (1, 2, 1), (0, 3, 2), (1, 4, 3), (3, 6, 1)], 7)
    b = q.arrows - q.arrows.T
    rows, cols = np.nonzero(b[:, [0, 1]])
    out_by_row = cols[b[rows, cols] < 0]
    assert out_by_row.tolist() == [1, 0, 1]
    assert np.array_equal(_phase_update(q, (0, 1)), _mutated_in_turn(q, (0, 1)))


def test_phase_update_is_the_single_vertex_chain_on_random_quivers():
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        q = _random_quiver(rng, n)
        phase = []
        for k in rng.permutation(n):
            if not q.arrows[k, phase].any() and not q.arrows[phase, k].any():
                phase.append(int(k))
        phase = sorted(phase[:int(rng.integers(1, len(phase) + 1))])
        assert np.array_equal(_phase_update(q, phase), _mutated_in_turn(q, phase))


@pytest.mark.parametrize("dt", [DynkinType("B", 4), DynkinType("C", 5), DynkinType("D", 6), DynkinType("A", 5)], ids=str)
def test_phase_order_independence(dt):
    loop = build_mutation_loop(dt)
    rng = np.random.default_rng(11)

    start = dense_quiver(loop.start)

    def run(order_plus, order_minus):
        q = start
        for k in list(order_plus) + list(order_minus):
            q = mutate_quiver(q, k)
        return q

    reference = run(loop.plus_set, loop.minus_set)
    for _ in range(10):
        p = list(loop.plus_set)
        m = list(loop.minus_set)
        rng.shuffle(p)
        rng.shuffle(m)
        assert run(p, m) == reference
    assert permute_quiver(reference, loop.nu) == start


def test_loop_property_error_diagnostic(monkeypatch):
    lq = build_dynkin_quiver(DynkinType("D", 4))
    start = dense_quiver(lq)
    programs, end = quiver._compile_loop(exchange_entries(start.arrows - start.arrows.T), (0,), (), lq.nu,
                                         "a wrong split")
    bad = MutationLoop(lq, (0,), (), lq.nu, programs)
    q = start
    for k in bad.plus_set + bad.minus_set:
        q = mutate_quiver(q, k)
    assert np.array_equal(np.stack(end), np.stack(exchange_entries(q.arrows - q.arrows.T)))
    # a wrong phase split must not return to the start, and the build says so
    assert permute_quiver(q, lq.nu) != start
    sign = ("+",) + ("0",) * (lq.n_vertices - 1)
    wrong = LabeledQuiver(lq.type, lq.arrows, lq.color, sign, lq.nu, lq.hindex)
    monkeypatch.setattr(quiver, "build_dynkin_quiver", lambda dt: wrong)
    with pytest.raises(LoopPropertyError, match="D4: quiver does not return to its start"):
        build_mutation_loop(DynkinType("D", 4))


def test_dump_format():
    text = dump_quiver(build_dynkin_quiver(DynkinType("A", 2)))
    assert "0 -> 1 x1" in text
    assert "vertex 0: y_1^(1) black sign=- nu=0" in text


@pytest.mark.parametrize("dt", [DynkinType("A", 7), DynkinType("B", 5), DynkinType("C", 6), DynkinType("D", 9)], ids=str)
def test_dump_lists_arrows_row_by_row(dt):
    lq = build_dynkin_quiver(dt)
    a = dense_quiver(lq).arrows
    n = lq.n_vertices
    arrows = [f"{i} -> {j} x{a[i, j]}" for i in range(n) for j in range(n) if a[i, j]]
    labels = [f"vertex {v}: y_{lq.hindex[v][1]}^({lq.hindex[v][0]}) {lq.color[v]} sign={lq.sign[v]} nu={lq.nu[v]}"
              for v in range(n)]
    assert dump_quiver(lq) == "\n".join(arrows + labels) + "\n"


def imported_names(module):
    """Every module and every module.name that `module`'s source imports, anywhere in it."""
    names = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return names


def test_quiver_never_imports_yseed():
    # yseed runs the programs that quiver compiles; the layering runs one way
    assert not [name for name in imported_names(quiver) if "yseed" in name.split(".")]
