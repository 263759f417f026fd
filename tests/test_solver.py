"""Exact solver: frozen values, engine parity, caps, determinism."""

import inspect
import io
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candynim.cli import dispatch
from candynim.core import Game, Ply, _child, loser_moves, nim_sum, winning_moves
from candynim.errors import BudgetError, EngineError, MemoBudgetError, PileCapError
from candynim.solver import (
    DEFAULT_MEMO_CAP,
    DEFAULT_ORACLE_CAP,
    SolveResult,
    Solver,
    kernel_available,
    solve,
)
import candynim.solver as solver_mod
from candynim.solver._python import PyEngine, _best_entry, _plies
from candynim.allocation import _partitions

# values pinned by hand-checked play-throughs and small-case enumeration
FROZEN = [
    ([], 0),
    ([1], -1),  # lone pile: the winner takes it
    ([2, 2], 0),
    ([1, 2, 3], 2),
    ([1, 4, 5], 4),
    ([1, 6, 7], 6),
    ([3, 4, 7], 6),
    ([3, 5, 6], 6),
    ([1, 2, 5, 6], 6),
    ([1, 2, 4, 7], 8),
    ([7, 8, 15], 18),
    ([1, 5, 16, 20], 28),
]


@pytest.mark.parametrize("piles,value", FROZEN)
def test_frozen_values(piles, value):
    r = solve(Game(piles))
    assert r.value == value
    assert r.n_loser - r.n_winner == value
    assert r.n_loser + r.n_winner == sum(piles)


def test_counterexample_pair():
    assert solve(Game([31, 42, 53])).value == 96


def test_principal_line_replays_to_empty():
    r = solve(Game([1, 5, 16, 20]))
    pos = r.game
    n_l = n_w = 0
    for p, mover, ply, take in r.steps():
        assert p == pos
        if mover == "L":
            n_l += take
        else:
            n_w += take
        pos = pos.apply(ply)
    assert pos == Game([])
    assert (n_l, n_w) == (r.n_loser, r.n_winner)


def test_best_plies_unique_opening():
    plies = Solver().best_plies(Game([1, 5, 16, 20]))
    assert plies == (Ply(2, 2),)
    g = Game([1, 5, 16, 20])
    assert g[2] == 5 and plies[0].new_size == 2  # the 5 -> 2 grab


def test_best_plies_in_n_position():
    # winner to move: the cheapest winning ply only
    plies = Solver().best_plies(Game([5, 3]))
    assert plies == (Ply(0, 3),)


def test_solve_empty():
    r = solve(Game([]))
    assert r.value == 0 and r.principal_line == ()


def test_to_json_dict_schema():
    d = solve(Game([1, 2, 3])).to_json_dict()
    assert set(d) == {"game", "value", "n_loser", "n_winner", "line"}
    assert d["game"] == [3, 2, 1]
    assert all(set(step) == {"pile", "from", "to"} for step in d["line"])


def test_two_fresh_solvers_agree():
    a = Solver().solve(Game([9, 6, 15]))
    b = Solver().solve(Game([9, 6, 15]))
    assert a == b


def _native_scores(native: Solver, piles: tuple) -> list:
    """The exact score of every candidate ply from kernel values, in ``_plies`` order.

    Each child is valued by the kernel's ``solve_value``, so each score is
    what ``PyEngine.scores`` gives for that ply when the engines agree.
    """
    g = nim_sum(piles)
    sign = 1 if g == 0 else -1
    return [piles[i] - new + sign * native._native.solve_value(_child(piles, i, new))
            for i, new in _plies(piles, g)]


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_engine_parity_on_small_sweep():
    native = Solver(engine="native")
    python = Solver(engine="python")
    small = [Game(p) for total in range(2, 13, 2) for p in _partitions(total, 4, total)]
    # every game, P and N, at the widths whose keys pack piles into 12, 10 and 8 bits
    wide = [
        Game(c)
        for r in (5, 6, 7)
        for c in combinations_with_replacement(range(1, 25), r)
        if sum(c) <= 24
    ]
    assert len(wide) == 2858
    for g in small + wide:
        assert native.solve(g) == python.solve(g)
        assert native.best_plies(g) == python.best_plies(g)
        assert _native_scores(native, g.piles) == python._py.scores(g.piles)


def _closed(piles: list, close: bool) -> list:
    """``piles`` with their nim-sum added as a pile, a P position, if asked."""
    return piles + [nim_sum(piles)] if close and nim_sum(piles) else piles


# P and N positions of 3-6 piles, all above the 24-candy parity sweep
WIDE_GAMES = st.builds(
    _closed, st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=6),
    st.booleans(),
).filter(lambda piles: 3 <= len(piles) <= 6 and sum(piles) > 24)


@pytest.fixture(scope="module")
def warm_engines():
    """One native and one Python solver, shared by every example of a property."""
    return Solver(engine="native"), Solver(engine="python")


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
@settings(max_examples=60, deadline=None)
@given(WIDE_GAMES)
def test_pruned_kernel_matches_the_plain_engine_above_the_sweep(warm_engines, piles):
    # the kernel prunes its search; its warm table must still hold exact values
    native, python = warm_engines
    g = Game(piles)
    assert native.solve(g) == python.solve(g)
    assert native.best_plies(g) == python.best_plies(g)
    assert _native_scores(native, g.piles) == python._py.scores(g.piles)


# 3-pile P and N positions with one pile of 33-90, some with a small equal
# pair added: the kernel skips blocks of up to 64 loser plies on them, where
# the piles of WIDE_GAMES give blocks of at most 16
TALL_GAMES = st.builds(
    lambda tall, small, other, close, pair: (
        [tall, small, tall ^ small if close else other] + [pair, pair] * (pair > 0)
    ),
    st.integers(min_value=33, max_value=90), st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=16), st.booleans(), st.integers(min_value=0, max_value=2),
)


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
@settings(max_examples=30, deadline=None)
@given(TALL_GAMES)
def test_kernel_block_skips_match_the_plain_engine_on_tall_piles(warm_engines, piles):
    native, python = warm_engines
    g = Game(piles)
    assert native.solve(g) == python.solve(g)
    assert native.best_plies(g) == python.best_plies(g)
    assert _native_scores(native, g.piles) == python._py.scores(g.piles)


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_kernel_solves_a_tall_three_pile_game():
    # blocks of up to 512 loser plies are skipped whole on this game
    r = Solver(engine="native").solve(Game([968, 600, 400]))
    assert r.value == 1884
    pos = r.game
    for ply in r.principal_line:
        pos = pos.apply(ply)
    assert pos == Game([])
    assert r.n_loser - r.n_winner == r.value and r.n_loser + r.n_winner == 1968


def test_p_position_value_leaves_the_winner_two_candies():
    # the winner takes the last candy, so value = total - 2 * n_winner <= total - 2;
    # the kernel prunes with this bound, so it is checked on the Python engine
    s = Solver(engine="python")
    games = [Game(p) for total in range(2, 21, 2) for p in _partitions(total, total, total)]
    assert len(games) == 279
    for g in games:
        assert s.value(g) <= g.total - 2, g


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=8), max_size=4),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
def test_kernel_pair_stripping_matches_the_plain_engine(piles, a, closed):
    # the kernel drops equal pairs before it searches; the Python engine does not
    g = Game(_closed(piles, closed) + [a, a])
    assert Solver(engine="native").solve(g) == Solver(engine="python").solve(g)


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_native_memo_cap_matches_the_python_engine():
    g = Game([4, 5, 6, 7])
    with pytest.raises(MemoBudgetError) as plain:
        Solver(memo_cap=2, engine="python").solve(g)
    with pytest.raises(MemoBudgetError) as native:
        Solver(memo_cap=2, engine="native").solve(g)
    assert str(native.value) == str(plain.value)
    for h in (g, Game([7, 6, 5])):  # best_plies at a P and at an N position
        with pytest.raises(MemoBudgetError) as plain:
            Solver(memo_cap=2, engine="python").best_plies(h)
        with pytest.raises(MemoBudgetError) as native:
            Solver(memo_cap=2, engine="native").best_plies(h)
        assert str(native.value) == str(plain.value)
    out = io.StringIO()
    assert dispatch(["solve", "[4,5,6,7]", "--engine", "native", "--memo-cap", "2"], out=out) == 3


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
@pytest.mark.parametrize(
    "piles,message",
    [
        ((1, 2), "piles must be canonical"),
        ((2**31, 1), "pile 2147483648 does not fit 31 bits"),
        ((1,) * 32, "kernel takes at most 31 piles, got 32"),
    ],
)
def test_native_solve_value_rejects_what_line_rejects(piles, message):
    eng = solver_mod._kernel.NativeEngine(100)
    with pytest.raises(EngineError, match=message) as line:
        eng.line(piles)
    with pytest.raises(EngineError, match=message) as value:
        eng.solve_value(piles)
    assert str(value.value) == str(line.value)
    with pytest.raises(EngineError, match=message) as best:
        eng.best_plies(piles)
    assert str(best.value) == str(line.value)
    assert not solver_mod._kernel.fits(piles)
    assert eng.solve_value(()) == PyEngine(1).solve_value(()) == 0
    assert eng.best_plies(()) == PyEngine(1).best_plies(()) == []


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_native_best_plies_matches_python_on_every_small_position():
    # every P and N position of at most 6 piles of at most 12 and at most 40
    # candies, so every one of at most 5 piles of at most 8; the kernel
    # fills its table from these calls alone.  The wider piles are needed: a
    # floor one off in the kernel's best_plies agrees on every position of
    # piles of at most 8.
    eng = solver_mod._kernel.NativeEngine(DEFAULT_MEMO_CAP)
    py = PyEngine(DEFAULT_MEMO_CAP)
    games = [
        c[::-1]
        for r in range(1, 7)
        for c in combinations_with_replacement(range(1, 13), r)
        if sum(c) <= 40
    ]
    assert len(games) == 12233
    assert sum(nim_sum(piles) == 0 for piles in games) > 100
    for piles in games:
        assert eng.best_plies(piles) == py.best_plies(piles), piles
    assert Solver(engine="native").best_plies(Game([])) == ()


# every position of at most 5 piles of at most 9, pairs included, and some
# pair-heavy games
TIE_BREAK_GAMES = [
    Game(c) for r in range(1, 6) for c in combinations_with_replacement(range(1, 10), r)
] + [Game(c) for c in ([12, 12], [4, 4, 1, 1], [13, 13, 13, 9, 7, 3], [9, 9, 6, 5, 3, 3, 3])]


@pytest.mark.parametrize("engine", ["native", "python"])
def test_first_best_ply_is_the_principal_ply(engine):
    # plies are scanned by (pile, new size), and the first ply of the best
    # score is the tie-break's pick: the kernel's line stops at it, and
    # strategies.simulate replies with it; the Python engine still breaks
    # the tie by child keys.  Repeated piles break the scan's order in the
    # child, so the sweep holds many of them
    if engine == "native" and not kernel_available():
        pytest.skip("compiled kernel absent")
    assert len(TIE_BREAK_GAMES) == 2005
    s = Solver(engine=engine)
    for g in TIE_BREAK_GAMES:
        assert s.best_plies(g)[0] == s.solve(g).principal_line[0], g


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_native_lines_match_python_lines_on_the_tie_break_sweep():
    native = Solver(engine="native")
    python = Solver(engine="python")
    for g in TIE_BREAK_GAMES:
        assert native.solve(g) == python.solve(g), g


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_facade_leaves_the_pick_to_the_kernel():
    # a pile past its 31-bit field: native passes on the kernel's error, auto uses Python
    g = Game([2**31, 1])
    with pytest.raises(EngineError, match="pile 2147483648 does not fit 31 bits"):
        Solver(engine="native", pile_cap=2**32 - 1).value(g)
    auto = Solver(pile_cap=2**32 - 1)
    assert auto.value(g) == Solver(engine="python", pile_cap=2**32 - 1).value(g) == 1 - 2**31
    assert auto._native is None


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_auto_solves_tall_pair_heavy_games_on_the_kernel():
    # far past a 10,000-candy total, but nothing is left once the pair is dropped
    s = Solver()
    assert s.value(Game([65536, 65536])) == 0
    r = s.solve(Game([5001, 5001]))
    assert r.value == 0
    assert sum(take for _, mover, _, take in r.steps() if mover == "L") == r.n_loser == 5001
    assert s._py is None


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_kernel_depth_budget_ends_in_exit_3():
    s = Solver()
    with pytest.raises(BudgetError, match="depth budget of 5000 turns"):
        s.value(Game([12704, 12000, 8000]))
    assert s._py is None
    assert dispatch(["solve", "[12704,12000,8000]"], out=io.StringIO()) == 3
    # only exact values reach the table, so the solver stays sound after the error
    python = Solver(engine="python")
    for piles in ([1, 5, 16, 20], [31, 42, 53], [7, 8, 15], [9, 6, 15], [5, 4, 3, 2]):
        assert s.solve(Game(piles)) == python.solve(Game(piles))


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_native_stats_rows_split_one_table_by_width():
    s = Solver(engine="native")
    for piles in ([1, 5, 16, 20], [31, 42, 53], [9, 9, 6, 5, 3, 3, 3]):
        s.solve(Game(piles))
    rows = s.stats()
    # the 7-pile game is stored as [6, 5, 3]: its pairs are dropped
    assert [row["engine"] for row in rows] == ["native[3]", "native[4]"]
    assert sum(row["entries"] for row in rows) == len(s._native) > 0
    assert sum(row["misses"] for row in rows) == len(s._native)


# (width, entries, hits, misses) per stats() row after one value() on a
# fresh kernel: a change to the cost of a searched ply must leave the
# search itself, which plies it searches and in what order, as it is
SEARCH_COUNTS = [
    ([968, 600, 400], [(3, 67105, 6631146, 67105)]),
    ([31, 42, 53], [(3, 331, 7874, 331)]),
    ([1, 5, 16, 20], [(3, 30, 322, 30), (4, 23, 141, 23)]),
    (
        [20, 18, 12, 9, 7, 4],
        [(3, 44, 5694, 44), (4, 141, 10354, 141), (5, 197, 3832, 197), (6, 287, 4316, 287)],
    ),
    (
        [13, 11, 9, 7, 5, 3, 2],
        [(3, 20, 999, 20), (4, 32, 815, 32), (5, 29, 87, 29), (6, 12, 45, 12), (7, 10, 65, 10)],
    ),
    # the seven-pile split of conj-split-improves, the wide search path
    (
        [53, 42, 16, 8, 4, 2, 1],
        [
            (3, 263, 47091, 263),
            (4, 1421, 108401, 1421),
            (5, 3247, 133589, 3247),
            (6, 3354, 104198, 3354),
            (7, 1268, 34453, 1268),
        ],
    ),
]

# the rows that solve() and then best_plies() add to those, on the same
# solver: a change to how the kernel scans a position's plies must leave
# which plies it scores, and under which floors, as they are
LINE_AND_BEST_COUNTS = {
    (968, 600, 400): ([(3, 4203, 446405, 4203)], [(3, 0, 1963, 0)]),
    (31, 42, 53): ([(3, 0, 490, 0)], [(3, 0, 121, 0)]),
    (1, 5, 16, 20): ([(3, 0, 15, 0), (4, 0, 51, 0)], [(3, 0, 8, 0), (4, 0, 29, 0)]),
    (20, 18, 12, 9, 7, 4): (
        [(3, 0, 85, 0), (4, 0, 171, 0), (5, 4, 89, 4), (6, 0, 29, 0)],
        [(3, 0, 0, 0), (4, 0, 32, 0), (5, 0, 11, 0), (6, 0, 29, 0)],
    ),
    (13, 11, 9, 7, 5, 3, 2): (
        [(3, 0, 46, 0), (4, 0, 32, 0), (5, 0, 4, 0), (6, 0, 2, 0), (7, 0, 11, 0)],
        [(3, 0, 0, 0), (4, 0, 0, 0), (5, 0, 2, 0), (6, 0, 0, 0), (7, 0, 1, 0)],
    ),
    (53, 42, 16, 8, 4, 2, 1): (
        [(3, 0, 3, 0), (4, 0, 3, 0), (5, 0, 3, 0), (6, 0, 3, 0), (7, 0, 1, 0)],
        [(3, 0, 0, 0), (4, 0, 0, 0), (5, 0, 42, 0), (6, 0, 14, 0), (7, 0, 71, 0)],
    ),
}


def _count_rows(s: Solver) -> list:
    return [(int(row["engine"][7:-1]), row["entries"], row["hits"], row["misses"])
            for row in s.stats()]


def _added(before: list, after: list) -> list:
    """Per-width rows of ``after`` less those of ``before``."""
    base = {w: counts for w, *counts in before}
    return [(w, *(a - b for a, b in zip(counts, base.get(w, (0, 0, 0)))))
            for w, *counts in after]


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
@pytest.mark.parametrize("piles,rows", SEARCH_COUNTS)
def test_native_search_counts_are_pinned(piles, rows):
    s = Solver(engine="native")
    g = Game(piles)
    s.value(g)
    got = _count_rows(s)
    assert got == rows
    line_rows, best_rows = LINE_AND_BEST_COUNTS[tuple(piles)]
    s.solve(g)
    after_line = _count_rows(s)
    assert _added(got, after_line) == line_rows
    s.best_plies(g)
    assert _added(after_line, _count_rows(s)) == best_rows


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel absent")
def test_auto_engine_falls_back_when_unpackable():
    # 33 piles cannot pack into the native key; auto must still answer
    wide = Game([2, 2] * 16 + [1])
    assert not solver_mod._kernel.fits(wide.piles)
    r = Solver(engine="auto").solve(wide)
    # pair invariance: worth the same as the lone [1]
    assert r.value == Solver(engine="python").solve(wide).value == -1


def test_oracle_matches_memoized_small():
    s = Solver()
    for total in range(2, 11, 2):
        for piles in _partitions(total, 3, total):
            g = Game(piles)
            assert s.oracle_solve(g) == s.solve(g)


@pytest.mark.parametrize("engine", ["auto", "python"])
def test_oracle_and_best_plies_on_every_small_position(engine):
    # every position, P and N, of at most 5 piles and 12 candies, on the
    # kernel where it is built and always on the Python engine
    s = Solver(engine=engine)
    games = [
        Game(c)
        for r in range(1, 6)
        for c in combinations_with_replacement(range(1, 13), r)
        if sum(c) <= 12
    ]
    assert len(games) == 196
    for g in games:
        assert s.oracle_solve(g) == s.solve(g)
        v = s.value(g)
        sign, candidates = (1, loser_moves(g)) if g.grundy == 0 else (-1, winning_moves(g))
        best = tuple(
            p for p in candidates if sign * g.candies(p) + s.value(g.apply(p)) == v
        )
        assert s.best_plies(g) == best


def test_oracle_never_touches_the_kernel(monkeypatch):
    class NoKernel:
        def __getattr__(self, name):
            raise AssertionError(f"oracle reached the kernel for {name}")

    monkeypatch.setattr(solver_mod, "_kernel", NoKernel())
    g = Game([3, 2, 1])
    assert Solver().oracle_solve(g) == Solver(engine="python").solve(g)


def test_module_paths_share_one_default_solver(monkeypatch):
    from candynim.allocation import equality_arrangements
    from candynim.bounds import standard_form_bounds
    from candynim.harness import verify_claim

    default = solver_mod._default_solver()
    made, used = [], set()
    init, run_solve, run_value = Solver.__init__, Solver.solve, Solver.value

    def spy_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def spy_solve(self, *args, **kwargs):
        used.add(id(self))
        return run_solve(self, *args, **kwargs)

    def spy_value(self, *args, **kwargs):
        used.add(id(self))
        return run_value(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", spy_init)
    monkeypatch.setattr(Solver, "solve", spy_solve)
    monkeypatch.setattr(Solver, "value", spy_value)
    equality_arrangements(12)
    standard_form_bounds(2, 1)
    verify_claim("small-family-value", "smoke")
    solve(Game([1, 2, 3]))
    assert made == []
    assert used == {id(default)}


def test_oracle_refuses_big_totals():
    from candynim.errors import BudgetError

    with pytest.raises(BudgetError):
        Solver().oracle_solve(Game([DEFAULT_ORACLE_CAP, DEFAULT_ORACLE_CAP]))


def test_pile_cap_enforced():
    with pytest.raises(PileCapError):
        Solver(pile_cap=4).solve(Game([8, 8]))


def test_memo_cap_enforced():
    with pytest.raises(MemoBudgetError):
        Solver(memo_cap=2, engine="python").solve(Game([4, 5, 6, 7]))


def test_python_engine_restores_the_recursion_limit():
    host = sys.getrecursionlimit()
    s = Solver(engine="python")
    assert s.value(Game([50000])) == -50000
    assert sys.getrecursionlimit() == host
    # 2*total+1000 would overflow the C int that sys.setrecursionlimit takes
    assert Solver(engine="python", pile_cap=2**32 - 1).value(Game([2**31])) == -(2**31)
    assert sys.getrecursionlimit() == host
    # a game deeper than the caller's limit still solves, and the limit comes back
    low = len(inspect.stack(0)) + 30
    sys.setrecursionlimit(low)
    try:
        assert Solver(engine="python").value(Game([1] * 60)) == 0
        assert sys.getrecursionlimit() == low
    finally:
        sys.setrecursionlimit(host)


def test_python_engine_table_counts_search_probes_only():
    with pytest.raises(ValueError):
        PyEngine(0)
    eng = PyEngine(100)
    root = (3, 2, 1)
    v = eng.solve_value(root)
    first = eng.stats()
    assert first["entries"] == first["misses"] > 0
    assert all(type(value) is int for value in eng.table.values())
    # the principal ply rescores the root's plies: every probe is a hit
    assert eng.table[root] == v == _best_entry(root, eng.scores(root))[0]
    after = eng.stats()
    assert (after["entries"], after["misses"]) == (first["entries"], first["misses"])


def test_stats_counters_move():
    s = Solver(engine="python")
    s.solve(Game([5, 6, 3]))
    stats = s.stats()
    assert any(entry["entries"] > 0 for entry in stats)


def test_parallel_matches_serial():
    g = Game([5, 4, 3, 2])
    serial = Solver().solve(g)
    fanned = Solver().solve(g, workers=4)
    assert serial == fanned


def test_result_is_plain_data():
    r = solve(Game([2, 2]))
    assert isinstance(r, SolveResult)
    assert r.game == Game([2, 2])
