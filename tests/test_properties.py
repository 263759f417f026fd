"""Randomized invariants over small games."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from candynim.core import (
    Game,
    Ply,
    game_sum,
    nim_sum,
    unique_response,
    winning_moves,
    xor_adjacent,
)
from candynim.solver import Solver, solve

small_piles = st.lists(st.integers(min_value=0, max_value=9), max_size=5)


def _p_position(piles):
    """Close a pile list under nim-sum zero by appending the xor."""
    x = nim_sum(piles)
    if x:
        piles = piles + [x]
    return Game(piles)


@given(small_piles)
def test_canonicalization_is_order_free(piles):
    assert Game(piles) == Game(sorted(piles))
    assert 0 not in Game(piles).piles


@given(small_piles, st.randoms(use_true_random=False))
def test_equal_multisets_equal_games(piles, rng):
    shuffled = piles[:]
    rng.shuffle(shuffled)
    assert Game(piles) == Game(shuffled)


@given(small_piles, small_piles)
def test_game_sum_grundy_is_xor(a, b):
    assert game_sum(Game(a), Game(b)).grundy == Game(a).grundy ^ Game(b).grundy


@given(st.integers(min_value=1, max_value=10**6))
def test_xor_adjacent_all_ones(a):
    r = xor_adjacent(a)
    assert r & (r + 1) == 0
    assert a ^ (a - 1) == r


@settings(max_examples=60, deadline=None)
@given(small_piles)
def test_value_nonnegative_and_parity(piles):
    g = _p_position(piles)
    assume(g.total <= 16)
    r = solve(g)
    assert r.value >= 0
    assert (g.total + r.value) % 2 == 0
    assert r.n_loser >= r.n_winner


@settings(max_examples=60, deadline=None)
@given(small_piles, st.integers(min_value=1, max_value=8))
def test_duplicate_pair_invariance(piles, a):
    # on the plain engine: the kernel drops equal pairs before it searches
    g = _p_position(piles)
    assume(g.total <= 12)
    plain = Solver(engine="python")
    assert plain.solve(g + Game([a, a])).value == plain.solve(g).value


@settings(max_examples=60, deadline=None)
@given(small_piles)
def test_principal_line_is_replayable(piles):
    g = _p_position(piles)
    assume(g.total <= 14)
    r = solve(g)
    pos = g
    for ply in r.principal_line:
        pos = pos.apply(ply)
    assert pos == Game([])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_three_pile_unique_reply(a, b):
    c = a ^ b
    assume(1 <= c)
    g = Game([a, b, c])
    assume(g.grundy == 0 and len(g) == 3)
    for i in range(3):
        ply = Ply(i, g[i] // 2)
        child = g.apply(ply)
        assert len(winning_moves(child)) == 1
        assert unique_response(g, ply) == winning_moves(child)[0]


@settings(max_examples=40, deadline=None)
@given(small_piles)
def test_oracle_agrees_with_memoized(piles):
    g = _p_position(piles)
    assume(g.total <= 12 and len(g) <= 4)
    s = Solver()
    assert s.oracle_solve(g) == s.solve(g)


@settings(max_examples=60, deadline=None)
@given(small_piles)
def test_winning_move_count_is_odd(piles):
    g = Game(piles)
    assume(g.grundy != 0)
    assert len(winning_moves(g)) % 2 == 1
