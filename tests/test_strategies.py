"""Scripted loser strategies and their simulated yields."""

import pytest

from candynim.core import Game, Ply, g_family_realize
from candynim.errors import FamilyError, NoMovesError, PileCapError
from candynim.strategies import (
    StrategyTrace,
    flip_flop_policy,
    fractal_closed_form,
    fractal_policy,
    half,
    largest_pile_policy,
    simulate,
)
from candynim.solver import Solver, solve


def _fractal(g):
    return fractal_policy(half, g)


def test_exponent_maps():
    assert half(1) == 1
    assert half(5) == 2
    assert half(2) == 1


def test_largest_pile_policy():
    assert largest_pile_policy(Game([3, 7, 5])) == Ply(0, 0)
    with pytest.raises(NoMovesError):
        largest_pile_policy(Game([]))


def test_flip_flop_ply_shapes():
    # m >= 1: shave 2^(j+1)-1 off the big pile
    assert flip_flop_policy(Game([7, 16, 23])) == Ply(0, 8)
    # m = 1 takes the whole big pile
    assert flip_flop_policy(Game([7, 8, 15])) == Ply(0, 0)
    # m = 0 leftover pair: remove one pile outright
    assert flip_flop_policy(Game([7, 7])) == Ply(0, 0)
    with pytest.raises(FamilyError):
        flip_flop_policy(Game([1, 5, 16, 20]))


def test_fractal_ply_shapes():
    # away from m=1 it plays flip-flop
    assert _fractal(Game([7, 16, 23])) == Ply(0, 8)
    # at m=1 it cuts the big pile down to 2^f(j) - 1
    assert _fractal(Game([7, 8, 15])) == Ply(0, 1)
    assert _fractal(Game([31, 32, 63])) == Ply(0, 3)
    # f(j) = j collapses back to flip-flop
    assert fractal_policy(lambda j: j, Game([7, 8, 15])) == Ply(0, 0)


def test_fractal_rejects_bad_map():
    with pytest.raises(ValueError):
        fractal_policy(lambda j: 0, Game([7, 8, 15]))
    with pytest.raises(ValueError):
        fractal_policy(lambda j: j + 1, Game([7, 8, 15]))


def test_simulate_requires_zero_nim_sum():
    with pytest.raises(ValueError):
        simulate(largest_pile_policy, Game([5, 3]))


def test_simulate_reaches_empty_and_balances():
    t = simulate(largest_pile_policy, Game([1, 2, 3]))
    assert t.turns[-1].after_winner == Game([])
    assert t.loser_total - t.winner_total == t.strategic_value
    assert t.loser_total + t.winner_total == 6
    assert t.root == Game([1, 2, 3])


# one simulated haul per ladder rung, checked against a hand play-through
LADDER_SIMS = {1: 2, 2: 6, 3: 18, 4: 42, 5: 98, 6: 214}


@pytest.mark.parametrize("k,expected", sorted(LADDER_SIMS.items()))
def test_fractal_ladder_sims(k, expected):
    g = g_family_realize(2**k - 1, 1, 0)
    assert simulate(_fractal, g).strategic_value == expected


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_flip_flop_sim_value(j, m):
    g = g_family_realize(2**j - 1, m, 0)
    t = simulate(flip_flop_policy, g)
    assert t.strategic_value == m * (2 ** (j + 1) - 2)
    assert len(t.turns) == m + 1


def test_fractal_sim_on_deep_family():
    # one flip-flop turn, then the m=1 cascade
    assert simulate(_fractal, Game([7, 16, 23])).strategic_value == 32
    assert simulate(_fractal, Game([31, 64, 95])).strategic_value == 62 + 98


def test_fractal_never_beats_exact():
    for k in range(1, 5):
        for m in (1, 2, 3):
            g = g_family_realize(2**k - 1, m, 0)
            assert simulate(_fractal, g).strategic_value <= solve(g).value


def test_flip_flop_matches_exact_at_j1():
    for m in range(1, 9):
        g = Game([1, 2 * m, 2 * m + 1])
        assert simulate(flip_flop_policy, g).strategic_value == solve(g).value == 2 * m


def test_closed_form_frozen_values():
    # m = 2 isolates the summation term
    assert [fractal_closed_form(k, 2) for k in range(1, 6)] == [2, 6, 19, 44, 103]
    assert [fractal_closed_form(k, 1) for k in range(1, 6)] == [0, 0, 5, 14, 41]
    with pytest.raises(ValueError):
        fractal_closed_form(0, 1)
    with pytest.raises(ValueError):
        fractal_closed_form(1, 0)


def test_closed_form_diverges_from_sim():
    # the stated formula undercounts; the harness reports this spread
    for k in range(1, 6):
        sim = simulate(_fractal, g_family_realize(2**k - 1, 1, 0)).strategic_value
        assert fractal_closed_form(k, 1) < sim


def test_trace_validation_rejects_broken_chain():
    t1 = simulate(largest_pile_policy, Game([1, 2, 3]))
    with pytest.raises(ValueError):
        StrategyTrace(turns=t1.turns[:1])  # stops before the empty game
    with pytest.raises(ValueError):
        StrategyTrace(turns=t1.turns[::-1])  # a turn does not follow its predecessor


def test_simulate_replies_on_the_given_solver():
    # four piles, so the winner's replies come from the solver
    g = Game([1, 2, 4, 7])
    s = Solver(engine="python")
    assert simulate(largest_pile_policy, g, s) == simulate(largest_pile_policy, g)
    assert s.stats()[0]["entries"] > 0
    with pytest.raises(PileCapError):
        simulate(largest_pile_policy, g, Solver(pile_cap=3))
