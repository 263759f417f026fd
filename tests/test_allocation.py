"""Arrangement construction: equality families, chains, five-pile caps."""

import sys

import pytest

from candynim import allocation
from candynim.allocation import (
    AllocationResult,
    best_power_arrangement,
    equality_arrangements,
    exhaustive_min_winner,
    five_pile_construct,
    lemma_optimal_ply,
    _chain,
    _partitions,
)
from candynim.bounds import five_pile_upper, log_lower_bound
from candynim.core import Game, Ply, nim_sum
from candynim.errors import (
    BudgetError,
    ConstructionError,
    FamilyError,
    InvariantError,
    ParityError,
    PileCapError,
)
from candynim.harness import _gapped_chain
from candynim.solver import Solver, solve

# every closed-form floor-hitting arrangement by total, up to 32
EQUALITY_TRUTH = {
    2: [(1, 1)],
    4: [(1, 1, 1, 1), (2, 2)],
    6: [(3, 2, 1)],
    8: [(3, 2, 1, 1, 1)],
    10: [(5, 4, 1)],
    12: [(6, 4, 2)],
    14: [(7, 4, 2, 1)],
    16: [(7, 4, 2, 1, 1, 1)],
    18: [],
    20: [],
    22: [(11, 8, 2, 1)],
    24: [],
    26: [(13, 8, 4, 1)],
    28: [(14, 8, 4, 2)],
    30: [(15, 8, 4, 2, 1)],
    32: [(15, 8, 4, 2, 1, 1, 1)],
}


@pytest.mark.parametrize("total", sorted(EQUALITY_TRUTH))
def test_equality_arrangements_match_truth_table(total):
    got = sorted(r.game.piles for r in equality_arrangements(total))
    assert got == sorted(EQUALITY_TRUTH[total])


@pytest.mark.parametrize("total", sorted(EQUALITY_TRUTH))
def test_equality_arrangements_hit_the_floor(total):
    for r in equality_arrangements(total):
        assert r.game.total == total
        assert r.game.grundy == 0
        assert r.n_winner == log_lower_bound(total)


def test_equality_arrangements_order():
    # total 4 matches two cases; the all-ones shape comes first
    r = equality_arrangements(4)[0]
    assert r.game == Game([1, 1, 1, 1])
    assert r.construction == "equality-case1"
    assert equality_arrangements(18) == ()
    assert [r.construction for r in equality_arrangements(12)] == ["equality-case3"]


def test_chain_builds_every_power_chain():
    assert _chain(2) == [1, 1]
    assert _chain(4) == [1, 2, 4, 7]
    assert _chain(5, 1) == [2, 4, 8, 14]
    assert _chain(5, 3) == [1, 2, 8, 11]
    # the three equality cases: totals 2^n, 2^n - 2 and 2^n - 2^k - 2
    assert [r.game for r in equality_arrangements(16)] == [Game(_chain(4) + [1, 1])]
    assert [r.game for r in equality_arrangements(14)] == [Game(_chain(4))]
    assert [r.game for r in equality_arrangements(26)] == [Game(_chain(5, 2))]
    assert [r.game for r in equality_arrangements(12)] == [Game(_chain(4, 1))]
    # the gapped chains the skip-chain claim checks
    assert _gapped_chain(5, 2) == Game([1, 4, 8, 13])
    assert _gapped_chain(4, 1) == Game([2, 4, 6])
    assert _gapped_chain(3, 1) is None  # [2, 2] repeats a pile


def test_equality_rejects_bad_totals():
    with pytest.raises(ParityError):
        equality_arrangements(7)
    with pytest.raises(ValueError):
        equality_arrangements(0)


def test_best_power_arrangement():
    r = best_power_arrangement(4)
    assert r.game == Game([1, 2, 4, 7])
    assert r.game.total == 14
    assert r.n_winner == 3
    assert r.construction == "power-chain"
    assert best_power_arrangement(2).game == Game([1, 1])
    with pytest.raises(ValueError):
        best_power_arrangement(1)


def test_lemma_optimal_ply_closes_the_gap():
    g = Game([2, 4, 6])
    ply = lemma_optimal_ply(g)
    assert g[ply.pile_index] == 6 and ply.new_size == 1
    assert ply in Solver().best_plies(g)

    g2 = Game([1, 4, 5])
    ply2 = lemma_optimal_ply(g2)
    assert g2[ply2.pile_index] == 5 and ply2.new_size == 2
    assert Solver().best_plies(g2) == (ply2,)


def test_lemma_optimal_ply_rejects_other_shapes():
    with pytest.raises(FamilyError):
        lemma_optimal_ply(Game([1, 2, 3]))  # complete chain, no gap
    with pytest.raises(FamilyError):
        lemma_optimal_ply(Game([3, 5, 6]))  # two non-powers
    with pytest.raises(FamilyError):
        lemma_optimal_ply(Game([2, 2]))


def test_five_pile_construct_frozen_instance():
    r = five_pile_construct(20)
    assert r.game == Game([9, 8, 1, 1, 1])
    assert r.n_winner == 6
    assert r.construction == "five-pile-template"


def test_five_pile_construct_sweep():
    for total in range(4, 61, 2):
        r = five_pile_construct(total)
        assert r.game.total == total
        assert r.game.grundy == 0
        assert len(r.game) <= 5
        assert r.n_winner <= five_pile_upper(total)


def test_five_pile_construct_solves_each_family_before_it_builds_the_next(monkeypatch):
    # the template's pair is past the default solver's pile cap, so the first
    # solve fails; the other ~N/2 families must not have been built before it
    built = []
    realize = allocation.g_family_realize

    def spy(*args):
        built.append(args)
        return realize(*args)

    monkeypatch.setattr(allocation, "g_family_realize", spy)
    with pytest.raises(PileCapError):
        five_pile_construct(10**6)
    assert 1 <= len(built) <= 2


def test_five_pile_rejects_bad_totals():
    with pytest.raises(ParityError):
        five_pile_construct(9)
    with pytest.raises(ValueError):
        five_pile_construct(2)


def test_partitions_enumerates_zero_nim_sum():
    got = sorted(_partitions(8, 8, 8))
    assert all(sum(p) == 8 for p in got)
    assert all(Game(p).grundy == 0 for p in got)
    assert (5, 2, 1) not in got  # nonzero nim-sum stays out
    assert (4, 4) in got and (3, 3, 1, 1) in got
    # cross-check count against a direct filter
    from itertools import combinations_with_replacement

    brute = set()
    for r in range(1, 9):
        for c in combinations_with_replacement(range(1, 9), r):
            if sum(c) == 8 and Game(c).grundy == 0:
                brute.add(tuple(sorted(c, reverse=True)))
    assert set(got) == brute


def test_partitions_respects_caps():
    assert all(len(p) <= 2 for p in _partitions(8, 2, 8))
    assert all(max(p) <= 3 for p in _partitions(8, 8, 3))


def _descending_tuples(total, cap):
    """Every descending tuple of positive piles of at most ``cap`` summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _descending_tuples(total - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("total", range(17))
def test_partitions_match_a_brute_force_enumeration(total):
    for max_piles in (0, 1, 2, 3, 4, 6, total, total + 1):
        for max_pile in (0, 1, 2, 3, 5, 8, total, total + 1):
            brute = sorted(
                (
                    p
                    for p in _descending_tuples(total, max_pile)
                    if p and len(p) <= max_piles and nim_sum(p) == 0
                ),
                reverse=True,
            )
            assert list(_partitions(total, max_piles, max_pile)) == brute


def test_partitions_raise_the_budget_error_past_the_budget(monkeypatch):
    monkeypatch.setattr(allocation, "_PARTITION_BUDGET", 100)
    with pytest.raises(BudgetError) as raised:
        list(_partitions(40, 40, 40))
    assert str(raised.value) == "partition search for total 40 passed 100 steps"
    with pytest.raises(BudgetError):
        exhaustive_min_winner(40, max_piles=40)
    # the search is lazy: the first tuple comes after about 200 steps, long
    # before a budget that the whole search passes many times over
    monkeypatch.setattr(allocation, "_PARTITION_BUDGET", 1_000)
    assert next(_partitions(200, 200, 200)) == (100, 100)


def test_exhaustive_min_winner_stops_a_huge_total_at_once(monkeypatch):
    # the root of total 10**6 has 333,334 pile sizes to scan, one step each,
    # so a budget of 100 stops the search before it scans any of them; the
    # tracer fails the test if the search runs more than a few lines
    monkeypatch.setattr(allocation, "_PARTITION_BUDGET", 100)
    lines = 0

    def in_search(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > 1_000:
                raise AssertionError("the partition search scanned past its budget")
        return in_search

    def tracer(frame, event, arg):
        return in_search if frame.f_code is _partitions.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        with pytest.raises(BudgetError, match="passed 100 steps"):
            exhaustive_min_winner(10**6)
    finally:
        sys.settrace(previous)


class _SpySolver(Solver):
    """A solver that counts its ``value`` and ``solve`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def value(self, game):
        self.calls += 1
        return super().value(game)

    def solve(self, game):
        self.calls += 1
        return super().solve(game)


def test_exhaustive_min_winner_raises_the_budget_error_before_solving(monkeypatch):
    # the partition search of total 40 passes 100 steps long after it has
    # yielded its first positions, and not one of them may be solved
    monkeypatch.setattr(allocation, "_PARTITION_BUDGET", 100)
    spy = _SpySolver()
    with pytest.raises(BudgetError):
        exhaustive_min_winner(40, max_piles=40, solver=spy)
    assert spy.calls == 0
    # under the budget, the same spy answers and solves each position once
    monkeypatch.setattr(allocation, "_PARTITION_BUDGET", 2_000_000)
    rs = exhaustive_min_winner(12, max_piles=3, solver=spy)
    assert [r.game.piles for r in rs] == [(6, 4, 2)]
    assert spy.calls == len(list(_partitions(12, 3, 12)))


def test_exhaustive_min_winner_small_totals():
    rs = exhaustive_min_winner(10)
    assert [r.game.piles for r in rs] == [(5, 4, 1)]
    assert rs[0].n_winner == 3
    assert rs[0].construction == "exhaustive"
    with pytest.raises(ParityError):
        exhaustive_min_winner(5)


def test_exhaustive_min_winner_respects_caps():
    rs = exhaustive_min_winner(12, max_piles=2)
    assert all(len(r.game) <= 2 for r in rs)
    assert rs[0].game == Game([6, 6])


def test_allocation_result_validation():
    with pytest.raises(InvariantError):
        AllocationResult(Game([5, 3]), 1, "test")  # not a P position
    good = AllocationResult(Game([4, 4]), 0, "test")
    assert (good.n_winner, good.construction) == (0, "test")


def test_verified_n_winner_matches_solver():
    for total in (6, 10, 12):
        r = equality_arrangements(total)[0]
        assert r.n_winner == solve(r.game).n_winner
