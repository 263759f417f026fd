"""Loser-side playing strategies and their simulated traces.

The loser cannot win, but can still steer how many candies each side
collects.  This module implements the scripted strategies for the
three-pile families [2^j-1, 2^j*m, 2^j*(m+1)-1]: the flip-flop, which
repeatedly shaves 2^(j+1)-1 off the largest pile, and the fractal, which
at m=1 collapses the largest pile to a smaller all-ones block chosen by a
contractive exponent map.  ``simulate`` plays any loser policy against a
forced winner and returns the full trace.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import Game, Ply, Turn, OutcomeClass, _Record, unique_response
from .errors import FamilyError, IllegalMoveError, NoMovesError
from .solver import Solver, _default_solver

ContractiveFn = Callable[[int], int]
# exponent maps: feed j (for smallest pile 2^j - 1), get back 1..j


def half(a: int) -> int:
    """Halve an exponent, never below 1."""
    return a // 2 if a >= 2 else 1


def _standard_params(g: Game) -> tuple[int, int]:
    """Recover (j, m) from a position of shape [2^j-1, 2^j*m, 2^j*m + 2^j-1].

    The two-pile tail [a, a] counts as m = 0.  Raises FamilyError when the
    piles do not fit the shape; membership is always rechecked here rather
    than trusted from the caller.
    """
    if len(g) == 2 and g[0] == g[1]:
        a = g[0]
        if a & (a + 1) == 0:
            return a.bit_length(), 0
        raise FamilyError(f"{g} is a pair but {a} is not of the form 2^j-1")
    if len(g) != 3:
        raise FamilyError(f"{g} does not have two or three piles")
    big, mid, small = g.piles
    if small & (small + 1) != 0:
        raise FamilyError(f"smallest pile {small} is not of the form 2^j-1")
    j = small.bit_length()
    block = small + 1
    m, rem = divmod(mid, block)
    if rem or m < 1 or big != mid + small:
        raise FamilyError(f"{g} is not [2^{j}-1, 2^{j}*m, 2^{j}*(m+1)-1]")
    return j, m


def largest_pile_policy(g: Game) -> Ply:
    """Remove the whole largest pile.

    Works in any nonempty position and guarantees the loser at least half
    of the remaining candies.
    """
    if not g:
        raise NoMovesError("no pile to remove from the empty game")
    return Ply(0, 0)


def flip_flop_policy(g: Game) -> Ply:
    """The flip-flop ply: largest pile minus 2^(j+1)-1.

    At m = 0 (the pair [a, a]) one whole pile goes instead.  The winner's
    only reply lands back in the family with m decremented, so iterating
    this policy nets the loser 2^(j+1)-2 candies per turn.
    """
    j, m = _standard_params(g)
    if m == 0:
        return Ply(0, 0)
    return Ply(0, g[0] - (2 ** (j + 1) - 1))


def fractal_policy(f: ContractiveFn, g: Game) -> Ply:
    """The fractal ply: flip-flop until m = 1, then jump families.

    At m = 1 the largest pile drops to 2^f(j)-1; the forced reply lands in
    the family on 2^f(j)-1 with multiplier 2^(j-f(j))-1, and the cascade
    repeats.  ``f`` maps exponents and must satisfy 1 <= f(j) <= j; with
    f(j) = j the ply degenerates to the flip-flop.
    """
    j, m = _standard_params(g)
    if m != 1:
        return flip_flop_policy(g)
    fj = f(j)
    if not isinstance(fj, int) or not 1 <= fj <= j:
        raise ValueError(f"exponent map gave f({j}) = {fj!r}, need 1..{j}")
    if fj == j:
        return flip_flop_policy(g)
    return Ply(0, 2**fj - 1)


class StrategyTrace(_Record):
    """A full play-through: turns from the root down to the empty game.

    The totals are read off the turns.  ``strategic_value`` is what the
    loser policy actually nets, always at most the exact game value.
    """

    turns: tuple[Turn, ...]

    def __init__(self, turns: tuple[Turn, ...]):
        self.__dict__["turns"] = turns
        pos = self.root
        for t in turns:
            if t.before != pos:
                raise ValueError(f"turn starting at {t.before} does not follow {pos}")
            pos = t.after_winner
        if pos:
            raise ValueError(f"trace stops early at {pos}")

    @property
    def root(self) -> Game:
        return self.turns[0].before if self.turns else Game([])

    @property
    def loser_total(self) -> int:
        return sum(t.loser_take for t in self.turns)

    @property
    def winner_total(self) -> int:
        return sum(t.winner_take for t in self.turns)

    @property
    def strategic_value(self) -> int:
        return self.loser_total - self.winner_total


def simulate(
    pick_ply: Callable[[Game], Ply],
    g: Game,
    solver: Optional[Solver] = None,
) -> StrategyTrace:
    """Play a loser policy to the end and collect the trace.

    The winner answers each ply with the unique reply when the position
    has at most three piles, and otherwise with the first of the solver's
    ``best_plies``, the first ply of the solver's principal line.

    Args:
        pick_ply: loser policy, called on each zero-nim-sum position.
        g: starting position; must have zero nim-sum.
        solver: caps the root's piles and picks the winner's replies in
            positions of more than three piles; the module default solver
            when omitted.

    Raises:
        ValueError: if ``g`` has nonzero nim-sum.
        PileCapError: if a pile of ``g`` exceeds the solver's pile cap.
        IllegalMoveError: if the policy returns an illegal ply; the
            message names the failing turn index.
    """
    if g.outcome is not OutcomeClass.P:
        raise ValueError(f"simulate starts from zero nim-sum, got {g}")
    solver = solver or _default_solver()
    # a game of at most three piles never reaches the solver, so its cap is
    # checked here, once: no later position has a larger pile
    solver._check_caps(g)
    turns = []
    pos = g
    while pos:
        ply = pick_ply(pos)
        try:
            after_loser = pos.apply(ply)
            if len(pos) <= 3:
                reply = unique_response(pos, ply)
            else:
                reply = solver.best_plies(after_loser)[0]
            after_winner = after_loser.apply(reply)
        except IllegalMoveError as exc:
            raise IllegalMoveError(f"turn {len(turns)}: {exc}") from None
        turns.append(Turn(pos, after_loser, after_winner))
        pos = after_winner
    return StrategyTrace(tuple(turns))


def fractal_closed_form(k: int, m: int) -> int:
    """Closed-form target value for the fractal strategy on [2^k-1, 2^k*m, ...].

    Evaluates, term by term,

        (m-2)*(2^(k+1)-2)
          + sum over i = 0..ceil(log2 k) of
              2^(floor(k/2^i)+1) - 2^(floor(k/2^(i+1))+1)
              + (2^(floor(k/2^(i+1))+1) - 1) * (2^(floor(k/2^i) - floor(k/2^(i+1))) - 2)

    with ceil(log2 1) taken as 0.  The verification harness compares this
    against the simulated fractal trace and reports any gap; this function
    never adjusts the formula to fit.
    """
    if k < 1 or m < 1:
        raise ValueError(f"need k, m >= 1, got k={k}, m={m}")
    total = (m - 2) * (2 ** (k + 1) - 2)
    for i in range((k - 1).bit_length() + 1):
        a = k >> i
        b = k >> (i + 1)
        total += 2 ** (a + 1) - 2 ** (b + 1) + (2 ** (b + 1) - 1) * (2 ** (a - b) - 2)
    return total
