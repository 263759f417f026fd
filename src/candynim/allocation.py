"""Spreading N candies into piles so the winner collects as little as possible.

Any zero-nim-sum arrangement guarantees every candy a side, and the
arranger sides with the loser: the goal is a P position of the given
total whose ``n_winner`` is minimal.  The closed-form arrangements
(equality families, power chains, the five-pile square-root template)
come with solver-verified hauls; ``exhaustive_min_winner`` is the ground
truth search the constructions are measured against.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .bounds import five_pile_upper
from .core import Game, OutcomeClass, Ply, _Record, g_family_realize
from .errors import (
    BudgetError,
    ConstructionError,
    FamilyError,
    InvariantError,
    ParityError,
)
from .solver import Solver, _default_solver, _n_winner


class AllocationResult(_Record):
    """A P position of the requested total, with its verified winner haul."""

    game: Game
    n_winner: int
    construction: str

    def __init__(self, game: Game, n_winner: int, construction: str):
        fields = self.__dict__
        fields["game"] = game
        fields["n_winner"] = n_winner
        fields["construction"] = construction
        if game.outcome is not OutcomeClass.P:
            raise InvariantError(f"{game} has nonzero nim-sum")
        if n_winner < 0:
            raise InvariantError(f"negative winner haul {n_winner}")


def _verified(game: Game, tag: str, solver: Optional[Solver]) -> AllocationResult:
    result = (solver or _default_solver()).solve(game)
    return AllocationResult(game, result.n_winner, tag)


def _require_even(total: int) -> None:
    if total < 2:
        raise ValueError(f"need total >= 2, got {total}")
    if total % 2:
        raise ParityError(
            f"no zero-nim-sum arrangement has odd total {total}"
        )


def _chain(n: int, gap: int = 0) -> list[int]:
    """The power chain [1, 2, ..., 2^(n-2), 2^(n-1)-1], with an optional gap.

    A ``gap`` k >= 1 drops the pile 2^(k-1) and shrinks the last pile by
    as much, to 2^(n-1) - 1 - 2^(k-1), so the total falls by 2^k.
    """
    drop = 2 ** (gap - 1) if gap else 0
    return [2**i for i in range(n - 1) if 2**i != drop] + [2 ** (n - 1) - 1 - drop]


def _equality_games(total: int) -> list[tuple[str, Game]]:
    """All closed-form arrangements hitting the log2 floor, case-tagged.

    Most totals admit at most one; total 4 is the lone double hit
    ([1,1,1,1] and [2,2]).
    """
    out = []
    n = total.bit_length() - 1
    if total == 2**n and n >= 2:
        out.append(("equality-case1", Game(_chain(n) + [1, 1])))
    n = (total + 2).bit_length() - 1
    if total == 2**n - 2 and n >= 2:
        out.append(("equality-case2", Game(_chain(n))))
    # total = 2^n - 2^k - 2 has at most one such (n, k): the binary form
    # 111..1000 of total + 2 pins both exponents
    shifted = total + 2
    low = shifted & -shifted
    k = low.bit_length() - 1
    n = shifted.bit_length()
    if k >= 1 and n > k + 1 and shifted + low == 2**n:
        out.append(("equality-case3", Game(_chain(n, k))))
    return out


def equality_arrangements(
    total: int, solver: Optional[Solver] = None
) -> tuple[AllocationResult, ...]:
    """Every closed-form arrangement whose winner haul meets the log2 floor.

    Covers totals of the shapes 2^n, 2^n - 2, and 2^n - 2^k - 2 (with
    n > k + 1 >= 2); empty for any other total.  Total 4 fits two shapes,
    and the 2^n arrangement comes first.

    Raises:
        ParityError: odd totals admit no zero-nim-sum arrangement at all.
    """
    _require_even(total)
    return tuple(_verified(g, tag, solver) for tag, g in _equality_games(total))


def best_power_arrangement(n: int, solver: Optional[Solver] = None) -> AllocationResult:
    """The chain [1, 2, 4, ..., 2^(n-2), 2^(n-1)-1] with total 2^n - 2.

    The winner is forced down the chain one pile per turn, collecting
    n - 1 candies in all; for n = 2 the chain degenerates to [1, 1].
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _verified(Game(_chain(n)), "power-chain", solver)


def lemma_optimal_ply(g: Game) -> Ply:
    """Best loser ply in a gapped power chain: close the gap.

    ``g`` must consist of distinct powers 2^i for every i in 0..n-2
    except one missing exponent k-1, plus the pile 2^(n-1) - 1 - 2^(k-1).
    The ply reduces that last pile to 2^(k-1), completing the chain and
    leaving the winner exactly n - 1 candies.
    """
    powers = []
    rest = []
    for idx, size in enumerate(g.piles):
        if size & (size - 1) == 0:
            powers.append((idx, size))
        else:
            rest.append((idx, size))
    if len(rest) != 1:
        raise FamilyError(f"{g} does not have exactly one non-power pile")
    last_idx, last = rest[0]
    exps = sorted(size.bit_length() - 1 for _, size in powers)
    if len(set(exps)) != len(exps):
        raise FamilyError(f"{g} repeats a power of two")
    n = exps[-1] + 2 if exps else 2
    missing = sorted(set(range(n - 1)) - set(exps))
    if len(missing) != 1:
        raise FamilyError(f"{g} is not a power chain with one gap")
    k = missing[0] + 1
    if k > n - 2 or last != _chain(n, k)[-1]:
        raise FamilyError(f"{g} tail pile does not match its gap")
    return Ply(last_idx, 2 ** (k - 1))


def five_pile_construct(total: int, solver: Optional[Solver] = None) -> AllocationResult:
    """A P position of the given even total within the square-root haul cap.

    Builds the high-bits three-pile family split at half the leading
    exponent, pads the residue with a duplicate pair [d, d], and falls
    back to a sweep of smaller families (and the bare pair) whenever the
    template loses; the cheapest solver-verified candidate wins.

    Raises:
        ParityError: odd total.
        ConstructionError: no candidate meets the square-root cap.
    """
    _require_even(total)
    if total < 4:
        raise ValueError(f"need total >= 4, got {total}")

    def families() -> Iterator[tuple[str, Game]]:
        if total >= 16:
            split = (total.bit_length() - 1) // 2
            high = total & ~((1 << split) - 1)
            m = high // 2**split - 1
            yield "five-pile-template", g_family_realize(2 ** (split - 1) - 1, m, 0)
        for j in range(1, total.bit_length()):
            a = 2**j - 1
            m = 1
            while 2 ** (j + 1) * (m + 1) - 2 <= total:
                yield "five-pile-repair", g_family_realize(a, m, 0)
                m += 1
        yield "five-pile-repair", Game()

    cap = five_pile_upper(total)
    within: list[AllocationResult] = []
    # each family is built only once the one before it is solved
    for tag, family in families():
        # the rest of the total goes to a duplicate pair; Game drops [0, 0]
        d = (total - family.total) // 2
        game = Game(family.piles + (d, d))
        if game.total != total or game.grundy != 0 or len(game) > 5:
            raise InvariantError(f"bad candidate {game} for total {total}")
        result = _verified(game, tag, solver)
        if result.n_winner <= cap:
            within.append(result)
    if not within:
        raise ConstructionError(
            f"no arrangement of {total} met the cap {cap}"
        )
    return min(within, key=lambda r: (r.n_winner, _rank(r)))


def _rank(r: AllocationResult) -> tuple:
    # template beats repair on ties, then canonical pile order
    return (r.construction != "five-pile-template", r.game.piles)


# Steps the partition search may take before it gives up with BudgetError:
# one for each node it pops and one for each pile size it scans.  Total 262
# takes 4,989,835 steps and total 264 takes 5,246,006.
_PARTITION_BUDGET = 5_000_000


def _partitions(total: int, max_piles: int, max_pile: int) -> Iterator[tuple[int, ...]]:
    """Descending pile tuples with the given sum, grundy 0, within caps.

    A depth-first search over an explicit stack that yields in the order
    of the tuples' descending first pile, then second, and so on.  A node
    holds the candies still to place, the cap on the next pile, the piles
    left, the piles so far and their nim-sum; its children, the next pile
    sizes, are pushed smallest first, so the largest is searched first.

    The piles still to come must cancel the running nim-sum, and a child
    is pushed only if they can: their nim-sum is at most their sum, needs
    no more bits than the child's pile, under which they all stay, and has
    their sum's parity.  That parity test never changes down a path, so it
    is made once, on ``total``.  A size past ``(remaining + xor) // 2`` is
    not scanned: it leaves a nim-sum of at least ``size - xor``, which is
    more than the rest.
    """
    if total % 2:
        return
    stack = [(total, max_pile, max_piles, (), 0)]
    steps = 0
    while stack:
        remaining, cap, room, acc, xor = stack.pop()
        if remaining and room > 0:
            # the largest remaining pile must cover an even share
            sizes = range(max(1, -(-remaining // room)), min(cap, (remaining + xor) // 2) + 1)
        else:
            sizes = ()
        steps += 1 + len(sizes)
        if steps > _PARTITION_BUDGET:
            raise BudgetError(
                f"partition search for total {total} passed {_PARTITION_BUDGET} steps"
            )
        if not remaining:
            if acc:
                yield acc
            continue
        for size in sizes:
            rest, rest_xor = remaining - size, xor ^ size
            if rest_xor <= rest and rest_xor.bit_length() <= size.bit_length():
                stack.append((rest, size, room - 1, acc + (size,), rest_xor))


def exhaustive_min_winner(
    total: int,
    max_piles: int = 6,
    solver: Optional[Solver] = None,
) -> tuple[AllocationResult, ...]:
    """All minimum-haul P positions of the total, canonically ordered.

    Enumerates every zero-nim-sum pile multiset within the caps, then
    solves each and keeps the ones whose winner haul hits the minimum.
    The whole enumeration comes first, so a total whose partition search
    passes the budget raises before any position is solved.

    Raises:
        ParityError: odd total.
        BudgetError: the partition space exceeds the search budget.
    """
    _require_even(total)
    s = solver or _default_solver()
    best: Optional[int] = None
    keep: list[Game] = []
    for piles in list(_partitions(total, max_piles, total)):
        game = Game(piles)
        n_winner = _n_winner(s, game)
        if best is None or n_winner < best:
            best = n_winner
            keep = [game]
        elif n_winner == best:
            keep.append(game)
    if best is None:
        raise ConstructionError(f"no P position of total {total} within caps")
    keep.sort(key=lambda g: g.piles)
    return tuple(AllocationResult(g, best, "exhaustive") for g in keep)
