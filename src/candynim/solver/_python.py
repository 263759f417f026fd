"""Pure-Python value engine.

The recursion mirrors the game itself.  At a zero-nim-sum position the
loser is to move and may play anything, so the value is the best of
``candies_taken + V(child)`` over every ply.  At a nonzero position the
winner is to move but only plies restoring a zero nim-sum keep the win,
so the value is the least ``V(child) - candies_taken`` over those.

Only loser-to-move (P) positions are memoized, and the table stores
their values only.  A winner position's value is a fold over at most one
winning reply per pile, so caching it would buy back a handful of dict
lookups at the price of storing the far larger N-side state space; the
side to move is therefore implicit in every table key.  The table is a
plain dict on the engine, bounded by its entry cap.  A principal ply is
found again by rescoring the plies of the position it is played in, as
the native kernel does.

The oracle is one memoless function, :func:`oracle_entry`, which walks
the mover's plies once for either side; :func:`oracle_value` is its
first field.  It shares only the successor helper ``core._child`` and
the ply generator :func:`_plies` with the engine, so it stays an
independent check of the memoized search; :func:`_walk` strings the best
entries of either into a principal line.

Ties are broken identically everywhere, including in the oracle and the
native kernel: among plies of equal value, prefer the smallest
(successor piles, pile index, new size) triple, comparing successors as
canonical descending tuples.
"""

from __future__ import annotations

from ..core import _child, nim_sum
from ..errors import InvariantError, MemoBudgetError, NoMovesError


def _walk(entry_fn, piles: tuple) -> tuple:
    """``(value, plies)`` of the principal line, one ``entry_fn`` step each.

    ``entry_fn`` gives a position's ``(value, ply_index, new_size)``; the
    line follows its ply from each position down to the empty game.
    """
    value, plies = 0, []
    while piles:
        v, i, new = entry_fn(piles)
        if not plies:
            value = v
        plies.append((i, new))
        piles = _child(piles, i, new)
    return value, plies


def _best_plies(piles: tuple, scores: list) -> list:
    """The plies of ``piles`` whose score is the best of ``scores``.

    ``scores`` holds one score per ply in :func:`_plies` order, as
    :meth:`PyEngine.scores` gives them; the plies come back as
    ``(pile_index, new_size)`` in that order.  At a zero nim-sum position
    pile ``i`` owns the ``piles[i]`` scores after those of the piles
    before it, one per new size, so each best score's index decodes to
    its ply; a winner has at most one ply per pile, and those are zipped.
    """
    best = max(scores)
    g = nim_sum(piles)
    if g:
        return [ply for ply, score in zip(_plies(piles, g), scores) if score == best]
    out, i, start, k = [], 0, 0, -1
    for _ in range(scores.count(best)):
        k = scores.index(best, k + 1)
        while k - start >= piles[i]:
            start += piles[i]
            i += 1
        out.append((i, k - start))
    return out


def _best_entry(piles: tuple, scores: list) -> tuple:
    """``(value, ply_index, new_size)`` of the tie-break-optimal ply.

    Among the plies of the best score, the one with the smallest
    ``(child, ply_index, new_size)``; the value is the best score,
    negated for the winner.
    """
    i, new = min(_best_plies(piles, scores), key=lambda ply: (_child(piles, *ply), ply))
    best = max(scores)
    return (best if nim_sum(piles) == 0 else -best), i, new


class PyEngine:
    """Memoized exact engine over canonical pile tuples.

    ``table`` is a plain dict from each solved loser-to-move position to
    its value.  It raises :class:`MemoBudgetError` instead of growing
    past ``cap`` entries; ``hits`` and ``misses`` count the table probes
    of :meth:`_search`.  :meth:`scores` is the one call that scores every
    candidate ply of a position; :meth:`best_plies` keeps the plies of the
    best score, and :meth:`line` walks the principal ply that
    :func:`_best_entry` picks from those scores down to the empty game.
    """

    name = "python"

    def __init__(self, memo_cap: int):
        if memo_cap < 1:
            raise ValueError(f"table cap must be positive, got {memo_cap}")
        self.cap = memo_cap
        self.hits = 0
        self.misses = 0
        self.table: dict = {}

    def solve_value(self, piles: tuple) -> int:
        """Exact value of any position (either side to move)."""
        if not piles:
            return 0
        g = nim_sum(piles)
        if g == 0:
            return self._search(piles)
        return self._n_value(piles, g)

    def _search(self, piles: tuple) -> int:
        # piles is a nonempty P position: loser to move, maximizing.  It
        # has two piles or more, so every child is nonempty, and the
        # child's nim-sum is p ^ new.
        v = self.table.get(piles)
        if v is not None:
            self.hits += 1
            return v
        self.misses += 1
        v = max([
            p - new + self._n_value(_child(piles, i, new), p ^ new)
            for i, p in enumerate(piles)
            for new in range(p)
        ])
        if len(self.table) >= self.cap:
            raise MemoBudgetError(
                f"transposition table reached its cap of {self.cap} entries; "
                "raise memo_cap to solve this position"
            )
        self.table[piles] = v
        return v

    def _n_value(self, piles: tuple, g: int) -> int:
        # Winner to move, minimizing over nim-sum-restoring plies only.
        best = None
        for i, p in enumerate(piles):
            target = g ^ p
            if target < p:
                child = _child(piles, i, target)
                v = (self._search(child) if child else 0) - (p - target)
                if best is None or v < best:
                    best = v
        if best is None:
            raise InvariantError(f"no winning ply in N position {piles}")
        return best

    def scores(self, piles: tuple) -> list:
        """The score of every candidate ply, in :func:`_plies` order.

        A ply scores the candies it takes plus the child's value when the
        loser moves, or minus it when the winner moves, as in
        :func:`oracle_entry`; the best score is the value, negated for the
        winner.
        """
        g = nim_sum(piles)
        sign = 1 if g == 0 else -1
        return [
            piles[i] - new + sign * self.solve_value(_child(piles, i, new))
            for i, new in _plies(piles, g)
        ]

    def best_plies(self, piles: tuple) -> list:
        """The plies of the best score, as :func:`_best_plies` picks them; ``[]`` for ``()``."""
        return _best_plies(piles, self.scores(piles)) if piles else []

    def line(self, piles: tuple) -> tuple:
        """``(value, plies)`` of the principal line; ``(0, [])`` for ``()``."""
        return _walk(lambda p: _best_entry(p, self.scores(p)), piles)

    def stats(self) -> dict:
        return {
            "entries": len(self.table),
            "hits": self.hits,
            "misses": self.misses,
            "cap": self.cap,
            "engine": self.name,
        }


def _plies(piles: tuple, g: int):
    """The mover's candidate plies as ``(pile_index, new_size)``, ascending.

    ``g`` is the nim-sum of ``piles``.  The loser (``g == 0``) may play
    every ply; the winner only the plies that restore a zero nim-sum.
    """
    for i, p in enumerate(piles):
        if g == 0:
            for new in range(p):
                yield i, new
        elif g ^ p < p:
            yield i, g ^ p


def oracle_value(piles: tuple) -> int:
    """Memoless reference value; exponential, for cross-checking only."""
    return oracle_entry(piles)[0] if piles else 0


def oracle_entry(piles: tuple) -> tuple:
    """Oracle twin of :func:`_best_entry` on engine scores, same tie-break.

    Each ply scores the candies it takes, plus the child's value when the
    loser moves or minus it when the winner moves, so both sides maximize
    the score and the value is the best score, negated for the winner.
    """
    if not piles:
        raise NoMovesError("the empty game has no moves")
    g = nim_sum(piles)
    sign = 1 if g == 0 else -1
    best = None
    for i, new in _plies(piles, g):
        child = _child(piles, i, new)
        cand = (-(piles[i] - new + sign * oracle_value(child)), child, i, new)
        if best is None or cand < best:
            best = cand
    return -sign * best[0], best[2], best[3]
