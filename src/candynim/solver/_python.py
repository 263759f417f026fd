"""Pure-Python value engine.

The recursion mirrors the game itself.  At a zero-nim-sum position the
loser is to move and may play anything, so the value is the best of
``candies_taken + V(child)`` over every ply.  At a nonzero position the
winner is to move but only plies restoring a zero nim-sum keep the win,
so the value is the least ``V(child) - candies_taken`` over those.

Only loser-to-move (P) positions are memoized.  A winner position's
value is a fold over at most one winning reply per pile, so caching it
would buy back a handful of dict lookups at the price of storing the far
larger N-side state space; the side to move is therefore implicit in
every table key.  The table is a plain dict on the engine, bounded by
its entry cap.

The oracle is one memoless function, :func:`oracle_entry`, which walks
the mover's plies once for either side; :func:`oracle_value` is its
first field.  It shares only :func:`_child` with the engine, so it stays
an independent check of the memoized search; :func:`_walk` strings the
best entries of either into a principal line.

Ties are broken identically everywhere, including in the oracle and the
native kernel: among plies of equal value, prefer the smallest
(successor piles, pile index, new size) triple, comparing successors as
canonical descending tuples.
"""

from __future__ import annotations

from ..core import nim_sum
from ..errors import InvariantError, MemoBudgetError, NoMovesError


def _child(piles: tuple, i: int, new: int) -> tuple:
    """Canonical successor after pile ``i`` drops to ``new``."""
    rest = piles[:i] + piles[i + 1 :]
    if not new:
        return rest
    return tuple(sorted(rest + (new,), reverse=True))


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


class PyEngine:
    """Memoized exact engine over canonical pile tuples.

    ``table`` is a plain dict from each solved loser-to-move position to
    ``(value, ply_index, new_size)`` of its tie-break-optimal ply.  It
    raises :class:`MemoBudgetError` instead of growing past ``cap``
    entries; ``hits`` and ``misses`` count the probes of :meth:`_search`.
    :meth:`scores` is the one call that scores every candidate ply of a
    position; :meth:`line` walks :meth:`best_entry` down to the empty game.
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
        g = 0
        for p in piles:
            g ^= p
        if g == 0:
            return self._search(piles)
        return self._n_value(piles, g)

    def _search(self, piles: tuple) -> int:
        # piles is a nonempty P position: loser to move, maximizing.
        entry = self.table.get(piles)
        if entry is not None:
            self.hits += 1
            return entry[0]
        self.misses += 1
        best_v = None
        best_key = None
        for i, p in enumerate(piles):
            for new in range(p):
                child = _child(piles, i, new)
                if child:
                    cg = 0
                    for q in child:
                        cg ^= q
                    v = (p - new) + self._n_value(child, cg)
                else:
                    v = p - new
                if best_v is None or v > best_v or (v == best_v and (child, i, new) < best_key):
                    best_v = v
                    best_key = (child, i, new)
        if len(self.table) >= self.cap:
            raise MemoBudgetError(
                f"transposition table reached its cap of {self.cap} entries; "
                "raise memo_cap to solve this position"
            )
        self.table[piles] = (best_v, best_key[1], best_key[2])
        return best_v

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

    def best_entry(self, piles: tuple) -> tuple:
        """``(value, ply_index, new_size)`` of the tie-break-optimal ply."""
        if not piles:
            raise NoMovesError("the empty game has no moves")
        g = 0
        for p in piles:
            g ^= p
        if g == 0:
            self._search(piles)
            return self.table[piles]
        best = None
        for i, p in enumerate(piles):
            target = g ^ p
            if target < p:
                child = _child(piles, i, target)
                v = (self._search(child) if child else 0) - (p - target)
                cand = (v, child, i, target)
                if best is None or cand < best:
                    best = cand
        return best[0], best[2], best[3]

    def scores(self, piles: tuple) -> list:
        """The score of every candidate ply, in :func:`_plies` order.

        A ply scores the candies it takes plus the child's value when the
        loser moves, or minus it when the winner moves, as in
        :func:`oracle_entry`; the best score is the value, negated for the
        winner.
        """
        g = nim_sum(piles)
        sign = 1 if g == 0 else -1
        out = []
        for i, new in _plies(piles, g):
            child = _child(piles, i, new)
            out.append(piles[i] - new + sign * (self.solve_value(child) if child else 0))
        return out

    def line(self, piles: tuple) -> tuple:
        """``(value, plies)`` of the principal line of a nonempty position."""
        return _walk(self.best_entry, piles)

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
    """Oracle twin of :meth:`PyEngine.best_entry`, same tie-break.

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
