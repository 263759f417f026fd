"""Exact solver facade.

:class:`Solver` wraps two interchangeable engines behind one interface:
a native kernel over a flat table of packed 64-bit keys, and the
pure-Python engine in :mod:`candynim.solver._python`.  Both implement
the same recursion and the same tie-break, so every result is
engine-independent; ``auto`` runs a game on the kernel unless the
kernel refuses it.  Each engine answers three calls: ``solve_value`` for
a value, ``line`` for a principal line, and ``best_plies`` for the plies
of the best score among a position's candidate plies, the one call
behind :meth:`Solver.best_plies`.  Each engine scans a position's plies
in one loop, which serves both ``line`` and ``best_plies``: the kernel's
``score_plies`` in C, scoring each ply under the floor that the value
sets, and the Python engine's exact ``scores``.

The kernel, ``candynim.solver._kernel``, is the hand-written C extension
``_kernel.c``; building it needs a C compiler.  Where it was not built,
``auto`` runs on Python and ``native`` raises :class:`EngineError`.  The
kernel is the only judge of which games it takes: each query makes one
kernel call, which refuses a game with :class:`EngineError` before any
search, and ``auto`` then asks the Python engine.

The kernel keys each position by its own width: a position of ``n``
piles gives every pile a ``62 // n``-bit field, highest pile first, and
stores that width beside the key.  Its table hashes a key with one
multiply (Fibonacci hashing) and probes linearly.  A kernel search past
its depth budget raises :class:`BudgetError` (exit 3); ``engine="python"``
still answers it.  Before it probes or searches a position the kernel
drops every equal pile pair from it, which never changes a value; the
Python engine keeps the pairs, so it stays an independent check of that shortcut.  The
kernel's value search also prunes: a nonempty zero nim-sum position of
total ``t`` is worth at most ``t - 2``, since the winner takes the last
candy, and a loser's ply whose bound from that fact cannot beat the best
ply found is never searched.  It bounds whole aligned blocks of such plies
at once, skipping the same plies with fewer checks, and builds each of the
winner's reply positions in one step from the position before the loser's
ply.  At 3 piles, the width of the paper's families and of most of a
cold search, the search scores a loser's ply in place: the ply has one
winner reply, on the other pile that holds the leading bit of the child's
nim-sum, and the reply position is a sort of three numbers, the loser's
new size, the reply's target and the pile neither touched.  Their nim-sum
is zero, so if one of the first two is zero the other two are an equal
pair and the reply leaves the empty game; otherwise they are three
distinct piles, with no pair to drop.  The search probes that position's
slot itself and recurses only on a miss.  The 3-pile path changes what a
searched ply costs, never which plies are searched.

A principal line drops a ply on the first reply that proves it short of
the value already known.  Plies are scanned by pile index, then new size.
Over the first pile of each run of equal piles that order increases in
the child's canonical tuple, and a ply on a later pile of a run leaves
the same child, taking as much, as the same ply on the run's first pile,
scanned before it.  So the first ply of the best score is the tie-break's
pick, and the kernel's line takes it without comparing children.  The Python engine scans every
ply and breaks ties by explicit child keys, so it checks the pruning and
the scan-order tie-break too.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

from ..core import Game, Ply, _plies_of
from ..errors import (
    BudgetError,
    EngineError,
    InvariantError,
    PileCapError,
)
from ._python import PyEngine, _walk, oracle_entry

try:
    from . import _kernel
except ImportError:  # pure-Python install
    _kernel = None

ENGINES = ("auto", "native", "python")
DEFAULT_PILE_CAP = 2**16
DEFAULT_MEMO_CAP = 10_000_000
DEFAULT_ORACLE_CAP = 16

# The largest limit sys.setrecursionlimit accepts (it takes a C int).
_MAX_RECURSION_LIMIT = 2**31 - 1


def kernel_available() -> bool:
    return _kernel is not None


# The package's one dataclass: the benchmark's own tests build a wrong result
# from a real one with dataclasses.replace.
@dataclass(frozen=True)
class SolveResult:
    """Value, candy split, and one optimal line for a solved game.

    ``value`` is loser candies minus winner candies under optimal play by
    both.  ``principal_line`` lists the plies of one optimal play-through,
    each indexed against the canonical form of the position it is played in.
    """

    game: Game
    value: int
    n_loser: int
    n_winner: int
    principal_line: tuple[Ply, ...]

    def steps(self):
        """Yield ``(position, mover, ply, take)`` along the line.

        ``mover`` is ``"L"`` when the position has zero nim-sum (loser to
        move) and ``"W"`` otherwise.
        """
        pos = self.game
        for ply in self.principal_line:
            mover = "L" if pos.grundy == 0 else "W"
            yield pos, mover, ply, pos.candies(ply)
            pos = pos.apply(ply)
        if pos:
            raise InvariantError(f"optimal line stops early at {pos}")

    def to_json_dict(self) -> dict:
        return {
            "game": list(self.game.piles),
            "value": self.value,
            "n_loser": self.n_loser,
            "n_winner": self.n_winner,
            "line": [
                {"pile": ply.pile_index, "from": pos[ply.pile_index], "to": ply.new_size}
                for pos, _, ply, _ in self.steps()
            ],
        }


def _solved(game: Game, line) -> SolveResult:
    """Result for a game from its ``(value, plies)`` line.

    Fills the instance's ``__dict__`` directly in place of the frozen
    dataclass ``__init__``, which sets each field through
    ``object.__setattr__``; the result is the same.
    """
    value, plies = line
    n_loser, n_winner = _split(game.total, value)
    result = object.__new__(SolveResult)
    fields = result.__dict__
    fields["game"] = game
    fields["value"] = value
    fields["n_loser"] = n_loser
    fields["n_winner"] = n_winner
    fields["principal_line"] = _plies_of(plies)
    return result


def _with_room(total: int, fn, *args):
    """``fn(*args)`` with Python stack room for a game of ``total`` candies.

    The Python engine recurses about two frames per candy.  The recursion
    limit is raised for the call only and restored after it, so the host
    process keeps its own.  The request is clamped at
    ``_MAX_RECURSION_LIMIT``.  Only Python engine calls take this path;
    the kernel recurses on the C stack under its own depth budget.
    """
    need = 2 * total + 1000
    need = need if need < _MAX_RECURSION_LIMIT else _MAX_RECURSION_LIMIT
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(need if need > old else old)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(old)


def _split(total: int, value: int) -> tuple[int, int]:
    if (total + value) % 2:
        raise InvariantError(f"value {value} has wrong parity for total {total}")
    n_loser = (total + value) // 2
    return n_loser, total - n_loser


def _n_winner(solver: "Solver", game: Game) -> int:
    """The winner's candies under optimal play, from the value alone."""
    return _split(game.total, solver.value(game))[1]


class Solver:
    """Reusable exact solver with engine selection and shared tables.

    Args:
        engine: ``"auto"``, ``"native"``, or ``"python"``.  ``auto``
            uses the kernel whenever it is built, unless the kernel
            refuses the game, and Python otherwise.  ``native`` raises the
            kernel's errors: :class:`EngineError` for a game it does not take,
            :class:`BudgetError` for a search past its depth budget.
        pile_cap: largest root pile accepted by :meth:`solve`.
        memo_cap: transposition-table entry budget, per engine.

    Tables persist across calls: each engine keeps one table for all
    games.  The kernel's keys carry each position's own width, with its
    equal pile pairs dropped, so a tail solved under one root is reused
    under another; the Python engine keys plain canonical tuples.
    """

    def __init__(
        self,
        engine: str = "auto",
        pile_cap: int = DEFAULT_PILE_CAP,
        memo_cap: int = DEFAULT_MEMO_CAP,
    ):
        if engine not in ENGINES:
            raise EngineError(f"unknown engine {engine!r}")
        if engine == "native" and _kernel is None:
            raise EngineError("the native kernel is not built in this install")
        self.engine = engine
        self.pile_cap = pile_cap
        self.memo_cap = memo_cap
        self._py: PyEngine | None = None
        self._native = None

    # -- engine plumbing ------------------------------------------------

    def _run(self, method: str, game: Game):
        """``method(piles)`` on the engine that takes the game.

        That is the kernel, unless the engine is ``python``, or it is
        ``auto`` and the kernel refuses the game with :class:`EngineError`,
        which it does before any search.  Python runs after the ``except``
        block, so its own errors do not carry the refusal as ``__context__``.
        """
        piles = game.piles
        if self.engine != "python" and _kernel is not None:
            if self._native is None:
                self._native = _kernel.NativeEngine(self.memo_cap)
            try:
                return getattr(self._native, method)(piles)
            except EngineError:
                if self.engine == "native":
                    raise
        if self._py is None:
            self._py = PyEngine(self.memo_cap)
        return _with_room(game.total, getattr(self._py, method), piles)

    def _check_caps(self, game: Game) -> None:
        if game and game[0] > self.pile_cap:
            raise PileCapError(
                f"pile {game[0]} exceeds the solver cap {self.pile_cap}; "
                "raise pile_cap to accept it"
            )

    # -- public API -----------------------------------------------------

    def value(self, game: Game) -> int:
        """Optimal loser-minus-winner candy difference."""
        self._check_caps(game)
        return self._run("solve_value", game)

    def solve(self, game: Game, workers: int = 1) -> SolveResult:
        """Value, candy split, and an optimal line.

        ``workers`` is ignored: the result is the one serial search's.  It
        stays for callers that still pass it.
        """
        self._check_caps(game)
        return _solved(game, self._run("line", game))

    def best_plies(self, game: Game) -> tuple[Ply, ...]:
        """Every value-optimal ply for the player to move, ascending.

        For a zero nim-sum position these are the loser's best grabs; for
        anything else, the winner's cheapest winning plies.  Ordered by
        ``(pile_index, new_size)``.  One engine call, ``best_plies``,
        scores every candidate ply and keeps the plies of the best score.
        """
        self._check_caps(game)
        return _plies_of(self._run("best_plies", game))

    def oracle_solve(self, game: Game) -> SolveResult:
        """Solve by memoless reference recursion (cross-check path).

        Exponential in the candy total, hence the ``DEFAULT_ORACLE_CAP`` fence.
        The oracle is plain Python whatever the solver's engine, so it
        stays independent of the engines it checks; it shares their
        tie-break, so the result equals :meth:`solve` whenever both are
        in budget.
        """
        self._check_caps(game)
        if game.total > DEFAULT_ORACLE_CAP:
            raise BudgetError(
                f"oracle budget is {DEFAULT_ORACLE_CAP} total candies, got {game.total}"
            )
        return _solved(game, _walk(oracle_entry, game.piles))

    def stats(self) -> list[dict]:
        """Per-engine table statistics, native rows first.

        Rows have ``entries``, ``hits``, ``misses``, ``cap`` and
        ``engine``.  The Python engine gives one ``"python"`` row.  The
        kernel's one table gives one ``"native[w]"`` row per width ``w`` it
        has probed, counting the positions of ``w`` piles once their pairs
        are dropped; ``cap`` is the whole table's.  In both engines
        ``entries`` counts the loser-to-move positions stored, and ``hits``
        and ``misses`` count table probes, one each time the engine reaches
        a loser-to-move position, principal lines included.  The kernel's
        search is pruned, so its hits and misses count the probes it makes,
        not every loser-to-move position a full scan would reach.  It skips
        the loser's plies by whole blocks, but searches exactly the plies a
        one-at-a-time scan would, so blocks do not change the counts; a
        principal line and ``best_plies`` stop scoring a ply once it falls
        short of the value, and at a loser-to-move position the kernel's
        line scores no ply after the first that reaches it, which saves
        probes where piles repeat.
        """
        out = self._native.stats() if self._native is not None else []
        if self._py is not None:
            out.append(self._py.stats())
        return out


@functools.cache
def _default_solver() -> Solver:
    """The one module-wide solver behind every call that is given none."""
    return Solver()


def solve(game: Game) -> SolveResult:
    """Solve with the module default solver."""
    return _default_solver().solve(game)


def value(game: Game) -> int:
    return _default_solver().value(game)


def best_plies(game: Game) -> tuple[Ply, ...]:
    return _default_solver().best_plies(game)


def oracle_solve(game: Game, **kwargs) -> SolveResult:
    """Oracle-solve on the default solver, or on ``Solver(**kwargs)``."""
    return (Solver(**kwargs) if kwargs else _default_solver()).oracle_solve(game)
