"""Positions, plies, and the bit algebra of candy Nim.

Candy Nim is ordinary Nim with a side pot: every chip a player removes
goes into that player's own candy bag.  The player facing a zero nim-sum
(the loser, under optimal play) cannot change who wins, so both players
fight over candy instead: the loser grabs as much as possible on the way
down while the winner, restricted to plies that keep the win in hand,
concedes as little as possible.

This module holds the position model shared by everything else: the
canonical :class:`Game`, single plies, validated loser/winner turn pairs,
the 𝔊(a, m, x) three-pile family, and small closed-form helpers.
:func:`_child` is the one successor helper: :meth:`Game.apply`, both
engines and the oracle all step from a canonical tuple to its child
through it.  Beside it, :func:`_ply_row` is the one ply factory: it keeps
one row of shared :class:`Ply` instances per pile index, which
:func:`_plies_of` indexes for the engines' ``(pile_index, new_size)``
pairs and :func:`loser_moves` slices.  The value recursion itself lives
in :mod:`candynim.solver`.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import (
    FamilyError,
    IllegalMoveError,
    InvariantError,
    NoMovesError,
    ParseError,
    PileCapError,
)

# Hard ceiling for any single pile anywhere in the toolkit.  The solver
# applies a much smaller default cap on top of this.
PILE_CAP = 2**32 - 1

# ASCII whitespace, the only whitespace any notation accepts; it is what
# \s matches under re.ASCII
_SPACE = " \t\n\r\f\v"
_GAME_RE = re.compile(
    r"^\s*(\[\s*(?P<inner>[^\[\]]*)\s*\]|(?P<bare>[^\[\]]*))\s*$", re.ASCII
)
_PILE_RE = re.compile(r"[0-9]+")
# the digits of PILE_CAP: a field with more significant digits is over it
_CAP_DIGITS = len(str(PILE_CAP))
# the game text that needs no field-by-field check: a comma-separated list of
# _PILE_RE fields of at most _CAP_DIGITS digits, each with its whitespace,
# bracketed or bare, with whitespace around it; group 2 is the list
_FIELD = rf"\s*[0-9]{{1,{_CAP_DIGITS}}}\s*"
_LIST_RE = re.compile(rf"\s*(\[)?({_FIELD}(?:,{_FIELD})*)(?(1)\])\s*", re.ASCII)


def _shown(n) -> str:
    """``str(n)``, or a name such as ``<16610-bit int>`` for an int too long for it.

    ``str()`` refuses an int past the interpreter's digit limit (4,300 digits
    by default) with ``ValueError``; such an int is named by its bit length.
    """
    try:
        return str(n)
    except ValueError:
        return f"<{'negative ' if n < 0 else ''}{n.bit_length()}-bit int>"


def _over_cap(pile) -> PileCapError:
    return PileCapError(f"pile {_shown(pile)} exceeds the hard cap {PILE_CAP}")


def _fields(text: str) -> list:
    """The pile fields of game text that ``_LIST_RE`` does not match whole.

    Raises the text's :class:`ParseError`, or :class:`PileCapError` for a
    field with more significant digits than ``PILE_CAP``; ``[]`` for the
    empty game.
    """
    m = _GAME_RE.match(text)
    if m is None:
        raise ParseError(f"unbalanced brackets in game notation: {text!r}")
    inner = m.group("inner")
    if inner is None:
        inner = m.group("bare") or ""
    inner = inner.strip(_SPACE)
    if not inner:
        return []
    fields = [field.strip(_SPACE) for field in inner.split(",")]
    for field in fields:
        if not _PILE_RE.fullmatch(field):
            raise ParseError(f"bad pile size {field!r} in game notation {text!r}")
    # int() takes at most 4,300 digits, leading zeros included, so a field
    # goes to it without them, and one with more significant digits than
    # PILE_CAP is over the cap before it is converted
    fields = [field.lstrip("0") or "0" for field in fields]
    for digits in fields:
        if len(digits) > _CAP_DIGITS:
            raise _over_cap(digits)
    return fields


class OutcomeClass(Enum):
    """Winner-loser classification of the player to move."""

    P = "P"  # zero nim-sum: the mover loses with best play
    N = "N"  # nonzero nim-sum: the mover wins with best play


def nim_sum(piles: Iterable[int]) -> int:
    """Bitwise xor of the pile sizes (the Nim winner test)."""
    total = 0
    for p in piles:
        total ^= p
    return total


def _child(piles: tuple, i: int, new: int) -> tuple:
    """Canonical successor of canonical ``piles`` after pile ``i`` drops to ``new``.

    Edits the tuple in place of re-canonicalising it: pile ``i`` is cut
    out and ``new``, which is below it, is inserted where the descending
    order puts it, so the cost is linear in the pile count.  A falsy
    ``new`` drops the pile.
    """
    if not new:
        return piles[:i] + piles[i + 1 :]
    j = i + 1
    while j < len(piles) and piles[j] > new:
        j += 1
    return piles[:i] + piles[i + 1 : j] + (new,) + piles[j:]


def _check_pile(p) -> None:
    """Raise the error of a pile size ``Game()`` does not take."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ParseError(f"pile sizes must be integers, got {p!r}")
    if p < 0:
        raise ParseError(f"pile sizes must be nonnegative, got {_shown(p)}")
    if p > PILE_CAP:
        raise _over_cap(p)


class _Record:
    """Base of the package's frozen records, each a dataclass written out.

    A subclass declares its fields as class annotations, in order, and its
    ``__init__`` fills them into ``__dict__``.  The base gives it what
    ``@dataclass(frozen=True)`` would: the field-by-field ``repr``, ``==``
    against the same class only, ``hash`` of the tuple of fields, and an
    ``AttributeError`` on any attribute assignment or deletion.  Written
    out because ``dataclasses`` execs generated source for every method
    of every class when the package is imported.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = self.__dict__
        body = ", ".join(f"{name}={fields[name]!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class _Ordered(_Record):
    """A record ordered as ``@dataclass(order=True)``: by its tuple of fields."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented


class Game(_Ordered):
    """A multiset of pile sizes in canonical form.

    Canonical form drops empty piles and sorts descending, so two games
    compare equal exactly when they are the same multiset.  Instances are
    immutable and hashable; ``piles`` is always a tuple.
    """

    piles: tuple[int, ...]

    def __init__(self, piles: Iterable[int] = ()):
        cleaned = []
        for p in piles:
            # a plain int within the cap passes at one test; any other pile
            # takes the full checks, which raise its error or let it through
            if type(p) is not int or not 0 <= p <= PILE_CAP:
                _check_pile(p)
            if p:
                cleaned.append(p)
        cleaned.sort(reverse=True)
        self.__dict__["piles"] = tuple(cleaned)

    @classmethod
    def parse(cls, text: str) -> "Game":
        """Parse ``"[1,2,3]"`` or ``"1,2,3"`` (ASCII whitespace ignored).

        Text that ``_LIST_RE`` matches whole is converted at once; any other
        text, the empty game included, goes field by field through
        :func:`_fields`, which names its error.
        """
        m = _LIST_RE.fullmatch(text)
        # int() skips the ASCII whitespace around each field
        piles = list(map(int, m.group(2).split(",") if m else _fields(text)))
        # Every pile is a nonnegative int, so only the cap is left to check;
        # Game() raises its error, message and all, at the first pile over it.
        if max(piles, default=0) > PILE_CAP:
            return cls(piles)
        piles.sort(reverse=True)
        while piles and not piles[-1]:
            piles.pop()
        return cls._canonical(tuple(piles))

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.piles) + "]"

    def __len__(self) -> int:
        return len(self.piles)

    def __iter__(self) -> Iterator[int]:
        return iter(self.piles)

    def __getitem__(self, i: int) -> int:
        return self.piles[i]

    def __bool__(self) -> bool:
        return bool(self.piles)

    def __add__(self, other: "Game") -> "Game":
        if not isinstance(other, Game):
            return NotImplemented
        return Game(self.piles + other.piles)

    @property
    def total(self) -> int:
        """Total candy on the table."""
        return sum(self.piles)

    @property
    def grundy(self) -> int:
        """Nim-sum of the piles (a Nim pile's Grundy value is its size)."""
        return nim_sum(self.piles)

    @property
    def outcome(self) -> OutcomeClass:
        return OutcomeClass.P if self.grundy == 0 else OutcomeClass.N

    def _old_size(self, ply: "Ply") -> int:
        """The size of the pile ``ply`` shrinks; IllegalMoveError if it cannot."""
        if not 0 <= ply.pile_index < len(self.piles):
            raise IllegalMoveError(f"no pile {_shown(ply.pile_index)} in {self}")
        old = self.piles[ply.pile_index]
        if not 0 <= ply.new_size < old:
            raise IllegalMoveError(
                f"pile {ply.pile_index} of {self} is {old}; "
                f"cannot set it to {_shown(ply.new_size)}"
            )
        return old

    @classmethod
    def _canonical(cls, piles: tuple[int, ...]) -> "Game":
        """Wrap a tuple that is already canonical and validated, unchecked."""
        game = object.__new__(cls)
        game.__dict__["piles"] = piles
        return game

    def apply(self, ply: "Ply") -> "Game":
        """The position after ``ply``, back in canonical form.

        A linear edit of the canonical tuple through :func:`_child`.  A
        ply of plain ``int`` fields that :meth:`_old_size` would pass takes
        it at once.  Any other ply goes through :meth:`_old_size`, which
        raises its error; then a falsy ``new_size`` drops the pile, and any
        other ``new_size`` that is not a plain ``int`` goes through
        ``Game()``, which validates it.
        """
        piles, i, new = self.piles, ply.pile_index, ply.new_size
        if type(i) is int and type(new) is int and 0 <= i < len(piles) and 0 <= new < piles[i]:
            # _canonical inline: a sweep applies tens of thousands of plies
            game = object.__new__(Game)
            game.__dict__["piles"] = _child(piles, i, new)
            return game
        self._old_size(ply)
        if new and type(new) is not int:
            return Game(piles[:i] + piles[i + 1 :] + (new,))
        return Game._canonical(_child(piles, i, new))

    def candies(self, ply: "Ply") -> int:
        """How much the mover banks by playing ``ply`` here."""
        return self._old_size(ply) - ply.new_size


class Ply(_Ordered):
    """One move: pile ``pile_index`` (canonical order) drops to ``new_size``."""

    pile_index: int
    new_size: int

    def __init__(self, pile_index: int, new_size: int):
        fields = self.__dict__
        fields["pile_index"] = pile_index
        fields["new_size"] = new_size

    def describe(self, game: Game) -> str:
        """Render as ``"5->2"`` against the position the ply applies to."""
        return f"{game[self.pile_index]}->{self.new_size}"


# Shared plies, one row per pile index: row i holds Ply(i, 0), Ply(i, 1), ...,
# so the plies that drop pile i below size p are the first p of its row.  A
# row grows only when a longer one is asked for, and only if the whole of it
# fits under _PLY_CAP plies over all rows, so the moves of one huge pile
# cannot grow the table without limit; past the cap plies come fresh.
_PLY_CAP = 1024
_PLY_ROWS: list = []


def _ply_row(i: int, size: int) -> list:
    """Row ``i`` of the shared plies, grown to ``size`` plies if they fit.

    The row comes back shorter than ``size`` when the cap leaves no room
    for the rest of it.
    """
    rows = _PLY_ROWS
    if i < len(rows) and len(rows[i]) >= size:
        return rows[i]
    while len(rows) <= i:
        rows.append([])
    row = rows[i]
    if sum(map(len, rows)) + size - len(row) <= _PLY_CAP:
        row += [Ply(i, new) for new in range(len(row), size)]
    return row


def _plies_of(pairs) -> tuple[Ply, ...]:
    """The ``Ply`` of each ``(pile_index, new_size)`` pair, as a tuple.

    ``pairs`` is a list, such as the engines and :func:`winning_moves`
    give.  A pair's ``Ply`` is built once and then shared from its row of
    ``_PLY_ROWS`` while the table has room; a ``Ply`` is immutable, so a
    shared one behaves exactly as a fresh one.
    """
    rows = _PLY_ROWS
    try:
        return tuple([rows[i][new] for i, new in pairs])
    except IndexError:
        out = []
        for i, new in pairs:
            row = _ply_row(i, new + 1)
            out.append(row[new] if new < len(row) else Ply(i, new))
        return tuple(out)


def loser_moves(game: Game) -> tuple[Ply, ...]:
    """Every legal ply, one per (pile, target size) pair.

    The loser is free to play anything.  The count always equals the candy
    total, since pile ``p`` contributes plies to sizes ``0..p-1``: the
    first ``p`` of its row of shared plies.
    """
    if not game:
        raise NoMovesError("the empty game has no moves")
    plies = []
    for i, p in enumerate(game.piles):
        row = _ply_row(i, p)
        plies += row[:p] if len(row) >= p else row + [Ply(i, new) for new in range(len(row), p)]
    return tuple(plies)


def winning_moves(game: Game) -> tuple[Ply, ...]:
    """Plies that restore a zero nim-sum, in canonical pile order.

    Empty for P positions.  At most one ply per pile: the target size
    ``grundy ^ pile`` is forced, and it is a reduction only when the pile
    contains the leading bit of the nim-sum.
    """
    piles = game.piles
    g = 0
    for p in piles:
        g ^= p
    if not g:
        return ()
    return _plies_of([(i, g ^ p) for i, p in enumerate(piles) if g ^ p < p])


def unique_response(game: Game, ply: Ply) -> Ply:
    """The winner's only reply after a loser ply in a ≤3-pile P position.

    With at most three piles the position after any loser ply admits
    exactly one winning ply; this returns it, indexed against the
    canonical form of ``game.apply(ply)``.

    Args:
        game: a P position with at most three piles.
        ply: the loser's ply into ``game``.

    Raises:
        FamilyError: if ``game`` has more than three piles or is not P.
        InvariantError: if the reply is not unique (believed impossible).
    """
    if len(game.piles) > 3:
        raise FamilyError(f"unique replies are only guaranteed for <=3 piles, got {game}")
    if nim_sum(game.piles):
        raise FamilyError(f"{game} is not a P position")
    after = game.apply(ply)
    replies = winning_moves(after)
    if len(replies) != 1:
        raise InvariantError(
            f"expected exactly one winning reply in {after}, found {len(replies)}"
        )
    return replies[0]


class Turn(_Record):
    """A validated loser ply plus the winner's reply.

    ``before`` must be a nonempty P position, ``after_loser`` the N
    position the loser leaves, and ``after_winner`` the P position the
    winner restores.  Both steps are checked to be single plies.
    """

    before: Game
    after_loser: Game
    after_winner: Game

    def __init__(self, before: Game, after_loser: Game, after_winner: Game):
        fields = self.__dict__
        fields["before"] = before
        fields["after_loser"] = after_loser
        fields["after_winner"] = after_winner
        if not before.piles:
            raise IllegalMoveError("a turn cannot start from the empty game")
        if nim_sum(before.piles):
            raise IllegalMoveError(f"turns start from P positions, got {before}")
        if not nim_sum(after_loser.piles):
            raise IllegalMoveError(
                f"the loser cannot reach {after_loser} from {before}"
            )
        if nim_sum(after_winner.piles):
            raise IllegalMoveError(
                f"the winner must restore a P position, got {after_winner}"
            )
        _pile_change(before, after_loser)
        _pile_change(after_loser, after_winner)

    @property
    def loser_take(self) -> int:
        return self.before.total - self.after_loser.total

    @property
    def winner_take(self) -> int:
        return self.after_loser.total - self.after_winner.total


def _pile_change(g: Game, h: Game) -> tuple[int, int]:
    """``(old_size, new_size)`` of the one pile that shrank from g to h.

    ``new_size`` is 0 when the pile emptied.  Raises IllegalMoveError
    unless h arises from g by reducing exactly one pile.  Reads the
    canonical tuples as they are in place of re-counting them as
    multisets: one merge walk over the two descending sequences collects
    the sizes only in g and the sizes only in h.
    """
    a, b = g.piles, h.piles
    gone, came = [], []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
        elif a[i] > b[j]:
            gone.append(a[i])
            i += 1
        else:
            came.append(b[j])
            j += 1
    gone += a[i:]
    came += b[j:]
    if len(gone) == 1 and len(came) <= 1:
        old = gone[0]
        new = came[0] if came else 0
        if new < old:
            return old, new
    raise IllegalMoveError(f"{h} is not one ply away from {g}")


def semiratio(turn: Turn) -> Fraction:
    """Loser's haul over winner's haul for one turn, as an exact fraction.

    Kept rational so bound checks stay bit-exact; the winner's haul is
    never zero, since a reply removes at least one candy.
    """
    return Fraction(turn.loser_take, turn.winner_take)


def xor_adjacent(a: int) -> int:
    """``a ^ (a - 1)``: all-ones through a's lowest set bit.

    Equals ``2**(t+1) - 1`` where ``t`` counts a's trailing zero bits.
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return a ^ (a - 1)


def g_family_realize(a: int, m: int, x: int = 0) -> Game:
    """Realize the three-pile family 𝔊(a, m, x) = [a, B·m + x, B·m + (a^x)].

    Here B = 2**(k+1) with k = floor(log2 a), and the offset satisfies
    0 <= x < 2**k.  All realizations have zero nim-sum.  The standard
    members (a one less than a power of two, x = 0) are the ones the
    closed forms and strategies target.
    """
    if a < 1:
        raise FamilyError(f"need a >= 1, got a={a}")
    if m < 0:
        raise FamilyError(f"need m >= 0, got m={m}")
    k = a.bit_length() - 1
    if not 0 <= x < 2**k:
        raise FamilyError(f"offset x={x} out of range [0, {2**k}) for a={a}")
    block = 2 ** (k + 1)
    return Game((a, block * m + x, block * m + (a ^ x)))
