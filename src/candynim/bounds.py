"""Closed-form bounds on game values and winner hauls.

Every bound here is checkable against the exact solver, and the
verification harness does exactly that over the sweeps in the test
suite.  All arithmetic is exact: rationals stay ``Fraction`` and square
roots are compared by squaring, so no bound ever moves by a rounding
artifact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Union

from .core import Game, _Record, g_family_realize
from .errors import InvariantError
from .solver import Solver, _default_solver

Endpoint = Union[int, Fraction, float]


class BoundInterval(_Record):
    """An inclusive [lower, upper] window tagged with its source claim."""

    lower: Endpoint
    upper: Endpoint
    source: str

    def __init__(self, lower: Endpoint, upper: Endpoint, source: str):
        fields = self.__dict__
        fields["lower"] = lower
        fields["upper"] = upper
        fields["source"] = source
        if lower > upper:
            raise InvariantError(f"{source}: lower {lower} exceeds upper {upper}")

    def contains(self, v) -> bool:
        return self.lower <= v <= self.upper


def _anchor(g: Game, solver: Optional[Solver]) -> int:
    return (solver or _default_solver()).value(g)


def semiratio_bound(a: int) -> int:
    """Cap on the loser/winner haul ratio within any turn of 𝔊(a, m, x)."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return 2 * a + 1


def standard_form_bounds(k: int, m: int, solver: Optional[Solver] = None) -> BoundInterval:
    """Value window for the standard form [2^(k+1)-1, 2^(k+1)m, ...].

    The upper endpoint is the semiratio cap rounded to an integer,
    (2^(k+2)-2)m + (2^(k+2)-2) - 2 + [k=0].  The lower endpoint follows
    the fractal opening that jumps to the family on 2^ceil(k/2)-1, whose
    tail value is solved exactly; at k = 0 the tail is empty and the
    bound degenerates to 2m.
    """
    if k < 0 or m < 1:
        raise ValueError(f"need k >= 0 and m >= 1, got k={k}, m={m}")
    upper = (2 ** (k + 2) - 2) * m + (2 ** (k + 2) - 2) - 2 + (1 if k == 0 else 0)
    half_up = -(-k // 2)
    if half_up == 0:
        lower = 2 * m
    else:
        tail = g_family_realize(2**half_up - 1, 2 ** (k // 2 + 1) - 1, 0)
        lower = (
            2 * (2 ** (k + 1) - 1) * m
            - 2 * (2**half_up - 1)
            + _anchor(tail, solver)
        )
    return BoundInterval(lower, upper, "standard-form-interval")


def corollary_lower(a: int, m: int, x: int = 0) -> int:
    """Lower bound 2a(m-1) + (x XOR a) + a - x on V(𝔊(a, m, x)).

    Achieved by a flip-flop that spends its first turn clearing the
    offset x, so it holds for every admissible (a, m, x) with m >= 1.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    g_family_realize(a, m, x)  # validates a and x
    return 2 * a * (m - 1) + (x ^ a) + a - x


def general_bounds(k: int, m: int, x: int, solver: Optional[Solver] = None) -> BoundInterval:
    """Value window for 𝔊(2^(k+1)-1, m, x), anchored on the x = 0 column.

    Transfers the exactly-solved neighbors at offsets m-1 and m+1:
    clearing the offset costs the loser 2x relative to the aligned game
    below, and gains as much against the one above.
    """
    if k < 0 or m < 1:
        raise ValueError(f"need k >= 0 and m >= 1, got k={k}, m={m}")
    a = 2 ** (k + 1) - 1
    g_family_realize(a, m, x)  # validates x against a
    below = _anchor(g_family_realize(a, m - 1, 0), solver)
    above = _anchor(g_family_realize(a, m + 1, 0), solver)
    return BoundInterval(
        below + 2 * a - 2 * x, above - 2 * a + 2 * x, "neighbor-transfer-interval"
    )


def log_lower_bound(total: int) -> int:
    """Floor of log2(total): the winner always collects at least this many."""
    if total < 1:
        raise ValueError(f"need total >= 1, got {total}")
    return total.bit_length() - 1


def five_pile_upper(total: int) -> int:
    """Ceiling of (3/2)*sqrt(2*total) - 2, the five-pile winner-haul cap.

    Computed entirely in integers: the smallest s with 2s^2 >= 9*total
    is the ceiling of sqrt(9*total/2), and the bound is s - 2.
    """
    if total < 1:
        raise ValueError(f"need total >= 1, got {total}")
    s = isqrt(9 * total // 2)
    while 2 * s * s < 9 * total:
        s += 1
    return s - 2


def duplicate_free_lower(g: Game) -> int:
    """With p distinct piles the winner collects at least p - 1."""
    if len(set(g.piles)) != len(g):
        raise ValueError(f"{g} has duplicate piles; the bound does not apply")
    return len(g) - 1
