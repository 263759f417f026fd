"""candynim: exact play and claim verification for candy Nim.

Nim with a side pot: removed chips become the remover's candy.  The
player the nim-sum condemns to lose grabs greedily on the way down; the
winner protects the win first and candy second.  This package solves
positions exactly, plays the named strategies, evaluates the known
bounds, builds candy-splitting arrangements, and re-checks the whole
claim catalogue reproducibly.
"""

from .core import (
    Game,
    OutcomeClass,
    Ply,
    Turn,
    g_family_realize,
    loser_moves,
    nim_sum,
    semiratio,
    unique_response,
    winning_moves,
    xor_adjacent,
)
from .errors import CandyNimError
from .solver import SolveResult, Solver, best_plies, oracle_solve, solve, value

__version__ = "0.1.0"

__all__ = [
    "CandyNimError",
    "Game",
    "OutcomeClass",
    "Ply",
    "SolveResult",
    "Solver",
    "Turn",
    "best_plies",
    "g_family_realize",
    "loser_moves",
    "nim_sum",
    "oracle_solve",
    "semiratio",
    "solve",
    "unique_response",
    "value",
    "winning_moves",
    "xor_adjacent",
]
