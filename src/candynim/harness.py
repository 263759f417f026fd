"""Claim verification: sweep-based checks, conjecture scans, trace rendering.

Every closed-form statement the other modules implement is replayed here
against the exact solver over named parameter budgets (``smoke``,
``desk``, ``extended``) and turned into a ClaimReport.  Reports are
deterministic: same claim, same profile, byte-identical output, with no
timestamps or machine-specific content, so consecutive runs can be
diffed.

Three registry entries are marked as known discrepancies; they re-check
statements whose stated constants disagree with direct simulation and
report both sides instead of failing the run.  Conjecture scans likewise
never fail the build: they collect supporting and violating instances.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterator, Optional

from .allocation import (
    _partitions,
    best_power_arrangement,
    equality_arrangements,
    exhaustive_min_winner,
    five_pile_construct,
    lemma_optimal_ply,
)
from .bounds import (
    corollary_lower,
    duplicate_free_lower,
    five_pile_upper,
    general_bounds,
    log_lower_bound,
    semiratio_bound,
    standard_form_bounds,
)
from .core import (
    Game,
    OutcomeClass,
    Ply,
    Turn,
    g_family_realize,
    semiratio,
    unique_response,
    winning_moves,
    xor_adjacent,
)
from .errors import ParseError, UnknownClaimError
from .solver import Solver, _default_solver
from .strategies import (
    StrategyTrace,
    flip_flop_policy,
    fractal_closed_form,
    fractal_policy,
    half,
    simulate,
)

PROFILES = ("smoke", "desk", "extended")

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NOTED = "discrepancy-noted"


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one claim sweep.

    ``failures`` holds compact JSON strings, each enough to replay the
    failing instance by hand.  ``status`` is ``pass`` exactly when no
    failures were found; known-discrepancy entries and conjecture scans
    downgrade failures to ``discrepancy-noted`` so they stay visible
    without breaking the run.
    """

    claim_id: str
    params: str
    instances: int
    failures: tuple[str, ...]
    status: str
    notes: str

    def __post_init__(self):
        if (self.status == STATUS_PASS) != (not self.failures):
            raise ValueError(
                f"{self.claim_id}: status {self.status} with "
                f"{len(self.failures)} failures"
            )

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "params": self.params,
            "instances": self.instances,
            "failures": list(self.failures),
            "status": self.status,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class _Outcome:
    params: str
    instances: int
    failures: tuple[str, ...] = ()
    extra_notes: str = ""


@dataclass(frozen=True)
class _Entry:
    statement: str
    kind: str  # claim | known-discrepancy | conjecture
    run: Callable[[str, Solver], _Outcome]


_REGISTRY: dict[str, _Entry] = {}


def _register(claim_id: str, statement: str, kind: str = "claim"):
    def deco(fn):
        _REGISTRY[claim_id] = _Entry(statement, kind, fn)
        return fn

    return deco


def _fail(**kw) -> str:
    return json.dumps(kw, sort_keys=True, separators=(",", ":"), default=str)


def _p_positions(max_total: int) -> Iterator[Game]:
    """Every P position with total at most max_total, no pile-count cap."""
    for total in range(2, max_total + 1, 2):
        for piles in _partitions(total, total, total):
            yield Game(piles)


# ---------------------------------------------------------------- claims


@_register(
    "value-nonneg",
    "the loser never nets fewer candies than the winner in a zero-nim-sum game",
)
def _c_value_nonneg(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 10, "desk": 14, "extended": 20}[profile]
    failures = []
    count = 0
    for g in _p_positions(cap):
        count += 1
        v = solver.solve(g).value
        if v < 0:
            failures.append(_fail(game=list(g.piles), value=v))
    return _Outcome(f"all P positions, total<={cap}", count, tuple(failures))


@_register(
    "odd-winning-count",
    "a position with nonzero nim-sum always has an odd number of winning plies",
)
def _c_odd_winning(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 8, "desk": 12, "extended": 16}[profile]
    failures = []
    count = 0
    for r in range(1, 6):
        for piles in combinations_with_replacement(range(1, cap + 1), r):
            g = Game(piles)
            if g.outcome is OutcomeClass.P:
                continue
            count += 1
            moves = winning_moves(g)
            if len(moves) % 2 == 0:
                failures.append(_fail(game=list(g.piles), winning=len(moves)))
    return _Outcome(f"all N positions, <=5 piles, piles<={cap}", count, tuple(failures))


@_register(
    "unique-three-pile-reply",
    "after any loser ply in a 3-pile P position the winner has exactly one winning ply",
)
def _c_unique_reply(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 16, "desk": 32, "extended": 64}[profile]
    failures = []
    count = 0
    for a in range(1, cap + 1):
        for b in range(1, a + 1):
            c = a ^ b
            if not 1 <= c <= b:
                continue
            g = Game([a, b, c])
            for i in range(len(g)):
                for new in range(g[i]):
                    count += 1
                    replies = winning_moves(g.apply(Ply(i, new)))
                    if len(replies) != 1:
                        failures.append(
                            _fail(game=list(g.piles), pile=i, to=new, replies=len(replies))
                        )
    return _Outcome(f"3-pile P positions, piles<={cap}, every ply", count, tuple(failures))


@_register(
    "semiratio-cap",
    "no turn of the family [a, B*m+x, B*m+(x XOR a)] has loser/winner ratio above 2a+1",
)
def _c_semiratio(profile: str, solver: Solver) -> _Outcome:
    amax, mmax = {"smoke": (3, 2), "desk": (7, 3), "extended": (7, 3)}[profile]
    failures = []
    count = 0
    for a in range(1, amax + 1):
        bound = semiratio_bound(a)
        for m in range(0, mmax + 1):
            for x in range(2 ** (a.bit_length() - 1)):
                g = g_family_realize(a, m, x)
                if not g:
                    continue
                for i in range(len(g)):
                    for new in range(g[i]):
                        ply = Ply(i, new)
                        child = g.apply(ply)
                        reply = unique_response(g, ply)
                        turn = Turn(g, child, child.apply(reply))
                        count += 1
                        if semiratio(turn) > bound:
                            failures.append(
                                _fail(
                                    game=list(g.piles),
                                    pile=i,
                                    to=new,
                                    ratio=str(semiratio(turn)),
                                )
                            )
    return _Outcome(
        f"every turn of the family, a<={amax}, 0<=m<={mmax}, all x", count, tuple(failures)
    )


@_register("small-family-value", "the game [1, 2m, 2m+1] is worth exactly 2m to the loser")
def _c_small_family(profile: str, solver: Solver) -> _Outcome:
    failures = []
    for m in range(1, 33):
        v = solver.solve(Game([1, 2 * m, 2 * m + 1])).value
        if v != 2 * m:
            failures.append(_fail(m=m, value=v, expected=2 * m))
    return _Outcome("1<=m<=32", 32, tuple(failures))


@_register(
    "flip-flop-value",
    "stated flip-flop yield (m-1)(2^(j+1)-2) vs direct simulation of the same strategy",
    kind="known-discrepancy",
)
def _c_flip_flop_value(profile: str, solver: Solver) -> _Outcome:
    jmax, mmax = {"smoke": (2, 3), "desk": (4, 8), "extended": (4, 8)}[profile]
    failures = []
    count = 0
    for j in range(1, jmax + 1):
        for m in range(1, mmax + 1):
            g = g_family_realize(2**j - 1, m, 0)
            sim = simulate(flip_flop_policy, g).strategic_value
            stated = (m - 1) * (2 ** (j + 1) - 2)
            count += 1
            if sim != stated:
                failures.append(_fail(j=j, m=m, simulated=sim, stated=stated))
    return _Outcome(
        f"families 2^j-1, j<={jmax}, m<={mmax}",
        count,
        tuple(failures),
        "simulation yields one full turn per unit of m, m*(2^(j+1)-2); at j=1 "
        "the simulated value matches the exact result 2m, the stated one does not; "
        "the simulation is ground truth here",
    )


@_register(
    "family31-value",
    "the family [31, 32m, 32m+31] is worth 62(m-1)+98 in the checked range",
)
def _c_family31(profile: str, solver: Solver) -> _Outcome:
    mmax = {"smoke": 2, "desk": 11, "extended": 11}[profile]
    failures = []
    for m in range(1, mmax + 1):
        v = solver.solve(Game([31, 32 * m, 32 * m + 31])).value
        if v != 62 * (m - 1) + 98:
            failures.append(_fail(m=m, value=v, expected=62 * (m - 1) + 98))
    return _Outcome(f"1<=m<={mmax}", mmax, tuple(failures))


@_register(
    "fractal-closed-form",
    "closed-form fractal value vs direct simulation with the halving exponent map",
    kind="known-discrepancy",
)
def _c_fractal_closed(profile: str, solver: Solver) -> _Outcome:
    failures = []
    count = 0
    sims = {}
    for k in range(1, 6):
        for m in range(1, 5):
            g = g_family_realize(2**k - 1, m, 0)
            sim = simulate(lambda h: fractal_policy(half, h), g).strategic_value
            stated = fractal_closed_form(k, m)
            sims[(k, m)] = sim
            count += 1
            if sim != stated:
                failures.append(_fail(k=k, m=m, simulated=sim, stated=stated))
    anchor = ", ".join(f"V_sim(2^{k}-1 family, m=1)={sims[(k, 1)]}" for k in range(1, 6))
    return _Outcome(
        "k<=5, m<=4",
        count,
        tuple(failures),
        "both the m-prefactor and the summation disagree with the simulated "
        f"strategy; simulated anchors: {anchor}",
    )


@_register(
    "fractal-beats-flip-flop",
    "with the halving map the fractal strategy nets at least the flip-flop on [2^k-1, 2^k, 2^(k+1)-1]",
)
def _c_fractal_beats(profile: str, solver: Solver) -> _Outcome:
    failures = []
    count = 0
    for k in range(2, 7):
        g = g_family_realize(2**k - 1, 1, 0)
        fr = simulate(lambda h: fractal_policy(half, h), g).strategic_value
        fl = simulate(flip_flop_policy, g).strategic_value
        count += 1
        if fr < fl:
            failures.append(_fail(k=k, fractal=fr, flip_flop=fl))
    return _Outcome("2<=k<=6, m=1", count, tuple(failures))


@_register(
    "strategy-value-cap",
    "no scripted strategy nets the loser more than the exact game value",
)
def _c_strategy_cap(profile: str, solver: Solver) -> _Outcome:
    jmax, mmax = {"smoke": (3, 3), "desk": (5, 6), "extended": (5, 6)}[profile]
    failures = []
    count = 0
    for j in range(1, jmax + 1):
        for m in range(1, mmax + 1):
            g = g_family_realize(2**j - 1, m, 0)
            exact = solver.solve(g).value
            for name, policy in (
                ("flip-flop", flip_flop_policy),
                ("fractal-half", lambda h: fractal_policy(half, h)),
            ):
                sim = simulate(policy, g).strategic_value
                count += 1
                if sim > exact:
                    failures.append(
                        _fail(strategy=name, j=j, m=m, simulated=sim, exact=exact)
                    )
    return _Outcome(
        f"both strategies on families 2^j-1, j<={jmax}, m<={mmax}",
        count,
        tuple(failures),
    )


def _bound_row(claim_id: str, params: str, lower, exact: int, upper) -> dict:
    """One lower/exact/upper row; an upper of "" means the claim has none."""
    return {
        "claim_id": claim_id,
        "params": params,
        "lower": lower,
        "exact": exact,
        "upper": upper,
        "holds": lower <= exact and (upper == "" or exact <= upper),
    }


def _sweep_failures(rows: Iterator[dict]) -> tuple[int, tuple[str, ...]]:
    """Row count and one replayable failure per row that does not hold."""
    rows = list(rows)
    keys = ("params", "lower", "exact", "upper")
    failures = tuple(
        _fail(**{k: r[k] for k in keys if r[k] != ""}) for r in rows if not r["holds"]
    )
    return len(rows), failures


def _standard_row(solver: Solver, k: int, m: int) -> dict:
    iv = standard_form_bounds(k, m, solver)
    exact = solver.solve(g_family_realize(2 ** (k + 1) - 1, m, 0)).value
    return _bound_row("standard-form-interval", f"k={k},m={m}", iv.lower, exact, iv.upper)


def _standard_rows(profile: str, solver: Solver) -> Iterator[dict]:
    for k in range(0, 3):
        for m in range(1, 7):
            yield _standard_row(solver, k, m)


@_register(
    "standard-form-interval",
    "the exact value of [2^(k+1)-1, 2^(k+1)m, ...] sits inside the stated window",
)
def _c_standard_interval(profile: str, solver: Solver) -> _Outcome:
    count, failures = _sweep_failures(_standard_rows(profile, solver))
    residuals = ", ".join(
        f"b({k})={solver.solve(g_family_realize(2 ** (k + 1) - 1, 1, 0)).value}"
        for k in range(0, 3)
    )
    return _Outcome(
        "k<=2, m<=6",
        count,
        failures,
        "lower endpoint uses the solved fractal tail; the alternative endgame "
        f"constant floor 3(2^(k+1)-1) overshoots the measured residuals {residuals}, "
        "so it is reported here instead of being folded into the window",
    )


@_register(
    "standard-form-proof-variant",
    "the derivation-text upper bound (2^(k+1)-2)m + (2^(k+1)-2) - 2 + [k=0] vs exact values",
    kind="known-discrepancy",
)
def _c_standard_proof_variant(profile: str, solver: Solver) -> _Outcome:
    failures = []
    count = 0
    for k in range(0, 3):
        for m in range(1, 7):
            exact = solver.solve(g_family_realize(2 ** (k + 1) - 1, m, 0)).value
            variant = (2 ** (k + 1) - 2) * m + (2 ** (k + 1) - 2) - 2 + (1 if k == 0 else 0)
            count += 1
            if exact > variant:
                failures.append(_fail(k=k, m=m, exact=exact, variant_upper=variant))
    return _Outcome(
        "k<=2, m<=6",
        count,
        tuple(failures),
        "the statement form with 2^(k+2) holds (see standard-form-interval); this "
        "variant halves the coefficient and exact values overshoot it",
    )


def _corollary_row(solver: Solver, a: int, m: int, x: int = 0) -> dict:
    exact = solver.solve(g_family_realize(a, m, x)).value
    return _bound_row(
        "family-offset-lower", f"a={a},m={m},x={x}", corollary_lower(a, m, x), exact, ""
    )


def _corollary_rows(profile: str, solver: Solver) -> Iterator[dict]:
    amax, mmax = {"smoke": (3, 2), "desk": (7, 4), "extended": (7, 4)}[profile]
    for a in range(1, amax + 1):
        for m in range(1, mmax + 1):
            for x in range(2 ** (a.bit_length() - 1)):
                yield _corollary_row(solver, a, m, x)


@_register(
    "family-offset-lower",
    "2a(m-1) + (x XOR a) + a - x never exceeds the exact family value",
)
def _c_corollary(profile: str, solver: Solver) -> _Outcome:
    amax, mmax = {"smoke": (3, 2), "desk": (7, 4), "extended": (7, 4)}[profile]
    count, failures = _sweep_failures(_corollary_rows(profile, solver))
    return _Outcome(f"a<={amax}, m<={mmax}, all x", count, failures)


def _general_row(solver: Solver, k: int, m: int, x: int = 0) -> dict:
    iv = general_bounds(k, m, x, solver)
    exact = solver.solve(g_family_realize(2 ** (k + 1) - 1, m, x)).value
    return _bound_row(
        "neighbor-transfer-interval", f"k={k},m={m},x={x}", iv.lower, exact, iv.upper
    )


def _general_rows(profile: str, solver: Solver) -> Iterator[dict]:
    cases = [(1, m, x) for m in range(1, 5) for x in (0, 1)]
    if profile != "smoke":
        cases.append((4, 1, 10))
    for k, m, x in cases:
        yield _general_row(solver, k, m, x)


@_register(
    "neighbor-transfer-interval",
    "offset families sit between their exactly-solved aligned neighbors, shifted by 2x",
)
def _c_general(profile: str, solver: Solver) -> _Outcome:
    count, failures = _sweep_failures(_general_rows(profile, solver))
    params = "k=1, m<=4, all x" + ("" if profile == "smoke" else "; plus k=4,m=1,x=10")
    return _Outcome(params, count, failures)


@_register(
    "half-pool-ply-cap",
    "no pile of a P position holds more than half of the candies",
)
def _c_half_pool(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 10, "desk": 14, "extended": 20}[profile]
    failures = []
    count = 0
    for g in _p_positions(cap):
        count += 1
        if g and 2 * g[0] > g.total:
            failures.append(_fail(game=list(g.piles), total=g.total))
    return _Outcome(f"all P positions, total<={cap}", count, tuple(failures))


@_register(
    "winner-log-floor",
    "the winner always collects at least floor(log2 N) candies from a P position",
)
def _c_log_floor(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 10, "desk": 14, "extended": 20}[profile]
    failures = []
    count = 0
    for g in _p_positions(cap):
        count += 1
        nw = solver.solve(g).n_winner
        if nw < log_lower_bound(g.total):
            failures.append(_fail(game=list(g.piles), n_winner=nw))
    return _Outcome(f"all P positions, total<={cap}", count, tuple(failures))


@_register(
    "duplicate-pair-invariance",
    "appending an equal pile pair never changes the value",
)
def _c_duplicate_pairs(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 8, "desk": 12, "extended": 12}[profile]
    failures = []
    count = 0
    for g in _p_positions(cap):
        base = solver.solve(g).value
        for a in range(1, 9):
            padded = g + Game([a, a])
            count += 1
            v = solver.solve(padded).value
            if v != base:
                failures.append(_fail(game=list(g.piles), pair=a, value=v, base=base))
    return _Outcome(f"P positions total<={cap}, pairs a<=8", count, tuple(failures))


@_register(
    "adjacent-xor-identity",
    "a XOR (a-1) is always one less than a power of two",
)
def _c_xor_adjacent(profile: str, solver: Solver) -> _Outcome:
    failures = []
    for a in range(1, 4097):
        r = xor_adjacent(a)
        if r & (r + 1):
            failures.append(_fail(a=a, result=r))
    return _Outcome("1<=a<=4096", 4096, tuple(failures))


@_register(
    "power-chain-winner-count",
    "the chain [1, 2, ..., 2^(n-2), 2^(n-1)-1] concedes the winner exactly n-1 candies",
)
def _c_power_chain(profile: str, solver: Solver) -> _Outcome:
    nmax = {"smoke": 5, "desk": 6, "extended": 7}[profile]
    failures = []
    count = 0
    for n in range(2, nmax + 1):
        r = best_power_arrangement(n, solver)
        count += 1
        if r.n_winner != n - 1:
            failures.append(_fail(n=n, n_winner=r.n_winner))
    return _Outcome(f"2<=n<={nmax}", count, tuple(failures))


def _gapped_chain(n: int, k: int) -> Optional[Game]:
    piles = [2**i for i in range(n - 1) if i != k - 1]
    piles.append(2 ** (n - 1) - 1 - 2 ** (k - 1))
    if len(set(piles)) != len(piles) or piles[-1] & (piles[-1] - 1) == 0:
        return None
    return Game(piles)


@_register(
    "skip-chain-best-ply",
    "in a power chain with one gap, closing the gap from the odd pile is value-optimal "
    "and concedes exactly n-1",
)
def _c_skip_chain(profile: str, solver: Solver) -> _Outcome:
    nmax = {"smoke": 5, "desk": 6, "extended": 7}[profile]
    failures = []
    count = 0
    for n in range(3, nmax + 1):
        for k in range(1, n - 1):
            g = _gapped_chain(n, k)
            if g is None:
                continue
            count += 1
            ply = lemma_optimal_ply(g)
            optimal = solver.best_plies(g)
            nw = solver.solve(g).n_winner
            nw_after = solver.solve(g.apply(ply)).n_winner
            if ply not in optimal or nw != n - 1 or nw_after != n - 1:
                failures.append(
                    _fail(
                        game=list(g.piles),
                        n=n,
                        k=k,
                        ply=[ply.pile_index, ply.new_size],
                        n_winner=nw,
                        after=nw_after,
                    )
                )
    return _Outcome(f"3<=n<={nmax}, all k", count, tuple(failures))


@_register(
    "log-floor-equality-set",
    "the P positions whose winner haul meets the log2 floor are exactly the three "
    "closed-form arrangements",
)
def _c_equality_set(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 16, "desk": 24, "extended": 32}[profile]
    failures = []
    count = 0
    for total in range(2, cap + 1, 2):
        floor = log_lower_bound(total)
        achievers = exhaustive_min_winner(total, max_piles=total, solver=solver)
        got = sorted(r.game.piles for r in achievers if r.n_winner == floor)
        expected = sorted(r.game.piles for r in equality_arrangements(total, solver))
        count += 1
        if got != expected:
            failures.append(
                _fail(
                    total=total,
                    achievers=[list(p) for p in got],
                    expected=[list(p) for p in expected],
                )
            )
    return _Outcome(
        f"every P position of every even total<={cap}",
        count,
        tuple(failures),
        "total 4 hits two arrangements, [1,1,1,1] and [2,2], although the source "
        "statement's side condition n>2 would exclude it; odd totals admit no "
        "zero-nim-sum arrangement at all",
    )


@_register(
    "five-pile-sqrt-cap",
    "a five-pile arrangement keeps the winner haul within ceil(1.5*sqrt(2N)) - 2",
)
def _c_five_pile(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 40, "desk": 60, "extended": 60}[profile]
    failures = []
    count = 0
    for total in range(4, cap + 1, 2):
        r = five_pile_construct(total, solver)
        count += 1
        ok = (
            r.game.total == total
            and len(r.game) <= 5
            and r.n_winner <= five_pile_upper(total)
        )
        if not ok:
            failures.append(
                _fail(
                    total=total,
                    game=list(r.game.piles),
                    n_winner=r.n_winner,
                    cap=five_pile_upper(total),
                )
            )
    return _Outcome(f"even totals 4..{cap}", count, tuple(failures))


@_register(
    "distinct-piles-winner-floor",
    "with p distinct piles the winner collects at least p-1 candies",
)
def _c_distinct_floor(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 7, "desk": 9, "extended": 9}[profile]
    failures = []
    count = 0
    for r in range(2, 5):
        for piles in combinations(range(1, cap + 1), r):
            g = Game(piles)
            if g.outcome is not OutcomeClass.P:
                continue
            count += 1
            nw = solver.solve(g).n_winner
            if nw < duplicate_free_lower(g):
                failures.append(_fail(game=list(g.piles), n_winner=nw))
    return _Outcome(
        f"duplicate-free P positions, p<=4, piles<={cap}", count, tuple(failures)
    )


@_register(
    "min-winner-examples",
    "exhaustive search over small totals returns the known minimizing arrangements",
)
def _c_min_winner(profile: str, solver: Solver) -> _Outcome:
    expected = {
        2: ([(1, 1)], 1),
        10: ([(5, 4, 1)], 3),
        12: ([(6, 4, 2)], 3),
        14: ([(7, 4, 2, 1)], 3),
        16: ([(7, 4, 2, 1, 1, 1)], 4),
    }
    failures = []
    count = 0
    for total, (games, nw) in sorted(expected.items()):
        rs = exhaustive_min_winner(total, solver=solver)
        count += 1
        got = sorted(r.game.piles for r in rs)
        if got != sorted(games) or rs[0].n_winner != nw:
            failures.append(
                _fail(total=total, got=[list(p) for p in got], n_winner=rs[0].n_winner)
            )
    return _Outcome("totals 2,10,12,14,16, <=6 piles", count, tuple(failures))


@_register(
    "four-pile-worked-example",
    "[1,5,16,20] is worth 28 and the only optimal opening is 5 -> 2",
)
def _c_worked_example(profile: str, solver: Solver) -> _Outcome:
    failures = []
    g = Game([1, 5, 16, 20])
    r = solver.solve(g)
    if r.value != 28:
        failures.append(_fail(game=[1, 5, 16, 20], value=r.value, expected=28))
    plies = solver.best_plies(g)
    if plies != (Ply(2, 2),):
        failures.append(
            _fail(game=[1, 5, 16, 20], best=[[p.pile_index, p.new_size] for p in plies])
        )
    v = solver.solve(Game([1, 2, 4, 7])).value
    if v != 8:
        failures.append(_fail(game=[1, 2, 4, 7], value=v, expected=8))
    return _Outcome("one worked instance plus its endgame", 3, tuple(failures))


@_register(
    "four-pile-reduction",
    "splitting the small pile 3 into 1+2 never lowers the value of [3,4m,4m+3] or [3,4m+1,4m+2]",
)
def _c_four_pile_reduction(profile: str, solver: Solver) -> _Outcome:
    mmax = {"smoke": 2, "desk": 6, "extended": 6}[profile]
    failures = []
    count = 0
    anchors = [([3, 4, 7], 6), ([1, 2, 4, 7], 8), ([3, 5, 6], 6), ([1, 2, 5, 6], 6)]
    for piles, expected in anchors:
        count += 1
        v = solver.solve(Game(piles)).value
        if v != expected:
            failures.append(_fail(game=piles, value=v, expected=expected))
    for m in range(1, mmax + 1):
        for three, four in (
            ([3, 4 * m, 4 * m + 3], [1, 2, 4 * m, 4 * m + 3]),
            ([3, 4 * m + 1, 4 * m + 2], [1, 2, 4 * m + 1, 4 * m + 2]),
        ):
            count += 1
            v3 = solver.solve(Game(three)).value
            v4 = solver.solve(Game(four)).value
            if v4 < v3:
                failures.append(_fail(three=three, four=four, v3=v3, v4=v4))
    return _Outcome(f"m<={mmax}, both offset patterns", count, tuple(failures))


@_register(
    "split-counterexample",
    "[31,42,53] is worth 96 and its binary-expansion split [1,2,4,8,16,42,53] only 94",
)
def _c_split_counterexample(profile: str, solver: Solver) -> _Outcome:
    failures = []
    count = 1
    v = solver.solve(Game([31, 42, 53])).value
    if v != 96:
        failures.append(_fail(game=[31, 42, 53], value=v, expected=96))
    if profile != "smoke":
        count = 2
        v7 = solver.solve(Game([1, 2, 4, 8, 16, 42, 53])).value
        if v7 != 94:
            failures.append(_fail(game=[1, 2, 4, 8, 16, 42, 53], value=v7, expected=94))
    params = "both games" if profile != "smoke" else "3-pile game only"
    return _Outcome(params, count, tuple(failures))


# ----------------------------------------------------------- conjectures


def _bit_partitions(a: int) -> Iterator[tuple[int, ...]]:
    """Proper carry-free decompositions of a: partitions of its bit set."""
    bits = [1 << i for i in range(a.bit_length()) if a >> i & 1]

    def rec(rest: list[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not rest:
            yield ()
            return
        first, tail = rest[0], rest[1:]
        for sub in rec(tail):
            yield ((first,),) + sub
            for i in range(len(sub)):
                yield sub[:i] + ((first,) + sub[i],) + sub[i + 1 :]

    seen = set()
    for blocks in rec(bits):
        if len(blocks) < 2:
            continue
        parts = tuple(sorted(sum(b) for b in blocks))
        if parts not in seen:
            seen.add(parts)
            yield parts


@_register(
    "conj-split-improves",
    "for any 3-pile P position with distinct piles, some carry-free split of the "
    "smallest pile does not lower the value",
    kind="conjecture",
)
def _c_conj_split(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 14, "desk": 24, "extended": 36}[profile]
    games = []
    for a in range(1, cap):
        for b in range(a + 1, cap):
            c = a ^ b
            if c > b and a + b + c <= cap:
                games.append(Game([a, b, c]))
    games.sort(key=lambda g: g.piles)
    if profile != "smoke":
        games.append(Game([31, 42, 53]))
    failures = []
    count = 0
    special = ""
    for g in games:
        a = g[-1]
        decomps = list(_bit_partitions(a))
        if not decomps:
            continue
        count += 1
        base = solver.solve(g).value
        scan_all = g.piles == (53, 42, 31)
        witness = None
        for parts in decomps:
            v = solver.solve(Game(parts + g.piles[:-1])).value
            if scan_all and parts == (1, 2, 4, 8, 16):
                word = "a non-witness" if v < base else "a witness"
                special = (
                    f"splitting 31 into its binary expansion against [42,53] "
                    f"gives {v} vs {base}, {word}"
                )
            if v >= base and witness is None:
                witness = (parts, v)
                if not scan_all:
                    break
        if witness is None:
            failures.append(
                _fail(game=list(g.piles), value=base, decompositions=len(decomps))
            )
    params = f"distinct-pile 3-pile P positions, total<={cap}"
    if profile != "smoke":
        params += "; plus [31,42,53], every split"
    return _Outcome(params, count, tuple(failures), special)


@_register(
    "conj-minimizer-shape",
    "minimizing arrangements keep a pile of at least N/4 and need only O(log N) piles",
    kind="conjecture",
)
def _c_conj_shape(profile: str, solver: Solver) -> _Outcome:
    cap = {"smoke": 12, "desk": 20, "extended": 24}[profile]
    lines = []
    count = 0
    for total in range(2, cap + 1, 2):
        rs = exhaustive_min_winner(total, solver=solver)
        count += 1
        big = max(max(r.game.piles) for r in rs)
        few = min(len(r.game) for r in rs)
        quarter = "yes" if 4 * big >= total else "no"
        lines.append(
            f"N={total}: min haul {rs[0].n_winner}, arrangements {len(rs)}, "
            f"largest pile {big} (>=N/4: {quarter}), fewest piles {few}"
        )
    return _Outcome(
        f"even totals<={cap}, <=6 piles",
        count,
        (),
        "observed minimizer shapes: " + "; ".join(lines) + ". The source statement "
        "is phrased around maximizing the winner haul, which pairs [a,a] trivially; "
        "scanning minimizers follows the surrounding analysis",
    )


# ------------------------------------------------------------- interface


def verify_claim(claim_id: str, profile: str = "desk", solver: Optional[Solver] = None) -> ClaimReport:
    """Run one registered claim sweep and wrap it in a report."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    entry = _REGISTRY.get(claim_id)
    if entry is None:
        raise UnknownClaimError(
            f"no claim {claim_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    outcome = entry.run(profile, solver or _default_solver())
    if not outcome.failures:
        status = STATUS_PASS
    elif entry.kind == "claim":
        status = STATUS_FAIL
    else:
        status = STATUS_NOTED
    notes = entry.statement
    if outcome.extra_notes:
        notes += "; " + outcome.extra_notes
    return ClaimReport(
        claim_id=claim_id,
        params=outcome.params,
        instances=outcome.instances,
        failures=outcome.failures,
        status=status,
        notes=notes,
    )


def claim_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def run_all(profile: str = "desk", solver: Optional[Solver] = None) -> tuple[ClaimReport, ...]:
    """Every registered claim and conjecture, ordered by claim id."""
    s = solver or _default_solver()
    return tuple(verify_claim(cid, profile, s) for cid in claim_ids())


def exit_status(reports) -> int:
    """1 when any strict claim failed, else 0; noted discrepancies stay green."""
    return 1 if any(r.status == STATUS_FAIL for r in reports) else 0


def report_lines(reports) -> str:
    """One ClaimReport per line as compact JSON, byte-stable across runs."""
    return "\n".join(
        json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":"))
        for r in reports
    ) + "\n"


def summary_table(reports) -> str:
    """Fixed-width human summary, one claim per row."""
    if not reports:
        return ""
    wid = max(len(r.claim_id) for r in reports)
    wst = max(len(r.status) for r in reports)
    rows = [
        f"{r.claim_id:<{wid}}  {r.status:<{wst}}  "
        f"{r.instances:>7} checked  {len(r.failures):>3} flagged  {r.params}"
        for r in reports
    ]
    return "\n".join(rows) + "\n"


_BOUND_SWEEPS = {
    "standard-form-interval": (_standard_rows, _standard_row),
    "family-offset-lower": (_corollary_rows, _corollary_row),
    "neighbor-transfer-interval": (_general_rows, _general_row),
}


def _bound_sweep(claim_id: str) -> tuple:
    if claim_id not in _BOUND_SWEEPS:
        raise UnknownClaimError(
            f"no bound sweep {claim_id!r}; known: {', '.join(sorted(_BOUND_SWEEPS))}"
        )
    return _BOUND_SWEEPS[claim_id]


def bound_rows(claim_id: str, profile: str = "desk", solver: Optional[Solver] = None) -> list[dict]:
    """The lower/exact/upper table behind one of the bound-sweep claims."""
    rows, _ = _bound_sweep(claim_id)
    return list(rows(profile, solver or _default_solver()))


def bound_row(claim_id: str, point: dict[str, int], solver: Solver) -> dict:
    """One row of a bound sweep at a single point, such as ``{"k": 1, "m": 2}``.

    Raises:
        UnknownClaimError: ``claim_id`` is not a bound sweep.
        ParseError: ``point`` lacks a parameter the sweep needs, or names
            one it does not take.
    """
    _, row = _bound_sweep(claim_id)
    try:
        inspect.signature(row).bind(solver, **point)
    except TypeError as exc:
        raise ParseError(f"bad parameters for {claim_id}: {exc}") from None
    return row(solver, **point)


def render_trace(t: StrategyTrace) -> str:
    """Draw a trace one position per line, annotating each departing ply.

    Pile columns stay fixed from the root (emptied piles show as 0), the
    moved pile carries a "(-c L)" or "(-c W)" annotation, and the final
    all-zero position is left implicit, so the last line shows the ply
    that ends the game.
    """
    if not t.turns:
        return ""
    cols = list(t.turns[0].before.piles)
    lines = []
    pos = t.turns[0].before
    for turn in t.turns:
        for mover, nxt in (("L", turn.after_loser), ("W", turn.after_winner)):
            old, new = _column_step(cols, pos, nxt)
            cells = []
            for idx, size in enumerate(cols):
                if idx == old:
                    cells.append(f"{size}(-{size - new} {mover})")
                else:
                    cells.append(str(size))
            lines.append("[" + ", ".join(cells) + "]")
            cols[old] = new
            pos = nxt
    return "\n".join(lines) + "\n"


def _column_step(cols: list[int], pos: Game, nxt: Game) -> tuple[int, int]:
    """Locate which fixed column shrank between two canonical positions."""
    from collections import Counter

    gone = Counter(pos.piles)
    gone.subtract(Counter(nxt.piles))
    old_size = next(s for s, c in gone.items() if c > 0)
    new_size = next((s for s, c in gone.items() if c < 0), 0)
    idx = cols.index(old_size)
    return idx, new_size
