"""Acceptance criteria, one test and one printed pass/fail line each.

Every check here is exact: integer equalities, set equalities, or strict
interval membership, at the sweep sizes the package commits to.  Run
with ``pytest -s tests/test_acceptance.py`` to see the criterion lines.
"""

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations, combinations_with_replacement

from candynim.allocation import (
    _partitions,
    equality_arrangements,
    exhaustive_min_winner,
    five_pile_construct,
)
from candynim.bounds import (
    corollary_lower,
    five_pile_upper,
    general_bounds,
    log_lower_bound,
    semiratio_bound,
    standard_form_bounds,
)
from candynim.core import (
    Game,
    OutcomeClass,
    Ply,
    Turn,
    g_family_realize,
    semiratio,
    unique_response,
    winning_moves,
)
from candynim.harness import verify_claim
from candynim.solver import Solver
from candynim.strategies import (
    flip_flop_policy,
    fractal_closed_form,
    fractal_policy,
    half,
    simulate,
)

_solver = Solver()

# sha256 of `verify all --profile desk --format json`, pinned so that a
# deterministic change to the report fails AC10 too
DESK_REPORT_SHA256 = "f5d5572468b51a10cf523c28a220cef95d7ee1e43ae38acb9e6677bbe8c7f8e3"


def _criterion(name, ok, detail=""):
    print(f"{name}: {'pass' if ok else 'FAIL'}" + (f" ({detail})" if detail and not ok else ""))
    assert ok, f"{name} {detail}"


def test_ac1_exact_values():
    problems = []
    for m in range(1, 33):
        v = _solver.solve(Game([1, 2 * m, 2 * m + 1])).value
        if v != 2 * m:
            problems.append(f"[1,{2*m},{2*m+1}]={v}")
    fixed = [
        ([1, 5, 16, 20], 28),
        ([1, 2, 4, 7], 8),
        ([3, 4, 7], 6),
        ([3, 5, 6], 6),
        ([1, 2, 5, 6], 6),
        ([31, 42, 53], 96),
        ([1, 2, 4, 8, 16, 42, 53], 94),
    ]
    for piles, expected in fixed:
        v = _solver.solve(Game(piles)).value
        if v != expected:
            problems.append(f"{piles}={v} want {expected}")
    if _solver.best_plies(Game([1, 5, 16, 20])) != (Ply(2, 2),):
        problems.append("[1,5,16,20] opening not uniquely 5->2")
    _criterion("AC1 exact values", not problems, "; ".join(problems))


def test_ac2_family31_closed_form():
    problems = []
    for m in range(1, 12):
        v = _solver.solve(Game([31, 32 * m, 32 * m + 31])).value
        if v != 62 * (m - 1) + 98:
            problems.append(f"m={m}: {v}")
    _criterion("AC2 [31,32m,32m+31] = 62(m-1)+98 for m<=11", not problems, "; ".join(problems))


def test_ac3_exhaustive_minimizers():
    expected = {
        10: ([(5, 4, 1)], 3),
        12: ([(6, 4, 2)], 3),
        14: ([(7, 4, 2, 1)], 3),
        16: ([(7, 4, 2, 1, 1, 1)], 4),
    }
    problems = []
    for total, (games, nw) in sorted(expected.items()):
        rs = exhaustive_min_winner(total, solver=_solver)
        got = sorted(r.game.piles for r in rs)
        if got != sorted(games) or rs[0].n_winner != nw:
            problems.append(f"N={total}: {got} haul {rs[0].n_winner}")
    _criterion("AC3 exhaustive minimizers N in {10,12,14,16}", not problems, "; ".join(problems))


def test_ac4_equality_characterization():
    problems = []
    for total in range(2, 33, 2):
        floor = log_lower_bound(total)
        achievers = sorted(
            r.game.piles
            for r in exhaustive_min_winner(total, max_piles=total, solver=_solver)
            if r.n_winner == floor
        )
        closed = sorted(r.game.piles for r in equality_arrangements(total, _solver))
        if achievers != closed:
            problems.append(f"N={total}: {achievers} vs {closed}")
    _criterion("AC4 equality characterization, even N<=32", not problems, "; ".join(problems))


def test_ac5_property_suites():
    problems = []

    # odd winning-move counts, <= 5 piles, piles <= 16
    for r in range(1, 6):
        for piles in combinations_with_replacement(range(1, 17), r):
            g = Game(piles)
            if g.grundy and len(winning_moves(g)) % 2 == 0:
                problems.append(f"even count at {g}")

    # unique 3-pile response, piles <= 64
    for a in range(1, 65):
        for b in range(1, a + 1):
            c = a ^ b
            if not 1 <= c <= b:
                continue
            g = Game([a, b, c])
            for i in range(3):
                for new in range(g[i]):
                    if len(winning_moves(g.apply(Ply(i, new)))) != 1:
                        problems.append(f"non-unique reply in {g} at ({i},{new})")

    # semiratio <= 2a+1 on the family, a <= 7, m <= 3
    for a in range(1, 8):
        cap = semiratio_bound(a)
        for m in range(0, 4):
            for x in range(2 ** (a.bit_length() - 1)):
                g = g_family_realize(a, m, x)
                if not g:
                    continue
                for i in range(len(g)):
                    for new in range(g[i]):
                        ply = Ply(i, new)
                        child = g.apply(ply)
                        turn = Turn(g, child, child.apply(unique_response(g, ply)))
                        if semiratio(turn) > cap:
                            problems.append(f"semiratio blown in {g}")

    # V >= 0, winner floor, half-pool ply cap, N <= 20
    for total in range(2, 21, 2):
        for piles in _partitions(total, total, total):
            g = Game(piles)
            r = _solver.solve(g)
            if r.value < 0:
                problems.append(f"negative value {g}")
            if r.n_winner < log_lower_bound(total):
                problems.append(f"winner floor broken {g}")
            if 2 * g[0] > total:
                problems.append(f"oversized pile {g}")

    # duplicate invariance, N(G) <= 12, a <= 8, on the plain engine: the
    # kernel drops equal pairs before it searches
    plain = Solver(engine="python")
    for total in range(2, 13, 2):
        for piles in _partitions(total, total, total):
            g = Game(piles)
            base = plain.solve(g).value
            for a in range(1, 9):
                if plain.solve(g + Game([a, a])).value != base:
                    problems.append(f"pair broke {g} + [{a},{a}]")

    # winner haul >= p-1 for duplicate-free P positions, p <= 4, piles <= 9
    for r in range(2, 5):
        for piles in combinations(range(1, 10), r):
            g = Game(piles)
            if g.outcome is OutcomeClass.P:
                if _solver.solve(g).n_winner < len(g) - 1:
                    problems.append(f"distinct floor broken {g}")

    _criterion("AC5 exhaustive property suites", not problems, "; ".join(problems[:4]))


def test_ac6_oracle_equivalence():
    problems = []
    for total in range(2, 15, 2):
        for piles in _partitions(total, 4, total):
            g = Game(piles)
            if _solver.oracle_solve(g) != _solver.solve(g):
                problems.append(str(g))
    _criterion("AC6 oracle equivalence, N<=14, <=4 piles", not problems, "; ".join(problems))


def test_ac7_bound_sandwiches():
    problems = []
    for k in range(0, 3):
        for m in range(1, 7):
            iv = standard_form_bounds(k, m, _solver)
            v = _solver.solve(g_family_realize(2 ** (k + 1) - 1, m, 0)).value
            if not iv.contains(v):
                problems.append(f"standard k={k},m={m}")
    for a in range(1, 8):
        for m in range(1, 5):
            for x in range(2 ** (a.bit_length() - 1)):
                v = _solver.solve(g_family_realize(a, m, x)).value
                if corollary_lower(a, m, x) > v:
                    problems.append(f"corollary a={a},m={m},x={x}")
    for k in range(0, 2):
        for m in range(1, 5):
            for x in range(2 ** k):
                iv = general_bounds(k, m, x, _solver)
                v = _solver.solve(g_family_realize(2 ** (k + 1) - 1, m, x)).value
                if not iv.contains(v):
                    problems.append(f"general k={k},m={m},x={x}")
    for m in range(1, 7):
        pairs = [
            ([3, 4 * m, 4 * m + 3], [1, 2, 4 * m, 4 * m + 3]),
            ([3, 4 * m + 1, 4 * m + 2], [1, 2, 4 * m + 1, 4 * m + 2]),
        ]
        for three, four in pairs:
            if _solver.solve(Game(four)).value < _solver.solve(Game(three)).value:
                problems.append(f"split reduction m={m}")
    _criterion("AC7 bound sandwiches", not problems, "; ".join(problems))


def test_ac8_strategy_dominance():
    problems = []
    for j in range(1, 6):
        for m in range(1, 7):
            g = g_family_realize(2**j - 1, m, 0)
            exact = _solver.solve(g).value
            for name, policy in (
                ("flip-flop", flip_flop_policy),
                ("fractal", lambda h: fractal_policy(half, h)),
            ):
                if simulate(policy, g).strategic_value > exact:
                    problems.append(f"{name} beats exact at j={j},m={m}")
    for k in range(2, 7):
        g = g_family_realize(2**k - 1, 1, 0)
        fr = simulate(lambda h: fractal_policy(half, h), g).strategic_value
        fl = simulate(flip_flop_policy, g).strategic_value
        if fr < fl:
            problems.append(f"fractal below flip-flop at k={k}")

    # closed form must match simulation or be loudly discrepancy-noted
    mismatches = 0
    for k in range(1, 6):
        for m in range(1, 5):
            sim = simulate(
                lambda h: fractal_policy(half, h), g_family_realize(2**k - 1, m, 0)
            ).strategic_value
            if sim != fractal_closed_form(k, m):
                mismatches += 1
    report = verify_claim("fractal-closed-form", "desk", _solver)
    if mismatches == 0:
        if report.status != "pass":
            problems.append("clean closed form reported unclean")
    else:
        if report.status != "discrepancy-noted" or len(report.failures) != mismatches:
            problems.append("closed-form mismatch not surfaced")
    _criterion("AC8 strategy dominance and closed-form reporting", not problems, "; ".join(problems))


def test_ac9_five_pile_allocation():
    problems = []
    for total in range(4, 61, 2):
        r = five_pile_construct(total, _solver)
        ok = (
            r.game.total == total
            and r.game.grundy == 0
            and len(r.game) <= 5
            and r.n_winner == _solver.solve(r.game).n_winner
            and r.n_winner <= five_pile_upper(total)
        )
        if not ok:
            problems.append(f"N={total}: {r.game} haul {r.n_winner}")
    _criterion("AC9 five-pile allocation, even N<=60", not problems, "; ".join(problems))


def test_ac10_verify_all_determinism(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CANDYNIM_")}
    cmd = [sys.executable, "-m", "candynim.cli", "verify", "all",
           "--profile", "desk", "--format", "json"]
    runs = []
    for name in ("first", "second"):
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=900)
        (tmp_path / f"{name}.jsonl").write_bytes(proc.stdout)
        runs.append(proc)
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and hashlib.sha256(runs[0].stdout).hexdigest() == DESK_REPORT_SHA256
        and len(runs[0].stdout.splitlines()) == 29
        and all(json.loads(line) for line in runs[0].stdout.splitlines())
    )
    _criterion("AC10 byte-identical verify all runs", ok,
               f"rc={runs[0].returncode},{runs[1].returncode}")
