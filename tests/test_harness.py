"""Claim registry behaviour, report determinism, trace rendering."""

import hashlib
import io
import json

import pytest

from candynim import core, harness
from candynim.cli import dispatch
from candynim.core import Game, winning_moves
from candynim.errors import InvariantError, UnknownClaimError
from candynim.harness import (
    ClaimReport,
    _Tally,
    _bit_partitions,
    _register,
    bound_rows,
    claim_ids,
    exit_status,
    render_trace,
    report_lines,
    run_all,
    summary_table,
    verify_claim,
)
from candynim.solver import kernel_available
from candynim.strategies import (
    StrategyTrace,
    flip_flop_policy,
    fractal_policy,
    half,
    simulate,
)

KNOWN_DISCREPANCIES = {
    "flip-flop-value",
    "fractal-closed-form",
    "standard-form-proof-variant",
}
CONJECTURES = {"conj-split-improves", "conj-minimizer-shape"}
BOUND_SWEEPS = ("standard-form-interval", "family-offset-lower", "neighbor-transfer-interval")

# sha256 of the smoke outputs: comparing a run with a second run of the same
# code cannot catch a change that is deterministic, so the bytes are pinned
SMOKE_REPORT_SHA256 = "5b6704ca7a5f9a11d22c2d186f6b43d977f98ebcb55787c91314d777d1940b76"
SMOKE_BOUNDS_SHA256 = "7e9bf564080e7226b60e5cb1523708389dbdc6d4963d619e167e83a007793748"
# extended is the one profile with games the kernel does not take, so its
# bytes also guard the engine pick
EXTENDED_REPORT_SHA256 = "b2cda7a0e8150ad92fdffd1ef59f566f091a586e4202639616debfcfe08cb42f"
DESK_REPORT_SHA256 = "f5d5572468b51a10cf523c28a220cef95d7ee1e43ae38acb9e6677bbe8c7f8e3"


def test_registry_is_complete_and_sorted():
    ids = claim_ids()
    assert len(ids) == 29
    assert list(ids) == sorted(ids)
    assert KNOWN_DISCREPANCIES <= set(ids)
    assert CONJECTURES <= set(ids)


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaimError):
        verify_claim("no-such-claim", "smoke")
    with pytest.raises(ValueError):
        verify_claim("value-nonneg", "warpspeed")


def test_unknown_profile_raises_everywhere():
    with pytest.raises(ValueError):
        run_all("warpspeed")
    for claim in BOUND_SWEEPS:
        with pytest.raises(ValueError):
            bound_rows(claim, "warpspeed")


def test_register_rejects_unknown_kind():
    with pytest.raises(ValueError):
        _register("x", "s", kind="claims")
    assert "x" not in claim_ids()


def test_smoke_statuses():
    reports = run_all("smoke")
    assert [r.claim_id for r in reports] == list(claim_ids())
    for r in reports:
        if r.claim_id in KNOWN_DISCREPANCIES:
            assert r.status == "discrepancy-noted"
            assert r.failures  # both sides recorded, never silent
        else:
            assert r.status == "pass", (r.claim_id, r.failures)
    assert exit_status(reports) == 0


def test_failures_are_replayable_json():
    r = verify_claim("flip-flop-value", "smoke")
    for f in r.failures:
        item = json.loads(f)
        assert {"j", "m", "simulated", "stated"} <= set(item)


# No desk instance fails, so the desk pin cannot see the failure records.
# These force failures at smoke; the records were recorded on the code that
# still passed ratio=str(ratio) and built a record for every instance.
@pytest.mark.parametrize(
    "bound, count, sha256",
    [
        (0, 180, "85ab1980710660821eb7a27b6312a6bf0386738cbb0e6c269ec36546f0537a72"),
        (1, 39, "34880a4c8f43e9b411f01aed75fa13015071519453ba6ab6fb8d855658090e3c"),
        (2, 23, "9d508c34f170612fb579350894686f398da56898a5565334f152001d16f50f2f"),
    ],
)
def test_forced_semiratio_failures_keep_their_records(monkeypatch, bound, count, sha256):
    monkeypatch.setattr(harness, "semiratio_bound", lambda a: bound)
    r = verify_claim("semiratio-cap", "smoke")
    assert (r.instances, r.status, len(r.failures)) == (180, "fail", count)
    assert hashlib.sha256("\n".join(r.failures).encode()).hexdigest() == sha256
    if bound == 2:
        # a ratio equal to the bound holds; one above it is written as str(Fraction)
        assert r.failures[5] == '{"game":[7,5,2],"pile":0,"ratio":"7/3","to":0}'


@pytest.mark.parametrize(
    "claim_id, game, copies, instances, record",
    [
        ("odd-winning-count", (3, 1), 2, 1172, '{"game":[3,1],"winning":2}'),
        (
            "unique-three-pile-reply",
            (2, 1),
            3,
            840,
            '{"game":[3,2,1],"pile":0,"replies":3,"to":0}',
        ),
    ],
)
def test_forced_winning_move_failures_keep_their_records(
    monkeypatch, claim_id, game, copies, instances, record
):
    def skewed(g):
        moves = winning_moves(g)
        return moves * copies if g.piles == game else moves

    monkeypatch.setattr(harness, "winning_moves", skewed)
    r = verify_claim(claim_id, "smoke")
    assert (r.instances, r.status, r.failures) == (instances, "fail", (record,))


def _counting(monkeypatch, name):
    """Replace ``harness.name`` by a wrapper that counts its calls."""
    real, calls = getattr(harness, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, name, spy)
    return calls


@pytest.mark.parametrize("claim_id", ["odd-winning-count", "unique-three-pile-reply"])
def test_move_claims_call_core_winning_moves_once_per_instance(monkeypatch, claim_id):
    assert harness.winning_moves is core.winning_moves
    calls = _counting(monkeypatch, "winning_moves")
    r = verify_claim(claim_id, "smoke")
    assert r.status == "pass" and len(calls) == r.instances > 0


def test_semiratio_cap_builds_a_validated_turn_per_instance(monkeypatch):
    assert (harness.Turn, harness.semiratio) == (core.Turn, core.semiratio)
    turns = _counting(monkeypatch, "Turn")
    ratios = _counting(monkeypatch, "semiratio")
    r = verify_claim("semiratio-cap", "smoke")
    assert r.status == "pass" and len(turns) == len(ratios) == r.instances > 0
    assert all(type(turn) is core.Turn for (turn,) in ratios)


def test_tally_refuses_a_failure_left_unrecorded():
    t = _Tally()
    assert t.holds(True) and not t.holds(False)
    with pytest.raises(InvariantError):
        t.outcome("params")
    t.fail(instance=2)
    assert t.outcome("params").failures == ['{"instance":2}']


def test_notes_lead_with_the_statement():
    r = verify_claim("value-nonneg", "smoke")
    assert r.notes.startswith("the loser never nets fewer candies")


def test_report_lines_are_stable():
    a = report_lines(run_all("smoke"))
    b = report_lines(run_all("smoke"))
    assert a == b
    assert hashlib.sha256(a.encode()).hexdigest() == SMOKE_REPORT_SHA256
    for line in a.strip().splitlines():
        parsed = json.loads(line)
        assert set(parsed) == {
            "claim_id",
            "params",
            "instances",
            "failures",
            "status",
            "notes",
        }


def test_bit_partitions_never_repeat_a_split():
    # each block of a partition of a's distinct bits sums to a number that
    # names the block, so no two partitions give the same sorted sums
    for a in range(2**9):
        splits = list(_bit_partitions(a))
        assert len(set(splits)) == len(splits), a
        for parts in splits:
            assert len(parts) > 1 and sum(parts) == a and list(parts) == sorted(parts)
    assert list(_bit_partitions(7)) == [(1, 2, 4), (3, 4), (2, 5), (1, 6)]


def test_summary_table_shape():
    reports = run_all("smoke")
    table = summary_table(reports)
    lines = table.strip().splitlines()
    assert len(lines) == len(reports)
    assert summary_table([]) == ""


def test_claim_report_status_consistency():
    with pytest.raises(ValueError):
        ClaimReport("x", "p", 1, (), "fail", "n")
    with pytest.raises(ValueError):
        ClaimReport("x", "p", 1, ("{}",), "pass", "n")


def test_bound_rows_and_csv():
    rows = bound_rows("standard-form-interval", "smoke")
    assert all(row["holds"] for row in rows)
    out = io.StringIO()
    code = dispatch(
        ["bounds", "standard-form-interval", "--profile", "smoke", "--format", "csv"], out=out
    )
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "claim_id,params,lower,exact,upper,holds"
    # params contain commas, so the field must be quoted
    assert lines[1].startswith('standard-form-interval,"k=0,m=1"')
    with pytest.raises(UnknownClaimError):
        bound_rows("value-nonneg", "smoke")


def test_bound_sweep_bytes_are_pinned():
    h = hashlib.sha256()
    for claim in BOUND_SWEEPS:
        for fmt in ("text", "csv", "json"):
            out = io.StringIO()
            assert dispatch(["bounds", claim, "--profile", "smoke", "--format", fmt], out=out) == 0
            h.update(out.getvalue().encode())
    assert h.hexdigest() == SMOKE_BOUNDS_SHA256


def test_conjecture_scan_records_the_nonwitness():
    r = verify_claim("conj-split-improves", "desk")
    assert "94 vs 96, a non-witness" in r.notes


def test_render_flip_flop_smallest_case():
    t = simulate(flip_flop_policy, Game([1, 2, 3]))
    assert render_trace(t) == (
        "[3(-3 L), 2, 1]\n"
        "[0, 2(-1 W), 1]\n"
        "[0, 1(-1 L), 1]\n"
        "[0, 0, 1(-1 W)]\n"
    )


def test_render_keeps_columns_fixed():
    t = simulate(lambda g: fractal_policy(half, g), Game([7, 16, 23]))
    lines = render_trace(t).strip().splitlines()
    assert lines[0] == "[23(-15 L), 16, 7]"
    assert lines[1] == "[8, 16(-1 W), 7]"
    assert lines[2] == "[8, 15(-14 L), 7]"
    assert lines[3] == "[8(-2 W), 1, 7]"
    # every line has exactly the root's column count
    assert all(line.count(",") == 2 for line in lines)
    # the last line empties the board
    assert len(lines) == 2 * len(t.turns)


def test_render_empty_trace():
    t = StrategyTrace(turns=())
    assert render_trace(t) == ""


def test_desk_report_bytes_are_pinned():
    desk = report_lines(run_all("desk"))
    assert hashlib.sha256(desk.encode()).hexdigest() == DESK_REPORT_SHA256


@pytest.mark.skipif(not kernel_available(), reason="pure Python is too slow for extended")
def test_extended_report_bytes_are_pinned():
    out = io.StringIO()
    assert dispatch(["verify", "all", "--profile", "extended", "--format", "json"], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == EXTENDED_REPORT_SHA256
