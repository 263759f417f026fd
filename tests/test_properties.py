"""Randomized invariants over small games."""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from candynim.core import (
    Game,
    Ply,
    _pile_change,
    nim_sum,
    unique_response,
    winning_moves,
    xor_adjacent,
)
from candynim.errors import IllegalMoveError, ParseError
from candynim.solver import Solver, solve

small_piles = st.lists(st.integers(min_value=0, max_value=9), max_size=5)


def _p_position(piles):
    """Close a pile list under nim-sum zero by appending the xor."""
    x = nim_sum(piles)
    if x:
        piles = piles + [x]
    return Game(piles)


@given(small_piles)
def test_canonicalization_is_order_free(piles):
    assert Game(piles) == Game(sorted(piles))
    assert 0 not in Game(piles).piles


@given(small_piles, st.randoms(use_true_random=False))
def test_equal_multisets_equal_games(piles, rng):
    shuffled = piles[:]
    rng.shuffle(shuffled)
    assert Game(piles) == Game(shuffled)


@given(small_piles, small_piles)
def test_add_grundy_is_xor(a, b):
    assert (Game(a) + Game(b)).grundy == Game(a).grundy ^ Game(b).grundy


@given(st.integers(min_value=1, max_value=10**6))
def test_xor_adjacent_all_ones(a):
    r = xor_adjacent(a)
    assert r & (r + 1) == 0
    assert a ^ (a - 1) == r


@settings(max_examples=60, deadline=None)
@given(small_piles)
def test_value_nonnegative_and_parity(piles):
    g = _p_position(piles)
    assume(g.total <= 16)
    r = solve(g)
    assert r.value >= 0
    assert (g.total + r.value) % 2 == 0
    assert r.n_loser >= r.n_winner


@settings(max_examples=60, deadline=None)
@given(small_piles, st.integers(min_value=1, max_value=8))
def test_duplicate_pair_invariance(piles, a):
    # on the plain engine: the kernel drops equal pairs before it searches
    g = _p_position(piles)
    assume(g.total <= 12)
    plain = Solver(engine="python")
    assert plain.solve(g + Game([a, a])).value == plain.solve(g).value


@settings(max_examples=60, deadline=None)
@given(small_piles)
def test_principal_line_is_replayable(piles):
    g = _p_position(piles)
    assume(g.total <= 14)
    r = solve(g)
    pos = g
    for ply in r.principal_line:
        pos = pos.apply(ply)
    assert pos == Game([])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_three_pile_unique_reply(a, b):
    c = a ^ b
    assume(1 <= c)
    g = Game([a, b, c])
    assume(g.grundy == 0 and len(g) == 3)
    for i in range(3):
        ply = Ply(i, g[i] // 2)
        child = g.apply(ply)
        assert len(winning_moves(child)) == 1
        assert unique_response(g, ply) == winning_moves(child)[0]


@settings(max_examples=40, deadline=None)
@given(small_piles)
def test_oracle_agrees_with_memoized(piles):
    g = _p_position(piles)
    assume(g.total <= 12 and len(g) <= 4)
    s = Solver()
    assert s.oracle_solve(g) == s.solve(g)


@settings(max_examples=60, deadline=None)
@given(small_piles)
def test_winning_move_count_is_odd(piles):
    g = Game(piles)
    assume(g.grundy != 0)
    assert len(winning_moves(g)) % 2 == 1


def _apply_reference(g, ply):
    """``Game.apply`` by its definition: cut the pile, re-canonicalise."""
    g._old_size(ply)
    rest = g.piles[: ply.pile_index] + g.piles[ply.pile_index + 1 :]
    return Game(rest + ((ply.new_size,) if ply.new_size else ()))


def _pile_change_reference(g, h):
    """``_pile_change`` by multiset difference, independent of the merge walk."""
    gone = Counter(g.piles) - Counter(h.piles)
    came = Counter(h.piles) - Counter(g.piles)
    if gone.total() == 1 and came.total() <= 1:
        (old,) = gone
        new = next(iter(came), 0)
        if new < old:
            return old, new
    raise IllegalMoveError(f"{h} is not one ply away from {g}")


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# sizes up to 6 make repeated piles common
repeating_piles = st.lists(st.integers(min_value=0, max_value=6), max_size=6)


@settings(max_examples=150, deadline=None)
@given(repeating_piles)
def test_apply_matches_its_reference_on_every_ply(piles):
    g = Game(piles)
    for i, p in enumerate(g.piles):
        for new in range(p):
            ply = Ply(i, new)
            child = g.apply(ply)
            assert type(child.piles) is tuple
            assert child == _apply_reference(g, ply)
            assert child.piles == tuple(sorted(child.piles, reverse=True))


@settings(max_examples=150, deadline=None)
@given(repeating_piles, st.integers(min_value=0, max_value=3))
def test_apply_rejects_bad_plies_like_its_reference(piles, k):
    g = Game(piles)
    bad = [Ply(len(g) + k, 0), Ply(-1 - k, 0)]
    for i, p in enumerate(g.piles):
        bad += [Ply(i, p + k), Ply(i, -1 - k), Ply(i, True), Ply(i, 2.5)]
    for ply in bad:
        want = _outcome(_apply_reference, g, ply)
        assert isinstance(want, tuple), ply  # the reference raised
        assert _outcome(g.apply, ply) == want


def test_apply_keeps_the_edge_cases_of_its_definition():
    g = Game([5, 3, 3])
    assert _outcome(g.apply, Ply(1, True)) == (ParseError, "pile sizes must be integers, got True")
    assert _outcome(g.apply, Ply(0, 2.5)) == (ParseError, "pile sizes must be integers, got 2.5")
    for zero in (0, 0.0, False):
        assert g.apply(Ply(0, zero)).piles == (3, 3)
    assert g.apply(Ply(0, 3)).piles == (3, 3, 3)
    assert g.apply(Ply(2, 0)).piles == (5, 3)


@settings(max_examples=150, deadline=None)
@given(repeating_piles, repeating_piles, st.integers(min_value=1, max_value=6))
def test_pile_change_matches_the_counter_definition(piles, other, d):
    g = Game(piles)
    pairs = [(g, g), (g, Game(other)), (Game(other), g)]
    pairs += [
        (g, _apply_reference(g, Ply(i, new))) for i, p in enumerate(g.piles) for new in range(p)
    ]
    for i in range(len(g)):
        grown = g.piles[:i] + (g.piles[i] + d,) + g.piles[i + 1 :]
        pairs.append((g, Game(grown)))
        for j in range(i + 1, len(g)):
            two = list(g.piles)
            two[i] -= 1
            two[j] = max(two[j] - d, 0)
            pairs.append((g, Game(two)))
    pairs += [(g, g + Game([d])), (g, g + Game([d, d + 1]))]
    for a, b in pairs:
        assert _outcome(_pile_change, a, b) == _outcome(_pile_change_reference, a, b)


# ASCII whitespace only; the notation rejects any other
_blank = st.text(alphabet=" \t\n\r\f\v", max_size=2)


@settings(max_examples=200, deadline=None)
@given(repeating_piles, st.data())
def test_parse_matches_game_of_its_fields(piles, data):
    # leading zeros, zero piles and repeated piles, bracketed and bare
    fields = [data.draw(st.sampled_from(["", "0", "00"])) + str(p) for p in piles]
    body = ",".join(data.draw(_blank) + f + data.draw(_blank) for f in fields)
    if data.draw(st.booleans()):
        body = "[" + body + "]"
    text = data.draw(_blank) + body + data.draw(_blank)
    parsed = Game.parse(text)
    assert parsed == Game(piles)
    assert type(parsed.piles) is tuple
