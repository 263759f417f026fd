"""Game representation, move rules, and the three-pile family."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

import candynim
from candynim import core
from candynim.core import (
    PILE_CAP,
    Game,
    OutcomeClass,
    Ply,
    Turn,
    _pile_change,
    _plies_of,
    g_family_realize,
    loser_moves,
    nim_sum,
    semiratio,
    unique_response,
    winning_moves,
    xor_adjacent,
)
from candynim.errors import (
    FamilyError,
    IllegalMoveError,
    NoMovesError,
    ParseError,
    PileCapError,
)


def test_canonical_form_sorts_and_drops_zeros():
    assert Game([0, 3, 1, 2, 0]).piles == (3, 2, 1)
    assert Game([]).piles == ()
    assert Game([5]).piles == (5,)


def test_equal_multisets_canonicalize_identically():
    assert Game([2, 7, 7, 1]) == Game([7, 1, 7, 2])
    assert hash(Game([4, 4])) == hash(Game([0, 4, 4]))


def test_parse_accepts_both_notations():
    assert Game.parse("[1,2,3]") == Game([1, 2, 3])
    assert Game.parse("1, 2, 3") == Game([1, 2, 3])
    assert Game.parse("[]") == Game([])
    assert Game.parse(" [ 7 , 16 , 23 ] ") == Game([7, 16, 23])
    assert Game.parse(" 12 ") == Game([12])


@pytest.mark.parametrize(
    "bad",
    ["[1,2", "1,2]", "[a,b]", "[1,,2]", "[-1]", "1 2", "+3", "3.0", "1_000", "0x1",
     "[\u0663,\u0663]", "\uff11\uff12", "\u3000[1,2] ", "[1,\u20022]", "\xa01,2"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        Game.parse(bad)


def test_parse_reports_a_bad_field_before_an_over_cap_pile():
    with pytest.raises(ParseError, match="bad pile size 'x'"):
        Game.parse("[99999999999, x]")


@pytest.mark.parametrize(
    "piles", [[PILE_CAP + 1], [3, 0, PILE_CAP + 1], [PILE_CAP + 1, 5, PILE_CAP + 7]]
)
def test_parse_raises_the_cap_error_of_game(piles):
    with pytest.raises(PileCapError) as direct:
        Game(piles)
    for text in (str(piles), ",".join(map(str, piles))):
        with pytest.raises(PileCapError) as parsed:
            Game.parse(text)
        assert str(parsed.value) == str(direct.value)
    assert Game.parse(f"[{PILE_CAP}, 0]").piles == (PILE_CAP,)


def test_parse_puts_a_long_field_over_the_cap_before_converting_it():
    # int() refuses strings of more than 4,300 digits, leading zeros included
    nines = "9" * 5000
    with pytest.raises(PileCapError) as long:
        Game.parse(f"[3, {nines}]")
    assert str(long.value) == f"pile {nines} exceeds the hard cap {PILE_CAP}"
    # ten significant digits behind leading zeros: Game()'s error, message and all
    with pytest.raises(PileCapError) as direct:
        Game([9999999999])
    for text in ("[0009999999999]", " 00009999999999 , 1", "[" + "0" * 5000 + "9999999999]"):
        with pytest.raises(PileCapError) as parsed:
            Game.parse(text)
        assert str(parsed.value) == str(direct.value)
    assert Game.parse("[" + "0" * 5000 + "5, 000]") == Game([5])
    assert Game.parse(f"0{PILE_CAP}, 00") == Game([PILE_CAP])
    with pytest.raises(ParseError, match="bad pile size 'x'"):
        Game.parse(f"[{nines}, x]")


# every ASCII whitespace character, the only whitespace game text takes
_ascii_blank = st.text(alphabet=" \t\n\r\f\v", max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=PILE_CAP) | st.integers(0, 40), max_size=8),
    st.data(),
)
def test_parse_of_valid_fields_is_game_of_their_ints(piles, data):
    # fields up to the cap's ten digits, some with leading zeros past them
    fields = [data.draw(st.sampled_from(["", "0", "000"])) + str(p) for p in piles]
    body = ",".join(data.draw(_ascii_blank) + f + data.draw(_ascii_blank) for f in fields)
    if data.draw(st.booleans()) or not fields:
        body = "[" + data.draw(_ascii_blank) + body + data.draw(_ascii_blank) + "]"
    text = data.draw(_ascii_blank) + body + data.draw(_ascii_blank)
    assert Game.parse(text) == Game(piles)


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("1_0", ParseError, "bad pile size '1_0' in game notation '1_0'"),
        ("+5", ParseError, "bad pile size '+5' in game notation '+5'"),
        ("\u0661", ParseError, "bad pile size '\u0661' in game notation '\u0661'"),
        ("1,\xa02", ParseError, "bad pile size '\\xa02' in game notation '1,\\xa02'"),
        ("1,,2", ParseError, "bad pile size '' in game notation '1,,2'"),
        ("[1,2", ParseError, "unbalanced brackets in game notation: '[1,2'"),
        ("[12345678901]", PileCapError, "pile 12345678901 exceeds the hard cap 4294967295"),
        ("4294967296", PileCapError, "pile 4294967296 exceeds the hard cap 4294967295"),
        # the first pile over the cap in input order, not the largest
        ("[3, 4294967296, 5, 9999999999]", PileCapError,
         "pile 4294967296 exceeds the hard cap 4294967295"),
    ],
)
def test_parse_rejects_each_input_with_its_pinned_error(text, error, message):
    with pytest.raises(error) as raised:
        Game.parse(text)
    assert type(raised.value) is error and str(raised.value) == message


def test_str_is_canonical_bracketed():
    assert str(Game([1, 3, 2])) == "[3,2,1]"
    assert str(Game([])) == "[]"
    assert Game.parse(str(Game([9, 9, 2]))) == Game([9, 9, 2])


def test_grundy_and_outcome():
    assert Game([1, 2, 3]).grundy == 0
    assert Game([1, 2, 3]).outcome is OutcomeClass.P
    assert Game([5, 3]).grundy == 6
    assert Game([5, 3]).outcome is OutcomeClass.N
    assert Game([]).outcome is OutcomeClass.P
    assert Game([4, 4]).outcome is OutcomeClass.P


def test_nim_sum():
    assert nim_sum([1, 2, 3]) == 0
    assert nim_sum([]) == 0
    assert nim_sum([31, 42, 53]) == 0
    assert nim_sum([7, 16]) == 23


def test_apply_and_candies():
    g = Game([5, 3])
    child = g.apply(Ply(0, 2))
    assert child == Game([3, 2])
    assert g.candies(Ply(0, 2)) == 3


def test_apply_rejects_illegal():
    g = Game([5, 3])
    with pytest.raises(IllegalMoveError):
        g.apply(Ply(0, 5))  # no shrink
    with pytest.raises(IllegalMoveError):
        g.apply(Ply(0, 7))
    with pytest.raises(IllegalMoveError):
        g.apply(Ply(2, 0))  # no such pile


def test_loser_moves_count_equals_total():
    g = Game([4, 2, 1])
    assert len(loser_moves(g)) == g.total
    with pytest.raises(NoMovesError):
        loser_moves(Game([]))


def test_shared_plies_behave_as_fresh_ones():
    pairs = [(2, 5), (0, 1), (2, 0), (0, 1)]
    shared = _plies_of(pairs)
    fresh = [Ply(i, new) for i, new in pairs]
    assert type(shared) is tuple and shared[1] is shared[3]
    assert list(shared) == fresh
    assert [hash(p) for p in shared] == [hash(p) for p in fresh]
    assert [repr(p) for p in shared] == [repr(p) for p in fresh]
    assert sorted(shared) == sorted(fresh)
    assert Ply(0, 1) != (0, 1) and shared[1] != (0, 1)


def test_ply_table_stays_within_its_cap():
    plies = loser_moves(Game([10_000]))
    assert sum(map(len, core._PLY_ROWS)) <= core._PLY_CAP
    assert plies == tuple(Ply(0, new) for new in range(10_000))


def test_winning_moves_known_positions():
    # [5,3]: single winning ply 5 -> 3
    assert winning_moves(Game([5, 3])) == (Ply(0, 3),)
    # P positions have none
    assert winning_moves(Game([1, 2, 3])) == ()
    # [1,1,1]: any of the three plies wins
    assert len(winning_moves(Game([1, 1, 1]))) == 3


def test_unique_response_three_piles():
    g = Game([3, 4, 7])
    ply = Ply(0, 2)  # 7 -> 2
    reply = unique_response(g, ply)
    child = g.apply(ply)
    assert child.apply(reply).grundy == 0
    assert winning_moves(child) == (reply,)


def test_unique_response_rejects_wide_or_n_positions():
    with pytest.raises(FamilyError):
        unique_response(Game([1, 2, 4, 7]), Ply(0, 0))
    with pytest.raises(FamilyError):
        unique_response(Game([5, 3]), Ply(0, 0))


def test_turn_validation():
    g = Game([1, 2, 3])
    after_l = g.apply(Ply(0, 0))
    after_w = after_l.apply(winning_moves(after_l)[0])
    t = Turn(g, after_l, after_w)
    assert t.loser_take == 3
    assert t.winner_take == 1
    with pytest.raises(IllegalMoveError) as raised:
        Turn(g, after_w, after_l)  # wrong order of classes
    assert str(raised.value) == "the loser cannot reach [1,1] from [3,2,1]"


# Each error the checks of Game(), Game.apply, unique_response and Turn
# raise, as type and message; the plain-int fast paths must raise the same.
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Game([3, True]), ParseError, "pile sizes must be integers, got True"),
        (lambda: Game([3, 2.0]), ParseError, "pile sizes must be integers, got 2.0"),
        (lambda: Game([3, -1]), ParseError, "pile sizes must be nonnegative, got -1"),
        (
            lambda: Game([3, PILE_CAP + 1]),
            PileCapError,
            "pile 4294967296 exceeds the hard cap 4294967295",
        ),
        # past the interpreter's 4,300-digit str() limit, named by bit length
        (
            lambda: Game([10**5000]),
            PileCapError,
            "pile <16610-bit int> exceeds the hard cap 4294967295",
        ),
        (
            lambda: Game([-(10**5000)]),
            ParseError,
            "pile sizes must be nonnegative, got <negative 16610-bit int>",
        ),
        (lambda: Game([5, 3]).apply(Ply(2, 0)), IllegalMoveError, "no pile 2 in [5,3]"),
        (lambda: Game([5, 3]).apply(Ply(-1, 0)), IllegalMoveError, "no pile -1 in [5,3]"),
        (
            lambda: Game([5, 3]).apply(Ply(True, 5)),
            IllegalMoveError,
            "pile True of [5,3] is 3; cannot set it to 5",
        ),
        (
            lambda: Game([5, 3]).apply(Ply(0, 5)),
            IllegalMoveError,
            "pile 0 of [5,3] is 5; cannot set it to 5",
        ),
        (
            lambda: Game([5, 3]).apply(Ply(0, 7)),
            IllegalMoveError,
            "pile 0 of [5,3] is 5; cannot set it to 7",
        ),
        (
            lambda: Game([5, 3]).apply(Ply(0, -1)),
            IllegalMoveError,
            "pile 0 of [5,3] is 5; cannot set it to -1",
        ),
        (
            lambda: Game([5, 3]).apply(Ply(0, 10**5000)),
            IllegalMoveError,
            "pile 0 of [5,3] is 5; cannot set it to <16610-bit int>",
        ),
        (
            lambda: Game([5, 3]).candies(Ply(10**5000, 0)),
            IllegalMoveError,
            "no pile <16610-bit int> in [5,3]",
        ),
        (lambda: Game([5, 3]).apply(Ply(0, 2.5)), ParseError, "pile sizes must be integers, got 2.5"),
        (lambda: Game([5, 3]).apply(Ply(0, True)), ParseError, "pile sizes must be integers, got True"),
        (
            lambda: unique_response(Game([1, 2, 4, 7]), Ply(0, 0)),
            FamilyError,
            "unique replies are only guaranteed for <=3 piles, got [7,4,2,1]",
        ),
        (
            lambda: unique_response(Game([5, 3]), Ply(0, 0)),
            FamilyError,
            "[5,3] is not a P position",
        ),
        (
            lambda: Turn(Game(), Game(), Game()),
            IllegalMoveError,
            "a turn cannot start from the empty game",
        ),
        (
            lambda: Turn(Game([5, 3]), Game([3, 3]), Game([3, 3])),
            IllegalMoveError,
            "turns start from P positions, got [5,3]",
        ),
        (
            lambda: Turn(Game([3, 2, 1]), Game([3, 3]), Game([3, 3])),
            IllegalMoveError,
            "the loser cannot reach [3,3] from [3,2,1]",
        ),
        (
            lambda: Turn(Game([3, 2, 1]), Game([2, 1]), Game([2])),
            IllegalMoveError,
            "the winner must restore a P position, got [2]",
        ),
        (
            lambda: Turn(Game([3, 2, 1]), Game([2]), Game([])),
            IllegalMoveError,
            "[2] is not one ply away from [3,2,1]",
        ),
    ],
)
def test_checks_raise_their_pinned_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_apply_takes_the_plies_it_took_before():
    # a bool pile index and a falsy float size are not plain ints, yet apply
    # has always taken them
    assert Game([5, 3]).apply(Ply(True, 0)) == Game([5])
    assert Game([5, 3]).apply(Ply(0, 0.0)) == Game([3])
    assert Game([5, 3]).apply(Ply(1, 2)).piles == (5, 2)


def test_pile_change_names_the_one_pile_that_shrank():
    assert _pile_change(Game([5, 3, 1]), Game([3, 2, 1])) == (5, 2)
    assert _pile_change(Game([5, 3, 1]), Game([5, 1])) == (3, 0)
    assert _pile_change(Game([5, 3]), Game([3, 3])) == (5, 3)
    for h in ([5, 3, 1], [4, 2, 1], [6, 3, 1], [5, 3, 1, 1], [3]):
        with pytest.raises(IllegalMoveError):
            _pile_change(Game([5, 3, 1]), Game(h))
    with pytest.raises(IllegalMoveError):
        Turn(Game([1, 2, 3]), Game([2]), Game([]))  # two piles emptied at once


def test_semiratio_is_loser_over_winner():
    g = Game([1, 2, 3])
    after_l = g.apply(Ply(0, 0))
    after_w = after_l.apply(winning_moves(after_l)[0])
    assert semiratio(Turn(g, after_l, after_w)) == Fraction(3, 1)


def test_add_merges_piles():
    assert Game([1, 2]) + Game([2, 3]) == Game([3, 2, 2, 1])
    assert Game([1]) + Game([1]) == Game([1, 1])
    g, h = Game([5, 4]), Game([3, 3])
    assert (g + h).grundy == g.grundy ^ h.grundy
    assert (g + h).total == g.total + h.total


def test_xor_adjacent_frozen():
    assert xor_adjacent(1) == 1
    assert xor_adjacent(2) == 3
    assert xor_adjacent(8) == 15
    assert xor_adjacent(12) == 7
    assert xor_adjacent(31) == 1


@pytest.mark.parametrize("a", range(1, 200))
def test_xor_adjacent_is_all_ones(a):
    r = xor_adjacent(a)
    assert r & (r + 1) == 0 and r >= 1


def test_family_realize_frozen_members():
    assert g_family_realize(31, 1, 10) == Game([31, 42, 53])
    assert g_family_realize(7, 2, 0) == Game([7, 16, 23])
    assert g_family_realize(1, 3, 0) == Game([1, 6, 7])
    assert g_family_realize(5, 0, 0) == Game([5, 5])
    assert g_family_realize(3, 0, 1) == Game([3, 1, 2])


def test_family_realize_is_zero_nim_sum():
    for a in range(1, 9):
        for m in range(0, 3):
            for x in range(2 ** (a.bit_length() - 1)):
                assert g_family_realize(a, m, x).grundy == 0


def test_family_rejects_bad_offset():
    with pytest.raises(FamilyError):
        g_family_realize(6, 1, 4)  # x not below the top bit of a
    with pytest.raises(FamilyError):
        g_family_realize(0, 1, 0)
    with pytest.raises(FamilyError):
        g_family_realize(3, -1, 0)


def test_ply_describe():
    assert Ply(1, 2).describe(Game([7, 5])) == "5->2"


def test_public_names_resolve():
    assert len(set(candynim.__all__)) == len(candynim.__all__)
    for name in candynim.__all__:
        assert hasattr(candynim, name), name
