"""Value windows: interval arithmetic against solved anchors."""

import pytest

from candynim.bounds import (
    BoundInterval,
    corollary_lower,
    duplicate_free_lower,
    five_pile_upper,
    general_bounds,
    log_lower_bound,
    semiratio_bound,
    standard_form_bounds,
)
from candynim.core import Game, g_family_realize
from candynim.errors import InvariantError
from candynim.solver import solve


def test_interval_validation_and_contains():
    iv = BoundInterval(2, 5, "test")
    assert iv.contains(2) and iv.contains(5) and not iv.contains(6)
    with pytest.raises(InvariantError):
        BoundInterval(5, 2, "test")


def test_semiratio_bound():
    assert semiratio_bound(1) == 3
    assert semiratio_bound(7) == 15


def test_standard_form_windows_frozen():
    # k=0 pins the value completely: [2m, 2m+1]
    assert (standard_form_bounds(0, 3).lower, standard_form_bounds(0, 3).upper) == (6, 7)
    # k=1: [6m, 6m+4]
    assert (standard_form_bounds(1, 2).lower, standard_form_bounds(1, 2).upper) == (12, 16)
    # k=2: [14m+4, 14m+12]
    assert (standard_form_bounds(2, 1).lower, standard_form_bounds(2, 1).upper) == (18, 26)


def test_standard_form_contains_exact():
    for k in range(0, 3):
        for m in range(1, 7):
            iv = standard_form_bounds(k, m)
            v = solve(g_family_realize(2 ** (k + 1) - 1, m, 0)).value
            assert iv.contains(v), (k, m, iv, v)


def test_standard_form_lower_tight_at_k4():
    # the anchored lower endpoint is exact here: 62m + 36
    iv = standard_form_bounds(4, 1)
    assert iv.lower == 98
    assert solve(g_family_realize(31, 1, 0)).value == 98


def test_corollary_lower_frozen_and_valid():
    assert corollary_lower(3, 1, 0) == 6
    assert corollary_lower(31, 1, 10) == 2 * 31 * 0 + (10 ^ 31) + 31 - 10
    for a in range(1, 8):
        for m in range(1, 5):
            for x in range(2 ** (a.bit_length() - 1)):
                v = solve(g_family_realize(a, m, x)).value
                assert corollary_lower(a, m, x) <= v, (a, m, x)


def test_general_bounds_bracket_offset_family():
    iv = general_bounds(4, 1, 10)
    assert (iv.lower, iv.upper) == (42, 118)
    assert iv.contains(solve(Game([31, 42, 53])).value)
    for m in range(1, 5):
        for x in (0, 1):
            iv = general_bounds(1, m, x)
            v = solve(g_family_realize(3, m, x)).value
            assert iv.contains(v), (m, x)


def test_log_lower_bound():
    assert log_lower_bound(2) == 1
    assert log_lower_bound(15) == 3
    assert log_lower_bound(16) == 4


def test_five_pile_upper_frozen():
    assert five_pile_upper(60) == 15
    assert five_pile_upper(16) == 7
    assert five_pile_upper(4) == 3
    # ceiling behaviour: never below 1.5*sqrt(2N) - 2
    for n in range(4, 61, 2):
        s = five_pile_upper(n) + 2
        assert 2 * s * s >= 9 * n
        assert 2 * (s - 1) * (s - 1) < 9 * n


def test_duplicate_free_lower():
    assert duplicate_free_lower(Game([1, 2, 3])) == 2
    with pytest.raises(ValueError):
        duplicate_free_lower(Game([2, 2, 1]))
