"""The package's frozen records against the dataclasses they stand for.

Each record class is written out by hand in place of
``@dataclass(frozen=True)``.  Every test here declares the dataclass the
class stands for, with the same name, fields, defaults and flags, and
checks that the two agree on sample instances: ``==``, ``hash``,
``repr``, order, instance ``__dict__``, the error on assigning or
deleting an attribute, and the defaults.  The ``__post_init__`` checks
the classes kept are pinned by type and message; ``Turn``'s are pinned in
``test_core.py``.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import candynim
from candynim.allocation import AllocationResult
from candynim.bounds import BoundInterval
from candynim.cli import CliConfig
from candynim.core import Game, Ply, Turn
from candynim.errors import InvariantError
from candynim.harness import ClaimReport, _Entry, json_line, report_lines
from candynim.solver import DEFAULT_MEMO_CAP, DEFAULT_PILE_CAP
from candynim.strategies import StrategyTrace

PACKAGE_ROOT = str(Path(candynim.__file__).resolve().parent.parent)

_TURN_11 = Turn(Game([1, 1]), Game([1]), Game([]))
_TURN_321 = Turn(Game([3, 2, 1]), Game([2, 2, 1]), Game([2, 2]))
_TURN_22 = Turn(Game([2, 2]), Game([2]), Game([]))

# class, its fields as make_dataclass takes them, whether it is ordered,
# and the arguments of its sample instances
CASES = [
    (Game, ["piles"], True, [((3, 2, 1),), ((2, 2),), ((1,),), ((),), ((5, 4, 1),)]),
    (Ply, ["pile_index", "new_size"], True, [(2, 2), (0, 5), (2, 3), (0, 0)]),
    (Turn, ["before", "after_loser", "after_winner"], False, [
        (_TURN_11.before, _TURN_11.after_loser, _TURN_11.after_winner),
        (_TURN_321.before, _TURN_321.after_loser, _TURN_321.after_winner),
    ]),
    (BoundInterval, ["lower", "upper", "source"], False, [
        (1, Fraction(5, 2), "standard-form"), (0, 0, "trivial"), (1.5, 2, "float"),
    ]),
    (AllocationResult, ["game", "n_winner", "construction"], False, [
        (Game([4, 4]), 0, "test"), (Game([3, 2, 1]), 2, "equality-case2"),
    ]),
    (StrategyTrace, ["turns"], False, [
        ((_TURN_11,),), ((),), ((_TURN_321, _TURN_22),),
    ]),
    (ClaimReport, ["claim_id", "params", "instances", "failures", "status", "notes"], False, [
        ("semiratio-cap", "a<=7", 3, (), "pass", "statement"),
        ("odd-winning-count", "total<=14", 9, ('{"game":"[3,2,1]"}',), "fail", ""),
    ]),
    (_Entry, ["statement", "kind", "run", ("sweep", object, dataclasses.field(default=None))],
     False, [
        ("a statement", "claim", len, None),
        ("a bound", "known-discrepancy", len, (len, repr)),
        ("a scan", "conjecture", repr),
    ]),
    (CliConfig, [
        ("output_format", str, dataclasses.field(default="text")),
        ("budget_profile", str, dataclasses.field(default="desk")),
        ("pile_cap", int, dataclasses.field(default=DEFAULT_PILE_CAP)),
        ("memo_cap", int, dataclasses.field(default=DEFAULT_MEMO_CAP)),
        ("engine", str, dataclasses.field(default="auto")),
    ], False, [(), ("json",), ("csv", "smoke", 12, 34, "python"), ("text", "extended")]),
]
IDS = [case[0].__name__ for case in CASES]


def _reference(cls, fields, order):
    """The frozen dataclass ``cls`` stands for, under the same name."""
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, order=order)


def _pairs(cls, fields, order, samples):
    ref = _reference(cls, fields, order)
    return [(cls(*args), ref(*args)) for args in samples]


def _error(action):
    """``(type, message)`` of what ``action`` raises, or None."""
    try:
        action()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cls, fields, order, samples", CASES, ids=IDS)
def test_repr_hash_and_fields_match_the_dataclass(cls, fields, order, samples):
    ref = _reference(cls, fields, order)
    assert cls.__match_args__ == ref.__match_args__
    for got, want in _pairs(cls, fields, order, samples):
        assert repr(got) == repr(want)
        assert hash(got) == hash(want)
        assert vars(got) == vars(want)
        assert pickle.loads(pickle.dumps(got)) == got


@pytest.mark.parametrize("cls, fields, order, samples", CASES, ids=IDS)
def test_equality_and_order_match_the_dataclass(cls, fields, order, samples):
    pairs = _pairs(cls, fields, order, samples)
    for got, want in pairs:
        assert got == cls(*[getattr(got, name) for name in cls.__match_args__])
        # only the same class compares: not the dataclass, not another type
        assert got.__eq__(want) is NotImplemented
        assert want.__eq__(got) is NotImplemented
        assert got.__eq__(object()) is NotImplemented
        assert got != want and got != object()
    for got_a, want_a in pairs:
        for got_b, want_b in pairs:
            assert (got_a == got_b) == (want_a == want_b)
            assert (got_a != got_b) == (want_a != want_b)
            # bools on an ordered class, NotImplemented on any other
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(got_a, op)(got_b) == getattr(want_a, op)(want_b)
    if not order:
        got, want = pairs[0]
        assert _error(lambda: got < got)[0] is _error(lambda: want < want)[0] is TypeError


@pytest.mark.parametrize("cls, fields, order, samples", CASES, ids=IDS)
def test_assigning_or_deleting_raises_as_the_dataclass(cls, fields, order, samples):
    got, want = _pairs(cls, fields, order, samples)[0]
    # the dataclass raises its FrozenInstanceError, an AttributeError
    for name in (*cls.__match_args__, "extra"):
        for action, message in ((lambda x: setattr(x, name, 1), "cannot assign to field"),
                                (lambda x: delattr(x, name), "cannot delete field")):
            raised = _error(lambda: action(got))
            assert issubclass(raised[0], AttributeError)
            assert raised[1] == _error(lambda: action(want))[1] == f"{message} {name!r}"
    assert vars(got) == vars(want)


def test_defaults_match_the_dataclass():
    # CliConfig() and a three-argument _Entry are samples above as well
    assert _Entry("s", "claim", len).sweep is None
    assert CliConfig(engine="native") == CliConfig("text", "desk", DEFAULT_PILE_CAP,
                                                   DEFAULT_MEMO_CAP, "native")


# What each class's __post_init__ raised before it was written out, as
# type and message.
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BoundInterval(3, Fraction(5, 2), "src"), InvariantError,
         "src: lower 3 exceeds upper 5/2"),
        (lambda: AllocationResult(Game([5, 3]), 1, "t"), InvariantError,
         "[5,3] has nonzero nim-sum"),
        (lambda: AllocationResult(Game([4, 4]), -1, "t"), InvariantError,
         "negative winner haul -1"),
        (lambda: StrategyTrace((_TURN_321,)), ValueError, "trace stops early at [2,2]"),
        (lambda: StrategyTrace((_TURN_11, _TURN_11)), ValueError,
         "turn starting at [1,1] does not follow []"),
        (lambda: ClaimReport("c", "p", 1, (), "fail", "n"), ValueError,
         "c: status fail with 0 failures"),
        (lambda: ClaimReport("c", "p", 1, ("x",), "pass", "n"), ValueError,
         "c: status pass with 1 failures"),
        (lambda: CliConfig(output_format="xml"), ValueError,
         "format must be one of ('text', 'json', 'csv')"),
        (lambda: CliConfig(budget_profile="huge"), ValueError,
         "profile must be one of ('smoke', 'desk', 'extended')"),
        (lambda: CliConfig(engine="gpu"), ValueError,
         "engine must be one of ('auto', 'native', 'python')"),
        (lambda: CliConfig(pile_cap=0), ValueError, "caps must be positive"),
        (lambda: CliConfig(memo_cap=0), ValueError, "caps must be positive"),
    ],
)
def test_validation_errors_are_unchanged(build, error, message):
    assert _error(build) == (error, message)


def test_report_lines_match_asdict_of_the_dataclass():
    cls, fields, order, samples = CASES[IDS.index("ClaimReport")]
    pairs = _pairs(cls, fields, order, samples)
    assert report_lines([got for got, _ in pairs]) == "".join(
        json_line(dataclasses.asdict(want)) + "\n" for _, want in pairs
    )


def test_importing_the_cli_makes_one_dataclass_and_leaves_csv_out():
    # SolveResult stays a dataclass: the benchmark's own tests build a wrong
    # result from a real one with dataclasses.replace, so it must take it.
    code = (
        "import json, sys\n"
        "import candynim.cli\n"
        "csv = 'csv' in sys.modules\n"
        "import dataclasses\n"
        "found = sorted(\n"
        "    f'{name}.{cls.__qualname__}'\n"
        "    for name, module in list(sys.modules.items())\n"
        "    if name.split('.')[0] == 'candynim'\n"
        "    for cls in vars(module).values()\n"
        "    if isinstance(cls, type) and cls.__module__ == name\n"
        "    and dataclasses.is_dataclass(cls)\n"
        ")\n"
        "print(json.dumps({'dataclasses': found, 'csv': csv}))\n"
    )
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "dataclasses": ["candynim.solver.SolveResult"],
        "csv": False,
    }
