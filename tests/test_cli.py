"""End-to-end command dispatch: formats, batches, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import candynim
from candynim.cli import CliConfig, build_parser, dispatch, main

# the directory the imported package lives in: src in a checkout
PACKAGE_ROOT = str(Path(candynim.__file__).resolve().parent.parent)


def run(argv, stdin=None, monkeypatch=None):
    out = io.StringIO()
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def test_solve_worked_example():
    code, text = run(["solve", "[1,5,16,20]"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "value 28"
    assert lines[1].startswith("5->2 ")


def test_solve_empty_game():
    code, text = run(["solve", "[]"])
    assert code == 0
    assert text == "value 0\n\n"


def test_solve_json():
    code, text = run(["--format", "json", "solve", "[1,2,3]"])
    assert code == 0
    d = json.loads(text)
    assert d["value"] == 2 and d["game"] == [3, 2, 1]


def test_flags_accepted_after_subcommand():
    pre = run(["--format", "json", "solve", "[1,2,3]"])
    post = run(["solve", "[1,2,3]", "--format", "json"])
    assert pre == post


def test_solve_stdin_batch(monkeypatch):
    code, text = run(["solve", "-"], stdin="[1,2,3]\n\n[3,4,7]\n", monkeypatch=monkeypatch)
    assert code == 0
    assert text == "[3,2,1] value 2\n[7,4,3] value 6\n"


def test_stdin_batch_rejects_non_ascii_whitespace(monkeypatch):
    assert run(["solve", "-"], stdin="[1,2,3]\n\u3000[1,2]\n", monkeypatch=monkeypatch) == (2, "")


def test_classify_and_moves():
    assert run(["classify", "[1,2,3]"]) == (0, "P\n")
    assert run(["classify", "[5,3]"]) == (0, "N\n")
    code, text = run(["moves", "[5,3]"])
    assert code == 0 and text == "pile 0: 5->3\n"


def test_moves_csv_quotes_games():
    code, text = run(["moves", "[5,3]", "--format", "csv"])
    assert code == 0
    assert text == 'game,pile,from,to\n"[5,3]",0,5,3\n'


def test_allocate_example():
    code, text = run(["allocate", "12"])
    assert code == 0
    assert text.splitlines()[0] == "[6,4,2]"
    assert "n_winner 3" in text


def test_allocate_methods():
    code, text = run(["allocate", "20", "--method", "five-pile"])
    assert code == 0 and text.splitlines()[0] == "[9,8,1,1,1]"
    code, text = run(["allocate", "10", "--method", "exhaustive"])
    assert code == 0 and text.splitlines()[0] == "[5,4,1]"


def test_allocate_json():
    code, text = run(["allocate", "12", "--format", "json"])
    assert code == 0
    d = json.loads(text)
    assert d["game"] == [6, 4, 2] and d["n_winner"] == 3
    assert d["construction"] == "equality-case3"
    assert d["value"] == d["n_loser"] - d["n_winner"] and d["line"]


def test_allocate_equality_miss_is_exit_1():
    code, _ = run(["allocate", "18", "--method", "equality"])
    assert code == 1


def test_allocate_past_the_partition_budget_is_exit_3(monkeypatch):
    monkeypatch.setattr("candynim.allocation._PARTITION_BUDGET", 10)
    assert run(["allocate", "10", "--method", "exhaustive"])[0] == 3


def test_allocate_odd_total_is_usage_error():
    code, _ = run(["allocate", "11"])
    assert code == 2


def test_simulate_text_and_value():
    code, text = run(["simulate", "flip-flop", "[1,2,3]"])
    assert code == 0
    assert text.endswith("loser 4\nwinner 2\nvalue 2\n")
    assert text.splitlines()[0] == "[3(-3 L), 2, 1]"


def test_simulate_pile_cap_budget_exit_3():
    # past three piles the winner's replies come from the configured solver
    assert run(["simulate", "largest", "[1,2,4,7]", "--pile-cap", "3"])[0] == 3
    assert run(["simulate", "largest", "[1,2,4,7]"])[0] == 0


def test_simulate_rejects_n_position():
    code, _ = run(["simulate", "largest", "[5,3]"])
    assert code == 2


def test_simulate_render_round_trip(tmp_path):
    code, payload = run(["simulate", "fractal", "[7,16,23]", "--format", "json"])
    assert code == 0
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(payload)
    code, diagram = run(["render", str(trace_file)])
    assert code == 0
    code2, direct = run(["simulate", "fractal", "[7,16,23]"])
    assert diagram == direct[: len(diagram)]


def test_render_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["render", str(bad)])[0] == 2
    assert run(["render", str(tmp_path / "missing.json")])[0] == 2


def test_bounds_table_and_point():
    code, text = run(["bounds", "standard-form-interval", "--profile", "smoke"])
    assert code == 0
    assert "ok" in text and "VIOLATED" not in text
    code, text = run(["bounds", "neighbor-transfer-interval", "k=4,m=1,x=10"])
    assert code == 0
    assert "42" in text and "96" in text and "118" in text


def test_bounds_bad_params():
    assert run(["bounds", "standard-form-interval", "k=one"])[0] == 2
    assert run(["bounds", "unknown-sweep"])[0] == 2


@pytest.mark.parametrize("claim,params", [
    ("standard-form-interval", "a=1,m=2"),  # missing k, a not taken
    ("standard-form-interval", "k=1,m=2,x=1"),  # x not taken
    ("family-offset-lower", "k=1,m=2"),  # missing a
    ("neighbor-transfer-interval", "k=1"),  # missing m
    ("family-offset-lower", "a=\u0663,m=1,x=0"),  # non-ASCII digit
    ("family-offset-lower", "a=\u00b2,m=1,x=0"),  # isdigit() but not int()
    ("family-offset-lower", "a=3,a=1,m=1"),  # repeated key
    ("standard-form-interval", "k=1,\u3000m=2"),  # non-ASCII whitespace
    ("standard-form-interval", ""),  # an empty point is not the whole sweep
])
def test_bounds_point_with_wrong_keys_is_usage_error(claim, params):
    assert run(["bounds", claim, params]) == (2, "")


def test_verify_single_and_exit_codes():
    code, text = run(["verify", "small-family-value", "--profile", "smoke"])
    assert code == 0
    assert "status pass" in text
    code, text = run(["verify", "flip-flop-value", "--profile", "smoke"])
    assert code == 0  # noted discrepancies stay green
    assert "status discrepancy-noted" in text
    assert run(["verify", "no-such-claim"])[0] == 2


def test_verify_all_smoke_json_stable():
    a = run(["verify", "all", "--profile", "smoke", "--format", "json"])
    b = run(["verify", "all", "--profile", "smoke", "--format", "json"])
    assert a == b
    assert a[0] == 0
    assert len(a[1].strip().splitlines()) == 29


def test_parse_error_exit_2():
    assert run(["solve", "[1,2"])[0] == 2


def test_pile_cap_budget_exit_3():
    assert run(["--pile-cap", "4", "solve", "[8,8]"])[0] == 3


def test_pile_too_long_for_int_exits_3():
    # past int()'s 4,300-digit limit, still the hard cap's budget error
    assert run(["solve", "[" + "9" * 5000 + "]"])[0] == 3


def test_solve_pile_past_the_c_int_recursion_limit():
    code, text = run(["solve", "[2147483648]", "--pile-cap", "4294967295", "--engine", "python"])
    assert code == 0
    assert text == "value -2147483648\n2147483648->0\n"


# sha256 of the solve and allocate JSON below: values, splits and principal
# lines of every game of at most 4 piles and 12 candies, pinned byte for byte
SOLVE_ALLOCATE_JSON_SHA256 = "58365cf09c93e1c83503814579efe7c0bfe6cdbd81bd157e53a2bf368ab85fc6"


def test_solve_and_allocate_json_bytes_are_pinned(monkeypatch):
    games = [
        c
        for r in range(1, 5)
        for c in combinations_with_replacement(range(1, 13), r)
        if sum(c) <= 12
    ] + [(1, 5, 16, 20), (31, 42, 53)]
    batch = "".join("[" + ",".join(map(str, c)) + "]\n" for c in games)
    code, text = run(["solve", "-", "--format", "json"], stdin=batch, monkeypatch=monkeypatch)
    assert code == 0
    for total in range(4, 25, 2):
        code, line = run(["allocate", str(total), "--format", "json"])
        assert code == 0
        text += line
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVE_ALLOCATE_JSON_SHA256


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        run(["frobnicate", "[1]"])
    assert e.value.code == 2


def test_env_fallbacks(monkeypatch):
    monkeypatch.setenv("CANDYNIM_FORMAT", "json")
    code, text = run(["classify", "[1,2,3]"])
    assert code == 0
    assert json.loads(text)["outcome"] == "P"
    # explicit flag beats the environment
    code, text = run(["classify", "[1,2,3]", "--format", "text"])
    assert text == "P\n"


def test_env_bad_cap_is_usage_error(monkeypatch):
    monkeypatch.setenv("CANDYNIM_PILE_CAP", "lots")
    assert run(["solve", "[1,2,3]"])[0] == 2


# int() takes other scripts' digits, "_" separators and non-ASCII space;
# game and point notation refuse them, and so does every integer argument
NOT_ASCII_INTS = ["١٠", "1_0", "\u00a010", "٥٠"]


@pytest.mark.parametrize("text", NOT_ASCII_INTS)
@pytest.mark.parametrize("argv", [
    ["allocate", "{}"],
    ["solve", "[1,2,3]", "--pile-cap", "{}"],
    ["solve", "[1,2,3]", "--memo-cap", "{}"],
])
def test_integer_arguments_take_ascii_digits_only(argv, text):
    with pytest.raises(SystemExit) as e:
        run([arg.format(text) for arg in argv])
    assert e.value.code == 2


@pytest.mark.parametrize("text", NOT_ASCII_INTS + ["1_000"])
@pytest.mark.parametrize("name", ["CANDYNIM_PILE_CAP", "CANDYNIM_MEMO_CAP"])
def test_integer_environment_takes_ascii_digits_only(monkeypatch, name, text):
    monkeypatch.setenv(name, text)
    assert run(["solve", "[1,2,3]"])[0] == 2


def test_integer_arguments_keep_the_sign_and_ascii_space_int_takes(monkeypatch):
    assert run(["allocate", " +10\t"]) == run(["allocate", "10"])
    assert run(["allocate", "--", "-4"])[0] == 2  # need total >= 2
    monkeypatch.setenv("CANDYNIM_MEMO_CAP", " 1000\n")
    assert run(["solve", "[1,2,3]"]) == (0, "value 2\n3->0 2->1 1->0 1->0\n")
    assert run(["solve", "[1,2,3]", "--pile-cap", "+2"])[0] == 3


def test_config_validation():
    with pytest.raises(ValueError):
        CliConfig(output_format="yaml")
    with pytest.raises(ValueError):
        CliConfig(budget_profile="huge")
    with pytest.raises(ValueError):
        CliConfig(pile_cap=0)


def test_parser_covers_all_subcommands():
    p = build_parser()
    help_text = p.format_help()
    for cmd in ("solve", "classify", "moves", "simulate", "bounds",
                "allocate", "verify", "render"):
        assert cmd in help_text


def test_main_returns_int():
    assert main(["classify", "[1,2,3]"]) == 0


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on the package under test."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "candynim", "solve", "[1,5,16,20]")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(["solve", "[1,5,16,20]"])[1]
    assert _python("-m", "candynim", "solve", "[1,2").returncode == 2


def test_importing_the_cli_leaves_multiprocessing_out():
    # only Solver.solve(workers > 1) needs it, and imports it itself
    proc = _python("-c", "import sys, candynim.cli; print('multiprocessing' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
