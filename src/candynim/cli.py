"""Command-line frontend.

Subcommands cover the whole library surface: exact solving, outcome
classification, move listing, strategy simulation with trace diagrams,
bound tables, candy-minimizing arrangements, and the claim harness.
Output is deterministic for a fixed argv and configuration; there is no
randomness anywhere to seed.

Exit codes: 0 success, 1 a verified claim failed or a requested
arrangement does not exist, 2 usage error (bad notation, unknown
subcommand or claim), 3 a search or memo budget was exceeded.

Flags have environment fallbacks: CANDYNIM_FORMAT, CANDYNIM_PROFILE,
CANDYNIM_PILE_CAP, CANDYNIM_MEMO_CAP, CANDYNIM_ENGINE.  A game argument
of ``-`` reads one game per line from stdin and emits one result line
per game.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .allocation import (
    equality_arrangements,
    exhaustive_min_winner,
    five_pile_construct,
)
from .core import _SPACE, Game, Turn, _Record, loser_moves, winning_moves
from .errors import BudgetError, CandyNimError, ConstructionError, ParseError
from .harness import (
    PROFILES,
    bound_row,
    bound_rows,
    exit_status,
    json_line,
    render_trace,
    report_lines,
    run_all,
    summary_table,
    verify_claim,
)
from .solver import DEFAULT_MEMO_CAP, DEFAULT_PILE_CAP, ENGINES, Solver
from .strategies import (
    StrategyTrace,
    flip_flop_policy,
    fractal_policy,
    half,
    largest_pile_policy,
    simulate,
)

ENV_PREFIX = "CANDYNIM_"
FORMATS = ("text", "json", "csv")

_STRATEGIES = {
    "flip-flop": flip_flop_policy,
    "fractal": lambda g: fractal_policy(half, g),
    "largest": largest_pile_policy,
}


class CliConfig(_Record):
    """Resolved run configuration; defaults match the acceptance runs."""

    output_format: str
    budget_profile: str
    pile_cap: int
    memo_cap: int
    engine: str

    def __init__(
        self,
        output_format: str = "text",
        budget_profile: str = "desk",
        pile_cap: int = DEFAULT_PILE_CAP,
        memo_cap: int = DEFAULT_MEMO_CAP,
        engine: str = "auto",
    ):
        fields = self.__dict__
        fields["output_format"] = output_format
        fields["budget_profile"] = budget_profile
        fields["pile_cap"] = pile_cap
        fields["memo_cap"] = memo_cap
        fields["engine"] = engine
        if output_format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if budget_profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if pile_cap < 1 or memo_cap < 1:
            raise ValueError("caps must be positive")

    def solver(self) -> Solver:
        return Solver(
            engine=self.engine, pile_cap=self.pile_cap, memo_cap=self.memo_cap
        )


def _env(name: str) -> Optional[str]:
    return os.environ.get(ENV_PREFIX + name)


def ascii_int(text: str) -> int:
    """``int(text)`` on ASCII digits only, as game notation reads them.

    The type of every integer argument and the parser of the integer
    environment fallbacks.  A sign and surrounding ASCII whitespace are
    taken, as ``int`` takes them; other scripts' digits, ``_`` separators
    and non-ASCII whitespace, which ``int`` takes too, raise ValueError.
    """
    body = text.strip(_SPACE)
    digits = body[1:] if body.startswith(("+", "-")) else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(body)


def _resolve_config(args: argparse.Namespace) -> CliConfig:
    fmt = args.format or _env("FORMAT") or "text"
    profile = args.profile or _env("PROFILE") or "desk"
    engine = args.engine or _env("ENGINE") or "auto"
    try:
        pile_cap = args.pile_cap if args.pile_cap is not None else ascii_int(
            _env("PILE_CAP") or str(DEFAULT_PILE_CAP)
        )
        memo_cap = args.memo_cap if args.memo_cap is not None else ascii_int(
            _env("MEMO_CAP") or str(DEFAULT_MEMO_CAP)
        )
    except ValueError as exc:
        raise ValueError(f"bad cap in environment: {exc}") from exc
    return CliConfig(
        output_format=fmt,
        budget_profile=profile,
        pile_cap=pile_cap,
        memo_cap=memo_cap,
        engine=engine,
    )


def _fmt_num(x) -> str:
    """Exact rendering: integers plain, non-integral rationals as p/q."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _add_common(p: argparse.ArgumentParser, trailing: bool) -> None:
    # trailing copies let the flags follow the subcommand; SUPPRESS keeps
    # them from clobbering values parsed before it
    d = argparse.SUPPRESS if trailing else None
    p.add_argument("--format", "-f", choices=FORMATS, default=d,
                   help="output format (default text, env CANDYNIM_FORMAT)")
    p.add_argument("--profile", choices=PROFILES, default=d,
                   help="budget profile for sweeps (default desk, env CANDYNIM_PROFILE)")
    p.add_argument("--pile-cap", type=ascii_int, default=d,
                   help="largest pile size accepted (env CANDYNIM_PILE_CAP)")
    p.add_argument("--memo-cap", type=ascii_int, default=d,
                   help="transposition table entry budget (env CANDYNIM_MEMO_CAP)")
    p.add_argument("--engine", choices=ENGINES, default=d,
                   help="solver engine selection (default auto, env CANDYNIM_ENGINE)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="candynim",
        description="Exact candy-optimal Nim analysis.",
    )
    _add_common(p, trailing=False)
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("solve", help="exact value and one optimal line")
    sp.add_argument("game", help="game notation like [1,5,16,20], or - for stdin batch")
    _add_common(sp, trailing=True)

    sp = sub.add_parser("classify", help="P or N outcome")
    sp.add_argument("game", help="game notation, or - for stdin batch")
    _add_common(sp, trailing=True)

    sp = sub.add_parser("moves", help="loser moves in P positions, winning moves in N")
    sp.add_argument("game", help="game notation, or - for stdin batch")
    _add_common(sp, trailing=True)

    sp = sub.add_parser("simulate", help="run a scripted loser strategy to the end")
    sp.add_argument("strategy", choices=sorted(_STRATEGIES))
    sp.add_argument("game", help="zero-nim-sum game notation")
    _add_common(sp, trailing=True)

    sp = sub.add_parser("bounds", help="bound table for a sweep claim")
    sp.add_argument("claim", help="one of the bound-sweep claim ids")
    sp.add_argument("params", nargs="?", default=None,
                    help="optional single point like k=1,m=2 or a=3,m=1,x=2")
    _add_common(sp, trailing=True)

    sp = sub.add_parser("allocate", help="zero-nim-sum arrangement minimizing winner candies")
    sp.add_argument("total", type=ascii_int, help="even candy total to arrange")
    sp.add_argument("--method", choices=("auto", "equality", "five-pile", "exhaustive"),
                    default="auto")
    _add_common(sp, trailing=True)

    sp = sub.add_parser("verify", help="run claim sweeps and report")
    sp.add_argument("target", help="a claim id, or all")
    _add_common(sp, trailing=True)

    sp = sub.add_parser("render", help="draw a simulate trace from its JSON file")
    sp.add_argument("tracefile", help="path to simulate --format json output, or -")
    _add_common(sp, trailing=True)

    return p


# --------------------------------------------------------------- solve


def _csv_out(header: Sequence[str], rows) -> str:
    import csv  # only --format csv needs it, so other runs never load it

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _games_from(arg: str) -> tuple[list[Game], bool]:
    """The games named by the argument; True when reading a stdin batch."""
    if arg != "-":
        return [Game.parse(arg)], False
    games = []
    for line in sys.stdin:
        line = line.strip(_SPACE)
        if line:
            games.append(Game.parse(line))
    return games, True


def _cmd_solve(args, cfg: CliConfig, out) -> int:
    games, batch = _games_from(args.game)
    solver = cfg.solver()
    results = [solver.solve(g) for g in games]
    if cfg.output_format == "json":
        for r in results:
            out.write(json_line(r.to_json_dict()) + "\n")
    elif cfg.output_format == "csv":
        out.write(_csv_out(
            ["game", "value", "n_loser", "n_winner"],
            ([str(r.game), r.value, r.n_loser, r.n_winner] for r in results),
        ))
    elif batch:
        for r in results:
            out.write(f"{r.game} value {r.value}\n")
    else:
        r = results[0]
        line = " ".join(ply.describe(pos) for pos, _, ply, _ in r.steps())
        out.write(f"value {r.value}\n{line}\n")
    return 0


def _cmd_classify(args, cfg: CliConfig, out) -> int:
    games, batch = _games_from(args.game)
    if cfg.output_format == "json":
        for g in games:
            out.write(json_line({"game": list(g.piles), "outcome": g.outcome.name}) + "\n")
    elif cfg.output_format == "csv":
        out.write(_csv_out(["game", "outcome"],
                           ([str(g), g.outcome.name] for g in games)))
    else:
        for g in games:
            out.write(f"{g} {g.outcome.name}\n" if batch else f"{g.outcome.name}\n")
    return 0


def _cmd_moves(args, cfg: CliConfig, out) -> int:
    games, batch = _games_from(args.game)
    rows = []
    for g in games:
        plies = winning_moves(g) if g.grundy else loser_moves(g)
        rows.append((g, plies))
    if cfg.output_format == "json":
        for g, plies in rows:
            out.write(json_line(
                {
                    "game": list(g.piles),
                    "outcome": g.outcome.name,
                    "moves": [{"pile": p.pile_index, "from": g[p.pile_index],
                               "to": p.new_size} for p in plies],
                }) + "\n")
    elif cfg.output_format == "csv":
        out.write(_csv_out(
            ["game", "pile", "from", "to"],
            ([str(g), p.pile_index, g[p.pile_index], p.new_size]
             for g, plies in rows for p in plies),
        ))
    else:
        for g, plies in rows:
            if batch:
                out.write(f"{g} " + " ".join(p.describe(g) for p in plies) + "\n")
            else:
                for p in plies:
                    out.write(f"pile {p.pile_index}: {p.describe(g)}\n")
    return 0


# ------------------------------------------------------------ simulate


def _trace_json(game: Game, strategy: str, t: StrategyTrace) -> dict:
    return {
        "game": list(game.piles),
        "strategy": strategy,
        "strategic_value": t.strategic_value,
        "loser_total": t.loser_total,
        "winner_total": t.winner_total,
        "turns": [
            {
                "before": list(turn.before.piles),
                "after_loser": list(turn.after_loser.piles),
                "after_winner": list(turn.after_winner.piles),
            }
            for turn in t.turns
        ],
    }


def _cmd_simulate(args, cfg: CliConfig, out) -> int:
    game = Game.parse(args.game)
    trace = simulate(_STRATEGIES[args.strategy], game, cfg.solver())
    if cfg.output_format == "json":
        out.write(json_line(_trace_json(game, args.strategy, trace)) + "\n")
    elif cfg.output_format == "csv":
        out.write(_csv_out(
            ["turn", "loser_take", "winner_take"],
            ([i, t.loser_take, t.winner_take]
             for i, t in enumerate(trace.turns, start=1)),
        ))
    else:
        diagram = render_trace(trace)
        if diagram:
            out.write(diagram)
        out.write(f"loser {trace.loser_total}\n")
        out.write(f"winner {trace.winner_total}\n")
        out.write(f"value {trace.strategic_value}\n")
    return 0


def _cmd_render(args, cfg: CliConfig, out) -> int:
    if args.tracefile == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.tracefile, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read trace file: {exc}") from exc
    try:
        data = json.loads(raw)
        turns = tuple(
            Turn(
                Game(t["before"]),
                Game(t["after_loser"]),
                Game(t["after_winner"]),
            )
            for t in data["turns"]
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not a trace file: {exc}") from exc
    out.write(render_trace(StrategyTrace(turns)))
    return 0


# -------------------------------------------------------------- bounds


def _parse_point(params: str) -> dict[str, int]:
    point = {}
    for field in params.split(","):
        key, _, val = field.partition("=")
        key = key.strip(_SPACE)
        val = val.strip(_SPACE)
        # ASCII only, as in Game.parse; a repeated key is an error
        if (key not in ("k", "m", "a", "x") or key in point
                or not (val.isascii() and val.isdigit())):
            raise ParseError(f"bad bound parameters {params!r}, want e.g. k=1,m=2")
        point[key] = int(val)
    return point


def _cmd_bounds(args, cfg: CliConfig, out) -> int:
    solver = cfg.solver()
    if args.params is not None:
        rows = [bound_row(args.claim, _parse_point(args.params), solver)]
    else:
        rows = bound_rows(args.claim, cfg.budget_profile, solver)
    if cfg.output_format == "json":
        for row in rows:
            out.write(json_line(
                {k: _fmt_num(v) if isinstance(v, Fraction) else v
                 for k, v in row.items()}) + "\n")
    elif cfg.output_format == "csv":
        out.write(_csv_out(
            ["claim_id", "params", "lower", "exact", "upper", "holds"],
            ([r["claim_id"], r["params"], _fmt_num(r["lower"]), _fmt_num(r["exact"]),
              _fmt_num(r["upper"]), str(r["holds"]).lower()] for r in rows),
        ))
    else:
        for r in rows:
            mark = "ok" if r["holds"] else "VIOLATED"
            up = _fmt_num(r["upper"]) if r["upper"] != "" else "-"
            out.write(f"{r['params']:<16} {_fmt_num(r['lower']):>6} "
                      f"<= {_fmt_num(r['exact']):>6} <= {up:>6}  {mark}\n")
    return 0


# ------------------------------------------------------------ allocate


def _cmd_allocate(args, cfg: CliConfig, out) -> int:
    solver = cfg.solver()
    total = args.total
    if args.method == "five-pile":
        result = five_pile_construct(total, solver)
    elif args.method == "exhaustive":
        result = exhaustive_min_winner(total, solver=solver)[0]
    else:
        closed = equality_arrangements(total, solver)
        if closed:
            result = closed[0]
        elif args.method == "equality":
            print(f"no closed-form arrangement for total {total}", file=sys.stderr)
            return 1
        else:
            result = five_pile_construct(total, solver)
    if cfg.output_format == "json":
        d = solver.solve(result.game).to_json_dict()
        d["construction"] = result.construction
        out.write(json_line(d) + "\n")
    elif cfg.output_format == "csv":
        out.write(_csv_out(
            ["game", "n_winner", "construction"],
            [[str(result.game), result.n_winner, result.construction]],
        ))
    else:
        out.write(f"{result.game}\n")
        out.write(f"n_winner {result.n_winner}\n")
        out.write(f"construction {result.construction}\n")
    return 0


# -------------------------------------------------------------- verify


def _cmd_verify(args, cfg: CliConfig, out) -> int:
    solver = cfg.solver()
    if args.target == "all":
        reports = run_all(cfg.budget_profile, solver)
    else:
        reports = (verify_claim(args.target, cfg.budget_profile, solver),)
    if cfg.output_format == "json":
        out.write(report_lines(reports))
    elif cfg.output_format == "csv":
        out.write(_csv_out(
            ["claim_id", "status", "instances", "flagged", "params"],
            ([r.claim_id, r.status, r.instances, len(r.failures), r.params]
             for r in reports),
        ))
    elif args.target == "all":
        out.write(summary_table(reports))
    else:
        r = reports[0]
        out.write(f"claim {r.claim_id}\n")
        out.write(f"status {r.status}\n")
        out.write(f"params {r.params}\n")
        out.write(f"instances {r.instances}\n")
        out.write(f"notes {r.notes}\n")
        for f in r.failures:
            out.write(f"failure {f}\n")
    return exit_status(reports)


_COMMANDS = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "moves": _cmd_moves,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "allocate": _cmd_allocate,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def dispatch(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Parse argv, run the subcommand, and return the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](args, cfg, out)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"no arrangement: {exc}", file=sys.stderr)
        return 1
    except (CandyNimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
