"""One benchmark process: set up candynim, run one workload, check it.

``run.py`` starts this file in a fresh interpreter per measurement, with
``PYTHONPATH`` pointing at the package that the checkout's ``setup.py``
built, and reads the JSON object it prints as its last line::

    python3 perfbench/bench.py --workload solve-cold --seed 0 --seconds 10 \\
        --role run --trace 0

``--role setup`` only times the set-up (import, ``Solver()``, and the table
fill on ``query-warm``).  ``--role run`` also runs the workload: untraced
(``--trace 0``) it reports op latencies; traced (``--trace 1``) it runs one
untraced pass, then the same inputs again with spans around the public
calls, and reports per-layer numbers plus the overhead between the passes.

Every process is single-threaded and starts no other process, so the
package's process-wide default solvers cannot carry tables from one
measurement into another.  All times are taken on a :class:`HostClock`
and reported at its reference host speed (see ``hostclock.py``).

Workloads (the seed only ever reaches the generators below):

* ``solve-cold`` -- an op is one P position of width 3-7 solved on a fresh
  ``Solver()``: the engine's search does nearly all the work and every
  P-state is a new table insert.
* ``query-warm`` -- an op is one text line, parsed and queried on one
  ``Solver`` whose table a fill (counted in set-up) has already built: the
  facade and ``core`` do most of the work; no P-state is written.
* ``verify-desk`` -- an op is one ``candynim verify all --profile desk
  --format json`` sweep: the only workload through harness, allocation,
  strategies and bounds.

Every per-layer metric is printed on every workload; a layer the workload
does not reach reads 0.

Layer -> metric -> the end-to-end metric it should move, and where:

* engine (``engine.*``): ops_per_s and latencies on solve-cold, wall_s on
  verify-desk, setup_s on query-warm; ``engine.tables`` on verify-desk only.
* solver facade (``solver.*``): latencies and ops_per_s on query-warm; the
  call counts move wall_s on verify-desk.
* core (``core.*``): ops_per_s on query-warm.
* harness, allocation, strategies, bounds, cli: wall_s on verify-desk.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import catalogue
from hostclock import HostClock
from spans import Recorder

WORKLOADS = ("solve-cold", "query-warm", "verify-desk")
DEFAULT_SEED = 0

# solve-cold: each width's catalogue entries, ranked by P-states, form
# COLD_GROUPS equal groups; a seed draws COLD_PER_GROUP games from each, so
# every batch spans the same range of work.  The anchors are the source
# paper's worked values.
COLD_GROUPS = 20
COLD_PER_GROUP = 1
ANCHORS = {(20, 16, 5, 1): 28, (53, 42, 31): 96}

# query-warm: lines per batch, pile counts, total cap and the fixed mix.
QUERY_LINES = 1000
QUERY_WIDTHS = (2, 8)
QUERY_MAX_TOTAL = 80
QUERY_MIX = ("solve", "value", "best_plies", "moves")
# The oracle is memoless and exponential: up to 0.5 s at a total of 10, but
# 10 s to minutes for six to eight piles of total 12-16.
ORACLE_MAX_TOTAL = 10

# Shortest stretch of passes timed against its own calibrations.
WINDOW_S = 1.0

# Games of solve-cold that the native/Python parity check re-solves.
PARITY_SAMPLE = 8

# Passes of each kind in a traced run: a solve-cold pass takes seconds, a
# query-warm pass tens of ms.
TRACE_PASSES = {"solve-cold": 1, "query-warm": 20}

VERIFY_ARGV = ["verify", "all", "--profile", "desk", "--format", "json"]
VERIFY_SHA256 = "f5d5572468b51a10cf523c28a220cef95d7ee1e43ae38acb9e6677bbe8c7f8e3"
VERIFY_STATUSES = {"pass": 26, "discrepancy-noted": 3}

# sha256 of the answers for DEFAULT_SEED, recorded with the pure-Python
# engine; both engines must reproduce them exactly.
ANSWER_SHA256 = {
    "solve-cold": "c5cd92a0b9e1bf8f2dd8cdce5497c2f3f90b92ff38f8eeb73064a3968719cfd3",
    "query-warm": "e1467336bed0e114e4cb14c186f9b54ae079886c8381e97f4ae4077b321f58a4",
}


# ------------------------------------------------------------ generators


def cold_batch(seed: int, per_group: int = COLD_PER_GROUP) -> list[tuple]:
    """The solve-cold games: the anchors plus ``per_group`` per work group."""
    by_width: dict[int, list[dict]] = {}
    for e in catalogue.load():
        by_width.setdefault(len(e["piles"]), []).append(e)
    rng = random.Random(seed)
    games = list(ANCHORS)
    for w in sorted(by_width):
        ranked = sorted(by_width[w], key=lambda e: (e["p_states"], e["piles"]))
        size = len(ranked) // COLD_GROUPS
        for k in range(COLD_GROUPS):
            group = ranked[k * size:(k + 1) * size]
            games.extend(tuple(e["piles"]) for e in rng.sample(group, per_group))
    rng.shuffle(games)
    return games


def query_lines(seed: int, n: int = QUERY_LINES) -> list[str]:
    """Text lines of P and N positions, unsorted, in both accepted notations.

    Line ``k`` has ``lo + k % 7`` piles and is a P position when ``k // 7``
    is even, so every seed gives the same mix of widths, P and N, and query
    kinds; the seed draws only pile sizes and notation.  With the widths
    drawn too, the mix moved the batch's mean op time by more than the
    host does.
    """
    rng = random.Random(seed)
    lo, hi = QUERY_WIDTHS
    span = hi - lo + 1
    lines = []
    while len(lines) < n:
        w = lo + len(lines) % span
        cap = QUERY_MAX_TOTAL // w
        want_p = len(lines) // span % 2 == 0
        piles = [rng.randint(1, cap) for _ in range(w - 1 if want_p else w)]
        x = 0
        for p in piles:
            x ^= p
        if want_p:
            piles.append(x)
        if x == 0 or sum(piles) > QUERY_MAX_TOTAL:
            continue
        body = ",".join(map(str, piles))
        lines.append(f"[{body}]" if rng.random() < 0.5 else body.replace(",", ", "))
    return lines


# ----------------------------------------------------------- set-up


def setup(workload: str, seed: int, clock: HostClock, solver_factory=None, size=None):
    """Import the package, make a solver, fill it on query-warm; time each.

    Times are raw ns on ``clock`` plus the ``scale`` that brings them to
    reference speed.  ``size`` resizes the batch (games per group, or query
    lines) for tests.
    """
    since = clock.snapshot()
    t0 = clock.work_ns()
    import candynim
    import candynim.cli  # noqa: F401  (the console script imports it too)

    t1 = clock.work_ns()
    solver = (solver_factory or candynim.Solver)()
    t2 = clock.work_ns()
    items = None
    fill_ns = 0
    if workload == "solve-cold":
        games = cold_batch(seed, COLD_PER_GROUP if size is None else size)
        items = [candynim.Game(p) for p in games]
    elif workload == "query-warm":
        items = query_lines(seed, QUERY_LINES if size is None else size)
        seen = set()
        t3 = clock.work_ns()
        with clock.between_ops():
            for line in items:
                g = candynim.Game.parse(line)
                if g not in seen:
                    seen.add(g)
                    solver.value(g)
                clock.poll()
        fill_ns = clock.work_ns() - t3
    times = {"import_ns": t1 - t0, "solver_ns": t2 - t1, "fill_ns": fill_ns,
             "scale": clock.scale(since)}
    return solver, items, times


# ------------------------------------------------------------ timing


class OpError:
    """An op that raised; kept in place of its answer and counted as failed."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed op is counted, not fatal
        return OpError(exc)


def measure(op, items, seconds: float, clock: HostClock, min_passes: int = 1,
            settle=None):
    """Run ``op`` over ``items`` in whole passes, timing every call.

    ``min_passes`` passes always run; another follows while it would still
    end within ``seconds``.  ``settle(item, answer)``, if given, turns each
    answer into the one kept, after its call is timed.  Host-speed
    calibrations are taken between calls, not inside them.

    Passes are grouped into windows of at least ``WINDOW_S``; each window
    is brought to reference speed by its own calibrations, and an item's
    time is the median over windows of its mean time in the window, so a
    burst of host load moves one window, not the result.  Returns the
    first pass's answers, each item's time in ns and, per later pass, the
    answers that differed from the first pass, by item index.
    """
    windows: list[list[float]] = []
    total = [0] * len(items)
    changed: list[dict] = []
    first = None
    passes = in_window = 0
    since = clock.snapshot()
    start = w0 = perf_counter()
    with clock.between_ops():
        while True:
            p0 = perf_counter()
            answers = []
            for i, item in enumerate(items):
                t = clock.work_ns()
                a = _guarded(op, i, item)
                total[i] += clock.work_ns() - t
                if settle is not None and not isinstance(a, OpError):
                    a = _guarded(settle, item, a)
                answers.append(a)
                clock.poll()
            passes += 1
            in_window += 1
            last = perf_counter() - p0
            if first is None:
                first = answers
            else:
                changed.append({i: b for i, (a, b) in enumerate(zip(first, answers)) if a != b})
            done = passes >= min_passes and perf_counter() - start + last > seconds
            if done or perf_counter() - w0 >= WINDOW_S:
                scale = clock.scale(since) / in_window
                windows.append([t * scale for t in total])
                total, in_window = [0] * len(items), 0
                since, w0 = clock.snapshot(), perf_counter()
            if done:
                return first, [statistics.median(col) for col in zip(*windows)], changed


class Cold:
    """A solve-cold answer: the result and the game's ``best_plies``.

    The plies are asked of the op's solver after the op is timed; the
    solver and its table are then dropped, so ``peak_rss_mb`` holds one
    game's table, not every game's.
    """

    __slots__ = ("result", "best", "engines")

    def __init__(self, result, best, engines):
        self.result, self.best, self.engines = result, best, engines

    def __eq__(self, other):
        return isinstance(other, Cold) and self.result == other.result


def latency_metrics(item_ns: list[float]) -> dict:
    """End-to-end numbers from each item's time: ``wall_s`` is one pass."""
    q = statistics.quantiles(item_ns, n=100, method="inclusive")
    wall = sum(item_ns) / 1e9
    return {
        "wall_s": wall,
        "ops_per_s": len(item_ns) / wall,
        "latency_p50_ms": q[49] / 1e6,
        "latency_p90_ms": q[89] / 1e6,
        "latency_p99_ms": q[98] / 1e6,
    }


# ----------------------------------------------------------- checks


def replay(piles: tuple, line) -> int:
    """Loser-minus-winner candy of a line, replayed without the package."""
    piles = sorted(piles, reverse=True)
    x = 0
    for p in piles:
        x ^= p
    sign = 1 if x == 0 else -1  # the loser moves first at a P position
    diff = 0
    for i, new in line:
        if not 0 <= new < piles[i]:
            raise ValueError(f"illegal ply {i}->{new} at {piles}")
        diff += sign * (piles[i] - new)
        sign = -sign
        piles = sorted(piles[:i] + piles[i + 1:] + ([new] if new else []), reverse=True)
    if piles:
        raise ValueError(f"line stops at {piles}")
    return diff


def winning_plies(piles: tuple) -> list[tuple]:
    x = 0
    for p in piles:
        x ^= p
    return [(i, x ^ p) for i, p in enumerate(piles) if x and (x ^ p) < p]


def check_solution(game, result, best, oracle) -> list[str]:
    """Problems with one solved game; empty when every check holds.

    ``best`` is the game's ``best_plies``.
    """
    piles = game.piles
    line = [(p.pile_index, p.new_size) for p in result.principal_line]
    errors = []
    if result.value % 2 != sum(piles) % 2:
        errors.append("value parity differs from the total's")
    try:
        if replay(piles, line) != result.value:
            errors.append("value differs from the replayed principal line")
    except ValueError as exc:
        errors.append(f"principal line does not replay: {exc}")
    is_p = not winning_plies(piles)
    if line and is_p and result.principal_line[0] not in best:
        errors.append("first ply of the principal line is not in best_plies")
    if piles in ANCHORS and result.value != ANCHORS[piles]:
        errors.append(f"anchor value {result.value}, expected {ANCHORS[piles]}")
    if sum(piles) <= ORACLE_MAX_TOTAL:
        ref = oracle(game, engine="python")
        if (ref.value, ref.principal_line) != (result.value, result.principal_line):
            errors.append("disagrees with the oracle")
    return errors


def check_cold(g, a, candynim) -> bool:
    return isinstance(a, Cold) and a.result.game == g and not check_solution(
        g, a.result, a.best, candynim.oracle_solve)


def check_query(i: int, text: str, a, solver, candynim) -> bool:
    if isinstance(a, OpError):
        return False
    g = candynim.Game.parse(text)
    kind = QUERY_MIX[i % len(QUERY_MIX)]
    if kind == "solve":
        return not check_solution(g, a, solver.best_plies(g), candynim.oracle_solve)
    if kind == "value":
        if g.total <= ORACLE_MAX_TOTAL and a != candynim.oracle_solve(g, engine="python").value:
            return False
        return a == solver.solve(g).value and a % 2 == g.total % 2
    if kind == "best_plies":
        v = solver.value(g)
        sign = 1 if g.grundy == 0 else -1
        return bool(a) and all(sign * g.candies(p) + solver.value(g.apply(p)) == v for p in a)
    plies = [(p.pile_index, p.new_size) for p in a]
    if g.grundy:
        return plies == winning_plies(g.piles) and len(plies) % 2 == 1
    return len(plies) == g.total and len(set(plies)) == g.total


def answers_digest(items, answers) -> str:
    """sha256 over the answers in a canonical, engine-free JSON form."""
    rows = []
    for item, a in zip(items, answers):
        if isinstance(a, Cold):
            a = a.result
        if hasattr(a, "principal_line"):
            a = [a.value, [[p.pile_index, p.new_size] for p in a.principal_line]]
        elif isinstance(a, tuple):
            a = [[p.pile_index, p.new_size] for p in a]
        elif isinstance(a, OpError):
            a = a.text
        rows.append([str(item), a])
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def parity_check(games, candynim, seed: int) -> int:
    """Native and Python engines agree ply for ply on a seeded subsample.

    Runs only when the compiled kernel is importable; returns the number
    of disagreeing games.
    """
    if not candynim.solver.kernel_available():
        return 0
    sample = random.Random(seed).sample(list(games), min(PARITY_SAMPLE, len(games)))
    bad = 0
    for g in sample:
        native = candynim.Solver(engine="native").solve(g)
        python = candynim.Solver(engine="python").solve(g)
        bad += native != python
    return bad


# ---------------------------------------------------------- workloads


def cold_op(factory):
    """The op returns its solver too; :func:`settle_cold` drops it."""
    def op(i, g):
        solver = factory()
        return solver, solver.solve(g)
    return op


def settle_cold(g, answer) -> Cold:
    solver, result = answer
    return Cold(result, solver.best_plies(g), engines_used([solver]))


def query_op(candynim, solver):
    Game, core = candynim.Game, candynim.core
    kinds = QUERY_MIX

    def op(i, line):
        g = Game.parse(line)
        kind = kinds[i % len(kinds)]
        if kind == "solve":
            return solver.solve(g)
        if kind == "value":
            return solver.value(g)
        if kind == "best_plies":
            return solver.best_plies(g)
        return core.winning_moves(g) if g.grundy else core.loser_moves(g)
    return op


def run_timed(workload: str, seed: int, seconds: float, clock: HostClock,
              solver_factory=None, size=None) -> dict:
    """Untraced run of solve-cold or query-warm: latencies and checks."""
    solver, items, setup_times = setup(workload, seed, clock, solver_factory, size)
    import candynim

    factory = solver_factory or candynim.Solver
    if workload == "solve-cold":
        op, settle = cold_op(factory), settle_cold
    else:
        op, settle = query_op(candynim, solver), None
    first, item_ns, changed = measure(op, items, seconds, clock, settle=settle)
    result = latency_metrics(item_ns)
    result["peak_rss_mb"] = peak_rss_mb()
    result.update(finish(workload, seed, items, first, changed, solver, candynim))
    result["setup"] = setup_times
    return result


def finish(workload, seed, items, first, changed, solver, candynim) -> dict:
    """Checks run after timing; ``failed`` counts bad ops over all passes.

    ``changed`` holds, per later pass, the answers that differed from the
    first pass; an unchanged answer shares its first-pass verdict.
    """
    if workload == "solve-cold":
        games = items
        engines = sorted({e for a in first if isinstance(a, Cold) for e in a.engines})

        def good(i, a):
            return check_cold(items[i], a, candynim)
    else:
        games = [candynim.Game.parse(line) for line in items]
        engines = engines_used([solver])

        def good(i, a):
            return check_query(i, items[i], a, solver, candynim)
    ok = [good(i, a) for i, a in enumerate(first)]
    failed = ok.count(False) + sum(
        sum(not (good(i, later[i]) if i in later else ok[i]) for i in range(len(items)))
        for later in changed)
    passes = 1 + len(changed)
    parity = parity_check(games, candynim, seed)
    digest = answers_digest(items, first)
    correct = failed == 0 and parity == 0
    if seed == DEFAULT_SEED:
        correct = correct and digest == ANSWER_SHA256[workload]
    return {
        "attempted": len(items) * passes,
        "passes": passes,
        "failed": failed,
        "correct": correct,
        "digest": digest,
        "engine_parity_failures": parity,
        "engines": engines,
    }


def engines_used(solvers) -> list[str]:
    """Engines whose tables the solvers filled: ``native`` or ``python``."""
    return sorted({s["engine"].split("[")[0] for sv in solvers for s in sv.stats()})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------- traced passes


class Layers:
    """Spans around the package's public calls, one recorder per run."""

    SOLVER_METHODS = ("solve", "value", "best_plies")
    HARNESS_PEERS = ("allocation", "bounds", "strategies")

    def __init__(self, candynim, clock: HostClock):
        self.rec = Recorder(clock.work_ns)
        self.solvers: dict[int, object] = {}
        self.harness_solver = None
        for m in self.SOLVER_METHODS:
            self.rec.patch(candynim.Solver, m, "solver", self._solver_label(m))

    def _solver_label(self, method):
        def label(args):
            s = args[0]
            self.solvers[id(s)] = s
            if self.harness_solver is not None and s is not self.harness_solver:
                return method + ".other"
            return method
        return label

    def patch_core(self, candynim):
        self.rec.patch(candynim.Game, "parse", "core")
        for name in ("winning_moves", "loser_moves"):
            self.rec.patch(candynim.core, name, "core", lambda args: "moves")

    def patch_verify(self, candynim):
        import inspect

        cli, harness = candynim.cli, candynim.harness

        def run_all_label(args):
            self.harness_solver = args[1] if len(args) > 1 else None
            return "run_all"

        self.rec.patch(cli, "dispatch", "cli")
        self.rec.patch(cli, "run_all", "harness", run_all_label)
        self.rec.patch(harness, "verify_claim", "harness", lambda args: "claim:" + args[0])
        for layer in self.HARNESS_PEERS:
            module = getattr(candynim, layer)
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self.rec.patch(module, name, layer)
                if getattr(harness, name, None) is fn:
                    self.rec.patch(harness, name, layer)

    def last(self, idx: int) -> float:
        """Seconds of the span recorded at index ``idx``."""
        s = self.rec.spans[idx]
        return (s[3] - s[2]) / 1e9

    def mark(self, idx: int, layer: str) -> None:
        self.rec.spans[idx][0] = layer

    def calls(self, method: str) -> int:
        return sum(1 for s in self.rec.spans
                   if s[0] == "solver" and s[1].split(".")[0] == method)

    def mean_us(self, layer: str, name: str) -> float:
        d = self.rec.durations(layer, name)
        return statistics.fmean(d) * 1e6 if d else 0.0


PER_WIDTH = (3, 4, 5, 6, 7)
TIME_UNITS = ("s", "ms", "us", "ns")


def unit_of(name: str) -> str:
    """The unit of a metric, read off its name."""
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")) or ".claim_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "engine.ns_per_p_state":
        return "ns"
    return "count"


def to_reference(m: dict, scale: float) -> dict:
    """Bring every time-valued metric of ``m`` to reference speed."""
    for k in m:
        if unit_of(k) in TIME_UNITS:
            m[k] *= scale
    return m


def layer_template(claim_ids) -> dict:
    """Every per-layer metric, zero where the workload skips the layer."""
    m = {
        "engine.p_states": 0, "engine.probes": 0, "engine.hit_ratio": 0.0,
        "engine.ns_per_p_state": 0.0, "engine.tables": 0,
        "engine.native_share": 0.0, "engine.time_share": 0.0,
        "solver.line_us": 0.0, "solver.value_us": 0.0, "solver.best_plies_us": 0.0,
        "solver.solve_calls": 0, "solver.value_calls": 0, "solver.best_plies_calls": 0,
        "core.parse_us": 0.0, "core.moves_us": 0.0,
        "harness.self_s": 0.0,
        "allocation.s": 0.0, "allocation.self_s": 0.0, "allocation.positions": 0,
        "strategies.s": 0.0, "strategies.default_solver_calls": 0,
        "bounds.s": 0.0, "cli.self_s": 0.0,
        "setup.import_s": 0.0, "setup.fill_s": 0.0, "trace.overhead_ratio": 0.0,
    }
    for w in PER_WIDTH:
        m[f"engine.p_states.w{w}"] = 0
    for cid in claim_ids:
        m[f"harness.claim_s.{cid}"] = 0.0
    return m


def table_metrics(stats: list[dict], m: dict) -> None:
    """Fold ``Solver.stats()`` rows into the engine counters."""
    for s in stats:
        m["engine.p_states"] += s["entries"]
        m["engine.probes"] += s["hits"] + s["misses"]
        m["_hits"] = m.get("_hits", 0) + s["hits"]
        if s["engine"].startswith("native"):
            m["_native"] = m.get("_native", 0) + s["entries"]
            width = int(s["engine"][7:-1])
            if width in PER_WIDTH:
                m[f"engine.p_states.w{width}"] += s["entries"]
    m["engine.tables"] = max(m["engine.tables"], len(stats))


def close_engine(m: dict, engine_s: float) -> None:
    """Ratios of the engine counters; ``engine_s`` built the tables."""
    hits = m.pop("_hits", 0)
    native = m.pop("_native", 0)
    if m["engine.probes"]:
        m["engine.hit_ratio"] = hits / m["engine.probes"]
    if m["engine.p_states"]:
        m["engine.ns_per_p_state"] = engine_s * 1e9 / m["engine.p_states"]
        m["engine.native_share"] = native / m["engine.p_states"]


def traced_cold(candynim, games, factory, clock, m) -> tuple[list, float, Layers]:
    """solve-cold with spans.

    The op is split at its public calls: a cold ``value`` (the engine's
    search, marked as an ``engine`` span) and a warm ``solve`` that adds the
    principal line.  A warm ``value`` probe after the op, marked ``probe``
    and left out of the op time, is subtracted from the ``solve`` to give
    the line rebuild alone.
    """
    layers = Layers(candynim, clock)
    spans = layers.rec.spans
    op_ns, engine_s, line_s = 0, 0.0, []

    def one(g):
        nonlocal op_ns, engine_s
        t = clock.work_ns()
        solver = factory()
        i = len(spans)
        solver.value(g)
        j = len(spans)
        result = solver.solve(g)
        op_ns += clock.work_ns() - t
        layers.mark(i, "engine")
        engine_s += layers.last(i)
        stats = solver.stats()
        table_metrics(stats, m)
        if not any(s["engine"].startswith("native") for s in stats):
            m[f"engine.p_states.w{len(g)}"] += sum(s["entries"] for s in stats)
        k = len(spans)
        solver.value(g)
        layers.mark(k, "probe")
        line_s.append(layers.last(j) - layers.last(k))
        answer = settle_cold(g, (solver, result))
        clock.poll()
        return answer

    try:
        answers = [_guarded(one, g) for g in games]
    finally:
        layers.rec.restore()
    m["solver.line_us"] = statistics.fmean(line_s or [0.0]) * 1e6
    m["solver.value_us"] = layers.mean_us("probe", "value")
    m["solver.solve_calls"] = layers.calls("solve")
    m["solver.value_calls"] = layers.calls("value") + len(layers.rec.durations("engine"))
    close_engine(m, engine_s)
    m["engine.time_share"] = engine_s * 1e9 / op_ns if op_ns else 0.0
    return answers, op_ns, layers


def traced_query(candynim, lines, solver, clock, m, passes) -> tuple[list, float, Layers]:
    """query-warm with spans around parse, the query and, after each
    ``solve`` op, a warm ``value`` probe of the same game (left out of the
    op time) so the principal-line rebuild can be told apart.

    Runs ``passes`` passes, since one takes only tens of ms; returns the
    first pass's answers, the op time per pass and the layers.
    """
    layers = Layers(candynim, clock)
    layers.patch_core(candynim)
    spans = layers.rec.spans
    op = query_op(candynim, solver)
    op_ns, line_s = 0, []

    def one(i, line):
        nonlocal op_ns
        start = len(spans)
        t = clock.work_ns()
        a = op(i, line)
        op_ns += clock.work_ns() - t
        if QUERY_MIX[i % len(QUERY_MIX)] == "solve":
            k = len(spans)
            solver.value(a.game)
            layers.mark(k, "probe")
            line_s.append(layers.last(start + 1) - layers.last(k))
        clock.poll()
        return a

    try:
        first = [_guarded(one, i, line) for i, line in enumerate(lines)]
        for _ in range(passes - 1):
            for i, line in enumerate(lines):
                _guarded(one, i, line)
    finally:
        layers.rec.restore()
    m["solver.line_us"] = statistics.fmean(line_s or [0.0]) * 1e6
    m["solver.value_us"] = layers.mean_us("solver", "value")
    m["solver.best_plies_us"] = layers.mean_us("solver", "best_plies")
    for meth in Layers.SOLVER_METHODS:
        m[f"solver.{meth}_calls"] = layers.calls(meth) // passes
    m["core.parse_us"] = layers.mean_us("core", "parse")
    m["core.moves_us"] = layers.mean_us("core", "moves")
    solver_s = layers.rec.layer_times().get("solver", {}).get("total", 0.0)
    m["engine.time_share"] = solver_s * 1e9 / op_ns if op_ns else 0.0
    return first, op_ns / passes, layers


def run_traced(workload: str, seed: int, clock: HostClock, solver_factory=None,
               spans_path=None, size=None) -> dict:
    """Untraced passes, then as many traced; per-layer metrics.

    Count metrics are per pass, so they repeat exactly for a seed.
    """
    solver, items, setup_times = setup(workload, seed, clock, solver_factory, size)
    import candynim

    factory = solver_factory or candynim.Solver
    m = layer_template(candynim.harness.claim_ids())
    if workload == "solve-cold":
        op, settle = cold_op(factory), settle_cold
    else:
        op, settle = query_op(candynim, solver), None
        table_metrics(solver.stats(), m)
    passes = TRACE_PASSES[workload]
    first, item_ns, changed = measure(op, items, 0, clock, passes, settle)
    rss = peak_rss_mb()
    since = clock.snapshot()
    with clock.between_ops():
        if workload == "solve-cold":
            traced, op_ns, layers = traced_cold(candynim, items, factory, clock, m)
        else:
            traced, op_ns, layers = traced_query(candynim, items, solver, clock, m, passes)
    scale = clock.scale(since)
    to_reference(m, scale)
    if workload == "query-warm":  # the fill built the table, in set-up
        close_engine(m, setup_times["fill_ns"] * setup_times["scale"] / 1e9)
    changed.append({i: b for i, (a, b) in enumerate(zip(first, traced)) if a != b})
    m["trace.overhead_ratio"] = op_ns * scale / sum(item_ns)
    if spans_path:
        layers.rec.dump(spans_path)
    result = finish(workload, seed, items, first, changed, solver, candynim)
    result["peak_rss_mb"] = rss
    result["metrics"] = m
    result["setup"] = setup_times
    return result


def verify_once(traced: bool, clock: HostClock, spans_path=None) -> dict:
    """One desk ``verify all`` through ``cli.dispatch``, checked."""
    _, _, setup_times = setup("verify-desk", DEFAULT_SEED, clock)
    import candynim

    cli = candynim.cli
    solvers = []
    if traced:
        layers = Layers(candynim, clock)
        layers.patch_verify(candynim)
    else:
        run_all = cli.run_all

        def capture(profile, solver=None):
            solvers.append(solver)
            return run_all(profile, solver)
        cli.run_all = capture
    out = io.StringIO()
    since = clock.snapshot()
    t = clock.work_ns()
    try:
        status = cli.dispatch(VERIFY_ARGV, out=out)
    finally:
        wall_ns = clock.work_ns() - t
        if traced:
            layers.rec.restore()
        else:
            cli.run_all = run_all
    scale = clock.scale(since)
    rss = peak_rss_mb()
    text = out.getvalue()
    statuses = Counter(json.loads(line)["status"] for line in text.splitlines() if line)
    ok = (status == 0 and statuses == Counter(VERIFY_STATUSES)
          and hashlib.sha256(text.encode()).hexdigest() == VERIFY_SHA256)
    result = {
        "wall_s": wall_ns * scale / 1e9,
        "raw_wall_s": wall_ns / 1e9,
        "attempted": 1,
        "failed": 0 if ok else 1,
        "correct": ok,
        "peak_rss_mb": rss,
        "setup": setup_times,
    }
    if traced:
        result["metrics"] = to_reference(verify_layers(candynim, layers, wall_ns / 1e9), scale)
        solvers = layers.solvers.values()
        if spans_path:
            layers.rec.dump(spans_path)
    result["engines"] = engines_used(s for s in solvers if s is not None)
    return result


def verify_layers(candynim, layers: Layers, wall: float) -> dict:
    rec = layers.rec
    m = layer_template(candynim.harness.claim_ids())
    times = rec.layer_times()
    for i, s in enumerate(rec.spans):
        if s[0] == "harness" and s[1].startswith("claim:"):
            m[f"harness.claim_s.{s[1][6:]}"] = (s[3] - s[2]) / 1e9
        elif s[0] == "solver":
            if rec.inside(i, "allocation"):
                m["allocation.positions"] += 1
            if s[1].endswith(".other") and rec.inside(i, "strategies"):
                m["strategies.default_solver_calls"] += 1
    for layer in ("allocation", "strategies", "bounds"):
        m[f"{layer}.s"] = times.get(layer, {}).get("total", 0.0)
    m["allocation.self_s"] = times.get("allocation", {}).get("self", 0.0)
    m["harness.self_s"] = times.get("harness", {}).get("self", 0.0)
    m["cli.self_s"] = times.get("cli", {}).get("self", 0.0)
    for meth in Layers.SOLVER_METHODS:
        m[f"solver.{meth}_calls"] = layers.calls(meth)
    m["solver.value_us"] = layers.mean_us("solver", "value")
    m["solver.best_plies_us"] = layers.mean_us("solver", "best_plies")
    for sv in layers.solvers.values():
        table_metrics(sv.stats(), m)
    m["engine.tables"] = sum(len(sv.stats()) for sv in layers.solvers.values())
    solver_s = times.get("solver", {}).get("total", 0.0)
    close_engine(m, solver_s)
    m["engine.time_share"] = solver_s / wall
    return m


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--role", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans to this file")
    ap.add_argument("--expect-package", help="fail unless candynim is imported from here")
    args = ap.parse_args(argv)

    with HostClock() as clock:
        if args.role == "setup":
            result = {"setup": setup(args.workload, args.seed, clock)[2]}
        elif args.workload == "verify-desk":
            result = verify_once(bool(args.trace), clock, args.spans)
        elif args.trace:
            result = run_traced(args.workload, args.seed, clock, spans_path=args.spans)
        else:
            result = run_timed(args.workload, args.seed, args.seconds, clock)

    import candynim

    where = os.path.dirname(os.path.dirname(os.path.abspath(candynim.__file__)))
    if args.expect_package and where != os.path.abspath(args.expect_package):
        print(f"candynim was imported from {where}, not {args.expect_package}",
              file=sys.stderr)
        return 2
    result["kernel_available"] = candynim.solver.kernel_available()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
