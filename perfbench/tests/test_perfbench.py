"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import hashlib
import io
import json
import os
import re
from collections import Counter

import pytest

import bench
import run
from candynim import Game, Solver, cli
from candynim.harness import claim_ids
from hostclock import HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.fixture
def clock():
    with HostClock() as c:
        yield c


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_generators_repeat_per_seed_and_differ_across_seeds():
    assert bench.cold_batch(1) == bench.cold_batch(1)
    assert bench.cold_batch(1) != bench.cold_batch(2)
    assert bench.query_lines(1, 300) == bench.query_lines(1, 300)
    assert bench.query_lines(1, 300) != bench.query_lines(2, 300)


def test_cold_batch_draws_evenly_from_every_work_group():
    games = bench.cold_batch(3, per_group=2)
    assert set(bench.ANCHORS) <= set(games)
    widths = Counter(len(g) for g in games if g not in bench.ANCHORS)
    assert widths == {w: 2 * bench.COLD_GROUPS for w in bench.catalogue.WIDTHS}


def test_metric_names_are_well_formed_and_carry_units():
    s = spec()
    metrics = s["end_to_end"] + s["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and len(m["name"]) <= 64, m["name"]
        assert m["unit"] and m["unit"] == bench.unit_of(m["name"]), m["name"]
    per_layer = {m["name"] for m in s["per_layer"]}
    assert set(bench.layer_template(claim_ids())) == per_layer


class WrongOnce(Solver):
    """Answers one ``solve`` with a value off by two (parity still right)."""

    left = 1

    def solve(self, game, workers=1):
        result = super().solve(game, workers)
        if WrongOnce.left:
            WrongOnce.left -= 1
            return dataclasses.replace(result, value=result.value + 2)
        return result


@pytest.mark.parametrize("workload,size", [("solve-cold", 0), ("query-warm", 8)])
def test_one_wrong_value_counts_as_a_failure(workload, size, clock):
    WrongOnce.left = 1
    r = bench.run_timed(workload, 0, 0, clock, solver_factory=WrongOnce, size=size)
    assert r["failed"] == 1 and r["attempted"] > 1 and not r["correct"]


def test_cold_answers_keep_no_solver(clock):
    import weakref

    refs = []

    def factory():
        solver = Solver()
        refs.append(weakref.ref(solver))
        return solver

    games = [Game(p) for p in bench.ANCHORS]
    first, _, _ = bench.measure(bench.cold_op(factory), games, 0, clock,
                                settle=bench.settle_cold)
    assert all(isinstance(a, bench.Cold) and a.best for a in first)
    assert len(refs) == len(games) and all(r() is None for r in refs)


@pytest.mark.parametrize("workload,size", [("solve-cold", 0), ("query-warm", 40)])
def test_workload_completes_at_a_tiny_size(workload, size, clock):
    r = bench.run_timed(workload, 5, 0, clock, size=size)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    assert r["latency_p50_ms"] > 0 and r["ops_per_s"] > 0


@pytest.mark.parametrize("workload,size", [("solve-cold", 0), ("query-warm", 40)])
def test_traced_run_reports_every_layer_and_repeats_its_counts(workload, size, clock):
    a = bench.run_traced(workload, 5, clock, size=size)
    b = bench.run_traced(workload, 5, clock, size=size)
    assert a["correct"] and a["failed"] == 0
    names = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert set(a["metrics"]) == set(names)
    counts = [n for n, u in names.items() if u == "count"]
    assert {n: a["metrics"][n] for n in counts} == {n: b["metrics"][n] for n in counts}
    assert a["metrics"]["engine.p_states"] > 0 and a["metrics"]["trace.overhead_ratio"] > 0


def test_verify_machinery_at_the_smoke_profile(monkeypatch, clock):
    argv = ["verify", "all", "--profile", "smoke", "--format", "json"]
    out = io.StringIO()
    assert cli.dispatch(argv, out=out) == 0
    text = out.getvalue()
    monkeypatch.setattr(bench, "VERIFY_ARGV", argv)
    monkeypatch.setattr(bench, "VERIFY_SHA256", hashlib.sha256(text.encode()).hexdigest())
    monkeypatch.setattr(bench, "VERIFY_STATUSES",
                        Counter(json.loads(line)["status"] for line in text.splitlines()))
    plain = bench.verify_once(False, clock)
    assert plain["correct"] and plain["wall_s"] > 0 and plain["engines"]
    traced = bench.verify_once(True, clock)
    assert traced["correct"]
    m = traced["metrics"]
    assert all(m[f"harness.claim_s.{c}"] > 0 for c in claim_ids())
    assert m["solver.solve_calls"] > 0 and m["engine.tables"] >= 1
    assert m["allocation.s"] > 0 and m["strategies.s"] > 0 and m["bounds.s"] > 0


def test_run_fails_without_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "solve-cold", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_host_clock_leaves_calibration_out_of_work_time(clock):
    import hostclock

    t = clock.work_ns()
    clock.sample()
    assert clock.work_ns() - t < clock.cal_ns / clock.samples
    assert clock.scale((0, 0)) > 0 and clock.samples >= 3
    assert hostclock.calibrate() > 0


def test_default_seed_answers_match_the_recorded_digest(clock):
    r = bench.run_timed("query-warm", bench.DEFAULT_SEED, 0, clock)
    assert r["digest"] == bench.ANSWER_SHA256["query-warm"] and r["correct"]
