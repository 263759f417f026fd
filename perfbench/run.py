"""candynim benchmark: build the package, run one workload, print one result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 15 --trace 0

The checkout's own ``setup.py`` builds the package into
``.bench_build/candynim`` (untimed, once per invocation) and every
measurement imports it from there, so the benchmark times the engine a
user of that checkout would get.  Each measurement runs ``bench.py`` in a
fresh single-threaded interpreter, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
line before it records the context: engines, kernel, build time, Python,
CPU count and model, and the ungated tail latencies.  With ``--trace 1``
the spans are also written to ``.bench_build/spans-<workload>-<seed>.json``.

End-to-end metrics, all times at the reference host speed of
``hostclock.py``:

* ``setup_s`` -- median over ``SETUP_SAMPLES`` fresh processes of importing
  ``candynim.cli`` plus ``Solver()``, plus the table fill on query-warm;
* ``wall_s`` -- one pass over the batch (each item's mean time, summed);
  on verify-desk the median sweep;
* ``ops_per_s`` -- items per second of ``wall_s``; a sweep is the item on
  verify-desk;
* ``latency_p50_ms`` -- median item time;
* ``peak_rss_mb`` -- ``ru_maxrss`` of the measuring process.

Failed ops are reported through ``attempted`` and ``failed``: an error
rate would read 0 on a correct build, and a gated metric must not.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from bench import WORKLOADS, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, "bench.py")
SETUP_SAMPLES = 5  # set-ups per invocation; setup_s is their median
VERIFY_RUNS = 2  # desk sweeps per verify-desk invocation, at the least
BUDGET_S = 170.0  # the whole invocation, build included


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: str):
        self.root = root
        self.start = perf_counter()
        self.base = os.path.join(root, ".bench_build")
        self.lib = os.path.join(self.base, "candynim", "lib")

    def remaining(self) -> float:
        left = BUDGET_S - (perf_counter() - self.start)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def build(self) -> float:
        """Build the checkout's package out of tree; return the build time."""
        if not os.path.isfile(os.path.join(self.root, "setup.py")):
            raise BenchError(f"no setup.py in {self.root}; run from a checkout root")
        out = os.path.join(self.base, "candynim")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cmd = [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", out,
               "build", "--build-base", out, "--build-lib", self.lib]
        t = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=self.remaining())
        build_s = perf_counter() - t
        if proc.returncode != 0:
            raise BenchError(f"setup.py build failed:\n{proc.stdout}{proc.stderr}")
        if not os.path.isfile(os.path.join(self.lib, "candynim", "__init__.py")):
            raise BenchError(f"setup.py build left no package in {self.lib}")
        # ``build`` does not byte-compile and the tree is new, so compile it
        # here, untimed; otherwise the first set-up sample would compile.
        if not compileall.compile_dir(self.lib, quiet=1):
            raise BenchError(f"could not byte-compile {self.lib}")
        return build_s

    def child(self, *args: str) -> dict:
        """Run ``bench.py`` in a fresh interpreter; return its JSON result."""
        env = dict(os.environ, PYTHONPATH=self.lib, PYTHONHASHSEED="0")
        cmd = [sys.executable, "-s", BENCH, "--expect-package", self.lib, *args]
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=self.remaining())
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"bench.py {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args) -> tuple[dict, dict]:
    r = Runner(os.getcwd())
    build_s = r.build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = [r.child(*common, "--role", "setup")["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    spans = os.path.join(r.base, f"spans-{args.workload}-{args.seed}.json")
    if args.workload == "verify-desk" and args.trace:
        runs = [r.child(*common), r.child(*common, "--trace", "1", "--spans", spans)]
    elif args.workload == "verify-desk":
        # Whole sweeps, each in a fresh process so every one starts with
        # cold tables: VERIFY_RUNS always, more while the next would still
        # end within --seconds.
        runs, t0 = [], perf_counter()
        while (len(runs) < VERIFY_RUNS
               or perf_counter() - t0 + runs[-1]["raw_wall_s"] <= args.seconds):
            runs.append(r.child(*common))
    elif args.trace:
        runs = [r.child(*common, "--trace", "1", "--spans", spans)]
    else:
        runs = [r.child(*common)]
    setups += [x["setup"] for x in runs]

    def setup_s(*parts):
        return statistics.median(sum(s[p] for p in parts) * s["scale"] / 1e9 for s in setups)

    if args.trace:
        metrics = runs[-1]["metrics"]
        metrics["setup.import_s"] = setup_s("import_ns")
        metrics["setup.fill_s"] = setup_s("fill_ns")
        if args.workload == "verify-desk":
            metrics["trace.overhead_ratio"] = runs[1]["wall_s"] / runs[0]["wall_s"]
    elif args.workload == "verify-desk":
        # One op is one whole sweep.
        walls = [x["wall_s"] for x in runs]
        metrics = {"wall_s": statistics.median(walls), "ops_per_s": len(walls) / sum(walls),
                   "latency_p50_ms": statistics.median(walls) * 1e3}
    else:
        metrics = {k: runs[0][k] for k in ("wall_s", "ops_per_s", "latency_p50_ms",
                                           "latency_p90_ms", "latency_p99_ms")}
    # Too few games lie beyond these on solve-cold, and on query-warm's
    # fixed mix they sit on a cliff between query kinds: shown, not gated.
    tail = {k: metrics.pop(k) for k in ("latency_p90_ms", "latency_p99_ms") if k in metrics}
    if not args.trace:
        metrics["setup_s"] = setup_s("import_ns", "solver_ns", "fill_ns")
        metrics["peak_rss_mb"] = statistics.median(x["peak_rss_mb"] for x in runs)

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "engines": sorted({e for x in runs for e in x["engines"]}),
        "kernel_available": runs[0]["kernel_available"],
        "build_s": build_s, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "setup_samples": len(setups),
        "passes": [x.get("passes", 1) for x in runs],
        "ungated": tail,
    }
    result = {
        "correct": all(x["correct"] for x in runs),
        "attempted": sum(x["attempted"] for x in runs),
        "failed": sum(x["failed"] for x in runs),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    return context, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        context, result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
