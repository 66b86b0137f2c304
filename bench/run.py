"""Benchmark of sl2bounds: the paper's workloads end to end, and each module
of ``src/sl2bounds`` as a layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --self-test

Run from anywhere; the package is imported from ``src/`` of the checkout
holding this file.  Each pass of a workload is one fresh Python process,
started one at a time, so every pass begins with cold program caches as a
CLI user's process does.  Passes repeat while at least half of the next
one fits in ``--seconds``.

The end-to-end timings are scaled to one machine speed: each is multiplied
by ``REF_PROBE_MS`` over the time of a fixed pure-Python loop (the probe)
timed while and right after it ran (see one_pass.py), so that a machine
whose speed changes, because other processes share its cores, moves them
less.  They are then the median over the run's passes (for item latencies,
each item's median); set-up time is the median over its processes.  The
summary lines also show the unscaled values.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
traced and untraced passes alternate (at least two traced) and the
per-layer metrics, the tracing overhead and the time no layer accounts for
are reported.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed output
check, or traced passes whose exact work counters differ, makes the exit
code 1; a checkout without ``src/sl2bounds`` gives exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import SPAN_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
PASS_TIMEOUT_S = 150
# No pass starts that is expected to end after this, so a run ends well
# inside 180 s even on a slow machine.
RUN_BUDGET_S = 110
MIN_SETUP_SAMPLES = 15
# Probe time, in ms, of the machine speed the end-to-end timings are scaled
# to: between the probe's fastest tenth and fifth (its median was 0.24 ms)
# on a 2-vCPU Xeon KVM guest.
REF_PROBE_MS = 0.2
MIN_TRACED_PASSES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
              "item_p95_ms": "ms", "peak_rss_mb": "MB"}
COUNTERS = {"character.box_cells", "character.dominant_weights",
            "semigroup.cells_scanned"}
RATIOS = {"bounds.builds_per_levi", "sl2branch.histogram_useful_ratio"}
TRACE_ACCOUNTING = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                    "trace.overhead_ratio": "ratio", "trace.layer_self_s": "s",
                    "trace.unaccounted_s": "s",
                    "trace.unaccounted_share": "ratio"}


def layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.errors": "count"})
    units.update({m: "count" for m in sorted(COUNTERS)})
    units.update({m: "ratio" for m in sorted(RATIOS)})
    units.update(TRACE_ACCOUNTING)
    return units


# The CLI would read and write a character cache named by this variable;
# every pass starts with cold caches, so it is unset.
PASS_ENV = {k: v for k, v in os.environ.items() if k != "SL2BOUNDS_CACHE_DIR"}


class PassError(RuntimeError):
    pass


def run_pass(spec: dict, **options) -> dict:
    """Run one pass in a fresh process and return its JSON result."""
    payload = json.dumps({**spec, **options})
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "one_pass.py"), repr(spawn)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=PASS_ENV)
    try:
        out, err = proc.communicate(payload, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassError(f"pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


class Run:
    """The passes of one run, with their failures and samples."""

    def __init__(self, spec):
        self.spec = spec
        self.attempted = 0
        self.errors = []      # "item: message"
        # per item of spec["items"], per untraced pass: (ms, scaled ms)
        self.latencies = [[] for _ in spec["items"]]
        self.setups = []      # (s, scaled s)
        self.orders = workloads.pass_orders(spec)
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def measure(self, fault=None, **options):
        """Run one pass; `fault` is the index in spec["items"] of an item
        whose expected value is altered."""
        n = len(self.spec["items"])
        self.attempted += n
        order = next(self.orders)
        spec = {**self.spec, "items": [self.spec["items"][i] for i in order]}
        if fault is not None:
            options["fault"] = order.index(fault)
        try:
            res = run_pass(spec, **options)
        except PassError as exc:
            self.errors += [f"{item}: {exc}" for item in range(n)]
            return None
        self._add_setup(res)
        # The pass's scale: its item latencies' scaled sum over their sum.
        total_ms = sum(item[1] for item in res["items"])
        res["scale"] = sum(item[1] * REF_PROBE_MS / item[3]
                           for item in res["items"]) / total_ms if total_ms else 1.0
        self.errors += [f"{item}: {err}" for item, _, err, _ in res["items"] if err]
        if not options.get("trace"):
            for i, (_, ms, _, probe) in zip(order, res["items"]):
                self.latencies[i].append((ms, ms * REF_PROBE_MS / probe))
        return res

    def _add_setup(self, res):
        self.setups.append((res["setup_s"], res["setup_s"] * REF_PROBE_MS
                            / res["setup_probe_ms"]))

    def another_pass(self, done: int, seconds: float) -> bool:
        """Whether to start a pass after `done`: while at least half of one
        fits in `seconds`, so a run lasts about `seconds` however long one
        pass takes, and none expected to end after RUN_BUDGET_S."""
        mean_pass = self.elapsed() / done
        return (self.elapsed() + mean_pass / 2 < seconds
                and self.elapsed() + mean_pass <= RUN_BUDGET_S)

    def top_up_setups(self):
        """Start set-up-only processes until set-up time has enough samples."""
        while len(self.setups) < MIN_SETUP_SAMPLES:
            try:
                self._add_setup(run_pass(self.spec, setup_only=True))
            except PassError as exc:
                self.errors.append(f"setup: {exc}")
                return

    def result(self, metrics: dict, samples: dict) -> dict:
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": len(self.errors), "metrics": metrics,
                "samples": samples, "errors": self.errors}


def end_to_end(spec: dict, seconds: float) -> dict:
    run = Run(spec)
    passes = []
    while True:
        res = run.measure()
        if res is None:
            break
        passes.append(res)
        if not run.another_pass(len(passes), seconds):
            break
    run.top_up_setups()
    if not passes:
        return run.result({}, {})

    def timings(k):
        """The timing metrics from unscaled (k=0) or scaled (k=1) samples."""
        # Each item's median latency over the passes; the percentiles are
        # taken over items.
        typical = [statistics.median(sample[k] for sample in item)
                   for item in run.latencies]
        return {
            "setup_s": statistics.median(setup[k] for setup in run.setups),
            "wall_s": statistics.median(
                sum(item[n][k] for item in run.latencies) / 1e3
                for n in range(len(passes))),
            "item_p50_ms": statistics.median(typical),
            "item_p95_ms": statistics.quantiles(typical, n=20)[-1],
        }
    metrics = timings(1)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    samples = {"setup_s": len(run.setups), "wall_s": len(passes),
               "item_p50_ms": len(run.latencies),
               "item_p95_ms": len(run.latencies), "peak_rss_mb": len(passes)}
    res = run.result({k: {"value": v, "unit": END_TO_END[k]}
                      for k, v in metrics.items()}, samples)
    res["unscaled"] = timings(0)
    return res


def exact_counters(traced_pass: dict) -> dict:
    units = layer_units()
    return {k: v for k, v in traced_pass["layers"].items() if units[k] != "s"}


def counter_errors(traced: list) -> list:
    """Errors unless at least MIN_TRACED_PASSES traced passes ran and their
    exact work counters agree."""
    if len(traced) < MIN_TRACED_PASSES:
        return [f"{len(traced)} traced passes ran; comparing work counters "
                f"needs {MIN_TRACED_PASSES}"]
    counters = [exact_counters(t) for t in traced]
    diff = sorted(k for k in counters[0] if len({c[k] for c in counters}) > 1)
    return [f"work counters differ between traced passes: {diff}"] if diff else []


def per_layer(spec: dict, seconds: float) -> dict:
    run = Run(spec)
    untraced, traced = [], []
    while True:
        # Traced, untraced, traced, ...: the untraced passes sit between
        # traced ones, so drift in machine speed does not bias the overhead.
        trace = len(traced) <= len(untraced)
        res = run.measure(trace=trace)
        if res is None:
            break
        (traced if trace else untraced).append(res)
        done = len(traced) + len(untraced)
        if done >= 2 * MIN_TRACED_PASSES - 1 and not run.another_pass(
                done, seconds):
            break
    run.errors += counter_errors(traced)
    if not (traced and untraced):
        return run.result({}, {})

    # Timings are scaled by their pass's scale, then the median over passes.
    def median(passes, timing):
        return statistics.median(timing(p) * p["scale"] for p in passes)

    units = layer_units()
    metrics = exact_counters(traced[0])
    for k, unit in units.items():
        if unit == "s" and k in traced[0]["layers"]:
            metrics[k] = median(traced, lambda t: t["layers"][k])
    wall = median(traced, lambda t: t["wall_s"])
    untraced_wall = median(untraced, lambda u: u["wall_s"])
    unaccounted = median(traced, lambda t: t["wall_s"] - t["layer_self_s"])
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.layer_self_s": median(traced, lambda t: t["layer_self_s"]),
        "trace.unaccounted_s": unaccounted,
        "trace.unaccounted_share": unaccounted / wall,
    })
    samples = {k: len(traced) for k in units}
    samples["trace.untraced_wall_s"] = len(untraced)
    return run.result({k: {"value": metrics[k], "unit": u}
                       for k, u in units.items()}, samples)


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit()}


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import sl2bounds
    return sl2bounds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.generate(name, seed, ROOT, import_package())
    return (per_layer if trace else end_to_end)(spec, seconds)


def print_summary(name: str, res: dict):
    print(f"{name}: {res['attempted']} items attempted, {res['failed']} failed "
          f"(failed_ratio {res['failed'] / max(res['attempted'], 1):.4g})")
    for err in res["errors"][:10]:
        print(f"  FAILED {err}")
    for metric, m in res["metrics"].items():
        n = res["samples"].get(metric)
        note = f" n={n}" if n else ""
        if metric == "item_p95_ms" and n < 200:
            note += (" (items; fewer than 10 beyond it, so it is the latency"
                     " of the slowest few items)")
        unscaled = res.get("unscaled", {}).get(metric)
        if unscaled is not None:
            note = f" unscaled {unscaled:.6g}" + note
        print(f"  {metric:42s} {m['value']:14.6g} {m['unit']:6s}{note}")


def public(res: dict) -> dict:
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--all", action="store_true",
                      help="run every workload with --trace 0")
    mode.add_argument("--self-test", action="store_true",
                      help="check that the correctness gate counts failures")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sl2bounds" / "__init__.py").is_file():
        print(f"error: no sl2bounds package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()

    print("stamp " + json.dumps(stamp()))
    if args.all:
        results = {w: run_workload(w, args.seed, args.seconds, False)
                   for w in workloads.WORKLOADS}
        for w, res in results.items():
            print_summary(w, res)
        total = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "workloads": {w: public(r) for w, r in results.items()}}
        print(json.dumps(total))
        return 0 if total["correct"] else 1

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(args.workload, res)
    print(json.dumps(public(res)))
    return 0 if res["correct"] and res["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
