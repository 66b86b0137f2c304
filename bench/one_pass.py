"""One pass of a benchmark workload, in a fresh process.

Usage (started by run.py, one process at a time):
    python3 bench/one_pass.py SPAWN_TIME < spec.json

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux).  The spec on
stdin holds the workload name, its items and the pass options ``trace``,
``setup_only`` and ``fault``.  One JSON object is printed on stdout.

The pass times a fixed pure-Python loop of dict and tuple operations that
does not touch sl2bounds (the probe) every 20 ms from a SIGALRM handler,
ten times after set-up and once after every item, so that run.py can scale
the timings to one machine speed.  Probe time is not part of ``setup_s``,
of any item's latency, of ``wall_s`` (the sum of the item latencies) or of
any span.
"""

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_KEYS = 600
SAMPLE_INTERVAL_S = 0.02
SETUP_PROBES = 10


def probe_s() -> float:
    """Time of the probe, in s: dict updates keyed by small tuples, as in
    much of the program's own Python code."""
    start = time.perf_counter()
    counts = {}
    for i in range(PROBE_KEYS):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


class Speed:
    """The probe, timed every SAMPLE_INTERVAL_S from a SIGALRM handler.

    The machine's speed changes from one second to the next, so a probe
    timed only between items would miss most of what an item of a second
    ran at.  ``clock`` is perf_counter minus the time spent probing.
    """

    def __init__(self):
        self.samples = []
        self.probing_s = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.probing_s

    def sample(self, *_):
        start = time.perf_counter()
        self.samples.append(probe_s())
        self.probing_s += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take_ms(self, now: int = 1) -> float:
        """Mean probe time, in ms, of the samples since the last call and
        `now` more taken now."""
        for _ in range(now):
            self.sample()
        samples, self.samples = self.samples, []
        return statistics.fmean(samples) * 1e3


def main() -> int:
    spawn = float(sys.argv[1])
    speed = Speed()
    speed.start()
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, str(ROOT / "src"))
    import sl2bounds
    if Path(sl2bounds.__file__).resolve().parent != ROOT / "src" / "sl2bounds":
        print(f"error: imported {sl2bounds.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import workloads
    items = workloads.setup(spec, sl2bounds, ROOT)
    setup_s = time.monotonic() - spawn - speed.probing_s
    setup_probe = speed.take_ms(SETUP_PROBES)
    if spec.get("setup_only"):
        speed.stop()
        print(json.dumps({"setup_s": setup_s, "setup_probe_ms": setup_probe}))
        return 0

    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer(speed.clock)
        tracer.install(sl2bounds)
    fault = spec.get("fault")
    results = []  # [item_id, ms, error, probe ms while the item ran]
    for n, (item_id, fn) in enumerate(items):
        start = speed.clock()
        try:
            got, want = fn()
            if n == fault:
                want = workloads.alter(want)
            error = None if got == want else f"got {got!r}, expected {want!r}"
        except Exception as exc:  # an item that raises is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        ms = (speed.clock() - start) * 1e3
        results.append([item_id, ms, error, speed.take_ms()])
    speed.stop()

    out = {"setup_s": setup_s, "setup_probe_ms": setup_probe,
           "wall_s": sum(r[1] for r in results) / 1e3, "items": results}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layers(sl2bounds, workloads.box_cells)
        out["layer_self_s"] = tracer.self_total_s()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
