"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 bench/spread.py [--traced] [--out FILE]

Runs ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
for seeds 1-10 and every workload of BENCHMARK.json, one process at a time,
and reports for each metric the median and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the bound that BENCHMARK.json fixes.  With ``--out``
the medians, quartiles and every run's values are written as JSON with the
run stamp; that file is the baseline later changes compare against.
``--traced`` adds one ``--trace 1`` run per workload (seed 1) with its
per-layer metrics.  Exit code 1 if a run failed or a spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()

    def run_once(w, seed, trace):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", w,
             "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
             "--trace", str(trace)], capture_output=True, text=True,
            cwd=run.ROOT)
        if proc.returncode != 0:
            print(f"{w} seed {seed} trace {trace}: run failed\n"
                  f"{proc.stdout}{proc.stderr}")
            return None
        res = json.loads(proc.stdout.splitlines()[-1])
        return {m: v["value"] for m, v in res["metrics"].items()}

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {"stamp": run.stamp(), "run_seconds": declared["run_seconds"],
              "seeds": list(SEEDS), "workloads": {}}
    ok = True
    for w in (w["name"] for w in declared["workloads"]):
        values = {m: [] for m in bounds}
        for seed in SEEDS:
            res = run_once(w, seed, 0)
            if res is None:
                ok = False
                continue
            for m in values:
                values[m].append(res[m])
        summary = {}
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[m], "values": vals}
            flag = "ok" if spread < bounds[m] / 3 else (
                "within bound" if spread <= bounds[m] else "EXCEEDS BOUND")
            ok &= spread <= bounds[m]
            print(f"{w:22s} {m:12s} median {med:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[m]:.0%}  {flag}", flush=True)
        report["workloads"][w] = {"end_to_end": summary}
        if args.traced:
            layers = run_once(w, SEEDS[0], 1)
            ok &= layers is not None
            report["workloads"][w]["per_layer"] = layers
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
