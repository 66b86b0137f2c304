"""Self-test of the benchmark: the correctness gate counts failures, and
BENCHMARK.json names exactly the metrics run.py reports.

    python3 bench/run.py --self-test

For each workload a short pass runs twice on a few of its items: once as
is, which must give no failure, and once with one expected value altered
(a golden-table cell, a Weyl dimension, or the bound b), which must give
exactly one counted failure and a failing run.  Two traced passes of the
short structure-cli pass must give identical work counters; one counter
changed, or a single traced pass, must each give one error.
"""

import copy
import json

import run
import workloads

SEED = 0


def _cases():
    g2 = workloads.generate("g2-principal-tables", SEED, run.ROOT)
    g2["items"] = g2["items"][:12]
    large = workloads.generate("large-root-branching", SEED, run.ROOT,
                               run.import_package())
    large["items"] = [it for it in large["items"]
                      if it["type"] in (["A", 3], ["B", 3])]
    cli = workloads.generate("structure-cli", SEED, run.ROOT)
    cli["items"] = [argv for argv in cli["items"]
                    if argv[0] in ("bound", "complement")
                    or argv[1:] in (["G", "2"], ["E", "6"], ["C", "5"])]
    bound = next(n for n, argv in enumerate(cli["items"]) if argv[0] == "bound")
    # (spec, index of the item whose expected value is altered)
    return {"g2-principal-tables": (g2, 3),
            "large-root-branching": (large, 1),
            "structure-cli": (cli, bound)}


def _check(label, ok, detail) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def _gate(spec, fault):
    r = run.Run(spec)
    r.measure(fault=fault)
    res = r.result({}, {})
    return res["attempted"], res["failed"], res["correct"]


def main() -> int:
    ok = True
    for name, (spec, fault) in _cases().items():
        n = len(spec["items"])
        attempted, failed, correct = _gate(spec, None)
        ok &= _check(f"{name} clean", (attempted, failed, correct) == (n, 0, True),
                     f"{failed}/{attempted} failed")
        attempted, failed, correct = _gate(spec, fault)
        ok &= _check(f"{name} one altered expectation",
                     (attempted, failed, correct) == (n, 1, False),
                     f"{failed}/{attempted} failed, run correct={correct}")

    cli = _cases()["structure-cli"][0]
    r = run.Run(cli)
    traced = [r.measure(trace=True), r.measure(trace=True)]
    ok &= _check("work counters of two traced passes",
                 None not in traced and run.counter_errors(traced) == [],
                 f"{len(run.exact_counters(traced[0]))} counters agree"
                 if None not in traced else r.errors[:1])
    if None not in traced:
        altered = copy.deepcopy(traced[1])
        altered["layers"]["rootsys.build.calls"] += 1
        errors = run.counter_errors([traced[0], altered])
        ok &= _check("one work counter changed", len(errors) == 1,
                     "; ".join(errors))
        errors = run.counter_errors(traced[:1])
        ok &= _check("one traced pass", len(errors) == 1, "; ".join(errors))

    with open(run.ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    ok &= _check("BENCHMARK.json end_to_end", e2e == run.END_TO_END,
                 f"{len(e2e)} metrics")
    ok &= _check("BENCHMARK.json per_layer", layers == run.layer_units(),
                 f"{len(layers)} metrics")
    ok &= _check("BENCHMARK.json workloads",
                 [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
                 ", ".join(workloads.WORKLOADS))
    return 0 if ok else 1
