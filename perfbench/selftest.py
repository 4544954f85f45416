"""Reduced-size self-test of the benchmark code.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs every workload at the reduced sizes of ``workloads.REDUCED``, one
untraced and one traced sample each, and checks that

* every metric ``BENCHMARK.json`` names is reported, and no other;
* the gates ran and passed, and traced and untraced samples wrote the same
  records;
* every function the tracer wraps still exists in the program;
* every layer a workload bypasses reports 0, and every other layer reports
  some work.

Exits 0 when all checks hold, 1 otherwise, printing one line per problem.
"""

from __future__ import annotations

import json
import sys

import run as bench
import workloads as wl


def check_workload(w: wl.Workload, end_to_end: set, per_layer: set) -> list:
    res = bench.run_workload(w, seed=1, seconds=0, trace=True)
    problems = [f"{w.name}: {err}" for err in res["errors"]]
    if res["failed"] or not res["samples"]:
        problems.append(f"{w.name}: {res['failed']} of {res['attempted']} samples failed")
    for s in res["samples"]:
        if not s["gates"]:
            problems.append(f"{w.name}: no gate ran")
        problems += [f"{w.name}: gate {g} failed: {d}" for g, ok, d in s["gates"] if not ok]
        problems += [f"{w.name}: trace target {t} not found" for t in s.get("untraced_targets", ())]
    plain = set(bench.summarize(res, trace=False)["metrics"])
    traced = bench.summarize(res, trace=True)["metrics"]
    if plain != end_to_end:
        problems.append(f"{w.name}: end-to-end metrics differ: {sorted(plain ^ end_to_end)}")
    if set(traced) != per_layer:
        problems.append(f"{w.name}: per-layer metrics differ: {sorted(set(traced) ^ per_layer)}")
    for layer in wl.LAYERS:
        values = {k: v["value"] for k, v in traced.items() if k.startswith(layer + ".")}
        busy = sorted(k for k, v in values.items() if v != 0)
        if layer in w.bypassed and busy:
            problems.append(f"{w.name}: bypassed layer {layer} reports {busy}")
        if layer not in w.bypassed and not busy:
            problems.append(f"{w.name}: layer {layer} reports no work")
    return problems


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.FULL):
        print("BENCHMARK.json workloads differ from workloads.FULL")
        return 1
    problems = []
    for w in wl.REDUCED.values():
        found = check_workload(w, end_to_end, per_layer)
        print(f"{w.name}: {'ok' if not found else f'{len(found)} problems'}")
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
