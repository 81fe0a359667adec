#!/usr/bin/env python3
"""Reduced-length self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json it makes
one untraced run and two traced runs with seed 7 and a 1 s measuring
window, and checks that:
  * every run exits 0 and ends with a correct result line;
  * the untraced run emits exactly BENCHMARK.json's end-to-end metrics and
    the traced runs exactly its per-layer metrics, each with its unit;
  * the trace file parses and every span's self time (its duration minus
    the union of its children's intervals) is >= 0;
  * the exact counts repeat across the two traced runs.
It also prints the tracing overhead on request_p50_ms. Exits 1 on any failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 7
SECONDS = 1
EXACT_COUNTS = ("protocol.hconv_units", "bfv.plain_transforms", "bfv.cipher_transforms",
                "bfv.inverse_transforms", "bfv.pointwise_products", "analysis.plans_unproven")
# Self times may dip below zero by timer rounding only.
SELF_TIME_SLACK_US = 1.0


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError("%s exited %d\n%s" % (" ".join(cmd), out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError("incorrect run: %s" % lines[-1][:300])
    return result


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError("%s metrics: missing %s, extra %s, wrong unit %s"
                             % (what, missing, extra, wrong))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError("%s is not a number" % name)


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        raise AssertionError("trace %s has no spans" % path)
    children = {}
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0:
            raise AssertionError("bad event %s" % e)
        children.setdefault(e["args"]["parent"], []).append(e)
    worst = None
    for e in events:
        intervals = sorted((c["ts"], c["ts"] + c["dur"]) for c in children.get(e["args"]["id"], []))
        covered, end = 0.0, float("-inf")
        for lo, hi in intervals:
            if hi > end:
                covered += hi - max(lo, end)
                end = hi
        self_time = e["dur"] - covered
        if worst is None or self_time < worst[0]:
            worst = (self_time, e["name"])
        if self_time < -SELF_TIME_SLACK_US:
            raise AssertionError("span %s (id %d) has self time %.1f us"
                                 % (e["name"], e["args"]["id"], self_time))
    return len(events), worst


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        try:
            plain = run(workload, 0)
            check_metrics(plain, bench["end_to_end"], "end-to-end")
            traced = [run(workload, 1) for _ in range(2)]
            for t in traced:
                check_metrics(t, bench["per_layer"], "per-layer")
            for name in EXACT_COUNTS:
                a, b = (t["metrics"][name]["value"] for t in traced)
                if a != b:
                    raise AssertionError("count %s differs across runs: %s vs %s" % (name, a, b))
            spans, worst = check_trace(os.path.join(
                ROOT, ".bench_build", "traces", "%s-seed%d.json" % (workload, SEED)))
            untraced_p50 = plain["metrics"]["request_p50_ms"]["value"]
            traced_p50 = traced[0]["metrics"]["trace.request_p50_ms"]["value"]
            print("PASS %-22s %d spans (lowest self time %.1f us, %s); request_p50_ms "
                  "untraced %.2f traced %.2f (tracing overhead %+.1f%%, estimated %.2g%%)"
                  % (workload, spans, worst[0], worst[1], untraced_p50, traced_p50,
                     100.0 * (traced_p50 - untraced_p50) / untraced_p50,
                     traced[0]["metrics"]["trace.span_overhead_pct"]["value"]))
        except (AssertionError, KeyError, ValueError, OSError) as e:
            failures += 1
            print("FAIL %s: %s" % (workload, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
