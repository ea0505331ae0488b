#!/usr/bin/env python3
"""Validate a freshly emitted perfbench document against a committed baseline.

Usage: validate_bench.py EMITTED.json BASELINE.json

The committed ``BENCH_kernels.json`` / ``BENCH_serve.json`` baselines define
the *schema*; this script checks a fresh ``perfbench`` run emits the same
shape (identical key sets at every object level, matching value types,
full kernel/shape coverage) with sane value ranges. It deliberately does
NOT compare the numbers themselves — perf values are host-dependent, and
the committed trajectory is reviewed like a changelog, not asserted by CI.
"""

import json
import math
import sys


def fail(msg):
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def typename(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    if isinstance(v, str):
        return "string"
    if isinstance(v, list):
        return "array"
    if isinstance(v, dict):
        return "object"
    return "null"


def same_structure(new, base, path):
    """Identical key sets and value types, recursively. Array elements are
    checked against the baseline element with the same key set — rows may
    be heterogeneous (conv result rows carry ``class`` and
    ``speedup_vs_im2col``; matmul rows do not) and lengths may differ (a
    host without AVX2 legitimately emits fewer kernel result rows)."""
    if typename(new) != typename(base):
        fail(f"{path}: type {typename(new)} != baseline {typename(base)}")
    if isinstance(base, dict):
        if set(new) != set(base):
            missing = sorted(set(base) - set(new))
            extra = sorted(set(new) - set(base))
            fail(f"{path}: key mismatch (missing {missing}, extra {extra})")
        for k in base:
            same_structure(new[k], base[k], f"{path}.{k}")
    elif isinstance(base, list) and base:
        if not new:
            fail(f"{path}: empty array (baseline has {len(base)} entries)")
        exemplars = {
            frozenset(item): item for item in base if isinstance(item, dict)
        }
        for i, item in enumerate(new):
            if isinstance(item, dict) and exemplars:
                exemplar = exemplars.get(frozenset(item))
                if exemplar is None:
                    fail(
                        f"{path}[{i}]: key set {sorted(item)} matches no "
                        f"baseline row shape"
                    )
                same_structure(item, exemplar, f"{path}[{i}]")
            else:
                same_structure(item, base[0], f"{path}[{i}]")


def sane(x, path, lo, hi):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        fail(f"{path}: {x!r} is not a number")
    if not (math.isfinite(x) and lo <= x <= hi):
        fail(f"{path}: {x} outside sane range [{lo}, {hi}]")


def hist_sane(h, path):
    sane(h["count"], f"{path}.count", 1, 1e9)
    sane(h["mean"], f"{path}.mean", 0, 1e12)
    for p in ("p50", "p90", "p99", "max"):
        sane(h[p], f"{path}.{p}", 0, 1e12)
    if not h["p50"] <= h["p90"] <= h["p99"] <= h["max"]:
        fail(f"{path}: percentiles not monotone: {h}")


def check_kernels(new, base):
    if set(new["shapes"]) != set(base["shapes"]):
        fail(f"shapes {new['shapes']} != baseline {base['shapes']}")
    # conv_shapes entries are {shape, class} objects: the measured grid AND
    # the committed shape-class routing must both match the baseline.
    conv_classes = {c["shape"]: c["class"] for c in new["conv_shapes"]}
    base_classes = {c["shape"]: c["class"] for c in base["conv_shapes"]}
    if conv_classes != base_classes:
        fail(f"conv_shapes {conv_classes} != baseline {base_classes}")
    if not set(conv_classes.values()) <= {"direct_small", "direct_pointwise", "im2col"}:
        fail(f"unknown conv class in {sorted(set(conv_classes.values()))}")
    if "scalar" not in new["backends"]:
        fail("the scalar backend must always be measured")
    # Coverage: every (kernel, shape) pair the baseline measured must be
    # measured for every backend the *new* run reports. Backends come from
    # the new document because the SIMD-level rows are host-dependent (a
    # host without AVX2 legitimately emits fewer of them); kernel/shape
    # pairs come from the baseline because conv kernels only run at conv
    # shapes (the grid is not a full cartesian product).
    pairs = {(r["kernel"], r["shape"]) for r in base["results"]}
    want = {(k, s, b) for (k, s) in pairs for b in new["backends"]}
    got = {(r["kernel"], r["shape"], r["backend"]) for r in new["results"]}
    if got != want:
        fail(
            f"results coverage mismatch (missing {sorted(want - got)}, "
            f"unexpected {sorted(got - want)})"
        )
    by_pair = {}
    for r in new["results"]:
        by_pair[(r["kernel"], r["shape"], r["backend"])] = r["gflops"]
    for i, r in enumerate(new["results"]):
        sane(r["gflops"], f"results[{i}].gflops", 1e-3, 1e5)
        # The speedup column is derived, so recompute it: the baseline is a
        # same-document row and the JSON numbers round-trip exactly
        # (shortest-representation float printing), so a tight relative
        # tolerance only absorbs the division itself.
        speedup = r["speedup_vs_scalar"]
        sane(speedup, f"results[{i}].speedup_vs_scalar", 1e-3, 1e4)
        want_speedup = r["gflops"] / by_pair[(r["kernel"], r["shape"], "scalar")]
        if abs(speedup - want_speedup) > 1e-9 * want_speedup:
            fail(f"results[{i}]: speedup_vs_scalar {speedup} != recomputed {want_speedup}")
        if r["backend"] == "scalar" and speedup != 1.0:
            fail(f"results[{i}]: scalar speedup_vs_scalar must be exactly 1.0")
        # Conv rows additionally carry the dispatch class (must agree with
        # the conv_shapes table) and the direct-vs-lowered speedup column,
        # whose baseline is the same shape+backend's forced-im2col row.
        is_conv = r["kernel"].startswith("conv2d")
        if is_conv != ("class" in r) or is_conv != ("speedup_vs_im2col" in r):
            fail(f"results[{i}]: conv columns inconsistent with kernel {r['kernel']!r}")
        if is_conv:
            if r["class"] != conv_classes.get(r["shape"]):
                fail(
                    f"results[{i}]: class {r['class']!r} != conv_shapes entry "
                    f"{conv_classes.get(r['shape'])!r} for {r['shape']}"
                )
            speedup = r["speedup_vs_im2col"]
            sane(speedup, f"results[{i}].speedup_vs_im2col", 1e-3, 1e4)
            want_speedup = r["gflops"] / by_pair[("conv2d_im2col", r["shape"], r["backend"])]
            if abs(speedup - want_speedup) > 1e-9 * want_speedup:
                fail(
                    f"results[{i}]: speedup_vs_im2col {speedup} != "
                    f"recomputed {want_speedup}"
                )
            if r["kernel"] == "conv2d_im2col" and speedup != 1.0:
                fail(f"results[{i}]: im2col speedup_vs_im2col must be exactly 1.0")
    print(
        f"validate_bench: kernels OK — {len(new['results'])} points, "
        f"backends {new['backends']}"
    )
    check_executor(new, base)


def check_executor(new, base):
    """The executor section compares the tree-walking executor against the
    compiled trace plan, per model. Coverage must match the baseline and
    the derived rates/speedups must be consistent with the raw ns/step."""
    got = {e["model"] for e in new["executor"]}
    want = {e["model"] for e in base["executor"]}
    if got != want:
        fail(
            f"executor model coverage mismatch (missing {sorted(want - got)}, "
            f"unexpected {sorted(got - want)})"
        )
    for i, e in enumerate(new["executor"]):
        path = f"executor[{i}]({e['model']})"
        sane(e["graph_nodes"], f"{path}.graph_nodes", 1, 1e6)
        sane(e["plan_ops"], f"{path}.plan_ops", 1, 1e6)
        if e["plan_ops"] > e["graph_nodes"]:
            fail(f"{path}: more plan ops than graph nodes")
        sane(e["arena_f32"], f"{path}.arena_f32", 1, 1e12)
        sane(e["tree_ns_per_step"], f"{path}.tree_ns_per_step", 1, 1e12)
        sane(e["plan_ns_per_step"], f"{path}.plan_ns_per_step", 1, 1e12)
        for side in ("tree", "plan"):
            rate = e[f"{side}_steps_per_s"]
            sane(rate, f"{path}.{side}_steps_per_s", 1e-6, 1e12)
            want_rate = 1e9 / e[f"{side}_ns_per_step"]
            if abs(rate - want_rate) > 1e-6 * want_rate:
                fail(f"{path}: {side}_steps_per_s {rate} != recomputed {want_rate}")
        sane(e["speedup"], f"{path}.speedup", 1e-3, 1e4)
        want_speedup = e["tree_ns_per_step"] / e["plan_ns_per_step"]
        if abs(e["speedup"] - want_speedup) > 1e-6 * want_speedup:
            fail(f"{path}: speedup {e['speedup']} != recomputed {want_speedup}")
    best = max(new["executor"], key=lambda e: e["speedup"])
    print(
        f"validate_bench: executor OK — {len(new['executor'])} models, "
        f"best plan speedup {best['speedup']:.2f}x ({best['model']})"
    )


def check_serve(new, _base):
    sane(new["clients"], "clients", 1, 1e4)
    sane(new["requests"], "requests", 1, 1e7)
    hist_sane(new["latency_us"], "latency_us")
    if new["latency_us"]["count"] != new["requests"]:
        fail("latency histogram count != requests")
    c = new["cells"]
    for k in ("total", "memo_hits", "coalesced", "simulated"):
        sane(c[k], f"cells.{k}", 0, 1e9)
    if c["memo_hits"] + c["coalesced"] + c["simulated"] != c["total"]:
        fail(f"cell counters do not partition: {c}")
    sane(c["memo_hit_rate"], "cells.memo_hit_rate", 0, 1)
    want_rate = (c["memo_hits"] + c["coalesced"]) / c["total"] if c["total"] else 0.0
    if abs(c["memo_hit_rate"] - want_rate) > 1e-9:
        fail(f"memo_hit_rate {c['memo_hit_rate']} != recomputed {want_rate}")
    sane(new["throughput_rps"], "throughput_rps", 1e-3, 1e7)
    # Server-side scheduling-wait vs simulation-latency breakdown (from the
    # obs aggregates): every simulated cell records exactly one wait, one
    # sim time, and one enqueue-time queue depth. The server also simulates
    # the warm-up request's cells, so its sample count may exceed the
    # burst's client-observed `cells.simulated`.
    b = new["breakdown"]
    for key in ("sched_wait_us", "sim_us", "queue_depth"):
        hist_sane(b[key], f"breakdown.{key}")
    if not b["sched_wait_us"]["count"] == b["sim_us"]["count"] == b["queue_depth"]["count"]:
        fail(f"breakdown: wait/sim/depth sample counts must agree: {b}")
    if b["sim_us"]["count"] < c["simulated"]:
        fail(
            f"breakdown: {b['sim_us']['count']} server-side sim samples < "
            f"{c['simulated']} burst-simulated cells"
        )
    print(
        f"validate_bench: serve OK — {new['requests']} requests, "
        f"p50 {new['latency_us']['p50']}us, hit rate {c['memo_hit_rate']:.3f}, "
        f"sched wait p50 {b['sched_wait_us']['p50']}us vs sim p50 {b['sim_us']['p50']}us"
    )


def main():
    if len(sys.argv) != 3:
        fail("usage: validate_bench.py EMITTED.json BASELINE.json")
    with open(sys.argv[1]) as f:
        new = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)
    if new.get("schema") != "ditto-perfbench/2":
        fail(f"unknown schema {new.get('schema')!r}")
    if new.get("kind") != base.get("kind"):
        fail(f"kind {new.get('kind')!r} != baseline {base.get('kind')!r}")
    same_structure(new, base, "$")
    if new["kind"] == "kernels":
        check_kernels(new, base)
    elif new["kind"] == "serve":
        check_serve(new, base)
    else:
        fail(f"unknown kind {new['kind']!r}")


if __name__ == "__main__":
    main()
