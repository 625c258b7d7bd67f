#!/usr/bin/env python3
"""robusthedge benchmark: one closed-loop, single-threaded workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload duality_float --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): duality_exact, duality_float, deep_tree_hedge,
proptest.  The package is imported from ./src, never from an installed copy.

--trace 0 measures the end-to-end metrics with tracing off.  Rounds of the
workload's fixed composition run one after another while the next round is
predicted to end within --seconds (at least the workload's fixed item set):

  setup_s      median of three fresh processes' time from start until the
               first timed item is ready (imports, inputs, warm-up item)
  wall_s       median time of one round, the workload's fixed item mix,
               each item weighted by the share of traffic it stands for
  item_p50_ms  weighted median item latency (Harrell-Davis estimate)
  peak_rss_mb  peak resident memory of the measuring process, which also
               checks each item's output before the next item starts

--trace 1 runs each round of the workload's fixed item set untraced, traced,
and untraced again, writes the traced spans to
.perfbench/spans-<workload>-<seed>.jsonl and prints per-layer metrics
(tracing.py); trace.overhead_s is the traced time minus the mean of the
untraced ones.  On a machine whose speed drifts by more than the tracing
cost, it can read below zero.  It exits with
status 3 when a layer the workload must call records no call, or an LP layer
records calls where it must not.

Every item's output is checked outside its timing.  Human-readable lines come
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 1 when an item failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"  # the traced run's spans, one JSON line each
WORKLOAD_NAMES = ("duality_exact", "duality_float", "deep_tree_hedge", "proptest")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
TAIL_MIN_BEYOND = 10


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import robusthedge
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import robusthedge from {SRC}: {exc}")
    if Path(robusthedge.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: robusthedge resolved to {robusthedge.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy
    import scipy

    from robusthedge import simplex

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rational": type(simplex.RAT(0)).__name__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup(name: str, seed: int):
    """Imports, the first round's inputs and a warm-up item: everything
    before the first timed item.  The package imports scipy lazily inside
    its LP calls, so scipy.optimize is imported here, not in the first item."""
    import_package()
    import scipy.optimize  # noqa: F401

    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    first = wl.round_items(seed, 0)
    for item in wl.warmup_items(seed):
        reason = wl.check(item, wl.run(item))
        if reason:
            raise SystemExit(f"perfbench: warm-up item failed: {reason}")
    return wl, first


def monotonic_now() -> float:
    """The system-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_setup(args) -> float:
    """Time from spawning a fresh process until it has set up.  The probe
    prints the clock when it is ready, so neither its exit nor the parent's
    wait for it (polled in 50 ms steps under a timeout) is counted."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ]
    t0 = monotonic_now()
    out = subprocess.run(
        cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.PIPE, text=True
    ).stdout
    return float(out.split()[-1]) - t0


class Pass:
    """Items, latencies, failures and digest lines of one pass over rounds.
    Round times are weighted sums of item times (Workload.weight)."""

    def __init__(self):
        self.item_times = []
        self.item_weights = []
        self.round_times = []
        self.failures = []
        self.digest_lines = []

    def run_round(self, wl, items, tracer=None, digest=True):
        round_time = 0.0
        for item in items:
            weight = wl.weight(item)
            if tracer:
                tracer.item = len(self.item_times)
            # the tracer is installed around the timed call only, so the
            # check below records no spans
            with tracer.installed() if tracer else nullcontext():
                t0 = perf_counter()
                try:
                    out = wl.run(item)
                except Exception as exc:  # counted as a failed item, run continues
                    out = exc
                    print(traceback.format_exc(), file=sys.stderr)
                t = perf_counter() - t0
            self.item_times.append(t)
            self.item_weights.append(weight)
            round_time += weight * t
            # checked at once and dropped before the next item, so peak
            # memory holds one item's output and its check, not a round's
            reason = repr(out) if isinstance(out, Exception) else wl.check(item, out)
            if reason:
                self.failures.append(reason)
                print(f"perfbench: item failed: {reason}", file=sys.stderr)
            elif digest:
                line = wl.digest_line(item, out)
                if line is not None:
                    self.digest_lines.append(line)
            del out
        self.round_times.append(round_time)


def weighted_median(values, weights):
    """Harrell-Davis estimate of the median of values that stand for
    `weights` items each: a mean of all of them, weighted by how likely each
    is to be the sample median, rather than the one middle value.  Runs whose
    middle item falls between strata of different latency then read alike.
    The beta weights are those of len(values) items, taken at cumulative
    shares of the total weight."""
    from scipy.special import betainc

    pairs = sorted(zip(values, weights))
    total = sum(weights)
    a = (len(pairs) + 1) / 2
    est, acc, prev = 0.0, 0.0, 0.0
    for v, w in pairs:
        acc += w
        cdf = float(betainc(a, a, min(acc / total, 1.0)))
        est += (cdf - prev) * v
        prev = cdf
    return est


def tail(times):
    """(percentile, value) of the highest integer percentile with at least
    TAIL_MIN_BEYOND items beyond it (nearest rank, items unweighted), or None."""
    n = len(times)
    ranked = sorted(times)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ranked[rank - 1]
    return None


def measure(args, wl, first):
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    run = Pass()
    start = perf_counter()
    items, r = first, 0
    while True:
        run.run_round(wl, items, digest=r < wl.fixed_rounds)
        r += 1
        elapsed = perf_counter() - start
        if r >= wl.fixed_rounds and elapsed * (r + 1) / r > args.seconds:
            break
        items = wl.round_items(args.seed, r)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(run.round_times), "s"),
        "item_p50_ms": (weighted_median(run.item_times, run.item_weights) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(run.item_times)
    notes = [
        f"setup samples (s): {', '.join(f'{v:.4f}' for v in setup_samples)}",
        f"rounds: {r}, items: {n}, measured: {elapsed:.2f} s",
    ]
    t = tail(run.item_times)
    notes.append(
        f"item_tail_ms: p{t[0]} of {n} unweighted items = {t[1] * 1e3:.4f} ms" if t
        else f"item_tail_ms: omitted, {n} items leave no percentile with {TAIL_MIN_BEYOND} beyond"
    )
    return run, metrics, notes


def trace(args, wl, first):
    from tracing import Tracer

    rounds = [first] + [wl.round_items(args.seed, r) for r in range(1, wl.fixed_rounds)]
    tracer = Tracer()
    # each round untraced, traced, untraced: the overhead is measured against
    # the mean of the runs either side, which cancels drift of machine speed
    passes = [Pass(), Pass(), Pass()]
    for items in rounds:
        for i, p in enumerate(passes):
            p.run_round(wl, items, tracer if i == 1 else None)
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    bad = tracer.guard(args.workload)
    if bad:
        for line in bad:
            print(f"perfbench: trace guard ({args.workload}): {line}", file=sys.stderr)
        raise SystemExit(3)
    walls = [sum(p.round_times) for p in passes]
    run = Pass()
    for p in passes:
        run.item_times += p.item_times
        run.failures += p.failures
    run.digest_lines = passes[1].digest_lines
    if any(p.digest_lines != run.digest_lines for p in passes):
        run.failures.append("traced and untraced passes disagree on the exact values")
    metrics = layer_metrics(tracer, passes[1].item_weights, walls[1] - (walls[0] + walls[2]) / 2)
    notes = [
        f"fixed item set: {len(rounds)} rounds, {len(passes[1].item_times)} items; "
        f"untraced {walls[0]:.4f} s and {walls[2]:.4f} s, traced {walls[1]:.4f} s",
        f"spans: {len(tracer.spans)}",
    ]
    return run, metrics, notes


def layer_metrics(tracer, weights, overhead) -> dict:
    """Seconds are weighted by item like wall_s; counts, maxima and
    s_per_pivot are of the fixed item set, unweighted."""
    t = tracer.layer_times(weights)
    counts, maxima = tracer.counts, tracer.maxima
    pivots = counts["simplex.pivots"]
    enum_calls = t["oracle_lp.enumerate_vertex_kernels"][0]
    m = {
        "simplex.solve_lp.calls": (t["simplex.solve_lp"][0], "count"),
        "simplex.solve_lp.s": (t["simplex.solve_lp"][1], "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.pivots_max": (maxima["simplex.pivots_max"], "count"),
        "simplex.s_per_pivot": (
            tracer.layer_times()["simplex.solve_lp"][1] / pivots if pivots else 0.0, "s"),
        "simplex.rows_max": (maxima["simplex.rows_max"], "count"),
        "simplex.cols_max": (maxima["simplex.cols_max"], "count"),
        "highs.linprog.calls": (t["highs.linprog"][0], "count"),
        "highs.linprog.s": (t["highs.linprog"][1], "s"),
        "highs.rows_max": (maxima["highs.rows_max"], "count"),
        "highs.cols_max": (maxima["highs.cols_max"], "count"),
        "oracle_lp.global_sup_lp.self_s": (t["oracle_lp.global_sup_lp"][2], "s"),
        "oracle_lp.enumerate_vertex_kernels.calls": (enum_calls, "count"),
        "oracle_lp.enumerate_vertex_kernels.s": (t["oracle_lp.enumerate_vertex_kernels"][1], "s"),
        "oracle_lp.enumerate_vertex_kernels.vertices": (
            counts["oracle_lp.enumerate_vertex_kernels.vertices"], "count"),
        "oracle_lp.vertex_enum_repeat_share": (
            counts["oracle_lp.vertex_enum_repeats"] / enum_calls if enum_calls else 0.0, "share"),
        "dual_dp.backward_value.s": (t["dual_dp.backward_value"][1], "s"),
        "dual_dp.one_step_sup.calls": (t["dual_dp.one_step_sup"][0], "count"),
        "dual_dp.one_step_sup.self_s": (t["dual_dp.one_step_sup"][2], "s"),
        "market_tree.build_tree.s": (t["market_tree.build_tree"][1], "s"),
        "market_tree.nodes_built": (counts["market_tree.nodes_built"], "count"),
        "claims.make_claim.s": (t["claims.make_claim"][1], "s"),
        "primal_hedge.primal_lp.self_s": (t["primal_hedge.primal_lp"][2], "s"),
        "primal_hedge.extract_strategy.s": (t["primal_hedge.extract_strategy"][1], "s"),
        "primal_hedge.verify_superhedge.s": (t["primal_hedge.verify_superhedge"][1], "s"),
        "measure_families.in_family.calls": (t["measure_families.in_family"][0], "count"),
        "measure_families.in_family.s": (t["measure_families.in_family"][1], "s"),
        "measure_families.polar_paths.s": (t["measure_families.polar_paths"][1], "s"),
        "measure_families.surgery.s": (t["measure_families.surgery"][1], "s"),
    }
    for name, (_, incl, _) in t.items():
        if name.startswith("suites."):
            m[f"{name}.s"] = (incl, "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(repr(monotonic_now()))
        sys.stdout.flush()
        os._exit(0)  # skip interpreter teardown: the probe ends at "ready"

    wl, first = setup(args.workload, args.seed)
    run, metrics, notes = (trace if args.trace else measure)(args, wl, first)

    attempted, failed = len(run.item_times), len(run.failures)
    print("env " + json.dumps(environment(args), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for line in notes:
        print(line)
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted if attempted else 0.0}")
    if run.digest_lines:
        from workloads import digest

        print(f"digest: {digest(run.digest_lines)} over {len(run.digest_lines)} exact root values")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
