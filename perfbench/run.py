#!/usr/bin/env python3
"""Serving-day benchmark: builds perfbench/serving_bench from the repository
sources, serves the cells of one workload (or of all three) and prints the
workload's metrics.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # steady, rush, storm

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root. The last stdout line of a single-
workload run is the JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. The exit code is non-zero when the build
fails, a cell fails a correctness check, or the metrics disagree with
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
CELL_TIMEOUT_S = 120

# Wall seconds of one untraced cell-day on the reference box (4 cores). A
# run of --seconds S serves round(S / cell_day_s) cells (at least three), so
# the work of a run depends on the workload and S only.
CELL_DAY_S = {"steady": 1.7, "rush": 0.75, "storm": 1.0}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures once, then (re)builds the driver; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target", "serving_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(out_dir, "serving_bench")


def pin_to_one_cpu():
    """Runs a cell on one CPU. Its solver and DES are single-threaded, but
    each fan-out still hands work to a one-worker pool and waits for it;
    unpinned, every hand-off woke another vCPU, and on a loaded shared host
    the solve slots ran 20-35 % slower and read a noisier tail."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_cell(binary, scratch, workload, seed, cell, trace):
    """Serves one cell in its own process; returns its figures or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--cell", str(cell), "--trace", str(trace), "--scratch", scratch]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CELL_TIMEOUT_S,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} cell {cell} exceeded {CELL_TIMEOUT_S} s")
        return None
    try:
        figures = json.loads(done.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"perfbench: {workload} cell {cell} printed no figures "
            f"(exit {done.returncode})")
        return None
    if done.returncode != 0 and not figures["checks"]:
        figures["checks"].append(f"exit code {done.returncode}")
    return figures


def ratio(num, den):
    return num / den if den else 0.0


def quality(cells):
    """Mean per-slot Eq. 3 objective and mean deploy cost added per cell."""
    return (ratio(sum(c["objective_sum"] for c in cells),
                  sum(c["slots"] for c in cells)),
            sum(c["added_cost"] for c in cells) / len(cells))


def end_to_end(cells):
    """The end-to-end metrics of an untraced run, plus report lines."""
    control = sorted(ms for c in cells for ms in c["control_ms"])
    n = len(control)
    # Highest percentile with at least ten slots beyond it.
    tail = n - 11 if n > 10 else n - 1
    requests = sum(c["requests"] for c in cells)
    slo_met = sum(c["slo_met"] for c in cells)
    lines = [
        f"control_tail_ms is p{100.0 * (tail + 1) / n:.2f} of {n} slots "
        f"({n - 1 - tail} beyond it)",
        f"DES requests: attempted {requests:.0f}, "
        f"failed (missed D_h^max) {requests - slo_met:.0f}",
    ]
    metrics = {
        "setup_s": (statistics.median(s for c in cells for s in c["setup_s"]),
                    "s"),
        "day_s": (sum(c["steps_s"] for c in cells), "s"),
        "control_p50_ms": (statistics.median(control), "ms"),
        "control_tail_ms": (control[tail], "ms"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in cells),
                        "MB"),
        "slo_attainment": (ratio(slo_met, requests), "ratio"),
        "cold_start_rate": (ratio(sum(c["cold_serves"] for c in cells),
                                  sum(c["invocations"] for c in cells)),
                            "ratio"),
    }
    return metrics, lines


def per_layer(cells):
    """The per-layer metrics of a traced run (means per traced cell-day)."""
    k = len(cells)
    traced = [c["traced"] for c in cells]

    def total(section, name):
        return sum(t[section].get(name, 0.0) for t in traced)

    def per_day(section, name):
        return total(section, name) / k

    slot_ms = sum(t["slot_ms"] for t in traced) / k
    covered_ms = sum(t["covered_ms"] for t in traced) / k
    self_ms = slot_ms - covered_ms
    inv = total("counters", "socl.serverless.invocations")
    shard_solves = total("counters", "socl.shard.solves")
    memo = total("counters", "socl.kernel.memo_hits")
    run_ms = per_day("span_ms", "serverless.run")
    shard_ms = per_day("span_ms", "shard.solve")
    solve_ms = per_day("span_ms", "socl.solve")
    untraced_s = sum(c["steps_s"] for c in cells)
    metrics = {
        "serve.slot_ms": (slot_ms, "ms"),
        "serve.self_ms": (self_ms, "ms"),
        "serve.span_coverage": (ratio(covered_ms, slot_ms), "ratio"),
        "serve.replans": (per_day("counters", "socl.serve.replans"), "count"),
        "serve.incremental_slots":
            (per_day("counters", "socl.serve.incremental_slots"), "count"),
        "serve.carried_slots":
            (per_day("counters", "socl.serve.carried_slots"), "count"),
        "serve.recompute_fraction":
            (ratio(total("counters", "socl.serve.classes_recomputed"),
                   total("counters", "socl.serve.classes_total")), "ratio"),
        "serve.prewarm_hits":
            (per_day("counters", "socl.serve.prewarm_ahead_hits"), "count"),
        "serve.churn_instances":
            (per_day("counters", "socl.serve.churn_instances"), "count"),
        "workload.mobility_ms": (per_day("probes", "mobility_ms"), "ms"),
        "core.set_requests_ms": (per_day("probes", "set_requests_ms"), "ms"),
        "core.classes": (ratio(total("counters", "socl.serve.classes_total"),
                               total("counters", "socl.serve.slots")),
                         "count"),
        "core.route_all_ms": (per_day("probes", "route_all_ms"), "ms"),
        "core.solve_ms": (solve_ms, "ms"),
        "core.solves": (per_day("counters", "socl.core.solves"), "count"),
        "core.multi_start_ms":
            (per_day("span_ms", "combination.multi_start"), "ms"),
        "core.polish_ms": (per_day("span_ms", "combination.polish"), "ms"),
        "core.score_ms":
            (per_day("span_ms", "routing.score_candidates"), "ms"),
        "core.candidates_scored":
            (per_day("counters", "socl.routing.candidates_scored"), "count"),
        "core.kernel_memo_hit_rate":
            (ratio(memo, memo + total("counters", "socl.kernel.memo_misses")),
             "ratio"),
        "serverless.run_ms": (run_ms, "ms"),
        "serverless.invocations": (inv / k, "count"),
        "serverless.ns_per_invocation": (ratio(run_ms * k * 1e6, inv), "ns"),
        "serverless.arrivals_ms": (per_day("probes", "arrivals_ms"), "ms"),
        "serverless.warm_hit_rate":
            (ratio(total("counters", "socl.serverless.warm_hits"), inv),
             "ratio"),
        "serverless.queue_serve_rate":
            (ratio(total("counters", "socl.serverless.queue_serves"), inv),
             "ratio"),
        "serverless.cold_serve_rate":
            (ratio(total("counters", "socl.serverless.cold_serves"), inv),
             "ratio"),
        "serverless.queue_s_mean":
            (ratio(total("hist_sum", "socl.serverless.request_queue_s"),
                   total("hist_count", "socl.serverless.request_queue_s")),
             "s"),
        "serverless.cold_s_mean":
            (ratio(total("hist_sum", "socl.serverless.request_cold_s"),
                   total("hist_count", "socl.serverless.request_cold_s")),
             "s"),
        "serverless.demand_boots":
            (per_day("counters", "socl.serverless.demand_boots"), "count"),
        "serverless.prewarm_boots":
            (per_day("counters", "socl.serverless.prewarm_boots"), "count"),
        "serverless.expirations":
            (per_day("counters", "socl.serverless.expirations"), "count"),
        "serverless.peak_live":
            (max(t["probes"]["peak_live"] for t in traced), "count"),
        "shard.solve_ms": (shard_ms, "ms"),
        "shard.solves": (shard_solves / k, "count"),
        "shard.iterations_per_solve":
            (ratio(total("hist_count", "socl.shard.price_step"),
                   shard_solves), "count"),
        "shard.shards_resolved":
            (per_day("counters", "socl.shard.shards_resolved"), "count"),
        "shard.incremental_steps":
            (per_day("counters", "socl.shard.incremental_steps"), "count"),
        "shard.quota_fallbacks":
            (per_day("counters", "socl.shard.quota_fallbacks"), "count"),
        "shard.converged_rate":
            (ratio(total("probes", "converged_solves"), shard_solves),
             "ratio"),
        "net.set_network_ms": (per_day("probes", "set_network_ms"), "ms"),
        "net.substrate_changes":
            (per_day("probes", "substrate_changes"), "count"),
        "validate.ms": (per_day("probes", "validate_ms"), "ms"),
        "validate.violations":
            (per_day("probes", "validate_violations"), "count"),
        "proc.user_s": (sum(t["user_s"] for t in traced) / k, "s"),
        "proc.sys_s": (sum(t["sys_s"] for t in traced) / k, "s"),
        "trace_overhead":
            (ratio(sum(t["steps_s"] for t in traced), untraced_s) - 1.0,
             "ratio"),
    }
    objective, churn = quality(cells)
    metrics["quality.objective_mean"] = (objective, "eq3")
    metrics["quality.churn_cost"] = (churn, "kappa")
    # Shares of serve.slot: the layer-coverage baseline. The probe shares
    # estimate parts of serve.self_ms (they replay work done inside step()).
    shares = {
        "serve.self_share": self_ms,
        "serverless.run_share": run_ms,
        "shard.solve_share": shard_ms,
        "core.solve_share": solve_ms,
    }
    for name, ms in shares.items():
        metrics[name] = (ratio(ms, slot_ms), "ratio")
    dominant = max(shares, key=shares.get)
    probe_shares = ", ".join(
        f"{name} {ratio(per_day('probes', name + '_ms'), slot_ms):.4f}"
        for name in ("mobility", "set_requests", "route_all", "validate",
                     "arrivals", "set_network"))
    lines = [
        f"dominant share of serve.slot: {dominant} "
        f"({ratio(shares[dominant], slot_ms):.4f})",
        f"probe shares of serve.slot: {probe_shares}",
    ]
    return metrics, lines


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, scratch, workload, seed, seconds, trace):
    """Serves a workload's cells; returns (exit code, result line or None)."""
    cells = max(3, round(seconds / CELL_DAY_S[workload]))
    # A traced cell serves its day twice, so a traced run serves half as
    # many cells.
    runs = max(1, cells // 2) if trace else cells
    print(f"workload {workload}, seed {seed}, {runs} cell(s)"
          + (", each untraced then traced" if trace else ""), flush=True)
    started = time.monotonic()
    figures = []
    for cell in range(runs):
        result = run_cell(binary, scratch, workload, seed, cell, trace)
        if result is None:
            return 1, None
        figures.append(result)
    checks = [f"cell {c['cell']}: {msg}"
              for c in figures for msg in c["checks"]]
    attempted = sum(c["attempted"] for c in figures)
    failed = sum(c["failed"] for c in figures)
    metrics, lines = (per_layer if trace else end_to_end)(figures)
    lines += [f"CHECK FAILED: {msg}" for msg in checks]
    lines.append(f"slots: attempted {attempted}, failed {failed}; "
                 f"run wall {time.monotonic() - started:.1f} s")
    lines.append(f"cell 0 day: {figures[0].get('summary', '?')}")
    objective, churn = quality(figures)
    lines.append(f"quality (exact per seed): objective_mean {objective:.8g} "
                 f"eq3, churn_cost {churn:.8g} kappa")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32s} {value:16.6g} {unit}")
    print("\n".join(lines), flush=True)

    want = expected_metrics(trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{sorted(n for n in set(got) & set(want) if got[n] != want[n])}")
        return 1, None
    result = {
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return (1 if checks else 0), json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(CELL_DAY_S) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    log(f"perfbench: nproc {os.cpu_count()}")

    workloads = (("steady", "rush", "storm") if args.workload == "all"
                 else (args.workload,))
    status = 0
    for workload in workloads:
        code, line = run_workload(binary, scratch, workload, args.seed,
                                  seconds, args.trace)
        status = status or code
        if line is not None:
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
