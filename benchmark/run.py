#!/usr/bin/env python3
"""The repository benchmark's one command (see benchmark/README.md).

Full suite: build, run every workload --runs times in fresh processes with
the workloads interleaved, then one traced run per workload; print every
metric with its unit, median and quartiles; write a results JSON. With
--sets N it measures N independent result sets whose runs alternate in time,
so host drift hits them alike, and writes {"sets": [...]}.

    python3 benchmark/run.py [--runs 5] [--sets 1] [--seconds 15] [--out results.json]

One run of one workload, the form BENCHMARK.json names. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

The build goes to build-bench/ next to this directory; a failed build or a
failed run exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "fp_bench"
TRACE_DIR = BUILD_DIR / "traces"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

THREADS = 4  # FP_NUM_THREADS for every run; the load generator adds 4 connections
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERVE_WORKLOAD = "serve_int8_closed_loop"
SINGLE_WORKLOAD = "fedprophet_cascade"
DISTRIBUTED_WORKLOAD = "fedprophet_distributed"


class BenchError(Exception):
    pass


# ---- statistics ---------------------------------------------------------------


median = statistics.median


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def tail_percentile(n, candidates=(50, 90, 95, 99, 99.9, 99.99)):
    """The highest candidate percentile with at least ten samples beyond it,
    or None when even the median has fewer."""
    supported = [p for p in candidates if n * (100 - p) / 100 >= 10]
    return max(supported) if supported else None


# ---- traces -------------------------------------------------------------------


def load_trace(path):
    """The complete ("X") spans of this process (pid 0) from a Chrome trace.

    In-process distributed workers record their spans locally and also ship
    them to the root, which merges them as pid rank+1 lanes; counting pid 0
    only keeps every span once."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [e for e in events if e.get("ph") == "X" and e.get("pid", 0) == 0]


def nest(events):
    """Parent index of every span (None at top level). A span's parent is
    the innermost span on the same thread whose interval contains it."""
    order = sorted(range(len(events)),
                   key=lambda i: (events[i]["tid"], events[i]["ts"],
                                  -events[i]["dur"]))
    parent = [None] * len(events)
    stack = []
    tid = None
    for i in order:
        e = events[i]
        if e["tid"] != tid:
            stack, tid = [], e["tid"]
        start, end = e["ts"], e["ts"] + e["dur"]
        while stack and not (events[stack[-1]]["ts"] <= start
                             and end <= events[stack[-1]]["ts"]
                             + events[stack[-1]]["dur"]):
            stack.pop()
        parent[i] = stack[-1] if stack else None
        stack.append(i)
    return parent


def self_times(events, parent):
    """Each span's duration minus the spans nested directly inside it."""
    own = [e["dur"] for e in events]
    for i, p in enumerate(parent):
        if p is not None:
            own[p] -= events[i]["dur"]
    return own


def has_ancestor(i, name, events, parent):
    p = parent[i]
    while p is not None:
        if events[p]["name"] == name:
            return True
        p = parent[p]
    return False


def trace_layers(events):
    """Per-layer seconds, FLOPs and counts of one traced unit."""
    parent = nest(events)
    own = self_times(events, parent)
    total, count, flop, self_s = {}, {}, {}, {}
    conv_in_clients = 0.0
    for i, e in enumerate(events):
        name = e["name"]
        total[name] = total.get(name, 0.0) + e["dur"] / 1e6
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i] / 1e6
        if "mnk" in e.get("args", {}):
            flop[name] = flop.get(name, 0.0) + 2.0 * e["args"]["mnk"]
        if name.startswith("conv2d_") and has_ancestor(i, "client", events,
                                                        parent):
            conv_in_clients += e["dur"] / 1e6
    return {"total": total, "count": count, "flop": flop, "self": self_s,
            "conv_in_clients": conv_in_clients}


# ---- one run ----------------------------------------------------------------------


def build():
    """Configures once and builds fp_bench (Release) into build-bench/."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no program sources next to {BENCH_DIR.name}/")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "fp_bench",
                  "-j", str(THREADS)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            raise BenchError(f"build step {' '.join(cmd)} exited "
                             f"{proc.returncode}")


def run_fp_bench(workload, seed, seconds, trace=False):
    """One fresh fp_bench process; returns its parsed JSON result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        trace_dir = TRACE_DIR / workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        cmd += ["--trace", str(trace_dir)]
    env = dict(os.environ, FP_NUM_THREADS=str(THREADS))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=env,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: fp_bench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: fp_bench printed nothing")
    return json.loads(lines[-1])


def untraced(run):
    return [u for u in run["units"] if not u["traced"]] or run["units"]


def is_serve(run):
    return run["workload"] == SERVE_WORKLOAD


def end_to_end(run):
    """BENCHMARK.json's end-to-end metrics of one untraced run."""
    units = untraced(run)
    return {
        "setup_s": median(s for u in units for s in u["setup_s"]),
        "work_s": median(u["work_s"] for u in units),
        # Peak RSS is process-wide, so the last unit's reading is the run's.
        "peak_rss_mb":
            run["units"][-1]["counters"]["process.rss_peak_kb"] * 1024 / 1e6,
        "client_peak_mem_mb":
            median(u["client_peak_mem_bytes"] for u in units) / 1e6,
    }


def details(run):
    """Workload-specific figures that do not exist on every workload, so
    they are reported beside the metrics rather than bounded (README)."""
    units = untraced(run)
    out = {"work_cpu_s": median(u["work_cpu_s"] for u in units)}
    if is_serve(run):
        latency = [x for u in units for x in u["latency_ms"]]
        out["serve_qps"] = (sum(u["requests"] for u in units)
                            / sum(u["work_s"] for u in units))
        out["serve_p50_ms"] = percentile(latency, 50)
        if (tail_percentile(len(latency)) or 0) >= 99:
            out["serve_p99_ms"] = percentile(latency, 99)
        out["serve_latency_samples"] = len(latency)
        out["serve_mean_batch"] = median(u["mean_batch"] for u in units)
        out["serve_server_p50_ms"] = median(u["server_p50_ms"] for u in units)
        out["serve_server_p99_ms"] = median(u["server_p99_ms"] for u in units)
        out["setup_train_s"] = median(u["setup_train_s"] for u in units)
        out["serve_model_load_s"] = median(u["model_load_s"] for u in units)
        out["serve_start_s"] = median(u["server_start_s"] for u in units)
    else:
        for key in ("train_s", "eval_s", "clean_acc", "pgd_acc", "aa_acc",
                    "sim_time_s"):
            out[key] = median(u[key] for u in units)
        out["train_samples_per_s"] = median(u["trained_samples"] / u["train_s"]
                                            for u in units)
        if "build_setup_s" in units[0]:
            out["build_setup_s"] = median(u["build_setup_s"] for u in units)
            out["method_construct_s"] = median(u["method_construct_s"]
                                               for u in units)
        if run["workload"] == DISTRIBUTED_WORKLOAD:
            out["measured_comm_s"] = median(u["measured_comm_s"]
                                            for u in units)
            out["net_tx_mb"] = median(u["net_tx_bytes"] for u in units) / 1e6
    return out


def per_layer(run):
    """BENCHMARK.json's per-layer metrics of one traced run, per traced
    unit, from the unit records, the program's counters and the traces."""
    traced = [u for u in run["units"] if u["traced"]]
    plain = [u for u in run["units"] if not u["traced"]] or traced
    n = len(traced)
    layers = [trace_layers(load_trace(u["trace"])) for u in traced]

    def span(names, field="total"):
        return sum(l[field].get(name, 0.0) for l in layers
                   for name in names) / n

    def counter(name):
        return sum(u["counters"].get(name, 0) for u in traced) / n

    def unit_mean(key):
        return sum(u.get(key, 0) for u in traced) / n

    unit_s = unit_mean("unit_s")
    client_s = span(["client"])
    wave_s = span(["wave"])
    gemm_s = span(["gemm"])
    gemm_flop = span(["gemm"], "flop")
    qgemm_s = span(["qgemm_nt"])
    request_s = span(["serve.request"])
    requests = span(["serve.request"], "count")
    batch_s = span(["serve.batch"])
    batches = span(["serve.batch"], "count")
    serve = is_serve(run)
    train_s = 0.0 if serve else unit_mean("train_s")

    def frac(x):
        return x / unit_s

    m = {
        "engine.rounds": counter("engine.rounds"),
        "engine.clients_trained": counter("engine.clients_trained"),
        "engine.round_s": span(["round"]),
        "engine.client_thread_s": client_s,
        "engine.dispatch_s": span(["begin_dispatch", "dispatch"]),
        "engine.aggregate_s": span(["aggregate", "finalize"]),
        "engine.wave_idle_frac":
            1.0 - client_s / (wave_s * run["threads"]) if wave_s > 0 else 0.0,
        "train.unspanned_thread_s":
            client_s - sum(l["conv_in_clients"] for l in layers) / n,
        "train.outside_rounds_frac":
            0.0 if serve else frac(train_s - span(["round"])),
        "kernel.conv2d_fwd_self_s": span(["conv2d_fwd"], "self"),
        "kernel.conv2d_bwd_self_s": span(["conv2d_bwd"], "self"),
        "kernel.conv2d_infer_calls": span(["conv2d_infer"], "count"),
        "kernel.gemm_s": gemm_s,
        "kernel.gemm_calls": counter("kernel.gemm_calls"),
        "kernel.gemm_gflop": gemm_flop / 1e9,
        "kernel.gemm_gflops": gemm_flop / 1e9 / gemm_s if gemm_s else 0.0,
        "kernel.qgemm_calls": counter("kernel.qgemm_calls"),
        "kernel.qgemm_gflops":
            span(["qgemm_nt"], "flop") / 1e9 / qgemm_s if qgemm_s else 0.0,
        "kernel.winograd_calls": counter("kernel.winograd_calls"),
        "eval.clean_frac": frac(span(["evaluate_clean"])),
        "eval.pgd_frac": frac(span(["evaluate_pgd"])),
        "eval.aa_frac": frac(span(["evaluate_robustness"], "self")),
        "comm.channel_s": span(["downlink", "uplink", "encode_down",
                                "encode_up", "decode"]),
        "comm.bytes_up": unit_mean("bytes_up"),
        "comm.bytes_down": unit_mean("bytes_down"),
        "mem.arena_peak_bytes": counter("mem.arena_peak_bytes"),
        "net.tx_bytes": counter("net.tx_bytes"),
        "net.rx_bytes": counter("net.rx_bytes"),
        "net.measured_comm_frac": frac(unit_mean("measured_comm_s")),
        "serve.requests": counter("serve.requests"),
        "serve.batches": counter("serve.batches"),
        "serve.mean_batch": requests / batches if batches else 0.0,
        "serve.conns_opened": counter("serve.conns"),
        "serve.rejected": counter("serve.rejected"),
        "serve.outside_forward_frac":
            1.0 - (batch_s / batches) / (request_s / requests)
            if requests and batches else 0.0,
        "process.vm_size_mb": run["vm_size_kb"] * 1024 / 1e6,
        "process.threads": run["process_threads"],
        "trace.overhead_frac":
            median(u["work_s"] for u in traced)
            / median(u["work_s"] for u in plain) - 1.0,
        "trace.dropped_events": run["dropped_events"],
    }
    return m, layers


def unit_failures(run):
    """Why each failed unit of a run failed; fp_bench already counted them."""
    for i, u in enumerate(run["units"]):
        if u["failed"]:
            detail = "; ".join(u["errors"]) or f"{u['failed']} failed"
            if "non200" in u:
                detail += (f" ({u['non200']} non-200, {u['transport_errors']}"
                           f" transport, {u['label_mismatches']} label "
                           f"mismatches)")
            print(f"FAILED: {run['workload']} unit {i}: {detail}",
                  file=sys.stderr)


def check_run(run, reference_hashes=None):
    """Run-level checks: (name, ok, detail) tuples."""
    unit_failures(run)
    checks = []
    if run["reference"] is not None:
        # fp_bench reran unit 0's seed single-process after the loop.
        same = run["reference"]["hash"] == run["units"][0]["hash"]
        checks.append(("distributed equals single-process", same,
                       f"{run['units'][0]['hash']} vs "
                       f"{run['reference']['hash']}"))
    for u in run["units"]:
        other = (reference_hashes or {}).get(u["fl_seed"])
        if other is not None:
            checks.append((f"distributed equals {SINGLE_WORKLOAD} at fl.seed "
                           f"{u['fl_seed']}", other == u["hash"],
                           f"{u['hash']} vs {other}"))
    return checks


def trace_checks(run, metrics, layers):
    checks = [("trace.dropped_events == 0", metrics["trace.dropped_events"] == 0,
               str(metrics["trace.dropped_events"]))]
    if run["workload"] == SINGLE_WORKLOAD:
        # The round spans (tracer) and the sample/train/aggregate phase
        # timers (metrics registry) are separate instruments over the same
        # rounds, so they must agree. train.outside_rounds_frac rests on it.
        traced = [u for u in run["units"] if u["traced"]]
        for u, layer in zip(traced, layers):
            rounds = layer["total"].get("round", 0.0)
            phases = (u["phase_sample_s"] + u["phase_train_s"]
                      + u["phase_aggregate_s"])
            gap = abs(rounds - phases)
            checks.append(("round spans agree with the phase timers within "
                           "5% of train_s", gap <= 0.05 * u["train_s"],
                           f"round spans {rounds:.4f} s, phase timers "
                           f"{phases:.4f} s, train_s {u['train_s']:.4f} s"))
    return checks


def tally(runs, checks):
    """(attempted, failed): the units' own counts plus one per check."""
    attempted = sum(u["attempted"] for r in runs for u in r["units"])
    failed = sum(u["failed"] for r in runs for u in r["units"])
    return (attempted + len(checks),
            failed + sum(1 for c in checks if not c[1]))


def units_of(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def print_checks(checks):
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)


def single_run(args):
    build()
    run = run_fp_bench(args.workload, args.seed, args.seconds,
                       trace=args.trace == 1)
    checks = check_run(run)
    if args.trace == 1:
        values, layers = per_layer(run)
        checks += trace_checks(run, values, layers)
        kind = "per_layer"
    else:
        values = end_to_end(run)
        kind = "end_to_end"
    print_checks(checks)
    attempted, failed = tally([run], checks)
    units = units_of(kind)
    for name, unit in units.items():
        print(f"{args.workload:24s} {name:28s} {values[name]:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


# ---- full suite -----------------------------------------------------------------


def host_info():
    flags = []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = sorted(f for f in line.split(":", 1)[1].split()
                               if f.startswith(("avx", "fma", "sse4")))
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"git_sha": sha, "host": platform.node(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "cpu_flags": flags, "threads": THREADS}


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize_set(runs, traced, meta, seconds):
    """One result set: metrics, details, per-layer values and checks of
    every workload, printed and returned. False in "ok" if anything failed."""
    result = {"meta": meta, "workloads": {}}
    single_hashes = {u["fl_seed"]: u["hash"] for run in runs[SINGLE_WORKLOAD]
                     for u in run["units"]}
    ok = True
    e2e_units = units_of("end_to_end")
    layer_units = units_of("per_layer")
    for w in WORKLOADS:
        checks = []
        for run in runs[w]:
            checks += check_run(run, single_hashes
                                if w == DISTRIBUTED_WORKLOAD else None)
        layer_values, layers = per_layer(traced[w])
        checks += check_run(traced[w]) + trace_checks(traced[w], layer_values,
                                                      layers)
        print_checks(checks)
        attempted, failed = tally(runs[w] + [traced[w]], checks)
        ok = ok and failed == 0
        entry = {
            "runs": [{"seed": run["seed"], "metrics": end_to_end(run),
                      "details": details(run),
                      "attempted": sum(u["attempted"] for u in run["units"]),
                      "failed": sum(u["failed"] for u in run["units"]),
                      "hashes": {str(u["fl_seed"]): u["hash"]
                                 for u in run["units"] if "hash" in u}}
                     for run in runs[w]],
            "per_layer": layer_values,
            "attempted": attempted,
            "failed": failed,
            "checks": [{"name": c[0], "ok": c[1], "detail": c[2]}
                       for c in checks],
        }
        result["workloads"][w] = entry

        print(f"\n== {w}  ({len(runs[w])} runs x {seconds} s, "
              f"fail_frac {failed}/{attempted})")
        for name, unit in e2e_units.items():
            s = summarize([r["metrics"][name] for r in entry["runs"]])
            print(f"  {name:28s} {s['median']:12.5g} {unit:10s} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}]")
        for name in entry["runs"][0]["details"]:
            s = summarize([r["details"][name] for r in entry["runs"]
                           if name in r["details"]])
            print(f"  {name:28s} {s['median']:12.5g} {'':10s} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}]  (detail)")
        for name, unit in layer_units.items():
            print(f"  {name:28s} {layer_values[name]:12.5g} {unit:10s} "
                  f"(traced)")
    return result, ok


def suite_mode(args):
    build()
    meta = dict(host_info(), runs=args.runs, seconds=args.seconds)
    sets = [{w: [] for w in WORKLOADS} for _ in range(args.sets)]
    for r in range(args.runs):
        # Interleave and rotate the workloads, and alternate which set goes
        # first, so slow drift of the host spreads over all of them.
        k = r % len(WORKLOADS)
        order = sets if r % 2 == 0 else sets[::-1]
        for w in WORKLOADS[k:] + WORKLOADS[:k]:
            for runs in order:
                print(f"[run {r + 1}/{args.runs}] {w} seed {r}",
                      file=sys.stderr)
                runs[w].append(run_fp_bench(w, r, args.seconds))
    results, all_ok = [], True
    for i, runs in enumerate(sets):
        traced = {}
        for w in WORKLOADS:
            print(f"[traced] {w} seed 0", file=sys.stderr)
            traced[w] = run_fp_bench(w, 0, args.seconds, trace=True)
        if args.sets > 1:
            print(f"\n#### set {i + 1}/{args.sets}")
        result, ok = summarize_set(runs, traced, meta, args.seconds)
        results.append(result)
        all_ok = all_ok and ok

    out = Path(args.out) if args.out else \
        BUILD_DIR / f"results-{meta['git_sha'][:12]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results[0] if args.sets == 1
                              else {"sets": results}, indent=1) + "\n")
    print(f"\nresults: {out}  traces: {TRACE_DIR}/<workload>/unit*.json",
          file=sys.stderr)
    return 0 if all_ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    try:
        return single_run(args) if args.workload else suite_mode(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
