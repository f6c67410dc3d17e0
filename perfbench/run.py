#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer numbers of DRR-gossip.

    python3 perfbench/run.py --workload dense-clean --seed 7 --seconds 10 --trace 0

Builds perfbench_driver (Release) from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and runs the
workload as a closed loop (one caller, one run at a time) for --seconds,
split over PARTS driver processes started one after the other: each times
its own set-up, and the runs are pooled.  A workload with a protocol-seed
panel runs its panel once instead.  Every run is checked; the last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 its
per_layer metrics (timed from outside around each layer's public call).
Lines before the last carry the environment stamp, run_ms_p50 and
run_ms_tail (with percentile and run count), failed_frac and one repro
line per failed run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PARTS = 5           # driver processes per run: set-up is timed PARTS times (median reported)
DEADLINE_S = 170    # hard stop for the timed part of a run (the build is not counted)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, bench_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        die(f"no library sources next to {bench_dir.name}/ (expected CMakeLists.txt and src/)")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver"


class Driver:
    """One perfbench_driver process, killed if it outlives the deadline."""

    def __init__(self, binary, args, deadline, part):
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / PARTS), "--trace", str(args.trace),
               "--part", str(part), "--parts", str(PARTS)]
        t0 = time.perf_counter()
        # Own process group, so a kill also reaches forked UDP node processes.
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                      os.killpg, (self.proc.pid, signal.SIGKILL))
        self.killer.start()
        self.lines = (json.loads(line) for line in self.proc.stdout if line.strip())
        self.env = None
        self.setup_s = None
        for rec in self.lines:
            if rec["kind"] == "env":
                self.env = rec
            elif rec["kind"] == "ready":
                self.setup_s = time.perf_counter() - t0
                break

    def finish(self):
        rest = list(self.lines)
        self.proc.wait()
        self.killer.cancel()
        if self.proc.returncode != 0:
            die(f"driver exited with code {self.proc.returncode}")
        if self.setup_s is None:
            die("driver never finished set-up")
        return rest


def print_run_times(ms):
    """run_ms_p50 and run_ms_tail, the highest percentile with at least ten
    runs beyond it (else the max).

    Printed, not gated: on a shared 4-vCPU machine whose compute speed
    drifts by 20-50% over tens of seconds, the median and tail of one run's
    ~40-200 runs spread by more than the largest bound a benchmark may set
    (wall clock is recorded, not gated, for the same reason in CI).  The
    traced run records the median api::run wall as the api.run_ms metric."""
    xs = sorted(ms)
    print(f"run_ms_p50 {statistics.median(xs)} ms ({len(xs)} runs)")
    if len(xs) < 11:
        print(f"run_ms_tail {xs[-1]} ms (max of {len(xs)} runs, fewer than 11)")
    else:
        pct = 100.0 * (len(xs) - 10) / len(xs)
        print(f"run_ms_tail {xs[-11]} ms (p{pct:.1f} of {len(xs)} runs, 10 beyond)")


def end_to_end(workload, runs, ends, setups):
    print_run_times([r["ms"] for r in runs])
    # udp-cluster: the largest node process, i.e. the driver's children.
    key = "children_rss_kib" if workload == "udp-cluster" else "rss_kib"
    rss_kib = max(end[key] for end in ends)
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_kib / 1024.0,
        "msgs_per_node": statistics.median(r["sent"] / r["n"] for r in runs),
        "bits_per_node": statistics.median(r["bits"] / r["n"] for r in runs),
        "rounds": statistics.median(r["rounds"] for r in runs),
    }


def per_layer(traces, names):
    """Medians over the traced seeds; a layer the workload never enters reads 0."""
    unknown = {name for t in traces for name in t["layers"]} - set(names)
    if unknown:
        die("driver reports layers BENCHMARK.json does not list: " + " ".join(sorted(unknown)))
    values = {name: statistics.median(t["layers"].get(name, 0.0) for t in traces)
              for name in names}
    print(f"tracing overhead: traced phase sum / untraced api::run = "
          f"{values['trace.phase_sum_ratio']:.4f} (median of {len(traces)} seeds)")
    return values


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read BENCHMARK.json: {err}")

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build(root, bench_dir)
    deadline = time.monotonic() + DEADLINE_S
    setups, recs, env = [], [], None
    for part in range(PARTS):
        d = Driver(binary, args, deadline, part)
        recs += d.finish()
        setups.append(d.setup_s)
        env = env or d.env

    runs = [r for r in recs if r["kind"] == "run"]
    traces = [r for r in recs if r["kind"] == "trace"]
    ends = [r for r in recs if r["kind"] == "end"]
    if not runs or len(ends) != PARTS or (args.trace and not traces):
        die("driver produced no runs")

    failed = [r for r in runs if r["reason"]]
    # A wrong answer the program did not flag is incorrect output; flagged
    # failures (error, consensus=false, deadline) count in `failed`.
    silent = [r for r in runs if r["ok"] and r["consensus"] and not r["accurate"]]
    unfaithful = [t for t in traces if t["fidelity"]]

    print("env " + json.dumps({k: v for k, v in env.items() if k != "kind"}))
    for r in failed:
        print(f"FAILED {args.workload} seed={r['seed']} {r['reason']} "
              f"rel_error={r['rel_error']} repro: {r['repro']}")
    for t in unfaithful:
        print(f"UNFAITHFUL {args.workload} seed={t['seed']}: {t['fidelity']}")
    print(f"failed_frac {len(failed) / len(runs):.4f} ({len(failed)}/{len(runs)})")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = (per_layer(traces, [m["name"] for m in wanted]) if args.trace
              else end_to_end(args.workload, runs, ends, setups))
    if set(values) != {m["name"] for m in wanted}:
        die("measured metrics do not match BENCHMARK.json: "
            + " ".join(sorted(set(values) ^ {m["name"] for m in wanted})))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not silent and not unfaithful, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
