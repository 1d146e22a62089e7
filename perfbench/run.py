#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--model tiny] [--batch <n>] [--corrupt]

The first call builds perfbench/ (a CMake project over ../src) into
.bench_build/ at the repository root; later calls rebuild incrementally.
The report of the run goes to stdout. Its last line is one JSON object,
{"correct", "attempted", "failed", "metrics"}, whose metrics are the
end_to_end list of BENCHMARK.json (--trace 0) or its per_layer list
(--trace 1). A traced run must report every metric expected_layers()
lists for its workload; a declared per-layer metric of a layer the
workload does not exercise reads 0. Traced runs also write a Chrome trace
to .bench_build/traces/. The exit code is the benchmark's: 0 only if every
output was bit-exact and every expected metric was reported.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170

SETUP = ["setup.params_ms", "setup.compile_ms", "setup.verify_ms",
         "setup.warmup_ms"]
STREAM = ["engine.fill_ms", "stream.pop_stalls_per_img",
          "stream.push_stalls_per_img", "stream.burst_occupancy",
          "executor.cpu_ms_per_img", "executor.cpu_util"]
BATCH = ["engine.ms_per_img", "trace.overhead_pct",
         "kernels.stage_bound_img_s", "kernels.core_bound_img_s",
         "kernels.overlap_eff", "model.dfe_img_s", "model.live_over_dfe"]
SERVE = ["serve.latency_p50_ms", "serve.latency_p99_ms",
         "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
         "serve.batch_form_p50_ms", "serve.service_p50_ms",
         "serve.mean_batch", "serve.max_queue_depth", "serve.rejected",
         "loadgen.late_p99_ms"]
LINK = ["link.frames_per_img", "link.retransmits", "link.split_cost"]


def replay(*nodes):
    """Segment-replay metrics of segments ending at `nodes`; a conv node
    names a single-conv segment, which also reports its GOP/s."""
    names = []
    for node in nodes:
        names.append(f"layer.{node}.ms_per_img")
        if node.startswith("conv_"):
            names.append(f"layer.{node}.gop_s")
    return names


# Per-layer metrics of each workload: (any network, paper network only).
# Node names and the number of linked segments depend on the network, so
# --model tiny checks only the first list.
LAYERS = {
    "resnet18_batch": (
        SETUP + STREAM + BATCH,
        replay("conv_0", "bnact_1", "add_11", "bnact_12", "add_22",
               "bnact_23", "add_33", "bnact_34", "add_44", "bnact_45",
               "avgpool_46", "conv_47")),
    "vgg32_linked": (
        SETUP + STREAM + BATCH + LINK + SERVE,
        [f"link.seg{k}.ms_per_img" for k in range(4)] + replay(
            "conv_0", "bnact_1", "conv_2", "bnact_3", "maxpool_4", "conv_5",
            "bnact_6", "conv_7", "bnact_8", "maxpool_9", "conv_10",
            "bnact_11", "conv_12", "bnact_13", "maxpool_14", "conv_15",
            "bnact_16", "conv_17", "bnact_18", "conv_19")),
    "vgg32_open": (SETUP + STREAM + SERVE, []),
}


def expected_layers(workload, tiny):
    """Per-layer metrics a traced run of `workload` must report."""
    generic, paper = LAYERS.get(workload, ([], []))
    return generic if tiny else generic + paper


def build():
    """Configure once, then build incrementally; False on failure."""
    OUT.mkdir(parents=True, exist_ok=True)
    log_path = OUT / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(OUT / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                sys.stderr.write(f"perfbench: build failed:\n{tail}\n")
                return False
    return True


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--model", choices=("paper", "tiny"), default="paper")
    args, extra = parser.parse_known_args()

    if not build():
        return 1
    traces = OUT / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--model", args.model, "--trace-out",
           str(traces / f"{args.workload}-seed{args.seed}.json"), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        sys.stderr.write(f"perfbench: no result (exit {proc.returncode})\n")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    if args.trace:
        tiny = args.model == "tiny"
        missing = [name for name in expected_layers(args.workload, tiny)
                   if name not in measured]
        if missing:
            sys.stderr.write("perfbench: expected per-layer metrics not "
                             f"reported: {', '.join(missing)}\n")
            return 1
    metrics = {}
    for m in declared_metrics(args.trace):
        got = measured.get(m["name"])
        if got is None and args.trace:
            # A layer this workload does not exercise.
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            sys.stderr.write(f"perfbench: metric {m['name']} [{m['unit']}] "
                             f"not reported as declared: {got}\n")
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
