#!/usr/bin/env bash
# One-shot verification gate: warning-clean build (-Werror), full test
# suite, and clang-tidy lint (skipped with a notice when the binary is
# absent). Intended both for CI and as the local pre-push check.
#
# Usage:
#   tools/check.sh                # build + ctest + lint
#   SANITIZE=thread tools/check.sh  # same, built under TSan
#   SANITIZE=address tools/check.sh # same, under ASan+UBSan
#   CHAOS=1 tools/check.sh          # additionally re-run the `chaos`
#                                   # label (seeded fault-injection soak)
#                                   # and the `linkchaos` label (the
#                                   # partitioned MaxRing link soak:
#                                   # mid-run link death, failover,
#                                   # serving through it)
#   PERF=1 tools/check.sh           # additionally run the executor
#                                   # ablation (fail if the ready-queue
#                                   # shallow- or deep-chain throughput
#                                   # regresses >10% against
#                                   # BENCH_executor.json recorded on the
#                                   # same host), the conv-datapath
#                                   # ablation (fail unless packed+SIMD
#                                   # conv stays >= 2x the packed scalar
#                                   # word loop when AVX2 is available and
#                                   # >= 0.8x the committed
#                                   # BENCH_kernels.json geomean and every
#                                   # cell's packed+SIMD images/s >= 0.8x
#                                   # its committed rate on the same
#                                   # host), the autotuned-plan ablation
#                                   # (fail if the tuned plan loses on any
#                                   # throughput metric, replaying
#                                   # BENCH_autotune.json), and the
#                                   # link-fault serving ablation (fail
#                                   # unless a farm with a dead MaxRing
#                                   # link holds >= 0.70x healthy
#                                   # throughput with zero lost requests
#                                   # and the healthy linked farm holds
#                                   # >= 0.80x one unsplit engine
#                                   # replica, replaying
#                                   # BENCH_linkfault.json)
#   TUNE=1 tools/check.sh           # additionally run a bounded qnn_tune
#                                   # --check pass (fail if the tuned plan
#                                   # lost to the default on the deciding
#                                   # metric — a structural invariant)
#   MC=1 tools/check.sh             # additionally run the exhaustive
#                                   # scheduler-protocol model checker
#                                   # (ctest label `mc`: src/mc explores
#                                   # every interleaving of the ReadyHook
#                                   # publish/park protocol; < 60 s)
#
# The default run already includes the QNN-D6xx static gates — the
# compiled-plan consistency lint (PlanLint suite) and the exact token-flow
# deadlock proofs (TokenFlow suite) run inside test_verify/test_plan. It
# then re-runs the datapath, ring, engine, pooling and scanner
# bit-exactness suites (VecOps, Packed*, BitPlane*, Conv*, Engine*,
# Stream*, PoolKernelTest, PoolVsReference, WindowScanner*) under
# QNN_SIMD=avx2 and QNN_SIMD=scalar, so every kernel the engine builds
# and every ring conversion is checked at the narrower levels too, not
# only at the widest one the host has.
#
# The build directory is build-check[-$SANITIZE], separate from the
# default build/ so a strict -Werror configure never pollutes it.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE="${SANITIZE:-}"
CHAOS="${CHAOS:-}"
PERF="${PERF:-}"
TUNE="${TUNE:-}"
MC="${MC:-}"
BUILD_DIR="build-check${SANITIZE:+-$SANITIZE}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (${BUILD_DIR}, QNN_WERROR=ON${SANITIZE:+, QNN_SANITIZE=$SANITIZE}) =="
cmake -B "$BUILD_DIR" -S . -DQNN_WERROR=ON \
  ${SANITIZE:+-DQNN_SANITIZE="$SANITIZE"}

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test =="
if [ -n "$SANITIZE" ]; then
  # Sanitized runs target the concurrency-sensitive suites; the full
  # matrix runs in the plain configuration below them.
  ctest --test-dir "$BUILD_DIR" -L sanitize --output-on-failure
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure
  # Engines, conv and pool kernels and streams resolve the dispatched
  # vec_ops table once, at construction, from QNN_SIMD; a level the host
  # lacks clamps down.
  for level in avx2 scalar; do
    echo "== test (datapath + ring + engine + pool suites, QNN_SIMD=$level) =="
    QNN_SIMD="$level" ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R '(^|/)(VecOps|Packed|BitPlane|Conv|Engine|Stream|PoolKernelTest|PoolVsReference|WindowScanner)[A-Za-z]*\.'
  done
fi

if [ -n "$MC" ]; then
  echo "== mc (exhaustive scheduler-protocol model checking) =="
  # Explores every interleaving of the ReadyHook publish/park protocol on
  # virtual threads (src/mc) — clean protocol proved, mutated variants
  # (dropped fence / skipped re-step / lost notify) caught as deadlocks.
  # Self-skips under sanitizers (fiber stacks are invisible to their
  # shadow state); the whole label stays under a 60 s budget.
  ctest --test-dir "$BUILD_DIR" -L mc --output-on-failure
fi

if [ -n "$CHAOS" ]; then
  echo "== chaos (seeded fault-injection soak) =="
  ctest --test-dir "$BUILD_DIR" -L chaos --output-on-failure
  echo "== chaos (partitioned link soak: MaxRing faults + failover) =="
  ctest --test-dir "$BUILD_DIR" -L linkchaos --output-on-failure
fi

if [ -n "$PERF" ]; then
  echo "== perf (executor ablation vs recorded baseline) =="
  # Absolute images/s only compare against a baseline recorded on the same
  # host (cores, SIMD level, build type — the "host" fingerprint of both
  # files); on another host the comparison is skipped with a notice.
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_micro_kernels" --benchmark_filter=__none__
  python3 - "$BUILD_DIR/BENCH_executor.json" BENCH_executor.json <<'EOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
if fresh["host"] != base["host"]:
    print(f"perf gate: host {fresh['host']} differs from the baseline's "
          f"{base['host']}; re-record BENCH_executor.json here to compare")
    raise SystemExit(0)
for chain in ("shallow", "deep"):
    key = f"{chain}_ready_ips"
    floor = 0.9 * base[key]
    print(f"ready-queue {chain}: fresh {fresh[key]:.0f} images/s, "
          f"baseline {base[key]:.0f}, floor {floor:.0f} (90%)")
    if fresh[key] < floor:
        raise SystemExit(f"perf gate: ready-queue {chain}-chain throughput "
                         "regressed >10% vs BENCH_executor.json")
print("perf gate: within 10% of recorded baseline")
EOF

  echo "== perf (conv datapath ablation vs recorded baseline) =="
  # Exit code enforces the live bar (packed + SIMD conv >= 2x the packed
  # scalar word loop on hosts with AVX2 or wider; no bar without AVX2).
  # The python step holds the COMMITTED BENCH_kernels.json to its own
  # recorded bar and, on the same host, pins the fresh geomean and each
  # cell's absolute packed+SIMD rate to >= 0.8x the committed ones, so a
  # regression that still clears the bar (or slows both arms) is caught.
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_micro_kernels" --conv-datapath-only
  python3 - "$BUILD_DIR/BENCH_kernels.json" BENCH_kernels.json <<'EOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
if not base["pass"]:
    raise SystemExit("perf gate: committed BENCH_kernels.json does not "
                     "meet its recorded bar (pass != true) — re-record it")
if fresh["host"] != base["host"]:
    print(f"perf gate: host {fresh['host']} differs from the baseline's "
          f"{base['host']}; live bar only")
    raise SystemExit(0)
floor = 0.8 * base["geomean_simd_vs_packed"]
print(f"conv datapath geomean SIMD speedup: fresh "
      f"{fresh['geomean_simd_vs_packed']:.2f}x, baseline "
      f"{base['geomean_simd_vs_packed']:.2f}x, floor {floor:.2f}x")
if fresh["geomean_simd_vs_packed"] < floor:
    raise SystemExit("perf gate: packed+SIMD conv speedup collapsed vs "
                     "BENCH_kernels.json")
# The ratio alone misses a change that slows both arms equally: hold each
# cell's absolute packed+SIMD rate too.
committed = {c["cell"]: c for c in base["cells"]}
for cell in fresh["cells"]:
    ref = committed.get(cell["cell"])
    if ref is None:
        raise SystemExit(f"perf gate: cell {cell['cell']} missing from "
                         "BENCH_kernels.json — re-record it")
    cell_floor = 0.8 * ref["packed_simd_ips"]
    print(f"  {cell['cell']}: packed+SIMD {cell['packed_simd_ips']:.0f} "
          f"images/s, baseline {ref['packed_simd_ips']:.0f}, "
          f"floor {cell_floor:.0f}")
    if cell["packed_simd_ips"] < cell_floor:
        raise SystemExit(f"perf gate: packed+SIMD conv rate of cell "
                         f"{cell['cell']} regressed >20% vs "
                         "BENCH_kernels.json")
print("perf gate: packed conv datapath holds its recorded margin and rates")
EOF

  echo "== perf (autotuned-plan ablation vs recorded baseline) =="
  # The ablation's exit code enforces the noise-robust bar (the tuned plan
  # loses on NO throughput metric: raw >= 0.90x, capacity >= 0.90x — both
  # arms are compiled live and every repeat interleaves them, so the
  # ratios are immune to machine mood). The python step then checks the
  # COMMITTED artifact carries the headline win (>= 1.15x throughput or
  # <= 0.87x p99) and that the fresh capacity ratio has not collapsed
  # against it.
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_serving" --autotune-only
  python3 - "$BUILD_DIR/BENCH_autotune.json" BENCH_autotune.json <<'EOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
if not base["pass"]:
    raise SystemExit("perf gate: committed BENCH_autotune.json does not "
                     "meet the recorded bar (pass != true) — re-record it")
floor = 0.85 * min(base["throughput_ratio"], 1.0)
print(f"autotune capacity ratio: fresh {fresh['throughput_ratio']:.3f}, "
      f"baseline {base['throughput_ratio']:.3f}, floor {floor:.3f}")
if fresh["throughput_ratio"] < floor:
    raise SystemExit("perf gate: tuned-vs-default serving capacity "
                     "collapsed vs BENCH_autotune.json")
print("perf gate: autotuned plan holds its recorded margin")
EOF

  echo "== perf (link-fault serving ablation vs recorded baseline) =="
  # The ablation's exit code enforces the robustness bar live (a farm with
  # a dead MaxRing link serves >= 0.70x the healthy farm's throughput,
  # zero lost requests, failover observed; the healthy linked farm serves
  # >= 0.80x one unsplit engine replica — all farms run interleaved
  # windows, so the ratios are immune to machine mood). The python step
  # holds the COMMITTED artifact to the same structural bars, so a
  # re-recording can never quietly lower them.
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_serving" --link-fault-only
  python3 - "$BUILD_DIR/BENCH_linkfault.json" BENCH_linkfault.json <<'EOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
for name, doc in (("fresh", fresh), ("committed", base)):
    if not doc["zero_lost"]:
        raise SystemExit(f"perf gate: {name} BENCH_linkfault.json lost "
                         "requests through the link death")
    if not doc["failover_observed"]:
        raise SystemExit(f"perf gate: {name} BENCH_linkfault.json never "
                         "observed the degraded-plan failover")
    if doc["degraded_over_healthy"] < 0.70:
        raise SystemExit(f"perf gate: {name} degraded/healthy throughput "
                         f"{doc['degraded_over_healthy']:.2f} below the "
                         "0.70 bar")
    # Same-run ratio of the healthy linked farm to one unsplit engine
    # replica under the same load: splitting must stay nearly free on any
    # host (the ROADMAP target).
    if doc["healthy_over_single"] < 0.80:
        raise SystemExit(f"perf gate: {name} healthy linked/single "
                         f"unsplit throughput "
                         f"{doc['healthy_over_single']:.2f} below the "
                         "0.80 bar")
print(f"link-fault ratio: fresh {fresh['degraded_over_healthy']:.2f}, "
      f"committed {base['degraded_over_healthy']:.2f} (bar: >= 0.70, "
      "zero lost, failover observed)")
print(f"split ratio: fresh {fresh['healthy_over_single']:.2f}, "
      f"committed {base['healthy_over_single']:.2f} (bar: >= 0.80)")
print("perf gate: serving degrades through link death, never collapses, "
      "and splitting stays nearly free")
EOF
fi

if [ -n "$TUNE" ]; then
  echo "== tune (bounded autotune run; tuned must not lose) =="
  # --check exits 1 if the tuned plan lost to the default on the deciding
  # metric. Structurally impossible (the default is candidate 0 and only a
  # strict improvement replaces it), so this is a tripwire for the
  # autotuner's core invariant. The budget keeps the whole pass < 60 s.
  "$BUILD_DIR/examples/qnn_tune" --budget 45 --check
fi

echo "== lint =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build "$BUILD_DIR" --target lint
else
  echo "lint: clang-tidy not found on PATH; skipped (policy in .clang-tidy)"
fi

echo "== check.sh: all gates passed =="
