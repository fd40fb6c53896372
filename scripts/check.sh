#!/usr/bin/env bash
# Full pre-merge check: build + test the release config, then the
# ASan+UBSan config, then the TSan config (tests only; benchmarks are
# skipped under sanitizers). The TSan stage runs the concurrency-sensitive
# tests: buffer-pool striping, the worker pool, the pairing heap's per-shard
# arena build, the parallel-join determinism suite, and the golden streams,
# whose 4-thread fixtures run the join's Classify on pool threads.
#
#   scripts/check.sh            # all three configs
#   scripts/check.sh release    # release only
#   scripts/check.sh asan       # ASan+UBSan only
#   scripts/check.sh tsan       # TSan only
set -euo pipefail
cd "$(dirname "$0")/.."

run_release() {
  echo "=== release: configure + build + ctest ==="
  cmake --preset release
  cmake --build --preset release
  ctest --preset release
  echo "=== release: ctest again with SDJ_KERNEL=scalar ==="
  # Same binaries, forced onto the scalar kernel path (DESIGN.md §15): the
  # per-ISA lockstep tests iterate every supported tier regardless, but this
  # pass proves the whole suite — engines, golden streams, cursors — is
  # bit-identical when runtime dispatch is disabled, so a wide-vector bug
  # can never hide behind "the tests only ran the fast path".
  SDJ_KERNEL=scalar ctest --preset release
  echo "=== release: ctest again with SDJ_SCREEN=off ==="
  # Integer code screening disabled (DESIGN.md §17): screening defaults on
  # for quantized trees, so the normal pass exercises the screened paths and
  # this pass proves every engine, golden stream, and cursor is byte-identical
  # with the screen bypassed — the decode-everything path must never rot into
  # "only correct because the screen hid it" (or vice versa).
  SDJ_SCREEN=off ctest --preset release
  echo "=== release: ctest again with SDJ_SHARDS=4 ==="
  # Sharded execution defaulted on (DESIGN.md §18): every surface that
  # leaves its shards option at 0 — the whole cli_test durable-cursor
  # matrix and the Sharded* wrappers — now runs four independent shard
  # engines behind the k-way frontier merge. The suite must pass unchanged,
  # proving the sharded stack is a drop-in for the serial pop loop.
  SDJ_SHARDS=4 ctest --preset release
  echo "=== release: full crash-point sweep (SDJ_CRASH_SPILL_STRIDE=1) ==="
  # Deterministic power-loss enumeration (DESIGN.md §16). The snapshot and
  # session-table sweeps already enumerate every write/sync op in the normal
  # ctest pass; the hybrid-queue spill sweep samples its (much longer) op
  # sequence by default. This stage re-runs the crash tests with sampling off
  # so the release gate covers 100% of spill crash points; the sanitizer
  # stages keep the sampled stride (full enumeration under ASan is slow and
  # adds no coverage the release sweep lacks).
  SDJ_CRASH_SPILL_STRIDE=1 ctest --preset release -R 'CrashPoint'
  echo "=== release: bench smoke (SDJ_BENCH_SCALE=0.05) ==="
  # Quick-scale sanity run of the main table benchmark and the durable-cursor
  # sweep: catches bench-only build or runtime breakage without the ~5 min
  # full-scale cost. Results at 5% scale are not meaningful numbers.
  (cd build && SDJ_BENCH_SCALE=0.05 bench/bench_table1 >/dev/null)
  (cd build && SDJ_BENCH_SCALE=0.05 bench/bench_checkpoint >/dev/null)
  # Kernel microbench (DESIGN.md §15): one row per distance kernel per
  # supported SIMD tier, gated below so a dispatch or codegen regression in
  # rect_batch.h shows up as a pairs/sec drop.
  (cd build && SDJ_BENCH_SCALE=0.05 bench/bench_kernels >/dev/null)
  # Serving smoke (DESIGN.md §14): four concurrent sessions under memory
  # pressure and snapshot-store fault injection — evict/rehydrate churn and
  # bounded commit retries must hold up outside the unit tests too.
  (cd build && SDJ_BENCH_SCALE=0.05 bench/bench_serving >/dev/null)
  echo "=== release: bench compare vs bench/baselines ==="
  # Gate the smoke run against the committed baseline (DESIGN.md §12) and
  # print the per-phase latency breakdown. node_io is deterministic at a
  # fixed scale, so its tolerance is tight; wall clock at 5% scale is noisy,
  # so the pairs/sec tolerance is loose by default. Override via env, e.g.
  # SDJ_BENCH_TIME_TOLERANCE=0.10 for a quiet benchmarking machine. After an
  # intentional perf change, refresh the baseline:
  #   (cd build && SDJ_BENCH_SCALE=0.05 bench/bench_table1 >/dev/null &&
  #    cp BENCH_table1.json ../bench/baselines/)
  python3 scripts/compare_bench.py \
    bench/baselines/BENCH_table1.json build/BENCH_table1.json \
    --time-tolerance="${SDJ_BENCH_TIME_TOLERANCE:-0.60}" \
    --io-tolerance="${SDJ_BENCH_IO_TOLERANCE:-0.10}" \
    --show-phases
  # Checkpoint-cost gate (DESIGN.md §11): the durable-cursor sweep at the
  # Table 1 tolerances. Every row but NoCheckpoint is dominated by snapshot
  # encode, checksum, page writes and syncs, so a slower durable path shows
  # up as a pairs/sec drop; --show-phases prints the split.
  python3 scripts/compare_bench.py \
    bench/baselines/BENCH_checkpoint.json build/BENCH_checkpoint.json \
    --time-tolerance="${SDJ_BENCH_TIME_TOLERANCE:-0.60}" \
    --io-tolerance="${SDJ_BENCH_IO_TOLERANCE:-0.10}" \
    --show-phases
  # Kernel-throughput gate. Pure CPU work, so node_io is always 0 and only
  # pairs/sec gates; the tolerance stays loose because microbench wall clock
  # shares the machine with the build. compare_bench.py refuses the
  # comparison outright (exit 2) if this host's kAuto dispatch differs from
  # the baseline's kernel_isa stamp — regenerate the baseline on such hosts.
  python3 scripts/compare_bench.py \
    bench/baselines/BENCH_kernels.json build/BENCH_kernels.json \
    --time-tolerance="${SDJ_BENCH_TIME_TOLERANCE:-0.60}"
  # Serving tail-latency gate: request p99 (serve_slice) may drift one
  # log-bucket (2x) but not more. node_io is looser than the join benches'
  # gate because the Sliced scenario's rotation points — and therefore the
  # shared buffer pool's eviction pattern — depend on wall-clock timing.
  python3 scripts/compare_bench.py \
    bench/baselines/BENCH_serving.json build/BENCH_serving.json \
    --time-tolerance="${SDJ_BENCH_TIME_TOLERANCE:-0.60}" \
    --io-tolerance="${SDJ_BENCH_SERVE_IO_TOLERANCE:-1.00}" \
    --p99-op=serve_slice \
    --p99-tolerance="${SDJ_BENCH_P99_TOLERANCE:-1.00}"
}

run_asan() {
  echo "=== asan-ubsan: configure + build + ctest ==="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan
  ctest --preset asan-ubsan
}

run_tsan() {
  echo "=== tsan: configure + build + concurrency tests ==="
  cmake --preset tsan
  cmake --build --preset tsan
  ctest --preset tsan -R 'BufferPoolConcurrency|ThreadPool|PairingHeap|ParallelJoin|GoldenStream'
}

case "${1:-all}" in
  release) run_release ;;
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)
    run_release
    run_asan
    run_tsan
    ;;
  *)
    echo "usage: scripts/check.sh [release|asan|tsan|all]" >&2
    exit 2
    ;;
esac
echo "all checks passed"
