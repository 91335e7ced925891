#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs
# them. A clean pass is a release gate for the execution engine and the
# serving subsystem: the thread pool, the simulated cluster, the
# parallel-vs-sequential determinism contract, the fault-injection and
# recovery layer, the RCU-style model store with its concurrent query
# engine, the observability layer (lock-free metric registry and the
# span tracer's multi-thread wall lanes), the ingest pipeline
# (bounded MPSC queue plus the multi-producer ordered replay under both
# the micro-batch and the continuous-window policy, the latter running
# the execution engine inside periodic stitches), the compute-kernel
# dispatch (an atomic table pointer that every worker thread reads without
# a lock, stored under a mutex by the first dispatch, --kernel and
# ResetDispatch), the ANN serving layer (the LSH index riding inside
# RCU-published models while queries shortlist against it, plus the
# lock-per-slot result cache), and the elastic cluster (live
# repartitioning and state migration while a query thread reads the
# published model), and the health layer (the seqlock-stamped alert and
# flight-recorder rings plus HealthMonitor::PublishTo racing a registry
# scrape) must all be race-free.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDISMASTD_SANITIZE=thread \
  -DDISMASTD_BUILD_BENCHMARKS=OFF \
  -DDISMASTD_BUILD_EXAMPLES=OFF

suites=(
  thread_pool_test cluster_test determinism_test
  fault_test fault_recovery_test elastic_test kernels_test
  model_store_test query_engine_test serve_metrics_test
  ann_index_test result_cache_test
  histogram_test metric_registry_test trace_test health_test
  event_log_test event_queue_test delta_builder_test ingest_session_test
  cwin_test
)

cmake --build "${build_dir}" -j --target "${suites[@]}"

regex="$(IFS='|'; echo "${suites[*]}")"
ctest --test-dir "${build_dir}" --output-on-failure -R "^(${regex})\$"

echo "TSan: all clean"
