#!/usr/bin/env bash
# End-to-end smoke checks over an already-built Release tree: the kernel
# sweep and linkage, health, elastic, recall, ingest and trace gates. Each section runs
# the tree's binaries in its own temporary directory, so no two sections
# share a tensor, trace or metrics file; the first failing command or check
# fails the script.
#
#   bash tools/smoke.sh build
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cli="${build}/tools/dismastd_cli"
validate_trace="${repo_root}/tools/validate_trace.py"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
trap 'echo "smoke: failed: ${BASH_COMMAND}" >&2' ERR

# Starts a section in a fresh directory.
section() {
  echo "== $1"
  mkdir "${work}/$1"
  cd "${work}/$1"
}

# Kernel sweep: the micro_kernels backend x precision sweep must hold the
# vectorized MTTKRP, row-update (solve, Gram), quantized top-K and ANN
# shortlist (hamming) rows — else the AVX2 backend silently stopped being
# compiled in or dispatched (GitHub runners guarantee AVX2; AVX-512 rows
# appear when the runner has it but are not required).
section kernel-sweep
"${build}/bench/micro_kernels" --kernel-sweep=sweep.csv --sweep-only
grep -q '^mttkrp,avx2,f64,' sweep.csv
grep -q '^solve,avx2,f64,' sweep.csv
grep -q '^gram,avx2,f64,' sweep.csv
grep -q '^topk,avx2,bf16,' sweep.csv
grep -q '^topk,avx2,i8,' sweep.csv
grep -q '^hamming,avx2,' sweep.csv

# Kernel linkage: the helpers the backends share (kernels_detail.h) have
# internal linkage, so each backend calls the copy compiled for its own
# instruction set. A weak kernels::detail symbol means an inline helper
# lost it, and the link keeps one arbitrary copy for every backend.
section kernel-linkage
kernels_lib="${build}/src/libdismastd_kernels.a"
test -f "${kernels_lib}"
if nm -C "${kernels_lib}" | grep -E ' [WV] dismastd::kernels::detail::'; then
  echo "weak kernels::detail symbols in libdismastd_kernels.a" >&2
  exit 1
fi

# Health: a streaming run with an injected worker crash + message drops,
# SLO rules armed and the flight recorder on. The run survives, the flight
# dump is valid schema-tagged JSON whose frames carry the crash step and
# live alert counts, and the alert instants in the trace land inside their
# step spans (validate_trace.py checks).
section health
"${cli}" generate --output smoke.tns \
  --dims 60x40x20 --nnz 6000 --rank 3 --seed 11
"${cli}" stream --input smoke.tns \
  --workers 4 --rank 3 --iterations 4 --steps 6 \
  --fault-plan "drop=0.05,crash=1@2,superstep=10,seed=17" \
  --recovery degraded \
  --slo "step_sim_seconds<0,retransmitted_bytes<1" \
  --trace-out trace.json --flight-out flight.json
python3 - <<'EOF'
import json
dump = json.load(open("flight.json"))
assert dump["schema"] == "dismastd-flight-v1", dump["schema"]
assert dump["reason"] == "exit", dump["reason"]
frames = dump["frames"]
assert len(frames) == 6, f"{len(frames)} frames, want 6"
crash = [f for f in frames if f["crashes"] > 0]
assert [f["step"] for f in crash] == [2], crash
notes = {n["what"]: n for n in dump["notes"]}
assert notes["crash_recovery"]["step"] == 2, notes
assert frames[-1]["alerts_total"] > 0, frames[-1]
assert frames[-1]["last_alert"], frames[-1]
print(f"flight dump OK: {len(frames)} frames, crash at step 2, "
      f"{frames[-1]['alerts_total']} alerts live at exit")
EOF
python3 "${validate_trace}" trace.json

# Elastic: a scaled-down bench/skew_drift run. The bench's own assertions
# are the gate: the static partition must degrade past 2x max/avg busy
# imbalance under drifting hot slices while the elastic cluster holds its
# median at <= 1.2x, repartitions actually migrate state, the scale plan
# executes, and migration under injected faults stays bit-exact. The CSV
# checks keep the migration-cost accounting wired into the output schema.
section elastic
DISMASTD_BENCH_SCALE=0.15 "${build}/bench/skew_drift"
head -1 skew_drift.csv | grep -q 'migration_bytes'
head -1 skew_drift.csv | grep -q 'repartition_sim_s'
awk -F, '$2 == "elastic" && $8 > 0 { found = 1 } END { exit !found }' \
  skew_drift.csv

# Recall: a scaled-down serve_throughput phase-3 sweep (the
# millions-of-users Zipf workload shrunk by DISMASTD_BENCH_SCALE). The ANN
# shortlist must keep recall@10 >= 0.95 while scanning fewer candidate
# rows than the exact scan, and the cache must hit at the Zipf head.
section recall
DISMASTD_BENCH_SCALE=0.02 "${build}/bench/serve_throughput" \
  --users=1000000 --zipf-s=1.0 --query-seed=7
python3 - <<'EOF'
import csv
rows = {r["search_mode"]: r
        for r in csv.DictReader(open("serve_ann_sweep.csv"))}
exact_rows = float(rows["exact"]["rows_per_query"])
for mode in ("ann", "ann_cached"):
    recall = float(rows[mode]["recall_at_10"])
    scanned = float(rows[mode]["rows_per_query"])
    print(f"{mode}: recall@10={recall:.3f} "
          f"rows/query={scanned:.0f} (exact={exact_rows:.0f})")
    assert recall >= 0.95, f"{mode} recall {recall} < 0.95"
    assert scanned * 5 <= exact_rows, \
        f"{mode} scanned {scanned}, not >=5x fewer than exact"
assert float(rows["ann_cached"]["cache_hit_rate"]) > 0.1
EOF

# Ingest: export a tensor as a TEVT event log and replay it with two
# producers under both ingest policies. Each replay's trace must validate
# (for the continuous one, cwin_update / cwin_stitch spans tile the publish
# steps) and its metric families must reach the Prometheus dump.
section ingest
"${cli}" generate --output smoke.tns \
  --dims 60x40x20 --nnz 6000 --rank 3 --seed 11
"${cli}" export-events --input smoke.tns \
  --output smoke.tevt --steps 4 --start 0.7 --step 0.1
"${cli}" info --input smoke.tevt
"${cli}" stream --ingest smoke.tevt \
  --workers 4 --rank 3 --iterations 3 --producers 2 \
  --trace-out trace.json --metrics-out metrics.prom
python3 "${validate_trace}" trace.json
grep -q '^dismastd_ingest_' metrics.prom
"${cli}" stream --ingest smoke.tevt \
  --ingest-mode continuous --rank 3 --producers 2 \
  --fuse-events 4 --publish-interval 128 --stitch-interval 1000 \
  --trace-out cwin-trace.json --metrics-out cwin-metrics.prom
python3 "${validate_trace}" cwin-trace.json
grep -q '^dismastd_ingest_late_events_total' cwin-metrics.prom
grep -q '^dismastd_ingest_duplicate_events_total' cwin-metrics.prom
grep -q '^dismastd_cwin_updates_total' cwin-metrics.prom
grep -q '^dismastd_cwin_stitches_total' cwin-metrics.prom

# Trace: the streaming benchmark with tracing and metrics on; the Chrome
# trace must validate structurally (B/E pairing per lane, monotone
# timestamps, lane metadata, phase spans tiling the timeline) and the
# metrics dump must be non-empty.
section trace
DISMASTD_BENCH_SCALE=0.02 "${build}/bench/fig5_streaming" \
  --trace-out=trace.json --trace-detail=workers --metrics-out=metrics.prom
python3 "${validate_trace}" trace.json --require-phases
grep -q '^dismastd_' metrics.prom

echo "smoke: all sections passed"
