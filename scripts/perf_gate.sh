#!/usr/bin/env bash
# Perf-regression gate: run the criterion benches with median capture and
# compare against the committed baseline (BENCH_pipeline.json).
#
#   scripts/perf_gate.sh [bench-name ...]   # default: pipeline recalibration
#                                           #          multi_pipeline kernel
#                                           #          serving
#
# Semantics live in crates/bench/src/bin/perf_gate.rs. The baseline holds
# one metrics map per machine fingerprint: on a machine with a recorded
# entry any >25% median slowdown — or >25% p99 latency slowdown, where
# both sides recorded a p99 — fails the gate; on a machine without one
# the measured run's outcome is predetermined (bootstrap-and-pass), so
# this script skips the expensive benches entirely unless
# PERF_GATE_BOOTSTRAP=1 forces a run to (re-)record this machine's entry —
# that is how you arm the gate on a new machine (your laptop, a
# GitHub-hosted runner class): run with the variable set there, then
# commit the rewritten BENCH_pipeline.json; entries for other machines
# are preserved.
set -euo pipefail
cd "$(dirname "$0")/.."

# Machine fingerprint: OS/arch, CPU model and core count — what absolute
# medians depend on. The kernel release is left out on purpose: a patch
# bump of a container host's kernel does not change the hardware, and
# keying on it would silently disarm the gate after every bump.
cpu="$(grep -m1 '^model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | xargs || true)"
if [ -z "$cpu" ] && command -v sysctl >/dev/null 2>&1; then
    cpu="$(sysctl -n machdep.cpu.brand_string 2>/dev/null || true)"
fi
cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo '?')"
fingerprint="$(uname -sm)${cpu:+ / $cpu} / ${cores} cpus"

if [ "${PERF_GATE_BOOTSTRAP:-0}" != "1" ]; then
    # Exit-code contract with perf_gate: 0 = armed (or bootstrap) — run the
    # benches; 2 = no entry for this machine — skip the predetermined run;
    # anything else (e.g. a corrupted committed baseline) must FAIL the
    # step, never silently disarm the gate.
    status=0
    cargo run -q --release -p prom-bench --bin perf_gate -- \
        check-machine BENCH_pipeline.json "$fingerprint" || status=$?
    if [ "$status" -eq 2 ]; then
        # A `::warning::` line is a GitHub Actions annotation: the skip
        # shows on the run summary instead of passing silently.
        echo "::warning title=perf gate not armed::no baseline for machine '$fingerprint' in BENCH_pipeline.json; skipping the measured run (set PERF_GATE_BOOTSTRAP=1 to record one here)"
        exit 0
    elif [ "$status" -ne 0 ]; then
        echo "perf gate: check-machine failed (exit $status)" >&2
        exit "$status"
    fi
fi

benches=("$@")
run_loadgen=0
if [ ${#benches[@]} -eq 0 ]; then
    benches=(pipeline recalibration multi_pipeline kernel serving)
    # The default set also replays the mixed-workload load harness, whose
    # headline scalars (mean ns/sample, merged p99) join the medians file
    # and are gated with the same tolerance. An explicit bench list skips
    # it — its ids would then show up as skipped in the gate's summary.
    run_loadgen=1
fi
bench_args=()
for b in "${benches[@]}"; do
    bench_args+=(--bench "$b")
done

medians="$PWD/target/criterion-medians.jsonl"
rm -f "$medians"

# Sample counts come from the group-level sample_size() calls in the bench
# sources (a CLI --sample-size would be overridden by them anyway).
CRITERION_MEDIAN_JSONL="$medians" cargo bench -p prom-bench "${bench_args[@]}"

if [ "$run_loadgen" -eq 1 ]; then
    CRITERION_MEDIAN_JSONL="$medians" cargo run -q --release -p prom-bench --bin loadgen -- \
        --samples 1000000
fi

gate_args=(BENCH_pipeline.json "$medians" "$fingerprint")
if [ "${PERF_GATE_BOOTSTRAP:-0}" = "1" ]; then
    # Force-record this machine's entry (even if one exists already).
    gate_args+=(--bootstrap)
fi
cargo run --release -q -p prom-bench --bin perf_gate -- "${gate_args[@]}"
