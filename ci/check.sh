#!/usr/bin/env bash
# Hermetic CI gate: formatting, lints, tests. Runs fully offline — the
# workspace has no registry dependencies (proptest is vendored under
# vendor/proptest).
#
# Usage: ci/check.sh [--no-lint]   (skip clippy, e.g. when it is not installed)
set -euo pipefail
cd "$(dirname "$0")/.."

run_clippy=1
if [ "${1:-}" = "--no-lint" ]; then
    run_clippy=0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

if [ "$run_clippy" = 1 ]; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo build --workspace"
cargo build --workspace

echo "==> cargo check perfbench (its own workspace; compiles against the library surface)"
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> fetchmech-lint (full suite)"
cargo run -q -p fetchmech-repro --bin fetchmech-lint -- --deny-warnings

echo "==> fetchmech-lint sanitize (cycle-level invariants, short traces)"
cargo run -q -p fetchmech-repro --bin fetchmech-lint -- sanitize --short

echo "==> fetchmech-lint analyze (dataflow + static fetch geometry, full suite)"
cargo run -q -p fetchmech-repro --bin fetchmech-lint -- analyze --insts 4000 --json >/dev/null
# The reordered, padded code image end to end: layout and trace come from the
# same Lab derivation the paper drivers use, measured EIR checked per scheme.
cargo run -q -p fetchmech-repro --bin fetchmech-lint -- analyze --layout pad-trace --measured \
    --insts 4000 --json >/dev/null

echo "==> fetchmech-lint opt (pass pipeline + translation validation, full suite)"
cargo run -q -p fetchmech-repro --bin fetchmech-lint -- opt --verify --insts 4000 --json >/dev/null
# The validator must also still CATCH a broken pass: the self-test corrupts
# a pipeline result in-process and is required to exit nonzero.
if cargo run -q -p fetchmech-repro --bin fetchmech-lint -- opt --self-test >/dev/null 2>&1; then
    echo "opt --self-test failed to flag the corrupted pipeline" >&2
    exit 1
fi

echo "==> fetchmech-lint frontend (parse -> lower -> lint -> opt --verify -> simulate, all examples)"
cargo run -q -p fetchmech-repro --bin fetchmech-lint -- frontend --verify --insts 4000 \
    examples/programs/*
# The frontend must also still REJECT a bad program with exit 1.
bad_prog="$(mktemp -d)/bad.bril.json"
printf '{"functions": []}' >"$bad_prog"
if cargo run -q -p fetchmech-repro --bin fetchmech-lint -- frontend "$bad_prog" >/dev/null 2>&1; then
    echo "frontend failed to flag an invalid program" >&2
    exit 1
fi
rm -f "$bad_prog"

echo "==> report (every paper table regenerates offline, pinned to ci/report-quick.txt)"
# Every number of every table and figure must come out byte-identical. Any
# diff is a behaviour change: regenerate ci/report-quick.txt only as part of a
# deliberate, reviewed change.
report_out="$(mktemp)"
cargo run --release --offline -q --bin report -- --quick >"$report_out"
if [ ! -s "$report_out" ]; then
    echo "report printed nothing" >&2
    exit 1
fi
diff -u ci/report-quick.txt "$report_out"
rm -f "$report_out"

echo "==> report, full length (the 300k-instruction run EXPERIMENTS.md reports, pinned to ci/report-full.txt)"
report_out="$(mktemp)"
cargo run --release --offline -q --bin report >"$report_out"
diff -u ci/report-full.txt "$report_out"
rm -f "$report_out"

echo "==> perfbench golden (driver output digests and exact Lab cache counters)"
# The benchmark's paper-grid workload checks each run against this file; the
# stage catches a drift here before the benchmark does.
golden_out="$(mktemp)"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml --bin perfbench -- golden \
    >"$golden_out"
diff -u perfbench/golden/paper-grid.txt "$golden_out"
rm -f "$golden_out"

echo "==> custom_assembly example (hand-written Bril -> frontend -> block stream -> simulate)"
cargo run --release --offline -q --example custom_assembly >/dev/null

echo "==> cargo doc --workspace --no-deps (warnings fatal)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> perf gate: block-stream path vs per-instruction path (writes BENCH_PR8.json)"
# Wall-clock floor with generous tolerance below the ~2.5x measured on the
# single-core reference box (see EXPERIMENTS.md for the measured numbers).
FETCHMECH_PERF_GATE=2.0 cargo run --release -q -p fetchmech-repro --example runner_bench
# Instruction-count-stable gate: the deterministic work counters in the
# report (simulated cycles, retired/delivered instructions, stream records,
# stream bytes) must match ci/expected_work.json exactly. Any drift means the
# simulation or the stream representation changed behavior (stream_bytes
# moves with the size of the per-instruction record) — update the expected
# file only as part of a deliberate, reviewed change.
for key in grid_jobs trace_len stream_insts stream_records stream_templates stream_bytes \
           total_cycles total_retired total_delivered total_eir_cycles; do
    want="$(sed -n "s/^ *\"$key\": \([0-9][0-9]*\).*/\1/p" ci/expected_work.json)"
    got="$(sed -n "s/^ *\"$key\": \([0-9][0-9]*\).*/\1/p" BENCH_PR8.json)"
    if [ -z "$want" ] || [ "$want" != "$got" ]; then
        echo "work counter $key drifted: expected ${want:-<missing>}, got ${got:-<missing>}" >&2
        echo "(update ci/expected_work.json only with a deliberate behavior change)" >&2
        exit 1
    fi
done
echo "work counters stable ($(sed -n 's/^ *"total_cycles": \([0-9]*\).*/\1/p' BENCH_PR8.json) simulated cycles)"

echo "==> service smoke: boot fetchmech-serve, drive it, drain it (writes BENCH_PR5.json)"
cargo build --release -q -p fetchmech-repro --bin fetchmech-serve --example serve_client
serve_log="$(mktemp)"
target/release/fetchmech-serve --addr 127.0.0.1:0 --quick >"$serve_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
# The server prints "fetchmech-serve listening on http://HOST:PORT" once up.
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's#^fetchmech-serve listening on http://##p' "$serve_log")"
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "fetchmech-serve did not come up; log:" >&2
    cat "$serve_log" >&2
    exit 1
fi
target/release/examples/serve_client "$serve_addr" examples/programs/loopmix.bril.json
kill -TERM "$serve_pid"
wait "$serve_pid"
trap - EXIT
grep -q "drained, bye" "$serve_log" || {
    echo "fetchmech-serve did not drain cleanly; log:" >&2
    cat "$serve_log" >&2
    exit 1
}
rm -f "$serve_log"

echo "==> chaos: seeded fault matrix + kill-and-recover (writes BENCH_PR7.json)"
# The store/fault tests run the full matrix in-process; store_crash spawns
# the real binary, SIGKILLs it mid-operation, and verifies recovery. The
# fixed seed makes every injected-fault schedule replayable.
FETCHMECH_FAULT_SEED=20260808 cargo test --release -q -p fetchmech-repro \
    --test store_faults --test store_crash --test runner_queue
if [ ! -s BENCH_PR7.json ]; then
    echo "chaos stage did not produce BENCH_PR7.json" >&2
    exit 1
fi
echo "chaos stats:"
cat BENCH_PR7.json

echo "==> differential oracle in release (optimized fast path vs per-instruction reference)"
# The debug test stage compares the two simulators too, but only the release
# build compiles the fast path the way users run it (inlined across crates).
cargo test --release -q -p fetchmech --test block_stream_oracle --test block_stream_props
# The shipped core against the reference core, cycle by cycle (the lockstep
# test), in the same optimized build.
cargo test --release -q -p fetchmech-pipeline --lib

echo "CI checks passed."
