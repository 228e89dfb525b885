#!/usr/bin/env bash
# Full verification pass: release build, whole-workspace tests, clippy on
# every target with warnings denied, a formatting check, the benchmark
# harness's self-tests, the static pre-flight passes (lint must find no
# errors in the shipped sources; analyze must run clean and its hoisting
# report is kept as an artifact),
# a determinism run (every section of `repro all`, swept in parallel,
# must byte-match the committed golden output), the TCP loopback smoke
# (a multi-process run over framed sockets must byte-match the in-process
# run, with and without a worker killed mid-run), the federated-sharding
# smoke (router + 2 shard processes byte-match the single manager, with
# and without a shard killed -9 mid-run), and the benchmark trajectory
# table merged from every BENCH_*.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# the benchmark harness is its own workspace: run its self-tests here so
# a break in the API it drives shows up before the benchmark runs
cargo test --release --offline --manifest-path vine-e2e/Cargo.toml

# VM differential suite: the bytecode VM must stay bit-identical to the
# tree-walking reference (proptest + hazard corpus + golden disassembly)
cargo test -q --release -p vine-lang --test vm_differential --test disasm_golden
./target/release/repro perf --lang
echo "vine-lang VM differential + benchmark: OK (BENCH_lang.json written)"

./target/release/repro lint
./target/release/repro analyze --check | tee ANALYZE_report.txt
echo "repro lint + analyze: OK (report in ANALYZE_report.txt)"

# `cargo test` pins the sequential sweep (--jobs 1) to the golden file;
# this pins the parallel one
golden=crates/bench/tests/golden/repro_all_scale_0.02.txt
par_out="$(mktemp)"
trap 'rm -f "$par_out"' EXIT
./target/release/repro all --scale 0.02 --jobs 4 >"$par_out" 2>/dev/null
cmp "$par_out" "$golden" || {
    echo "repro all --scale 0.02 --jobs 4 differs from $golden" >&2
    exit 1
}
echo "repro --jobs determinism: OK (--jobs 4 byte-identical to the golden output)"

./scripts/tcp_smoke.sh ./target/release/repro

# reactor connection-scaling smoke: one manager thread must sustain a
# 256-connection loopback fleet (the full 1000-connection run is the
# local `repro perf --net`; CI keeps the bounded variant)
./target/release/repro perf --net --conns 256 --scale 0.1
echo "reactor connection-scaling smoke: OK (BENCH_net.json written)"

# federated sharding: the simulated 1→8 shard sweep (bounded; the
# committed BENCH_shard.json is the full-scale run), then the live
# 2-shard byte-identity + kill -9 smoke
./target/release/repro shard --scale 0.02
echo "federated sharding sweep: OK (BENCH_shard.json written)"
./scripts/shard_smoke.sh ./target/release/repro

# one-page performance picture across every benchmark artifact
./scripts/bench_summary.sh
