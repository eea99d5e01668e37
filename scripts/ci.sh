#!/usr/bin/env bash
# Repository CI gate. Run from anywhere; operates on the workspace root.
#
#   scripts/ci.sh          # fmt + clippy + tier-1 (build + tests)
#   scripts/ci.sh --quick  # skip the release build, debug tests only
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is its own cargo workspace, so the two steps above skip it.
echo "==> perfbench: cargo fmt --check"
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "==> perfbench: cargo clippy -- -D warnings"
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

if [[ $quick -eq 0 ]]; then
  echo "==> tier-1: cargo build --release"
  cargo build --release
fi

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> release tests: the rayon shim's pool, the vgpu executor, gc-shard and gc-net"
# The pool hands borrowed closures to persistent threads through
# atomics; those must hold under release optimizations too, and tier-1
# runs the dev profile only. gc-shard's device threads call the pool
# concurrently, and its cut-table tests check the optimized build too.
# gc-net's codec tests check the color narrowing and widening loops as
# the optimizer vectorizes them.
cargo test --release -q -p rayon -p gc-vgpu -p gc-shard -p gc-net

echo "==> observability smoke: repro trace on a small graph"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release -q -p gc-bench --bin repro -- \
  trace "Gunrock/Color_IS" ecology2 --scale 0.002 \
  --trace "$trace_dir/trace.json" \
  --jsonl "$trace_dir/trace.jsonl" \
  --metrics "$trace_dir/metrics.prom"
python3 - "$trace_dir" <<'PY'
import json, sys
d = sys.argv[1]
events = json.load(open(f"{d}/trace.json"))["traceEvents"]
names = {e["name"] for e in events}
for expected in ("color", "iteration"):
    assert expected in names, f"trace.json missing {expected!r} spans"
assert any(n.startswith("is::") for n in names), "trace.json missing kernel events"
assert "replay" in names, "trace.json missing launch-graph replay spans"
lines = open(f"{d}/trace.jsonl").read().splitlines()
assert lines, "trace.jsonl is empty"
for line in lines:
    json.loads(line)
prom = open(f"{d}/metrics.prom").read()
assert "gc_trace_runs_total 1" in prom, "metrics.prom missing run counter"
assert "gc_color_model_ms_quantile" in prom, "metrics.prom missing quantiles"
print(f"trace artifacts OK: {len(events)} events, {len(lines)} spans")
PY

echo "==> bench smoke: repro bench at smoke scale (2 and 8 devices) + bench-check validation"
cargo run --release -q -p gc-bench --bin repro -- \
  bench --scale 0.002 --devices 2 --out "$trace_dir/bench.json"
cargo run --release -q -p gc-bench --bin repro -- \
  bench-check "$trace_dir/bench.json"
# 8-way exercises the overlapped halo exchange with a wide peer fan-out:
# every sharded row must still verify and move less halo traffic than
# full replication (the efficiency budget itself only binds at the
# committed 0.2-scale matrix — smoke graphs are below the gate floor).
cargo run --release -q -p gc-bench --bin repro -- \
  bench --scale 0.002 --devices 8 --out "$trace_dir/bench8.json"
cargo run --release -q -p gc-bench --bin repro -- \
  bench-check "$trace_dir/bench8.json"

echo "==> bench reproduction: repro bench --devices 4,8 --quality matches BENCH_coloring.json"
# The committed artifact must reproduce from the source: a change that
# moves a model number without regenerating the file fails here. Only
# host wall time may differ. --quality also exercises the pareto sweep
# (short-cutting IS, the Naumov/Color_CC+reduce post-pass arm), whose
# gates bench-check enforces on the committed file below.
cargo run --release -q -p gc-bench --bin repro -- \
  bench --devices 4,8 --quality --out "$trace_dir/bench_full.json"
strip_wall() { sed -E 's/"wall_ms": [0-9.]+/"wall_ms": _/g' "$1"; }
diff <(strip_wall BENCH_coloring.json) <(strip_wall "$trace_dir/bench_full.json")

echo "==> exhibit reproduction: repro all --scale 0.02 matches repro_output.txt and results/"
# EXPERIMENTS.md quotes these files; they must be what the code prints.
cargo run --release -q -p gc-bench --bin repro -- \
  all --scale 0.02 --csv "$trace_dir/results" > "$trace_dir/repro_output.txt"
diff <(grep -v '^CSV written to' repro_output.txt) \
  <(grep -v '^CSV written to' "$trace_dir/repro_output.txt")
cmp results/fig1.csv "$trace_dir/results/fig1.csv"
cmp results/fig3.csv "$trace_dir/results/fig3.csv"

echo "==> scale-sweep smoke: one sweep step + bench-check + diff against the committed rows"
# Scale 15 only for CI speed; the committed artifact is the 15..24 run.
cargo run --release -q -p gc-bench --bin repro -- \
  scale-sweep --rgg 15:15 --out "$trace_dir/bench_scale.json"
cargo run --release -q -p gc-bench --bin repro -- \
  bench-check "$trace_dir/bench_scale.json"
# The regenerated rows must equal the committed scale-15 rows; only host
# wall time and the row's trailing comma may differ.
scale15_rows() {
  grep '"scale": 15,' "$1" | sed -E 's/"wall_ms": [0-9.]+/"wall_ms": _/; s/,$//'
}
diff <(scale15_rows BENCH_scale.json) <(scale15_rows "$trace_dir/bench_scale.json")

echo "==> bench-check every committed BENCH_*.json"
# bench-check dispatches on each document's schema, so an artifact that
# no validator accepts fails here instead of going stale.
for doc in BENCH_*.json; do
  cargo run --release -q -p gc-bench --bin repro -- bench-check "$doc"
done

echo "==> net smoke: loopback submit/color/mutate/verify/shutdown round-trip"
cargo run --release -q -p gc-bench --bin repro -- net-smoke

echo "==> examples: run each example binary once"
# clippy only compiles them; this runs them, so an example that panics
# fails here. mtx_coloring's self-demo writes its .mtx under TMPDIR.
example() { cargo run --release -q -p gc-examples --bin "$@" > /dev/null; }
mkdir -p "$trace_dir/examples"
example quickstart G3_circuit 0.02
example service_demo 0.01 2
example trace_demo 0.01 "$trace_dir/examples"
for ex in chromatic_scheduling ilu_level_scheduling jacobian_compression \
  mtx_coloring register_allocation; do
  TMPDIR="$trace_dir/examples" example "$ex"
done
grep -q '^gc_service_requests_served_total ' "$trace_dir/examples/metrics.prom"
grep -q '^gc_service_request_model_ms_count{colorer=' "$trace_dir/examples/metrics.prom"

echo "==> perfbench: unit tests + smoke run of every workload"
# perfbench is its own cargo workspace built against the crates by path:
# API drift in the crates it drives (apply_edge_delta, Coloring, the
# service and net types) breaks this step rather than the benchmark.
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke

echo "CI gate passed."
