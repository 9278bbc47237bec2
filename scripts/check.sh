#!/usr/bin/env bash
# Tier-1+ verification entry point for the repository.
#
# Runs, in order:
#   1. the tier-1 gate: release build (including examples) + full test suite,
#   2. a short serving-layer smoke: geosocial-loadgen spawns an in-process
#      geosocial-serve (4 shards), replays a small generated scenario over
#      TCP, verifies the served compositions against the batch pipeline,
#      and shuts the server down cleanly,
#   3. an observability smoke: a standalone geosocial-serve is replayed
#      into, scraped live via the Metrics request (metrics_scrape example),
#      and the latency histograms / per-shard verdict counters are checked
#      for presence and sum-consistency with the loadgen report — plus an
#      event-store smoke: every replayed event must have been appended to
#      the shard stores (the store.appends counter in the same scrape),
#      plus a tracing smoke: default 1/64 head sampling must record client
#      root spans, and the server's Traces query (via geosocial-trace)
#      must return retained traces with the server-side span chain and
#      a non-empty Chrome trace-event export,
#   4. an overhead gate: the committed BENCH_obs.json (scripts/
#      bench_obs.sh) must show instrumentation overhead — metrics plus
#      tracing at 1/64 — of at most 5%,
#   5. a scenario registry gate: every family `repro list-scenarios`
#      prints must round-trip through `repro --scenario NAME` and appear
#      in the emitted scorecard, and the committed BENCH_scenario.json
#      (scripts/bench_scenario.sh) must cover the whole registry with
#      batch-verified replays,
#   6. a results gate: `repro --exp all` at paper scale, once at
#      --threads 1 and once at --threads 2, each diffed byte for byte
#      against the committed results/ (timings.csv is wall-clock and
#      excluded).
#
# Usage: scripts/check.sh
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier 1: cargo build --release"
cargo build --release
cargo build --release --examples
# The root manifest is a facade package, so the line above does not (re)build
# dependency binaries. Build the serve package explicitly with its default
# features — a stale obs-noop build of geosocial-serve/geosocial-loadgen
# (e.g. from scripts/bench_obs.sh) would leave every metric at zero and
# fail the observability smoke below.
cargo build --release -p geosocial-serve

echo "==> tier 1: cargo test -q"
cargo test -q

echo "==> serving smoke: loadgen vs in-process server (batch-verified)"
smoke_out="$(mktemp -t bench_smoke.XXXXXX.json)"
serve_log="$(mktemp -t serve_log.XXXXXX.log)"
obs_out="$(mktemp -t bench_obs_smoke.XXXXXX.json)"
serve_pid=""
cleanup() {
    status=$?
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    # In CI the temp files vanish with the runner, so surface the server's
    # log on any failure — it is usually the only diagnostic there is.
    if [ "$status" -ne 0 ] && [ -s "$serve_log" ]; then
        echo "---- geosocial-serve log ----" >&2
        cat "$serve_log" >&2
        echo "---- end serve log ----" >&2
    fi
    rm -f "$smoke_out" "$serve_log" "$obs_out"
    exit "$status"
}
trap cleanup EXIT
./target/release/geosocial-loadgen \
    --spawn --shards 4 \
    --users 24 --days 4 --seed 1 \
    --connections 4 --window 256 \
    --verify --out "$smoke_out"

echo "==> serving smoke: same replay on the binary wire with batched runs"
./target/release/geosocial-loadgen \
    --spawn --shards 4 \
    --users 24 --days 4 --seed 1 \
    --connections 4 --window 256 \
    --wire binary --run-len 64 \
    --verify --out "$smoke_out"

echo "==> observability smoke: live Metrics scrape against a replaying server"
./target/release/geosocial-serve --addr 127.0.0.1:0 --shards 4 2>"$serve_log" &
serve_pid=$!
# The structured "listening" log line carries the bound address as addr=...
# Bounded wait (~5s) with a liveness check: a server that exited during
# startup fails the run immediately instead of timing out.
addr=""
for _ in $(seq 1 50); do
    addr="$(grep -ho 'addr=[0-9.:]*' "$serve_log" | head -n1 | cut -d= -f2 || true)"
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: geosocial-serve exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
[ -n "$addr" ] || { echo "error: server never logged its address (timeout)" >&2; exit 1; }
./target/release/geosocial-loadgen \
    --addr "$addr" \
    --users 24 --days 4 --seed 1 \
    --connections 2 --window 128 \
    --out "$obs_out"
expo="$(./target/release/examples/metrics_scrape --raw "$addr")"
echo "$expo" | awk '
    $1 == "histogram" && $2 ~ /^serve\.latency_us\./ {
        for (i = 3; i <= NF; i++) if ($i ~ /^count=/) { sub("count=", "", $i); total += $i }
    }
    END {
        if (total > 0) { print "   latency histograms: " total " samples" }
        else { print "error: latency histograms are empty" > "/dev/stderr"; exit 1 }
    }'
report_verdicts="$(grep -o '"verdicts": [0-9]*' "$obs_out" | head -n1 | grep -o '[0-9]*')"
echo "$expo" | awk -v want="$report_verdicts" '
    $1 == "counter" && $2 ~ /^serve\.shard\.[0-9]+\.verdicts$/ { sum += $3 }
    END {
        if (sum > 0 && sum == want) { print "   per-shard verdicts: " sum " (= report total)" }
        else { print "error: shard verdict sum " sum " != report verdicts " want > "/dev/stderr"; exit 1 }
    }'
report_events="$(grep -o '"total_events": [0-9]*' "$obs_out" | head -n1 | grep -o '[0-9]*')"
echo "$expo" | awk -v want="$report_events" '
    $1 == "counter" && $2 == "store.appends" { sum += $3 }
    END {
        # Every ingested event is one store record; Hello/Finish sentinels
        # push the counter past the replayed-event total.
        if (sum >= want && want > 0) { print "   event store: " sum " records appended (>= " want " events)" }
        else { print "error: store.appends " sum " < replayed events " want > "/dev/stderr"; exit 1 }
    }'
traces_sampled="$(grep -o '"traces_sampled": [0-9]*' "$obs_out" | head -n1 | grep -o '[0-9]*$')"
if [ -z "$traces_sampled" ] || [ "$traces_sampled" -eq 0 ]; then
    echo "error: default 1/64 sampling recorded no traces" >&2
    exit 1
fi
echo "   tracing: $traces_sampled client roots sampled at 1/64"
timeline="$(./target/release/geosocial-trace --addr "$addr" --slowest 3)"
for want_span in client.send serve.apply serve.ack; do
    echo "$timeline" | grep -q "$want_span" \
        || { echo "error: Traces timeline lacks $want_span:" >&2; echo "$timeline" >&2; exit 1; }
done
echo "   tracing: Traces query returned the server-side span chain"
chrome="$(./target/release/geosocial-trace --addr "$addr" --slowest 3 --format chrome)"
grep -q '"traceEvents":\[{' <<<"$chrome" \
    || { echo "error: Chrome trace export is empty" >&2; exit 1; }
echo "   tracing: Chrome trace export is non-empty"
kill "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "==> observability overhead gate: BENCH_obs.json <= 5%"
overhead="$(grep -o '"overhead_pct": [0-9.-]*' BENCH_obs.json | grep -o '[0-9.-]*$')"
[ -n "$overhead" ] || { echo "error: BENCH_obs.json has no overhead_pct" >&2; exit 1; }
awk -v o="$overhead" 'BEGIN { exit !(o <= 5.0) }' \
    || { echo "error: instrumentation overhead ${overhead}% exceeds the 5% budget" >&2; exit 1; }
echo "   committed overhead: ${overhead}%"

echo "==> cluster bench gate: BENCH_cluster.json schema + throughput ratio"
for field in procs workers_per_proc single_events_per_sec cluster_events_per_sec \
             cluster_over_single; do
    grep -q "\"$field\":" BENCH_cluster.json \
        || { echo "error: BENCH_cluster.json lacks \"$field\"" >&2; exit 1; }
done
procs="$(grep -o '"procs": [0-9]*' BENCH_cluster.json | grep -o '[0-9]*$')"
[ "$procs" -ge 8 ] \
    || { echo "error: BENCH_cluster.json measured only $procs shard processes (need >= 8)" >&2; exit 1; }
# Both embedded reports must be batch-verified replays, and the cluster one
# must carry the shard map it replayed into (loadgen --router mode).
verified="$(grep -c '"verified": true' BENCH_cluster.json || true)"
[ "$verified" -ge 2 ] \
    || { echo "error: BENCH_cluster.json embeds $verified verified reports (need 2)" >&2; exit 1; }
grep -q '"cluster": {' BENCH_cluster.json \
    || { echo "error: BENCH_cluster.json's cluster report lacks the shard map" >&2; exit 1; }
single_eps="$(grep -o '"single_events_per_sec": [0-9.]*' BENCH_cluster.json | grep -o '[0-9.]*$')"
cluster_eps="$(grep -o '"cluster_events_per_sec": [0-9.]*' BENCH_cluster.json | grep -o '[0-9.]*$')"
total_events="$(grep -o '"total_events": [0-9]*' BENCH_cluster.json | head -n1 | grep -o '[0-9]*$')"
[ "$total_events" -ge 100000 ] \
    || { echo "error: cluster bench replayed only $total_events events (need >= 100000)" >&2; exit 1; }
awk -v s="$single_eps" -v c="$cluster_eps" 'BEGIN { exit !(c >= 0.8 * s) }' \
    || { echo "error: cluster throughput $cluster_eps ev/s is below 0.8x single-process $single_eps ev/s" >&2; exit 1; }
echo "   $procs shard processes, $total_events events: cluster $cluster_eps ev/s vs single $single_eps ev/s"

echo "==> scenario registry gate: every family round-trips through repro --scenario"
cargo build --release -p geosocial-experiments
scen_dir="$(mktemp -d -t scen_gate.XXXXXX)"
families="$(./target/release/repro list-scenarios | awk '{print $1}')"
[ -n "$families" ] || { echo "error: repro list-scenarios printed nothing" >&2; exit 1; }
scen_count=0
for family in $families; do
    ./target/release/repro --scenario "$family" --quick --out "$scen_dir" >/dev/null 2>&1 \
        || { echo "error: repro --scenario $family failed" >&2; rm -rf "$scen_dir"; exit 1; }
    grep -q "^$family " "$scen_dir/scenarios.txt" \
        || { echo "error: $family missing from its own scorecard" >&2; rm -rf "$scen_dir"; exit 1; }
    grep -q "^$family," "$scen_dir/scenarios.csv" \
        || { echo "error: $family missing from scenarios.csv" >&2; rm -rf "$scen_dir"; exit 1; }
    scen_count=$((scen_count + 1))
done
rm -rf "$scen_dir"
[ "$scen_count" -ge 5 ] \
    || { echo "error: only $scen_count scenario families registered (need >= 5)" >&2; exit 1; }
echo "   $scen_count families round-tripped"

echo "==> scenario bench gate: BENCH_scenario.json covers the registry, all verified"
for family in $families; do
    grep -q "\"$family\":" BENCH_scenario.json \
        || { echo "error: BENCH_scenario.json lacks family \"$family\"" >&2; exit 1; }
done
scen_verified="$(grep -c '"verified": true' BENCH_scenario.json || true)"
[ "$scen_verified" -ge "$scen_count" ] \
    || { echo "error: BENCH_scenario.json has $scen_verified verified rows (need $scen_count)" >&2; exit 1; }
echo "   $scen_count families benched, all batch-verified"

echo "==> results gate: repro --exp all reproduces results/ byte for byte"
for threads in 1 2; do
    res_dir="$(mktemp -d -t results_gate.XXXXXX)"
    ./target/release/repro --exp all --threads "$threads" --out "$res_dir" >/dev/null 2>&1 \
        || { echo "error: repro --exp all --threads $threads failed" >&2; rm -rf "$res_dir"; exit 1; }
    diff -r --exclude=timings.csv results "$res_dir" \
        || { echo "error: results/ differs from a --threads $threads regeneration" >&2; rm -rf "$res_dir"; exit 1; }
    rm -rf "$res_dir"
    echo "   --threads $threads: byte-identical to results/"
done

echo "==> all checks passed"
