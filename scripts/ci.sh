#!/usr/bin/env bash
# The CI gate, runnable locally: everything .github/workflows/ci.yml runs,
# in the same order, so "ci.sh passes" and "CI is green" mean the same
# thing.
#
#   1. rustfmt       — cargo fmt --check (rustfmt.toml is authoritative)
#   2. clippy        — workspace, all targets, -D warnings, plus the
#                      obs-noop feature combos
#   3. build matrix  — release builds of the two feature configurations
#                      that ship: default and observability compiled out
#   4. cluster smoke — a real multi-process topology: two geosocial-serve
#                      shard processes behind a geosocial-router process,
#                      a short batch-verified replay on each wire format
#                      (fresh processes per wire — a finished stream
#                      cannot be replayed twice)
#   5. store smoke   — the event-store micro-benchmark at a reduced scale,
#                      exercising append/segment-roll/snapshot/reopen/query
#                      through the shipped geosocial-store-bench binary
#   6. scenario smoke — two scenario families (one social, one
#                      adversarial) replayed end-to-end through a spawned
#                      server with the batch-equivalence oracle on; the
#                      full registry round-trip is gated by check.sh
#   7. perfbench     — build the standalone benchmark (perfbench/, its own
#                      workspace) against the current crates and run its
#                      small-scale served == batch smoke, so a public-API
#                      change in crates/ that breaks the benchmark fails
#                      here rather than in the benchmark pipeline
#   8. bench files   — every committed BENCH_*.json must parse as JSON
#                      (check.sh gates their contents; this catches a
#                      half-written or hand-mangled report early)
#   9. check.sh      — tier-1 gate (every test, the chaos and cluster-kill
#                      suites included) + serving/observability/tracing
#                      smokes over a real TCP server on both wires, the
#                      committed-bench gates, and the byte-for-byte
#                      results/ regeneration gate
#
# Usage: scripts/ci.sh [step...]   (no args = all steps)
# Steps: fmt clippy build cluster store scenario perfbench bench check
set -euo pipefail
cd "$(dirname "$0")/.."

steps=("$@")
[ ${#steps[@]} -eq 0 ] && steps=(fmt clippy build cluster store scenario perfbench bench check)

want() {
    local s
    for s in "${steps[@]}"; do [ "$s" = "$1" ] && return 0; done
    return 1
}

if want fmt; then
    echo "==> ci: cargo fmt --check"
    cargo fmt --check
fi

if want clippy; then
    echo "==> ci: clippy (workspace, all targets, -D warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> ci: clippy (obs noop)"
    cargo clippy -p geosocial-obs --all-targets --features noop -- -D warnings
    echo "==> ci: clippy (serve with obs compiled out)"
    cargo clippy -p geosocial-serve --all-targets --features obs-noop -- -D warnings
fi

if want build; then
    echo "==> ci: release build (default features)"
    cargo build --release --workspace
    echo "==> ci: release build (obs compiled out)"
    cargo build --release -p geosocial-serve --features geosocial-obs/noop
fi

if want cluster; then
    echo "==> ci: cluster smoke (router + 2 shard processes, both wires)"
    cargo build --release -p geosocial-serve
    cluster_dir="$(mktemp -d -t cluster_smoke.XXXXXX)"
    cluster_pids=()
    cluster_cleanup() {
        local pid
        for pid in "${cluster_pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
        if [ -d "$cluster_dir" ]; then
            for log in "$cluster_dir"/*.log; do
                [ -s "$log" ] || continue
                echo "---- $log ----" >&2
                cat "$log" >&2
            done
        fi
        rm -rf "$cluster_dir"
    }
    trap cluster_cleanup EXIT
    # Bounded liveness-checked wait for a process's logged bind address —
    # the same discovery check.sh uses for its serve smoke.
    cluster_wait_addr() {
        local log="$1" pid="$2" addr=""
        for _ in $(seq 1 50); do
            kill -0 "$pid" 2>/dev/null \
                || { echo "error: process exited before binding (see $log)" >&2; return 1; }
            addr="$(grep -ho 'addr=[0-9.:]*' "$log" 2>/dev/null | head -n1 | cut -d= -f2 || true)"
            [ -n "$addr" ] && { echo "$addr"; return 0; }
            sleep 0.1
        done
        echo "error: process never logged its address (see $log)" >&2
        return 1
    }
    for wire in json binary; do
        shard_addrs=""
        for s in 1 2; do
            shard_log="$cluster_dir/shard-$wire-$s.log"
            ./target/release/geosocial-serve --addr 127.0.0.1:0 --shards 2 \
                --read-timeout 0 --store-dir "$cluster_dir/store-$wire-$s" \
                >/dev/null 2>"$shard_log" &
            shard_pid=$!
            cluster_pids+=("$shard_pid")
            addr="$(cluster_wait_addr "$shard_log" "$shard_pid")"
            shard_addrs="${shard_addrs:+$shard_addrs,}$addr"
        done
        router_log="$cluster_dir/router-$wire.log"
        ./target/release/geosocial-router --addr 127.0.0.1:0 --shards "$shard_addrs" \
            >/dev/null 2>"$router_log" &
        router_pid=$!
        cluster_pids+=("$router_pid")
        router_addr="$(cluster_wait_addr "$router_log" "$router_pid")"
        wire_args=()
        [ "$wire" = binary ] && wire_args=(--run-len 32)
        ./target/release/geosocial-loadgen \
            --addr "$router_addr" --router \
            --users 12 --days 2 --seed 1 \
            --connections 2 --window 64 \
            --wire "$wire" "${wire_args[@]}" \
            --verify --out "$cluster_dir/report-$wire.json"
        grep -q '"verified": true' "$cluster_dir/report-$wire.json" \
            || { echo "error: $wire-wire cluster replay did not verify" >&2; exit 1; }
        for pid in "${cluster_pids[@]}"; do
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        done
        cluster_pids=()
    done
    trap - EXIT
    rm -rf "$cluster_dir"
fi

if want store; then
    echo "==> ci: event-store smoke (reduced-scale bench)"
    cargo build --release -p geosocial-store
    store_out="$(mktemp -t bench_store_smoke.XXXXXX.json)"
    ./target/release/geosocial-store-bench 20000 64 64 > "$store_out"
    grep -q '"append_per_s"' "$store_out" \
        || { echo "error: store bench produced no report" >&2; exit 1; }
    grep -q '"asof_query_us"' "$store_out" \
        || { echo "error: store bench reported no as-of latency" >&2; exit 1; }
    grep -Eq '"asof_fetched": [1-9]' "$store_out" \
        || { echo "error: store bench as-of reads fetched nothing" >&2; exit 1; }
    rm -f "$store_out"
fi

if want scenario; then
    echo "==> ci: scenario smoke (geosim + spoof-swarm served, batch-verified)"
    cargo build --release -p geosocial-serve
    scen_out="$(mktemp -t bench_scenario_smoke.XXXXXX.json)"
    # One social family and one adversarial family: geosim exercises the
    # cross-user similarity barrier, spoof-swarm the fabricated-GPS path
    # (checkins built outside simulate_checkins). Both must verify against
    # the batch pipeline through a real server.
    for family in geosim spoof-swarm; do
        ./target/release/geosocial-loadgen \
            --spawn --shards 4 \
            --scenario "$family" \
            --users 16 --days 3 --seed 1 \
            --connections 4 --window 256 \
            --wire binary --run-len 64 \
            --verify --out "$scen_out"
        grep -q '"verified": true' "$scen_out" \
            || { echo "error: scenario $family replay did not verify" >&2; exit 1; }
    done
    rm -f "$scen_out"
fi

if want perfbench; then
    echo "==> ci: perfbench builds and its smoke passes"
    cargo test --offline -q --manifest-path perfbench/Cargo.toml
fi

if want bench; then
    echo "==> ci: committed BENCH_*.json parse as JSON"
    for f in BENCH_*.json; do
        [ -e "$f" ] || { echo "error: no committed BENCH_*.json found" >&2; exit 1; }
        if command -v python3 >/dev/null 2>&1; then
            python3 -m json.tool "$f" >/dev/null \
                || { echo "error: $f is not valid JSON" >&2; exit 1; }
        elif command -v jq >/dev/null 2>&1; then
            jq . "$f" >/dev/null \
                || { echo "error: $f is not valid JSON" >&2; exit 1; }
        else
            echo "error: neither python3 nor jq available to validate $f" >&2
            exit 1
        fi
        echo "   $f: ok"
    done
fi

if want check; then
    echo "==> ci: scripts/check.sh"
    # check.sh rebuilds geosocial-serve with default features, so the
    # obs-noop build above cannot leak into the smoke tests.
    scripts/check.sh
fi

echo "==> ci: all gates passed"
