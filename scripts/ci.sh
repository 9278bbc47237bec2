#!/usr/bin/env bash
# The CI gate, runnable locally: everything .github/workflows/ci.yml runs,
# in the same order, so "ci.sh passes" and "CI is green" mean the same
# thing.
#
#   1. rustfmt       — cargo fmt --check (rustfmt.toml is authoritative)
#   2. clippy        — workspace, all targets, -D warnings, plus the
#                      non-default feature combos (fault-inject, obs noop)
#   3. build matrix  — release builds of the three feature configurations
#                      that ship: default, observability compiled out,
#                      fault injection compiled in
#   4. tests         — the full workspace suite, then the fault-injection
#                      suite (chaos equivalence test) which only exists
#                      behind --features fault-inject
#   5. wire smoke    — a batch-verified replay on the binary wire with
#                      batched GpsRun frames (the JSON wire is smoked by
#                      check.sh), so both encodings gate every merge
#   6. trace smoke   — a fully sampled replay against a standalone server,
#                      then the Traces query through geosocial-trace: the
#                      text timeline must show the server-side span chain
#                      and the Chrome export must be non-empty
#   7. cluster smoke — a real multi-process topology: two geosocial-serve
#                      shard processes behind a geosocial-router process,
#                      a short batch-verified replay on each wire format
#                      (fresh processes per wire — a finished stream
#                      cannot be replayed twice)
#   8. store smoke   — the event-store micro-benchmark at a reduced scale,
#                      exercising append/segment-roll/snapshot/reopen/query
#                      through the shipped geosocial-store-bench binary
#   8b. scenario smoke — two scenario families (one social, one
#                      adversarial) replayed end-to-end through a spawned
#                      server with the batch-equivalence oracle on; the
#                      full registry round-trip is gated by check.sh
#   8c. perfbench    — build the standalone benchmark (perfbench/, its own
#                      workspace) against the current crates and run its
#                      small-scale served == batch smoke, so a public-API
#                      change in crates/ that breaks the benchmark fails
#                      here rather than in the benchmark pipeline
#   9. bench files   — every committed BENCH_*.json must parse as JSON
#                      (check.sh gates their contents; this catches a
#                      half-written or hand-mangled report early)
#  10. check.sh      — tier-1 gate + serving/observability smokes over a
#                      real TCP server, the committed-bench gates, and the
#                      byte-for-byte results/ regeneration gate
#
# Usage: scripts/ci.sh [step...]   (no args = all steps)
# Steps: fmt clippy build test chaos wire trace cluster store scenario
#        perfbench bench check
set -euo pipefail
cd "$(dirname "$0")/.."

steps=("$@")
[ ${#steps[@]} -eq 0 ] && steps=(fmt clippy build test chaos wire trace cluster store scenario perfbench bench check)

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
    echo "==> ci: clippy (fault-inject feature chain)"
    cargo clippy -p geosocial-fault -p geosocial-store -p geosocial-serve \
        --all-targets \
        --features geosocial-fault/inject,geosocial-serve/fault-inject \
        -- -D warnings
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
    echo "==> ci: release build (fault injection armed)"
    cargo build --release -p geosocial-serve --features fault-inject
fi

if want test; then
    echo "==> ci: cargo test -q --workspace"
    cargo test -q --workspace
fi

if want chaos; then
    echo "==> ci: fault-injection suite (chaos equivalence)"
    cargo test -q -p geosocial-serve --features fault-inject
fi

if want wire; then
    echo "==> ci: binary wire smoke (batched GpsRun, batch-verified)"
    # Default-features build: the chaos step above leaves fault-inject
    # artifacts for other packages, but geosocial-serve's default binary
    # is what ships.
    cargo build --release -p geosocial-serve
    wire_out="$(mktemp -t bench_wire_smoke.XXXXXX.json)"
    ./target/release/geosocial-loadgen \
        --spawn --shards 4 \
        --users 24 --days 4 --seed 1 \
        --connections 4 --window 256 \
        --wire binary --run-len 64 \
        --verify --out "$wire_out"
    rm -f "$wire_out"
fi

if want trace; then
    echo "==> ci: tracing smoke (replay, Traces query, exporters)"
    cargo build --release -p geosocial-serve
    trace_log="$(mktemp -t trace_smoke.XXXXXX.log)"
    trace_out="$(mktemp -t trace_smoke.XXXXXX.json)"
    chrome_out="$(mktemp -t trace_chrome.XXXXXX.json)"
    ./target/release/geosocial-serve --addr 127.0.0.1:0 --shards 4 2>"$trace_log" &
    trace_pid=$!
    trap 'kill "$trace_pid" 2>/dev/null || true; rm -f "$trace_log" "$trace_out" "$chrome_out"' EXIT
    addr=""
    for _ in $(seq 1 50); do
        addr="$(grep -ho 'addr=[0-9.:]*' "$trace_log" | head -n1 | cut -d= -f2 || true)"
        [ -n "$addr" ] && break
        kill -0 "$trace_pid" 2>/dev/null \
            || { echo "error: geosocial-serve exited before binding" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "error: server never logged its address" >&2; exit 1; }
    ./target/release/geosocial-loadgen \
        --addr "$addr" \
        --users 16 --days 2 --seed 3 \
        --connections 2 --window 128 \
        --trace-sample 1 \
        --out "$trace_out"
    grep -q '"traces_sampled": [1-9]' "$trace_out" \
        || { echo "error: fully sampled replay recorded no traces" >&2; exit 1; }
    timeline="$(./target/release/geosocial-trace --addr "$addr" --slowest 5)"
    for want_span in client.send serve.apply serve.ack; do
        echo "$timeline" | grep -q "$want_span" \
            || { echo "error: Traces timeline lacks $want_span" >&2; exit 1; }
    done
    ./target/release/geosocial-trace --addr "$addr" --slowest 5 \
        --format chrome --out "$chrome_out" >/dev/null
    grep -q '"traceEvents":\[{' "$chrome_out" \
        || { echo "error: Chrome trace export is empty" >&2; exit 1; }
    kill "$trace_pid" 2>/dev/null || true
    trap - EXIT
    rm -f "$trace_log" "$trace_out" "$chrome_out"
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
    # check.sh rebuilds geosocial-serve with default features, so the armed
    # build above cannot leak into the smoke tests.
    scripts/check.sh
fi

echo "==> ci: all gates passed"
