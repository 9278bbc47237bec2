#!/usr/bin/env bash
# Regenerate BENCH_store.json: the event-store micro-benchmark at a fixed
# scale, so the committed numbers always compare like-for-like.
#
# Runs geosocial-store-bench (crates/store), which measures:
#
#   append    — records/s and MiB/s through the buffered segment log,
#   recovery  — reopen + delta-replay time as the snapshot covers 0, 25,
#               50, 75 and 100% of the log (the O(delta) claim, measured),
#   as-of     — per-user historical query latency through the per-user
#               extent index (reads only the user's byte ranges) at the
#               three-quarter point of history.
#
# Usage: scripts/bench_store.sh [RECORDS] [PAYLOAD_BYTES] [USERS]
#        (defaults: 200000 records, 64-byte payloads, 256 users)
set -euo pipefail
cd "$(dirname "$0")/.."

records="${1:-200000}"
payload="${2:-64}"
users="${3:-256}"

echo "==> building geosocial-store-bench (release)"
cargo build --release -p geosocial-store

echo "==> event-store bench: $records records x ${payload}B over $users users"
./target/release/geosocial-store-bench "$records" "$payload" "$users" \
    > BENCH_store.json

append="$(grep -o '"append_per_s": [0-9.]*' BENCH_store.json | grep -o '[0-9.]*$')"
asof="$(grep -o '"asof_query_us": [0-9.]*' BENCH_store.json | grep -o '[0-9.]*$')"
echo "==> BENCH_store.json: $append appends/s, ${asof}us per as-of query"
