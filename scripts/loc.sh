#!/usr/bin/env bash
# Count the non-test Rust lines under crates/, the repository's reported
# "net lines of code" metric.
#
# Rule: every *.rs file under crates/ counts, except
#   - files under a tests/ or benches/ directory,
#   - golden.rs (byte-format pins compiled only for tests),
#   - #[cfg(test)] mod NAME { ... } blocks (the attribute line through the
#     block's closing brace at column 0; rustfmt puts them there),
#   - blank lines.
# Comments and doc comments count.
#
# Usage: scripts/loc.sh [--files]
#   prints the total; --files also prints one "count path" line per file.
set -euo pipefail
cd "$(dirname "$0")/.."

per_file() {
    find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -name golden.rs -print | LC_ALL=C sort | while read -r f; do
        awk -v f="$f" '
            skip && /^}$/ { skip = 0; next }
            skip { next }
            attr { attr = 0; if ($0 ~ /^mod [A-Za-z0-9_]+ \{$/) { skip = 1; next } n++ }
            /^#\[cfg\(test\)\]$/ { attr = 1; next }
            /^[[:space:]]*$/ { next }
            { n++ }
            END { if (attr) n++; printf "%d %s\n", n, f }
        ' "$f"
    done
}

if [[ "${1:-}" == "--files" ]]; then
    per_file
fi
per_file | awk '{ s += $1 } END { print s }'
