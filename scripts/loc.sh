#!/usr/bin/env bash
# Prints the number of non-test lines of Rust under crates/: every `.rs`
# file outside crates/*/tests/ (benches/ included), each counted up to its
# first `#[cfg(test)]` line. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates -name '*.rs' -not -path 'crates/*/tests/*' -print0 |
    xargs -0 awk 'FNR == 1 { body = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { body = 0 } body { n++ } END { print n }'
