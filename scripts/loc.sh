#!/usr/bin/env bash
# Rust line counts, one way, so that size claims quote the same numbers.
#
#   scripts/loc.sh
#
# First line: every `*.rs` line outside `benchmark/` and `target/` (the
# workspace count). Then one row per package: all of its Rust
# lines, and its non-test `src/` lines, each file counted up to its first
# `#[cfg(test)]` line.
set -euo pipefail
cd "$(dirname "$0")/.."

rs() { find "$@" -name '*.rs' -not -path '*/target/*' -not -path './benchmark/*'; }

echo "workspace $(rs . | xargs cat | wc -l)"
printf '%-20s %7s %9s\n' package total non-test
for dir in . crates/*; do
  [ -d "$dir/src" ] || continue
  if [ "$dir" = . ]; then files=$(rs src tests examples); else files=$(rs "$dir"); fi
  src=$(rs "$dir/src")
  non_test=$(for f in $src; do awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"; done |
    awk '{ s += $1 } END { print s + 0 }')
  printf '%-20s %7d %9d\n' "${dir#crates/}" "$(cat $files | wc -l)" "$non_test"
done
