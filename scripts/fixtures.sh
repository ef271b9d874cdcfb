#!/usr/bin/env bash
# The ten pinned stdout fixtures under tests/fixtures/: two examples and
# eight `figures` runs, diffed byte for byte against the release binaries.
#
#   scripts/fixtures.sh          # diff every fixture; exits non-zero on any difference
#   scripts/fixtures.sh --bless  # rewrite them (only for an intended change)
set -euo pipefail
cd "$(dirname "$0")/.."

bless=false
case "${1:-}" in
  "") ;;
  --bless) bless=true ;;
  *) echo "usage: $0 [--bless]" >&2; exit 2 ;;
esac

cargo build --release --locked -q --bin figures \
  --example custom_compressor --example heterogeneous_bandwidth
bin="${CARGO_TARGET_DIR:-target}/release"

failed=0
# `fixture NAME CMD...`: CMD's stdout is pinned in tests/fixtures/NAME.stdout.
fixture() {
  local file="tests/fixtures/$1.stdout"
  shift
  if $bless; then
    "$@" > "$file"
  elif ! "$@" | diff -u "$file" -; then
    echo "fixture differs: $file" >&2
    failed=1
  fi
}

# The custom-registry flat spec through the uplink plan, and transfers
# priced through `CommModel` directly, outside every fingerprint.
fixture custom_compressor "$bin/examples/custom_compressor"
fixture heterogeneous_bandwidth "$bin/examples/heterogeneous_bandwidth"
fixture timeline_quick "$bin/figures" timeline --quick
fixture timeline_quick_downlink_topk "$bin/figures" timeline --quick --downlink topk
fixture schedule_quick "$bin/figures" schedule --quick
# The sweep figures: the grid's run order and every row.
for f in paper overlap scenarios; do
  fixture "${f}_quick" "$bin/figures" "$f" --quick
done
fixture codecs_quick "$bin/figures" codecs --quick \
  --compressors topk+qsgd:4,threshold:0.01 --layer-compressors '*.bias=dense;*=topk'
fixture adaptive_quick "$bin/figures" adaptive --quick --layer-csv
exit "$failed"
