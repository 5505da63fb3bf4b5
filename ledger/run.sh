#!/usr/bin/env bash
# Build the ledger in release mode and run every workload, untraced and
# traced, for one seed. Writes ledger/results/<short-commit>-<seed>.json,
# the file `dcledger compare` reads. Used as is for the acceptance runs.
#
#   ledger/run.sh [seed] [extra `dcledger run` arguments, e.g. --quick or --repeat 5]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
shift || true

# The short commit names the result file; outside a git checkout the
# label says so.
label="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo nogit)"

cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    run --seed "$seed" --label "$label" "$@"
