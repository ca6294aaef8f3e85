#!/usr/bin/env bash
# Paper fidelity: `experiments switching`, `fig2` and `table2` must write
# exactly the bytes pinned in ci/paper_fidelity.sha256. Not part of tier-1
# (about a minute on 2 cores); verify.sh runs it. A change that moves one
# byte of these outputs moved a paper number: it fails here, and its
# checksums are re-pinned only by a change that means to move them.
#
# usage: ci/paper_fidelity.sh
set -euo pipefail
cd "$(dirname "$0")/.."
sums="$PWD/ci/paper_fidelity.sha256"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for what in switching fig2 table2; do
    echo "experiments $what"
    cargo run --release --quiet -p darwin-bench --bin experiments -- "$what" --out "$out" > /dev/null
done
(cd "$out" && sha256sum --check --strict "$sums")
