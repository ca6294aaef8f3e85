#!/usr/bin/env bash
# Paper fidelity: `experiments all` at scale 1 must write exactly the bytes
# pinned in ci/paper_fidelity.sha256, one checksum per output file. Not part
# of tier-1 (about a minute and a half on 2 cores); verify.sh runs it. A
# change that moves one byte of these outputs moved a paper number: it fails
# here, and its checksums are re-pinned only by a change that means to move
# them.
#
# One output is not pinned: overhead.csv holds wall-clock timings (ns per
# request of the controller and the static baseline), which differ from run
# to run. Every other file the run writes must be pinned, so an output added
# later fails here until its checksum is.
#
# usage: ci/paper_fidelity.sh
set -euo pipefail
cd "$(dirname "$0")/.."
sums="$PWD/ci/paper_fidelity.sha256"
unpinned="overhead.csv"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
echo "experiments all"
cargo run --release --quiet -p darwin-bench --bin experiments -- all --out "$out" > /dev/null
(cd "$out" && sha256sum --check --strict --quiet "$sums")
written=$(cd "$out" && ls | grep -vx "$unpinned" | LC_ALL=C sort)
pinned=$(awk '{print $2}' "$sums" | LC_ALL=C sort)
if [ "$written" != "$pinned" ]; then
    echo "paper fidelity: the files written are not the files pinned" >&2
    diff <(echo "$pinned") <(echo "$written") >&2 || true
    exit 1
fi
echo "paper fidelity: $(echo "$pinned" | wc -l) outputs match their pins"
