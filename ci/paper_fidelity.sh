#!/usr/bin/env bash
# Paper fidelity: `experiments all` at scales 1 and 2 must write exactly the
# bytes pinned in ci/paper_fidelity.sha256 (scale 1) and
# ci/paper_fidelity.scale2.sha256 (scale 2), one checksum per output file.
# Not part of tier-1 (about a minute and a half at scale 1 and three minutes
# at scale 2 on 2 cores); verify.sh runs it. A change that moves one byte of
# these outputs moved a paper number: it fails here, and its checksums are
# re-pinned only by a change that means to move them.
#
# The scale-2 pin also guards the per-object table's bound: no `CacheServer`
# in `experiments all` forgets at scales 1 and 2 (the fullest segment holds
# 7 820 rows at scale 2, under `SEGMENT_ROWS`), so a bound that starts
# forgetting there moves scale-2 outputs and fails here.
#
# The thread count does not change the outputs: `DARWIN_THREADS=1
# ci/paper_fidelity.sh` at commit 5c6607d matched 33/33 at both scales,
# 307 s wall on 2 cores with the build warm; the same checksums hold at the
# default thread count.
#
# One output is not pinned: overhead.csv holds wall-clock timings (ns per
# request of the controller and the static baseline), which differ from run
# to run. Every other file the run writes must be pinned, so an output added
# later fails here until its checksum is.
#
# usage: ci/paper_fidelity.sh
set -euo pipefail
cd "$(dirname "$0")/.."
unpinned="overhead.csv"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for scale in 1 2; do
    if [ "$scale" = 1 ]; then
        sums="$PWD/ci/paper_fidelity.sha256"
    else
        sums="$PWD/ci/paper_fidelity.scale$scale.sha256"
    fi
    dir="$out/scale$scale"
    mkdir "$dir"
    echo "experiments all --scale $scale"
    cargo run --release --quiet -p darwin-bench --bin experiments -- all --scale "$scale" --out "$dir" > /dev/null
    (cd "$dir" && sha256sum --check --strict --quiet "$sums")
    written=$(cd "$dir" && ls | grep -vx "$unpinned" | LC_ALL=C sort)
    pinned=$(awk '{print $2}' "$sums" | LC_ALL=C sort)
    if [ "$written" != "$pinned" ]; then
        echo "paper fidelity: the files written at scale $scale are not the files pinned" >&2
        diff <(echo "$pinned") <(echo "$written") >&2 || true
        exit 1
    fi
    echo "paper fidelity: $(echo "$pinned" | wc -l) outputs match their pins at scale $scale"
done
