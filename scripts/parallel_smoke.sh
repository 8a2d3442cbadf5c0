#!/bin/sh
# parallel_smoke.sh — -workers must be invisible in the output.
#
# Runs the reduced survey plus fault sweep with the same seed at 1 and
# 4 workers and requires byte-identical stdout and byte-identical
# -zerotime manifests. Any failure exits non-zero.
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/resurvey" ./cmd/resurvey
cd "$WORK"

# Both runs use the same relative -manifest path, so the "manifest
# written to" line (and thus the whole stdout) is comparable verbatim.
./resurvey -small -seed 1 -faults 0.5 -workers 1 -zerotime -manifest m.json > out.txt
mv m.json m1.json && mv out.txt out1.txt
./resurvey -small -seed 1 -faults 0.5 -workers 4 -zerotime -manifest m.json > out.txt
cmp m1.json m.json
cmp out1.txt out.txt

echo "parallel smoke OK: -workers 1 and 4 byte-identical"
