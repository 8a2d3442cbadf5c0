#!/bin/sh
# resume_smoke.sh — checkpoint/resume determinism of the survey.
#
# A cold -workers 1 run with -snapshot-dir, then a -resume run at
# -workers 4 from its checkpoints, must reproduce the cold run's stdout
# and -zerotime manifest byte for byte. Any failure exits non-zero.
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/resurvey" ./cmd/resurvey
cd "$WORK"

# Both runs use the same relative -manifest path, so the "manifest
# written to" line (and thus the whole stdout) is comparable verbatim.
./resurvey -small -seed 1 -workers 1 -zerotime -manifest m.json -snapshot-dir ckpts > out.txt
mv m.json m1.json && mv out.txt out1.txt
./resurvey -small -seed 1 -workers 4 -zerotime -manifest m.json -snapshot-dir ckpts -resume > out.txt
cmp m1.json m.json
cmp out1.txt out.txt

echo "resume smoke OK: -resume -workers 4 reproduces the cold -workers 1 run"
