#!/bin/sh
# optimize_resume_smoke.sh — checkpoint/resume determinism of reoptimize.
#
# A cold run with -snapshot-dir, then (after deleting the newest search
# state, as a crash before its write would) a -resume run, must
# reproduce the cold run's stdout and -zerotime manifest byte for byte.
# Any failure exits non-zero.
#
# Known to fail today: a search state (ROPT) carries neither the
# trajectory nor the telemetry of the finished generations, so the
# resumed run prints fewer trajectory rows and smaller work counters.
# Not part of CI until ROPT carries both (see ROADMAP).
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/reoptimize" ./cmd/reoptimize
cd "$WORK"

# Both runs use the same relative -manifest path, so the "manifest
# written to" line (and thus the whole stdout) is comparable verbatim.
./reoptimize -seed 1 -objective catchment:re=0.3 -budget 12 -zerotime -manifest m.json -snapshot-dir search > out.txt
mv m.json m1.json && mv out.txt out1.txt
rm "search/$(ls search | sort | tail -n 1)"
./reoptimize -seed 1 -objective catchment:re=0.3 -budget 12 -zerotime -manifest m.json -snapshot-dir search -resume > out.txt
diff out1.txt out.txt >&2
cmp m1.json m.json

echo "optimize resume smoke OK: -resume after a lost search state reproduces the cold run"
