#!/usr/bin/env bash
# Checkpoints written under the retired `--search bnb` mode still
# resume.  Their sweep fingerprint carries the mode token "bnb"; bnb
# returned the exhaustive search's winners bit for bit, so the loader
# reads that token as "exhaustive".  A half-done checkpoint stamped
# "bnb" must resume under both --search bnb and --search exhaustive to
# the bytes of an uninterrupted sweep.
#
# Usage: bnb_resume.sh <path-to-nn-baton>
set -euo pipefail

BIN=${1:?usage: bnb_resume.sh <path-to-nn-baton>}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

SWEEP=(pre --model alexnet --macs 2048 --proportional --threads 1
       --no-obs)

fail() {
    echo "bnb_resume: FAIL: $*" >&2
    exit 1
}

# Only the "resumed" counter may differ between a fresh and a resumed
# run of the same sweep.
normalize() {
    sed 's/"resumed":[0-9]*/"resumed":0/' "$1"
}

"$BIN" "${SWEEP[@]}" --json "$DIR/reference.json" >/dev/null 2>&1 \
    || fail "reference sweep failed"
"$BIN" "${SWEEP[@]}" --checkpoint "$DIR/full.json" --json /dev/null \
    >/dev/null 2>&1 || fail "checkpointed sweep failed"

# What an interrupted `pre --search bnb` left behind: half the
# entries, not complete, mode token "bnb".
python3 - "$DIR/full.json" "$DIR/bnb_ckpt.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
suffix = "|exhaustive|0"
assert doc["fingerprint"].endswith(suffix), doc["fingerprint"]
doc["fingerprint"] = doc["fingerprint"][: -len(suffix)] + "|bnb|0"
doc["entries"] = doc["entries"][: len(doc["entries"]) // 2]
doc["complete"] = False
json.dump(doc, open(sys.argv[2], "w"))
EOF

for mode in bnb exhaustive; do
    cp "$DIR/bnb_ckpt.json" "$DIR/resume_$mode.json"
    "$BIN" "${SWEEP[@]}" --search "$mode" \
        --resume "$DIR/resume_$mode.json" --json "$DIR/report_$mode.json" \
        >"$DIR/$mode.log" 2>&1 \
        || { cat "$DIR/$mode.log" >&2; fail "--search $mode resume failed"; }
    grep -q '"resumed":[1-9]' "$DIR/report_$mode.json" \
        || fail "--search $mode restored no points"
    cmp <(normalize "$DIR/reference.json") \
        <(normalize "$DIR/report_$mode.json") \
        || fail "--search $mode resume differs from the uninterrupted sweep"
done
echo "bnb_resume: OK"
