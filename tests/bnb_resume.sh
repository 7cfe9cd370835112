#!/usr/bin/env bash
# Checkpoints written under the retired `--search bnb` mode still
# resume.  Their sweep fingerprint carries the mode token "bnb"; bnb
# returned the exhaustive search's winners bit for bit, so the loader
# reads that token as "exhaustive".  A half-done checkpoint stamped
# "bnb" must resume under both --search bnb and --search exhaustive to
# the bytes of an uninterrupted sweep.
#
# The retired anneal search is no alias: its answers differed, so
# `--search anneal` and its `--anneal-seed` flag are usage errors.
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

# nn-baton run with all but the first argument must exit 2 and name
# the first argument on stderr.
expect_usage_error() {
    local needle=$1 rc=0
    shift
    "$BIN" "$@" >/dev/null 2>"$DIR/usage.err" || rc=$?
    [[ $rc == 2 ]] || fail "$* exited $rc, not 2"
    grep -q -- "$needle" "$DIR/usage.err" \
        || fail "$* did not name $needle: $(cat "$DIR/usage.err")"
}
expect_usage_error exhaustive "${SWEEP[@]}" --search anneal
expect_usage_error --anneal-seed "${SWEEP[@]}" --anneal-seed 7

"$BIN" "${SWEEP[@]}" --json "$DIR/reference.json" >/dev/null 2>&1 \
    || fail "reference sweep failed"
"$BIN" "${SWEEP[@]}" --checkpoint "$DIR/full.json" --json /dev/null \
    >/dev/null 2>&1 || fail "checkpointed sweep failed"

# What an interrupted `pre --search bnb` left behind: a version-1
# document (the format of that era) with half the entries, not
# complete, mode token "bnb".  The journal's header and records give
# its fingerprint and entries.
python3 - "$DIR/full.json" "$DIR/bnb_ckpt.json" <<'EOF'
import json
import sys

lines = [json.loads(line) for line in open(sys.argv[1])]
header, records = lines[0], [r for r in lines[1:] if "key" in r]
suffix = "|exhaustive|0"
assert header["fingerprint"].endswith(suffix), header["fingerprint"]
doc = {
    "format": header["format"],
    "version": 1,
    "fingerprint": header["fingerprint"][: -len(suffix)] + "|bnb|0",
    "complete": False,
    "entries": records[: len(records) // 2],
}
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
