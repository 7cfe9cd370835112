#!/usr/bin/env bash
# The fig15 sweep (DarkNet-19 under a 4096-MAC, 3 mm^2 budget: 45,000
# design points), checkpointed at the default --checkpoint-every,
# finishes inside a 300 s deadline, journals under 30 MB and exports
# the bytes of the same sweep run without a checkpoint; a resume from
# that checkpoint exports them again.  Checkpoints that rewrite the
# whole file at every flush cost quadratic time and cannot finish this
# sweep.
#
# Usage: fig15_checkpoint.sh <path-to-nn-baton>
set -euo pipefail

BIN=${1:?usage: fig15_checkpoint.sh <path-to-nn-baton>}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

SWEEP=(pre --model darknet19 --macs 4096 --area 3.0 --edp --threads 4
       --no-obs)

fail() {
    echo "fig15_checkpoint: FAIL: $*" >&2
    exit 1
}

# Only the "resumed" counter may differ between a fresh and a resumed
# run of the same sweep.
normalize() {
    sed 's/"resumed":[0-9]*/"resumed":0/' "$1"
}

# Runs "$@" with its output in $DIR/<log>.log; fails naming its exit
# code unless it exits 0.
run() {
    local log=$1
    shift
    set +e
    "$@" >"$DIR/$log.log" 2>&1
    local rc=$?
    set -e
    [[ $rc -eq 0 ]] || { cat "$DIR/$log.log" >&2; fail "$log exit $rc"; }
}

run plain "$BIN" "${SWEEP[@]}" --json "$DIR/plain.json"

# 1-2. Checkpointed at the default period, inside the deadline, to the
# same bytes.
run checkpointed "$BIN" "${SWEEP[@]}" --checkpoint "$DIR/sweep.ckpt" \
    --deadline 300 --json "$DIR/checkpointed.json"
cmp "$DIR/plain.json" "$DIR/checkpointed.json" \
    || fail "the checkpointed sweep's export differs from the plain one"

# The journal records each point's totals and a per-layer ledger only
# for each unit's min-EDP and min-energy points: about 22 MB.
JOURNAL_BYTES=$(stat -c %s "$DIR/sweep.ckpt")
(( JOURNAL_BYTES <= 30000000 )) \
    || fail "the journal is $JOURNAL_BYTES bytes, over 30 MB"

# 3. Resumed from the full checkpoint: every point restored, same
# bytes.
run resumed "$BIN" "${SWEEP[@]}" --resume "$DIR/sweep.ckpt" \
    --json "$DIR/resumed.json"
grep -q '"resumed":45000' "$DIR/resumed.json" \
    || fail "the resume did not restore all 45000 points"
cmp <(normalize "$DIR/plain.json") <(normalize "$DIR/resumed.json") \
    || fail "the resumed sweep's export differs from the plain one"
echo "fig15_checkpoint: OK"
