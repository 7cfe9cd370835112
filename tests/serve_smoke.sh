#!/usr/bin/env bash
# End-to-end smoke test for `nn-baton serve`:
#   0. a fresh daemon exposes its table cache's counters at 0, before
#      any table is built;
#   1. the daemon comes up and answers a post-design request, twice,
#      with bytes identical to the one-shot CLI's --no-obs JSON export;
#      the repeat searches on the memory-axis tables it built, which
#      the stats op counts;
#   2. `nn-baton stats` scrapes request-latency quantiles and cache
#      counters from the live daemon in all three formats;
#   3. the access log holds one parseable JSON line per request and
#      the 1us SLO counted the post request as a violation;
#   4. a malformed request gets a structured error envelope (and the
#      client exits non-zero), not a dropped connection;
#   5. a request line over the 64 MiB bound gets an INVALID_ARGUMENT
#      envelope and then EOF, and the daemon still answers a ping;
#   6. the shutdown op stops the daemon cleanly (exit 0);
#   7. a --retries or --max-inflight count past INT_MAX is a usage
#      error (exit 2), not a count that wraps.
#
# Usage: serve_smoke.sh <path-to-nn-baton>
set -euo pipefail

BIN=${1:?usage: serve_smoke.sh <path-to-nn-baton>}
DIR=$(mktemp -d)
SOCK="$DIR/nnb.sock"
DAEMON_PID=

cleanup() {
    # Runs on any exit, including INT/TERM mid-test: the daemon must
    # not outlive the test, and a stale socket file must not confuse
    # the next run.  TERM first; escalate to KILL if the daemon is
    # wedged so the trap itself cannot hang in wait.
    if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        for _ in $(seq 50); do
            kill -0 "$DAEMON_PID" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -f "$SOCK"
    rm -rf "$DIR"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    exit 1
}

# A workload small enough for an exhaustive per-request search (and
# feasible on the default case-study hardware, so the CLI exits 0).
cat > "$DIR/tiny.model" << 'EOF'
model tiny 32
conv c1 8 8 64 16 3 3 1
fc head 64 128
EOF

# Reference bytes from the one-shot CLI.
"$BIN" post --model-file "$DIR/tiny.model" --no-obs \
    --json "$DIR/cli.json" > /dev/null

# Start the daemon (with the observability stack on: a 1us SLO every
# request violates, and a per-request access log) and wait for the
# socket under a wall-clock deadline rather than a fixed poll count —
# on timeout the daemon's own output is the error message.
"$BIN" serve --socket "$SOCK" --threads 2 \
    --slo-us 1 --access-log "$DIR/access.log" \
    > "$DIR/serve.log" 2>&1 &
DAEMON_PID=$!
WAIT_DEADLINE_S=60
SECONDS=0
until [[ -S "$SOCK" ]]; do
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "--- daemon output ---" >&2
        cat "$DIR/serve.log" >&2
        fail "daemon died at startup"
    }
    if (( SECONDS >= WAIT_DEADLINE_S )); then
        echo "--- daemon output ---" >&2
        cat "$DIR/serve.log" >&2
        fail "socket did not appear within ${WAIT_DEADLINE_S}s"
    fi
    sleep 0.1
done
# The socket exists; a ping proves the accept loop is live too.
"$BIN" request --socket "$SOCK" --request '{"op":"ping"}' \
    | grep -q '"pong":true' || fail "daemon did not answer a ping"

# 0. The eviction and table counters exist from the start, so a
# scraper's rates do not begin mid-run with the first table.
"$BIN" stats --socket "$SOCK" --format prom > "$DIR/fresh.prom"
for series in mapper_cache_evicted mapper_table_builds mapper_table_hits \
    mapper_table_leaves mapper_table_bytes; do
    grep -q "^nnbaton_${series}_total 0\$" "$DIR/fresh.prom" \
        || fail "fresh daemon misses $series: $(cat "$DIR/fresh.prom")"
done

# 1. Post request -> bit-identical to the CLI export; the repeat's
# second misses build the shapes' tables and search on them, with the
# same bytes.
REQ='{"op":"post","modelText":"model tiny 32\nconv c1 8 8 64 16 3 3 1\nfc head 64 128\n"}'
"$BIN" request --socket "$SOCK" --request "$REQ" > "$DIR/serve.json"
cmp "$DIR/cli.json" "$DIR/serve.json" \
    || fail "served response differs from the one-shot CLI export"
"$BIN" request --socket "$SOCK" --request "$REQ" > "$DIR/serve2.json"
cmp "$DIR/cli.json" "$DIR/serve2.json" \
    || fail "repeated response differs from the one-shot CLI export"
"$BIN" request --socket "$SOCK" --request '{"op":"stats"}' \
    > "$DIR/cache.json"
grep -q '"cache":{[^}]*"builds":[1-9]' "$DIR/cache.json" \
    || fail "stats op reports no table build: $(cat "$DIR/cache.json")"

# 2. `nn-baton stats` scrapes the live daemon in all three formats.
"$BIN" stats --socket "$SOCK" --format table > "$DIR/stats.table"
grep -q 'serve.request_ns' "$DIR/stats.table" \
    || fail "stats table misses serve.request_ns: $(cat "$DIR/stats.table")"
grep -q 'p50' "$DIR/stats.table" \
    || fail "stats table misses quantiles"
grep -q 'mapper.cache.misses' "$DIR/stats.table" \
    || fail "stats table misses cache counters"

"$BIN" stats --socket "$SOCK" --format json > "$DIR/stats.json"
grep -q '"histograms"' "$DIR/stats.json" \
    || fail "stats json misses histograms"
grep -q '"serve.request_ns"' "$DIR/stats.json" \
    || fail "stats json misses serve.request_ns"
grep -q '"p99"' "$DIR/stats.json" || fail "stats json misses p99"

"$BIN" stats --socket "$SOCK" --format prom > "$DIR/stats.prom"
grep -q '^# TYPE nnbaton_serve_request_ns histogram' "$DIR/stats.prom" \
    || fail "prom exposition misses the latency histogram TYPE line"
grep -q '^nnbaton_serve_request_ns_bucket{le="+Inf"} ' "$DIR/stats.prom" \
    || fail "prom exposition misses the +Inf bucket"
grep -q '^nnbaton_serve_request_ns_p50 ' "$DIR/stats.prom" \
    || fail "prom exposition misses p50"
grep -q '^nnbaton_serve_requests_total ' "$DIR/stats.prom" \
    || fail "prom exposition misses the requests counter"
# Minimal lint: no sample line may have anything but name/labels/value.
if grep -vE '^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eEinf-]+)$' \
    "$DIR/stats.prom" > "$DIR/stats.lint"; then
    fail "prom exposition lint: $(cat "$DIR/stats.lint")"
fi

# 3. The access log audited every request so far, one JSON line each,
# and the 1us SLO flagged the slow post request.
grep -q '"op":"post"' "$DIR/access.log" \
    || fail "access log misses the post request: $(cat "$DIR/access.log")"
grep -q '"op":"ping"' "$DIR/access.log" \
    || fail "access log misses the ping"
grep -q '"outcome":"OK"' "$DIR/access.log" \
    || fail "access log misses outcomes"
grep -q 'nnbaton_serve_slo_violations_total [1-9]' "$DIR/stats.prom" \
    || fail "SLO violation not counted: $(grep slo "$DIR/stats.prom")"

# 4. Malformed request -> structured error, client exits non-zero.
set +e
"$BIN" request --socket "$SOCK" --request '][,' > "$DIR/err.json"
RC=$?
set -e
[[ $RC -eq 1 ]] || fail "malformed request: client exit $RC, want 1"
grep -q '"ok":false' "$DIR/err.json" \
    || fail "malformed request: no error envelope: $(cat "$DIR/err.json")"
grep -q '"code":"INVALID_ARGUMENT"' "$DIR/err.json" \
    || fail "malformed request: wrong code: $(cat "$DIR/err.json")"

# 5. A line one byte over the 64 MiB bound, with no newline: the
# daemon can refuse it only after reading every byte, so it answers
# with one envelope line and closes a drained socket (a clean EOF).
# A daemon that buffers without limit never answers, and the client's
# timeout fails the step.
python3 - "$SOCK" > "$DIR/big.json" << 'PY' \
    || fail "oversized line: no envelope then EOF: $(cat "$DIR/big.json")"
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(60)
s.connect(sys.argv[1])
s.sendall(b"x" * ((64 << 20) + 1))
reply = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    reply += chunk
sys.stdout.write(reply.decode())
sys.exit(0 if reply.count(b"\n") == 1 and reply.endswith(b"\n") else 1)
PY
grep -q '"ok":false' "$DIR/big.json" \
    || fail "oversized line: no error envelope: $(cat "$DIR/big.json")"
grep -q '"code":"INVALID_ARGUMENT"' "$DIR/big.json" \
    || fail "oversized line: wrong code: $(cat "$DIR/big.json")"
"$BIN" request --socket "$SOCK" --request '{"op":"ping"}' \
    | grep -q '"pong":true' \
    || fail "daemon did not answer a ping after an oversized line"

# 6. Shutdown op stops the daemon with exit 0.
"$BIN" request --socket "$SOCK" --request '{"op":"shutdown"}' \
    > /dev/null
wait "$DAEMON_PID"
RC=$?
DAEMON_PID=
[[ $RC -eq 0 ]] || fail "daemon exit $RC after shutdown, want 0"

# 7. Counts past INT_MAX are refused before anything connects or
# listens; a wrapped --retries 4294967296 used to retry zero times.
# The serve case runs under a timeout, so a build that accepts the
# count and starts a daemon fails the step instead of hanging it.
set +e
"$BIN" request --socket "$SOCK" --retries 4294967296 \
    --request '{"op":"ping"}' > /dev/null 2> "$DIR/retries.err"
RC=$?
timeout 10 "$BIN" serve --socket "$DIR/wrap.sock" \
    --max-inflight 4294967296 > /dev/null 2> "$DIR/inflight.err"
RC2=$?
set -e
[[ $RC -eq 2 ]] \
    || fail "--retries 4294967296: exit $RC, want 2: $(cat "$DIR/retries.err")"
grep -q 'out of range' "$DIR/retries.err" \
    || fail "--retries 4294967296: $(cat "$DIR/retries.err")"
[[ $RC2 -eq 2 ]] \
    || fail "--max-inflight 4294967296: exit $RC2, want 2: $(cat "$DIR/inflight.err")"
grep -q 'out of range' "$DIR/inflight.err" \
    || fail "--max-inflight 4294967296: $(cat "$DIR/inflight.err")"

echo "serve_smoke: PASS"
