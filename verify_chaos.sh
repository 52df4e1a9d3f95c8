#!/bin/bash
# Network-fault chaos against the *release binaries* as real processes,
# loopback-only and offline. The deterministic ports of these scenarios
# live in-tree (crates/ilt-cluster/tests/chaos.rs, tests/wire_fuzz.rs);
# this script drives the self-healing story end to end through curl:
#   1. a two-replica cluster starts a sharded job; replica A stalls the
#      shard that carries job 0 on the wire (`read_stall`) so it turns
#      into a straggler;
#   2. replica B is killed -9 mid-job; the heartbeat monitor declares it
#      dead and its shards are recovered (by a speculative copy already
#      racing them, or by re-dispatch);
#   3. a replacement worker started with `--register` announces itself to
#      the coordinator mid-job and picks up the slack, including the
#      speculative re-execution of the stalled straggler shard;
#   4. the finished mask is byte-identical to the same configuration run
#      through `ilt batch`, and the metrics endpoint shows the join, the
#      recovery, the speculation, and the per-worker breaker gauge.
set -e
BIN=./target/release/ilt
OUT=bench-out/chaos
mkdir -p "$OUT"
CURL="curl -sS --max-time 30"
# The batch CLI has no --iters override, so the served query must omit
# `iters=` too for the byte-identity comparison to be apples-to-apples.
Q='via=7&grid=128&kernels=3&tile=64&halo=8&threads=1&eval=0'

# --- The in-tree port of these scenarios is the source of truth. ---------
cargo test -q -p ilt-cluster --test chaos > "$OUT/cargo-test.log" 2>&1 \
    || { echo "CHAOS_FAILED: in-tree chaos tests"; tail -40 "$OUT/cargo-test.log"; exit 1; }
cargo test -q -p ilt-cluster --test wire_fuzz >> "$OUT/cargo-test.log" 2>&1 \
    || { echo "CHAOS_FAILED: in-tree wire_fuzz tests"; tail -40 "$OUT/cargo-test.log"; exit 1; }
echo "in-tree chaos + wire_fuzz tests passed"

# --- Reference: the batch CLI on the same configuration. -----------------
"$BIN" batch --threads 1 --grid 128 --kernels 3 --tile 64 --halo 8 \
    --no-eval --out "$OUT/ref" --journal "$OUT/ref.jsonl" via7 \
    > "$OUT/ref.log" 2>&1

listen_line() { sed -n 's#^.*listening on \(http://.*\)$#\1#p' "$1"; }
await_listen() { # logfile pid
    for _ in $(seq 50); do
        ADDR=$(listen_line "$1")
        [ -n "$ADDR" ] && return 0
        kill -0 "$2" 2>/dev/null || { cat "$1"; return 1; }
        sleep 0.1
    done
    return 1
}

# Replicas A and (later) C stall the wire response of whatever shard
# carries job 0 for 8 s on every attempt — they compute fine, their
# network is molasses — so that shard is a straggler wherever it lands.
# Replica B stalls *every* shard for 2 s, guaranteeing the kill below
# catches it mid-shard (forcing a heartbeat-detected re-dispatch).
STRAGGLE='read_stall@0=8000'
B_STALLS=$(seq -s, 0 8 | sed 's/[0-9]*/read_stall@&=2000/g')
rm -f "$OUT"/worker-a.log "$OUT"/worker-b.log "$OUT"/worker-c.log "$OUT"/serve.log
"$BIN" worker --addr 127.0.0.1:0 --inject "$STRAGGLE" \
    > "$OUT/worker-a.log" 2>&1 &
WA_PID=$!
"$BIN" worker --addr 127.0.0.1:0 --inject "$B_STALLS" \
    > "$OUT/worker-b.log" 2>&1 &
WB_PID=$!
disown "$WB_PID" 2>/dev/null || true # no job-control noise for the kill -9 below
await_listen "$OUT/worker-a.log" "$WA_PID" \
    || { echo "CHAOS_FAILED: worker A never listened"; exit 1; }
WA=$(listen_line "$OUT/worker-a.log"); WA=${WA#http://}
await_listen "$OUT/worker-b.log" "$WB_PID" \
    || { echo "CHAOS_FAILED: worker B never listened"; exit 1; }
WB=$(listen_line "$OUT/worker-b.log"); WB=${WB#http://}
"$BIN" serve --addr 127.0.0.1:0 --threads 1 --workers "$WA,$WB" \
    --heartbeat-ms 100 --speculate-factor 1.5 --speculate-after 1 \
    > "$OUT/serve.log" 2>&1 &
CO_PID=$!
await_listen "$OUT/serve.log" "$CO_PID" \
    || { echo "CHAOS_FAILED: coordinator never listened"; exit 1; }
BASE=$(listen_line "$OUT/serve.log")

WC_PID=""
cleanup() {
    kill "$CO_PID" "$WA_PID" "$WB_PID" $WC_PID 2>/dev/null || true
}
trap cleanup EXIT

# --- Submit, then tear the cluster apart under the job. ------------------
ACCEPT=$($CURL -X POST "$BASE/v1/jobs?$Q")
echo "$ACCEPT" | grep -q '"state":"queued"' \
    || { echo "CHAOS_FAILED: submit: $ACCEPT"; exit 1; }
JOB_ID=$(echo "$ACCEPT" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')

sleep 0.5
kill -9 "$WB_PID" 2>/dev/null || true
echo "killed worker B mid-job"
# The replacement self-registers with the coordinator and picks up queued
# shards — including the speculative copy of A's stalled straggler.
"$BIN" worker --addr 127.0.0.1:0 --inject "$STRAGGLE" --register "${BASE#http://}" \
    > "$OUT/worker-c.log" 2>&1 &
WC_PID=$!
await_listen "$OUT/worker-c.log" "$WC_PID" \
    || { echo "CHAOS_FAILED: replacement worker never listened"; exit 1; }
for _ in $(seq 50); do
    grep -q 'registered with coordinator' "$OUT/worker-c.log" && break
    sleep 0.1
done
grep -q 'registered with coordinator' "$OUT/worker-c.log" \
    || { echo "CHAOS_FAILED: replacement never registered"; cat "$OUT/worker-c.log"; exit 1; }
echo "replacement worker registered mid-job"

STATE=queued
for _ in $(seq 600); do
    DETAIL=$($CURL "$BASE/v1/jobs/$JOB_ID")
    STATE=$(echo "$DETAIL" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$STATE" = done ] && break
    [ "$STATE" = failed ] && { echo "CHAOS_FAILED: job failed: $DETAIL"; exit 1; }
    sleep 0.5
done
[ "$STATE" = done ] || { echo "CHAOS_FAILED: job stuck in $STATE"; exit 1; }
$CURL -o "$OUT/chaos_mask.pgm" "$BASE/v1/jobs/$JOB_ID/mask"

# --- The chaos invariant: the mask is still byte-identical. --------------
if ! cmp -s "$OUT/ref_via7_mask.pgm" "$OUT/chaos_mask.pgm"; then
    echo "CHAOS_MISMATCH: mask under chaos differs from 'ilt batch' output"
    exit 1
fi
echo "mask under kill/join/straggler chaos is byte-identical to the batch CLI mask"

# --- And the telemetry tells the story. ----------------------------------
$CURL "$BASE/metrics" > "$OUT/metrics.txt"
metric() { awk -v m="$1" '$1 == m { print $2 }' "$OUT/metrics.txt"; }
JOINED=$(metric ilt_members_joined_total)
[ "${JOINED:-0}" -ge 3 ] \
    || { echo "CHAOS_FAILED: members_joined=$JOINED, expected >= 3"; exit 1; }
# B's in-flight shards (all stalled on the wire) come back one of two
# ways, depending on who is first: a speculative copy already racing the
# stalled dispatch wins, or the dispatch that died with B is retried on
# another replica. The re-dispatch counter moves only for the second.
HB_FAILS=$(metric ilt_worker_heartbeat_failures_total)
[ "${HB_FAILS:-0}" -ge 1 ] \
    || { echo "CHAOS_FAILED: the kill was never noticed by the heartbeat monitor"; exit 1; }
REDISPATCHED=$(metric ilt_shards_redispatched_total)
SPEC_WINS=$(metric ilt_speculation_wins_total)
[ $(( ${REDISPATCHED:-0} + ${SPEC_WINS:-0} )) -ge 1 ] \
    || { echo "CHAOS_FAILED: neither a re-dispatch nor a speculation win after the kill"; exit 1; }
SPECULATED=$(metric ilt_shards_speculated_total)
[ "${SPECULATED:-0}" -ge 1 ] \
    || { echo "CHAOS_FAILED: the straggler was never speculated"; exit 1; }
grep -q 'ilt_worker_breaker_state{' "$OUT/metrics.txt" \
    || { echo "CHAOS_FAILED: per-worker breaker gauge missing"; exit 1; }
MEMBERS=$($CURL "$BASE/v1/members")
echo "$MEMBERS" | grep -q "\"addr\":\"$WA\"" \
    || { echo "CHAOS_FAILED: /v1/members lost replica A: $MEMBERS"; exit 1; }
echo "chaos telemetry: joined=$JOINED redispatched=$REDISPATCHED speculated=$SPECULATED speculation_wins=$SPEC_WINS"

# --- Graceful teardown. --------------------------------------------------
$CURL -X POST "$BASE/v1/shutdown" > /dev/null
for _ in $(seq 100); do
    kill -0 "$CO_PID" 2>/dev/null || break
    sleep 0.1
done
trap - EXIT
cleanup
echo CHAOS_VERIFIED
