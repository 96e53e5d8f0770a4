#!/usr/bin/env bash
# End-to-end check of the binaries, the one script behind CI's `e2e` job:
#
#   1. flat:        uei-serve -gen boots, serves a session, drains on SIGTERM
#   2. sharded:     an S = 2 store is detected without -shards; a short
#                   uei-loadgen fleet runs against it and joins its trace
#   3. distributed: two uei-shardd workers at R = 2, one killed mid-session,
#                   and no step or result may report degraded
#   4. live:        append-while-exploring over HTTP, uei-ingest -inspect
#                   and -verify
#   5. old format:  a store whose manifest says format 1 fails -verify,
#                   naming the rebuild
#
# Every server runs under -trace and every trace must pass uei-trace -strict.
# Run it from anywhere: bash ci/e2e.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in ${pids[@]+"${pids[@]}"}; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# pick_port VAR assigns VAR a loopback port nothing listens on and no
# earlier call returned.
taken=" "
pick_port() {
  local candidate
  while :; do
    candidate=$((20000 + RANDOM % 20000))
    case "$taken" in *" $candidate "*) continue ;; esac
    if ! (exec 3<>"/dev/tcp/127.0.0.1/$candidate") 2>/dev/null; then
      taken+="$candidate "
      printf -v "$1" '%s' "$candidate"
      return
    fi
  done
}

# spawn LOG CMD... starts CMD in the background; its pid is $!.
spawn() {
  local log=$1
  shift
  "$@" >"$work/$log" 2>&1 &
  pids+=($!)
}

# wait_http URL polls until URL answers 2xx (10 s).
wait_http() {
  for _ in $(seq 1 50); do
    curl -sf "$1" >/dev/null && return 0
    sleep 0.2
  done
  fail "$1 never became ready"
}

# drain PID sends SIGTERM and requires a clean exit.
drain() {
  kill -TERM "$1"
  wait "$1" || fail "pid $1 did not exit cleanly on SIGTERM"
}

# new_session BASE BODY prints the id of a freshly created session.
new_session() {
  curl -sf -XPOST "$1/v1/sessions" -d "$2" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

# run_session BASE ID MAXSTEPS steps the session to done, requiring a trace
# id on every response and that no step degrades. on_step, when defined,
# runs after each step with the step number.
run_session() {
  local base=$1 id=$2 max=$3 i
  for i in $(seq 1 "$max"); do
    curl -sf -D "$work/headers.txt" -XPOST "$base/v1/sessions/$id/step" -o "$work/step.json"
    grep -qi '^x-uei-trace-id:' "$work/headers.txt" || fail "step $i response missing X-Uei-Trace-Id"
    if grep -q '"degraded":true' "$work/step.json"; then
      fail "step $i degraded"
    fi
    if declare -F on_step >/dev/null; then on_step "$i"; fi
    if grep -q '"done":true' "$work/step.json"; then return 0; fi
  done
  fail "session $id not done after $max steps"
}

# strict_trace FILE feeds a server trace through the strict analyzer:
# orphaned spans, malformed lines, a line without a trace id and an empty
# SLO report all fail.
strict_trace() {
  [ "$(grep -vc '"trace_id"' "$work/$1")" = 0 ] || fail "$1 holds lines without a trace_id"
  "$bin/uei-trace" -strict -top 3 "$work/$1" >"$work/$1.report" || {
    cat "$work/$1.report"
    fail "uei-trace -strict rejected $1"
  }
  grep -q 'SLO COMPLIANCE' "$work/$1.report" || fail "malformed SLO report for $1"
}

bin=$work/bin
go build -o "$bin/" ./cmd/uei-serve ./cmd/uei-ingest ./cmd/uei-shardd ./cmd/uei-trace ./cmd/uei-loadgen
oracle='{"max_labels":8,"oracle":{"selectivity":0.01}}'

echo "== flat: boot, session, metrics, SIGTERM drain"
pick_port port
base=http://127.0.0.1:$port
spawn flat.log "$bin/uei-serve" -gen 20000 -addr "127.0.0.1:$port" -idle-timeout 1m \
  -trace "$work/flat.jsonl" -slo 500ms
srv=$!
wait_http "$base/readyz"
run_session "$base" "$(new_session "$base" "$oracle")" 12
curl -sf "$base/metrics" >"$work/metrics.txt"
grep -q 'uei_slo_steps_total' "$work/metrics.txt" || fail "uei_slo_steps_total missing from /metrics"
grep -q 'uei_step_latency_p95_seconds' "$work/metrics.txt" || fail "step latency percentiles missing from /metrics"
grep -q '^uei_kernel_vector_width [14]$' "$work/metrics.txt" || fail "uei_kernel_vector_width missing from /metrics"
drain "$srv"
strict_trace flat.jsonl

echo "== sharded: S = 2 detected without -shards, short loadgen fleet"
"$bin/uei-ingest" -gen 20000 -shards 2 -chunk 4096 -out "$work/sharded" \
  -trace "$work/ingest.jsonl" >/dev/null
# A non-server trace is no step: the analyzer lists it under its own root
# and reports zero steps. Not -strict, which demands a step; the report
# itself must be well-formed.
"$bin/uei-trace" "$work/ingest.jsonl" >"$work/ingest.report" || fail "uei-trace rejected the ingest trace"
grep -q '^  no traced steps$' "$work/ingest.report" || fail "an ingest trace was reported as steps"
grep -A2 '^OTHER ROOTS$' "$work/ingest.report" | grep -q '^  ingest  *traces 1 ' ||
  fail "the ingest trace is not listed under its own root"
if grep -q 'ORPHANED SPANS' "$work/ingest.report"; then fail "the ingest trace has orphaned spans"; fi
"$bin/uei-ingest" -verify "$work/sharded" >/dev/null || fail "a freshly built sharded store fails -verify"
pick_port port
base=http://127.0.0.1:$port
spawn sharded.log "$bin/uei-serve" -store "$work/sharded" -addr "127.0.0.1:$port" \
  -trace "$work/sharded.jsonl"
srv=$!
wait_http "$base/readyz"
curl -sf "$base/readyz" >"$work/ready.json"
grep -q '"shards":2' "$work/ready.json" || fail '/readyz does not report "shards":2'
run_session "$base" "$(new_session "$base" "$oracle")" 12
"$bin/uei-loadgen" -addr "127.0.0.1:$port" -profile static -users 8 \
  -join-trace "$work/sharded.jsonl" >"$work/loadgen.txt" 2>&1 || {
  cat "$work/loadgen.txt"
  fail "uei-loadgen exited nonzero (it does on any failed request)"
}
grep -E '^(loadgen|steps|slo|trace_join) ' "$work/loadgen.txt"
grep -q '^trace_join .* missing=0 ' "$work/loadgen.txt" || fail "loadgen trace ids missing from the server trace"
drain "$srv"
strict_trace sharded.jsonl

echo "== distributed: two workers at R = 2, one killed mid-session"
pick_port w1port
pick_port w2port
spawn w1.log "$bin/uei-shardd" -store "$work/sharded" -addr "127.0.0.1:$w1port" -quiet
w1=$!
spawn w2.log "$bin/uei-shardd" -store "$work/sharded" -addr "127.0.0.1:$w2port" -quiet
w2=$!
wait_http "http://127.0.0.1:$w1port/healthz"
wait_http "http://127.0.0.1:$w2port/healthz"
pick_port port
base=http://127.0.0.1:$port
spawn dist.log "$bin/uei-serve" -shard-endpoints "127.0.0.1:$w1port,127.0.0.1:$w2port" \
  -replication 2 -hedge-delay 50ms -addr "127.0.0.1:$port" \
  -snapshot-dir "$work/dist-sessions" -trace "$work/dist.jsonl" -slo 500ms
srv=$!
wait_http "$base/readyz"
on_step() {
  if [ "$1" = 3 ]; then
    echo "killing worker 1 mid-session"
    kill -TERM "$w1"
  fi
}
id=$(new_session "$base" '{"max_labels":10,"oracle":{"selectivity":0.01}}')
run_session "$base" "$id" 14
unset -f on_step
curl -sf "$base/v1/sessions/$id/result" -o "$work/result.json"
if grep -q '"degraded":true' "$work/result.json"; then
  fail "result retrieval degraded despite a surviving replica"
fi
drain "$srv"
drain "$w2"
strict_trace dist.jsonl

echo "== live: append while exploring, inspect"
"$bin/uei-ingest" -gen 20000 -live -chunk 4096 -out "$work/live" >/dev/null
"$bin/uei-ingest" -inspect "$work/live" >/dev/null
pick_port port
base=http://127.0.0.1:$port
spawn live.log "$bin/uei-serve" -store "$work/live" -live -addr "127.0.0.1:$port" \
  -trace "$work/live.jsonl"
srv=$!
wait_http "$base/readyz"
# An interactive session's first proposal is an in-bounds row to append.
row=$(curl -sf -XPOST "$base/v1/sessions/$(new_session "$base" '{"max_labels":5}')/step" |
  sed -n 's/.*"row":\[\([^]]*\)\].*/\1/p')
[ -n "$row" ] || fail "no proposal row harvested"
on_step() {
  curl -sf -XPOST "$base/v1/append" -d "{\"rows\":[[$row]]}" -o "$work/append.json"
  grep -q '"epoch"' "$work/append.json" || fail "append not acknowledged: $(cat "$work/append.json")"
}
run_session "$base" "$(new_session "$base" "$oracle")" 12
unset -f on_step
drain "$srv"
"$bin/uei-ingest" -inspect "$work/live" >"$work/inspect.txt"
grep -q 'epoch' "$work/inspect.txt" || fail "inspect lost the manifest"
"$bin/uei-ingest" -verify "$work/live" >/dev/null || fail "the live store fails -verify after appends"
strict_trace live.jsonl

echo "== old format: refused, naming the rebuild"
"$bin/uei-ingest" -gen 6000 -chunk 4096 -out "$work/old" >/dev/null
sed -i 's/"format_version": 2/"format_version": 1/' "$work/old/manifest.json"
grep -q '"format_version": 1' "$work/old/manifest.json" || fail "the manifest was not rewritten to format 1"
if "$bin/uei-ingest" -verify "$work/old" >"$work/old.txt" 2>&1; then
  fail "-verify accepted a format-1 store"
fi
grep -q 'rebuild the store with uei-ingest' "$work/old.txt" || fail "-verify did not name the rebuild: $(cat "$work/old.txt")"

echo "e2e: ok"
