#!/usr/bin/env bash
# End-to-end check of the binaries, the one script behind CI's `e2e` job:
#
#   1. flat:        uei-serve -gen boots, serves a session, drains on SIGTERM
#   2. sharded:     an S = 2 store is detected without -shards; four oracle
#                   sessions step against it at once, and every step's
#                   X-Uei-Trace-Id must be a step in the server's trace
#   3. live:        append-while-exploring over HTTP, uei-ingest -inspect
#                   and -verify
#   4. old format:  a store whose manifest says format 1 fails -verify,
#                   naming the rebuild
#   5. csv:         a 20 000-row CSV streamed into a flat store and read
#                   into an S = 2 one both pass -verify; a nan field fails
#                   the build naming its row and column and leaves no
#                   manifest; -external is an unknown flag
#   6. idmap:       one flipped byte of shard-001/idmap fails -verify,
#                   naming the file
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

# session_files BASE ID prints the path prefix of the session's own files:
# its last step's headers and body, and its trace ids, one a line.
session_files() {
  printf '%s' "$work/${1##*:}-$2"
}

# run_session BASE ID MAXSTEPS steps the session to done, requiring a trace
# id on every response and that no step degrades. Every file it writes is
# the session's own (session_files), so sessions can run concurrently.
# on_step, when defined, runs after each step with the step number.
run_session() {
  local base=$1 id=$2 max=$3 i tid files
  files=$(session_files "$base" "$id")
  for i in $(seq 1 "$max"); do
    curl -sf -D "$files.headers" -XPOST "$base/v1/sessions/$id/step" -o "$files.step.json"
    tid=$(sed -n 's/^x-uei-trace-id: *\([^[:space:]]*\).*/\1/Ip' "$files.headers")
    [ -n "$tid" ] || fail "session $id step $i response missing X-Uei-Trace-Id"
    echo "$tid" >>"$files.trace-ids"
    if grep -q '"degraded":true' "$files.step.json"; then
      fail "session $id step $i degraded"
    fi
    if declare -F on_step >/dev/null; then on_step "$i"; fi
    if grep -q '"done":true' "$files.step.json"; then return 0; fi
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
go build -o "$bin/" ./cmd/uei-serve ./cmd/uei-ingest ./cmd/uei-trace
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

echo "== sharded: S = 2 detected without -shards, four concurrent sessions"
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
ids=()
for seed in 1 2 3 4; do
  ids+=("$(new_session "$base" "{\"max_labels\":8,\"seed\":$seed,\"oracle\":{\"selectivity\":0.01}}")")
  [ -n "${ids[-1]}" ] || fail "session $seed was not created"
done
runners=()
for id in "${ids[@]}"; do
  run_session "$base" "$id" 12 &
  runners+=($!)
done
for pid in "${runners[@]}"; do
  wait "$pid" || fail "a concurrent session failed (pid $pid)"
done
# The stores keep the chunk files they have read open: some, and never
# more than the store has.
curl -sf "$base/metrics" >"$work/sharded-metrics.txt"
open_files=$(sed -n 's/^uei_chunkstore_open_files \([0-9]*\)$/\1/p' "$work/sharded-metrics.txt")
chk_files=$(find "$work/sharded" -name '*.chk' | wc -l)
[ -n "$open_files" ] || fail "uei_chunkstore_open_files missing from /metrics"
[ "$open_files" -gt 0 ] && [ "$open_files" -le "$chk_files" ] ||
  fail "uei_chunkstore_open_files = $open_files after four sessions, want 1..$chk_files"
echo "open_files=$open_files of $chk_files chunk files"
drain "$srv"
strict_trace sharded.jsonl
# Every trace id a client saw must root a step trace on the server.
matched=0
for id in "${ids[@]}"; do
  while read -r tid; do
    grep -F "\"trace_id\":\"$tid\"" "$work/sharded.jsonl" >"$work/join.jsonl" || true
    grep -q '"phase":"step"' "$work/join.jsonl" || fail "session $id trace id $tid is no step in sharded.jsonl"
    matched=$((matched + 1))
  done <"$(session_files "$base" "$id").trace-ids"
done
echo "trace_join sessions=${#ids[@]} matched=$matched missing=0"

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

echo "== csv: streamed flat build, sharded build, a non-finite field refused"
awk 'BEGIN { srand(6); print "a,b,c,d,e"
  for (i = 0; i < 20000; i++) printf "%.4f,%.4f,%.4f,%.4f,%.4f\n", rand()*100, rand()*50, rand()*10, rand(), rand()*1000 }' >"$work/rows.csv"
"$bin/uei-ingest" -csv "$work/rows.csv" -chunk 4096 -out "$work/csvflat" >/dev/null
"$bin/uei-ingest" -verify "$work/csvflat" >/dev/null || fail "a streamed -csv store fails -verify"
"$bin/uei-ingest" -inspect "$work/csvflat" | grep -Eq 'rows: +20000$' || fail "-inspect does not report 20000 rows"
"$bin/uei-ingest" -csv "$work/rows.csv" -shards 2 -chunk 4096 -out "$work/csvsharded" >/dev/null
"$bin/uei-ingest" -verify "$work/csvsharded" >/dev/null || fail "a sharded -csv store fails -verify"
awk -F, -v OFS=, 'NR == 101 { $3 = "nan" } 1' "$work/rows.csv" >"$work/nan.csv"
if "$bin/uei-ingest" -csv "$work/nan.csv" -chunk 4096 -out "$work/csvnan" >"$work/nan.txt" 2>&1; then
  fail "a CSV with a nan field was ingested"
fi
grep -q 'row 99 column "c": non-finite value' "$work/nan.txt" || fail "the nan refusal names no row and column: $(cat "$work/nan.txt")"
[ ! -e "$work/csvnan/manifest.json" ] || fail "the refused build left a manifest"
if "$bin/uei-ingest" -external -csv "$work/rows.csv" -out "$work/csvext" >"$work/ext.txt" 2>&1; then
  fail "-external is still accepted"
fi
grep -q 'flag provided but not defined: -external' "$work/ext.txt" || fail "-external is not an unknown flag: $(cat "$work/ext.txt")"

echo "== idmap: a flipped byte fails -verify, naming the file"
idmap="$work/csvsharded/shard-001/idmap"
byte=$(od -An -tu1 -j12 -N1 "$idmap" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" | dd of="$idmap" bs=1 seek=12 conv=notrunc status=none
if "$bin/uei-ingest" -verify "$work/csvsharded" >"$work/idmap.txt" 2>&1; then
  fail "-verify accepted a store with a flipped idmap byte"
fi
grep -q 'shard-001: shard: idmap corrupted' "$work/idmap.txt" || fail "-verify did not name the idmap: $(cat "$work/idmap.txt")"

echo "e2e: ok"
