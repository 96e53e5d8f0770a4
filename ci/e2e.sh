#!/usr/bin/env bash
# End-to-end check of the binaries, the one script behind CI's `e2e` job:
#
#   1. one shard:   uei-serve -gen boots over a one-shard store, serves a
#                   session, drains on SIGTERM
#   2. sharded:     an S = 2 store — the multi-part layout's first epoch,
#                   CURRENT over seg-NNNNNN/ parts, with no wal/ — is
#                   detected without -shards; four oracle sessions step
#                   against it at once, every step's X-Uei-Trace-Id must
#                   be a step in the server's trace, and serving it leaves
#                   it static (no wal/)
#   3. live:        the same layout plus wal/: append-while-exploring over
#                   HTTP, flushed on a 100 ms timer, uei-ingest -inspect (the
#                   appends rest in flushed segments, and no chunk straddles
#                   a grid segment boundary) and -verify (parts, then the
#                   WAL as opening the store would replay it)
#   4. old format:  a store whose part manifest says format 3 (raw
#                   values and raw idmaps) fails -verify, naming the
#                   rebuild; so does a store of the
#                   retired flat layout (a one-shard store's seg-000001/
#                   files at the top level) under -inspect and -verify
#   5. csv:         a 20 000-row CSV streamed into a one-shard store (no
#                   idmap), an S = 2 one and a -live one, all passing
#                   -verify, the first two with no chunk straddling a grid
#                   segment boundary, the first storing each column's
#                   values in under 8 bytes a row (gap-coded); the one-shard store recorded over
#                   another grid straddles and still passes -verify; a nan
#                   field (at one shard and at S = 2) and a
#                   header-only file (at S = 2) fail the build naming the
#                   physical line and the column, and leave -out as the
#                   build found it (absent: no CURRENT, no seg-*);
#                   -external is an unknown flag
#   6. idmap:       one flipped byte of seg-000002/idmap (shard 1's part)
#                   fails -verify, naming the part
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

echo "== one shard: boot, session, metrics, SIGTERM drain"
pick_port port
base=http://127.0.0.1:$port
spawn one.log "$bin/uei-serve" -gen 20000 -addr "127.0.0.1:$port" -idle-timeout 1m \
  -trace "$work/one.jsonl" -slo 500ms
srv=$!
wait_http "$base/readyz"
run_session "$base" "$(new_session "$base" "$oracle")" 12
curl -sf "$base/metrics" >"$work/metrics.txt"
grep -q 'uei_slo_steps_total' "$work/metrics.txt" || fail "uei_slo_steps_total missing from /metrics"
grep -q 'uei_step_latency_p95_seconds' "$work/metrics.txt" || fail "step latency percentiles missing from /metrics"
grep -q '^uei_kernel_vector_width [14]$' "$work/metrics.txt" || fail "uei_kernel_vector_width missing from /metrics"
drain "$srv"
strict_trace one.jsonl

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
# The stores hold every data file open, one per (shard, dimension).
curl -sf "$base/metrics" >"$work/sharded-metrics.txt"
open_files=$(sed -n 's/^uei_chunkstore_open_files \([0-9]*\)$/\1/p' "$work/sharded-metrics.txt")
chk_files=$(find "$work/sharded" -name '*.chk' | wc -l)
[ -n "$open_files" ] || fail "uei_chunkstore_open_files missing from /metrics"
[ "$open_files" -eq "$chk_files" ] ||
  fail "uei_chunkstore_open_files = $open_files after four sessions, want $chk_files"
echo "open_files=$open_files of $chk_files data files"
drain "$srv"
[ ! -e "$work/sharded/wal" ] || fail "serving a static store made it live (wal/ appeared)"
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
  -flush-interval 100ms -trace "$work/live.jsonl"
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
grep -Eq 'segments: +([2-9]|[1-9][0-9]+)$' "$work/inspect.txt" || fail "the appends reached no flushed segment: $(grep 'segments:' "$work/inspect.txt")"
grep -Eq 'straddling: +0 chunk' "$work/inspect.txt" || fail "the live store holds chunks straddling a grid segment boundary after appends: $(grep straddling "$work/inspect.txt")"
"$bin/uei-ingest" -verify "$work/live" >/dev/null || fail "the live store fails -verify after appends"
strict_trace live.jsonl

echo "== old format: refused, naming the rebuild"
"$bin/uei-ingest" -gen 6000 -chunk 4096 -out "$work/old" >/dev/null
sed -i 's/"format_version": 4/"format_version": 3/' "$work/old/seg-000001/manifest.json"
grep -q '"format_version": 3' "$work/old/seg-000001/manifest.json" || fail "the manifest was not rewritten to format 3"
if "$bin/uei-ingest" -verify "$work/old" >"$work/old.txt" 2>&1; then
  fail "-verify accepted a format-3 store"
fi
grep -q 'rebuild the store with uei-ingest' "$work/old.txt" || fail "-verify did not name the rebuild: $(cat "$work/old.txt")"
# The retired flat layout is a one-shard store's part at the top level,
# without the epoch around it.
"$bin/uei-ingest" -gen 6000 -chunk 4096 -out "$work/flat" >/dev/null
mv "$work/flat/seg-000001/"* "$work/flat/"
rm -r "$work/flat/seg-000001" "$work/flat/CURRENT" "$work/flat/manifest-000001.json"
[ -e "$work/flat/manifest.json" ] && [ -e "$work/flat/d00.chk" ] || fail "the flat fixture has no top-level manifest.json and d00.chk"
for mode in -inspect -verify; do
  if "$bin/uei-ingest" "$mode" "$work/flat" >"$work/flat.txt" 2>&1; then
    fail "$mode accepted a flat store"
  fi
  grep -q 'rebuild the store with uei-ingest' "$work/flat.txt" || fail "$mode did not name the rebuild of a flat store: $(cat "$work/flat.txt")"
done

echo "== csv: streamed one-shard, S = 2 and live builds; bad files refused by line and column"
awk 'BEGIN { srand(6); print "a,b,c,d,e"
  for (i = 0; i < 20000; i++) printf "%.4f,%.4f,%.4f,%.4f,%.4f\n", rand()*100, rand()*50, rand()*10, rand(), rand()*1000 }' >"$work/rows.csv"
"$bin/uei-ingest" -csv "$work/rows.csv" -chunk 4096 -out "$work/csvflat" >/dev/null
"$bin/uei-ingest" -verify "$work/csvflat" >/dev/null || fail "a streamed -csv store fails -verify"
[ -e "$work/csvflat/CURRENT" ] || fail "the streamed -csv build committed no store"
[ -z "$(find "$work/csvflat" -name idmap)" ] || fail "the streamed one-shard store holds an idmap"
"$bin/uei-ingest" -inspect "$work/csvflat" >"$work/csvflat.txt"
grep -Eq 'rows: +20000$' "$work/csvflat.txt" || fail "-inspect does not report 20000 rows"
grep -Eq 'straddling: +0 chunk' "$work/csvflat.txt" || fail "the one-shard store holds chunks straddling a grid segment boundary"
[ "$(grep -c 'value [a-e]: ' "$work/csvflat.txt")" = 5 ] || fail "-inspect does not report the values of five columns: $(cat "$work/csvflat.txt")"
awk '/value [a-e]: / && $3 + 0 >= 8 { bad = 1; print } END { exit bad }' "$work/csvflat.txt" || fail "a column of the one-shard store takes 8 or more value bytes a row"
# Aligned chunks are a property of the writer, not a format rule: the same
# store recorded over another grid straddles its boundaries and still
# passes -verify.
cp -r "$work/csvflat" "$work/regrid"
sed -i 's/"segments_per_dim": 5/"segments_per_dim": 3/' "$work/regrid/manifest-000001.json"
"$bin/uei-ingest" -inspect "$work/regrid" | grep -Eq 'straddling: +[1-9][0-9]* chunk' || fail "-inspect finds no straddling chunk over a grid the store was not cut on"
"$bin/uei-ingest" -verify "$work/regrid" >/dev/null || fail "-verify refused a store whose chunks straddle a grid segment boundary"
"$bin/uei-ingest" -csv "$work/rows.csv" -shards 2 -chunk 4096 -out "$work/csvsharded" >/dev/null
"$bin/uei-ingest" -verify "$work/csvsharded" >/dev/null || fail "a streamed S = 2 -csv store fails -verify"
"$bin/uei-ingest" -inspect "$work/csvsharded" >"$work/csvsharded.txt"
grep -Eq 'rows: +20000$' "$work/csvsharded.txt" || fail "-inspect does not report 20000 rows at S = 2"
grep -Eq 'straddling: +0 chunk' "$work/csvsharded.txt" || fail "the S = 2 store holds chunks straddling a grid segment boundary"
"$bin/uei-ingest" -csv "$work/rows.csv" -live -chunk 4096 -out "$work/csvlive" >/dev/null
"$bin/uei-ingest" -verify "$work/csvlive" >/dev/null || fail "a streamed -live -csv store fails -verify"
[ -d "$work/csvlive/wal" ] || fail "the streamed -live build wrote no wal/"
# refuse NAME FILE SHARDS PATTERN: the build fails naming PATTERN and
# leaves no trace of itself in -out.
refuse() {
  if "$bin/uei-ingest" -csv "$2" -shards "$3" -chunk 4096 -out "$work/$1" >"$work/$1.txt" 2>&1; then
    fail "$1: a bad CSV was ingested"
  fi
  grep -q "$4" "$work/$1.txt" || fail "$1: the refusal does not name its line and column: $(cat "$work/$1.txt")"
  [ ! -e "$work/$1" ] || fail "$1: the refused build left $(ls -A "$work/$1" | tr '\n' ' ')in -out"
}
awk -F, -v OFS=, 'NR == 101 { $3 = "nan" } 1' "$work/rows.csv" >"$work/nan.csv"
refuse csvnan "$work/nan.csv" 1 'nan.csv line 101 field "c" (column [0-9]*): non-finite value "nan"'
refuse csvnan2 "$work/nan.csv" 2 'nan.csv line 101 field "c" (column [0-9]*): non-finite value "nan"'
printf 'a,b,c,d,e\n\n' >"$work/header.csv"
refuse csvheader "$work/header.csv" 2 'header.csv line 2: no rows after the header'
if "$bin/uei-ingest" -external -csv "$work/rows.csv" -out "$work/csvext" >"$work/ext.txt" 2>&1; then
  fail "-external is still accepted"
fi
grep -q 'flag provided but not defined: -external' "$work/ext.txt" || fail "-external is not an unknown flag: $(cat "$work/ext.txt")"

echo "== idmap: a flipped byte fails -verify, naming the file"
idmap="$work/csvsharded/seg-000002/idmap"
byte=$(od -An -tu1 -j12 -N1 "$idmap" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" | dd of="$idmap" bs=1 seek=12 conv=notrunc status=none
if "$bin/uei-ingest" -verify "$work/csvsharded" >"$work/idmap.txt" 2>&1; then
  fail "-verify accepted a store with a flipped idmap byte"
fi
grep -q 'seg-000002: shard: idmap corrupted' "$work/idmap.txt" || fail "-verify did not name the idmap: $(cat "$work/idmap.txt")"

echo "e2e: ok"
