#!/usr/bin/env bash
# Smoke-test the network query service end to end: boot it against a
# generated XMark instance, exercise the endpoints with curl, then
# SIGTERM it and require a clean, drained exit (status 0).  A second
# scenario boots with --data-dir, SIGKILLs the server mid-stream, and
# requires the restart to recover every acknowledged update.
#
#   scripts/server_smoke.sh [path/to/standoff_server.exe]
set -euo pipefail

BIN=${1:-./_build/default/bin/standoff_server.exe}
PORT=${PORT:-8123}
BASE="http://127.0.0.1:$PORT"
DOC='xmark-standoff-0.01.xml'

fail() { echo "FAIL: $*" >&2; exit 1; }

# wait_up PID LOG — spin until /healthz?ready=1 answers or PID dies.
# Bare /healthz answers as soon as the port is bound, before the
# documents are loaded and the engine is installed.
wait_up() {
  local pid=$1 logfile=$2 i
  for i in $(seq 1 100); do
    if curl -fsS "$BASE/healthz?ready=1" >/dev/null 2>&1; then return 0; fi
    kill -0 "$pid" 2>/dev/null \
      || { cat "$logfile" >&2; fail "server died during startup"; }
    sleep 0.2
  done
  cat "$logfile" >&2; fail "server never became healthy"
}

log=$(mktemp)
"$BIN" --xmark 0.01 --port "$PORT" --workers 2 >"$log" 2>&1 &
server_pid=$!
trap 'kill -9 $server_pid 2>/dev/null || true; rm -f "$log"' EXIT

# Wait for the engine to be installed (see wait_up).
up=0
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz?ready=1" >/dev/null 2>&1; then up=1; break; fi
  kill -0 $server_pid 2>/dev/null || { cat "$log" >&2; fail "server died during startup"; }
  sleep 0.2
done
[ "$up" = 1 ] || { cat "$log" >&2; fail "server never became healthy"; }

echo "== healthz"
[ "$(curl -fsS "$BASE/healthz")" = "ok" ] || fail "healthz body"

echo "== startup budget line"
grep -q 'domain budget' "$log" \
  || { cat "$log" >&2; fail "no resolved-domain-budget line in startup log"; }

echo "== query"
headers=$(mktemp)
body=$(curl -fsS -D "$headers" -X POST --data-binary \
  "count(doc(\"$DOC\")//site/select-narrow::regions)" \
  "$BASE/query?strategy=loop-lifted")
[ "$body" = "1" ] || fail "query answered '$body', expected '1'"
grep -qi '^x-request-id:' "$headers" || fail "missing X-Request-Id"
grep -qi '^x-standoff-cache:' "$headers" || fail "missing X-Standoff-Cache"
rm -f "$headers"

echo "== dataguide knob"
# ?dataguide=off must evaluate without the path index yet return the
# exact bytes of the default-on run above — the index is a pure
# performance knob.
body_nodg=$(curl -fsS -X POST --data-binary \
  "count(doc(\"$DOC\")//site/select-narrow::regions)" \
  "$BASE/query?strategy=loop-lifted&dataguide=off")
[ "$body_nodg" = "$body" ] \
  || fail "dataguide=off answered '$body_nodg', default-on said '$body'"
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST --data-binary \
  "count(doc(\"$DOC\")//site)" "$BASE/query?dataguide=sideways")
[ "$code" = 400 ] || fail "malformed dataguide= answered $code, expected 400"

echo "== query errors"
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST --data-binary \
  'this is not xquery (' "$BASE/query")
[ "$code" = 400 ] || fail "syntax error answered $code, expected 400"
code=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/nowhere")
[ "$code" = 404 ] || fail "unknown path answered $code, expected 404"

echo "== strict Content-Length"
# RFC 9110 allows digits only; a lenient parse would read 0x1 as 1 and
# wait for a body that never comes.
code=$(curl -sS -o /dev/null -w '%{http_code}' --max-time 10 \
  -H 'Content-Length: 0x1' "$BASE/healthz" || true)
[ "$code" = 400 ] || fail "Content-Length: 0x1 answered $code, expected 400"

echo "== explain"
curl -fsS "$BASE/explain?q=count(doc(%22$DOC%22)//site)" \
  | grep -q . || fail "explain returned an empty plan"

echo "== metrics"
metrics=$(curl -fsS "$BASE/metrics")
echo "$metrics" | grep -q 'standoff_server_requests_total{code="200"}' \
  || fail "metrics missing requests_total{code=\"200\"}"
echo "$metrics" | grep -q 'standoff_server_queue_depth' \
  || fail "metrics missing queue_depth gauge"

echo "== graceful shutdown"
kill -TERM $server_pid
status=0
wait $server_pid || status=$?
[ "$status" = 0 ] || { cat "$log" >&2; fail "server exited $status on SIGTERM"; }
grep -q 'drained' "$log" || { cat "$log" >&2; fail "no drain message in server log"; }
trap 'rm -f "$log"' EXIT

# ------------------------------------------------------------------
# Durability: acknowledged updates must survive kill -9.

workdir=$(mktemp -d)
datadir="$workdir/data"
dlog="$workdir/server.log"
printf '<t><p start="0" end="10"/><c start="2" end="8"/></t>' \
  >"$workdir/anno.xml"
trap 'kill -9 ${server_pid:-0} 2>/dev/null || true; rm -rf "$log" "$workdir"' EXIT
PROBE='count(doc("anno.xml")//p/select-narrow::c)'

echo "== durability: updates, then kill -9"
"$BIN" --doc "$workdir/anno.xml" --port "$PORT" --workers 2 \
  --data-dir "$datadir" --fsync always >"$dlog" 2>&1 &
server_pid=$!
wait_up $server_pid "$dlog"
# Two acknowledged updates; --fsync always means both are on disk the
# moment their 200s arrive.
curl -fsS -X POST \
  "$BASE/update?doc=anno.xml&op=set-region&pre=2&start=100&end=110" \
  | grep -q '"durable": true' || fail "update 1 not acknowledged as durable"
curl -fsS -X POST \
  "$BASE/update?doc=anno.xml&op=set-region&pre=3&start=102&end=108" \
  | grep -q '"ok": true' || fail "update 2 not acknowledged"
before=$(curl -fsS -X POST --data-binary "$PROBE" "$BASE/query")
[ "$before" = "1" ] || fail "pre-crash probe answered '$before', expected '1'"
kill -9 $server_pid
wait $server_pid 2>/dev/null || true

echo "== durability: recovery replays the acknowledged updates"
"$BIN" --doc "$workdir/anno.xml" --port "$PORT" --workers 2 \
  --data-dir "$datadir" --fsync always >"$dlog" 2>&1 &
server_pid=$!
wait_up $server_pid "$dlog"
grep -q 'replayed 2 WAL record' "$dlog" \
  || { cat "$dlog" >&2; fail "restart did not replay 2 WAL records"; }
after=$(curl -fsS -X POST --data-binary "$PROBE" "$BASE/query")
[ "$after" = "$before" ] \
  || fail "post-crash probe answered '$after', pre-crash said '$before'"

echo "== durability: operator snapshot, then a dirty SIGTERM"
curl -fsS -X POST "$BASE/admin/snapshot" | grep -q '"ok": true' \
  || fail "/admin/snapshot did not succeed"
# One more update after the snapshot, so shutdown has something to
# compact: p moves away from c and the probe flips to 0.
curl -fsS -X POST \
  "$BASE/update?doc=anno.xml&op=set-region&pre=2&start=200&end=210" \
  | grep -q '"ok": true' || fail "post-snapshot update not acknowledged"
kill -TERM $server_pid
status=0
wait $server_pid || status=$?
[ "$status" = 0 ] || { cat "$dlog" >&2; fail "durable server exited $status on SIGTERM"; }
grep -q 'writing shutdown snapshot' "$dlog" \
  || { cat "$dlog" >&2; fail "no shutdown-snapshot message"; }

echo "== durability: snapshot-only boot (no --doc)"
# The snapshot *is* the store now: boot without any seed documents.
"$BIN" --port "$PORT" --workers 2 --data-dir "$datadir" >"$dlog" 2>&1 &
server_pid=$!
wait_up $server_pid "$dlog"
grep -q 'snapshot lsn=' "$dlog" \
  || { cat "$dlog" >&2; fail "boot did not recover from a snapshot"; }
grep -q 'replayed 0 WAL record' "$dlog" \
  || { cat "$dlog" >&2; fail "snapshot boot replayed a non-empty WAL"; }
final=$(curl -fsS -X POST --data-binary "$PROBE" "$BASE/query")
[ "$final" = "0" ] || fail "snapshot boot probe answered '$final', expected '0'"
kill -TERM $server_pid
status=0
wait $server_pid || status=$?
[ "$status" = 0 ] || { cat "$dlog" >&2; fail "snapshot-boot server exited $status on SIGTERM"; }

# ------------------------------------------------------------------
# Bulk ingestion: one POST /ingest batch is one WAL record, and the
# whole batch survives kill -9.

ingestdir="$workdir/ingest-data"
ilog="$workdir/ingest.log"

echo "== ingest: batch of 3 framed documents"
"$BIN" --port "$PORT" --workers 2 --data-dir "$ingestdir" --fsync always \
  >"$ilog" 2>&1 &
server_pid=$!
wait_up $server_pid "$ilog"
d1='<doc><p><w>alpha</w> <w>beta</w></p></doc>'
d2='<doc><p><w>gamma</w></p></doc>'
d3='<doc><p><w>delta</w> <w>epsilon</w> <w>zeta</w></p></doc>'
batch="$workdir/batch.txt"
{
  printf '%s %d\n%s\n' doc1.xml "${#d1}" "$d1"
  printf '%s %d\n%s\n' doc2.xml "${#d2}" "$d2"
  printf '%s %d\n%s\n' doc3.xml "${#d3}" "$d3"
} >"$batch"
resp=$(curl -fsS -X POST --data-binary @"$batch" "$BASE/ingest")
echo "$resp" | grep -q '"ingested": 3' \
  || fail "ingest answered '$resp', expected 3 documents"
IPROBE='count(doc("doc1.xml")//p/select-narrow::w)'
got=$(curl -fsS -X POST --data-binary "$IPROBE" "$BASE/query")
[ "$got" = "2" ] || fail "ingest probe answered '$got', expected '2'"
kill -9 $server_pid
wait $server_pid 2>/dev/null || true

echo "== ingest: recovery replays the batch as one WAL record"
"$BIN" --port "$PORT" --workers 2 --data-dir "$ingestdir" --fsync always \
  >"$ilog" 2>&1 &
server_pid=$!
wait_up $server_pid "$ilog"
grep -q 'replayed 1 WAL record' "$ilog" \
  || { cat "$ilog" >&2; fail "restart did not replay exactly 1 WAL record"; }
after=$(curl -fsS -X POST --data-binary "$IPROBE" "$BASE/query")
[ "$after" = "2" ] || fail "post-crash ingest probe answered '$after', expected '2'"
# A second copy of doc1 must be refused batch-wide.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  --data-binary @"$batch" "$BASE/ingest")
[ "$code" = 409 ] || fail "duplicate ingest batch answered $code, expected 409"
kill -TERM $server_pid
status=0
wait $server_pid || status=$?
[ "$status" = 0 ] || { cat "$ilog" >&2; fail "ingest server exited $status on SIGTERM"; }

echo "== result cache: a constructing query hits on repeat"
clog="$workdir/cache.log"
"$BIN" --doc "$workdir/anno.xml" --port "$PORT" --workers 2 --cache result \
  >"$clog" 2>&1 &
server_pid=$!
wait_up $server_pid "$clog"
CQ='<cs>{doc("anno.xml")//p/select-narrow::c}</cs>'
b1=$(curl -fsS -D "$workdir/h1" -X POST --data-binary "$CQ" "$BASE/query")
b2=$(curl -fsS -D "$workdir/h2" -X POST --data-binary "$CQ" "$BASE/query")
[ "$b1" = '<cs><c start="2" end="8"/></cs>' ] \
  || fail "constructing query answered '$b1'"
[ "$b2" = "$b1" ] || fail "cached repeat answered '$b2', first run '$b1'"
grep -qi '^x-standoff-cache: miss' "$workdir/h1" \
  || fail "first constructing run was not a cache miss"
grep -qi '^x-standoff-cache: hit' "$workdir/h2" \
  || fail "repeat constructing run was not a cache hit"
kill -TERM $server_pid
status=0
wait $server_pid || status=$?
[ "$status" = 0 ] || { cat "$clog" >&2; fail "cache server exited $status on SIGTERM"; }

echo "PASS: server smoke test"
