#!/usr/bin/env bash
# Smoke-test the shard router end to end against real child processes:
# boot it with 4 managed shards and a bearer token, exercise routed
# query/update/ingest plus the fan-out endpoints, stream a response
# bigger than any single write buffer, kill -9 one shard and require
# supervised recovery (WAL replay included), then SIGTERM the router
# and require a clean exit with no orphaned shard processes.  First of
# all, a malformed --fsync must stop the router before it spawns.
#
#   scripts/router_smoke.sh [path/to/standoff_router.exe] [path/to/standoff_server.exe]
set -euo pipefail

ROUTER=${1:-./_build/default/bin/standoff_router.exe}
SERVER=${2:-./_build/default/bin/standoff_server.exe}
PORT=${PORT:-8141}
BASE="http://127.0.0.1:$PORT"
TOKEN="smoke-secret"
AUTH=(-H "Authorization: Bearer $TOKEN")

fail() { echo "FAIL: $*" >&2; exit 1; }

workdir=$(mktemp -d)
rlog="$workdir/router.log"
# ${router_pid:-0} would be "kill -9 0", the whole process group, when
# a check fails before the router is started.
trap '[ -n "${router_pid:-}" ] && kill -9 "$router_pid" 2>/dev/null || true;
      pkill -9 -f "data/shard-" 2>/dev/null || true;
      rm -rf "$workdir"' EXIT

echo "== a bad --fsync is refused before the router listens or spawns a shard"
set +e
timeout -s KILL 10 "$ROUTER" --shards 1 --data-root "$workdir/badfsync" \
  --shard-exe "$SERVER" --port "$PORT" --fsync bogus >"$workdir/badfsync.log" 2>&1
rc=$?
set -e
{ [ "$rc" -ne 0 ] && [ "$rc" -ne 137 ]; } \
  || { cat "$workdir/badfsync.log" >&2; fail "--fsync bogus: router exited $rc"; }
grep -q listening "$workdir/badfsync.log" && fail "--fsync bogus: router listened"
[ ! -e "$workdir/badfsync/shard-0" ] || fail "--fsync bogus: a shard was spawned"
pgrep -f -- "--data-dir $workdir/badfsync/" >/dev/null \
  && fail "--fsync bogus: a shard is running"

MAX_BODY=$((1024 * 1024))
"$ROUTER" --shards 4 --data-root "$workdir/data" --shard-exe "$SERVER" \
  --port "$PORT" --auth-token "$TOKEN" --max-body "$MAX_BODY" >"$rlog" 2>&1 &
router_pid=$!

echo "== readiness: all 4 shards recover their (empty) WALs"
up=0
for _ in $(seq 1 150); do
  if curl -fsS "$BASE/healthz?ready=1" >/dev/null 2>&1; then up=1; break; fi
  kill -0 $router_pid 2>/dev/null \
    || { cat "$rlog" >&2; fail "router died during startup"; }
  sleep 0.2
done
[ "$up" = 1 ] || { cat "$rlog" >&2; fail "router never became ready"; }

echo "== auth: the protected surface answers 401 without the token"
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST --data-binary '1' "$BASE/query")
[ "$code" = 401 ] || fail "tokenless query answered $code, expected 401"
code=$(curl -sS -o /dev/null -w '%{http_code}' \
  -H 'Authorization: Bearer wrong' -X POST --data-binary '1' "$BASE/query")
[ "$code" = 401 ] || fail "wrong-token query answered $code, expected 401"
[ "$(curl -fsS "$BASE/healthz")" = "ok" ] || fail "liveness should stay open"

echo "== hostile requests: strict Content-Length, body cap"
code=$(curl -sS -o /dev/null -w '%{http_code}' --max-time 10 \
  -H 'Content-Length: 0x1' "$BASE/healthz" || true)
[ "$code" = 400 ] || fail "Content-Length: 0x1 answered $code, expected 400"
head -c $((MAX_BODY + 1)) /dev/zero >"$workdir/toobig.bin"
# Expect: 100-continue holds the body back until the router answers, so
# the 413 is read before any unread upload could reset the connection.
code=$(curl -sS -o /dev/null -w '%{http_code}' --max-time 10 "${AUTH[@]}" \
  -H 'Expect: 100-continue' -X POST --data-binary @"$workdir/toobig.bin" \
  "$BASE/query" || true)
[ "$code" = 413 ] || fail "body over --max-body answered $code, expected 413"

echo "== ingest: a framed batch splits across the shards"
doc='<t><p start="0" end="10"/><c start="2" end="8"/></t>'
batch="$workdir/batch.txt"
: >"$batch"
for i in $(seq 1 12); do
  printf 'doc-%02d.xml %d\n%s\n' "$i" "${#doc}" "$doc" >>"$batch"
done
resp=$(curl -fsS "${AUTH[@]}" -X POST --data-binary @"$batch" \
  "$BASE/ingest?convert=none")
echo "$resp" | grep -q '"ok": true' || fail "routed ingest: $resp"
echo "$resp" | grep -q '"ok": false' && fail "routed ingest lost a document: $resp"
# the per-document report names more than one shard
shards_used=$(echo "$resp" | grep -o '"shard": "shard-[0-9]"' | sort -u | wc -l)
[ "$shards_used" -ge 2 ] || fail "batch of 12 landed on $shards_used shard(s)"

echo "== routed query and update"
headers="$workdir/headers.txt"
body=$(curl -fsS -D "$headers" "${AUTH[@]}" -X POST --data-binary \
  'count(doc("doc-01.xml")//p/select-narrow::c)' "$BASE/query")
[ "$body" = "1" ] || fail "routed query answered '$body', expected '1'"
grep -qi '^x-standoff-shard:' "$headers" || fail "missing X-Standoff-Shard"
curl -fsS "${AUTH[@]}" -X POST \
  "$BASE/update?doc=doc-01.xml&pre=2&start=50&end=60" \
  | grep -q '"ok": true' || fail "routed update not acknowledged"
body=$(curl -fsS "${AUTH[@]}" -X POST --data-binary \
  'count(doc("doc-01.xml")//p/select-narrow::c)' "$BASE/query")
[ "$body" = "0" ] || fail "post-update query answered '$body', expected '0'"

echo "== fan-out: /shards, aggregated /metrics, broadcast snapshot"
curl -fsS "$BASE/shards" | grep -q '"shard-3"' || fail "/shards misses shard-3"
metrics=$(curl -fsS "$BASE/metrics")
echo "$metrics" | grep -q 'shard="shard-0"' \
  || fail "aggregated metrics miss the shard label"
echo "$metrics" | grep -q 'standoff_router_shard_up{shard="shard-0"} 1' \
  || fail "shard-0 up-gauge not 1"
curl -fsS "${AUTH[@]}" -X POST "$BASE/admin/snapshot" \
  | grep -q '"ok": true' || fail "broadcast snapshot failed"

echo "== streaming: a response bigger than any single write buffer"
big="$workdir/big.xml"
{
  printf '<t><p start="0" end="20000"/>'
  for i in $(seq 0 5999); do
    printf '<w start="%d" end="%d"/>' "$i" $((i + 1))
  done
  printf '</t>'
} >"$big"
printf 'big.xml %d\n' "$(wc -c <"$big")" >"$workdir/bigbatch.txt"
cat "$big" >>"$workdir/bigbatch.txt"
printf '\n' >>"$workdir/bigbatch.txt"
curl -fsS "${AUTH[@]}" -X POST --data-binary @"$workdir/bigbatch.txt" \
  "$BASE/ingest?convert=none" | grep -q '"ok": true' || fail "big ingest failed"
BIGQ='doc("big.xml")//p/select-narrow::w'
curl -fsS "${AUTH[@]}" -X POST --data-binary "$BIGQ" \
  "$BASE/query" -o "$workdir/buffered.out"
curl -fsS -D "$headers" "${AUTH[@]}" -X POST --data-binary "$BIGQ" \
  "$BASE/query?stream=1" -o "$workdir/streamed.out"
grep -qi '^transfer-encoding: chunked' "$headers" \
  || fail "streamed reply is not chunked"
size=$(wc -c <"$workdir/streamed.out")
[ "$size" -gt 100000 ] || fail "streamed reply only $size bytes"
cmp -s "$workdir/buffered.out" "$workdir/streamed.out" \
  || fail "streamed bytes differ from the buffered reply"

echo "== supervision: kill -9 one shard, watch it come back"
shard_pid=$(pgrep -f "data/shard-0" | head -n1)
[ -n "$shard_pid" ] || fail "could not find the shard-0 process"
kill -9 "$shard_pid"
# the router must notice (readiness drops) ...
saw_down=0
for _ in $(seq 1 100); do
  code=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/healthz?ready=1" || true)
  if [ "$code" != 200 ]; then saw_down=1; break; fi
  sleep 0.05
done
[ "$saw_down" = 1 ] || fail "readiness never dropped after kill -9"
# ... restart it with backoff, and readiness must return
up=0
for _ in $(seq 1 150); do
  if curl -fsS "$BASE/healthz?ready=1" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.2
done
[ "$up" = 1 ] || { cat "$rlog" >&2; fail "shard-0 never recovered"; }
curl -fsS "$BASE/metrics" \
  | grep -q 'standoff_router_shard_restarts_total{shard="shard-0"} 1' \
  || fail "restart not counted"
# every acknowledged document survived the crash, wherever it lived
for i in $(seq 1 12); do
  name=$(printf 'doc-%02d.xml' "$i")
  got=$(curl -fsS "${AUTH[@]}" -X POST --data-binary \
    "count(doc(\"$name\")//p)" "$BASE/query")
  [ "$got" = "1" ] || fail "$name lost after shard crash (got '$got')"
done
# including the update acknowledged before the kill
body=$(curl -fsS "${AUTH[@]}" -X POST --data-binary \
  'count(doc("doc-01.xml")//p/select-narrow::c)' "$BASE/query")
[ "$body" = "0" ] || fail "acknowledged update lost after crash"

echo "== graceful shutdown: router exits 0 and reaps every shard"
kill -TERM $router_pid
status=0
wait $router_pid || status=$?
[ "$status" = 0 ] || { cat "$rlog" >&2; fail "router exited $status on SIGTERM"; }
if pgrep -f "data/shard-" >/dev/null 2>&1; then
  fail "orphaned shard processes after router shutdown"
fi

echo "PASS: router smoke test"
