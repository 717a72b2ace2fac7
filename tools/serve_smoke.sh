#!/bin/sh
# Two-process serve smoke, in two phases. Driven by ctest
# (syccl_serve_client_smoke).
#
# Phase 1 — happy path: start the server with a 2-request budget, run the
# client twice against it (cold miss, then a library hit), require the server
# to drain and exit 0.
#
# Phase 2 — crash recovery: restart the server on the same library, SIGKILL
# it while a synthesis request is in flight (a kill -9 mid-load, the case the
# crash-safe entry files exist for), then restart once more and require a
# rank-permuted re-request of the phase-1 scenario to be answered as a hit
# from the recovered library.
set -e
SERVE="$1"
CLIENT="$2"
DIR="$3"

SOCK="$DIR/serve_smoke.sock"
LIB="$DIR/serve_smoke_lib"
rm -rf "$LIB" "$SOCK"

wait_for_socket() {
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "server socket never appeared" >&2
      kill "$SERVE_PID" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
}

# ---- Phase 1: cold miss, then hit, then graceful drain ----
"$SERVE" --socket "$SOCK" --library "$LIB" --max-requests 2 &
SERVE_PID=$!
wait_for_socket

"$CLIENT" --socket "$SOCK" --topo flat4 --coll allgather --bytes 1M
"$CLIENT" --socket "$SOCK" --topo flat4 --coll allgather --bytes 1M \
  | tee /dev/stderr | grep -q "syccl_client: hit"

wait "$SERVE_PID"

# ---- Phase 2: SIGKILL mid-load, restart, recover, serve from cache ----
rm -f "$SOCK"
"$SERVE" --socket "$SOCK" --library "$LIB" &
SERVE_PID=$!
wait_for_socket

# A 16-GPU all-to-all synthesizes for long enough that the kill below lands
# while the server is mid-request. The client is expected to fail.
"$CLIENT" --socket "$SOCK" --topo dgx16 --coll alltoall --bytes 16M \
  --timeout 120 >/dev/null 2>&1 &
CLIENT_PID=$!
sleep 0.5
kill -9 "$SERVE_PID"
wait "$CLIENT_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

# Restart on the killed library: recovery must reopen it (load the entry
# files, delete stale .tmp files, quarantine whatever the crash left broken)
# and still hold the phase-1 entry. A permuted re-request must be served
# from it: same canonical key, no fresh synthesis.
rm -f "$SOCK"
"$SERVE" --socket "$SOCK" --library "$LIB" --max-requests 1 &
SERVE_PID=$!
wait_for_socket

"$CLIENT" --socket "$SOCK" --topo flat4 --coll allgather --bytes 1M \
  --permute-seed 7 | tee /dev/stderr | grep -q "syccl_client: hit"

wait "$SERVE_PID"
