#!/usr/bin/env bash
# Wire-protocol end-to-end smoke: a dolx serve --socket server driven by
# two OS-process mix clients for N seconds, plus one client that slams
# its connection mid-stream.  Asserts:
#   - both well-behaved clients finish and report DOLX-DONE with work done;
#   - the server's stats report pinned_readers 0 after the abort
#     (disconnect-driven pin release observable from outside the process);
#   - SIGTERM produces a clean shutdown (exit 0 and the shutdown line,
#     which itself re-checks for leaked pins) and removes the socket;
#   - the shutdown line counts one disconnect: the aborting client's
#     (the others send a goodbye before closing).
#
# Usage: ci/wire_smoke.sh [SECONDS]   (default 15)
set -euo pipefail

SECS="${1:-15}"

if command -v opam >/dev/null 2>&1; then
  DUNE=(opam exec -- dune)
else
  DUNE=(dune)
fi

# Build once, then invoke the binary directly: concurrent `dune exec`
# calls would serialize on the build lock under a running server.
"${DUNE[@]}" build bin/dolx.exe
DOLX="$(pwd)/_build/default/bin/dolx.exe"

tmp="$(mktemp -d)"
SRV=
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

"$DOLX" generate -n 3000 --seed 11 -o "$tmp/doc.xml"
printf 'mode read\nuser alice\nuser bob\ngrant alice read @/site\ngrant bob read @/site\n' \
  > "$tmp/policy.txt"

"$DOLX" serve -d "$tmp/doc.xml" -p "$tmp/policy.txt" --tenants 2 --jobs 2 \
  --socket "$tmp/dolx.sock" --duration 300 > "$tmp/server.log" 2>&1 &
SRV=$!

"$DOLX" connect --socket "$tmp/dolx.sock" --tenant tenant0 \
  --mix 8 --subjects 2 --seed 1 --duration "$SECS" --report > "$tmp/c1.log" &
C1=$!
"$DOLX" connect --socket "$tmp/dolx.sock" --tenant tenant1 \
  --mix 8 --subjects 2 --seed 2 --duration "$SECS" --report > "$tmp/c2.log" &
C2=$!

# mid-run: a client that vanishes mid-stream with no goodbye
sleep 1
"$DOLX" connect --socket "$tmp/dolx.sock" --tenant tenant0 '//item' --abort-after 1

wait "$C1"
wait "$C2"
grep -q '^DOLX-DONE served=' "$tmp/c1.log"
grep -q '^DOLX-DONE served=' "$tmp/c2.log"
echo "client 1: $(grep '^DOLX-DONE' "$tmp/c1.log")"
echo "client 2: $(grep '^DOLX-DONE' "$tmp/c2.log")"

"$DOLX" connect --socket "$tmp/dolx.sock" --stats | tee "$tmp/stats.txt"
grep -q '^pinned_readers 0$' "$tmp/stats.txt" \
  || { echo "FAIL: reader pins leaked after mid-stream abort" >&2; exit 1; }
awk '$1 == "served" && $2 > 0 { ok = 1 } END { exit !ok }' "$tmp/stats.txt" \
  || { echo "FAIL: server served nothing" >&2; exit 1; }

kill -TERM "$SRV"
wait "$SRV"
SRV=
cat "$tmp/server.log"
grep -q 'clean shutdown' "$tmp/server.log" \
  || { echo "FAIL: no clean shutdown line" >&2; exit 1; }
# every client but the aborting one says goodbye before it closes
grep -q ' 1 disconnect(s),' "$tmp/server.log" \
  || { echo "FAIL: disconnects other than the one aborting client" >&2; exit 1; }
[ ! -e "$tmp/dolx.sock" ] \
  || { echo "FAIL: socket not removed on shutdown" >&2; exit 1; }
echo "wire smoke OK"
