#!/usr/bin/env bash
# Boots /tmp/progidxd on an ephemeral port, its flags passed through,
# and waits for it to write its address. Source it from a job step,
#
#   . .github/scripts/start-daemon.sh -datadir "$DATADIR" -fsync batch
#
# so the daemon is a child of the step's shell and `wait "$DAEMON"`
# works: sets DAEMON (the pid) and ADDR, prints ADDR, and fails the
# step when no address appears within 10 s.
rm -f /tmp/progidxd.addr
/tmp/progidxd -addr 127.0.0.1:0 -addrfile /tmp/progidxd.addr "$@" &
DAEMON=$!
for _ in $(seq 1 100); do
  [ -s /tmp/progidxd.addr ] && break
  sleep 0.1
done
[ -s /tmp/progidxd.addr ] || { echo "daemon never wrote its address" >&2; exit 1; }
ADDR="$(cat /tmp/progidxd.addr)"
echo "$ADDR"
