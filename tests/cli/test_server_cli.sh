#!/usr/bin/env bash
# End-to-end exercise of the dnastored daemon and the `dnastore client`
# verbs over a real socket: start the daemon on an ephemeral port, round
# trip put -> ls -> stat -> get byte-exactly, verify typed failures exit
# nonzero, then SIGTERM-drain and check the archive fscks clean and the
# server report was written.  Driven by ctest (cli_server_e2e); binary
# paths arrive in $DNASTORE_BIN / $DNASTORED_BIN.
set -euo pipefail

bin="${DNASTORE_BIN:?DNASTORE_BIN must point at the dnastore binary}"
daemon="${DNASTORED_BIN:?DNASTORED_BIN must point at dnastored}"
work="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill -KILL "$daemon_pid" 2> /dev/null
    rm -rf "$work"
}
trap 'cleanup' EXIT
cd "$work"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

for _ in $(seq 1 19); do printf '0123456789abcdef'; done > a.full
head -c 300 a.full > a.bin
for _ in $(seq 1 6); do printf 'fedcba9876543210'; done > b.full
head -c 90 b.full > b.bin

# A negative or malformed count is a usage error (exit 2) caught before
# the archive is touched, not a wrap round to SIZE_MAX.
for bad in "--threads -1" "--max-inflight -1" "--threads 4x"; do
    status=0
    # shellcheck disable=SC2086 # $bad is a flag and its value
    "$daemon" --dir "$work/bad" --create $bad > bad.log 2>&1 || status=$?
    [ "$status" -eq 2 ] || fail "dnastored $bad: exit $status, want 2"
    grep -q 'usage: dnastored' bad.log || fail "dnastored $bad: no usage"
    [ ! -e "$work/bad" ] || fail "dnastored $bad created the archive"
done
# Ports and timeouts outside their range are usage errors too, not a
# silent wrap (70000 would listen on 4464, 65537 would dial port 1).
# `timeout` turns a daemon that wrongly starts serving into a failure
# instead of a hang.
for bad in "--port 70000" "--port 65536" "--port -1"; do
    status=0
    # shellcheck disable=SC2086 # $bad is a flag and its value
    timeout 20 "$daemon" --dir "$work/bad" --create $bad > bad.log 2>&1 \
        || status=$?
    [ "$status" -eq 2 ] || fail "dnastored $bad: exit $status, want 2"
    grep -q 'usage: dnastored' bad.log || fail "dnastored $bad: no usage"
    grep -q 'listening' bad.log && fail "dnastored $bad bound a port"
    [ ! -e "$work/bad" ] || fail "dnastored $bad created the archive"
done
for bad in "--port 0" "--port 65536" "--port 65537" \
    "--port 1 --timeout-ms -1" "--port 1 --timeout-ms 2147483648"; do
    status=0
    # shellcheck disable=SC2086 # $bad is flags and their values
    "$bin" client ping $bad > bad.log 2>&1 || status=$?
    [ "$status" -eq 2 ] || fail "client $bad: exit $status, want 2"
    grep -q 'usage: dnastore client' bad.log || fail "client $bad: no usage"
done
status=0
"$bin" pipeline --in a.bin --out bad.out --threads -1 > bad.log 2>&1 \
    || status=$?
[ "$status" -eq 2 ] || fail "dnastore pipeline --threads -1: exit $status"
grep -q 'non-negative count' bad.log || fail "no count message: $(cat bad.log)"

arch="$work/tube"
"$daemon" --dir "$arch" --create --port 0 --port-file port.txt \
    --metrics-json report.json --threads 2 \
    --error-rate 0.005 --coverage 8 --seed 11 > daemon.log 2>&1 &
daemon_pid=$!

# Readiness without races: the daemon writes its ephemeral port to
# --port-file after listen().
port=""
for _ in $(seq 1 100); do
    [ -s port.txt ] && { port="$(cat port.txt)"; break; }
    kill -0 "$daemon_pid" 2> /dev/null || fail "daemon died: $(cat daemon.log)"
    sleep 0.1
done
[ -n "$port" ] || fail "daemon never wrote port.txt"

"$bin" client ping --port "$port" --echo hello | grep -q 'pong: hello' \
    || fail "ping echo"
"$bin" client put --port "$port" --name alpha --in a.bin \
    || fail "put alpha"
"$bin" client put --port "$port" --name alpha --in b.bin \
    && fail "duplicate put must exit nonzero"
"$bin" client put --port "$port" --name beta --in b.bin \
    || fail "put beta"
"$bin" client ls --port "$port" | grep -q 'alpha' || fail "ls alpha"
"$bin" client stat --port "$port" --name alpha | grep -q '"size_bytes":300' \
    || fail "stat alpha size"
"$bin" client get --port "$port" --name alpha --out out_a.bin \
    || fail "get alpha"
cmp -s a.bin out_a.bin || fail "alpha round trip not byte-exact"
"$bin" client get --port "$port" --name beta --out out_b.bin \
    || fail "get beta"
cmp -s b.bin out_b.bin || fail "beta round trip not byte-exact"
"$bin" client get --port "$port" --name ghost --out out_g.bin \
    && fail "get of missing object must exit nonzero"

# Graceful drain: SIGTERM, clean exit 0, drain line in the log.
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "daemon exit nonzero after SIGTERM"
daemon_pid=""
grep -q 'drained:' daemon.log || fail "no drain summary in daemon log"

# The archive the daemon wrote is consistent on disk...
"$bin" archive fsck --dir "$arch" | grep -q 'clean' \
    || fail "archive not clean after drain"
# ...and the server report validates, with real traffic in it.
"$bin" report check report.json || fail "server report invalid"
grep -q '"requests":[1-9]' report.json || fail "server report saw no requests"

echo "cli_server_e2e OK"
