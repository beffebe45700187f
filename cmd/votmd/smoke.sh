#!/usr/bin/env bash
# Smoke test of the votmd binary itself: a durable start on a free port, a
# clean drain on SIGTERM, a restart that skips replay, the refusal of flags
# that no longer exist and of an unknown engine, and the standalone shard-map
# seed.
#
# Usage (from the repository root): bash cmd/votmd/smoke.sh
set -euo pipefail

tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; wait; rm -rf "$tmp"' EXIT
go build -o "$tmp/votmd" ./cmd/votmd

# wait_log FILE PATTERN: wait up to 30 s for PATTERN to appear in FILE.
wait_log() {
	for _ in $(seq 300); do
		grep -q "$2" "$1" && return 0
		sleep 0.1
	done
	echo "timed out waiting for '$2' in $1:"
	cat "$1"
	return 1
}

# run_until_term LOG READY ARGS...: start votmd with ARGS, wait for the READY
# log line, send SIGTERM and require exit status 0.
run_until_term() {
	local log=$1 ready=$2
	shift 2
	"$tmp/votmd" "$@" 2>"$log" &
	local pid=$!
	wait_log "$log" "$ready"
	kill -TERM "$pid"
	if ! wait "$pid"; then
		echo "votmd $*: non-zero exit after SIGTERM:"
		cat "$log"
		return 1
	fi
}

# expect_log FILE PATTERN: fail unless PATTERN is in FILE.
expect_log() {
	grep -q "$2" "$1" || {
		echo "missing '$2' in $1:"
		cat "$1"
		return 1
	}
}

# The log names the bound address, so port 0 resolves to a real port.
serving='serving 2 shards .* on 127\.0\.0\.1:[1-9]'
durable=(-addr 127.0.0.1:0 -shards 2 -durability group -data-dir "$tmp/data")

run_until_term "$tmp/first.log" "$serving" "${durable[@]}"
expect_log "$tmp/first.log" 'drained cleanly'

run_until_term "$tmp/second.log" "$serving" "${durable[@]}"
expect_log "$tmp/second.log" 'clean start (replay skipped)'
expect_log "$tmp/second.log" 'drained cleanly'

for f in -max-value=1024 -idle-timeout=1s -drain-timeout=1s -snapshot-every=1s; do
	status=0
	"$tmp/votmd" "$f" -addr 127.0.0.1:0 2>"$tmp/flag.log" || status=$?
	if [ "$status" -ne 2 ]; then
		echo "votmd $f: exit status $status, want 2"
		cat "$tmp/flag.log"
		exit 1
	fi
	expect_log "$tmp/flag.log" 'flag provided but not defined'
done

# An unknown engine is refused by the server's config check, naming it.
status=0
"$tmp/votmd" -engine bogus -addr 127.0.0.1:0 2>"$tmp/engine.log" || status=$?
if [ "$status" -eq 0 ]; then
	echo "votmd -engine bogus: exit status 0, want non-zero"
	cat "$tmp/engine.log"
	exit 1
fi
expect_log "$tmp/engine.log" 'unknown Config.Engine "bogus"'

run_until_term "$tmp/seed.log" 'shard-map service (standalone seed): .* on 127\.0\.0\.1:[1-9]' \
	-addr 127.0.0.1:0 -cluster-seed -durability off

echo "votmd smoke: ok"
