#!/usr/bin/env bash
# Smoke test of the votmd binary itself: a durable start on a free port (a
# data directory alone turns durability on), a clean drain on SIGTERM, a
# restart that skips replay, the refusal of flags that no longer exist, of an
# unknown engine and of standalone-seed settings a member would refuse, and
# the standalone shard-map seed.
#
# Usage (from the repository root): bash cmd/votmd/smoke.sh
set -euo pipefail

tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; wait; rm -rf "$tmp"' EXIT
go build -o "$tmp/votmd" ./cmd/votmd

# wait_log FILE PATTERN: wait up to 30 s for PATTERN to appear in FILE
# (-s: the backgrounded votmd may not have created FILE yet).
wait_log() {
	for _ in $(seq 300); do
		grep -qs "$2" "$1" && return 0
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
	grep -q -e "$2" "$1" || {
		echo "missing '$2' in $1:"
		cat "$1"
		return 1
	}
}

# expect_refusal PATTERN ARGS...: run votmd with ARGS, require a non-zero exit
# within 30 s whose log contains PATTERN.
expect_refusal() {
	local pattern=$1 status=0
	shift
	timeout 30 "$tmp/votmd" "$@" 2>"$tmp/refusal.log" || status=$?
	if [ "$status" -eq 0 ]; then
		echo "votmd $*: exit status 0, want non-zero"
		cat "$tmp/refusal.log"
		return 1
	fi
	expect_log "$tmp/refusal.log" "$pattern"
}

# The log names the bound address, so port 0 resolves to a real port.
serving='serving 2 shards .* on 127\.0\.0\.1:[1-9]'
durable=(-addr 127.0.0.1:0 -shards 2 -data-dir "$tmp/data")

run_until_term "$tmp/first.log" "$serving" "${durable[@]}"
expect_log "$tmp/first.log" 'shard 0 recovered: tail replay'
expect_log "$tmp/first.log" 'shard 1 recovered: tail replay'
expect_log "$tmp/first.log" 'drained cleanly'

run_until_term "$tmp/second.log" "$serving" "${durable[@]}"
expect_log "$tmp/second.log" 'clean start (replay skipped)'
expect_log "$tmp/second.log" 'drained cleanly'

for f in -max-value=1024 -idle-timeout=1s -drain-timeout=1s -snapshot-every=1s -durability=group -auto-split; do
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
expect_refusal 'unknown Config.Engine "bogus"' -engine bogus -addr 127.0.0.1:0

# The standalone seed refuses what a member would refuse, naming the flag.
expect_refusal '-cluster-seed and -join are mutually exclusive' -cluster-seed -join 127.0.0.1:1 -addr 127.0.0.1:0
expect_refusal '-shards must be at least 1' -cluster-seed -shards 0 -addr 127.0.0.1:0
expect_refusal '-replicas must not be negative' -cluster-seed -replicas -1 -addr 127.0.0.1:0
# A member replicates its WAL, so joining needs a data directory.
expect_refusal '-join requires -data-dir' -join 127.0.0.1:1 -addr 127.0.0.1:0

run_until_term "$tmp/seed.log" 'shard-map service (standalone seed): .* on 127\.0\.0\.1:[1-9]' \
	-addr 127.0.0.1:0 -cluster-seed

echo "votmd smoke: ok"
