# Development targets for the votm reproduction.

GO ?= go

.PHONY: all build test short race cover bench bench-smoke bench-server bench-vacation tables ablations serve smoke-votmd replay soak-recovery soak-cluster fuzz-wal fuzz-wire fuzz-memheap fuzz-skiplist fuzz-enc fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Committed performance baseline: engine/infra micro-benchmarks plus one
# short-mode iteration of every table/ablation experiment, captured as JSON
# via cmd/benchreport. BENCH_DIR=. refreshes the committed BENCH_*.json
# baselines in place; CI points it at a scratch dir and runs benchstat
# against the committed files (report-only). Drop -benchtime for full runs.
BENCH_DIR ?= .

bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1000x \
		./internal/stm/... ./internal/rac ./internal/memheap ./internal/stmds ./enc \
		| tee /dev/stderr | $(GO) run ./cmd/benchreport -o $(BENCH_DIR)/BENCH_engines.json
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x -short . \
		| tee /dev/stderr | $(GO) run ./cmd/benchreport -o $(BENCH_DIR)/BENCH_tables.json

# The end-to-end benchmark (bench/, BENCHMARK.json) is a nested module the
# root `go test ./...` never compiles: vet and test it here so a change to an
# API it uses (a server.Config field, say) cannot pass tier-1 and break it.
bench-smoke:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Loopback server-datapath baseline: the full stack (wire decode, shard
# queue, grouped view transaction, response encode, coalesced writes) across
# workload x engine x BatchMax. The batch1/batch16 pairs are the group-commit
# proof; the write-heavy norec pair is the headline ratio in README.md. The
# Overload pair is the backpressure proof: a 512-slot ring sheds the excess
# of a 4096-deep window with BUSY (compare cells only within one sitting: the
# same cell has read 158K and 258K ops/s in two). The Durable cells measure
# the same stack with the per-shard WAL on (votmd -data-dir): every write
# group appended, and
# answered by the shard's acknowledgement stage once its flush returned — the
# sameshard/xshard ATOMIC pair is the cross-shard 2PC overhead ratio. The
# eigenbench cross-view δ(Q) cells ride the same JSON (benchreport keys on
# the pkg: headers). Every cell also reports closed-loop tail latency
# (p50-ns/p99-ns/p999-ns, sampled every 8th request at the generator's
# pipelining depth) so batching's latency cost shows up next to its
# throughput win.
bench-server:
	( $(GO) test -run='^$$' -bench='BenchmarkServerThroughput|BenchmarkServerOverload|BenchmarkServerDurable' \
		-benchmem -benchtime=200000x ./internal/server && \
	  $(GO) test -run='^$$' -bench='BenchmarkCrossViewDelta' \
		-benchmem -benchtime=1x ./internal/eigenbench ) \
		| tee /dev/stderr | $(GO) run ./cmd/benchreport -o $(BENCH_DIR)/BENCH_server.json

# Reservation-mix loopback benchmark (internal/vacation): 70% multi-key
# cross-shard reservations, 20% single-key deposits, 10% ordered table
# scans — the contention profile the paper's vacation tables describe.
bench-vacation:
	$(GO) test -run='^$$' -bench=BenchmarkVacationMix -benchmem ./internal/vacation

# Golden-trace determinism check: replay the committed wire trace
# (internal/replay/testdata/golden.trace) byte for byte against two fresh
# servers; both final states must hash to the committed digest. Regenerate
# the trace intentionally with:
#   go test ./internal/replay -run TestGoldenTraceReplay -count=1 -args -update
replay:
	$(GO) test -count=1 -run 'TestGoldenTraceReplay|TestRecordReplayRoundTrip' -v ./internal/replay

tables:
	$(GO) run ./cmd/votm-bench -table all -scale default

ablations:
	$(GO) run ./cmd/votm-bench -ablations -scale default

# Run the votmd key-value server (protocol: docs/PROTOCOL.md; Go client:
# package client; end-to-end demo: go run ./examples/kvserver).
# Override flags with SERVE_FLAGS, e.g. make serve SERVE_FLAGS='-shards 16'.
SERVE_FLAGS ?= -addr :7421 -stats-every 30s

serve:
	$(GO) run ./cmd/votmd $(SERVE_FLAGS)

# The votmd binary end to end: a durable start on a free port, a clean drain
# on SIGTERM, a restart that skips replay, removed flags refused with exit
# status 2, and the standalone shard-map seed started and stopped.
smoke-votmd:
	bash cmd/votmd/smoke.sh

# Crash-recovery soak: SIGKILL a durable child server mid-burst, restart it
# on the same data directory, and check the recovered state against an
# ambiguity-aware oracle (no partially-applied group, no acknowledged write
# lost). SOAK_ROUNDS crashes per run.
SOAK_ROUNDS ?= 20

soak-recovery:
	VOTM_SOAK_ROUNDS=$(SOAK_ROUNDS) $(GO) test -race -count=1 -timeout 600s \
		-run TestCrashRecoverySoak -v ./internal/server

# Cluster soak: a 3-node loopback cluster hands shards off between nodes
# under live routed traffic (zero lost acked writes, epoch convergence,
# goroutine-leak check), then a two-process leader SIGKILL must promote the
# follower with every leader-acked write intact.
soak-cluster:
	$(GO) test -race -count=1 -timeout 600s \
		-run 'TestClusterHandoffSoak|TestClusterLeaderKillPromotion' -v ./internal/cluster

# WAL fuzzing: mutated segment files (truncations, bit flips) must replay to
# an intact prefix, truncate the damage idempotently, and leave the log
# appendable; CRC-valid snapshot files with any header (absurd entry counts
# included) must load without panicking and re-encode to the same entries.
# FUZZ_TIME=0x replays only the corpus.
FUZZ_TIME ?= 30s

fuzz-wal:
	$(GO) test -run='^$$' -fuzz=FuzzReplay -fuzztime=$(FUZZ_TIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzLoadSnapshot -fuzztime=$(FUZZ_TIME) ./internal/wal

# Wire parser fuzzing: request and response decoders (seed corpus includes
# SCAN frames — plain pages, continuations, degenerate ranges) must never
# panic and must re-encode/re-parse stably. FUZZ_TIME=0x replays the corpus.
fuzz-wire:
	$(GO) test -run='^$$' -fuzz=FuzzParseRequest -fuzztime=$(FUZZ_TIME) ./wire
	$(GO) test -run='^$$' -fuzz=FuzzParseResponse -fuzztime=$(FUZZ_TIME) ./wire

# View allocator fuzzing: an op program over Alloc/Free/Grow and the batch
# calls (failing batches and bad frees included) is checked against a
# per-word owner map.
# FUZZ_TIME=0x replays the corpus.
fuzz-memheap:
	$(GO) test -run='^$$' -fuzz=FuzzAllocFree -fuzztime=$(FUZZ_TIME) ./internal/memheap

# Shard index fuzzing: an op program over Put/Swap/Get/Delete/Seek, in lock
# mode or under NOrec, grows the skip list's hash directory from 16 to 256
# buckets and is checked against a map oracle and the directory's chain
# invariants after every op. FUZZ_TIME=0x replays the corpus.
fuzz-skiplist:
	$(GO) test -run='^$$' -fuzz=FuzzSkipList -fuzztime=$(FUZZ_TIME) ./internal/stmds

# Byte-codec fuzzing: every payload goes through a lock-mode view, whose
# handle moves whole words as runs, and a NOrec view, word by word — across
# the heap's chunk edge too — and both must round-trip and leave the same
# words behind. FUZZ_TIME=0x replays the corpus.
fuzz-enc:
	$(GO) test -run='^$$' -fuzz=FuzzBytesRoundTrip -fuzztime=$(FUZZ_TIME) ./enc
	$(GO) test -run='^$$' -fuzz=FuzzBlobRoundTrip -fuzztime=$(FUZZ_TIME) ./enc

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
