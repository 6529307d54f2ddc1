GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race fuzz bench ci feed-demo cluster-demo scale-demo clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The concurrency
# tests (internal/stream/concurrent_test.go, internal/obs,
# internal/identify/determinism_test.go) are written to put real
# contention on the engine, registry, and parallel runner, so this is
# the tier that catches lock-discipline regressions.
race:
	$(GO) test -race ./...

# fuzz runs each fuzz target for FUZZTIME (they also run as plain unit
# tests over their seed corpora during `make test`).
fuzz:
	$(GO) test ./internal/event/ -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/event/ -run '^$$' -fuzz FuzzDecodeCorrupt -fuzztime $(FUZZTIME)
	$(GO) test ./internal/text/ -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/text/ -run '^$$' -fuzz FuzzSentences -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

ci:
	./scripts/ci.sh

# feed-demo runs the server with replayed continuous feeds and an
# injected flaky source, tailing /api/feeds so the backoff / breaker /
# recovery transitions are visible, then demonstrates the graceful
# drain (cursors + checkpoint persisted on SIGTERM).
feed-demo:
	./scripts/feed_demo.sh

# cluster-demo starts 1 router + 3 worker shards, ingests through the
# router (consistent-hash source routing), runs merged queries, then
# kills a worker to show degraded (partial, never 5xx) serving.
cluster-demo:
	./scripts/cluster_demo.sh

# scale-demo runs the GDELT-scale store benchmarks (1M/5M/10M snippets
# — shrink with STORYPIVOT_SCALE_EVENTS) and prints the
# heap/throughput/cold-read table; the store's heap must stay flat as
# the corpus grows.
scale-demo:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleTiered(1M|5M|10M)$$' \
		-timeout 60m -benchtime 1x ./internal/storage

clean:
	$(GO) clean ./...
