# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short cover bench bench-shard perf-smoke figures examples vet fmt clean

all: vet test build

build:
	$(GO) build ./...
	$(GO) build -o bin/awgen ./cmd/awgen
	$(GO) build -o bin/awquery ./cmd/awquery
	$(GO) build -o bin/awbench ./cmd/awbench
	$(GO) build -o bin/awserved ./cmd/awserved

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

# One benchmark per paper figure (plus ablations and micro-benchmarks).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# The in-process A/B for a parallel change: perf's batch-parallel
# repetition (Q1, 200k rows, 2 shard workers) without the harness.
bench-shard:
	$(GO) test -run '^$$' -bench ShardedQ1 -benchmem -benchtime 10x -count 5 ./internal/exec/sortscan/

# The benchmark harness is its own module, invisible to `go test ./...`;
# this compiles it against the hot path's call surface and runs its
# toy-scale smoke test (CI job perf-smoke).
perf-smoke:
	cd perf && $(GO) vet ./... && $(GO) test ./...

# The paper's figures at scale 1, committed once as one JSON array with
# each figure's host block (see EXPERIMENTS.md). Datasets are generated
# in a temporary directory and removed; only benchdata/figures.json is
# written, and only when every figure ran.
figures:
	$(GO) build -o bin/awbench ./cmd/awbench
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
		./bin/awbench -dir "$$d" -scale 1 -json > "$$d/figures.json" && \
		mkdir -p benchdata && mv "$$d/figures.json" benchdata/figures.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/netescalation
	$(GO) run ./examples/multirecon
	$(GO) run ./examples/trafficreport
	$(GO) run ./examples/airquality
	$(GO) run ./examples/livemonitor

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Build and run outputs only (the .gitignore list); benchdata/ holds
# committed figures and is left alone.
clean:
	rm -rf bin .bench_build perf/out
