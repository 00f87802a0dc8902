# Tier-1 gate and developer conveniences. `make check` is what CI runs.

GO ?= go

.PHONY: build vet test race fmt-check lint check bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) run ./cmd/greenvet ./...

# Determinism & layering analyzer suite (stdlib-only). Findings are
# `file:line: analyzer: message`; exceptions need a
# `//greenvet:allow <analyzer> -- <reason>` comment.
lint:
	$(GO) run ./cmd/greenvet ./...

check: build vet lint test race fmt-check

# The benchmark of record (_greenperf/README.md): both workloads that
# BENCHMARK.json lists, end-to-end metrics, one fixed seed so successive
# runs measure the same inputs. Each workload prints its metrics with
# units and ends with one JSON result line; the build and scratch files
# stay under .bench_build/greenperf.
bench:
	bash _greenperf/run.sh --workload sweep --seed 1 --seconds 50 --trace 0
	bash _greenperf/run.sh --workload faulty --seed 1 --seconds 50 --trace 0
