GO ?= go

.PHONY: all check build test test-race vet audit chaos transports health rollout tenants bench bench-json bench-kernel bench-compare bench-parallel report examples clean

all: build vet test

# Tier-1 gate: every PR must keep this green (see README). Order
# matters — vet catches mistakes the compiler accepts, build catches
# packages tests don't import, then the full test suite, then the
# golden experiments replayed under the runtime invariant auditor,
# then the quick chaos campaign (fault injection with safeguard
# scoring; exits nonzero if an expected safeguard fails to fire),
# then the quick transport matrix run twice and diffed (byte-
# determinism is part of the gate), then the fleet health report run
# twice and diffed the same way, then the staged-rollout campaign run
# twice, diffed, and diffed against its golden scorecard.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) run ./cmd/roce-audit
	$(GO) run ./cmd/roce-chaos -quick
	$(MAKE) transports
	$(MAKE) health
	$(MAKE) rollout
	$(MAKE) tenants
	$(MAKE) bench-parallel

# Fleet health reports (see EXPERIMENTS.md "Fleet health"): both
# scenarios through the full health plane — scraper, SLO burn-rate
# engine, pingmesh heatmap. Text and JSON renderings are each produced
# twice and byte-compared (the health plane's determinism contract),
# the JSON is diffed against the golden copy under
# cmd/roce-health/testdata/, and lands in health-report.json for CI to
# archive.
# -fail-on-breach=false because the pfc-storm scenario breaching its
# SLOs is the expected result, not a gate failure.
health:
	$(GO) run ./cmd/roce-health -fail-on-breach=false > /tmp/roce-health-1.txt
	$(GO) run ./cmd/roce-health -fail-on-breach=false > /tmp/roce-health-2.txt
	cmp /tmp/roce-health-1.txt /tmp/roce-health-2.txt
	$(GO) run ./cmd/roce-health -fail-on-breach=false -json > health-report.json
	$(GO) run ./cmd/roce-health -fail-on-breach=false -json > /tmp/roce-health-2.json
	cmp health-report.json /tmp/roce-health-2.json
	cmp health-report.json cmd/roce-health/testdata/golden.json
	@cat /tmp/roce-health-1.txt

# Fault-injection campaigns (see EXPERIMENTS.md "Chaos campaigns").
# `make chaos` runs the small CI matrix; CAMPAIGN=full sweeps the whole
# fault library across the protected, unprotected and clos fleets.
chaos:
ifeq ($(CAMPAIGN),full)
	$(GO) run ./cmd/roce-chaos
else
	$(GO) run ./cmd/roce-chaos -quick
endif

# Three-way transport matrix (see EXPERIMENTS.md "Lossless vs lossy"):
# the same scenarios under PFC+DCQCN and both IRN variants. The default
# quick grid (storm + incast) runs twice and is diffed — the matrix
# must render byte-identically run to run, every lossy cell must be
# pause-free, and every victim must recover (the command exits nonzero
# otherwise). TRANSPORTS=full sweeps all four scenarios once.
transports:
ifeq ($(TRANSPORTS),full)
	$(GO) run ./cmd/roce-transports
else
	$(GO) run ./cmd/roce-transports -quick > /tmp/roce-transports-1.txt
	$(GO) run ./cmd/roce-transports -quick > /tmp/roce-transports-2.txt
	cmp /tmp/roce-transports-1.txt /tmp/roce-transports-2.txt
	@cat /tmp/roce-transports-1.txt
endif

# Staged config-rollout campaign (see EXPERIMENTS.md "Config
# rollouts"): good and bad payloads pushed through the canary → tor →
# podset → fleet wave ladder with health-gated soaks and automatic
# rollback. The JSON scorecard is rendered twice and byte-compared (the
# rollout plane's determinism contract), diffed against the golden copy
# under cmd/roce-rollout/testdata/, and lands in rollout-scorecard.json
# for CI to archive. The command exits nonzero if any case misses its
# expected outcome.
rollout:
	$(GO) run ./cmd/roce-rollout -json > rollout-scorecard.json
	$(GO) run ./cmd/roce-rollout -json > /tmp/roce-rollout-2.json
	cmp rollout-scorecard.json /tmp/roce-rollout-2.json
	cmp rollout-scorecard.json cmd/roce-rollout/testdata/golden.json
	$(GO) run ./cmd/roce-rollout

# Multi-tenant QoS matrix (see EXPERIMENTS.md "Multi-tenant
# isolation"): GPU collective and storage tenants solo, mixed, and
# mixed under a mid-run shared-PG fat-finger. The JSON scorecard is
# rendered twice and byte-compared (the tenant plane's determinism
# contract), diffed against the golden copy under
# cmd/roce-tenants/testdata/, and lands in tenants-scorecard.json for
# CI to archive. The command exits nonzero when isolation fails under
# the configured mix, when the misconfig is not demonstrably worse, or
# when no safeguard catches it.
tenants:
	$(GO) run ./cmd/roce-tenants -json > tenants-scorecard.json
	$(GO) run ./cmd/roce-tenants -json > /tmp/roce-tenants-2.json
	cmp tenants-scorecard.json /tmp/roce-tenants-2.json
	cmp tenants-scorecard.json cmd/roce-tenants/testdata/golden.json
	$(GO) run ./cmd/roce-tenants

# Runtime invariant audit alone: deadlock, storm, alpha incident and
# livelock with the lossless/DCQCN auditor attached; exits nonzero on
# any violation.
audit:
	$(GO) run ./cmd/roce-audit

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The simulator is single-threaded by design; the race detector guards
# against accidental goroutine use creeping into the kernel. The race
# detector slows the experiment replays 5-10x, so the per-package
# timeout is raised above `go test`'s 10m default.
test-race:
	$(GO) test -race -timeout 30m ./...

# Regenerates every paper figure at scaled size with metrics in the
# benchmark output (see EXPERIMENTS.md for the mapping).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark output for regression tracking. Narrow the
# scope with PKG, e.g. `make bench-json PKG=./internal/telemetry` to
# re-record the trace-bus emission-site cost (docs/results/bench-trace.json).
PKG ?= ./...
bench-json:
	@mkdir -p docs/results
	$(GO) test -bench=. -benchmem -json $(PKG) > docs/results/bench_output.json

# Event-kernel micro benchmarks only (fast; the scheduler hot path).
bench-kernel:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem ./internal/sim/

# Regression gate for the event kernel: re-runs the kernel micro
# benchmarks and compares events/sec against the recorded baseline in
# docs/results/bench-kernel.json, failing on a >10% regression.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchtime 1s -count 3 ./internal/sim/ > /tmp/bench-kernel-current.txt
	$(GO) run ./cmd/roce-benchdiff -baseline docs/results/bench-kernel.json -current /tmp/bench-kernel-current.txt -tolerance 10

# Parallel-kernel regression gate: the sharded executive's macro
# benchmarks (Fig 7 at 1152 servers, the 20K-server pingmesh sweep at
# reduced probing duration) at worker counts 1/2/4/8, compared against
# the recorded baseline in docs/results/bench-parallel.json. The
# baseline rows are conservative floors and the tolerance is 40% —
# single-shot macro runs are noisy, so the gate trips on structural
# collapses (a serialized barrier, an O(n^2) merge), not scheduler
# jitter. On a single-core host the sharded rows pin the barrier/outbox
# overhead rather than speedup.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel' -benchtime 1x -timeout 30m ./internal/experiments/ | tee /tmp/bench-parallel-current.txt
	$(GO) run ./cmd/roce-benchdiff -baseline docs/results/bench-parallel.json -current /tmp/bench-parallel-current.txt -tolerance 40


# Consolidated reproduction report (fast experiments; add FLAGS=-all for
# the heavyweight figures too).
report:
	$(GO) run ./cmd/roce-report $(FLAGS)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/keyvalue
	$(GO) run ./examples/searchservice
	$(GO) run ./examples/incidentdrill
	$(GO) run ./examples/verbsapi

clean:
	rm -f capture.pcap test_output.txt bench_output.txt bench_output.json
	rm -f *.pprof cpu.prof mem.prof health-report.json rollout-scorecard.json
	rm -f tenants-scorecard.json
