GO ?= go

# Coverage floor (percent) enforced by `make cover` on ./internal/...
# (last measured 84.0% after the colstore suites landed).
COVER_FLOOR ?= 80
# Per-target budget for the `make fuzz` smoke run.
FUZZTIME ?= 10s

.PHONY: build test race bench bench-json bench-gate diff-race fmt vet doc-check link-check api-check clean-check reachcheck check fuzz cover serve sweep-demo loadgen-smoke fleet-smoke query-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Record the smoke benchmark suite as the next machine-readable
# BENCH_<n>.json snapshot and gate against the previous one (see
# cmd/vccmin-bench for flags; -bench . -pkg ./... runs everything).
bench-json:
	$(GO) run ./cmd/vccmin-bench -write

# The CI regression gate: rerun the smoke suite and compare against the
# checked-in baseline without advancing the snapshot numbering.
bench-gate:
	$(GO) run ./cmd/vccmin-bench -out BENCH_ci.json

# The differential equivalence suites under the race detector: the frozen
# pre-optimization reference implementations (the one-at-a-time sparse
# fault-map stream, oracle DP, probe measurement, the live phased dvfs
# schedule, the naive row-wise query evaluator, the
# concatenate-and-sort query aggregate, the rebuild-per-probe fleet
# prober against the kill-severity steps, predictor and per-scheme kill
# severities, the per-run sweep cell evaluation, the live instruction stream
# against its recording and replay, the map-and-recency-list cache
# model, the scan-based functional-unit pool, math/rand's serial seed
# chain against lfrand's power table, math.Log's gap against the
# guarded table-log one, lfrand's Float64 against its bulk fill) held
# identical to the optimized hot paths, the table log held to its
# error bound, the kill pass's per-block slots held clean across
# populations, plus the worker-invariance tests of every caller
# of internal/par (results identical at workers 1 and up, the figure
# drivers' with every worker replaying one shared recording) and par's
# own ordering and error contract, and the dvfs frontier marking's
# defining properties. The engine registry
# test runs three times in one process: the task registry is
# process-wide, so a repeat must not register its kind twice.
diff-race:
	$(GO) test -race -run 'Differential|Model|FUPoolDifferential|SamplerBatched|ProbeCacheHit|MarkFrontierProperties|RecordingReplayMatchesLive|MeasuredCapacityWorkerInvariance|PairsParallelismInvariance|FleetWorkerInvariance|PredictWorkerInvariance|WorkersByteIdentical|ExploreDeterministicAcrossWorkers|RegistryAndBatch|FigureDriversWorkerInvariance|RunTraceMatchesRun|GapExact|TabLogAccuracy|KillSlotsReset|Float64sMatchesFloat64' ./internal/faults ./internal/dvfs ./internal/colstore ./internal/population ./internal/workload ./internal/sweep ./internal/experiments ./internal/engine ./internal/cache ./internal/pipeline ./internal/sim ./internal/lfrand
	$(GO) test -race ./internal/par
	$(GO) test -race -count=3 -run RegistryAndBatch ./internal/engine

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Every internal package must carry a proper package comment ("Package
# <name> ..." — or "Command <name> ..." for main packages under
# internal/tools). go vet does not enforce this, so a grep does.
doc-check:
	@fail=0; \
	for d in internal/*/ internal/tools/*/; do \
		ls $$d*.go >/dev/null 2>&1 || continue; \
		name=$$(basename $$d); \
		if ! grep -lqE "^// (Package|Command) $$name( |$$)" $$d*.go; then \
			echo "doc-check: $$d has no '// Package $$name ...' comment"; fail=1; \
		fi; \
	done; \
	if ! grep -qE "^// Package vccmin " vccmin.go; then \
		echo "doc-check: vccmin.go has no package comment"; fail=1; \
	fi; \
	[ $$fail -eq 0 ] && echo "doc-check: all packages documented" || exit 1

# Broken relative links (and #fragments) in any *.md fail the build.
link-check:
	$(GO) run ./internal/tools/linkcheck

# The registered /v1 routes and docs/openapi.yaml must list exactly the
# same method+path pairs.
api-check:
	$(GO) run ./internal/tools/apicheck

# Every func and method declared outside _test.go files must be reached
# by some binary (a CLI, an example, a tool, perfbench, or the facade's
# exported funcs), or be allowlisted with a reason in
# internal/tools/reachcheck/allowlist.txt.
reachcheck:
	$(GO) run ./internal/tools/reachcheck

# No tracked file may match .gitignore: build artifacts (cover.out,
# BENCH_ci.json, serve data) must never be committed.
clean-check:
	@out="$$(git ls-files -ci --exclude-standard)"; \
	if [ -n "$$out" ]; then \
		echo "clean-check: tracked files matching .gitignore:"; echo "$$out"; exit 1; \
	fi; \
	echo "clean-check: no gitignored path is tracked"

# The static quality gate CI runs before the test jobs.
check: vet fmt doc-check link-check api-check clean-check reachcheck

# Short fuzz smoke over the checkpoint reader (ReadRows and resume's
# loader, FuzzLoadCompleted, both read through it), the batched sparse
# sampler, the exact gap sampler against math.Log, the colv1 shard
# codec, the query aggregation paths, the GET-versus-CLI request binding, the fleet prober's kill severities
# against the frozen oracle, and
# lfrand's power-table seeding against math/rand's state (go test
# allows one fuzz target per invocation, hence the separate runs).
fuzz:
	$(GO) test ./internal/sweep -run='^$$' -fuzz=FuzzReadRows -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sweep -run='^$$' -fuzz=FuzzLoadCompleted -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faults -run='^$$' -fuzz=FuzzSamplerBatched -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faults -run='^$$' -fuzz=FuzzGapExact -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/colstore -run='^$$' -fuzz=FuzzShardDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/colstore -run='^$$' -fuzz=FuzzVarintColumn -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/colstore -run='^$$' -fuzz=FuzzAggregate -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run='^$$' -fuzz=FuzzBindSurfaces -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/population -run='^$$' -fuzz=FuzzKillSeverity -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lfrand -run='^$$' -fuzz=FuzzSeedState -fuzztime=$(FUZZTIME)

# Coverage over the internal packages with a hard floor.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./internal/...
	@$(GO) tool cover -func=cover.out | tail -n 1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "FAIL: coverage %.1f%% below floor %s%%\n", t, floor; exit 1 } \
		else { printf "coverage %.1f%% meets floor %s%%\n", t, floor } }'

# Run the HTTP service locally with checkpoints under /tmp.
serve:
	$(GO) run ./cmd/vccmin-serve -addr :8780 -data /tmp/vccmin-serve-data

# A small end-to-end sweep: 3 pfail points × 2 schemes, sharded 2 ways,
# then a resume pass that must recompute nothing.
sweep-demo:
	$(GO) run ./cmd/vccmin-sweep -pfail 1e-4:1e-3:3 -schemes block,word \
		-trials 2 -instructions 20000 -shards 2 -shard 0 -out /tmp/sweep-demo.jsonl
	$(GO) run ./cmd/vccmin-sweep -pfail 1e-4:1e-3:3 -schemes block,word \
		-trials 2 -instructions 20000 -shards 2 -shard 1 -out /tmp/sweep-demo-s1.jsonl
	cat /tmp/sweep-demo-s1.jsonl >> /tmp/sweep-demo.jsonl
	$(GO) run ./cmd/vccmin-sweep -pfail 1e-4:1e-3:3 -schemes block,word \
		-trials 2 -instructions 20000 -resume -out /tmp/sweep-demo.jsonl
	$(GO) run ./cmd/vccmin-sweep -summarize /tmp/sweep-demo.jsonl

# Mixed-traffic replay against a self-hosted service: open-loop
# arrivals, latency histograms, 429/503 accounting. The bench-format
# output merges into a snapshot via `vccmin-bench -extra`.
loadgen-smoke:
	$(GO) run ./cmd/vccmin-loadgen -self -rate 200 -requests 600 \
		-json loadgen-smoke.json -bench-out loadgen-smoke.txt

# Fleet population smoke: a 20000-die sweep (minutes of work before the
# incremental-walk prober, seconds after) and a prediction study through
# the vccmin-fleet CLI (the same tasks GET/POST /v1/fleet run).
fleet-smoke:
	$(GO) run ./cmd/vccmin-fleet -dies 20000 -schemes block,word -seed 7 \
		-out /tmp/fleet-smoke.json
	$(GO) run ./cmd/vccmin-fleet -predict 6 -dies 20000 -sample 256 -seed 7 \
		-out /tmp/fleet-predict-smoke.json

# Columnar query smoke: the same aggregation answered from a finished
# sweep checkpoint (-rows, the fold path) and computed from scratch must
# produce byte-identical JSON — the CLI face of POST /v1/query.
QUERY_SMOKE_SPEC = -pfail 1e-4:1e-3:3 -schemes block,word -trials 2 -instructions 20000
query-smoke:
	$(GO) run ./cmd/vccmin-sweep $(QUERY_SMOKE_SPEC) -out /tmp/query-smoke.jsonl
	$(GO) run ./cmd/vccmin-query $(QUERY_SMOKE_SPEC) -group-by pfail,scheme \
		-rows /tmp/query-smoke.jsonl -out /tmp/query-smoke-folded.json
	$(GO) run ./cmd/vccmin-query $(QUERY_SMOKE_SPEC) -group-by pfail,scheme \
		-out /tmp/query-smoke-computed.json
	cmp /tmp/query-smoke-folded.json /tmp/query-smoke-computed.json
	@echo "query-smoke: folded and computed answers are byte-identical"

ci: build check race diff-race bench sweep-demo loadgen-smoke fleet-smoke query-smoke cover
