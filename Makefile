# Reproduces the CI gate (.github/workflows/ci.yml) locally:
#   make ci        — everything CI runs, in the same order
#   make golden    — re-record golden_metrics.json after an intentional
#                    metric change (commit the diff)
GO ?= go

.PHONY: ci build vet fmt-check test race bench check audit golden chaos trace place fuzz serve-smoke shard results

ci: build vet fmt-check test race bench check audit shard fuzz serve-smoke
	@echo "CI gate passed"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/telemetry
	$(GO) test -race ./internal/placement
	$(GO) test -race ./internal/ctlplane
	$(GO) test -race ./internal/experiments -run 'TestParallelRunnerDeterminism|TestTelemetryParallelDeterminism|TestAuditParallelDeterminism|TestShardIdentity|TestShardedSubscribe'

# One pass over every benchmark in the tree. This is the single emitter of
# the BENCH_*.json trajectory files (BENCH_audit, BENCH_ctlplane,
# BENCH_obs, BENCH_placement, BENCH_shardsim) that CI uploads as one
# artifact; the per-figure benchmarks land in bench.txt.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./... | tee bench.txt

# The full-scale evaluation transcript (every experiment's report text).
# Generated, not committed — regenerate after metric-affecting changes.
results:
	$(GO) run ./cmd/ufabsim run all | tee full_results.txt

# The golden gate runs twice: instrumentation must never change results.
check:
	$(GO) run ./cmd/ufabsim check
	$(GO) run ./cmd/ufabsim check -telemetry

# The audit gate: every fault-free run must audit clean, chaos scenarios
# must produce their declared excused findings, and auditing must not
# change a single golden metric. Findings land in findings.jsonl; the
# auditor's overhead trajectory in BENCH_audit.json.
audit:
	$(GO) run ./cmd/ufabsim -quick -findings findings.jsonl audit all
	$(GO) run ./cmd/ufabsim check -audit
	$(GO) test -run '^$$' -bench BenchmarkAuditOverhead -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkAdmission -benchtime 100x .

# The sharded-core gate: the whole evaluation replayed on the parallel
# engine must reproduce the sequential golden numbers exactly, and the
# sequential-vs-sharded wall-clock benchmark lands in BENCH_shardsim.json
# (set UFAB_BENCH_FULL=1 on a multicore box for the 8192-host fabric).
shard:
	$(GO) run ./cmd/ufabsim check -shards 4
	$(GO) run ./cmd/ufabsim check -telemetry -shards 4
	$(GO) test -run '^$$' -bench BenchmarkShardedEngine -benchtime 1x .

golden:
	$(GO) run ./cmd/ufabsim check -update

# The fault-injection suite (internal/chaos) at full scale.
chaos:
	$(GO) run ./cmd/ufabsim run flap gray restart churn chaoslab

# The control-plane suite (internal/placement) at full scale, plus the
# admission-ledger benchmark (incremental update vs full recompute;
# trajectory lands in BENCH_placement.json).
place:
	$(GO) run ./cmd/ufabsim run placecmp placechurn placesweep
	$(GO) test -run '^$$' -bench BenchmarkAdmission -benchtime 100x .

# The control-plane service smoke gate, exactly as the CI ctlplane job
# runs it: start the daemon with a persistent store and background churn,
# drive admit/evaluate/release/findings over HTTP, SIGKILL it mid-churn,
# restart from the store and assert recovery. The admission-path
# throughput trajectory lands in BENCH_ctlplane.json.
serve-smoke:
	./scripts/serve_smoke.sh
	$(GO) test -run '^$$' -bench BenchmarkCtlplaneAdmission -benchtime 100000x .

# The scenario-fuzzer smoke gate, exactly as the CI fuzz-smoke job runs
# it: package tests (oracle, shrinker, regression corpus), then a
# fixed-seed sweep that also replays the committed corpus. For a long
# randomized hunt use the nightly knobs, e.g.:
#   go run ./cmd/ufabsim fuzz -seeds 1000 -seed0 $$RANDOM -budget 20m -shrink -out fuzz-failures
fuzz:
	$(GO) test ./internal/fuzz
	$(GO) run ./cmd/ufabsim fuzz -seeds 50 -corpus internal/fuzz/testdata/regressions

# Flight-recorder sample: the chaoslab run's event stream as JSONL, and
# the same run's causal spans as Chrome trace-event JSON (open
# trace_perfetto.json in https://ui.perfetto.dev or chrome://tracing).
trace:
	$(GO) run ./cmd/ufabsim -quick trace chaoslab > trace.jsonl
	@wc -l < trace.jsonl | xargs -I{} echo "{} events in trace.jsonl"
	$(GO) run ./cmd/ufabsim -quick trace -format perfetto chaoslab > trace_perfetto.json
	@wc -c < trace_perfetto.json | xargs -I{} echo "{} bytes in trace_perfetto.json"
