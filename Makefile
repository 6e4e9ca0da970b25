GO ?= go

.PHONY: all help check build vet test race flake chaos chaos-cluster chaos-net lint loc smoke-faults smoke-serve smoke-approx load load-smoke load-gate fuzz bench bench-json bench-gate cover figures figures-quick report examples clean

all: build vet test race

# The tier-1 gate: exactly what CI must keep green, plus a faulted smoke
# sweep proving the robustness path stays wired end to end, a daemon smoke
# proving submit/cache/drain work over a real socket, the chaos suite
# proving crash recovery (SIGKILL + torn journals) under the race detector,
# the service-level load smoke (200 concurrent clients against a live
# daemon, also under -race), and the flake gate (visibility-ordering tests
# repeated). BENCH_GATE=1 additionally reruns the short
# engine bench and fails on a slots/s regression against the committed
# BENCH_sim.json; LOAD_GATE=1 does the same for service latency/throughput
# against BENCH_serve.json (both off by default so the gate never flakes a
# loaded box).
check: vet build test smoke-faults smoke-serve smoke-approx chaos chaos-cluster chaos-net load-smoke flake
ifneq ($(BENCH_GATE),)
check: bench-gate
endif
ifneq ($(LOAD_GATE),)
check: load-gate
endif

help:
	@echo "Targets:"
	@echo "  all           build + vet + test + race (the full gate)"
	@echo "  check         vet + build + test (the tier-1 CI gate)"
	@echo "  build         go build ./..."
	@echo "  vet           go vet ./..."
	@echo "  test          go test ./..."
	@echo "  race          race detector over the shared-state packages"
	@echo "  flake         serve approx + terminal-visibility tests, -count=100,"
	@echo "                on one P and on the default Ps"
	@echo "  chaos         crash-recovery suite under -race: WAL replay, torn"
	@echo "                journals, quarantine, client retries, SIGKILL+restart"
	@echo "  chaos-cluster fleet chaos under -race: scatter/gather byte-identity,"
	@echo "                lease expiry, worker+coordinator SIGKILL mid-sweep"
	@echo "  chaos-net     network chaos under -race: partitions, one-way drops,"
	@echo "                truncation, breakers, hedging, local degradation"
	@echo "  lint          go vet + staticcheck (skipped gracefully if absent)"
	@echo "  loc           non-test Go lines per package directory plus a total"
	@echo "  smoke-faults  watchdogged 4x4 sweep with injected faults"
	@echo "  smoke-serve   starsimd daemon round trip: submit, cache hit, drain"
	@echo "  smoke-approx  surrogate round trip: exact anchor sweep, then an"
	@echo "                approx submit answered without simulating"
	@echo "  load          psload: 200-client mixed workload against an"
	@echo "                in-process daemon -> append to BENCH_serve.json"
	@echo "  load-smoke    5s, 200-client load acceptance run under -race:"
	@echo "                scenarios, counter cross-checks, non-zero quantiles"
	@echo "  load-gate     psload vs committed BENCH_serve.json; fails on a"
	@echo "                p95/p99/throughput regression (LOAD_GATE=1 wires"
	@echo "                it into 'check')"
	@echo "  fuzz          fuzz the FIFO ring buffer, the trace reader, the"
	@echo "                stats.Sketch codec, the BENCH_serve reader, and"
	@echo "                the fleet wire protocol (FUZZTIME=30s to change)"
	@echo "  bench         go test -bench over every figure benchmark"
	@echo "  bench-json    engine benchmarks -> a new BENCH_sim.json record"
	@echo "                (make bench-json BENCH_BASELINE=old.json for speedups)"
	@echo "  bench-gate    short bench vs committed BENCH_sim.json; fails on"
	@echo "                regression (BENCH_GATE=1 wires it into 'check')"
	@echo "  cover         go test -cover ./..."
	@echo "  figures       regenerate every paper figure into results/"
	@echo "  figures-quick smoke-sized figures"
	@echo "  report        reproduction report"
	@echo "  examples      run every example program"
	@echo "  clean         remove generated outputs"

# The race detector over the packages with shared state (parallel sweeps,
# lazy per-shape link tables, pooled runners, fault timelines, the daemon's
# worker pool, cache, and journals).
race:
	$(GO) test -race ./internal/sim ./internal/queue ./internal/torus ./internal/sweep ./internal/obs ./internal/fault ./internal/serve ./internal/journal ./internal/loadgen ./internal/cluster ./internal/chaosnet ./internal/surrogate ./internal/forecast

# The flake gate: the serve tests that read counters, the surrogate index
# and the WAL the moment a job's terminal event arrives, repeated 100 times.
# They pass only if a terminal state is journaled, indexed and counted
# before it is published. On one P (the busy-box case) the scheduler rarely
# interleaves the publish with the steps after it, so the same tests run a
# second time on the default Ps, where the test failed in 88 of 200 runs
# against a daemon that published first.
flake:
	GOMAXPROCS=1 $(GO) test -count=100 -run 'TestApprox|TestTerminalEventVisible' ./internal/serve
	$(GO) test -count=100 -run 'TestApprox|TestTerminalEventVisible' ./internal/serve

# The chaos harness under the race detector: lenient journal loading, WAL
# replay and quarantine, client retry/backoff, and the subprocess suite
# that SIGKILLs a real daemon mid-job, tears its journals, and restarts it.
chaos:
	$(GO) test -race -run 'Chaos|Crash|Torn|Quarantine|Recovery|Retry|Lenient|WAL|Poison|SetSync|Cache|Race' \
		./internal/journal ./internal/serve ./cmd/starsimd

# The fleet chaos harness under the race detector: the in-process fabric
# suite (byte-identical scatter/gather, lease expiry + duplicate discard,
# hung-worker re-dispatch, lease adoption) plus the subprocess suite that
# SIGKILLs workers and the coordinator mid-sweep, tears the lease journal,
# and requires zero re-simulated checkpointed replications and a final
# result byte-identical to a single-node run.
chaos-cluster:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'ClusterChaos' ./cmd/starsimd

# The network chaos harness under the race detector: the chaosnet fault
# transport and proxy themselves, the in-process chaos matrix (partition
# storm -> local degradation, truncated/corrupt responses retried not
# folded, hedged dispatch discarding its loser, jittered rejoin backoff),
# the loadgen partition-storm scenario, and the subprocess suite that cuts
# real coordinator->worker links mid-sweep and requires a byte-identical
# result with zero re-simulated checkpointed replications.
chaos-net:
	$(GO) test -race ./internal/chaosnet
	$(GO) test -race -run 'PartitionStorm|Truncated|CorruptResponse|OneWayPartition|HedgedDispatch|Breaker|AgentJitter|SubjobTimeout|WireDecode' ./internal/cluster
	$(GO) test -race -run 'TestLoadPartitionStorm' -count=1 ./internal/loadgen
	$(GO) test -race -run 'TestChaosNet' ./cmd/starsimd

# Static analysis: vet always; staticcheck only when installed (the build
# image does not ship it — skip with a note rather than fail).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

# Smoke test of the robustness stack: a faulted, watchdogged 4x4 sweep with
# a checkpoint journal, resumed once to prove replay works. starsim exits 3
# when the watchdog truncated replications — partial data is fine here, the
# smoke only guards against hard failures (exit 1).
smoke-faults:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/starsim ./cmd/starsim || exit 1; \
	$$tmp/starsim -shape 4x4 -sweep 0.3,0.8 -reps 1 \
		-warmup 200 -measure 1000 -drain 500 \
		-faults perm:1,trans:800/40,seed:7 -watchdog -timeout 60s \
		-checkpoint $$tmp/smoke.jsonl >/dev/null; rc=$$?; \
	[ $$rc -eq 0 ] || [ $$rc -eq 3 ] || exit 1; \
	$$tmp/starsim -shape 4x4 -sweep 0.3,0.8 -reps 1 \
		-warmup 200 -measure 1000 -drain 500 \
		-faults perm:1,trans:800/40,seed:7 -watchdog -timeout 60s \
		-checkpoint $$tmp/smoke.jsonl -resume >/dev/null; rc=$$?; \
	[ $$rc -eq 0 ] || [ $$rc -eq 3 ] || exit 1; \
	rm -rf $$tmp; echo "smoke-faults: ok"

# Smoke test of the service layer: boot starsimd on a free port, submit a
# tiny sweep with psctl and watch it finish, resubmit the identical spec and
# require a cache hit, then SIGTERM and require a clean drain.
smoke-serve:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/starsimd ./cmd/psctl || exit 1; \
	$$tmp/starsimd -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		-cache $$tmp/cache.jsonl 2>$$tmp/daemon.log & \
	pid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s $$tmp/addr ] || { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -rho 0.2 -reps 1 \
		-warmup 100 -measure 400 -drain 100 -watch >/dev/null 2>&1 \
		|| { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -rho 0.2 -reps 1 \
		-warmup 100 -measure 400 -drain 100 2>/dev/null \
		| grep -q '"cached": true' \
		|| { echo "smoke-serve: resubmission was not served from cache"; \
		     kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid \
		|| { echo "smoke-serve: daemon did not drain cleanly"; exit 1; }; \
	rm -rf $$tmp; echo "smoke-serve: ok"

# Smoke test of the surrogate fast path over a real socket: anchor a family
# with an exact two-rho sweep, then submit an approx query between the
# anchors and require a surrogate answer — terminal immediately, marked
# approx, with the anchor interval recorded in the result document.
smoke-approx:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/starsimd ./cmd/psctl || exit 1; \
	$$tmp/starsimd -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		-cache $$tmp/cache.jsonl 2>$$tmp/daemon.log & \
	pid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s $$tmp/addr ] || { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -sweep 0.2,0.4 -reps 1 \
		-warmup 100 -measure 400 -drain 100 -watch >/dev/null 2>&1 \
		|| { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -rho 0.3 -reps 1 \
		-warmup 100 -measure 400 -drain 100 -approx -approx-tol 2 2>/dev/null \
		| grep -q '"approx": true' \
		|| { echo "smoke-approx: approx submit was not surrogate-answered"; \
		     cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid \
		|| { echo "smoke-approx: daemon did not drain cleanly"; exit 1; }; \
	rm -rf $$tmp; echo "smoke-approx: ok"

# Coverage-guided fuzzing of the queue's power-of-two ring arithmetic and the
# binary trace decoder; the seeded corpora also run on every plain `go test`
# (tier-1).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzFIFO -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -fuzz FuzzTraceReader -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -fuzz FuzzSketchDecode -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -fuzz FuzzTrajectoryReader -fuzztime $(FUZZTIME) ./internal/loadgen
	$(GO) test -fuzz FuzzSurrogateTable -fuzztime $(FUZZTIME) ./internal/surrogate
	$(GO) test -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/cluster

build:
	$(GO) build ./...

# Non-test Go lines per package directory, sorted, plus a repo-wide total:
# the size trajectory in one table. Hidden directories (build caches) are
# skipped.
loc:
	@find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); if (!(d in n)) k[++m] = d; n[d] += $$1; t += $$1 } \
	END { for (i = 2; i <= m; i++) for (j = i; j > 1 && k[j-1] > k[j]; j--) { s = k[j]; k[j] = k[j-1]; k[j-1] = s }; \
	      for (i = 1; i <= m; i++) printf "%7d %s\n", n[k[i]], k[i]; printf "%7d total\n", t }'

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Per-figure benchmark harness (also reports the reproduced metrics).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable engine benchmarks, appended as a record (stamped with the
# git revision) to the BENCH_sim.json trajectory. To embed before/after
# speedups, pass a trajectory whose latest record measured the old tree:
#   make bench-json BENCH_BASELINE=old.json
BENCH_BASELINE ?=
bench-json:
	$(GO) run ./cmd/bench -out BENCH_sim.json \
		$(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE))

# Perf regression gate: rerun the short bench and fail if any workload's
# slots/s fall more than BENCH_GATE_TOL below the latest quick-sized
# BENCH_sim.json record. Short runs share the box with whatever else is
# running, so the default tolerance is looser than the full-size 10% bar;
# run `bench -gate BENCH_sim.json` (full size, against the latest full-size
# record) for a tight check on a quiet machine. Opt into `make check` with
# BENCH_GATE=1.
BENCH_GATE_TOL ?= 0.25
bench-gate:
	$(GO) run ./cmd/bench -quick -gate BENCH_sim.json -gate-tol $(BENCH_GATE_TOL)

# Service-level load harness -> BENCH_serve.json: a 200-client fleet over
# the full mixed workload (cache hits, fresh misses, dedup storms, 429
# bursts, SSE watches) against a dedicated in-process daemon. Latencies are
# wall-clock sensitive, so records note go version/arch and whether -race
# was on; compare like with like.
load:
	$(GO) run ./cmd/psload -boot -clients 200 -duration 10s -mix mixed \
		-seed 1 -out BENCH_serve.json

# The 5-second load acceptance run wired into `check`: 200 concurrent
# clients under the race detector, with scenario assertions (hits, dedup,
# 429 pushback), exact client-vs-daemon counter reconciliation, and the
# gate self-test against a doctored 2x-faster baseline.
load-smoke:
	$(GO) test -race -run TestLoadSmoke -count=1 ./internal/loadgen

# Service perf regression gate: a fresh psload run vs the committed
# BENCH_serve.json trajectory. Latency quantiles on a shared box are noisy,
# so the default tolerance is loose; the throughput floor is the sturdier
# signal. Opt into `make check` with LOAD_GATE=1.
LOAD_GATE_TOL ?= 0.75
load-gate:
	$(GO) run ./cmd/psload -boot -clients 200 -duration 10s -mix mixed \
		-seed 1 -gate -gate-tol $(LOAD_GATE_TOL) -compare BENCH_serve.json

cover:
	$(GO) test -cover ./...

# Regenerate every paper figure (tables + ASCII charts + CSV under results/).
figures:
	$(GO) run ./cmd/figures -scale standard -out results

figures-quick:
	$(GO) run ./cmd/figures -scale quick

report:
	$(GO) run ./cmd/report

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/treeviz
	$(GO) run ./examples/hetero
	$(GO) run ./examples/hypercube
	$(GO) run ./examples/varlen
	$(GO) run ./examples/deadlock
	$(GO) run ./examples/staticcomm
	$(GO) run ./examples/delaybudget

clean:
	rm -rf results test_output.txt bench_output.txt
