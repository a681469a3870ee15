# Convenience targets for the SRUMMA reproduction.

GO ?= go

.PHONY: all build test race cover bench bench-kernel bench-serve bench-sched serve-smoke trace-smoke ipc-smoke cluster-smoke hier-smoke bench-hier multihost-smoke verify repro chaos chaos-serve bench-recover fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...
	$(GO) test -run=NONE -bench=BenchmarkGemm/512 -benchtime=1x ./internal/mat
	$(MAKE) serve-smoke

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper figure/table.
bench:
	$(GO) test -bench=. -benchmem ./...

# Local dgemm kernel sweep on real hardware: seed vs packed vs parallel
# kernels plus an end-to-end real-engine multiply (see BENCH_kernel.json
# for recorded results).
bench-kernel:
	$(GO) run ./cmd/srumma-bench -kernel

# End-to-end smoke of the GEMM service: start srumma-serve (workload
# scheduler mode, elastic pool, result cache on), drive a class-tagged
# deadline-hinted mix through srumma-load — small shapes coalesce into
# batched team jobs, the large shape runs as an engine singleton, 429
# backpressure exercised via a tiny queue (every result checked against
# the serial kernel) — then repeat part of the mix over the binary wire:
# identical operands must hit the result cache (the load tool asserts the
# echoed result digests match across wires). Finally SIGTERM and assert a
# clean drain (the server exits non-zero on a WatchdogError).
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/srumma-serve ./cmd/srumma-serve; \
	$(GO) build -o $$tmp/srumma-load ./cmd/srumma-load; \
	$$tmp/srumma-serve -addr 127.0.0.1:18711 -nprocs 4 -teams 1 -max-teams 2 \
	    -queue-cap 2 -batch-max 8 -cache-entries 64 & pid=$$!; \
	set +e; \
	$$tmp/srumma-load -addr http://127.0.0.1:18711 -concurrency 6 -requests 24 \
	    -mix 24x24x24,96x96x96,160x160x160 -classes interactive:2,batch:1 \
	    -deadline 5s -out $$tmp/bench.json; ok=$$?; \
	$$tmp/srumma-load -addr http://127.0.0.1:18711 -concurrency 4 -requests 12 \
	    -mix 96x96x96 -wire binary -min-cache-hits 1 -out $$tmp/bench_bin.json; okbin=$$?; \
	kill -TERM $$pid 2>/dev/null; wait $$pid; drain=$$?; \
	set -e; test $$ok -eq 0; test $$okbin -eq 0; test $$drain -eq 0; \
	grep -q '"interactive"' $$tmp/bench.json; grep -q '"batch"' $$tmp/bench.json; \
	grep -q '"wire": "binary"' $$tmp/bench_bin.json; \
	grep -q '"cache_hits"' $$tmp/bench_bin.json; \
	echo "serve-smoke: PASS (clean drain, class stats recorded, binary wire + cache hit verified)"

# Scheduler benchmark: (a) batched coalescing of queued small GEMMs vs
# per-request engine dispatch (bit-identity asserted), (b) mixed
# interactive/batch load through sched vs fifo dispatch (interactive p99
# gain). Recorded to BENCH_sched.json.
bench-sched:
	$(GO) run ./cmd/srumma-load -bench-sched -out BENCH_sched.json

# Serving benchmarks, each a keyed section of BENCH_server.json:
#   wire          — one 256^3 GEMM over the JSON wire, the binary wire and
#                   a warm result cache (p50/p99, exact bytes, bit-identity);
#   cluster       — the same stream served in-process vs sharded across
#                   OS-process worker nodes (unix and tcp transports),
#                   bit-identical across arms;
#   cache_shaping — hit rate and throughput multiplier vs cache size/TTL
#                   under a shared-weights revisit profile;
#   overload      — breaker threshold/window sweep (500-rate vs
#                   availability) and brownout fraction sweep (tail
#                   latency vs degraded requests).
bench-serve:
	$(GO) run ./cmd/srumma-load -bench-wire -out BENCH_server.json
	$(GO) run ./cmd/srumma-load -bench-cluster -out BENCH_server.json
	$(GO) run ./cmd/srumma-load -bench-cache -out BENCH_server.json
	$(GO) run ./cmd/srumma-load -bench-overload -out BENCH_server.json

# Trace both engines end to end: a traced multiply on the virtual-time
# model and on the real engine, Chrome trace-event JSON exported from
# each and validated, overlap ratio recorded in the run summaries. The
# real-engine run is held to the overlap floor recorded in
# BENCH_trace.json (0.5 against a measured 1.0): the run fails if the
# comm/compute overlap the paper claims regresses below it.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/srumma-trace ./cmd/srumma-trace; \
	$$tmp/srumma-trace -engine sim -n 400 -procs 4 -width 60 \
	    -chrome $$tmp/sim.json -out $$tmp/sim_run.json > /dev/null; \
	$$tmp/srumma-trace -engine real -n 256 -procs 4 -ppn 1 -width 60 \
	    -min-overlap 0.5 -chrome $$tmp/real.json -out $$tmp/real_run.json > /dev/null; \
	$$tmp/srumma-trace -validate $$tmp/sim.json; \
	$$tmp/srumma-trace -validate $$tmp/real.json; \
	grep -q '"overlap_ratio"' $$tmp/sim_run.json; \
	grep -q '"overlap_ratio"' $$tmp/real_run.json; \
	grep -q '"overlap_floor"' $$tmp/real_run.json; \
	echo "trace-smoke: PASS (both engines traced, Chrome exports valid, overlap floor held)"

# Multi-process engine gate: 2 emulated hosts x 2 ranks each on
# localhost, every rank an OS process (mmap segments inside a node,
# unix-socket RMA between nodes). All four transpose cases must be
# bit-identical to the in-process armci engine running the same job on
# the same topology; the coordinator and every worker run under -race.
# A traced ipc run then has to report a measured overlap ratio.
ipc-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) run -race ./cmd/srumma-bench -engine ipc -np 4 -ppn 2 -quick; \
	$(GO) run ./cmd/srumma-trace -engine ipc -n 192 -procs 4 -ppn 2 -width 60 \
	    -out $$tmp/ipc_run.json > /dev/null; \
	grep -q '"overlap_ratio"' $$tmp/ipc_run.json; \
	grep -q '"ppn": 2' $$tmp/ipc_run.json; \
	echo "ipc-smoke: PASS (4 processes bit-identical to armci under -race, traced overlap recorded)"

# Cluster serving gate, race-enabled: /v1/multiply sharded across 2
# emulated worker nodes x 2 OS-process ranks each, all four transpose
# cases bit-identical to the in-process route, one induced worker death
# absorbed by node replacement + handler retry (HTTP 200, same bits), and
# one seeded mid-compute crash resumed from the salvaged task ledger
# rather than restarted. Coordinator and every worker run under -race.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterServe' ./internal/server

# Hierarchical (two-level) multiplication gate, race-enabled: a two-group
# run on the sim and ipc engines. The property tests pin hier-vs-flat
# BIT-identity across all four transpose cases on the armci and ipc
# engines, the sim test pins measured remote volume == the analytic
# per-level prediction for both paths, the serving tests cover the hier
# route end to end including the kill-one-group chaos resume, and the
# flat-vs-hier volume sweep must still find its crossover.
hier-smoke:
	$(GO) test -race -count=1 ./internal/hier
	$(GO) test -race -count=1 -run 'TestHierIPCBitIdentical' ./internal/ipcrt
	$(GO) test -race -count=1 -run 'TestHierServe' ./internal/server
	$(GO) run ./cmd/srumma-bench -hier -quick | grep -q 'crossover: hierarchical volume strictly beats flat'
	@echo "hier-smoke: PASS (two-level bit-identical to flat on armci+ipc under -race, volume crossover reproduced)"

# Flat-vs-hierarchical P sweep on the virtual-time engine, recorded to
# BENCH_hier.json (measured remote bytes exactly equal the analytic
# per-level volumes, or the sweep fails).
bench-hier:
	$(GO) run ./cmd/srumma-bench -hier -hier-out BENCH_hier.json

# Two-host deployment recipe: coordinator + external srumma-worker -join
# ranks over TCP on localhost (the same wiring split across real
# containers), cross-host overlap ratio merged into BENCH_trace.json
# under the "multihost" key.
multihost-smoke:
	sh scripts/multihost-trace.sh

# Cross-algorithm numerical correctness sweep on the real engine.
verify:
	$(GO) run ./cmd/srumma-verify

# Regenerate the paper's full evaluation (figures 5-10, Table 1, model,
# isoefficiency, ablations, memory, block-size sweep, KLAPI projection).
repro:
	$(GO) run ./cmd/srumma-bench -all

# Fault-injection sweep on the real engine: every fault class, three
# seeds, recovery layer active (see DESIGN.md "Fault model"), plus the
# serving-layer case of a team crash mid-batch requeueing the batch's
# unfinished tasks onto a replacement team.
chaos:
	$(GO) run ./cmd/srumma-bench -chaos
	$(GO) test -count=1 -run TestServerSchedChaosCrashRequeue ./internal/server

# End-to-end recovery gate, race-enabled: a real server under a seeded
# fault plan (mid-compute rank crash + silent block corruption) must
# return a bit-correct product for every accepted request, with the
# recovery counters proving jobs were resumed (not restarted) and
# corrupted blocks detected and recomputed. Covers sched and FIFO modes
# plus the circuit-breaker 503 path.
chaos-serve:
	$(GO) test -race -count=1 -run 'TestChaosServe|TestBreakerServes503' ./internal/server

# Crash-recovery benchmark: one planted mid-compute crash recovered by
# ledger resume vs full restart; the resumed retry must re-execute
# strictly fewer tasks and both products must be bit-identical to a
# fault-free run. Recorded to BENCH_recover.json.
bench-recover:
	$(GO) run ./cmd/srumma-load -chaos -out BENCH_recover.json

# Short fuzzing session over the numeric kernels, index math, the fault
# planner, the binary wire decoder (crash-free on arbitrary bytes,
# encode/decode round-trip bit-identical), the JSON wire decoder
# (differential against encoding/json: same accept/reject, bit-identical
# operands) and the SRUMMA executor (random grids, shapes, cases, resumed
# attempts, slow owners and degraded mode against serial dgemm).
fuzz:
	$(GO) test -fuzz=FuzzGemmMatchesNaive -fuzztime=30s ./internal/mat
	$(GO) test -fuzz=FuzzIntersect -fuzztime=15s ./internal/grid
	$(GO) test -fuzz=FuzzCyclicMapping -fuzztime=15s ./internal/grid
	$(GO) test -fuzz=FuzzPlan -fuzztime=15s ./internal/faults
	$(GO) test -fuzz=FuzzBinWire -fuzztime=15s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzJSONWire -fuzztime=15s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzExecutor -fuzztime=15s ./internal/core
	$(GO) test -fuzz=FuzzIPCWire -fuzztime=15s ./internal/ipcrt
	$(GO) test -fuzz=FuzzTCPWire -fuzztime=15s ./internal/ipcrt

clean:
	$(GO) clean ./...
