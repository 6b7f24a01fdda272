# Convenience targets for the irnet repository. `make help` lists them.

GO ?= go

.PHONY: all help build test race bench benchall lint-docs servebench serve-smoke trend trend-record paper quick verify examples faults recovery collectives turns zoo fuzz clean

# Build, vet, and test everything.
all: build test

# Self-documenting target list: prints every target whose comment line
# directly precedes it, in file order.
help:
	@awk '/^[a-z][a-z-]*:/ { \
		target = substr($$1, 1, length($$1)-1); \
		printf "  %-12s %s\n", target, doc; doc = "" } \
		/^# / { doc = (doc == "" ? substr($$0, 3) : doc) } \
		/^$$/ { doc = "" }' Makefile

# Compile and vet every package.
build:
	$(GO) build ./...
	$(GO) vet ./...

# Tier-1 test suite.
test:
	$(GO) test ./...

# Tier-1 test suite under the race detector.
race:
	$(GO) test -race ./...

# Engine performance comparison: time the event-driven fast path and the
# full-scan baseline on 128- and 1024-switch networks and write the trend
# records (cycles/sec, ns/flit-hop, allocs/cycle, event/scan speedup, host
# core count) to results/BENCH_wormsim.jsonl. The engines are
# byte-identical (see TestEnginesByteIdentical), so this is purely a speed
# measurement.
bench:
	mkdir -p results
	$(GO) run ./cmd/irperf -json results/BENCH_wormsim.jsonl

# One benchmark per paper table/figure plus ablations (quick scale), and
# the engine microbenchmarks (BenchmarkRunCycles/BenchmarkSweep).
benchall:
	$(GO) test -bench=. -benchmem ./...

# Godoc gate: every exported symbol in the documented core packages must
# carry a doc comment (see cmd/doclint).
lint-docs:
	$(GO) run ./cmd/doclint

# Co-simulation smoke: replay a canonical session through irserve -stdio on
# the event and scan engines and require byte-identical replies — the
# transport/engine determinism contract of docs/COSIM.md, end to end.
serve-smoke:
	mkdir -p results/.bin
	$(GO) build -o results/.bin/irserve ./cmd/irserve
	@set -e; \
	script='{"type":"hello","hello":{"v":1}}\n{"type":"query","id":1,"op":"advance","query":{"cycles":500}}\n{"type":"query","id":2,"op":"latency","query":{"src":0,"dst":17,"bytes":256}}\n{"type":"query","id":3,"op":"stats"}\n{"type":"query","id":4,"op":"bye"}'; \
	printf "$$script\n" | results/.bin/irserve -stdio -switches 24 -seed 7 -engine event > results/.bin/cosim_event.out; \
	printf "$$script\n" | results/.bin/irserve -stdio -switches 24 -seed 7 -engine scan > results/.bin/cosim_scan.out; \
	cmp results/.bin/cosim_event.out results/.bin/cosim_scan.out; \
	echo "serve-smoke: engines byte-identical over stdio"

# Cross-PR perf-regression gate: read the trend records of the two
# measurement artifacts (results/BENCH_wormsim.jsonl and BENCH_netd.jsonl),
# check them against the accumulated floors/ceilings, and diff against the
# results/TREND.jsonl history. Exits nonzero on any regression.
# `make trend-record LABEL=prN` appends the current numbers to the history.
trend:
	$(GO) run ./cmd/irtrend -results results -trend results/TREND.jsonl

# Append the current benchmark numbers to the history: make trend-record LABEL=prN
trend-record:
	$(GO) run ./cmd/irtrend -results results -trend results/TREND.jsonl -record -label $(LABEL)

# Serving benchmark: start irnetd with crash-safe snapshot persistence at
# the paper topology scale (128 switches, 4 ports), measure a steady phase
# and a reconfiguration-storm phase with irbench (both written as trend
# records into results/BENCH_netd.jsonl), then kill the daemon with
# SIGKILL, restart it from the persisted snapshot, verify it recovers
# (stale restore + fresh queries), and require a clean SIGTERM drain at
# the end.
servebench:
	mkdir -p results/.bin
	$(GO) build -o results/.bin/irnetd ./cmd/irnetd
	$(GO) build -o results/.bin/irbench ./cmd/irbench
	@set -e; rm -f results/.bin/addr results/.bin/irnetd.snap results/BENCH_netd.jsonl; \
	results/.bin/irnetd -listen 127.0.0.1:0 -addr-file results/.bin/addr \
		-switches 128 -ports 4 -snapshot results/.bin/irnetd.snap \
		> results/.bin/irnetd.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	results/.bin/irbench -addr-file results/.bin/addr -wait 10s \
		-qps 15000 -conns 8 -duration 5s -mode steady \
		-json results/BENCH_netd.jsonl; \
	results/.bin/irbench -addr-file results/.bin/addr -wait 10s \
		-qps 15000 -conns 8 -duration 10s -mode storm -reconfigs 60 \
		-json results/BENCH_netd.jsonl; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	rm -f results/.bin/addr; \
	results/.bin/irnetd -listen 127.0.0.1:0 -addr-file results/.bin/addr \
		-switches 128 -ports 4 -snapshot results/.bin/irnetd.snap \
		> results/.bin/irnetd2.log 2>&1 & pid=$$!; \
	results/.bin/irbench -addr-file results/.bin/addr -wait 10s \
		-qps 2000 -conns 4 -duration 1s -mode steady; \
	grep -q 'restored snapshot' results/.bin/irnetd2.log; \
	kill -TERM $$pid; wait $$pid; trap - EXIT; \
	grep -q 'irnetd: drained' results/.bin/irnetd2.log
	@cat results/BENCH_netd.jsonl

# The full paper-scale evaluation; writes text, CSV, and SVG into results/.
# The sweep takes about a minute on two cores; the checkpoint makes it
# crash-safe: completed simulations are recorded as they finish, and
# rerunning `make paper` after an interruption resumes instead of
# restarting (delete the checkpoint, or `make clean`, to force a fresh
# run). -keepgoing degrades individual failed simulations to an explicit
# skipped section.
paper:
	mkdir -p results
	$(GO) run ./cmd/irexp -exp all -scale paper -keepgoing \
		-checkpoint results/paper_checkpoint.jsonl \
		-csv results/paper_results.csv -svg results > results/paper_output.txt

# Quick-scale version of the full evaluation (seconds).
quick:
	$(GO) run ./cmd/irexp -exp all -scale quick

# Bulk verification + topology-independent certification.
verify:
	$(GO) run ./cmd/irverify -trials 100 -switches 64 -ports 4

# Run every examples/ program. fibdeploy exits 1 unless a simulation
# through the loaded FIB is bit-identical to one through the table.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cluster
	$(GO) run ./examples/treecompare
	$(GO) run ./examples/deadlock
	$(GO) run ./examples/virtualchannels
	$(GO) run ./examples/reconfigure
	$(GO) run ./examples/fibdeploy

# The deterministic fault-tolerance sweep; writes the table into results/.
# Regenerating reproduces results/fault_sweep.txt byte for byte.
faults:
	mkdir -p results
	$(GO) run ./cmd/irexp -exp fault > results/fault_sweep.txt
	@cat results/fault_sweep.txt

# The deterministic recovery study: immediate (non-draining) live
# reconfiguration with the online deadlock detector breaking the resulting
# mixed-generation wait-for cycles. Regenerating reproduces
# results/recovery_sweep.txt byte for byte.
recovery:
	mkdir -p results
	$(GO) run ./cmd/irexp -exp recovery > results/recovery_sweep.txt
	@cat results/recovery_sweep.txt

# The deterministic closed-loop collective study: makespan for all five
# collectives (ring all-reduce, tree reduce+broadcast, all-gather,
# all-to-all, incast) across {DOWN/UP, L-turn, up*/down*} × M1/M2/M3 at
# 128 switches, 4- and 8-port. Regenerating reproduces
# results/collective_sweep.txt and results/BENCH_collective.json byte for
# byte.
collectives:
	mkdir -p results
	$(GO) run ./cmd/irexp -exp collective -scale paper \
		-json results/BENCH_collective.json > results/collective_sweep.txt
	@cat results/collective_sweep.txt

# The deterministic minimal prohibited-turn-set study: a 500-case oracle
# differential (existence checker vs DFS cycle finder vs certifier vs
# wormsim) followed by the paper-scale search sweep (128 switches, 4- and
# 8-port, M1/M2/M3) with head-to-head simulations of each smallest found
# set against DOWN/UP. Regenerating reproduces results/turnsearch_sweep.txt
# and results/BENCH_turnsearch.json byte for byte.
turns:
	mkdir -p results
	$(GO) run ./cmd/irexp -exp turns -scale paper -differential 500 \
		-json results/BENCH_turnsearch.json > results/turnsearch_sweep.txt
	@cat results/turnsearch_sweep.txt

# The cross-family routing shootout: every topology-zoo family under the
# tree-based algorithms and its structure-aware native router, each
# certified deadlock-free before simulation (results/zoo_sweep.txt,
# results/BENCH_zoo.json). Byte-deterministic across reruns, engines, and
# worker counts.
zoo:
	mkdir -p results
	$(GO) run ./cmd/irexp -exp zoo -scale paper \
		-json results/BENCH_zoo.json > results/zoo_sweep.txt
	@cat results/zoo_sweep.txt

# Short fuzzing passes over the parsers, the simulator config surface, and
# whole faulted runs (flit conservation under failures + reconfiguration).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=10s ./internal/topology/
	$(GO) test -run=^$$ -fuzz=FuzzParseTopology -fuzztime=10s ./internal/cliutil/
	$(GO) test -run=^$$ -fuzz=FuzzParseRates -fuzztime=10s ./internal/cliutil/
	$(GO) test -run=^$$ -fuzz=FuzzParsePolicies -fuzztime=10s ./internal/cliutil/
	$(GO) test -run=^$$ -fuzz=FuzzParseInts -fuzztime=10s ./internal/cliutil/
	$(GO) test -run=^$$ -fuzz=FuzzConfig -fuzztime=10s ./internal/wormsim/
	$(GO) test -run=^$$ -fuzz=FuzzFaultRun -fuzztime=30s ./internal/fault/
	$(GO) test -run=^$$ -fuzz=FuzzRecoveryRun -fuzztime=20s ./internal/fault/
	$(GO) test -run=^$$ -fuzz=FuzzFIBDecode -fuzztime=15s ./internal/fib/
	$(GO) test -run=^$$ -fuzz=FuzzCompile -fuzztime=15s ./internal/fib/
	$(GO) test -run=^$$ -fuzz=FuzzNewTable -fuzztime=15s ./internal/routing/
	$(GO) test -run=^$$ -fuzz=FuzzSnapshotDecode -fuzztime=15s ./internal/netd/
	$(GO) test -run=^$$ -fuzz=FuzzExistenceCheck -fuzztime=30s ./internal/turnmodel/
	$(GO) test -run=^$$ -fuzz=FuzzFrameDecode -fuzztime=15s ./internal/cosim/

# Removes regenerable outputs. results/TREND.jsonl is append-only history,
# not a regenerable artifact, so clean leaves it alone.
clean:
	rm -f results/*.svg results/*.csv results/*.txt results/paper_checkpoint.jsonl
