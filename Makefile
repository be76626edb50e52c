# Tier-1 verification gate. `make verify` is what CI and pre-merge runs.
GO ?= go

.PHONY: verify vet build test race bench bench-smoke fuzz clean

verify: vet build test race

# vet also runs for arm64, 386 and riscv64 (the build-tagged assembly
# and its stubs differ per arch) and requires every tracked Go file to
# be gofmt-clean. The reachability gate is a static check of the source
# like vet, so it runs here too: it type-checks the module and fails on
# any top-level internal/ declaration that no run reaches.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=riscv64 $(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) test -run TestNoUnreachableDeclarations .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage for the engine-facing packages: the worker pool itself,
# the fl round loop's parallel paths, the DRL agent and its replay
# buffer (the two-stage trainer runs agents, each owning its arenas, in
# concurrent goroutines), and the experiments grid fan-out smoke, run
# grouping and shared datasets (the full experiments suite under -race
# is minutes; these exercise the same concurrent machinery in seconds).
race:
	$(GO) test -race ./internal/engine/... ./internal/fl/... ./internal/core/... ./internal/replay/...
	$(GO) test -race -run 'TestConcurrentFanOutSmoke|TestCacheConcurrentFanOutSmoke|TestGroupRunsPerPass|TestSharedPairsStayUnchanged' ./internal/experiments/

bench:
	$(GO) test -bench=Engine -run TestEngineBenchJSON -benchtime=1x .

# One iteration of every engine and compute benchmark (round loop at
# each width, the nested-grid stealing case, blocked/naive GEMM and the
# conv passes): a seconds-long smoke that the benchmark harness itself
# still runs, without the timing reps of `make bench`. Also emits and
# sanity-checks BENCH_engine.json (work-stealing + the million-client
# constant-memory client_scaling record, asserted by TestEngineBenchJSON)
# and BENCH_compute.json (schema + speedup + allocation gates asserted
# by TestComputeBenchJSON).
bench-smoke:
	$(GO) test -bench 'EngineRoundLoop|NestedGridSteal|ComputeGEMM|ComputeConv|ComputeElemwise' -benchtime=1x -run 'TestEngineBenchJSON|TestComputeBenchJSON' .

# Fuzz the cell-key codec (the identity under artifact files, shard
# assignment and cache addressing), the decoders above the checkpoint
# reader (cache records, artifact sets and agents, fed streams sealed
# with their CRC-32C) and the checkpoint reader itself (the one decoder
# of agent checkpoints, cache records, shard artifacts and saved
# models) with the native fuzzing engine. Plain `go test` / verify.sh
# only replay the seed corpora. The flip tests they run beside the
# corpora require every single-byte flip of a stored file to fail, since
# the stream's CRC-32C trailer covers every byte.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseCellKey -fuzztime 15s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 15s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointRead -fuzztime 15s ./internal/serialize/

clean:
	$(GO) clean ./...
