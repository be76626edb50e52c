#!/bin/sh
# Tier-1 verification gate (same sequence as `make verify`):
# vet + gofmt + build + full tests, then race coverage on the engine
# paths, then the shard-merge and cache cold/warm round-trip gates on
# the real CLI.
set -eux

go vet ./...
# The same vet for GOARCHes the host does not run: the amd64/arm64
# assembly and the pure-Go stubs that stand in for it elsewhere are
# build-tagged, so a declaration or stub left behind or missing fails
# only on another arch. vet's asmdecl pass also checks each .s file
# against its Go declarations.
GOARCH=arm64 go vet ./...
GOARCH=386 go vet ./...
GOARCH=riscv64 go vet ./...
# Every tracked Go file is gofmt-clean (git ls-files keeps build output
# such as .bench_build/ out of the scan).
test -z "$(gofmt -l $(git ls-files '*.go'))"
# Reachability gate, a static check of the source like vet: it
# type-checks the module and perfbench and fails on any top-level
# internal/ declaration that no command, example, perfbench or other
# package's test reaches, naming each as file:line. Code only its own
# package's tests use belongs in a _test.go file.
go test -run TestNoUnreachableDeclarations .
go build ./...
go test ./...
go test -race ./internal/engine/... ./internal/fl/... ./internal/core/... ./internal/replay/...
# The experiments grid fans out under -race: table3 cold and warm at 4
# workers, a pass that groups its misses into runs (table3 at ci makes
# 57 runs on 3 shared (dataset, seed) pairs, and the cold pass still
# misses and writes all 72 cells, each group's records carrying its
# run's payload), and a cell of every method trained concurrently on one
# shared pair, which must hash the same as a fresh synthesis afterwards.
go test -race -run 'TestConcurrentFanOutSmoke|TestCacheConcurrentFanOutSmoke|TestGroupRunsPerPass|TestSharedPairsStayUnchanged' ./internal/experiments/

# Work-stealing scheduler gate: the engine package under -race with the
# nested determinism matrix (saturated For/ForWorker at worker counts
# 1/2/4/8 bit-identical to sequential) asserted explicitly in short
# mode, plus the steal-proof and sibling-grid stress tests, and the
# check that a finished job's entry left queued in a deque no longer
# keeps the job's closure (and what it captured) alive.
go test -race -short -run 'TestNestedDeterminismMatrix|TestStealVsInlineEquivalence|TestStealIntoSaturatedNestedFor|TestStealWakeForLateNestedJob|TestConcurrentSiblingGridsRace|TestFinishedJobReleasesTask' ./internal/engine/

# Key-codec fuzz seeds in short mode (the corpus only; `make fuzz` runs
# the fuzzing engine proper). The corpus covers both the legacy 7-field
# keys and the long-form 10-field Byzantine keys (attack, fraction,
# merge rule), including the malformed 8/9-field and non-canonical
# all-zero long-form shapes. The artifact-set file codec rides along:
# every single-byte flip of a two-cell set must fail to load or load
# the same set, since its checksum covers the header and every cell.
go test -short -run 'FuzzParseCellKey|TestCellKeyPropertyRoundTrip|TestArtifactSetFileRoundTrip' ./internal/experiments/

# Checkpoint-reader fuzz seeds (the corpus only, as above): Read must
# never panic, and a stream it accepts must re-encode to a fixed point.
# The corpus holds a legacy checkpoint, every prefix of one that ends
# in the retired float32 section (the empty input included; Read must
# reject that section as trailing bytes) and length prefixes that
# claim 1 GiB.
go test -short -run 'FuzzCheckpointRead' ./internal/serialize/

# Virtual-client gates: the lazy ClientPool path must be bit-identical
# to the eager fleet for every aggregator at worker counts 1/2/4/8
# (and with empty-shard eligibility), a Selector that repeats a client
# in one cohort must panic in eager and virtual runs alike, and a
# million-client K=10 run must keep its live state O(K). The flat-peak-memory record itself (1e6 vs 100 clients within
# 2x) is asserted by TestEngineBenchJSON in the full `go test ./...`
# above and emitted into BENCH_engine.json by `make bench-smoke`.
go test -race -run 'TestVirtualMatchesEagerBitIdentical|TestRunVirtualDuplicateSelection|TestClientPoolSkipsEmptyShards|TestRunVirtualMillionClients|TestSingleSetHonorsWorkers|TestEvaluatorWarmEvalAllocFree' ./internal/fl/

# Async round-engine determinism gate under -race: a degenerate trace
# (zero latency, no drops, staleness weight 1) must reproduce RunVirtual
# bit for bit for every aggregator at worker counts 1/2/4/8, a seeded
# straggler/dropout trace must replay byte-identically across worker
# counts, partial rounds must stay deterministic, and a client whose
# update straddles server versions must resume its per-identity RNG
# stream exactly. Every engine's Result must also hash to the digest
# pinned in digest_test.go, so a change that moves all engines' bits
# together cannot pass as "still equal to each other"; so must every
# federated-state operation at both widths (each merger, the traffic
# model, the attacks and the quarantine gate).
go test -race -run 'TestAsyncDegenerateMatchesRunVirtual|TestAsyncSeededTraceReproducible|TestAsyncPartialRounds|TestClientPoolStraddlingResume|TestAsyncStarvationReturnsError|TestRunDigestsPinned|TestFederatedStateDigestPinned' ./internal/fl/

# Byzantine attack-determinism gate under -race: a seeded sign-flip
# cohort must replay bitwise across worker counts 1/2/4/8 and across the
# eager/virtual/degenerate-async engines (plus the f32 twin and the
# straggler-trace composition), the zero-value attack/merger/quarantine
# configuration must reproduce the benign run byte for byte, every
# robust merger must be pool-width-invariant, and a NaN-uploading fleet
# must finish with quarantine counts instead of a poisoned global model
# under FedAvg and FedDRL, sync and async, as must a diverging SingleSet
# run (the round engine's one-client case). FedDRL must merge a cohort
# shorter than its K by FedAvg and record no experience for it
# (DESIGN.md §8), directly and in an async run that drops a tenth of
# its dispatches.
# The blocked Median/TrimmedMean kernel must match the historical
# per-coordinate sort bit for bit: on tie-heavy cohorts (signed zeros,
# NaN payloads, ±Inf, subnormals) across cohort sizes, dims and pool
# widths under every kernel tier, on the fuzz target's seed corpus, and
# over whole sign-flip runs at f64 and f32. The same three suites run
# again with every SIMD tier disabled, so the merge's generic
# compare-exchange and lane screen stand alone.
go test -race -run 'TestAttackSeededBitIdenticalAcrossWorkers|TestAttackDegenerateByteIdentity|TestAttackAsyncTraceReproducible|TestAttackF32AcrossWorkers|TestMergerPoolWidthInvariance|TestWeightedMergeMatchesAggregate|TestQuarantineNaNRunCompletes|TestFedDRLShortCohort|TestAsyncFedDRLDrops|TestSingleSetRuns|TestOrderStatMatchesSortReference|FuzzOrderStatMatchesSort|TestRobustMergeRunMatchesSortReference' ./internal/fl/
TENSOR_BACKEND=generic go test -run 'TestOrderStatMatchesSortReference|FuzzOrderStatMatchesSort|TestRobustMergeRunMatchesSortReference' ./internal/fl/

# Benign byte-identity across the merge-seam refactor: figure6 rendered
# cold, warm (0 cache misses) and with the explicit weighted merge rule
# must be byte-for-byte the zero-value output. Every experiment's
# rendered output, the seed-replicated renders, every grid's job order
# and every cache record those runs write must hash to the digests
# pinned in digest_test.go, and every grid's renderer (and CSV builder)
# must ask only for cells of its own job list at ci, medium and paper
# scale. And the README's Byzantine claim must hold with margins at CI
# scale: under a 20% sign-flip, weighted averaging keeps under half of
# its benign best, median and trimmed mean over three quarters of
# theirs. A grid pass runs one SingleSet run per (dataset, seed), so a
# SingleSet cell must give the same artifact bit for bit whatever its
# partition, N, K, delta, attack and merger, cell-level or scale-wide.
go test -run 'TestBenignOutputsUnchangedByRefactor|TestByzantineGrid|TestExperimentDigestsPinned|TestRenderersStayInsideJobs|TestByzantineClaim|TestSingleSetRunIgnoresClearedFields' ./internal/experiments/

# DRL-agent gate: three training loops must reproduce the agent digest
# (networks, buffer priorities, actions) pinned in digest_test.go; the
# chunked TD reprioritization must match the per-experience QValue
# reference bit for bit and in order at buffer lengths around the chunk
# size, with and without an engine pool; and a warm Train must allocate
# nothing at buffer lengths 40 and 400. Every single-byte flip of an
# agent checkpoint must fail to load or restore the same networks,
# since its checksum covers the kind, K, hidden width and all four
# networks.
go test -run 'TestAgentDigestPinned|TestReprioritizeMatchesQValue|TestAgentTrainAllocsFlat|TestAgentCheckpointFlips' ./internal/core/

# Compute-kernel gates: the blocked/register-tiled GEMM kernels (every
# backend in the host's fallback chain — avx512/avx/neon and pure-Go —
# all three transpose variants, and the pool-hook stripe fan-out) must
# be BIT-identical to the naive reference loops, also over NaN, ±Inf,
# ±0 and denormal inputs (where only a NaN's payload may differ), both
# where they pack panels and where the amd64 SIMD tiers read a one-panel
# product's operands in place (the shape table carries the workloads'
# train-step products, whose strides differ from the tile width), same
# for the SIMD elementwise kernels and the robust merge's
# compare-exchange and zero/NaN lane screen (NaN payloads, ±0, ±Inf and
# subnormals; 1 to 17 rows at strides wider than the lane count), and
# im2col/col2im must match the element-at-a-time loops. A row stripe of
# the blocked GEMM must write only its own rows (the amd64 SIMD tiers
# shift an edge tile back inside it). The Adam kernel must match the
# scalar Adam loop over five steps with clipped gradients and special
# values (NaN payloads aside), and the finiteness screen must fail on
# one non-finite value at any position of 1 to 40 elements, at both
# widths. In internal/nn, Adam.Step and the soft target update must
# match their former scalar loops on every backend, CopyFrom must copy
# every bit (±Inf and NaN destinations, a −0 source), and the input-only
# backward pass must return BackwardScratch's input gradient bit for
# bit and leave every parameter gradient zero. Every GEMM entry point, at both widths, must
# panic before any kernel runs when an operand's Data is shorter than
# its shape, since the kernels hand raw pointers to assembly. A warm arena-backed train step (dense and
# conv stacks, with BackwardScratch and with BackwardParams) must
# perform zero heap allocations, and max pooling must keep its tie rule
# (first element of a window of equals, −0 before +0, first NaN) over
# overlapping windows. Every model the reproduction builds (MLP, simple
# CNN, VGG stand-in, the agent's policy and value MLPs) must train to
# the digests pinned in internal/nn/digest_test.go, through an arena
# with either backward and without an arena.
go test -run 'TestBlockedBitIdentity|TestBlockedSpecialValues|TestIm2ColMatchesElementLoop|TestParallelStripesBitIdentical|TestKernelScratchReuse|TestElemwiseBitIdentity|TestCompareExchangeBitIdentity|TestScreenZeroNaNBitIdentity|TestBackendsChain|TestGEMMShortDataPanics|TestBlockedRangeStaysInStripe|TestAdamUpdateBitIdentity|TestAllFiniteSweep' ./internal/tensor/
go test -run 'TestTrainStepAllocsDense|TestTrainStepAllocsConv|TestScratchPathMatchesPlain|TestTrainStepDigestPinned|TestMaxPoolTiesAndOverlap|TestAdamStepMatchesScalar|TestSoftUpdateMatchesScalar|TestBackwardInputMatchesScratch|TestCopyFrom' ./internal/nn/

# Forced-generic gate: the same bit-identity suites with every SIMD
# tier disabled via the TENSOR_BACKEND override, proving the pure-Go
# kernels stand alone (and that the override is honored end to end).
TENSOR_BACKEND=generic go test -run 'TestBlockedBitIdentity|TestBlockedSpecialValues|TestElemwiseBitIdentity|TestCompareExchangeBitIdentity|TestScreenZeroNaNBitIdentity|TestParallelStripesBitIdentical|TestBackendHonorsEnv|TestBlockedRangeStaysInStripe|TestAdamUpdateBitIdentity|TestAllFiniteSweep' ./internal/tensor/
TENSOR_BACKEND=generic go test -run 'TestAdamStepMatchesScalar|TestSoftUpdateMatchesScalar|TestBackwardInputMatchesScratch' ./internal/nn/

# Float32 kernel gates: the f32 GEMM (the portable 4×4 tile on every
# backend; no run reaches it), Axpy32 (the f32 weighted merge's kernel,
# with SIMD tiers) and the f32 compare-exchange and lane screen (the
# f32 robust merge's) must be bit-identical to their f32 references
# under every backend in the host's chain (the suite forces each tier
# itself), including the non-finite special-value sweep, the
# f64↔f32 conversions must round trip exactly, and the warm f32 kernels
# must not allocate — and the same suite must hold with every SIMD tier
# disabled.
go test -run 'TestBlocked32BitIdentity|TestBlocked32SpecialValues|TestElemwise32BitIdentity|TestCompareExchangeBitIdentity|TestScreenZeroNaNBitIdentity|TestParallelStripes32BitIdentical|TestWidenQuantizeRoundTrip|TestKernelScratchReuse32' ./internal/tensor/
TENSOR_BACKEND=generic go test -run 'TestBlocked32BitIdentity|TestBlocked32SpecialValues|TestElemwise32BitIdentity|TestCompareExchangeBitIdentity|TestScreenZeroNaNBitIdentity|TestParallelStripes32BitIdentical|TestWidenQuantizeRoundTrip' ./internal/tensor/

# Float32 precision-mode determinism gate under -race: an F32 run must
# be bit-identical across eager/virtual construction, across worker
# counts 1/2/4/8 and across kernel backends, the degenerate async trace
# must reproduce RunVirtual under F32, the f32 merge must be
# pool-width-invariant, and the global model must stay on the float32
# lattice. The -precision CLI surface rides the cmd test suites in the
# full `go test ./...` above.
go test -race -run 'TestF32EagerVirtualBitIdentical|TestF32AsyncDegenerateMatchesVirtual|TestF32BitIdenticalAcrossBackends|TestF32GlobalStaysOnLattice|TestAggregate32PoolInvariance' ./internal/fl/

# Shard-merge round trip: running Table 3 as two shards and merging the
# artifact files must reproduce the unsharded output byte for byte
# (modulo the one-line timing header, which `tail -n +2` strips). The
# test runs the same round trip on figure8 in-process, then flips one
# bit of a stored series: the merge must exit 2 with one line naming
# the file.
go test -run 'TestTablesShardMergeRoundTrip' ./cmd/tables/
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/tables" ./cmd/tables
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 | tail -n +2 > "$tmp/unsharded.txt"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -shard 1/2 -out "$tmp/shards/s1.art"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -shard 2/2 -out "$tmp/shards/s2.art"
"$tmp/tables" -merge "$tmp/shards" | tail -n +2 > "$tmp/merged.txt"
diff "$tmp/unsharded.txt" "$tmp/merged.txt"

# Cache cold/warm byte-identity: a cold run against an empty cache must
# match the uncached run, and a warm rerun must load every cell from
# the cache (its stderr summary reports 0 misses) while rendering the
# identical bytes.
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -cache "$tmp/cells" 2> "$tmp/cold.err" | tail -n +2 > "$tmp/cold.txt"
diff "$tmp/unsharded.txt" "$tmp/cold.txt"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -cache "$tmp/cells" 2> "$tmp/warm.err" | tail -n +2 > "$tmp/warm.txt"
diff "$tmp/cold.txt" "$tmp/warm.txt"
grep -q ' 0 misses' "$tmp/warm.err"

# Cache GC: a maintenance pass over a healthy cache prunes nothing, and
# the cache still serves every cell afterwards.
"$tmp/tables" -cache-gc -cache "$tmp/cells" 2> "$tmp/gc.err"
grep -q 'pruned 0 stale' "$tmp/gc.err"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -cache "$tmp/cells" 2> "$tmp/postgc.err" | tail -n +2 > "$tmp/postgc.txt"
diff "$tmp/cold.txt" "$tmp/postgc.txt"
grep -q ' 0 misses' "$tmp/postgc.err"

# CSV export from the rendered set: -csvdir exports the ArtifactSet the
# text render computed, so against an empty cache every figure7 cell
# misses and is written once and none is read back (0 hits), and the
# CSV bytes equal an uncached export's. The test asserts the same
# counts against the grid's cell count.
go test -run 'TestTablesCSVDirTrainsOnce' ./cmd/tables/
"$tmp/tables" -exp figure7 -scale ci -rounds 2 -seed 1 -csvdir "$tmp/csv-cached" -cache "$tmp/csvcells" 2> "$tmp/csv.err" > /dev/null
grep -q ' 0 hits' "$tmp/csv.err"
"$tmp/tables" -exp figure7 -scale ci -rounds 2 -seed 1 -csvdir "$tmp/csv-plain" > /dev/null
diff -r "$tmp/csv-plain" "$tmp/csv-cached"

# Byzantine CLI smoke: the attack × merger grid renders, and the benign
# spellings of the new flags (-attack none -merger weighted) are
# canonicalized — byte-identical output AND the same cache addresses as
# the flagless run (0 misses against the cache written above), so
# pre-existing cached cells stay valid.
"$tmp/tables" -exp byzantine -scale ci -rounds 2 -seed 1 | tail -n +2 > "$tmp/byz.txt"
grep -q 'signflip 40%' "$tmp/byz.txt"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -attack none -merger weighted -cache "$tmp/cells" 2> "$tmp/benign.err" | tail -n +2 > "$tmp/benign.txt"
diff "$tmp/cold.txt" "$tmp/benign.txt"
grep -q ' 0 misses' "$tmp/benign.err"

# fedsim runs one grid cell. At 100 clients the Equal partition leaves
# about half of them without data, fewer than K 100: the run must clamp
# K to the clients with data before FedDRL's agent is sized, exit 0 and
# print the K it ran, below 100 (TestFedsimShortFleet runs the same
# command in-process).
go build -o "$tmp/fedsim" ./cmd/fedsim
"$tmp/fedsim" -method FedDRL -partition Equal -clients 100 -k 100 -rounds 1 -epochs 1 -datascale 0.05 > "$tmp/short.txt"
head -n 1 "$tmp/short.txt" | grep -Eq ' N=100 K=[0-9]{1,2} '
