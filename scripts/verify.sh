#!/usr/bin/env bash
# Repo verification. One line per lane: name — what it pins.
#
#   build / vet / test    — tier-1: everything compiles, vets and passes
#   race                  — the whole suite under the race detector (-count=1 defeats the cache)
#   reachability          — every exported package-level name under internal/ has a non-test caller (TestExportedNamesHaveCallers)
#   simulator race        — cluster/apps/pcp tick path under -race
#   frame allocs          — zero-copy views stay header-only, column access allocation-free
#   tree arena allocs     — tree growth makes no per-node allocations
#   simulator allocs      — arbitration, tick arena and frame-native collection stay 0 allocs/op
#   dataset golden        — generated frames hash to the recorded fixture at several worker counts
#   exact split parity    — presorted and per-node orderings bit-identical to the test-only reference sort: TestExactSplitMatchesReference plus 5 s of FuzzExactSplitVsReference
#   benchmark smoke       — tree/forest/filter/append/engine/agent benchmarks still compile and run (-benchtime=1x)
#   serving race          — sharded ingest + concurrent scrape under -race
#   ingest allocs         — steady-state ingest allocation budget; JSON path: warm DecodeJSONScratch allocates only the ID strings, ServeHTTP JSON ingest with echo ≤ 2 KB/sample
#   lifecycle race        — ingest + drift harvest + reads + warm hot swaps under -race
#   lifecycle allocs      — ingest budget holds while swaps land; drift cell (one app and interleaved apps) and reservoir budgets
#   drift fuzz            — FuzzCellObserveVsReference: checked-in seeds plus 5 s of fuzzer-chosen edges and values against the naive reference
#   wire fuzz             — FuzzWireDecode over the checked-in corpus plus 5 s of fresh mutations
#   json fuzz             — FuzzDecodeJSONVsReference: DecodeJSONScratch against json.Decoder+DisallowUnknownFields, seeds plus 5 s of fresh mutations
#   quant parity          — packed walk bit-identical to the float walk, unit columns, a 300+-column forest (whole frame and row lists) and Table 2 corpus at workers 1/4/8; compile refuses exact forests, bad edge sets and forests past the packed limits; TestQuantPredictSpeedup: >= 1.5x the float walk per row
#   malformed bundles     — a bundle whose forest would loop, index past the row, emit a non-probability or carry a bad edge set fails to load, and POST /model answers 400 and keeps the old model
#   predict allocs        — 0 allocs/op batch predict in the float, quant-serial and quant-sharded regimes
#   online-engine parity  — StepBatchInto bit-identical to Pipeline.TransformFrame under every batch partition; liveness masking; duplicate-slot rejection
#   engine callers        — shards, Orchestrator and EdgeAgent agree bit for bit; fused vs float route; mid-batch rejection; state gauge; fallback counter
#   step fuzz             — FuzzStepBatchVsTransformFrame seeds plus 5 s of fresh schedules
#   step allocs           — 0 allocs per steady-state batch step
#   HTTP smoke            — real cmd/serve on loopback: ingest, predictions, /metrics counters, clean SIGTERM drain
#   bench module          — bench/ is its own Go module; tier-1 covers its compilation (TestBenchModuleCompiles vets it against
#                           the working tree), this lane covers the smoke run: its tests build the real cmd/serve and run all
#                           four BENCHMARK.json workloads at toy size, so a flag, route or behaviour change that would break
#                           the repository benchmark fails here first
#
# Usage: scripts/verify.sh [-short]
set -euo pipefail
cd "$(dirname "$0")/.."

short=""
if [[ "${1:-}" == "-short" ]]; then
    short="-short"
fi

lane() { echo "==> $*"; }

lane "build"
go build ./...

lane "vet"
go vet ./...

lane "test"
go test $short ./...

lane "race"
go test -race -count=1 $short ./...

lane "reachability"
go test -run TestExportedNamesHaveCallers -count=1 -v .

lane "simulator race"
go test -race -count=1 ./internal/cluster/ ./internal/apps/ ./internal/pcp/

lane "frame allocs"
go test -run TestFrameOpAllocations -count=1 -v ./internal/frame/

lane "tree arena allocs"
go test -run TestTreeBuilderAllocations -count=1 -v ./internal/ml/tree/

lane "simulator allocs"
go test -run TestArbitrateAllocations -count=1 -v ./internal/cluster/
go test -run 'TestEngineTickAllocations' -count=1 -v ./internal/apps/
go test -run 'TestObserveTickAllocations' -count=1 -v ./internal/pcp/

lane "dataset golden"
go test -run TestGenerateGoldenFrameBytes -count=1 -v ./internal/dataset/

lane "exact split parity"
go test -count=1 -run '^TestExactSplitMatchesReference$' -v ./internal/ml/tree/
go test -run '^FuzzExactSplitVsReference$' -fuzz '^FuzzExactSplitVsReference$' -fuzztime=5s ./internal/ml/tree/

lane "benchmark smoke"
go test -run '^$' -bench 'BenchmarkTreeFit' -benchtime=1x ./internal/ml/tree/
go test -run '^$' -bench 'BenchmarkForest' -benchtime=1x ./internal/ml/forest/
go test -run '^$' -bench 'BenchmarkRFFilterFit' -benchtime=1x ./internal/features/
go test -run '^$' -bench 'BenchmarkAppendStreaming' -benchtime=1x ./internal/frame/
go test -run '^$' -bench 'BenchmarkEngineTick' -benchtime=1x ./internal/apps/
go test -run '^$' -bench 'BenchmarkAgentObserveTick' -benchtime=1x ./internal/pcp/

lane "serving race"
go test -race -count=1 -run 'TestShardedIngestRace|TestScrapeDuringIngestRace' -v ./internal/serving/

lane "ingest allocs"
go test -run 'TestIngestAllocations|TestJSONIngestAllocations' -count=1 -v ./internal/serving/

lane "lifecycle race"
go test -race -count=1 -run 'TestLifecycleSwapRace|TestLifecycleEndToEndDriftRetrainSwap' -v ./internal/serving/

lane "lifecycle allocs"
go test -run TestSwapChurnAllocations -count=1 -v ./internal/serving/
go test -run 'TestCellObserveAllocs|TestAccumObserveAllocs|TestReservoirAddAllocs' -count=1 -v ./internal/lifecycle/

lane "drift fuzz"
go test -run '^FuzzCellObserveVsReference$' -fuzz '^FuzzCellObserveVsReference$' -fuzztime=5s ./internal/lifecycle/

lane "wire fuzz"
go test -run '^FuzzWireDecode$' -fuzz '^FuzzWireDecode$' -fuzztime=5s ./internal/serving/

lane "json fuzz"
go test -run '^FuzzDecodeJSONVsReference$' -fuzz '^FuzzDecodeJSONVsReference$' -fuzztime=5s ./internal/serving/

lane "quant parity"
go test -count=1 -run 'TestQuant(BitIdentity|WorkerCountInvariance|PredictEdgeValues|WideForestPacks)|TestExactForestRefusesQuant|TestCompileErrors' -v ./internal/ml/forest/
go test -count=1 -run TestTable2QuantBitIdentity $short ./internal/experiments/
go test -run TestQuantPredictSpeedup -count=1 -v ./internal/ml/forest/

lane "malformed bundles"
go test -count=1 -run TestLoadBundleRejectsMalformedForest -v ./internal/core/
go test -count=1 -run TestModelEndpointRejectsMalformedForest -v ./internal/serving/

lane "predict allocs"
go test -run TestForestBatchPredictAllocations -count=1 -v ./internal/ml/forest/

lane "online-engine parity"
go test -count=1 -run 'TestStepBatch|TestStateSlab|TestBatchPlan|TestStreamer' ./internal/features/

lane "engine callers"
go test -count=1 -run 'TestOrchestratorIngestAtomic|TestEdgeAgentMatchesCentral' ./internal/core/
go test -count=1 -run 'TestOrchestratorMatchesService|TestShardCountEquivalence|TestFusedIngestShardWorkerInvariance|TestMidBatchRejectionConsistency|TestInstanceStateBytesGauge|TestIngestFallbackCounter' ./internal/serving/

lane "step fuzz"
go test -run '^FuzzStepBatchVsTransformFrame$' -fuzz '^FuzzStepBatchVsTransformFrame$' -fuzztime=5s ./internal/features/

lane "step allocs"
go test -run TestStepBatchAllocations -count=1 -v ./internal/features/

lane "HTTP smoke"
go run ./scripts/smoke

lane "bench module"
(cd bench && go vet ./... && go test ./...)

echo "verify: all lanes green"
