#!/usr/bin/env bash
# Repo verification. One line per lane: name — what it pins.
#
#   build / vet / test    — tier-1: everything compiles, vets and passes
#   race                  — the whole suite under the race detector (-count=1 defeats the cache)
#   reachability          — every exported package-level name and method under internal/ has a non-test caller, by a go/types scan
#                           (TestExportedNamesHaveCallers), and the scan reports a planted orphan method (TestReachabilityScanSelf)
#   simulator race        — cluster/apps/pcp tick path under -race
#   frame allocs          — zero-copy views stay header-only, column access allocation-free
#   tree arena allocs     — tree growth makes no per-node allocations
#   simulator allocs      — arbitration, tick arena and collection (ObserveTick and the wire-form Observe) stay 0 allocs/op
#   dataset golden        — generated frames hash to the recorded fixture at several worker counts; frame, T and KPI identical at
#                           GOMAXPROCS 1 and 8; CSV round trip; GenerateFrame ≡ Generate (same frame, same bundle); the corpus
#                           frame Dataset.Frame shares is left untouched by training and transforming
#   exact split parity    — presorted and per-node orderings and the unit-weight entropy table bit-identical to the test-only reference
#                           (per-node sort, entropy always computed): TestExactSplitMatchesReference (weighted cases, and unit weights
#                           nil/explicit at n 400/1024/1025 in both order modes), TestUnitEntropyTableExact, 5 s of
#                           FuzzExactSplitVsReference, and TestRFFilterKeepWorkerInvariant (filter Keep equal at workers 1/4/8)
#   learner contract      — ValidateFrame's table (shape, labels, row subsets, NaN/±Inf); all six Table 3 learners' FitFrame pinned
#                           on all rows and on a CV-style row subset against a fixture; the AdaBoost grouped-CV and Table 2 pipeline goldens
#   benchmark smoke       — tree/forest/filter/transform-frame/engine/agent benchmarks still compile and run (-benchtime=1x)
#   serving race          — sharded ingest + concurrent scrape under -race
#   ingest allocs         — steady-state ingest allocation budget; JSON path: warm DecodeJSONScratch allocates only the ID strings, ServeHTTP JSON ingest with echo ≤ 2 KB/sample
#   lifecycle race        — ingest + drift harvest + reads + warm hot swaps under -race
#   lifecycle allocs      — ingest budget holds while swaps land; drift cell budgets (one app and interleaved apps)
#   drift fuzz            — FuzzCellObserveVsReference: checked-in seeds plus 5 s of fuzzer-chosen edges and values against the naive reference
#   wire fuzz             — FuzzWireDecode over the checked-in corpus plus 5 s of fresh mutations
#   json fuzz             — FuzzDecodeJSONVsReference: DecodeJSONScratch against json.Decoder+DisallowUnknownFields, seeds plus 5 s of fresh mutations
#   quant parity          — FuzzOrderKey: seeds plus 5 s of bit patterns, OrderKey(a) ≤ OrderKey(b) ⟺ a ≤ b off NaN and every NaN above +Inf;
#                           packed order-key walk bit-identical to the float walk on edge probes (edges, ±1 ulp, ±0 also against planted
#                           −0 thresholds, NaN of both signs, ± smallest subnormal, ±MaxFloat64, ±Inf), unit columns, the fused
#                           QuantizeBatch/PredictProbaCodes route, a 300+-column forest (whole frame and row lists) and Table 2 corpus at
#                           workers 1/4/8; an exact forest compiles and matches its float walk on the same probes at workers 1/4/8;
#                           compile refuses only unfitted forests and forests past the packed limits;
#                           TestQuantPredictSpeedup: >= 1.5x the float walk per row
#   malformed bundles     — a bundle whose forest would loop, index past the row, emit a non-probability or split on a NaN threshold,
#                           whose PCA step has no projection or a mis-shaped one, or whose model blob fails its sha256 checksum,
#                           fails to load, and POST /model answers 400 and keeps the old model and generation; v3, v4 and v5
#                           bundles load and predict bit for bit
#   predict allocs        — 0 allocs/op batch predict in the float, quant-serial and quant-sharded regimes; the fused key+walk
#                           route at 0 allocs serially and, at default parallelism, on a 256-row shard batch (one task, walked inline)
#   online-engine parity  — one kernel per feature step: StepBatchInto and Pipeline.TransformFrame both bit-identical to the test-only
#                           naive reference refTransformFrame (reference_test.go) under every batch partition, over runs of unequal
#                           length (one a single row), a frame with no spans (one implicit run) and a RowRange view whose first run
#                           is clipped, on every layout, the two PCA ones (pca-first, pca-last) included; compact rings (each
#                           ring row packed to the plan's ring set) on the history fixtures: one whose prefix and base rings
#                           hold different proper subsets (TestRingFixtureGeometry), one with a prefix ring only; liveness
#                           masking, and the backward pass against a perturb-one-column reference; the column-keeping steps
#                           copy, never alias; the pipeline golden; StateSlab.Bytes exact at the packed stride; slot reuse over
#                           dirtied rings; duplicate-slot rejection
#   engine callers        — the edge agent's Service and a central one agree bit for bit, and it forgets departed instances;
#                           fused vs float route; all-or-nothing ingest across shards; mid-batch rejection;
#                           Table 7 closed loop in-process and over HTTP against its golden; state gauge; PCA bundle served
#                           bit for bit and refused by a service of another engineered layout
#   offline memory        — FitFrame's deferred widening (time features and products fitted on the schema, the second filter
#                           fitted run by run) equals the eager fit step for step and bit for bit, for every second reduction
#                           with and without products, at GOMAXPROCS 1 and 8 (TestFitFrameMatchesEagerFit); one TransformFrame
#                           allocates ≤ 1.25 × (live computed + output columns) × rows × 8 B plus 1 MiB (TestTransformFrameAllocationBound)
#   step fuzz             — FuzzStepBatchVsTransformFrame against the test-only reference: seeds (all eight layouts, the two history
#                           fixtures and the two PCA layouts pca-first and pca-last included, and all four held-out run layouts) plus 5 s of fresh layouts and schedules
#   step allocs           — 0 allocs per steady-state batch step
#   HTTP smoke            — real cmd/serve on loopback: ingest, predictions, /metrics counters, clean SIGTERM drain
#   examples              — every examples/ program runs to exit 0; examples/edge reports 100.0 % edge/central agreement
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
go test -run 'TestExportedNamesHaveCallers|TestReachabilityScanSelf' -count=1 -v .

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
go test -run 'TestGenerateGoldenFrameBytes|TestGenerateDeterministicAcrossGOMAXPROCS|TestCSV' -count=1 -v ./internal/dataset/
go test -run 'TestGenerateFrameMatchesGenerate|TestSharedFrameStaysReadOnly' -count=1 -v ./internal/core/

lane "exact split parity"
go test -count=1 -run '^(TestExactSplitMatchesReference|TestUnitEntropyTableExact)$' -v ./internal/ml/tree/
go test -count=1 -run '^TestRFFilterKeepWorkerInvariant$' -v ./internal/features/
go test -run '^FuzzExactSplitVsReference$' -fuzz '^FuzzExactSplitVsReference$' -fuzztime=5s ./internal/ml/tree/

lane "learner contract"
go test -count=1 -run '^(TestValidateFrame|TestLearnerFitGolden|TestAdaBoostGroupedCVGolden|TestTable2PipelineParityGolden)$' ./internal/ml/ ./internal/experiments/

lane "benchmark smoke"
go test -run '^$' -bench 'BenchmarkTreeFit' -benchtime=1x ./internal/ml/tree/
go test -run '^$' -bench 'BenchmarkForest' -benchtime=1x ./internal/ml/forest/
go test -run '^$' -bench 'BenchmarkRFFilterFit|BenchmarkTransformFrame' -benchtime=1x ./internal/features/
go test -run '^$' -bench 'BenchmarkEngineTick' -benchtime=1x ./internal/apps/
go test -run '^$' -bench 'BenchmarkAgentObserveTick' -benchtime=1x ./internal/pcp/

lane "serving race"
go test -race -count=1 -run 'TestShardedIngestRace|TestScrapeDuringIngestRace' -v ./internal/serving/

lane "ingest allocs"
go test -run 'TestIngestAllocations|TestJSONIngestAllocations' -count=1 -v ./internal/serving/

lane "lifecycle race"
go test -race -count=1 -run 'TestLifecycleSwapRace' -v ./internal/serving/

lane "lifecycle allocs"
go test -run TestSwapChurnAllocations -count=1 -v ./internal/serving/
go test -run 'TestCellObserveAllocs|TestAccumObserveAllocs' -count=1 -v ./internal/lifecycle/

lane "drift fuzz"
go test -run '^FuzzCellObserveVsReference$' -fuzz '^FuzzCellObserveVsReference$' -fuzztime=5s ./internal/lifecycle/

lane "wire fuzz"
go test -run '^FuzzWireDecode$' -fuzz '^FuzzWireDecode$' -fuzztime=5s ./internal/serving/

lane "json fuzz"
go test -run '^FuzzDecodeJSONVsReference$' -fuzz '^FuzzDecodeJSONVsReference$' -fuzztime=5s ./internal/serving/

lane "quant parity"
go test -count=1 -run '^FuzzOrderKey$' -v ./internal/frame/
go test -run '^FuzzOrderKey$' -fuzz '^FuzzOrderKey$' -fuzztime=5s ./internal/frame/
go test -count=1 -run 'TestQuant(BitIdentity|WorkerCountInvariance|PredictEdgeValues|WideForestPacks)|TestPredictCodesBitIdentical|TestExactForestCompiles|TestCompileErrors' -v ./internal/ml/forest/
go test -count=1 -run TestTable2QuantBitIdentity $short ./internal/experiments/
go test -run TestQuantPredictSpeedup -count=1 -v ./internal/ml/forest/

lane "malformed bundles"
go test -count=1 -run 'TestLoadBundleRejectsMalformedForest|TestBundleLoadsV3AndV5|TestStreamedBundleStillLoads' -v ./internal/core/
go test -count=1 -run TestModelEndpointRejectsMalformedForest -v ./internal/serving/

lane "predict allocs"
go test -run 'TestForestBatchPredictAllocations|TestPredictCodesAllocations' -count=1 -v ./internal/ml/forest/

lane "online-engine parity"
go test -count=1 -run 'TestStepBatch|TestStateSlab|TestRingFixture|TestBatchPlan|TestDropZeroVarianceLiveness|TestStreamer|TestKeepSteps|TestPipelineGolden' ./internal/features/

lane "engine callers"
go test -count=1 -run 'TestEdgeAgentMatchesCentral|TestEdgeAgentForgetsDepartedInstances' ./internal/serving/
go test -count=1 -run 'TestIngestAtomicAcrossShards|TestReplayClosedLoopMatchesInProcess|TestShardCountEquivalence|TestFusedIngestShardWorkerInvariance|TestMidBatchRejectionConsistency|TestInstanceStateBytesGauge|TestIngestFallbackCounter|TestPCAModelRefused' ./internal/serving/
go test -count=1 -run 'TestHTTPStreamingMatchesBatchPredictions/pca-bundle' ./internal/serving/

lane "offline memory"
go test -count=1 -run '^(TestFitFrameMatchesEagerFit|TestTransformFrameAllocationBound)$' -v ./internal/features/

lane "step fuzz"
go test -run '^FuzzStepBatchVsTransformFrame$' -fuzz '^FuzzStepBatchVsTransformFrame$' -fuzztime=5s ./internal/features/

lane "step allocs"
go test -run TestStepBatchAllocations -count=1 -v ./internal/features/

lane "HTTP smoke"
go run ./scripts/smoke

lane "examples"
for ex in examples/*/; do
    echo "--- $ex"
    out=$(go run "./$ex")
    if [ "$ex" = "examples/edge/" ]; then
        grep -F '(100.0%)' <<<"$out"
    fi
done

lane "bench module"
(cd bench && go vet ./... && go test ./...)

echo "verify: all lanes green"
