#!/usr/bin/env bash
# ci/run.sh <step> runs one CI step from the repository root; every step of
# .github/workflows/ci.yml is a `run: ci/run.sh <step>` line, and
# ci/workflow_test.go checks that the two agree.
#
# ci/run.sh offline runs every step in order except the three that cannot
# run without the network or take a whole benchmark run: staticcheck and
# govulncheck (fetched through go run …@version) and benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

step=${1:-}
case "$step" in
gofmt)
	out=$(gofmt -l .)
	if [ -n "$out" ]; then
		echo "gofmt needed on:" && echo "$out" && exit 1
	fi
	;;
vet)
	go vet ./...
	;;
staticcheck)
	go run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...
	;;
govulncheck)
	go run golang.org/x/vuln/cmd/govulncheck@latest ./...
	;;
build)
	go build ./...
	;;
portable)
	# The !amd64 stubs of the AVX2 and AVX-512 tiers (back-projection, the
	# radix-4 FFT passes, the filter core's passes, small ends and fused
	# ends) must compile and vet; off amd64 the kernels and the filter on
	# them are portable Go.
	GOARCH=arm64 go build ./...
	GOARCH=arm64 go vet ./internal/ct/kernels/ ./internal/ct/backproject/ ./internal/fft/ ./internal/ct/filter/
	;;
fusion)
	# Go may fuse x*y ± z into one rounding on arm64, ppc64le and s390x
	# unless an explicit float32(…) or float64(…) rounds the product (Go
	# spec, Floating-point operators); amd64 never does. The back-projection
	# path — internal/ct/interp, internal/ct/kernels/backproject.go and
	# internal/ct/backproject — the filter's — internal/ct/filter and
	# internal/ct/kernels/filter.go, and the complex FFT behind its ramp
	# spectrum, internal/fft — the serial loop and the preview tier on it —
	# internal/ct/fdk, internal/ct/preview and its block means in
	# internal/ct/kernels/decimate.go — pkg/volume's statistics (Stats,
	# RMSE) and the staged bytes — internal/ct/phantom and
	# internal/ct/projector — and what fixes every volume's add order — the
	# pipeline in internal/core and the reduce tree in internal/hpc/mpi —,
	# inlined copies included, must compile to no fused multiply-add on any
	# of them, so that their bits do not depend on GOARCH. Still outside the
	# gate: the filter core's own FFT passes (internal/ct/kernels/fft.go),
	# internal/ct/geometry and math.Sin / math.Cos themselves. This only
	# cross-compiles: arm64 tests are not run here.
	status=0
	for arch in arm64 ppc64le s390x; do
		fused=$(GOARCH=$arch go build -gcflags='ifdk/...=-S' ./... 2>&1 |
			grep -E '[[:space:]]FN?M(ADD|SUB)[SD]?[[:space:]]' |
			grep -E '\(.*/(internal/ct/(interp/|kernels/(backproject|filter|decimate)\.go|backproject/|filter/|fdk/|preview/|phantom/|projector/)|internal/(fft|core|hpc/mpi)/|pkg/volume/)' || true)
		if [ -n "$fused" ]; then
			echo "fused multiply-adds on $arch:" && echo "$fused"
			status=1
		fi
	done
	exit $status
	;;
build-gate)
	# The public surface and the router must always compile standalone.
	go build ./pkg/... ./cmd/ifdk-router ./cmd/ifdkd ./cmd/ifdk-load
	;;
test)
	go test -shuffle=on ./...
	;;
examples)
	# The smoke run; the client leg submits through the SDK to an
	# in-process daemon and verifies against serial FDK. ifdk-bench all
	# regenerates every table and figure of the paper's evaluation.
	go run ./examples/quickstart
	go run ./examples/client -nx 16
	go run ./cmd/ifdk-bench all
	;;
benchmark-module)
	# A nested go.mod, so ./... above compiles neither benchmark/ nor its
	# tests.
	(cd benchmark && go test ./...)
	;;
coverage)
	# Service, core and client; the floors are earlier baselines.
	go test -shuffle=on -cover ./internal/service/ ./internal/core/ ./pkg/client/ | tee cover.txt
	svc=$(grep 'internal/service' cover.txt | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*')
	cli=$(grep 'pkg/client' cover.txt | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*')
	rm -f cover.txt
	echo "internal/service coverage: ${svc}%  pkg/client coverage: ${cli}%"
	awk -v c="$svc" 'BEGIN { if (c+0 < 89.0) { print "service coverage " c "% dropped below the 89.0% baseline"; exit 1 } }'
	awk -v c="$cli" 'BEGIN { if (c+0 < 74.0) { print "pkg/client coverage " c "% dropped below the 74.0% baseline"; exit 1 } }'
	;;
bench-smoke)
	# One iteration of every benchmark keeps the benchmark code compiling.
	go test -run '^$' -bench . -benchtime 1x ./...
	;;
gates)
	# Allocation and determinism gates: the filter allocates nothing per
	# projection (its one end, ApplyEncoded from the staged bytes and
	# ApplyImage from an image, into the transposed block at even and odd
	# Nv and at Nu 256, where the fused ends prefetch; and the benchmark's
	# wrappers ApplyInto and Sweep) and Sweep ≡ ApplyInto bitwise at any
	# worker count; back-projection allocates nothing per projection
	# (Proposed on both layouts, slab pairs at h = 5, the fleet_mixed depth
	# h = 2 on the gather kernel, fleet_mixed's h = 16, 8 and 4 on the
	# window tier, a grid column's one sweep over two h = 8 pairs
	# (ProposedSlabs), projection_heavy's h = 8 on a 512² detector — one block of
	# tiles on one worker, gated at 0 allocations —, and Standard) and
	# returns every pooled byte; the serial loop (fdk.Reconstruct)
	# allocates nothing per batch and returns every pooled byte; pooled
	# collectives; decimation allocates nothing; the analytic renderer ≡ the
	# one-ray derivation bitwise, on the service's phantoms and on the
	# shapes its row and column plane culling could get wrong (tangent
	# silhouettes, sub-pixel and off-detector ellipsoids, 70 of them); a
	# streamed slice part costs the SDK one buffer the size of its payload
	# (read by its Content-Length, decoded in place).
	go test -run 'TestApplyIntoSteadyStateAllocs|TestSweepBitIdenticalToApplyInto' -v ./internal/ct/filter/
	go test -run 'TestAnalyticBitIdenticalToOneRayLoop|TestRenderCullEdgeCases' -v ./internal/ct/projector/
	go test -run 'TestBackprojectSteadyStateAllocs' -v ./internal/ct/backproject/
	go test -run 'TestReconstructSteadyStateAllocs' -v ./internal/ct/fdk/
	go test -run 'AllocRegression' -v ./internal/hpc/mpi/
	go test -run 'TestDecimateIntoNoAllocs' -v ./internal/ct/preview/
	go test -run 'TestStreamDecodeAllocs' -v ./pkg/client/
	# The identity gate: the pinned result and preview keys and dataset
	# prefixes, SpecKey equal to Submit's key, and each field the key names
	# moving both the key and the volume's bits while no field that only
	# delivers the volume moves either. A moved key misses every cache and
	# reroutes the fleet.
	go test -run 'TestCacheKeyPinned|TestDatasetPrefixPinned|TestSpecKeyMatchesSubmitKey|TestKeyNamesWhatTheVolumeIs' -v ./internal/service/
	;;
durability)
	# Crash/restart, failover, progressive end to end and parallel staging
	# under cancel and write faults, under the race detector; then, 20 times
	# each, the PFS ownership soak (24 distinct scans at MaxJobs 2: only the
	# retained records' scans stay stored, and nothing under jobs/), a
	# /stream consumer that lags past its job's settle, /slice reads racing
	# the settle, /slice reads of each slice as it is handed over, from the
	# job's volume while the row roots still fill it, a /stream consumer that
	# lags past its result's eviction, serving reads that count no cache
	# lookup, a one-entry cache bounding fifteen settled results, admission
	# returning every charge on every lifecycle path, and the dataset table
	# staging a scan once and deleting it with its last reference.
	go test -race -count=1 -run 'TestCrashRestart|TestJournal|TestCancelPopRace|TestLifecycleTable|TestApplyRefusesStaleState|TestTraceCompleteWhileJobRetained' ./internal/service/
	go test -race -count=1 -run 'TestE2EProgressiveCoarseToFine|TestPreviewCacheNeverAliases' ./internal/service/
	go test -race -count=50 -run 'TestCancelDuringStaging|TestStagingWriteFaultMidScan' ./internal/service/
	go test -race -count=20 -run 'TestSoakDistinctScansReleased|TestStreamLaggingConsumerGetsEverySliceOnce|TestSliceServedAcrossSettle|TestStreamKeepsVolumeAcrossEviction|TestServingReadsLeaveCacheCountersAlone|TestManagerCacheBudgetBoundsRetainedResults|TestDeleteJobCleansNamespace|TestAdmissionReturnsEveryCharge|TestDatasetsStageOnceDeleteWithLast' ./internal/service/
	go test -race -count=1 -run 'TestFailoverPendingJobs|TestRelaySurvives|TestTerminalRouteTTL|TestProgressiveStreamThroughRouter|TestRouteTable|TestRoutesWrittenOnlyByApply|TestStrandedRoute' ./internal/router/
	;;
tiers)
	# Kernel tiers under the race detector: ref / portable / AVX2 / AVX-512
	# parity (the avx512 legs skip on a host without AVX-512, and the isa=
	# line says which ran) — the back-projection driver on whole and
	# slab-pair volumes, a grid column's one sweep ≡ its ranks' slab-pair
	# passes (TestSlabsBitIdenticalToSlabPairs), the window tier's path mix,
	# the FFT passes, Convolve, the filter's fused ends
	# (TestFusedEndsSignedZeros) and the filter on them, the fuzz seeds; the
	# blocked epilogue's transpose, pinned volume bits and plane-buffer
	# release, and the slab pairs a column's lead sweeps into going back to
	# the pool when a 4×2 run is cancelled mid-batch or a rank it sweeps for
	# fails; the in-place reduce's tree order and the groups it runs over.
	go test -count=1 -v -run 'TestISAValues' ./internal/ct/kernels/ | grep 'isa='
	go test -race -count=1 ./internal/ct/kernels/ ./internal/ct/backproject/ ./internal/ct/filter/
	go test -race -count=1 -run 'TestVolumeBitsPinned|TestEpilogueFailureReleasesPlanes|TestRunContextCancelMidBatchReleasesSlabs|TestNonLeadFilterFailureReleasesSlabs' ./internal/core/
	go test -race -count=1 -run 'KMajorToIMajor|Reshape' ./pkg/volume/
	go test -race -count=1 -run 'Reduce|Group' ./internal/hpc/mpi/
	;;
tiers-v3)
	# The kernel tiers and the pinned bits built at GOAMD64=v3: coverage of
	# the AVX2-era code generation the portable loops get there. amd64
	# emits no fused multiply-add at v1 or at v3, so this step is not a
	# fusion check.
	GOAMD64=v3 go test -count=1 -v -run 'TestISAValues' ./internal/ct/kernels/ | grep 'isa='
	GOAMD64=v3 go test -count=1 ./internal/ct/kernels/ ./internal/ct/filter/ ./internal/ct/backproject/ ./internal/ct/projector/
	GOAMD64=v3 go test -count=1 -run 'TestVolumeBitsPinned' ./internal/core/
	;;
race)
	go test -race -shuffle=on ./...
	;;
flake-screen)
	# Concurrent packages, 20 shuffled repeats: a test that is red one run
	# in six must not reach main unseen.
	go test -count=20 -shuffle=on ./internal/service/... ./internal/router/ ./internal/core/ \
		./internal/hpc/mpi/ ./pkg/client/
	;;
trace-spans)
	# Every lifecycle span, store included, on every run of 500; a settled
	# job's trace stays complete while its record lives.
	go test -count=500 -run 'TestTraceEndToEnd|TestRouterTraceEndToEnd|TestTraceCompleteWhileJobRetained' ./internal/service/ ./internal/router/
	;;
fuzz)
	# Ten seconds each: the wire codec (pkg/api's one SSE decoder and its one
	# slice-stream decoder, which frames every part by its Content-Length
	# and round-trips each part it yields), the traceparent parser, the spec resolver, journal replay and
	# compaction, the projection decoder, the analytic renderer's plane
	# culling ≡ the one-ray loop on random ellipsoids, and the assembly
	# wrappers across tiers (DIF / DIT / Convolve, AccumColumns and
	# AccumColumnsWindow, filter.ApplyEncoded on every tier ≡ the portable
	# tier's unfused chain, and ApplyImage ≡ ApplyEncoded of the image's
	# bytes), and core.Run's volumes across tiers on random
	# geometries and grids. The seeds also run as plain tests in the test
	# step.
	go test -run '^$' -fuzz FuzzReadEvents -fuzztime 10s ./pkg/api
	go test -run '^$' -fuzz FuzzSliceReader -fuzztime 10s ./pkg/api
	go test -run '^$' -fuzz FuzzParseTraceParent -fuzztime 10s ./pkg/api
	go test -run '^$' -fuzz FuzzResolveSpec -fuzztime 10s ./internal/service
	go test -run '^$' -fuzz FuzzReadJournal -fuzztime 10s ./internal/service
	go test -run '^$' -fuzz FuzzImageFromBytesInto -fuzztime 10s ./pkg/volume
	go test -run '^$' -fuzz FuzzRenderMatchesOneRay -fuzztime 10s ./internal/ct/projector
	go test -run '^$' -fuzz FuzzRadix4Tiers -fuzztime 10s ./internal/ct/kernels
	go test -run '^$' -fuzz FuzzAccumColumnsTiers -fuzztime 10s ./internal/ct/kernels
	go test -run '^$' -fuzz FuzzApplyEncodedTiers -fuzztime 10s ./internal/ct/kernels
	go test -run '^$' -fuzz FuzzPipelineTiers -fuzztime 10s ./internal/ct/kernels
	;;
benchmark)
	# One real fleet_mixed run; a non-zero exit fails the step.
	bash benchmark/run.sh --workload fleet_mixed --seed 1 --seconds 18 --trace 0
	;;
offline)
	for s in $(grep -oE '^[a-z0-9-]+\)$' "$0" | tr -d ')'); do
		case "$s" in
		staticcheck | govulncheck | benchmark | offline) continue ;;
		esac
		echo "== ci/run.sh $s"
		"$0" "$s"
	done
	;;
*)
	echo "usage: ci/run.sh <step>; steps:" $(grep -oE '^[a-z0-9-]+\)$' "$0" | tr -d ')') >&2
	exit 2
	;;
esac
