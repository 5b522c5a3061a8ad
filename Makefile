# Tier-1 verification plus the race/bench targets the telemetry PR added.
#
#   make check           # vet + build + tests with -race + verify + load + cluster + segment + rebalance gates
#   make check-verify    # golden runs, conservation invariants, parser fuzzing
#   make check-load      # sharded-store stress + admission + loadgen soaks, -race
#   make check-cluster   # multi-node routing/replication/failover + chaos soak, -race
#   make check-segment   # segment engine: crash windows, fuzz seeds, goldens, -race
#   make check-rebalance # elastic scale-in/out: ring property, epoch, soaks, goldens, -race
#   make bench         # regression benchmark suite -> BENCH_9.json
#   make bench-paper   # full reproduction driver (tables/figures + ablations)
#   make loc           # production/test Go line counts

GO ?= go

# Per-target budget for the short fuzz shake-out in check-verify.
FUZZTIME ?= 10s

# Fixed per-benchmark budget so BENCH_*.json files are comparable run to run.
BENCHTIME ?= 300ms

.PHONY: check vet build test race bench bench-paper bench-telemetry \
	check-reliability check-verify check-load check-cluster check-segment \
	check-rebalance fuzz-seeds loc

check: vet build race check-verify check-load check-cluster check-segment check-rebalance

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The scale-regression suite. Fixed -benchtime keeps runs comparable;
# bench-report turns the text output into BENCH_9.json (per-benchmark
# metrics plus the derived ratios — single-core caveat notes are now
# attached automatically to every parallelism-derived metric whenever
# num_cpu=1, so the JSON is self-describing on any runner).
# BenchmarkIngestBatchTraced rides the same regex and tracks the tracing
# on/off delta on the ingest hot path (budget: <5% median overhead);
# BenchmarkIngestBatchWire compares the NPB2 binary batch encoding
# against JSON (targets: >= 5x rows/s/core, >= 10x fewer allocs/batch);
# the cluster trio prices the front tier; the segment/figures quartet
# prices the storage engine — flush throughput
# (segment_flush_rows_per_sec), segment-scan vs in-memory analysis
# (segment_scan_overhead), and the incremental dashboard refresh vs full
# recomputation (incremental_figure_speedup).
bench:
	{ \
	  $(GO) test -run='^$$' -bench='BenchmarkStoreAppend|BenchmarkDedupeMark|BenchmarkStoreSave|BenchmarkShardedMerge' \
	    -benchtime=$(BENCHTIME) -benchmem ./internal/dataset/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkIngestBatch' -benchtime=$(BENCHTIME) -benchmem ./internal/collector/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkSpoolDrain' -benchtime=$(BENCHTIME) -benchmem ./internal/spool/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkWorldRunHome' -benchtime=$(BENCHTIME) -benchmem ./internal/world/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkLoadgenEndToEnd' -benchtime=$(BENCHTIME) -benchmem ./internal/loadgen/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkRingLookup|BenchmarkFrontRouteBatch|BenchmarkHandoffReplay' \
	    -benchtime=$(BENCHTIME) -benchmem ./internal/cluster/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkSegmentFlush|BenchmarkSegmentReopen' \
	    -benchtime=$(BENCHTIME) -benchmem ./internal/segment/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkAnalysisScan|BenchmarkFigureRefresh' \
	    -benchtime=$(BENCHTIME) -benchmem ./internal/figures/ ; \
	} | $(GO) run ./cmd/bench-report -pr 9 -out BENCH_9.json

# The full paper-reproduction driver (tables/figures + ablations).
bench-paper:
	$(GO) test -bench=. -benchmem

# The telemetry-overhead gate: counter/gauge/histogram updates on the
# capture hot path must stay cheap (< 25 ns/op for counter increments).
bench-telemetry:
	$(GO) test -run='^$$' -bench='BenchmarkTelemetry' -benchmem

# The upload-pipeline reliability gate, under the race detector: the
# spool suite (retry/overflow/journal/concurrency), the collector
# fault-injection suite (zero row loss through 30% failed POSTs plus a
# server restart, idempotency dedupe, journal recovery across a client
# restart), and the gateway export/throttle regressions.
check-reliability:
	$(GO) test -race ./internal/spool/
	$(GO) test -race -run 'TestZeroRowLoss|TestSpoolJournal|TestBatch|TestIdempotency|TestOversized|TestChunked|TestErrorResponses|TestClientErrSurfacesFailures|TestWire|TestGzip|TestDirectEndpoint|TestBinary' ./internal/collector/
	$(GO) test -race -run 'TestFlowExport|TestPowerOffExports|TestScanThrottle' ./internal/gateway/

# The correctness-harness gate:
#   1. golden runs — a deterministic deployment through the real
#      agent→spool→HTTP→collector path, snapshots compared against
#      testdata/golden (regenerate with: go test ./internal/verify -update);
#   2. cross-layer conservation invariants and the determinism check
#      (same seed twice → byte-identical snapshots);
#   3. round-trip and export regressions for the wire/disk formats;
#   4. a short fuzz shake-out of every wire/disk parser ($(FUZZTIME)
#      each) on top of their checked-in seed corpora.
check-verify: fuzz-seeds
	$(GO) test -race ./internal/verify/
	$(GO) test -race -run 'TestThroughput|TestWriterReaderRoundTrip|TestReaderTruncatedStream|TestJournal' \
		./internal/gateway/ ./internal/pcap/ ./internal/spool/
	$(GO) test -run='^$$' -fuzz='FuzzParse' -fuzztime=$(FUZZTIME) ./internal/dns/
	$(GO) test -run='^$$' -fuzz='FuzzReader' -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -run='^$$' -fuzz='FuzzDecode' -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -run='^$$' -fuzz='FuzzJournalReplay' -fuzztime=$(FUZZTIME) ./internal/spool/
	$(GO) test -run='^$$' -fuzz='FuzzRequestDecode' -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run='^$$' -fuzz='FuzzBatchTranscode' -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run='^$$' -fuzz='FuzzWireDecode' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='FuzzWireRoundTrip' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='FuzzSchemaDecode' -fuzztime=$(FUZZTIME) ./internal/codec/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentDecode' -fuzztime=$(FUZZTIME) ./internal/segment/

# The scale gate, under the race detector:
#   1. sharded-store stress (32 shards, concurrent appliers + replays)
#      and the CSV-identity regression against the single-lock seed store;
#   2. collector admission control — 429 + Retry-After when ingest is
#      saturated, control plane exempt;
#   3. loadgen soaks — ~200 synthetic routers with strict row accounting,
#      clean and under fault injection / throttling;
#   4. analysis figures on a 10k-router synthetic store within their
#      per-figure time budgets (O(n^2) regression guard).
check-load:
	$(GO) test -race -run 'TestSharded' ./internal/dataset/
	$(GO) test -race -run 'TestSaturatedIngest|TestControlPlaneExempt' ./internal/collector/
	$(GO) test -race ./internal/loadgen/
	$(GO) test -race -run 'TestScale' ./internal/analysis/

# The cluster gate, under the race detector:
#   1. the multi-node suite — consistent-hash routing spread, retry
#      dedupe through the front, JSON/direct endpoint proxying,
#      journal-replay failover (also into a node reborn before anyone
#      judged it dead), and first-write key seeding on rejoin;
#   2. the chaos soak — a 3-node cluster under a live loadgen fleet
#      with one node killed mid-run and rejoined, gated on zero lost
#      and zero duplicated rows;
#   3. a short fuzz shake-out of the NPC1 control-plane codec on top of
#      its checked-in seed corpus.
check-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -run='^$$' -fuzz='FuzzControlDecode' -fuzztime=$(FUZZTIME) ./internal/cluster/

# The elastic-rebalancing gate, under the race detector:
#   1. the ring relocation property/metamorphic suite — adding one node
#      moves at most its fair share of keys, and every moved key lands
#      on the added node; replica sets stay stable for unmoved keys;
#   2. the epoch state machine — CRDT-shaped merge of committed/pending
#      epochs, version precedence, commit retirement, ring selection;
#   3. the ownership-extraction suites — dataset and segment stores
#      carve out a router subset (rows + dedupe keys) without touching
#      unmatched rows, concurrent with ingest, across restarts;
#   4. the scale-event suite — mid-run join and drain with ownership
#      accounting, epoch fencing (whole-batch 429 + Retry-After during
#      cutover), two-front convergence, and the scale-out/drain chaos
#      soaks under live loadgen (short profile) on in-memory and on
#      segment-backed nodes, gated on zero lost and zero duplicated rows;
#   5. the rebalance goldens — a join and a drain fired mid-run through
#      the full verify deployment, merged snapshots byte-identical to
#      the single-node golden (JSON-wire variants run in full mode via
#      check-verify).
check-rebalance:
	$(GO) test -race -run 'TestRingRelocationProperty|TestRingReplicaSetStability|TestMembership' ./internal/cluster/
	$(GO) test -race -run 'TestKeyRouter|TestExtract|TestSplitRouters' ./internal/dataset/ ./internal/segment/
	$(GO) test -race -short -run 'TestClusterScaleOutTransfersOwnership|TestClusterDrainViaFrontEndpoint|TestFrontFencesDuringCutover|TestTwoFrontsConvergeOnEpoch|TestChaosSoakScaleOut|TestChaosSoakDrain' ./internal/cluster/
	$(GO) test -race -short -run 'TestClusterGoldenJoinMidRun|TestClusterGoldenDrainMidRun' ./internal/verify/

# The segment-storage gate, under the race detector:
#   1. the segment engine suite — encode/decode round-trips, the
#      merge-order substitution contract against the sharded store,
#      dedupe handoff across the flush boundary, crash-window
#      regressions (truncated tail, torn footer, kill between flush and
#      handoff, tmp leftovers, compaction supersession healing);
#   2. the incremental-analysis equivalence suite — partial folds,
#      merges, and the live dashboard against the batch figures;
#   3. the segment-backed verify goldens — the storage engine swapped in
#      under the full deployment (single-node, JSON wire, 3-node
#      cluster), snapshots byte-identical to the in-memory golden;
#   4. a short fuzz shake-out of the NPS1 decoder on top of its
#      checked-in seed corpus.
check-segment:
	$(GO) test -race ./internal/segment/
	$(GO) test -race -run 'TestPartialEquivalence|TestDashboard' ./internal/figures/
	$(GO) test -race -run 'Segment' ./internal/verify/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentDecode' -fuzztime=$(FUZZTIME) ./internal/segment/

# Replay the checked-in fuzz corpora as plain unit tests (fast, -race).
fuzz-seeds:
	$(GO) test -race -run 'Fuzz' ./internal/dns/ ./internal/pcap/ ./internal/packet/ ./internal/spool/ ./internal/collector/ ./internal/codec/ ./internal/wire/ ./internal/cluster/ ./internal/segment/

# Go line counts, production and test, both raw and non-blank
# non-comment ("code"), excluding perfbench/ and .bench_build/. A change
# reports its net production-line delta from this.
LOC_FIND = find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*'
LOC_AWK = '{ s = $$0; gsub(/^[ \t]+|[ \t]+$$/, "", s); raw++; \
	if (blk) { if (s ~ /\*\//) blk = 0; next } \
	if (s == "" || s ~ /^\/\//) next; \
	if (s ~ /^\/\*/) { if (s !~ /\*\//) blk = 1; next } \
	code++ } END { printf "%7d raw %7d code\n", raw, code }'

loc:
	@printf 'production '; $(LOC_FIND) -not -name '*_test.go' -exec cat {} + | awk $(LOC_AWK)
	@printf 'test       '; $(LOC_FIND) -name '*_test.go' -exec cat {} + | awk $(LOC_AWK)
