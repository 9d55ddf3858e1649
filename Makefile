# IoT Sentinel build/test entry points. `make verify` is the tier-1
# gate (vet + gofmt check + build + a vulnerability/static-analysis
# pass when the tooling is installed + shuffled full test suite + the
# full suite under -race (`make test-race`) + the crash fault-injection
# sweep + the seeded fleet-link chaos sweep (see `make chaos`) + a
# short fuzz pass over the capture ring and readers, the frame decoder
# and the frame layout Marshal and the builders share,
# the forest and model-file deserializers, the packed-symbol codec, the fingerprint
# head and packed-F decoder, the edit-distance kernel and discrimination
# scoring, the cluster-linkage input, the fleet wire decoders and the
# store's record and snapshot-row decoders +
# the benchmark module's own vet and tests
# (`make bench-smoke`) + a short sustained-load soak with its
# leak/latency gates);
# `make test-race` runs every package's tests under the race detector;
# `make fuzz` runs each fuzz target for FUZZTIME; `make crash` runs the
# journal truncation/corruption sweeps and restart differential tests;
# `make chaos` runs the fleet-link fault-injection suites under a
# logged CHAOS_SEED (override to reproduce a failing schedule);
# `make bench` runs every paper-table benchmark plus the parallel
# train/identify sweeps; `make bench-json` archives the hot-path
# benchmarks as BENCH_<date>.json for cross-commit diffing, or as
# BENCH_<date>b.json, c, ... when the day already has an archive (it
# never overwrites one);
# `make bench-check` diffs the two newest archives and fails on a >10%
# ns/op regression (or a zero-alloc path that started allocating);
# `make bench-pair PARENT=<rev> DROPIN=<test files>` archives the same
# benchmarks for the parent revision and this checkout, alternating
# package by package, as the two newest archives bench-check reads
# (scripts/bench-pair.sh);
# `make e2e-pair PARENT=<rev> WORKLOAD=<w> PAIRS=<n> SEED0=<s>` runs the
# end-to-end benchmark (bench/run.sh) alternately on the parent revision
# and this checkout, reports each metric's medians, quartiles, wins
# and BENCHMARK.json bound check, and archives that report with every
# run's values as docs/bench/E2E_<date>_<workload>.json (scripts/e2e-pair.sh);
# `make soak` sustains SOAK_DEVICES modeled devices with churn through
# the capture front end and the daemon's own gateway assembly for
# SOAK_DURATION: a pass/fail gate on p99 latency, RSS, goroutine growth
# and state-dir fd leaks that leaves no file behind when it passes.
# Throughput is bench/'s to measure (BENCHMARK.json), not the soak's.
# `make footprint` runs the tests that bound the per-structure heap
# figures ROADMAP.md quotes, verbosely, so each logs its figure.

GO ?= go
BENCH_PKGS ?= ./internal/...
# The root-package paper benchmarks worth archiving: the single-probe
# and batch identification hot paths over the full 27-type bank, and
# what building one costs (train, add a type, load). The
# heavyweight figure/table benchmarks (cross-validation sweeps) stay
# out of the archive — `make bench` still runs them all.
BENCH_ROOT ?= ^Benchmark(ClassifySingle|EditDistanceSingle|TypeIdentification|FingerprintExtraction|TrainIdentifier|AddType|LoadIdentifier)$$
# bench-json runs each benchmark BENCH_COUNT times; cmd/benchjson keeps
# the minimum ns/op per benchmark, damping scheduler noise on busy
# hosts so `make bench-check` compares capability, not luck.
BENCH_COUNT ?= 3
FUZZTIME ?= 10s
# Soak defaults: short enough for the verify gate, big enough to model
# a real fleet's device population on one gateway.
SOAK_DURATION ?= 30s
SOAK_DEVICES ?= 10000
# Seed for the chaos-conn fault schedule. Defaults to today's date so
# routine runs rotate through schedules; a failing run is reproduced by
# re-running with the seed it logged.
CHAOS_SEED ?= $(shell date +%Y%m%d)

.PHONY: all build vet fmt-check vulncheck verify test test-race fuzz crash chaos soak bench bench-parallel bench-json bench-check bench-pair bench-smoke e2e-pair size footprint clean

all: verify

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Vulnerability scan when govulncheck is installed; static analysis via
# staticcheck as the offline fallback; a visible skip when the
# container has neither (the gate must not depend on network access).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "vulncheck: neither govulncheck nor staticcheck installed; skipping"; \
	fi

verify: vet fmt-check build vulncheck
	$(GO) test -shuffle=on ./...
	$(MAKE) test-race
	$(MAKE) crash
	$(MAKE) chaos
	$(MAKE) fuzz
	$(MAKE) bench-smoke
	$(MAKE) soak

# bench/ is a module of its own; building it here makes an internal API
# change that breaks the benchmark fail in seconds, ahead of bench-smoke.
build:
	$(GO) build ./...
	cd bench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...

test: vet build
	$(GO) test -shuffle=on ./...

test-race:
	$(GO) test -race -count=1 ./...

# -run='^$$' on every line: without it each `go test -fuzz` first runs
# its package's whole unit suite (internal/fleet's e2e and chaos tests,
# twice), which is neither what this target is for nor quick.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzRingDelivery$$' -fuzztime=$(FUZZTIME) ./internal/capture/
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzMarshalLayout$$' -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzReadPcap$$' -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -run='^$$' -fuzz='^FuzzReadPcapNG$$' -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=$(FUZZTIME) ./internal/ml/rf/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadIdentifier$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzPackRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/features/
	$(GO) test -run='^$$' -fuzz='^FuzzHead$$' -fuzztime=$(FUZZTIME) ./internal/fingerprint/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeF$$' -fuzztime=$(FUZZTIME) ./internal/fingerprint/
	$(GO) test -run='^$$' -fuzz='^FuzzBandedDistance$$' -fuzztime=$(FUZZTIME) ./internal/editdist/
	$(GO) test -run='^$$' -fuzz='^FuzzDistanceSum$$' -fuzztime=$(FUZZTIME) ./internal/editdist/
	$(GO) test -run='^$$' -fuzz='^FuzzClusterLinkage$$' -fuzztime=$(FUZZTIME) ./internal/learn/
	$(GO) test -run='^$$' -fuzz='^FuzzFrameDecoder$$' -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -run='^$$' -fuzz='^FuzzBatchDecoder$$' -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -run='^$$' -fuzz='^FuzzEventDecode$$' -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotRowDecode$$' -fuzztime=$(FUZZTIME) ./internal/store/

# The crash fault-injection sweep: journal torn-tail truncation at
# every byte, single-byte corruption at every byte and snapshot damage
# (each over the binary format across a segment boundary), the
# demotion-ordering crash test, checkpoints beside churn and rotation,
# the quarantined-before-crash -> promoted-after-restart flow, a
# model save cut between its blob and its serving pointer, and a learned
# type's promotion whose bank could not be stored or whose record a
# crash took after the bank was stored.
crash:
	$(GO) test -count=1 -run 'TestCrashRecovery|TestRestartResumes|TestJournalTornTail|TestJournalCorruption|TestSnapshotCorruption|TestCheckpoint|TestCorruptSegment|TestModelPointerCrash|TestPromotionStoreFailureRetrainsAfterRestart|TestPromotionCrashBeforeRecordAdoptsStoredType' \
		./internal/gateway/ ./internal/store/ ./internal/learn/

# The fleet-link chaos sweep: the seed-driven fault middleware's own
# suite plus the e2e canary-rollout-under-faults and half-open-peer
# scenarios, pinned to CHAOS_SEED so a red run reproduces exactly, and
# under the race detector: an interleaving is what these suites are
# for, and it is where the rollout's ack/counters race showed. Then the
# gateway's interleaving tests — Close racing finishing captures, the
# sharded hammer, verdicts for departed and rejoined devices, a removal
# racing a rejoin, racing quarantine drains — ten times each under the
# race detector, since one run of a race shows only one of its
# interleavings; two capture readers forwarding at once — their devices
# fill disjoint shards and switch stripes (packet.MACWord.Part), so no
# lock orders their frames, and a count written outside its stripe's
# lock shows only as a race report or a lost count when both run; and
# the switch's hammer, whose counts and the series read from them must
# agree however its frames, rule churn, sweeps and scrapes interleave.
GATEWAY_INTERLEAVINGS = TestCloseRacingFinishingCaptures|TestShardedGatewayRaceHammer|TestConcurrentGatewayOperations|TestVerdictForDepartedDeviceIsDropped|TestRetryQuarantinedConcurrentDrainsPromoteOnce|TestRejoinTakesItsOwnVerdict|TestRemovalSparesRejoinedRule|TestTwoReaderForwardCounts
chaos:
	@echo "chaos: CHAOS_SEED=$(CHAOS_SEED)"
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -run 'TestChaos' ./internal/chaos/ ./internal/fleet/
	$(GO) test -race -count=10 -run '^($(GATEWAY_INTERLEAVINGS))$$' ./internal/gateway/
	$(GO) test -race -count=10 -run '^TestConcurrentSwitchProcessing$$' ./internal/sdn/

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-parallel:
	$(GO) test -bench='BenchmarkTrainParallel|BenchmarkIdentifyBatch|BenchmarkIdentifySharedBank' -benchmem -run='^$$' .

# An archive is a baseline someone may still need: bench-json never
# overwrites one. A day's second run is BENCH_<date>b.json, then c, ...
# ('.' sorts before a letter, so the newest of a day is also the last by
# name, which is the order `bench-check` reads).
bench-json:
	@day=BENCH_$$(date +%Y%m%d); out=$$day.json; \
	for s in b c d e f g h; do [ -e $$out ] || break; out=$$day$$s.json; done; \
	if [ -e $$out ]; then echo "bench-json: $$day.json through $$out all exist; move some aside"; exit 1; fi; \
	{ $(GO) test -bench=. -benchmem -run='^$$' -count=$(BENCH_COUNT) $(BENCH_PKGS) ; \
	  $(GO) test -bench='$(BENCH_ROOT)' -benchmem -run='^$$' -count=$(BENCH_COUNT) . ; } \
		| $(GO) run ./cmd/benchjson -o $$out && echo "wrote $$out"

# bench-check enforces the named steady-state hot paths — the
# benchmarks a serving gateway actually lives in. Everything else in
# the archive is printed for context but cannot fail the build:
# sub-microsecond non-serving benchmarks (packet codecs, convenience
# APIs, device-churn stress loops) swing far past any sane threshold
# with host load, and training is a one-time boot cost.
BENCH_GATE ?= ^(capture\.RingHandoff|core\.(ScanBank27|IdentifySteadyState|IdentifyBatchSteadyState|IdentifyCacheHit|IdentifyHeadHit|IdentifyHeadDecided|IdentifyWarmBootCached)|editdist\.DiscriminateRefSet(Exact)?|fingerprint\.CanonicalKey|gateway\.(HandlePacketSteadyState|PumpForward)|rf\.BankScan|sdn\.(FlowTableMatch|SwitchProcess10k/(internet|peer))|iotsentinel\.(ClassifySingle|TypeIdentification))$$

bench-check:
	$(GO) run ./cmd/benchreport -delta . -delta-gate '$(BENCH_GATE)'

# bench-pair: bench-json's benchmarks for PARENT and for this working
# tree, alternating package by package, archived parent first so that
# bench-check compares the two. DROPIN lists test files (paths from the
# repo root) copied into the parent's copy, for benchmarks it lacks.
DROPIN ?=

bench-pair:
	BENCH_PKGS='$(BENCH_PKGS)' BENCH_ROOT='$(BENCH_ROOT)' BENCH_COUNT='$(BENCH_COUNT)' \
		bash scripts/bench-pair.sh '$(PARENT)' $(DROPIN)

# e2e-pair: PAIRS pairs of bench/run.sh runs of WORKLOAD, the parent
# revision PARENT against this working tree, pair i on seed SEED0+i, the
# side that goes first alternating. Pick seeds the change was not tuned
# on.
PARENT ?= HEAD
WORKLOAD ?= join_storm
PAIRS ?= 10
SEED0 ?= 101

e2e-pair:
	bash scripts/e2e-pair.sh '$(PARENT)' '$(WORKLOAD)' '$(PAIRS)' '$(SEED0)'

# bench/ is a module of its own (the root build never sees it) that the
# driver builds against this checkout's internal/* on every benchmark
# run. Building and testing it here makes an internal API change that
# breaks the benchmark fail locally instead of at the driver.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# The sustained-load soak (cmd/loadgen): N modeled devices with steady
# churn (joins, leave-and-rejoin cold joins, quarantine flaps, unknown
# clusters feeding the learner) through the capture fanout and the
# gateway internal/node assembles for gatewayd, continuously gated on p99
# HandlePacket, RSS, goroutine growth and journal/snapshot fd leaks. A
# gate failure dumps pprof goroutine/heap profiles and fails the build; a
# pass writes nothing (pass -soak-out to loadgen for an archive).
soak:
	$(GO) run ./cmd/loadgen -soak-duration $(SOAK_DURATION) -soak-devices $(SOAK_DEVICES)

# The size figure ROADMAP.md quotes: non-test Go lines outside bench/.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# The per-structure heap figures ROADMAP.md quotes, from the tests that
# bound them: a resident device's switch state (4 and 6 flows), the
# 27-type bank retained, a parked quarantine entry, a fresh learner.
FOOTPRINT_TESTS = TestResidentDeviceFootprint|TestBankFootprint|TestParkedEntryFootprint|TestNewLearnerFootprint
footprint:
	$(GO) test -count=1 -v -run '^($(FOOTPRINT_TESTS))$$' ./internal/sdn/ ./internal/core/ ./internal/gateway/ ./internal/learn/

clean:
	$(GO) clean ./...
