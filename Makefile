# Development targets for the sleepnet reproduction.

GO ?= go

.PHONY: all build vet fmt test race lint lint-fixtures check experiments-doc fuzz fuzz-rdns fuzz-rand fuzz-wal fuzz-serve monitor-chaos serve-chaos bench-e2e bench-pair

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when gofmt would rewrite any file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The analysis suite takes ~10x longer under the race detector, so the
# per-package timeout is raised above go test's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# lint runs the repo's own static analyzer (cmd/sleeplint) over the whole
# module: any rule finding or stale //lint:allow directive exits nonzero.
lint:
	$(GO) run ./cmd/sleeplint ./...

# lint-fixtures re-runs the analyzer's own acceptance tests: the golden
# fixture packages (each broken fixture must trigger exactly its `want`
# lines), rule isolation under -rules filtering, and the end-to-end
# meta-test that the built binary exits 1 on every broken fixture.
lint-fixtures:
	$(GO) test -count=1 -run='TestFixturesGolden|TestRuleIsolation' ./internal/lint
	$(GO) test -count=1 -run='TestFixtureExitCodes' ./cmd/sleeplint

# experiments-doc reruns every artifact of the cmd/experiments registry at
# -quick, seed 42, and rewrites EXPERIMENTS.md's generated tables from their
# headline numbers. Plain `go test ./cmd/experiments` fails while the file
# and the registry disagree, or while a gating claim (a paper truth claim
# marked "(gate)" in the tables) misses its band; no rewrite happens then.
experiments-doc:
	SLEEPNET_UPDATE_GOLDEN=1 $(GO) test -count=1 -run='^TestExperimentsDoc$$' ./cmd/experiments

# check is the CI gate: vet, build, gofmt, sleeplint and the full test suite
# under the race detector, whose TestExperimentsDoc fails on any gating
# claim of the cmd/experiments registry that misses its band.
check: vet build fmt lint race

# The fuzz targets run each fuzzer for FUZZTIME (CI's smoke runs pass 10s).
FUZZTIME ?= 30s

# fuzz runs the icmp parser fuzzer for a short budget.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/icmp

# fuzz-rdns runs the rDNS keyword-classifier fuzzer for a short budget.
fuzz-rdns:
	$(GO) test -run=^$$ -fuzz=FuzzClassify -fuzztime=$(FUZZTIME) ./internal/rdns

# fuzz-rand holds prf.LegacyRand to rand.NewSource's stream at arbitrary
# seeds and draw counts, across a reseed of the same Rand.
fuzz-rand:
	$(GO) test -run=^$$ -fuzz=FuzzLegacyRand -fuzztime=$(FUZZTIME) ./internal/prf

# fuzz-wal fuzzes the monitor's WAL/snapshot decoders: arbitrary bytes must
# yield either a clean decode or an error chained to ErrCorrupt, never a
# panic or unbounded allocation. Then it fuzzes the study export: any study
# must encode to json.MarshalIndent's bytes, or both must fail.
fuzz-wal:
	$(GO) test -run=^$$ -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) ./internal/monitor
	$(GO) test -run=^$$ -fuzz=FuzzStudyEncode -fuzztime=$(FUZZTIME) ./internal/monitor

# fuzz-serve fuzzes the HTTP query parser — arbitrary paths and query
# strings must yield either a typed ErrBadRequest or a valid Request, never a
# panic — and then the connection loop's request-head reader, which must
# never panic, read past the head, accept a body or accept a head over the
# limit. -fuzz takes one target a run, hence two commands.
fuzz-serve:
	$(GO) test -run=^$$ -fuzz=FuzzParseRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzReadRequestHead -fuzztime=$(FUZZTIME) ./internal/serve

# monitor-chaos runs the crash-recovery acceptance property under the race
# detector: injected shard kills, WAL tail corruption, a hard halt, and a
# SIGTERM drain must all converge to a study byte-identical to an
# uninterrupted same-seed run — also for a campaign past the size at which a
# format 2 snapshot was refused, at 1, 3 and 5 shards, and when recovery
# replays every kind of probe outcome.
monitor-chaos:
	$(GO) test -race -count=1 -run='TestChaosEquivalence|TestGracefulDrainAndResume|TestSIGTERMSoakDrainsCleanly|TestHaltAndResumeFromWAL|TestLongCampaignRecovers|TestStudyDeterministicAcrossShardCounts|TestReplayCoversEveryOutcome|TestSnapshotAheadOfLogReplaysAll' ./internal/monitor

# serve-chaos runs the serving-layer acceptance property under the race
# detector: slow-loris, floods, connection churn, and malformed requests
# against a live monitored campaign must lose zero probe rounds, keep the
# study byte-identical to an unattacked run, and keep lookup p99 bounded
# while lower-priority classes shed. The front door's socket tests ride
# along: answers equal to net/http's, complete refusals, a queued request of
# a closed socket shed, and shutdown with connections open. The engine's
# equivalence tests then run under the race detector on one P and on four,
# with shards larger than a fold chunk, so a round's fold is split across
# goroutines under the engine mutex; beside them, the one-detector test
# holds every served class and phase to core.ClassifySeries at every round
# of a live campaign and at every UTC day end of twelve scenario × fault
# campaigns, and the two-run writers test races publishes, resyncs,
# a second run's start and quarantines against readers holding epochs.
serve-chaos:
	$(GO) test -race -count=1 -run='TestServeChaosAcceptance|TestServeConformsToNetHTTP|TestServeRefusesWithCompleteAnswer|TestServeShedsQueuedRequestOfClosedSocket|TestServeLeaksNoGoroutines' ./internal/serve
	$(GO) test -race -count=1 -cpu 1,4 -run='TestEngineShardsMatchPerBlockReplay|TestEngineCrashEquivalence|TestEpochClassIsStudyClass|TestEngineConcurrentWritersOfTwoRuns' ./internal/serve

# bench-e2e runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# every workload untraced for the end-to-end metrics and traced for the
# per-layer ones. Performance claims rest on this and on bench-pair.
# BenchmarkArtifact in cmd/experiments times each paper figure and
# internal/serve's BenchmarkServeLookup1M the serving layer; nothing gates on
# either.
bench-e2e:
	$(GO) run ./bench

# bench-pair measures the working tree against BASE on one workload the way
# a performance claim has to be measured (DESIGN section 11): both sides'
# ./bench built once, PAIRS alternating pairs of untraced runs, medians with
# quartiles and the pair win count per end-to-end metric.
#   make bench-pair WORKLOAD=truth-7d BASE=HEAD~1 PAIRS=10
# A claim is measured on its workload at the default seed and once more at a
# seed nobody looked at while writing the change, and every other workload is
# run as a control. A claim on monitor-wal, for one:
#   make bench-pair WORKLOAD=monitor-wal BASE=HEAD~1 PAIRS=10
#   make bench-pair WORKLOAD=monitor-wal BASE=HEAD~1 PAIRS=10 BENCH_SEED=1234
#   make bench-pair WORKLOAD=study-14d   BASE=HEAD~1 PAIRS=5    (and truth-7d, serve-mixed)
# The claim and every pair go to CHANGES.md. cmd/benchpair exports BASE and
# copies the working tree under $TMPDIR, and builds and runs both from
# there; nothing else should be running on the host while pairs are
# measured.
WORKLOAD ?= truth-7d
BASE ?= HEAD
PAIRS ?= 10
BENCH_SEED ?= 42
BENCH_SECONDS ?= 20
bench-pair:
	$(GO) run ./cmd/benchpair -workload $(WORKLOAD) -base $(BASE) -pairs $(PAIRS) -seed $(BENCH_SEED) -seconds $(BENCH_SECONDS)
