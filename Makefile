# Development targets for the sleepnet reproduction.

GO ?= go

.PHONY: all build vet test race lint lint-fixtures check agree fuzz fuzz-rdns fuzz-wal fuzz-serve monitor-chaos serve-chaos bench-e2e bench-pair loadgen

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The analysis suite takes ~10x longer under the race detector, so the
# per-package timeout is raised above go test's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# lint runs the repo's own static analyzer (cmd/sleeplint) over the whole
# module in audit mode: any rule finding or stale //lint:allow directive
# exits nonzero.
lint:
	$(GO) run ./cmd/sleeplint -allows ./...

# lint-fixtures re-runs the analyzer's own acceptance tests: the golden
# fixture packages (each broken fixture must trigger exactly its `want`
# lines), rule isolation under -rules filtering, and the end-to-end
# meta-test that the built binary exits 1 on every broken fixture.
lint-fixtures:
	$(GO) test -count=1 -run='TestFixturesGolden|TestRuleIsolation' ./internal/lint
	$(GO) test -count=1 -run='TestFixtureExitCodes' ./cmd/sleeplint

# agree runs the streaming-vs-batch agreement gate: the seeded sweep's
# confusion matrices must clear the committed accuracy contract
# (internal/agree/contract.go) and the report must be byte-identical across
# same-seed runs. -count=1 defeats the test cache so the gate always
# re-measures.
agree:
	$(GO) test -count=1 -run='TestAgreementContract|TestAgreementGoldenDeterminism' ./internal/agree

# check is the CI gate: vet, build, sleeplint, the full test suite under
# the race detector, and the streaming-vs-batch agreement contract.
check: vet build lint race agree

# fuzz runs the icmp parser fuzzer for a short budget.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=30s ./internal/icmp

# fuzz-rdns runs the rDNS keyword-classifier fuzzer for a short budget.
fuzz-rdns:
	$(GO) test -run=^$$ -fuzz=FuzzClassify -fuzztime=30s ./internal/rdns

# fuzz-wal fuzzes the monitor's WAL/snapshot decoders: arbitrary bytes must
# yield either a clean decode or an error chained to ErrCorrupt, never a
# panic or unbounded allocation.
fuzz-wal:
	$(GO) test -run=^$$ -fuzz=FuzzWALDecode -fuzztime=30s ./internal/monitor

# fuzz-serve fuzzes the HTTP query parser: arbitrary paths and query
# strings must yield either a typed ErrBadRequest or a valid Request,
# never a panic.
fuzz-serve:
	$(GO) test -run=^$$ -fuzz=FuzzParseRequest -fuzztime=30s ./internal/serve

# monitor-chaos runs the crash-recovery acceptance property under the race
# detector: injected shard kills, WAL tail corruption, a hard halt, and a
# SIGTERM drain must all converge to a study byte-identical to an
# uninterrupted same-seed run.
monitor-chaos:
	$(GO) test -race -count=1 -run='TestChaosEquivalence|TestGracefulDrainAndResume|TestSIGTERMSoakDrainsCleanly|TestHaltAndResumeFromWAL' ./internal/monitor

# serve-chaos runs the serving-layer acceptance property under the race
# detector: slow-loris, floods, connection churn, and malformed requests
# against a live monitored campaign must lose zero probe rounds, keep the
# study byte-identical to an unattacked run, and keep lookup p99 bounded
# while lower-priority classes shed.
serve-chaos:
	$(GO) test -race -count=1 -run='TestServeChaosAcceptance' ./internal/serve

# loadgen measures sustained live-socket queries/s against a self-hosted
# 1M-block epoch (see cmd/loadgen for targeting a running server).
loadgen:
	$(GO) run ./cmd/loadgen -duration 3s

# bench-e2e runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# every workload untraced for the end-to-end metrics and traced for the
# per-layer ones. Performance claims rest on this and on bench-pair. The
# root bench_test.go / serve_bench_test.go are the per-figure regenerators
# of DESIGN section 4, run with plain `go test -bench`; nothing gates on them.
bench-e2e:
	$(GO) run ./bench

# bench-pair measures the working tree against BASE on one workload the way
# a performance claim has to be measured (choosing-metrics guide, section
# 8): both sides' ./bench built once, PAIRS alternating pairs of untraced
# runs, medians with quartiles and the pair win count per end-to-end metric.
#   make bench-pair WORKLOAD=truth-7d BASE=HEAD~1 PAIRS=10
# A claim is measured on its workload at the default seed and once more at a
# seed nobody looked at while writing the change, and every other workload is
# run as a control. PR 13 (binary WAL payloads, DESIGN section 11) was:
#   make bench-pair WORKLOAD=monitor-wal BASE=HEAD~1 PAIRS=10
#   make bench-pair WORKLOAD=monitor-wal BASE=HEAD~1 PAIRS=10 BENCH_SEED=1234
#   make bench-pair WORKLOAD=study-14d   BASE=HEAD~1 PAIRS=5    (and truth-7d, serve-mixed)
# A claim on another metric is read off the same table: PR 17 (the host
# table) claimed peak_rss_mb on study-14d, with the other three as controls:
#   make bench-pair WORKLOAD=study-14d BASE=HEAD~1 PAIRS=10
#   make bench-pair WORKLOAD=study-14d BASE=HEAD~1 PAIRS=10 BENCH_SEED=1234
# and PR 22 (the engine's bytes per block) the same metric on serve-mixed:
#   make bench-pair WORKLOAD=serve-mixed BASE=HEAD~1 PAIRS=10
# cmd/benchpair keeps BASE's export under $TMPDIR; nothing else should be
# running on the host while pairs are measured.
WORKLOAD ?= truth-7d
BASE ?= HEAD
PAIRS ?= 10
BENCH_SEED ?= 42
BENCH_SECONDS ?= 20
bench-pair:
	$(GO) run ./cmd/benchpair -workload $(WORKLOAD) -base $(BASE) -pairs $(PAIRS) -seed $(BENCH_SEED) -seconds $(BENCH_SECONDS)
