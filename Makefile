# Tier-1 verification: everything must build, vet clean, pass the
# custom static-analysis suite (lint: determinism, error-wrapping and
# telemetry-contract analyzers, DESIGN.md §11), pass the full test
# suite under the race detector (the concurrent cluster reschedule
# path is exercised by TestRescheduleIsDeterministic; the parallel
# optimization paths by the byte-identity tests), keep the benchmark
# harness runnable (benchsmoke), keep the telemetry layer cheap
# (teleoverhead: CLITERun with tracing on within 5% of off), and
# reproduce every seed-1 experiment byte for byte (expdiff).
.PHONY: tier1 build vet lint lint-diff linedelta test race bench benchsmoke benchcompare benchfigs perftable teleoverhead trace fuzzsmoke chaossmoke fleetsmoke obssmoke expdiff

tier1: build vet lint race benchsmoke teleoverhead fleetsmoke obssmoke expdiff

build:
	go build ./...

vet:
	go vet ./...

# lint runs the repo's own analyzers (cmd/lint multichecker over
# internal/analysis: detrand, dettaint, maporder, parcapture,
# emitorder, errwrap, telnil, floateq) and fails on any unsuppressed
# finding or when a rule's //lint:allow count exceeds the checked-in
# lint.baseline budget. Suppressions are site-by-site
# `//lint:allow <rule> <reason>` directives with a mandatory reason;
# the run warms the per-package fact cache that `make lint-diff`
# reads. `-suppressions` prints the full ledger.
lint:
	go run ./cmd/lint -baseline lint.baseline -cache .lintcache ./...

# lint-diff is the fast PR loop: re-analyze only packages changed
# since the ref (default origin/main), reassembling the rest of the
# cross-package taint graph from the fact cache.
LINT_DIFF_REF ?= origin/main
lint-diff:
	go run ./cmd/lint -diff $(LINT_DIFF_REF) -cache .lintcache ./...

# linedelta prints the added, removed and net lines of non-test Go
# code (every tracked .go file except *_test.go and perfbench/) from
# the merge base with LINEDELTA_REF to the working tree: the net
# non-test line delta a change states in CHANGES.md. Untracked files
# count once they are git-added. It reports and never fails.
LINEDELTA_REF ?= origin/main
linedelta:
	@base=$$(git merge-base $(LINEDELTA_REF) HEAD) && \
	git diff --numstat $$base -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench/' | \
	awk -v ref='$(LINEDELTA_REF)' '{a += $$1; r += $$2} END {printf "non-test Go lines since %s: +%d -%d, net %+d\n", ref, a, r, a - r}'

test:
	go test ./...

race:
	go test -race ./...

# bench regenerates the evidence file for this tree. Change over time
# is measured against the same file at another commit (benchcompare).
bench:
	go run ./cmd/bench -o BENCH_after.json

# benchsmoke is the -short-guarded quick pass over the same suite —
# including the cluster placement pipeline (profile cache, admission
# pre-filter, concurrent screening).
benchsmoke:
	go test -short -run TestBenchSmoke .

# benchcompare diffs the committed evidence (HEAD:BENCH_after.json)
# against the working tree's and exits non-zero when any shared
# benchmark regressed more than 20% in ns/op, or in allocs/op /
# bytes/op past their absolute noise floors. Both files must come from
# the same machine for the gate to mean anything.
benchcompare:
	git show HEAD:BENCH_after.json > BENCH_head.json
	go run ./cmd/bench -compare BENCH_head.json BENCH_after.json

# perftable regenerates the README performance table in place from the
# evidence file, so the prose numbers cannot drift away from the
# recorded measurements.
perftable:
	go run ./cmd/bench -perftable -readme README.md BENCH_after.json

# teleoverhead measures CLITERun with telemetry off and on in
# interleaved pairs and fails when the median paired ratio shows the
# enabled path costing more than 5% — the telemetry layer's cost
# contract.
teleoverhead:
	go test -run TestTelemetryOverhead .

# trace produces a sample JSONL telemetry timeline (plus the metrics
# registry dump) from the quickstart co-location run.
trace:
	go run ./cmd/clite -lc memcached:0.3 -lc img-dnn:0.2 -bg streamcluster -trace trace.jsonl -metrics

# fuzzsmoke gives each native fuzz target a few seconds from its
# seeded corpus: profile mix-key canonicalization (packed keys and
# LookupNear against the string-keyed reference, Store round-trip), linalg Cholesky append-vs-refit
# byte-identity, blocked-vs-scalar Cholesky byte-identity, the GP's
# closed-form posterior gradients against central differences, the
# lint //lint:allow directive grammar, the fact-cache codec round
# trip, the tsq trace reader on truncated and malformed JSONL, and the
# lazily seeded noise source against math/rand's, draw for draw.
fuzzsmoke:
	go test -run '^$$' -fuzz FuzzMixKeyRoundTrip -fuzztime 5s ./internal/profile
	go test -run '^$$' -fuzz FuzzCholAppendVsRefit -fuzztime 5s ./internal/linalg
	go test -run '^$$' -fuzz FuzzBlockedCholVsScalar -fuzztime 5s ./internal/linalg
	go test -run '^$$' -fuzz FuzzPosteriorGradient -fuzztime 5s ./internal/gp
	go test -run '^$$' -fuzz FuzzDirectiveParse -fuzztime 5s ./internal/analysis
	go test -run '^$$' -fuzz FuzzFactCacheRoundTrip -fuzztime 5s ./internal/analysis
	go test -run '^$$' -fuzz FuzzLoad -fuzztime 5s ./internal/obs
	go test -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime 5s ./internal/stats

# chaossmoke runs the failover experiment's coarse sweep (scheduled
# leader death, a 25% per-command death rate, quorum loss) and fails
# if any scenario commits a decision that diverges from the
# uninterrupted single-controller reference run, never completes a
# failover, or survives quorum loss without degrading to read-only.
chaossmoke:
	go test -run TestChaosSmoke ./internal/harness

# fleetsmoke streams a small seeded fleet (128 nodes, 2 shards) and
# fails on any QoS divergence: every LC placement must report QoSOK,
# and the decision log and telemetry trace must be byte-identical
# whether one shard or several did the placing. It pins twelve
# FleetPlace-shaped fleets (1,024 nodes, 30 s) to their recorded
# decision and counter digest (amd64 only), and checks that a fleet
# digests the same first in a fresh process (cold calibration and
# solo-profile memo) as after other fleets. It also checks the
# typed admission path against the string-keyed reference: every
# candidate's classification and counter movement, under all four
# pre-filter × profile-cache settings.
fleetsmoke:
	go test -run 'TestFleetSmoke|TestFleetShardInvariance|TestFleetGoldenDigest|TestFleetDigestWarmOrCold' ./internal/fleet
	go test -run TestAssessMatchesStringKeyedReference ./internal/cluster

# obssmoke gates the observability plane's contracts: a seeded
# fleet's SLO ledger, status block, cell table and alert stream must
# be byte-identical whether 1, 2 or 4 shards placed; the serving SLO
# surfaces must be byte-identical across cluster screening worker
# counts; the tsq trace query engine must answer every query mode on
# a freshly generated trace; and attaching the plane must cost ≤5% on
# CLITERun and ≤10% on FleetPlace.
obssmoke:
	go test -run 'TestObsSmoke|TestObsShardInvariance' ./internal/fleet
	go test -run TestObsScreenWorkerInvariance ./internal/cluster
	go test ./cmd/tsq
	go test -run TestObsOverhead .

# expdiff regenerates every experiment at seed 1 and diffs it against
# the checked-in experiments_output.txt, dropping only the wall-clock
# "[N experiment(s) in Xs]" footer. Any other line that differs is a
# change in decisions; the target prints nothing when there is none.
EXP_FOOTER = ^\[[0-9]* experiment(s) in [0-9.]*s\]$$
expdiff:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	go run ./cmd/experiments -experiment all -seed 1 | grep -v '$(EXP_FOOTER)' > "$$out" && \
	grep -v '$(EXP_FOOTER)' experiments_output.txt | diff -u - "$$out"

# benchfigs times regenerating every paper figure once.
benchfigs:
	go test -bench . -benchtime 1x -run '^$$' .
