# Mr. Scan reproduction — common targets.

GO ?= go

.PHONY: all build vet test race fuzz-smoke lattice loc bench bench-compare bench-gated chaos soak crash stream gray experiments cover clean

all: build vet test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite, so the CI test job
# (make test) enforces formatting.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# Default test run: vet, the full suite, then the race detector over every
# package under internal/ that `go list` names, less RACE_SKIP. -short trims
# the long cases (mrscan alone would exceed the 10m timeout); no
# internal/chaos test skips under it. A package is skipped only when it
# starts no goroutine and takes no lock, so the detector has nothing to
# watch, and its tests cost seconds under -race:
#   merge   27 s (summary property tests; Combine runs on one goroutine)
#   kdtree  6.5 s (build and contract tests over hostile geometry)
# A new package is raced by default. EXPERIMENTS.md "Leaf neighbour lists"
# has the run's wall time before and after the list was generated.
RACE_SKIP = merge kdtree
RACE_PKGS = $(filter-out $(addprefix %/internal/,$(RACE_SKIP)),$(shell $(GO) list ./internal/...))
test: vet
	$(GO) test ./...
	$(GO) test -race -short $(RACE_PKGS)

race:
	$(GO) test -race ./...

# Ten seconds of coverage-guided fuzzing on each wire decoder (summaries
# block, WorkRequest, WorkResponse) and on the frame reader under both
# socket planes' parameters: no panic, no allocation beyond a small
# multiple of the input (the frame reader: beyond the plane's limit), one
# encoding per value. Then the HTTP edge: the point-array scanner against
# encoding/json (same verdict, same bits), its number conversion against
# strconv.ParseFloat and ParseUint (same verdict, same bits, same error
# kind), and the two point-bearing POSTs
# through server.Handler (documented status, allocation bounded by the
# body's length, goroutines return). Then the durable formats, seeded with
# the file images every crash point of a save or an append leaves: the
# MRCKPT envelope and the manifest inside it, and journal replay (typed
# refusal or a valid prefix, idempotently), and the pipeline's partition,
# cluster and merge snapshot decoders, seeded from real snapshots (bounded
# allocation, typed refusal, one encoding per value). Last the KD-tree
# build: bytes become points and a cell size, the tree keeps its contract
# (checkFlat) and counts ranges as brute force does. Then the stream
# engine: bytes become up to eight ticks of points on an exact Eps/3
# lattice, one ulp either side of it, and every tick's labels must equal
# the canonical labelling. Last the cell histogram: bytes become an Eps
# and points on hostile coordinates (NaN, ±Inf, ±2³¹·Eps, key spans of 32
# and 33 bits) split into shards, and the shards' sorted histograms and
# their Sum must equal a map count on the same CellOf; a shard with a
# point outside InRange is refused when ranked. Then the front
# doors against the oracle: bytes become 2–7 points on a lattice of Eps
# multiples, each x an ulp below its site or on it, and RunPoints and
# distrib (two in-process workers) must give the oracle's core partition
# and a core neighbour's cluster to every border point, at every leaf
# count and flag. Minimising every new corpus entry would
# eat the whole budget, hence the 1s cap.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSummaries -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/merge
	$(GO) test -run='^$$' -fuzz=FuzzDecodeWorkRequest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/distrib
	$(GO) test -run='^$$' -fuzz=FuzzDecodeWorkResponse -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/distrib
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/integrity
	$(GO) test -run='^$$' -fuzz=FuzzPointsBody -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzNumber -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzSubmitBody -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzStreamTickBody -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointEnvelope -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/mrscan
	$(GO) test -run='^$$' -fuzz=FuzzBuildCells -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/kdtree
	$(GO) test -run='^$$' -fuzz=FuzzStreamTicks -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/stream
	$(GO) test -run='^$$' -fuzz=FuzzHistogramOf -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/grid
	$(GO) test -run='^$$' -fuzz=FuzzRunPointsOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .

# The seeded lattice search (EXPERIMENTS.md "One sweep rule"): 10⁴ trials
# of 2–7 points on a lattice of Eps multiples, drawn as
# FuzzRunPointsOracle draws them, through RunPoints and distrib. It prints
# one table row per front door (core, border as noise, other, clean) and
# fails on any trial that differs from the oracle; go test -short runs
# 300 of them.
lattice:
	$(GO) test -run='^TestLatticeOracle$$' -count=1 -v .

# Non-test Go lines (wc -l: code, comments and blanks) per top-level
# package, then in total with and without benchmark/ — the number
# ROADMAP item 4 is stated in.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$$' | xargs wc -l | awk '$$2 != "total" { \
		n = split($$2, p, "/"); pkg = n == 1 ? "." : (n == 2 ? p[1] : p[1] "/" p[2]); \
		lines[pkg] += $$1; all += $$1; if (p[1] != "benchmark") core += $$1 } \
		END { for (k in lines) printf "%7d  %s\n", lines[k], k | "sort -k2"; close("sort -k2"); \
		printf "%7d  total\n%7d  total outside benchmark/\n", all, core }'

# Seeded chaos campaign: every run must match the fault-free reference
# (or fail loudly) with zero silent corruption escapes. CHAOSFLAGS
# appends, e.g. make chaos CHAOSFLAGS='-seeds 50 -fault-rate 0.8'.
CHAOSFLAGS ?=
chaos:
	$(GO) run ./cmd/chaos -seeds 20 -out chaos-report.json $(CHAOSFLAGS)

# Server soak: seeded overload campaigns against the job server —
# multi-tenant bursts past queue capacity, injected faults, and a
# mid-campaign drain + restart per seed. Fails on any silent drop,
# untyped rejection, or quality-floor miss; the JSON report lands in
# soak-report.json. SOAKFLAGS appends, e.g.
# make soak SOAKFLAGS='-seeds 25 -tenants 5'.
SOAKFLAGS ?=
soak:
	$(GO) run ./cmd/chaos -mode overload -seeds 10 -out soak-report.json $(SOAKFLAGS)

# Crash-point recovery campaign: simulate power failure at every sampled
# durability-relevant file-system operation and audit that nothing
# acknowledged (checkpointed phases, journaled jobs) is ever lost,
# recovery is idempotent, and resumed labels equal the fault-free
# reference. The JSON report lands in crash-report.json. CRASHFLAGS
# appends, e.g. make crash CRASHFLAGS='-seeds 20 -crash-points 40' or
# the mutation check make crash CRASHFLAGS="-drop-syncs '*.ckpt*'"
# (which must FAIL).
CRASHFLAGS ?=
crash:
	$(GO) run ./cmd/chaos -mode crash -seeds 10 -out crash-report.json $(CRASHFLAGS)

# Streaming smoke: the incremental engine's seeded equivalence suite
# under the race detector, then a short seeded chaos campaign — firehose
# ingest with a drain/restart mid-sequence, labels audited tick-by-tick
# against the fault-free reference. STREAMFLAGS appends, e.g.
# make stream STREAMFLAGS='-seeds 20 -ticks 30'.
STREAMFLAGS ?=
stream:
	$(GO) test -race -short -count=1 ./internal/stream
	$(GO) run ./cmd/chaos -mode stream -seeds 5 -out stream-report.json $(STREAMFLAGS)

# Gray-failure campaign: inject faults that pass every liveness check —
# a 20x-slow worker, a flapping tree link, a degraded OST, transient
# phase errors under an exhausted retry budget — and audit the adaptive
# health layer: quarantine convergence with zero false quarantines,
# byte-identical labels, bounded retry spend, bounded wall time. The
# JSON report lands in gray-report.json. GRAYFLAGS appends, e.g.
# make gray GRAYFLAGS='-seeds 10 -gray-slow-factor 40'.
GRAYFLAGS ?=
gray:
	$(GO) run ./cmd/chaos -mode gray -seeds 5 -out gray-report.json $(GRAYFLAGS)

# Full benchmark sweep: every paper table/figure plus the ablations.
# Results land in BENCH_run.txt (raw) and BENCH_run.json (machine-
# readable name -> ns/op, B/op, allocs/op). BENCHFLAGS narrows the
# sweep, e.g. make bench BENCHFLAGS='-benchtime=1x' BENCHPKGS=./internal/dsu
# BENCHPAT selects which benchmarks run (the -bench regexp).
BENCHFLAGS ?=
BENCHPKGS ?= ./...
BENCHPAT ?= .
bench:
	$(GO) test -bench='$(BENCHPAT)' -benchmem -run='^$$' $(BENCHFLAGS) $(BENCHPKGS) > BENCH_run.txt || (cat BENCH_run.txt; exit 1)
	cat BENCH_run.txt
	$(GO) run ./cmd/benchjson -o BENCH_run.json BENCH_run.txt

# Regression gate: compare the latest BENCH_run.json against the
# committed baseline of current performance (BENCH_34.json: BENCH_32.json
# with the bytes and allocations of the rows per-core cluster workers
# move re-captured — EXPERIMENTS.md "Per-core cluster workers" says
# which rows and how; BENCH_32.json is BENCH_26.json less the row of
# the deleted aggregated partition writer; BENCH_32.json and earlier are
# history and gate nothing). Fails
# if any Cluster,
# GPUDBSCAN, Classify (gdbscan pass one alone on one partition of each
# batch shape), KD-tree Build, Partition (including the write stage
# alone, PartitionWrite), planner (MakePlan, Split), StreamTick (engine at
# two shapes, and the served tick with its durable commit), merge
# (BuildSummaries, Combine), distrib (DistribRun end to end over loopback,
# WireCodec encode/decode), SubmitDecode (the HTTP edge's body scanner on
# both serve_jobs body sizes, beside the encoding/json path it replaced),
# RunPoints (the whole front door at the two batch workloads' shapes) or
# CheckpointOverhead (the same run with and without phase snapshots)
# benchmark's wall clock regressed more than 20%, or its B/op — which
# repeats to under 1% where ns/op moves by tens — grew more than 5%.
BENCHGATE = ^Benchmark(Cluster|Classify|Partition|PartitionWrite|StreamTick|MakePlan|Split|Build|GPUDBSCAN|DistribRun|BuildSummaries|Combine|WireCodec|SubmitDecode|RunPoints|CheckpointOverhead)
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_34.json -match '$(BENCHGATE)' BENCH_run.json

# Run exactly the gated benchmarks (what bench-compare needs in
# BENCH_run.json, and how BENCH_34.json's rows were produced). Cluster
# workers follow GOMAXPROCS, so RunPoints' B/op does too: -cpu 2 makes a
# runner of any core count read like the 2-core capture.
bench-gated:
	$(MAKE) bench BENCHPAT='$(BENCHGATE)' BENCHFLAGS='-benchtime=3x -cpu 2' BENCHPKGS='. ./internal/stream ./internal/server ./internal/partition ./internal/kdtree ./internal/gdbscan ./internal/distrib ./internal/merge'

# Regenerate every evaluation artifact (measured + modeled rows).
experiments:
	$(GO) run ./cmd/experiments

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -f BENCH_run.txt BENCH_run.json chaos-report.json soak-report.json crash-report.json stream-report.json gray-report.json
