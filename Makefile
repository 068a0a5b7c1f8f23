GO ?= go

.PHONY: build test examples-smoke test-race test-race-full test-alloc test-crash fuzz-smoke tournament-smoke bench-obs bench-e2e bench-e2e-test loc vet lint check-bce

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The four examples/* mains are the documented way into the system
# (README "Quickstart"), and `go build ./...` only compiles them: run
# each to completion, failing on the first that exits non-zero.
examples-smoke:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Race-detector pass over the whole tree. Short mode keeps it
# CI-friendly; the concurrent hot spots (the nn.Trainer worker pool,
# core's parallel benefit measurement, rl's replay-batch Q-updates, the
# obs HTTP endpoint, and the serve micro-batcher + view-set rotation)
# all exercise their goroutines under -short. The second pass reruns the
# determinism tests of the places where worker count and scheduling
# could change an answer — the trainer's ordered fold, W-D's three-pass
# batch gradient built on it, PredictBatch's three steps over the same
# operator interner and its plan-code memo (filled concurrently), and
# the DQN's fanned-out action sweep — at GOMAXPROCS 1, 2 and 8. The
# serve line does the same for the two guarantees scheduling decides:
# every /v1/estimate reply is computed by the model its model_version
# names while hot-reloads race the readers, concurrent swaps never
# share a model version, and /v1/healthz and /v1/views only ever report
# a generation some publish installed whole. The durable line races
# four appenders against Sync, WriteSnapshot, the FsyncInterval timer
# and Close, and requires every record back exactly once.
test-race:
	$(GO) test -race -short ./...
	$(GO) test -race -short -count=1 -cpu 1,2,8 -run 'TestEstimateRepliesNameTheirModel|TestModelVersionsAreUnique|TestHealthzReportsPublishedGenerations' ./internal/serve/
	$(GO) test -race -short -count=1 -cpu 1,2,8 -run 'TestWALConcurrentAppends' ./internal/durable/
	$(GO) test -race -short -count=1 -cpu 1,2,8 -run 'TestTrainer' ./internal/nn/
	$(GO) test -race -short -count=1 -cpu 1,2,8 -run 'TestFitParallelismDeterminism|TestBatchGrad|TestPredictBatchBitIdentical|TestPredictBatchPlanMemo|TestInternDistinguishes' ./internal/widedeep/
	$(GO) test -race -short -count=1 -cpu 1,2,8 -run 'TestScoringFanOut|TestAgentScoring|TestRLViewBitIdentical' ./internal/rl/

# Unabridged race pass: every test, no -short. The deterministic
# single-goroutine experiment pipelines skip themselves under the race
# build tag (they are 10-20x slower instrumented and spawn no
# goroutines), so this stays within a CI budget while still covering
# every concurrent path at full depth. Runs as its own CI job.
test-race-full:
	$(GO) test -race -count=1 -timeout 20m ./...

# Allocation-regression gate: steady-state Predict must allocate zero,
# PredictBatch the same few allocations at any batch size and any number
# of operator uses — no more with every plan memoized, two objects per
# plan it memoizes — a warm sqlparse.Parse no token slice, the serve
# micro-batcher's per-pair cost must stay allocation-free, the
# warm fingerprint-cached /v1/estimate handler must stay within its
# per-request budget, fingerprinting itself must be zero-alloc, the
# DQN's warm QValues must cost exactly its result slice (BestAction:
# nothing) at Parallelism 1 and, fanned out, the same for 8, 64 and 124
# actions, rl.Features two slices per state, rewrite.Rewrite nothing per
# non-matching view, one LSTM forward+backward the same few allocations
# at any sequence length, and one W-D training batch allocations linear
# in its pairs and independent of how often its plans reuse an operator
# (see internal/widedeep/infer_test.go and train_test.go,
# internal/serve/alloc_test.go, internal/sqlparse/fingerprint_test.go
# and parser_test.go,
# internal/rl/infer_test.go, internal/rewrite/multiview_test.go, and
# internal/nn/lstm_ref_test.go).
test-alloc:
	$(GO) test -run 'Alloc|AllocsBatchSizeIndependent|ArenaConverges|CostIndependent' ./internal/widedeep/ ./internal/serve/ ./internal/nn/ ./internal/sqlparse/ ./internal/rl/ ./internal/rewrite/ -v -count=1

# Crash-recovery fault injection (DURABILITY in SERVING.md): the WAL
# sweep kills a child process inside an append at every record boundary
# and mid-record during a scripted session, then asserts recovery
# reconstructs the surviving prefix exactly; the kill test SIGKILLs ten
# children that appended 200 records without a Sync and requires all
# 200 back from a directory that recovers; the serve-level sweep does
# the same through a full advisor session and compares the recovered
# window, view set, and /v1/estimate responses byte-for-byte against a
# never-crashed run.
test-crash:
	$(GO) test -run 'TestCrash|TestServeCrash' -count=1 -v ./internal/durable/ ./internal/serve/

# Short native-fuzz pass over the API JSON decode paths, the query
# fingerprint (one digest per statement: lexer agreement, determinism,
# and any literal change moving it), the SQL parser and its pooled token
# slice, the WAL record decoder, and the tournament spec parser (seeds +
# 10s of mutation per target).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEstimateDecode -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzAdviseDecode -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime 10s ./internal/sqlparse/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sqlparse/
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzTournamentSpec -fuzztime 10s ./internal/experiments/

# Tiny selector tournament as a differential gate: each of the four
# selectors (Top-kBen, IterView, DQN, local search) completes on small
# JOB rungs and holds its asserted optimality-gap bound against
# mvs.OptimalExact on every rung; the run fails on any violation (see
# EXPERIMENTS.md "Tournament" and BENCH_10.json).
tournament-smoke:
	$(GO) run ./cmd/experiments -run tournament -spec "families=JOB;sizes=4,8"

# Disabled-path observability overhead guard (spans < 5 ns/op, a gated
# log call ≈ 7 ns/op through slog's level check; OBSERVABILITY.md).
bench-obs:
	$(GO) test -bench=ObsOverhead -run=^$$ ./internal/obs/

# The repo's one benchmark (BENCHMARK.json, bench/README.md): every
# workload against the real viewserverd/viewgen, three runs each.
bench-e2e:
	bash bench/run.sh --workload all --runs 3 --seed 1

# bench/ is its own module, so the root `go test ./...` does not descend
# into it: this is what catches an API rename that breaks the harness
# before a benchmark run does.
bench-e2e-test:
	cd bench && $(GO) vet . && $(GO) test -short ./...

# Non-test, non-testdata Go lines under internal/ and cmd/, per package
# and in total: the size ROADMAP's pay-for-itself audit quotes.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

vet:
	$(GO) vet ./...

# Formatting (simplify mode) + vet + the repo's own analyzer suite
# (LINTING.md; the same lint.Load + RunAnalyzers path TestLintSelfClean
# runs) + the bounds-check-elimination gate over the inference kernels;
# fails listing any file gofmt -s would rewrite. The arm64 vet
# cross-compiles the packages with an amd64-only assembly kernel, so a
# GOARCH left without its portable fallback fails to type-check here;
# vet's asmdecl checks the assembly's frame on amd64.
lint: check-bce
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn ./internal/rl
	$(GO) run ./cmd/autoviewlint ./...

# Bounds-check-elimination regression gate: internal/nn's float32
# kernels and the batched f64 forward's portable kernel (lanes64.go)
# must keep the per-function counts pinned in
# internal/nn/bce_allowlist.txt (PERFORMANCE.md "BCE gate"). Refresh a
# deliberate change with: go run ./cmd/bcecheck -update
check-bce:
	$(GO) run ./cmd/bcecheck
