# Local targets mirror the CI job (.github/workflows/ci.yml) exactly, so
# a green `make check` predicts a green required-checks run.

.PHONY: build test race allocs lint vet fmt fuzz check flake bench benchdiff benchpair

build:
	go build ./...

test:
	go test ./...

# The CI test tier: race detector + -short gating.
race:
	go test -race -short ./...

# The testing.AllocsPerRun budgets. Their files build only without -race
# (the race detector instruments allocations), so the race tier above
# never runs them; the pattern selects exactly those tests.
ALLOC_PKGS = . ./internal/svm ./internal/textproc ./bench
allocs:
	go test -count=1 -run 'Alloc|WorkspaceScales' $(ALLOC_PKGS)

vet:
	go vet ./...

# Formatting gate: any file gofmt would rewrite is a failure.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l reports:"; echo "$$out"; exit 1; }

# dmtvet: the repo's custom determinism/safety analyzers (internal/lint),
# a required CI step. Run it the same way CI does (about a second).
lint:
	go run ./cmd/dmtvet ./...

# Fuzz the wire and frame decoders: first replay the committed seed
# corpora (deterministic, what CI runs on every push), then a short live
# fuzzing smoke against ReadModelSet. Grow a corpus with -fuzztime as
# needed; new crashers land under the package's testdata/fuzz/ — commit
# them.
fuzz:
	go test ./internal/wire -run 'Fuzz' -count=1
	go test ./internal/realnet -run Fuzz -count=1
	go test ./internal/wire -run '^$$' -fuzz 'FuzzReadModelSet' -fuzztime 10s

check: build vet fmt lint race allocs

# Flake hunt over the packages whose tests run on the wall clock: 20 plain
# runs, then 5 race runs at each of 1, 2 and 4 CPUs. A failure is triaged
# to a seed or a gate, never retried. CI runs it weekly.
FLAKE_PKGS = . ./internal/serving ./internal/realnet ./cmd/p2pserve
flake:
	go test -count=20 $(FLAKE_PKGS)
	go test -race -count=5 -cpu 1,2,4 $(FLAKE_PKGS)

# The repository's one benchmark harness (BENCHMARK.json: workloads,
# metrics, run_seconds) — end-to-end numbers plus the per-layer ledger.
# The CI bench job runs the same command as a 3-second smoke.
bench:
	go run ./bench --workload all --seed 1 --seconds 18 --trace 0 -json bench.json

# Before/after: make benchdiff A=before.json B=after.json
benchdiff:
	go run ./bench compare $(A) $(B)

# What a claimed gain rests on (choosing-metrics guide, section 8), as one
# command: make benchpair BASE=<rev> W=<workload> [N=10]
# builds ./bench from BASE and from the working tree, runs N pairs per seed
# (1, and 2 as the hold-out) at the benchmark's own settings, alternating
# which side goes first, and compares. BASE is unpacked with git archive
# into the git-ignored .benchpair/ (its own module, so ./... skips it).
N ?= 10
benchpair:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make benchpair BASE=<rev> W=<workload> [N=10]"; exit 2; }
	rm -rf .benchpair && mkdir -p .benchpair/base
	git archive $(BASE) | tar -x -C .benchpair/base
	cd .benchpair/base && go build -o ../bench-base ./bench
	go build -o .benchpair/bench-head ./bench
	@for seed in 1 2; do for i in $$(seq $(N)); do \
		if [ $$((i % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			echo "seed $$seed pair $$i/$(N): $$side"; \
			.benchpair/bench-$$side --workload $(W) --seed $$seed --seconds 18 --trace 0 \
				-json .benchpair/$$side-seed$$seed.json >/dev/null || exit 1; \
		done; \
	done; done
	@for seed in 1 2; do \
		echo "== seed $$seed: A = $(BASE), B = working tree, $(N) pairs"; \
		go run ./bench compare .benchpair/base-seed$$seed.json .benchpair/head-seed$$seed.json; \
	done
