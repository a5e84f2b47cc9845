# Local targets mirror the CI job (.github/workflows/ci.yml) exactly, so
# a green `make check` predicts a green required-checks run.

.PHONY: build test race lint vet fuzz check bench benchdiff

build:
	go build ./...

test:
	go test ./...

# The CI test tier: race detector + -short gating.
race:
	go test -race -short ./...

vet:
	go vet ./...

# dmtvet: the repo's custom determinism/safety analyzers (internal/lint),
# a required CI step. Run it the same way CI does. Repeat runs are cheap:
# dmtvet caches its diagnostics keyed on the analyzer set, source file
# hashes and dependency export data, so an unchanged tree replays
# instantly (-nocache opts out).
lint:
	go run ./cmd/dmtvet ./...

# Fuzz the wire decoders: first replay the committed seed corpus
# (deterministic, what CI runs on every push), then a short live fuzzing
# smoke against ReadModelSet. Grow the corpus with -fuzztime as needed;
# new crashers land under internal/wire/testdata/fuzz/ — commit them.
fuzz:
	go test ./internal/wire -run 'Fuzz' -count=1
	go test ./internal/wire -run '^$$' -fuzz 'FuzzReadModelSet' -fuzztime 10s

check: build vet lint race

# The repository's one benchmark harness (BENCHMARK.json: workloads,
# metrics, run_seconds) — end-to-end numbers plus the per-layer ledger.
# The CI bench job runs the same command as a 3-second smoke.
bench:
	go run ./bench --workload all --seed 1 --seconds 18 --trace 0 -json bench.json

# Before/after: make benchdiff A=before.json B=after.json
benchdiff:
	go run ./bench compare $(A) $(B)
