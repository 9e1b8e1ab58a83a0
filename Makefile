# Development entry points.

GO ?= go

# COVER_BASELINE is the recorded total-statement-coverage floor; `make
# cover` (and CI) fail when the tree drops below it.  Raise it when
# coverage durably improves; never lower it to make a PR pass.
COVER_BASELINE ?= 80.0

# CLOSURE_BUDGET is the most non-test Go lines the serving binaries'
# packages may hold (`make loc`'s third figure); `make analyze` (and CI)
# fail above it.  Lower it when the closure shrinks; raising it needs a
# CHANGES.md line giving the reason.  A plain constant, so the
# environment cannot override it.
CLOSURE_BUDGET = 16132

.PHONY: test loc race cpus analyze benchmark-smoke cover fuzz-smoke memprofile ingest-smoke load-smoke wire-smoke distbuild-smoke clean

test:
	$(GO) build ./... && $(GO) test ./...

# Non-test Go lines outside bench/ and the analyzers' testdata: the size
# ROADMAP's simplicity aim tracks, printed three times — every line, code
# only (blank lines and lines holding nothing but a // comment dropped),
# the figure a deleted comment cannot move, and the lines of the packages
# the serving binaries link (SERVING_BINS' `go list -deps`, every non-test
# file of each package).  Printed, never gated; CI logs it.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
	  ! -path './internal/analysis/*/testdata/*' -print0
SERVING_BINS = ./cmd/adsserver ./cmd/adstool ./cmd/adsload
SERVING_DIRS = $(GO) list -deps -f '{{if not .Standard}}{{.Dir}}{{end}}' $(SERVING_BINS)
SERVING_LINES = for d in $$($(SERVING_DIRS)); do \
	  find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go'; done | xargs cat | wc -l
loc:
	@echo "non-test Go lines outside bench/: $$($(LOC_FILES) | xargs -0 cat | wc -l)"
	@echo "  of them code (no blank or //-only lines): $$($(LOC_FILES) | xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$$')"
	@echo "  of them in the serving binaries' packages: $$($(SERVING_LINES))"

# The race gate covers the whole tree: every package with concurrency
# (the facade, coordinator scatter-gather, dataset catalog, streaming
# ingestor, parallel sketch builders, HTTP serving tier) plus everything
# that might grow some — a hand-picked allowlist rots silently.
race:
	$(GO) test -race ./...

# The construction schedules under one, two and four cores: the
# calling-goroutine path, the reference machine's split, and node ranges
# that do not divide the way the batches do.  Every count must produce the
# same bytes, which these tests compare against brute force or each other,
# and a node's HIP index, built by racing goroutines, the same readouts.
# Then Build and the serving scan under the same counts, which they take
# from GOMAXPROCS: Build's output against the core reference entry points
# (the BuildParity tests), the scan inline on the caller and in chunks
# across several workers, and the scatter barrier, whose shard calls must
# all be in flight at once even on one core.
cpus:
	$(GO) test -cpu 1,2,4 -run 'Differential|ParallelBuilder|BuildersAgree|FrameIndex|HIPIndex' ./internal/core
	$(GO) test -cpu 1,2,4 -run 'BuildParity|Engine|Scatter|IndexCache|ForEach' . ./internal/query ./internal/cluster

# Static-analysis gate, also a required CI step: gofmt, the serving
# binaries' closure (none of SERVING_BINS may link the paper lab —
# adsketch/lab, internal/simulate, internal/stats with the reference
# error curves, or internal/sketch with the MinHash flavors and their
# Section 4 formulas — or internal/legacy, the decoder of older files that
# only adsconvert links, and their packages may hold at most
# CLOSURE_BUDGET non-test lines), the standard vet suite, the repo's
# own invariant analyzers (cmd/adsvet — detorder, refpair, wireformat,
# kindswitch, lockheld; see README "Static analysis"), and staticcheck
# when installed (CI installs a pinned version; locally the step is
# skipped with a notice).  adsvet runs through `go vet -vettool` so
# package loading shares the build cache.
analyze:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	@lab=$$($(GO) list -deps $(SERVING_BINS) | grep -xE 'adsketch/(lab|internal/simulate|internal/stats|internal/sketch|internal/legacy)'); \
	if [ -n "$$lab" ]; then echo "the serving binaries link the paper lab or the legacy decoder:" >&2; \
	  echo "$$lab" >&2; exit 1; fi
	@lines=$$($(SERVING_LINES)); if [ "$$lines" -gt $(CLOSURE_BUDGET) ]; then \
	  echo "the serving binaries' packages hold $$lines non-test lines, above CLOSURE_BUDGET $(CLOSURE_BUDGET)" >&2; \
	  exit 1; fi
	$(GO) vet ./...
	$(GO) build -o adsvet.bin ./cmd/adsvet
	$(GO) vet -vettool=./adsvet.bin ./...
	@rm -f adsvet.bin
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "analyze: staticcheck not installed; skipped (CI runs the pinned version)"; fi

# Two seconds of the repository benchmark's build workload (bench/,
# BENCHMARK.json) as a correctness smoke, not a measurement: the run
# exits non-zero — failing the target and CI — when a distbuild
# partition is not byte-identical to SplitSketchSet of a single-process
# Build, an NRMSE leaves 1.4×1/sqrt(2k−2), or any operation fails.
benchmark-smoke:
	$(GO) run ./bench --workload build_offline --seed 1 --seconds 2 --trace 0

# Heap profile of the steady-state serving hot path (Engine.Do with a
# warm cache): chase allocation regressions with
#   go tool pprof adsketch.test engine_do.memprofile
# CI runs this and uploads the profile artifact.
memprofile:
	$(GO) test -run='^$$' -bench='^BenchmarkEngineDoAllocs$$' -benchtime=10000x \
	  -memprofile=engine_do.memprofile -o adsketch.test .
	@ls -l engine_do.memprofile

# Coverage gate: emit coverage.out (CI uploads it as an artifact) and
# fail when total statement coverage falls below the recorded baseline.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }' || { \
	  echo "coverage $$total% fell below the $(COVER_BASELINE)% baseline" >&2; exit 1; }

# A few seconds of coverage-guided fuzzing on the sketch-file readers
# (the v3 parser, the write/read fixed point, the node-code decoder and
# adsconvert's decoder of older files), Algorithm 1 against the
# brute-force build, the
# wire-protocol and the graph-IO parsers — enough to catch decoder and
# builder regressions fast.  -fuzzminimizetime=1x spends the budget on
# fuzzing: with an empty fuzz cache, as in CI, minimizing each new input
# otherwise takes most of it.  A crasher still fails the step and is still
# written to testdata/fuzz, only not minimized.
FUZZ = $(GO) test -run='^$$' -fuzztime=5s -fuzzminimizetime=1x
fuzz-smoke:
	$(FUZZ) -fuzz='FuzzReadSketchSet' ./internal/core/
	$(FUZZ) -fuzz='FuzzReadSet$$' ./internal/core/
	$(FUZZ) -fuzz='FuzzOpenSketchFile' ./internal/core/
	$(FUZZ) -fuzz='FuzzNodeCode' ./internal/core/
	$(FUZZ) -fuzz='FuzzBuildersAgree' ./internal/core/
	$(FUZZ) -fuzz='FuzzReadSet$$' ./internal/legacy/
	$(FUZZ) -fuzz='FuzzReadEdgeList' ./internal/graph/
	$(FUZZ) -fuzz='FuzzDecodeRequest' ./internal/wire/
	$(FUZZ) -fuzz='FuzzDecodeResponse' ./internal/wire/
	$(FUZZ) -fuzz='FuzzDecodeFrontierFrame' ./internal/wire/

# End-to-end streaming-ingest smoke: start an ingest-enabled adsserver,
# replay the checked-in SNAP fixture through `adstool ingest` (34 edges,
# so -freeze-every 16 publishes mid-stream and the final batch freezes
# explicitly), then verify the published dataset answers queries.
ingest-smoke:
	$(GO) build -o adsserver.smoke ./cmd/adsserver
	$(GO) build -o adstool.smoke ./cmd/adstool
	@set -e; \
	./adsserver.smoke -ingest -freeze-every 16 -ingest-k 8 -addr 127.0.0.1:18080 >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	ok=0; for i in $$(seq 1 50); do \
	  if ./adstool.smoke ingest -remote http://127.0.0.1:18080 -dataset smoke \
	       -graph internal/graph/testdata/snap_small.txt -batch 10 2>/dev/null; then ok=1; break; fi; \
	  sleep 0.2; \
	done; \
	[ "$$ok" = 1 ] || { echo "ingest-smoke: server never became ready" >&2; exit 1; }; \
	./adstool.smoke query -remote http://127.0.0.1:18080 -dataset smoke -node 0 -d 2; \
	echo "ingest-smoke: OK"
	rm -f adsserver.smoke adstool.smoke

# End-to-end failure-semantics smoke: two fault-injectable workers behind
# a scatter-gather coordinator, driven by adsload's SLO gate.  Proves the
# PR 8 acceptance criteria on a live topology:
#   1. healthy topology passes a zero-error gate;
#   2. killing a worker mid-run under the partial policy keeps the
#      coordinator at zero errors (degraded, flagged answers instead);
#   3. those degraded answers ARE flagged (a partial-intolerant gate on
#      the same scenario must fail);
#   4. the default fail policy surfaces the outage as errors (a lenient
#      error-rate gate on the fail-policy scenario must fail).
# Scenario files pin the worker fault endpoint to 127.0.0.1:18092.
load-smoke:
	$(GO) build -o adsserver.smoke ./cmd/adsserver
	$(GO) build -o adstool.smoke ./cmd/adstool
	$(GO) build -o adsload.smoke ./cmd/adsload
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$w1 $$w2 $$coord 2>/dev/null; rm -rf $$tmp' EXIT INT TERM; \
	./adstool.smoke gen -type ba -n 2000 -m 3 -seed 7 > $$tmp/graph.txt; \
	./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 -save $$tmp/whole.ads >/dev/null; \
	./adstool.smoke split -sketches $$tmp/whole.ads -partitions 2 -out $$tmp/part >/dev/null; \
	./adsserver.smoke -sketches $$tmp/part.p0of2.ads -fault-inject -addr 127.0.0.1:18091 >/dev/null 2>&1 & w1=$$!; \
	./adsserver.smoke -sketches $$tmp/part.p1of2.ads -fault-inject -addr 127.0.0.1:18092 >/dev/null 2>&1 & w2=$$!; \
	./adsserver.smoke -workers http://127.0.0.1:18091,http://127.0.0.1:18092 \
	  -shard-retries 1 -retry-backoff 5ms -shard-timeout 5s \
	  -addr 127.0.0.1:18090 >/dev/null 2>&1 & coord=$$!; \
	ok=0; for i in $$(seq 1 50); do \
	  if ./adsload.smoke -target http://127.0.0.1:18090 -rps 50 -duration 100ms >/dev/null 2>&1; then ok=1; break; fi; \
	  sleep 0.2; \
	done; \
	[ "$$ok" = 1 ] || { echo "load-smoke: coordinator never became ready" >&2; exit 1; }; \
	echo "load-smoke: [1/6] healthy topology, zero-error gate"; \
	./adsload.smoke -target http://127.0.0.1:18090 -rps 150 -duration 2s \
	  -gate -slo-error-rate 0 -slo-p99 5s -slo-min-done 100; \
	echo "load-smoke: [2/6] dead worker mid-run, partial policy stays zero-error (json)"; \
	./adsload.smoke -target http://127.0.0.1:18090 -proto json -scenario cmd/adsload/testdata/smoke_deadworker.json \
	  -gate -slo-error-rate 0 -slo-p99 5s -slo-min-done 50 -slo-max-partial -1; \
	echo "load-smoke: [3/6] same dead-worker scenario over binary frames, same gate outcome"; \
	./adsload.smoke -target http://127.0.0.1:18090 -proto binary -scenario cmd/adsload/testdata/smoke_deadworker.json \
	  -gate -slo-error-rate 0 -slo-p99 5s -slo-min-done 50 -slo-max-partial -1; \
	echo "load-smoke: [4/6] the degraded answers were flagged under json (strict gate must fail)"; \
	if ./adsload.smoke -target http://127.0.0.1:18090 -proto json -scenario cmd/adsload/testdata/smoke_deadworker.json \
	  -gate -slo-error-rate 0 -slo-max-partial 0 >/dev/null; then \
	  echo "load-smoke: expected the partial-intolerant gate to fail" >&2; exit 1; fi; \
	echo "load-smoke: [5/6] ... and under binary, identically"; \
	if ./adsload.smoke -target http://127.0.0.1:18090 -proto binary -scenario cmd/adsload/testdata/smoke_deadworker.json \
	  -gate -slo-error-rate 0 -slo-max-partial 0 >/dev/null; then \
	  echo "load-smoke: expected the partial-intolerant gate to fail over binary" >&2; exit 1; fi; \
	echo "load-smoke: [6/6] fail policy surfaces the outage (lenient gate must fail)"; \
	if ./adsload.smoke -target http://127.0.0.1:18090 -scenario cmd/adsload/testdata/smoke_failpolicy.json \
	  -gate -slo-error-rate 0.05 -slo-min-done 1 >/dev/null; then \
	  echo "load-smoke: expected the fail-policy gate to fail" >&2; exit 1; fi; \
	echo "load-smoke: OK"
	rm -f adsserver.smoke adstool.smoke adsload.smoke

# Wire-to-wire smoke for the binary protocol: a single-worker topology
# served in-process (adsload -inproc), every request paying the full frame
# encode/decode on both legs, a cache-hitting single-node mix
# (closeness1).  The gate is on counts — no failed request, at least 1000
# answered — not on an absolute latency, which on a shared machine
# measures its other tenants; load-smoke keeps covering the real HTTP
# topology.  The p50/p95/p99 of both transports (the JSON run is the
# comparison row) are printed and kept in wire_smoke.json for CI to
# upload, not gated.
wire-smoke:
	$(GO) build -o adstool.smoke ./cmd/adstool
	$(GO) build -o adsload.smoke ./cmd/adsload
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf $$tmp' EXIT INT TERM; \
	./adstool.smoke gen -type ba -n 2000 -m 3 -seed 7 > $$tmp/graph.txt; \
	./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 -save $$tmp/whole.ads >/dev/null; \
	./adsload.smoke -inproc $$tmp/whole.ads -proto binary -mix closeness1=1 -rps 2000 -duration 1s >/dev/null; \
	echo "wire-smoke: binary frames, cached single-node queries, gated on 0 errors and >= 1000 answers"; \
	./adsload.smoke -inproc $$tmp/whole.ads -proto binary -mix closeness1=1 -rps 2000 -duration 3s \
	  -json -gate -slo-error-rate 0 -slo-min-done 1000 | tee $$tmp/wire.out; \
	echo "wire-smoke: same mix over the JSON transport, for the comparison row"; \
	./adsload.smoke -inproc $$tmp/whole.ads -proto json -mix closeness1=1 -rps 2000 -duration 3s -json \
	  | tee -a $$tmp/wire.out; \
	grep '^{' $$tmp/wire.out > wire_smoke.json; \
	echo "wire-smoke: OK (histograms in wire_smoke.json)"
	rm -f adstool.smoke adsload.smoke

# End-to-end distributed-build smoke: four adsserver -buildworker
# processes build the SNAP fixture over the wire transport for every
# sketch kind (uniform, weighted, approx).  Each kind's partition files
# must be byte-identical to a single-process build split with `adstool
# split` — `adstool build -save` for the exact kinds, and for the
# approximate kind, which only a distributed build makes, its one-worker
# in-process build (`-dist 1`) merged — and must `adstool merge` back into
# exactly that file, which `adsconvert` leaves as it is; each kind's
# partitions are then served behind a scatter-gather coordinator and must
# answer a query.
distbuild-smoke:
	$(GO) build -o adsserver.smoke ./cmd/adsserver
	$(GO) build -o adstool.smoke ./cmd/adstool
	$(GO) build -o adsconvert.smoke ./cmd/adsconvert
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$bw $$sv 2>/dev/null || true; rm -rf $$tmp' EXIT INT TERM; \
	cp internal/graph/testdata/snap_small.txt $$tmp/graph.txt; \
	n=$$(./adstool.smoke stats -graph $$tmp/graph.txt | awk '/^nodes/ { print $$2 }'); \
	weights=$$(seq $$n | awk '{ printf (NR > 1 ? "," : "") "%g", 0.5 + (NR - 1) % 3 }'); \
	bw=""; sv=""; urls=""; \
	for i in 1 2 3 4; do \
	  ./adsserver.smoke -buildworker -addr 127.0.0.1:1810$$i >/dev/null 2>&1 & bw="$$bw $$!"; \
	  urls="$$urls,http://127.0.0.1:1810$$i"; \
	done; urls=$${urls#,}; \
	ok=0; for t in $$(seq 1 50); do \
	  if ./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 \
	       -workers $$urls -out $$tmp/dist_uniform 2>/dev/null; then ok=1; break; fi; \
	  sleep 0.2; \
	done; \
	[ "$$ok" = 1 ] || { echo "distbuild-smoke: build workers never became ready" >&2; exit 1; }; \
	./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 -weights $$weights \
	  -workers $$urls -out $$tmp/dist_weighted; \
	./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 -eps 0.25 \
	  -workers $$urls -out $$tmp/dist_approx; \
	kill $$bw 2>/dev/null || true; bw=""; \
	./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 -save $$tmp/whole_uniform.ads >/dev/null; \
	./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 -weights $$weights -save $$tmp/whole_weighted.ads >/dev/null; \
	./adstool.smoke build -graph $$tmp/graph.txt -k 8 -seed 42 -eps 0.25 -dist 1 -out $$tmp/one_approx >/dev/null; \
	./adstool.smoke merge -out $$tmp/whole_approx.ads $$tmp/one_approx.p0of1.ads >/dev/null; \
	for kind in uniform weighted approx; do \
	  ./adstool.smoke split -sketches $$tmp/whole_$$kind.ads -partitions 4 -out $$tmp/ref_$$kind >/dev/null; \
	  for i in 0 1 2 3; do \
	    cmp $$tmp/ref_$$kind.p$${i}of4.ads $$tmp/dist_$$kind.p$${i}of4.ads || { \
	      echo "distbuild-smoke: $$kind partition $$i differs from the single-process split" >&2; exit 1; }; \
	  done; \
	  ./adstool.smoke merge -out $$tmp/merged_$$kind.ads $$tmp/dist_$$kind.p[0-3]of4.ads >/dev/null; \
	  cmp $$tmp/merged_$$kind.ads $$tmp/whole_$$kind.ads || { echo "distbuild-smoke: merged $$kind partitions differ from build -save" >&2; exit 1; }; \
	  ./adsconvert.smoke -sketches $$tmp/whole_$$kind.ads -out $$tmp/converted_$$kind.ads >/dev/null; \
	  cmp $$tmp/converted_$$kind.ads $$tmp/whole_$$kind.ads || { echo "distbuild-smoke: convert changed a $$kind build -save file" >&2; exit 1; }; \
	  echo "distbuild-smoke: $$kind partitions byte-identical; serving them"; \
	  surls=""; \
	  for i in 0 1 2 3; do \
	    ./adsserver.smoke -sketches $$tmp/dist_$$kind.p$${i}of4.ads -addr 127.0.0.1:1811$$i >/dev/null 2>&1 & sv="$$sv $$!"; \
	    surls="$$surls,http://127.0.0.1:1811$$i"; \
	  done; surls=$${surls#,}; \
	  ./adsserver.smoke -workers $$surls -addr 127.0.0.1:18119 >/dev/null 2>&1 & sv="$$sv $$!"; \
	  ok=0; for t in $$(seq 1 50); do \
	    if ./adstool.smoke query -remote http://127.0.0.1:18119 -node 1 -d 2 2>/dev/null; then ok=1; break; fi; \
	    sleep 0.2; \
	  done; \
	  kill $$sv 2>/dev/null || true; sv=""; \
	  [ "$$ok" = 1 ] || { echo "distbuild-smoke: $$kind coordinator never answered" >&2; exit 1; }; \
	done; \
	echo "distbuild-smoke: OK"
	rm -f adsserver.smoke adstool.smoke adsconvert.smoke

clean:
	rm -f coverage.out engine_do.memprofile adsketch.test adsserver.smoke adstool.smoke adsload.smoke adsconvert.smoke adsvet.bin wire_smoke.json
