# Tier-1 verify gate (see ROADMAP.md): build, vet, full tests, then the
# race detector over the concurrent serving/execution paths, then the
# per-package coverage floors, then a randomized chaos replay with fault
# injection enabled, then an informational bench comparison against the
# checked-in results.
.PHONY: verify build vet test race cover fuzz bench bench-compare chaos soak

verify: build vet test race cover chaos bench-compare

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# race includes a ~1s slice of the governance soak (TestSoakGovernedOverload);
# `make soak` runs the full 30s version.
race:
	go test -race ./internal/serve ./internal/exec ./internal/ral ./internal/workload \
		./internal/obs ./internal/opt ./internal/fusion ./internal/faultinject \
		./internal/enginecache ./internal/kir ./internal/fleet .

# cover enforces per-package coverage floors on the serving/execution/
# observability core. Floors sit a few points under the measured value at
# the time they were set, so genuine regressions fail verify while small
# refactors don't. Raise a floor when coverage grows; never lower one to
# make a build pass.
cover:
	@fail=0; \
	for entry in internal/serve:85 internal/exec:77 internal/obs:92 internal/enginecache:72 internal/fleet:80 internal/kir:80; do \
		pkg=$${entry%%:*}; floor=$${entry##*:}; \
		pct=$$(go test -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: $$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}'); \
		if [ "$$ok" = "1" ]; then echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		else echo "cover: FAIL $$pkg $$pct% below floor $$floor%"; fail=1; fi; \
	done; exit $$fail

# fuzz runs the native fuzz targets (trace-file and fault-spec parsers,
# the engine-cache entry decoder, the KIR differential generator — random
# kernel programs interpreted vs run on the bytecode VM, bit-exact — and the
# fleet's v2 HTTP infer-body decoder) for FUZZTIME each. Crashers land in
# testdata/fuzz/ for triage.
FUZZTIME ?= 30s
fuzz:
	go test -fuzz=FuzzTraceSpec -fuzztime=$(FUZZTIME) ./internal/workload
	go test -fuzz=FuzzFaultSpec -fuzztime=$(FUZZTIME) ./internal/faultinject
	go test -fuzz=FuzzEngineCacheDecode -fuzztime=$(FUZZTIME) ./internal/enginecache
	go test -fuzz=FuzzKIRProgram -fuzztime=$(FUZZTIME) ./internal/kir
	go test -fuzz=FuzzV2InferDecode -fuzztime=$(FUZZTIME) ./internal/fleet

# chaos replays the serve/exec suites under -race with fault injection
# armed at a fresh random seed. The seed is printed so a failing run
# reproduces with: GODISC_FAULT_SEED=<seed> make chaos
chaos:
	@seed=$${GODISC_FAULT_SEED:-$$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}; \
	spec=$${GODISC_FAULTS:-"compile:transient:0.25,kernel-launch:panic:0.3,alloc:transient:0.25,cache-read:transient:0.4,cache-write:transient:0.4,http-read:transient:0.2,http-decode:transient:0.2,http-write:error:0.2"}; \
	echo "chaos: GODISC_FAULTS=$$spec GODISC_FAULT_SEED=$$seed"; \
	GODISC_FAULTS="$$spec" GODISC_FAULT_SEED="$$seed" \
		go test -race -count=1 ./internal/serve ./internal/exec ./internal/fleet

# soak stretches the randomized governed-overload run (mixed priorities,
# tight deadlines, fault injection, memory budget) and the fleet-scale
# HTTP saturation run (3 models × 2 versions, eviction churn under a
# tight governor budget, zero 5xx, bit-identical outputs, strict
# priority ordering of shed traffic) to 30s each under -race.
SOAKTIME ?= 30s
soak:
	GODISC_SOAK=$(SOAKTIME) go test -race -count=1 -v \
		-run TestSoakGovernedOverload ./internal/serve
	GODISC_SOAK=$(SOAKTIME) go test -race -count=1 -v \
		-run TestSaturationFleetHTTP ./internal/fleet

# bench runs every experiment benchmark once and writes the parsed
# per-experiment custom metrics to BENCH_PR12.json. Earlier BENCH_PR*.json
# files are history and are never overwritten (BENCH_PR8.json holds the
# last E17 bytecode-vs-closure kernel ablation). -benchtime=1x because each
# benchmark iteration is itself a whole experiment replay.
bench:
	go test -run '^$$' -bench=. -benchtime=1x -benchmem . | tee bench.out
	go run ./cmd/benchjson -in bench.out -out BENCH_PR12.json
	@rm -f bench.out
	@echo "wrote BENCH_PR12.json"

# bench-compare prints deltas between the two most recent checked-in
# BENCH_*.json files (or against itself when only one exists), ordered by
# version sort so BENCH_PR12 follows BENCH_PR8. It is informational and
# never fails the build.
bench-compare:
	@files=$$(ls BENCH_*.json 2>/dev/null | sort -V | tail -2); \
	set -- $$files; \
	if [ $$# -eq 0 ]; then echo "bench-compare: no BENCH_*.json checked in (run 'make bench')"; \
	elif [ $$# -eq 1 ]; then go run ./cmd/benchjson -compare "$$1" "$$1" || true; \
	else go run ./cmd/benchjson -compare "$$1" "$$2" || true; fi
