# Build and verification targets. `make check` is the tier-1 gate;
# `make race` adds the race detector; `make smoke` runs the reduced
# fault-intensity sweep end to end.

GO ?= go

.PHONY: build check vet test race smoke parallel-smoke resume-smoke optimize-resume-smoke serve-smoke workload-smoke scenario-smoke optimize-smoke bench bench-mem fuzz cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

check: build vet test

race:
	$(GO) test -race ./...

# Reduced-scale fault sweep as a smoke test: exercises the injector,
# the resilient pipeline, and the report path in one shot.
smoke:
	$(GO) test -run '^$$' -bench BenchmarkFaultSweep -benchtime 1x -v .

# Determinism smoke for -workers: the reduced survey plus fault sweep
# at 1 and 4 workers must give byte-identical stdout and -zerotime
# manifests.
parallel-smoke:
	sh scripts/parallel_smoke.sh

# Checkpoint/resume determinism smoke: a survey -resume run at a
# different worker count must reproduce the cold run's stdout and
# -zerotime manifest byte for byte.
resume-smoke:
	sh scripts/resume_smoke.sh

# The same guarantee for reoptimize after losing its newest search
# state. Fails today (ROPT carries no trajectory or telemetry; see
# ROADMAP), so it is not part of CI.
optimize-resume-smoke:
	sh scripts/optimize_resume_smoke.sh

# End-to-end smoke of the resident service: start resurveyd, submit a
# job over HTTP, poll it to done, check /healthz and /metrics, then
# SIGTERM and require a clean graceful-shutdown exit.
serve-smoke:
	sh scripts/serve_smoke.sh

# Determinism smoke for the virtual-clock workloads: run each named
# workload twice at reduced scale and require byte-identical stdout
# and manifests (-zerotime strips wall times). A diff here means the
# event engine leaked scheduling nondeterminism into results.
workload-smoke:
	sh scripts/workload_smoke.sh

# Determinism smoke for the adversarial scenario sweeps: run hijack
# and leak twice each and require byte-identical stdout and manifests,
# plus the containment invariants (full ROV suppresses the hijack;
# leaks, which keep their true origin, sail through ROV unchanged).
scenario-smoke:
	sh scripts/scenario_smoke.sh

# Determinism smoke for the policy-optimization search harness: run
# both strategies twice each and once at a wider -workers, and require
# byte-identical stdout and manifests plus a hot warm-restore counter.
# A diff here means the concurrent evaluator leaked arrival order, or
# the warm snapshot-restore eval path regressed to cold rebuilds.
optimize-smoke:
	sh scripts/optimize_smoke.sh

# Full benchmark run across all packages, converted to a committed
# JSON baseline. Two steps (temp file, then convert) so a failing test
# run is not swallowed by the pipe. BENCHTIME=1x gives a fast smoke.
BENCHTIME ?= 1s

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... > bench.out.tmp
	$(GO) run ./cmd/benchjson < bench.out.tmp > BENCH_baseline.json
	rm -f bench.out.tmp

# Memory-model regression gate: rerun the RIB memory benchmarks (the
# vantage-table bytes-per-route model, steady-state delivery allocs,
# and the ~80K-AS/~1M-prefix internet-scale smoke) and fail if
# bytes/route or allocs/delivery regressed more than 10% against the
# committed BENCH_baseline.json. The internet benchmark additionally
# hard-fails itself above the 64 bytes/route budget.
bench-mem:
	$(GO) test -run '^$$' -bench 'BenchmarkRIBBytesPerRoute|BenchmarkDeliveryAllocs|BenchmarkMatCacheBound' -benchtime 1x ./internal/bgp/ > benchmem.out.tmp
	$(GO) test -run '^$$' -bench BenchmarkInternetScaleRIB -benchtime 1x ./internal/topo/ >> benchmem.out.tmp
	$(GO) run ./cmd/benchjson < benchmem.out.tmp > benchmem.json.tmp
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -current benchmem.json.tmp -tolerance 0.10 bytes/route allocs/delivery boxed/walk
	rm -f benchmem.out.tmp benchmem.json.tmp

# Every native fuzz target, 30s each (override with FUZZTIME); CI runs
# the same list as its fuzz smoke step.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime $(FUZZTIME) ./internal/probe/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/irr/
	$(GO) test -run '^$$' -fuzz 'FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/mrt/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/mrt/
	$(GO) test -run '^$$' -fuzz FuzzIncrementalEvents -fuzztime $(FUZZTIME) ./internal/bgp/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/bgp/
	$(GO) test -run '^$$' -fuzz FuzzIntern -fuzztime $(FUZZTIME) ./internal/bgp/pathtab/
	$(GO) test -run '^$$' -fuzz FuzzValidate -fuzztime $(FUZZTIME) ./internal/rpki/
	$(GO) test -run '^$$' -fuzz FuzzObjectiveDecode -fuzztime $(FUZZTIME) ./internal/optimize/
	$(GO) test -run '^$$' -fuzz FuzzSearchStateRoundTrip -fuzztime $(FUZZTIME) ./internal/optimize/

# Coverage floors: the BGP engine (the incremental recomputation path
# must stay thoroughly tested) and the snapshot container (every
# checkpoint rides on its integrity checks). CI enforces the same
# bounds.
cover:
	$(GO) test -coverprofile=bgp.cov ./internal/bgp/
	$(GO) tool cover -func=bgp.cov | awk '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < 80) { printf "internal/bgp coverage %.1f%% below 80%% floor\n", $$3; exit 1 } else printf "internal/bgp coverage %.1f%%\n", $$3 }'
	rm -f bgp.cov
	$(GO) test -coverprofile=snapshot.cov ./internal/snapshot/
	$(GO) tool cover -func=snapshot.cov | awk '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < 85) { printf "internal/snapshot coverage %.1f%% below 85%% floor\n", $$3; exit 1 } else printf "internal/snapshot coverage %.1f%%\n", $$3 }'
	rm -f snapshot.cov
	$(GO) test -coverprofile=vtime.cov ./internal/vtime/
	$(GO) tool cover -func=vtime.cov | awk '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < 80) { printf "internal/vtime coverage %.1f%% below 80%% floor\n", $$3; exit 1 } else printf "internal/vtime coverage %.1f%%\n", $$3 }'
	rm -f vtime.cov
	$(GO) test -coverprofile=workload.cov ./internal/workload/
	$(GO) tool cover -func=workload.cov | awk '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < 80) { printf "internal/workload coverage %.1f%% below 80%% floor\n", $$3; exit 1 } else printf "internal/workload coverage %.1f%%\n", $$3 }'
	rm -f workload.cov
	$(GO) test -coverprofile=rpki.cov ./internal/rpki/
	$(GO) tool cover -func=rpki.cov | awk '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < 85) { printf "internal/rpki coverage %.1f%% below 85%% floor\n", $$3; exit 1 } else printf "internal/rpki coverage %.1f%%\n", $$3 }'
	rm -f rpki.cov
	$(GO) test -coverprofile=faults.cov ./internal/faults/
	$(GO) tool cover -func=faults.cov | awk '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < 80) { printf "internal/faults coverage %.1f%% below 80%% floor\n", $$3; exit 1 } else printf "internal/faults coverage %.1f%%\n", $$3 }'
	rm -f faults.cov
	$(GO) test -coverprofile=optimize.cov ./internal/optimize/
	$(GO) tool cover -func=optimize.cov | awk '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < 80) { printf "internal/optimize coverage %.1f%% below 80%% floor\n", $$3; exit 1 } else printf "internal/optimize coverage %.1f%%\n", $$3 }'
	rm -f optimize.cov
