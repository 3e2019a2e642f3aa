#!/usr/bin/env sh
# Tier-1 verify loop: vet, build, full test suite, then the race
# detector over the packages with goroutine-parallel hot paths (the
# engine's SGEMM/im2col kernels and the flow-shop scheduler).
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

# Optional analyzers: run when installed, skip cleanly when not (the CI
# image bakes in only the go toolchain; go vet above always runs).
if command -v staticcheck > /dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck (not installed, skipped)"
fi
if command -v govulncheck > /dev/null 2>&1; then
    echo "== govulncheck"
    govulncheck ./...
else
    echo "== govulncheck (not installed, skipped)"
fi

echo "== gofmt"
# .bench_build/ holds the repo benchmark's checkouts of other commits.
UNFORMATTED="$(gofmt -l . | grep -v '^\.bench_build/' || true)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: not formatted:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go build/vet (cross-compile: arm64, riscv64; s390x must fail)"
# The engine's assembly gating has two arms — amd64, and the off build
# (gemm_asm_off.go and vec_asm_off.go: noasm, or any other GOARCH) — and
# the host builds only the first. arm64 and riscv64 build the off arm
# without the tag (the noasm legs below build it with the tag); vet
# type-checks the engine's tests in that build, noasm_test.go included,
# and the runtime's wire codec, whose payload is the tensor's memory, on
# a second little-endian GOARCH. None of it needs the hardware.
GOOS=linux GOARCH=arm64 go build ./...
GOOS=linux GOARCH=riscv64 go build ./...
GOOS=linux GOARCH=arm64 go vet ./internal/engine/ ./internal/runtime/
# The runtime builds only where a float32's memory is its little-endian
# wire word (tensorbytes_le.go lists those GOARCHes). A big-endian one
# must keep failing to build, not ship host-order payloads.
if GOOS=linux GOARCH=s390x go build ./internal/runtime/ > /dev/null 2>&1; then
    echo "internal/runtime builds on big-endian s390x: its payload would go out in host order" >&2
    exit 1
fi

echo "== assembly only where a leg runs it"
# The host legs below execute amd64 assembly (on an AVX2+FMA host the
# parity suite runs every tile); no leg executes any other GOARCH's, so
# none lands here until a leg does.
STRAY_ASM="$(find internal -name '*.s' ! -name '*_amd64.s')"
if [ -n "$STRAY_ASM" ]; then
    for f in $STRAY_ASM; do
        echo "$f: assembly for a GOARCH no check.sh leg executes" >&2
    done
    exit 1
fi

echo "== go build/vet/test -tags noasm (pure-Go fallback must not rot)"
# The noasm build is the contract for non-AVX2 hosts and every GOARCH
# but amd64: every GEMM on the panel loop, auto == asm == panel ==
# direct bit for bit (see noasm_test.go). Engine tests carry the parity
# suite; the full build catches tag skew anywhere else. Under this arm the materialized
# lowering is the only conv path, so vet also guards the one generic
# im2col (im2colTile[T]) at both its instantiations, float32 and int8,
# and the tests that call them.
go build -tags noasm ./...
go vet -tags noasm ./internal/engine/
go test -tags noasm ./internal/engine/

echo "== DNNJPS_NOASM=1 go test (the runtime switch, same contract)"
# The env gate is a different switch from the tag: the assembly is
# compiled in and every asm*OK flag must keep it unreachable — the GEMM
# tile, the int8 kernels, the elementwise spans and the 3x3 depthwise.
# -count=1: the variable is read in an init(), before the test log that
# keys go test's cache on environment reads is open, so without it this
# leg can be answered "(cached)" from a run that had the assembly on.
DNNJPS_NOASM=1 go test -count=1 ./internal/engine/

echo "== go test"
go test ./...

echo "== steady-state allocs, MobileNet alone (3x, no other test first)"
# Inside the full package run earlier tests have warmed every buffer.
# Run alone, the test is what warms them, and a forward that migrates
# to another P mid-window must still find the GEMM pack blocks it put
# back. With those blocks in a sync.Pool (whose per-P slot no other P
# can take) this run failed 5 times in 6 on a 2-vCPU host; the free
# list in gemm_asm.go keeps it green.
go test -count=3 -run 'TestForwardSteadyStateAllocsMobilenet$' ./internal/engine/

echo "== benchmark module (vet + test; read-only)"
# benchmark/ is its own module (replace dnnjps => ../, stdlib only), so
# ./... above never compiles it — and it is the acceptance instrument:
# renaming an exported engine or runtime function it calls must fail
# here, not in the pipeline's benchmark build.
(cd benchmark && go vet ./... && go test ./...)

echo "== go test -race (engine, flowshop)"
# On AVX2 hosts this leg drives the assembly kernels too: the parity
# tests pin kernelAsm at workers>1, racing the packed-panel fan-out. On
# AVX-512 hosts TestSgemmTilesBitIdentical flips the tile between
# whole GEMMs and forwards here as well (at workers 1 to 3).
go test -race ./internal/engine/... ./internal/flowshop/...

echo "== go test -race -count=2 (runtime pipeline)"
go test -race -count=2 ./internal/runtime/...

echo "== go test -race (estimator)"
go test -race ./internal/estimator/...

echo "== go test -race (jpsserve)"
# acceptLoop, perConn, the downlink shaper and the fault injector, on Server.Serve's goroutines.
go test -race ./cmd/jpsserve/

echo "== go test -race (live figures' flood fan-out)"
# flood dials every client on its own goroutine and each writes its own
# report and error slot; the batch, fleet and trace figures also share
# one server and tracer across the client and server goroutines.
go test -race -count=1 -run 'TestRuntime(Batch|Fleet|Trace)Live$' ./internal/experiments/

echo "== adaptive replanning deflake (3x, timing-sensitive live runs)"
# The adaptive tests drive real loopback connections through the
# scripted-degradation injector; three back-to-back runs catch
# scheduler-dependent flakiness before it lands. The regression corpus
# replay (internal/regression) is pure arithmetic and runs under the
# plain `go test ./...` above.
go test -run Adapt -count=3 ./internal/runtime/... ./internal/estimator/... ./internal/experiments/...
# The forced-disconnect test must not depend on when the replan lands
# (its trigger is a frame position): 50 runs.
go test -run 'TestAdaptEstimatorThreadsAcrossAttempts$' -count=50 ./internal/runtime/

echo "== heuristic gap vs offline-optimal brute force"
# The documented-bound legs: the m-machine flow-shop scheduler against
# exhaustive sequencing (bounds 1.06x/1.35x, see DESIGN.md §12) and the
# k-way chain planner against the partition brute force (tripwire 50%).
# With them, the sequencer against its direct-evaluation oracle: NEH
# exact on integers, the descent exact on floats, ScheduleM's makespan
# ratio on random floats, and identical sequences on JPSChain's traffic.
go test -run 'TestScheduleMGapVsBruteForce|TestNEHMMatchesDirectOnIntegers|TestSwapDescentMatchesFullReevaluation|TestScheduleMRatioVsReference' -count=1 ./internal/flowshop/
go test -run 'TestScheduleMMatchesReferenceOnChainTraffic' -count=1 ./internal/core/
go test -run 'TestChainGapExperiment' -count=1 ./internal/experiments/

echo "== fuzz smoke (10s per target)"
# Each wire decoder and the fault injector get a short coverage-guided
# run on top of the committed seed corpora in testdata/fuzz/ (the job
# decoder twice, once from each of its two corpora). A crash here
# reproduces with: go test -run 'Fuzz<T>/<file>' <pkg>
fuzz_smoke() {
    target=$1
    pkg=$2
    if ! go test -run NONE -fuzz "^${target}\$" -fuzztime 10s "$pkg" > /dev/null; then
        echo "FUZZ FAILURE: ${target} in ${pkg} (reproduce: go test -run '${target}/<file>' ${pkg})" >&2
        exit 1
    fi
}
for target in FuzzReadTensor FuzzHandleConn FuzzReadInferRequest FuzzReadInferSetRequest FuzzReadInferReply; do
    fuzz_smoke "$target" ./internal/runtime/
done
fuzz_smoke FuzzInjector ./internal/netsim/
fuzz_smoke FuzzEstimator ./internal/estimator/
fuzz_smoke FuzzSgemmAsmVsScalar ./internal/engine/
fuzz_smoke FuzzSoftmaxArgmax ./internal/engine/

echo "== multi-client e2e smoke (jpsserve, 4 tenants, SIGTERM drain)"
# resnet18 is the smallest zoo model whose Algorithm 3 plan ships true
# boundary sets (squeezenet's and mobilenetv2's cut sets all collapse to
# single unit exits, which go out as line jobs: one pair at the exit),
# so both smokes serve it: the -general legs are where a job frame of
# several pairs meets the real binary.
SMOKE_MODEL=resnet18
SMOKE_LOG="$(mktemp)"
SMOKE_BIN="$(mktemp)"
SMOKE_PID=""
# serving_addr LOG WHO polls a jpsserve log for its "serving MODEL on
# ADDR" line for 20 s and prints ADDR; if it never shows, it dumps the
# log and fails (set -e ends the script on the failed assignment).
serving_addr() {
    for _ in $(seq 1 100); do
        addr="$(awk '/^serving .* on /{print $NF}' "$1")"
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.2
    done
    echo "$2 never came up:" >&2
    cat "$1" >&2
    return 1
}
cleanup_smoke() {
    [ -n "$SMOKE_PID" ] && kill "$SMOKE_PID" 2> /dev/null || true
    rm -f "$SMOKE_LOG" "$SMOKE_BIN"
}
trap cleanup_smoke EXIT
go build -o "$SMOKE_BIN" ./cmd/jpsserve
"$SMOKE_BIN" -model "$SMOKE_MODEL" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -tenants gold:2,bronze:1 -shed-watermark 64 > "$SMOKE_LOG" 2>&1 &
SMOKE_PID=$!
ADDR="$(serving_addr "$SMOKE_LOG" "e2e smoke: server")"
go run scripts/e2e_client.go -addr "$ADDR" -model "$SMOKE_MODEL" -clients 4 -jobs 4
# Algorithm 3 plans through Client.RunGeneralPlan, tenants and shed
# watermark on; every class checked against a local forward.
go run scripts/e2e_client.go -addr "$ADDR" -model "$SMOKE_MODEL" -clients 2 -jobs 4 -general
kill -TERM "$SMOKE_PID"
if ! wait "$SMOKE_PID"; then
    echo "e2e smoke: server did not exit cleanly on SIGTERM:" >&2
    cat "$SMOKE_LOG" >&2
    exit 1
fi
SMOKE_PID=""
# The final snapshot: 16 + 8 jobs answered, and none left queued — a job
# counts in the depth until a worker pops it.
if ! grep -q "drained" "$SMOKE_LOG" || ! grep -q '^jps_server_jobs_total 24$' "$SMOKE_LOG" ||
    ! grep -q '^jps_server_queue_depth 0$' "$SMOKE_LOG"; then
    echo "e2e smoke: want a drain, 24 jobs answered and queue depth 0 in the final metrics:" >&2
    grep -E '^(jps_server_(jobs_total|queue_depth)|drained)' "$SMOKE_LOG" >&2
    exit 1
fi

echo "== chain e2e smoke (two chained jpsserve stages, next-hop forwarding)"
# A live two-hop chain: a terminal stage plus a forwarding stage with
# -next-hop pointing at it. Two connections, both numbering their jobs
# from 0, offload at cut 0 (before the handoff at unit 3), so every job
# takes the forwarder's mid-segment + windowed handoff path and the two
# ID spaces meet on the one downstream socket; then one connection at
# the handoff cut itself (runs on the forwarding stage, no handoff).
# Last, one general plan: a boundary set names no unit, so the stage it
# reaches runs its whole suffix — the forwarder's final metrics must
# show the 32 cut-0 handoffs and not one more (resnet18 at 4G, n = 4:
# all four jobs ship a two-pair set; e2e_client fails if none does).
TERM_LOG="$(mktemp)"
FWD_LOG="$(mktemp)"
TERM_PID=""
FWD_PID=""
cleanup_chain() {
    [ -n "$TERM_PID" ] && kill "$TERM_PID" 2> /dev/null || true
    [ -n "$FWD_PID" ] && kill "$FWD_PID" 2> /dev/null || true
    rm -f "$TERM_LOG" "$FWD_LOG"
    cleanup_smoke
}
trap cleanup_chain EXIT
"$SMOKE_BIN" -model "$SMOKE_MODEL" -addr 127.0.0.1:0 > "$TERM_LOG" 2>&1 &
TERM_PID=$!
TERM_ADDR="$(serving_addr "$TERM_LOG" "chain smoke: terminal stage")"
"$SMOKE_BIN" -model "$SMOKE_MODEL" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -next-hop "$TERM_ADDR" -next-cut 3 > "$FWD_LOG" 2>&1 &
FWD_PID=$!
FWD_ADDR="$(serving_addr "$FWD_LOG" "chain smoke: forwarding stage")"
go run scripts/e2e_client.go -addr "$FWD_ADDR" -model "$SMOKE_MODEL" -clients 2 -jobs 16 -cut 0
go run scripts/e2e_client.go -addr "$FWD_ADDR" -model "$SMOKE_MODEL" -clients 1 -jobs 2 -cut 3
go run scripts/e2e_client.go -addr "$FWD_ADDR" -model "$SMOKE_MODEL" -clients 1 -jobs 4 -general
kill -TERM "$FWD_PID"
wait "$FWD_PID" || {
    echo "chain smoke: forwarder did not exit cleanly:" >&2
    cat "$FWD_LOG" >&2
    exit 1
}
FWD_PID=""
# 32 + 2 + 4 jobs answered, 32 of them by handoff, each of those counted
# in exactly one middle pass (of one, or of a group of four: the sizes
# sum to 32 whatever the timing made the groups).
if ! grep -q '^jps_nexthop_forwards_total 32$' "$FWD_LOG" ||
    ! grep -q '^jps_server_jobs_total 38$' "$FWD_LOG" ||
    ! grep -q '^jps_server_batch_size_sum 32$' "$FWD_LOG"; then
    echo "chain smoke: forwarder metrics: want 38 jobs, 32 handoffs (a boundary set is never forwarded), middle passes of 32 jobs in all:" >&2
    grep -E '^jps_(nexthop|server_jobs|server_batch_size_(sum|count))' "$FWD_LOG" >&2
    exit 1
fi
kill -TERM "$TERM_PID"
wait "$TERM_PID" || {
    echo "chain smoke: terminal did not exit cleanly:" >&2
    cat "$TERM_LOG" >&2
    exit 1
}
TERM_PID=""

echo "== tail-group e2e smoke (jpsserve -model alexnet)"
# The server groups at the tail unit: 16 jobs cut at unit 3 (the exit
# of conv1/pool) each run their conv span alone and leave through a tail
# group at conv5/pool, every class checked against a local forward. The
# final metrics must show each job answered once and counted in exactly
# one group. The chain smoke's terminal-stage log, pid and trap serve.
"$SMOKE_BIN" -model alexnet -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 > "$TERM_LOG" 2>&1 &
TERM_PID=$!
TERM_ADDR="$(serving_addr "$TERM_LOG" "tail-group smoke: server")"
go run scripts/e2e_client.go -addr "$TERM_ADDR" -model alexnet -clients 4 -jobs 4 -cut 3
kill -TERM "$TERM_PID"
wait "$TERM_PID" || {
    echo "tail-group smoke: server did not exit cleanly:" >&2
    cat "$TERM_LOG" >&2
    exit 1
}
TERM_PID=""
grouped="$(awk '/^jps_server_(batched|solo)_jobs_total /{n += $2} END{print n + 0}' "$TERM_LOG")"
if ! grep -q "drained" "$TERM_LOG" || ! grep -q '^jps_server_jobs_total 16$' "$TERM_LOG" ||
    [ "$grouped" != 16 ]; then
    echo "tail-group smoke: want a drain, 16 jobs answered and 16 counted in tail groups (got $grouped):" >&2
    grep -E '^(jps_server_(jobs|batched_jobs|solo_jobs)_total|drained)' "$TERM_LOG" >&2
    exit 1
fi

echo "== runner e2e smoke (jpsserve cuts every connection after 2 MB)"
# runtime.Runner against the real binary's fault injector: 8 cloud-only
# resnet18 jobs (~600 KB each), one in flight, through a server that
# disconnects each accepted connection after 2 MB. e2e_client -runner
# fails unless every class equals a local forward and the run redialed;
# local fallback is off, so every job crossed the network.
"$SMOKE_BIN" -model "$SMOKE_MODEL" -addr 127.0.0.1:0 -fault-disc-bytes 2000000 > "$TERM_LOG" 2>&1 &
TERM_PID=$!
TERM_ADDR="$(serving_addr "$TERM_LOG" "runner smoke: server")"
go run scripts/e2e_client.go -addr "$TERM_ADDR" -model "$SMOKE_MODEL" -jobs 8 -runner
kill -TERM "$TERM_PID"
wait "$TERM_PID" || {
    echo "runner smoke: server did not exit cleanly:" >&2
    cat "$TERM_LOG" >&2
    exit 1
}
TERM_PID=""

echo "== benchmarks compile and run once"
# Quiet when green; a benchmark that b.Fatals must not end the script
# under set -e with its reason thrown away.
BENCH_LOG="$(mktemp)"
go test -run NONE -bench . -benchtime 1x ./... > "$BENCH_LOG" 2>&1 || {
    cat "$BENCH_LOG" >&2
    rm -f "$BENCH_LOG"
    exit 1
}
rm -f "$BENCH_LOG"

echo "== bench gate (within-run ratios; appends to BENCH_history.jsonl)"
go run ./cmd/benchgate

echo "OK"
