#!/usr/bin/env sh
# Benchmark sweep: runs the engine kernel benchmarks and the runtime
# pipeline benchmarks, then writes the parsed results as
# BENCH_runtime.json at the repo root. BENCHTIME overrides the
# per-benchmark budget (default 1x: one measured iteration each, so
# the sweep stays fast; use e.g. BENCHTIME=2s for stable numbers).
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
OUT="BENCH_runtime.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench (engine x3, runtime, core, flowshop; benchtime=$BENCHTIME)"
# The engine package runs -count=3 and the parser keeps the per-name
# minimum: on a shared box, scheduler/neighbor noise is strictly
# additive, so the min is the least-contended measurement and the only
# one stable enough for benchgate's absolute comparison. (Not piped
# through tee: a `cmd | tee` pipeline under plain sh reports tee's
# exit status and would mask a failed benchmark run.)
go test -run NONE -bench . -benchmem -benchtime "$BENCHTIME" -count=3 \
    ./internal/engine/ > "$RAW"
go test -run NONE -bench . -benchmem -benchtime "$BENCHTIME" \
    ./internal/runtime/ ./internal/core/ ./internal/flowshop/ >> "$RAW"
cat "$RAW"

# Parse `BenchmarkName  N  ns/op [B/op allocs/op ...]` lines into JSON,
# collapsing repeated names (from -count) to the min-ns line. On a
# multi-CPU host go test appends -GOMAXPROCS to every name; the rows are
# keyed without it so the file reads the same from any host.
awk '
/^Benchmark/ {
    sub(/-[0-9]+$/, "", $1)
    if (!($1 in best)) order[++cnt] = $1
    if (!($1 in best) || $3 + 0 < bestns[$1] + 0) {
        bestns[$1] = $3
        best[$1] = $0
    }
}
END {
    print "["
    for (o = 1; o <= cnt; o++) {
        nf = split(best[order[o]], f, /[ \t]+/)
        name = f[1]; iters = f[2]; ns = f[3]
        bytes = "null"; allocs = "null"; mbs = "null"
        nsinf = "null"; nsjob = "null"; gflops = "null"
        for (i = 4; i <= nf; i++) {
            if (f[i] == "B/op") bytes = f[i-1]
            if (f[i] == "allocs/op") allocs = f[i-1]
            if (f[i] == "MB/s") mbs = f[i-1]
            if (f[i] == "ns/inference") nsinf = f[i-1]
            if (f[i] == "ns/job") nsjob = f[i-1]
            # Kernel benches report MAC/ns; one MAC is two flops, and
            # MAC/ns = G(MAC)/s, so gflops = 2x the metric.
            if (f[i] == "MAC/ns") gflops = sprintf("%.1f", 2 * f[i-1])
        }
        if (o > 1) printf ",\n"
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"mb_per_s\": %s, \"gflops\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"ns_per_inference\": %s, \"ns_per_job\": %s}", \
            name, iters, ns, mbs, gflops, bytes, allocs, nsinf, nsjob
    }
    print "\n]"
}
' "$RAW" > "$OUT"

echo "wrote $OUT"
