#!/usr/bin/env sh
# Bench regression gate: re-runs the long-running whole-model Forward
# benchmarks and compares them against the committed BENCH_runtime.json
# baseline. A benchmark that got >25% slower than its recorded ns/op
# (min over -count=3 on both sides) fails the gate; one that got >15%
# faster prints a reminder to refresh the baseline (scripts/bench.sh)
# but does not fail. Only benchmarks with a baseline >= 50ms/op are
# timed-gated — short benchmarks are too noisy for a single-digit
# iteration count — and an allocs/op increase on a gated benchmark
# fails regardless (exact for lean benches, 1% slack above 100).
#
# BENCHGATE=off skips the gate (e.g. on loaded shared machines).
set -eu
cd "$(dirname "$0")/.."

if [ "${BENCHGATE:-on}" = "off" ]; then
    echo "benchgate: skipped (BENCHGATE=off)"
    exit 0
fi
if [ ! -f BENCH_runtime.json ]; then
    echo "benchgate: no BENCH_runtime.json baseline; run scripts/bench.sh" >&2
    exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# Three measured iterations per benchmark, and the compute-bound
# engine benchmarks additionally at -count=3: every gate below takes
# the per-name *minimum* across repetitions, because noise on a shared
# box is strictly additive — the min is the least-contended
# measurement, and single-shot comparisons swing +-25% here. (bench.sh
# records the baseline with the same min-of-3 methodology. Not piped
# through tee: `cmd | tee` under plain sh masks the benchmark's exit.)
go test -run NONE -bench 'Forward|SgemmCrossover' -benchmem -benchtime 3x -count=3 ./internal/engine/ > "$RAW"
go test -run NONE -bench 'FleetServer|RunnerAdaptive' -benchmem -benchtime 3x ./internal/runtime/ >> "$RAW"
go test -run NONE -bench 'ChainPlanning|ScheduleM' -benchmem -benchtime 3x ./internal/core/ ./internal/flowshop/ >> "$RAW"
cat "$RAW"

awk '
# Pass 1 (baseline JSON, one object per line as bench.sh writes it).
FNR == NR {
    if (match($0, /"name": "[^"]+"/)) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"ns_per_op": [0-9.e+]+/))
            base_ns[name] = substr($0, RSTART + 13, RLENGTH - 13)
        if (match($0, /"allocs_per_op": [0-9]+/))
            base_allocs[name] = substr($0, RSTART + 16, RLENGTH - 16)
    }
    next
}
# Pass 2 (fresh `go test -bench` output). Collapse -count repetitions
# to the per-name min before comparing. RunnerAdaptive is exempt from
# the absolute gate: its wall time is mostly calibrated simulated-link
# sleeps, which swing with the host load present at calibration — the
# adaptive/static ratio stanza below is its gate.
/^BenchmarkRunnerAdaptive/ { next }
/^Benchmark/ {
    sub(/-[0-9]+$/, "", $1) # the -GOMAXPROCS suffix of go test; the baseline has none
    if (!($1 in seen)) order[++cnt] = $1
    if (!($1 in seen) || $3 + 0 < min_ns[$1] + 0) {
        min_ns[$1] = $3
        for (i = 4; i <= NF; i++)
            if ($(i) == "allocs/op") min_allocs[$1] = $(i-1)
    }
    seen[$1] = 1
}
END {
    for (o = 1; o <= cnt; o++) {
        name = order[o]; ns = min_ns[name] + 0
        if (!(name in base_ns)) {
            printf "benchgate: %s has no baseline (new benchmark; refresh with scripts/bench.sh)\n", name
            continue
        }
        bn = base_ns[name] + 0
        if (bn >= 5e7) { # shorter runs are too noisy to time-gate
            # 1.25x: even with min-of-3 on both sides, the shared box
            # drifts between fast and slow epochs lasting minutes, and
            # ~1.17x swings on healthy code were observed across
            # epochs. Real kernel regressions cost well above 1.25x.
            ratio = ns / bn
            if (ratio > 1.25) {
                printf "benchgate: FAIL %s: %.0f ns/op vs baseline %.0f (%.2fx, > 1.25x)\n", name, ns, bn, ratio
                bad = 1
            } else if (ratio < 0.85) {
                printf "benchgate: %s improved to %.0f ns/op vs baseline %.0f (%.2fx); refresh BENCH_runtime.json\n", name, ns, bn, ratio
            } else {
                printf "benchgate: ok %s (%.2fx of baseline)\n", name, ratio
            }
        }
        # Allocs gate: exact for lean benches (a warm Forward at 5-8
        # allocs must not gain even one), 1% slack above 100 — the
        # concurrent server benches (FleetServer ~1030 allocs) jitter
        # by a handful with goroutine interleaving, while a real leak
        # scales with jobs and blows past 1%.
        if ((name in min_allocs) && (name in base_allocs)) {
            ba = base_allocs[name] + 0
            slack = ba > 100 ? ba * 0.01 : 0
            if (min_allocs[name] + 0 > ba + slack) {
                printf "benchgate: FAIL %s: %s allocs/op vs baseline %s\n", name, min_allocs[name], base_allocs[name]
                bad = 1
            }
        }
    }
    exit bad
}
' BENCH_runtime.json "$RAW"

# Fleet gate: cross-connection batching must beat (or at worst match)
# per-job solo dispatch on its home workload. The ratio is measured
# within one run on one host, so it holds on any machine speed —
# unlike the absolute ns/op gate above. Measured ~0.75x on the
# reference box; > 1.10x means the coalescer is losing outright.
awk '
/^BenchmarkFleetServer\/solo/    { for (i = 1; i <= NF; i++) if ($(i) == "ns/job") solo = $(i-1) }
/^BenchmarkFleetServer\/batched/ { for (i = 1; i <= NF; i++) if ($(i) == "ns/job") batched = $(i-1) }
END {
    if (solo == "" || batched == "") {
        print "benchgate: FAIL FleetServer ns/job missing from bench output"
        exit 1
    }
    r = batched / solo
    if (r > 1.10) {
        printf "benchgate: FAIL FleetServer batched %.0f ns/job vs solo %.0f (%.2fx > 1.10x)\n", batched, solo, r
        exit 1
    }
    printf "benchgate: ok FleetServer batched/solo = %.2fx\n", r
}
' "$RAW"

# Adaptive-overhead gate: on a healthy link the online estimator
# (per-upload sample fold + between-windows divergence check) must be
# free against the pipeline — no change point fires, so the adaptive
# runner does the same work as the static one plus bookkeeping.
# Within-run ratio, host-independent like the Fleet gate above.
awk '
/^BenchmarkRunnerAdaptive\/static/   { for (i = 1; i <= NF; i++) if ($(i) == "ns/job") static = $(i-1) }
/^BenchmarkRunnerAdaptive\/adaptive/ { for (i = 1; i <= NF; i++) if ($(i) == "ns/job") adaptive = $(i-1) }
END {
    if (static == "" || adaptive == "") {
        print "benchgate: FAIL RunnerAdaptive ns/job missing from bench output"
        exit 1
    }
    r = adaptive / static
    if (r > 1.15) {
        printf "benchgate: FAIL RunnerAdaptive adaptive %.0f ns/job vs static %.0f (%.2fx > 1.15x)\n", adaptive, static, r
        exit 1
    }
    printf "benchgate: ok RunnerAdaptive adaptive/static = %.2fx\n", r
}
' "$RAW"

# Asm-tile gate: within one run, the FMA assembly tile must beat the
# streaming panel loop by a wide margin at every gated width — asm/panel
# ns ratio <= 0.9x at n >= 128 (measured ~0.11-0.14x on the reference
# box). The auto policy has no threshold past the tile guard (preferAsm
# in gemm_asm.go); this ratio is what licenses that. On hosts without
# AVX2+FMA (or under DNNJPS_NOASM) the asm legs don't run and the gate
# skips cleanly — the bit-identical fallback has nothing to prove here.
awk '
/^BenchmarkSgemmCrossover\/panel\/n=/ {
    split($1, p, "/"); sub(/-[0-9]+$/, "", p[3])
    if (!(p[3] in panel) || $3 + 0 < panel[p[3]] + 0) panel[p[3]] = $3
}
/^BenchmarkSgemmCrossover\/asm\/n=/ {
    split($1, p, "/"); sub(/-[0-9]+$/, "", p[3])
    if (!(p[3] in asm) || $3 + 0 < asm[p[3]] + 0) asm[p[3]] = $3
    seen = 1
}
END {
    if (!seen) {
        print "benchgate: SgemmCrossover asm legs absent (no AVX2+FMA); skipping asm-tile gate"
        exit 0
    }
    for (n in asm) {
        width = n; sub(/^n=/, "", width)
        if (width + 0 < 128 || !(n in panel)) continue
        gated = 1
        r = asm[n] / panel[n]
        if (r > 0.9) {
            printf "benchgate: FAIL SgemmCrossover %s: asm %.0f ns/op vs panel %.0f (%.2fx > 0.9x)\n", n, asm[n], panel[n], r
            bad = 1
        } else {
            printf "benchgate: ok SgemmCrossover %s asm/panel = %.2fx\n", n, r
        }
    }
    if (!gated) {
        print "benchgate: FAIL SgemmCrossover asm legs present but no gated width (n >= 128) ran"
        exit 1
    }
    exit bad
}
' "$RAW"

# Batched-amortization gate: filling a batch must amortize packing and
# pricing across images — per-inference time at N=32 must be <= 0.6x of
# N=1 on both batched suffixes (measured ~0.13x on the dense head,
# ~0.45x on the conv suffix). Within-run ratio, host-independent.
awk '
/^BenchmarkBatchedForward\/N=(1|32)\// {
    split($1, p, "/"); sub(/-[0-9]+$/, "", p[3])
    for (i = 1; i <= NF; i++) if ($(i) == "ns/inference") {
        if (p[2] == "N=1") {
            if (!(p[3] in solo) || $(i-1) + 0 < solo[p[3]] + 0) solo[p[3]] = $(i-1)
        } else if (!(p[3] in batched) || $(i-1) + 0 < batched[p[3]] + 0) {
            batched[p[3]] = $(i-1)
        }
    }
}
END {
    for (tag in batched) {
        if (!(tag in solo)) continue
        gated = 1
        r = batched[tag] / solo[tag]
        if (r > 0.6) {
            printf "benchgate: FAIL BatchedForward %s: N=32 %.0f ns/inference vs N=1 %.0f (%.2fx > 0.6x)\n", tag, batched[tag], solo[tag], r
            bad = 1
        } else {
            printf "benchgate: ok BatchedForward %s N=32/N=1 = %.2fx\n", tag, r
        }
    }
    if (!gated) {
        print "benchgate: FAIL BatchedForward N=1/N=32 ns/inference pairs missing from bench output"
        exit 1
    }
    exit bad
}
' "$RAW"
