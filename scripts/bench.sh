#!/bin/sh
# Run the benchmark suite and record the results so the performance
# trajectory is tracked PR over PR.
#
# Usage: scripts/bench.sh [go-test-bench-regex]
#
# Writes BENCH_topk.json (one JSON object per line: benchmark name,
# ns/op, custom metrics such as speedup-vs-P1/speedup-vs-seq, plus final
# machine-readable summary objects) and the raw text output
# BENCH_topk.txt in the repository root. The default pattern covers every
# benchmark, and the run fails if any guarded concurrency benchmark
# (BenchmarkShardedTA, BenchmarkShardedNRA, BenchmarkSharedScan,
# BenchmarkRemoteShards, BenchmarkCostAwareTA, BenchmarkAdaptiveSchedule)
# is missing from the output, so the perf trajectory always tracks both
# sharded modes, the shared-scan batch executor, the remote-backend stack
# (scheduler cancellation savings, cache hit rate, the tiered cache's
# scan-resistance win over a flat LRU, and the batched-remote latency
# saving), and the cost-adaptive planners (cost-aware TA's charged saving
# over plain TA and the EWMA schedule's saving on lying backends).
#
# Guarded comparison metrics run once per statistical seed (42, 123, 456
# — internal/traffic/stats.Seeds) inside the benchmarks themselves. Each
# metric is reported as a mean under its plain name (dashboard
# continuity) plus -min, -max and per-seed -s<seed> variants. The gates
# below check the -min/-max keys: a floor holds only if EVERY seed
# clears it, so a single contradicting seed fails the run (directional
# consistency, the BLIS-style standard) instead of hiding inside a
# favourable mean.
set -eu

cd "$(dirname "$0")/.."
pattern="${1:-.}"

# Documentation must stay navigable before the numbers matter.
sh scripts/docs-check.sh

# Invariants smoke: one TA pass with the runtime assertion layer compiled
# in, so a benchmark run can't post numbers from an algorithm state the
# assertions would reject.
go test -tags invariants -run TestTA -count=1 ./internal/core

# Capture to the file first and check go test's own exit status: in a
# `go test | tee` pipeline the shell reports tee's status, so a failing
# benchmark would otherwise ship a truncated BENCH_topk.json with exit 0.
go test -run '^$' -bench "$pattern" -benchmem . > BENCH_topk.txt 2>&1 || {
    status=$?
    cat BENCH_topk.txt
    echo "bench.sh: go test -bench failed with status $status" >&2
    exit "$status"
}
# Record the runner's core count with the numbers: no wall-clock speedup
# can exceed it.
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)
echo "runner: nproc=$cores" >> BENCH_topk.txt
cat BENCH_topk.txt

if [ "$pattern" = "." ]; then
    for required in BenchmarkShardedTA BenchmarkShardedNRA BenchmarkSharedScan BenchmarkRemoteShards BenchmarkCostAwareTA BenchmarkAdaptiveSchedule BenchmarkFallibleOverhead; do
        if ! grep -q "^$required" BENCH_topk.txt; then
            echo "bench.sh: expected $required in the benchmark output" >&2
            exit 1
        fi
    done

    # Columnar-engine floor: the sharded TA path must beat the sequential
    # TA baseline at P8 on EVERY statistical seed — the structural win of
    # batched sorted access, dense random-access columns and pooled
    # sources. Seed-matrix audit (2026-08, seeds 42/123/456 on the
    # single-core reference runner): the historical 2.0 floor was
    # contradicted by seed 456, whose best-of-three minimum ranged
    # 1.07–2.10 across runs while seeds 42/123 held 1.9–4.8; the guarded
    # floor is therefore the directional one — speedup-vs-seq-min >= 1.0,
    # no seed may be slower than the sequential baseline — with the mean
    # tracked for trajectory.
    awk '
    $1 ~ /^BenchmarkShardedTA\/P8/ {
        for (i = 3; i + 1 <= NF; i += 2) {
            if ($(i + 1) == "speedup-vs-seq") mean = $i
            if ($(i + 1) == "speedup-vs-seq-min") min = $i
        }
    }
    END {
        if (mean == "" || min == "") { print "bench.sh: BenchmarkShardedTA/P8 reported no multi-seed speedup-vs-seq" > "/dev/stderr"; exit 1 }
        if (min + 0 < 1.0) { printf "bench.sh: BenchmarkShardedTA/P8 speedup-vs-seq-min %s — a seed ran slower than sequential TA (mean %s)\n", min, mean > "/dev/stderr"; exit 1 }
    }
    ' BENCH_topk.txt

    # Robustness ceiling: the error-aware access path must collapse to
    # the infallible fast path on a fault-free stack — on every seed. A
    # seed's ratio is the median of armed/idle over interleaved rounds
    # (its spread is printed as fallible-overhead-iqr-s<seed>). A
    # fallible-overhead-max above 1.05 means some seed paid for the
    # failure machinery it does not use.
    awk '
    $1 ~ /^BenchmarkFallibleOverhead/ {
        for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "fallible-overhead-max") v = $i
    }
    END {
        if (v == "") { print "bench.sh: BenchmarkFallibleOverhead reported no fallible-overhead-max" > "/dev/stderr"; exit 1 }
        if (v + 0 > 1.05) { printf "bench.sh: fallible-overhead-max %s exceeds the 1.05 ceiling\n", v > "/dev/stderr"; exit 1 }
    }
    ' BENCH_topk.txt

    # Tiered-cache floors (deterministic, untimed metrics), all on the
    # worst seed: the TinyLFU-admitted tiered cache must beat the flat
    # LRU of the same page budget on hit rate (tiered-hit-margin-min > 0)
    # and save at least 1.1× charged cost on every seed, and the batched
    # round-trip remote must save at least 2.0× simulated latency over
    # per-entry draws on every seed. Dropping below a floor means the
    # admission filter or the batch latency model regressed.
    awk '
    $1 ~ /^BenchmarkRemoteShards/ {
        for (i = 3; i + 1 <= NF; i += 2) {
            if ($(i + 1) == "tiered-hit-margin-min") margin = $i
            if ($(i + 1) == "tiered-savings-min") sav = $i
            if ($(i + 1) == "batched-remote-savings-min") brs = $i
        }
    }
    END {
        if (margin == "" || sav == "" || brs == "") { print "bench.sh: BenchmarkRemoteShards reported no multi-seed tiered-cache metrics" > "/dev/stderr"; exit 1 }
        if (margin + 0 <= 0) { printf "bench.sh: tiered-hit-margin-min %s — a seed saw the tiered cache lose to the flat LRU\n", margin > "/dev/stderr"; exit 1 }
        if (sav + 0 < 1.1) { printf "bench.sh: tiered-savings-min %s is below the 1.1 floor\n", sav > "/dev/stderr"; exit 1 }
        if (brs + 0 < 2.0) { printf "bench.sh: batched-remote-savings-min %s is below the 2.0 floor\n", brs > "/dev/stderr"; exit 1 }
    }
    ' BENCH_topk.txt

    # Cost-adaptive significance: cost-aware TA's charged saving over
    # plain TA is deterministic, so hold it to the >20%-on-every-seed
    # significance bar rather than a bare direction check. Its progress
    # bookkeeping at the crawlers' k is a deterministic count too: at most
    # 10 bound recomputes per sorted access on every seed (refreshing every
    # top-k member on every report read about 90; the bound table's groups
    # read 7.3–8.0, and 10 is that maximum plus 25%).
    awk '
    $1 ~ /^BenchmarkCostAwareTA/ {
        for (i = 3; i + 1 <= NF; i += 2) {
            if ($(i + 1) == "ta-savings-min") v = $i
            if ($(i + 1) == "progress-recomputes-per-sorted-max") r = $i
        }
    }
    END {
        if (v == "") { print "bench.sh: BenchmarkCostAwareTA reported no ta-savings-min" > "/dev/stderr"; exit 1 }
        if (v + 0 < 1.2) { printf "bench.sh: ta-savings-min %s is below the 1.2 significance bar\n", v > "/dev/stderr"; exit 1 }
        if (r == "") { print "bench.sh: BenchmarkCostAwareTA reported no progress-recomputes-per-sorted-max" > "/dev/stderr"; exit 1 }
        if (r + 0 > 10) { printf "bench.sh: progress-recomputes-per-sorted-max %s exceeds the ceiling of 10\n", r > "/dev/stderr"; exit 1 }
    }
    ' BENCH_topk.txt

    # Lazy-engine bookkeeping: CA under min at cR/cS = 4 (uniform
    # N = 50 000, k = 10) is the bound table's hardest case, a deterministic
    # count: at most 4 bound recomputes per sorted access on every seed
    # (one candidate heap keyed by stale B read 150–200; groups ordered by
    # K read 3.1–3.2, and 4 is that maximum plus 25%).
    awk '
    $1 ~ /^BenchmarkE16NRABookkeeping\/CA-min/ {
        for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "ca-min-recomputes-per-sorted-max") v = $i
    }
    END {
        if (v == "") { print "bench.sh: BenchmarkE16NRABookkeeping/CA-min reported no ca-min-recomputes-per-sorted-max" > "/dev/stderr"; exit 1 }
        if (v + 0 > 4) { printf "bench.sh: ca-min-recomputes-per-sorted-max %s exceeds the ceiling of 4\n", v > "/dev/stderr"; exit 1 }
    }
    ' BENCH_topk.txt
fi

# Convert `BenchmarkName  N  123 ns/op  45 unit ...` lines to JSON.
awk '
/^Benchmark/ {
    printf "{\"benchmark\":\"%s\",\"iterations\":%s", $1, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        printf ",\"%s\":%s", unit, $i
    }
    print "}"
}
' BENCH_topk.txt > BENCH_topk.json

# Append one machine-readable summary object collecting the headline
# concurrency metrics (sequential-relative speedups — mean, min, max and
# per-seed — and the shared-scan sharing factor) so dashboards can read
# a single line instead of re-deriving them from the per-benchmark
# records.
awk '
/^Benchmark/ {
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) ~ /^(speedup-vs-seq|speedup-vs-P1)(-min|-max|-s[0-9]+)?$/ || $(i + 1) == "scan-sharing") {
            keys[++nk] = $1 ":" $(i + 1)
            vals[nk] = $i
        }
    }
}
END {
    printf "{\"summary\":\"concurrency-speedups\""
    for (i = 1; i <= nk; i++) printf ",\"%s\":%s", keys[i], vals[i]
    print "}"
}
' BENCH_topk.txt >> BENCH_topk.json

# Append the backend-stack summary: the remote-shard scheduler's charged
# costs and cancellation savings plus the page cache's hit rate, one
# machine-readable line.
awk '
/^Benchmark/ {
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "charged-wave" || unit == "charged-cost-aware" || unit == "cancel-savings" || unit == "cache-hit-rate") {
            keys[++nk] = $1 ":" unit
            vals[nk] = $i
        }
    }
}
END {
    printf "{\"summary\":\"backend-cache\""
    for (i = 1; i <= nk; i++) printf ",\"%s\":%s", keys[i], vals[i]
    print "}"
}
' BENCH_topk.txt >> BENCH_topk.json

# Append the cost-adaptive summary: cost-aware TA's charged saving over
# plain TA, its progress bookkeeping (bound recomputes per sorted access
# at k = 250), CA's bookkeeping under min (the same ratio) and the
# adaptive (EWMA) schedule's saving over declared-cost scheduling on the
# lying-backend fixture — each as mean/min/max plus the per-seed values
# behind them.
awk '
/^Benchmark/ {
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit ~ /^(charged-ta|charged-cost-aware-ta|ta-savings|ta-savings-r16|progress-recomputes-per-sorted|ca-min-recomputes-per-sorted|charged-declared|charged-adaptive|adaptive-savings)(-min|-max|-s[0-9]+)?$/) {
            keys[++nk] = $1 ":" unit
            vals[nk] = $i
        }
    }
}
END {
    printf "{\"summary\":\"cost-adaptive\""
    for (i = 1; i <= nk; i++) printf ",\"%s\":%s", keys[i], vals[i]
    print "}"
}
' BENCH_topk.txt >> BENCH_topk.json

# Append the columnar-engine summary: sharded TA's sequential-relative
# speedup and bytes allocated per query at every shard count, next to the
# pre-columnar (row-oriented, per-query-allocating) seed's B/op so the
# allocation reduction stays visible PR over PR.
awk '
$1 ~ /^BenchmarkShardedTA\/P/ {
    p = $1; sub(/^BenchmarkShardedTA\//, "", p); sub(/-[0-9]+$/, "", p)
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) ~ /^speedup-vs-seq(-min|-max|-s[0-9]+)?$/) { keys[++nk] = p ":" $(i + 1); vals[nk] = $i }
        if ($(i + 1) == "B/op") { keys[++nk] = p ":B/op"; vals[nk] = $i }
    }
}
END {
    printf "{\"summary\":\"columnar\""
    printf ",\"seed:P1:B/op\":5377986,\"seed:P2:B/op\":6144215,\"seed:P4:B/op\":6352352,\"seed:P8:B/op\":6719051"
    for (i = 1; i <= nk; i++) printf ",\"%s\":%s", keys[i], vals[i]
    print "}"
}
' BENCH_topk.txt >> BENCH_topk.json

# Append the tiered-cache summary: the scan-resistance comparison (flat
# LRU vs TinyLFU-admitted tiers on the same page budget, including the
# per-seed hit-rate margin), the Zipf-stream tier profile, and the
# batched-remote latency saving — each as mean/min/max plus per-seed
# values.
awk '
/^Benchmark/ {
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit ~ /^(lru-hit-rate|tiered-hit-rate|tiered-hit-margin|tiered-hot-hit-rate|tiered-cold-hit-rate|tiered-savings|batched-remote-savings|zipf-hit-rate|zipf-cold-hit-rate|zipf-charged)(-min|-max|-s[0-9]+)?$/) {
            keys[++nk] = $1 ":" unit
            vals[nk] = $i
        }
    }
}
END {
    printf "{\"summary\":\"tiered-cache\""
    for (i = 1; i <= nk; i++) printf ",\"%s\":%s", keys[i], vals[i]
    print "}"
}
' BENCH_topk.txt >> BENCH_topk.json

# Append the robustness summary: the fault-free cost of the error-aware
# access path (its per-seed max guarded at ≤ 1.05 above) and the
# per-access cost of an in-stack fault injector (informational —
# inherent to deterministic injection, paid only when Options.Fault is
# set), each as mean/min/max plus per-seed values and per-seed
# interquartile ranges of the round ratios.
awk '
/^Benchmark/ {
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit ~ /^(fallible-overhead|injector-overhead)(-min|-max|-s[0-9]+|-iqr-s[0-9]+)?$/) {
            keys[++nk] = $1 ":" unit
            vals[nk] = $i
        }
    }
}
END {
    printf "{\"summary\":\"robustness\""
    for (i = 1; i <= nk; i++) printf ",\"%s\":%s", keys[i], vals[i]
    print "}"
}
' BENCH_topk.txt >> BENCH_topk.json

printf '{"summary":"runner","nproc":%s}\n' "$cores" >> BENCH_topk.json

echo "wrote BENCH_topk.txt and BENCH_topk.json" >&2
