#!/bin/sh
# CI entry point: build the default configuration, an optimized Release
# configuration (-O2 with assertions kept), and the sanitized
# configurations (OPAC_SANITIZE=ON: ASan + UBSan; OPAC_SANITIZE=thread:
# TSan, which exercises the parallel sweep runner) and run the test
# suite under each. Usage: ci/build_and_test.sh [build-root]
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build_root=${1:-"$root/build-ci"}
jobs=$(nproc 2>/dev/null || echo 4)

run_config() {
    name=$1
    shift
    dir="$build_root/$name"
    echo "=== configure $name ($*) ==="
    cmake -B "$dir" -S "$root" "$@"
    echo "=== build $name ==="
    cmake --build "$dir" -j "$jobs"
    echo "=== test $name ==="
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

run_config plain -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Release keeps assertions: the machine-model invariants they check are
# exactly what an optimized build could silently break.
run_config release -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2"
run_config sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOPAC_SANITIZE=ON
run_config tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOPAC_SANITIZE=thread

# Smoke-test the tracing pipeline end to end: a traced bench run must
# produce a Chrome trace that trace_report accepts.
echo "=== trace smoke test ==="
plain="$build_root/plain"
(cd "$plain" && ./bench/kernels_throughput --trace=trace_smoke.json \
    --stats=stats_smoke.json > /dev/null)
"$plain/tools/trace_report" "$plain/trace_smoke.json" > /dev/null
# A traced run ticks every round in either engine mode, so the skip
# run's trace must be the spin run's, byte for byte.
(cd "$plain" && ./bench/kernels_throughput --engine=spin \
    --trace=trace_smoke_spin.json --stats=stats_smoke_spin.json \
    > /dev/null)
cmp "$plain/trace_smoke.json" "$plain/trace_smoke_spin.json"
echo "trace smoke test OK"

# Concurrency under TSan. Each simulation runs on one thread; the
# concurrency lives around it: the sweep runner fans independent
# Coprocessor instances across a thread pool, and the job server runs
# one engine per shard on real worker threads plus the submit/deliver
# locking. Rerun both surfaces under the race detector. (The tsan
# ctest pass above already ran the suites once; this leg pins the
# intent so a test-regex change cannot silently drop it.)
echo "=== concurrency (TSan) ==="
tsan="$build_root/tsan"
(cd "$tsan" && ctest -R test_engine_parallel --output-on-failure)
(cd "$tsan" && ./bench/table_6_1 --quick --jobs=4 > /dev/null)
(cd "$tsan" && ctest -R test_serve --output-on-failure)
(cd "$tsan" && ./bench/serve_load --smoke > /dev/null)
# The engine has exactly two run loops; a removed mode must be a
# usage error (exit 2), not a silent fallback.
status=0
(cd "$tsan" && ./bench/table_6_2 --rows 32 --cols 32 --engine=event \
    > /dev/null 2>&1) || status=$?
if [ "$status" -ne 2 ]; then
    echo "table_6_2 --engine=event exited $status, want 2" >&2
    exit 1
fi
echo "concurrency TSan OK"

# Fault matrix: soak the recovery stack under the sanitizers. A
# flip/hang/mem fault plan over a full table run must complete (parity
# corrects the flips, transient hangs resolve, memory spikes only
# delay — no recovery transactions needed), and the fault-sweep smoke
# exercises the whole timeout/retry/replay/dead-cell path.
echo "=== fault matrix (sanitized) ==="
sanitize="$build_root/sanitize"
(cd "$sanitize" && ./bench/table_6_1 --quick \
    --faults=seed=11,rate=60,horizon=400000,kinds=flip+hang+mem,bits=1 \
    --parity=correct > /dev/null)
(cd "$sanitize" && ./bench/fault_sweep --smoke > /dev/null)
# The serve_load smoke grid keeps a faulted case and a shard-kill
# case, so the shard worker/failover path soaks under ASan/UBSan too.
(cd "$sanitize" && ./bench/serve_load --smoke > /dev/null)
echo "fault matrix OK"

# Snapshot & resume (sanitized): pause the representative table_6_1
# case at a fixed cycle, write a checkpoint, validate it, and resume
# it — under ASan/UBSan so the whole save/load path soaks. The golden
# byte-identity matrix itself (both engine modes x fast tier, serve
# crash/restart exactly-once) is tests/test_snapshot, which every
# ctest pass above already ran; this leg pins the bench-flag wiring
# and keeps a snapshot in the CI artifacts.
echo "=== snapshot & resume (sanitized) ==="
artifacts="$build_root/artifacts"
mkdir -p "$artifacts"
(cd "$sanitize" && ctest -R test_snapshot --output-on-failure)
(cd "$sanitize" && ./bench/table_6_1 --quick \
    --snapshot-at=5000 --snapshot-file=ci_resume.snap > /dev/null)
"$sanitize/tools/snapshot_inspect" --check "$sanitize/ci_resume.snap"
(cd "$sanitize" && ./bench/table_6_1 --quick \
    --resume-from=ci_resume.snap > /dev/null)
cp "$sanitize/ci_resume.snap" "$artifacts/table_6_1_resume.snap"
# Crash and resume every serve_load smoke case over a checkpoint
# directory: the restarted server restores each shard from its last
# checkpoint (rebuilding the microcode store and dropping its cached
# kernel images) and must still deliver every job correctly. A stale
# directory would replay another run's journal, so start clean.
rm -rf "$sanitize/ci_serve_ckpt"
(cd "$sanitize" && ./bench/serve_load --smoke \
    --checkpoint-dir=ci_serve_ckpt --crash-after=4 > /dev/null)
cases=$(grep -o '"correct": [0-9.]*' "$sanitize/BENCH_serve_load.json" \
    | wc -l)
good=$(grep -o '"correct": 1\.0*[,}]' "$sanitize/BENCH_serve_load.json" \
    | wc -l)
if [ "$cases" -eq 0 ] || [ "$good" -ne "$cases" ]; then
    echo "serve_load crash/resume: $good of $cases cases correct" >&2
    exit 1
fi
# Damaged snapshots must be rejected up front by the checksum — a
# truncated copy and a bit-flipped copy must both fail --check with
# the tool's clean "bad file" exit (1), not a parse error or crash.
head -c 100 "$sanitize/ci_resume.snap" > "$sanitize/ci_trunc.snap"
cp "$sanitize/ci_resume.snap" "$sanitize/ci_flip.snap"
b=$(od -An -tu1 -j200 -N1 "$sanitize/ci_flip.snap" | tr -d ' ')
printf "\\$(printf '%03o' $(( (b + 128) % 256 )))" \
    | dd of="$sanitize/ci_flip.snap" bs=1 seek=200 conv=notrunc \
        2>/dev/null
for bad in ci_trunc.snap ci_flip.snap; do
    status=0
    "$sanitize/tools/snapshot_inspect" --check "$sanitize/$bad" \
        >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "corrupt snapshot $bad not rejected (exit $status)" >&2
        exit 1
    fi
done
echo "snapshot & resume OK"

# Bench regression gate: rerun the gated benches and compare their
# BENCH_*.json against the committed baselines. The simulator is
# cycle-deterministic, so any delta is a real machine-model change; a
# deliberate one updates bench/baselines/ in the same PR.
echo "=== bench regression gate ==="
OPAC_GIT_SHA=$(git -C "$root" rev-parse --short HEAD 2>/dev/null \
    || echo ci)
export OPAC_GIT_SHA
(cd "$plain" && ./bench/table_6_1 --quick > /dev/null)
(cd "$plain" && ./bench/table_6_2 --rows 256 --cols 256 > /dev/null)
(cd "$plain" && ./bench/table_6_3 --quick > /dev/null)
(cd "$plain" && ./bench/fault_sweep > /dev/null)
# The gated serve_load run doubles as the observability artifact
# source: dump the shard-kill case's metrics, spans, span trace,
# prometheus exposition and flight-recorder postmortems.
(cd "$plain" && mkdir -p obs/flight \
    && ./bench/serve_load --metrics=obs/serve_metrics.json \
        --spans=obs/serve_spans.json \
        --span-trace=obs/serve_span_trace.json \
        --prom=obs/serve_metrics.prom \
        --flight-dir=obs/flight > /dev/null)
# The two streaming tables also gate sim_rate, with a deliberately
# generous -30% floor: cycle counts catch model regressions, this
# catches simulator-speed ones (a fast-tier guard accidentally
# disabled, a hot path deoptimized) while staying far above shared-
# runner noise. The other benches, the paper's LU table among them,
# stay cycle-only.
for bench in kernels_throughput table_6_1 table_6_2 table_6_3 \
    fault_sweep serve_load; do
    gate=""
    case "$bench" in
      table_6_1|table_6_2) gate="--gate-sim-rate=30" ;;
    esac
    # shellcheck disable=SC2086
    "$plain/tools/bench_diff" $gate \
        "$root/bench/baselines/BENCH_$bench.json" \
        "$plain/BENCH_$bench.json"
done
echo "bench regression gate OK"

# Observability smoke: the artifacts the serve_load gate just dumped
# must validate against the documented schemas
# (docs/OBSERVABILITY.md) and render the full SLO report; the span
# rendering must be a Chrome trace that trace_report accepts. The
# shard-kill case dies mid-traffic, so a flight-recorder postmortem
# must exist.
echo "=== serve_report smoke test ==="
"$plain/tools/serve_report" --check-schema \
    "$plain/obs/serve_metrics.json" "$plain/obs/serve_spans.json"
"$plain/tools/serve_report" "$plain/obs/serve_metrics.json" \
    "$plain/obs/serve_spans.json" > /dev/null
"$plain/tools/trace_report" "$plain/obs/serve_span_trace.json" \
    > /dev/null
ls "$plain"/obs/flight/flight_*.json > /dev/null
echo "serve_report smoke test OK"

# The benchmark's self-test: a reduced pass of every perfbench
# workload, untraced and traced, must print exactly the metrics
# BENCHMARK.json names. A change to an accessor perfbench reads
# (Engine::bursts(), Cell::fastTierStats(), ...) fails here, not first
# when the benchmark runs. It builds its own RelWithDebInfo + LTO tree
# under .bench_build/.
echo "=== perfbench self-test ==="
python3 "$root/perfbench/test_perfbench.py"
echo "perfbench self-test OK"

# Perf smoke (Release): record sim_rate (simulated cycles per wall
# second) for the streaming benches, plus the micro_sim per-layer
# rates, so the uploaded artifacts carry a cycles-per-wall-second
# trend next to the cycle counts. table_6_2, table_6_1 --quick,
# table_6_3 --quick and fault_sweep each run twice — fast tier off,
# then on — and both BENCH jsons land in the artifacts dir, so every
# CI run documents the tier's measured speedup on this runner. The
# cycle and flop counts in the two files must be identical (only
# sim_rate may differ): bench_diff --threshold=0 gates exactly that.
# table_6_3's short LU kernel calls open and close windows
# constantly; fault_sweep's parity-off rows clamp windows at every
# injected fault, and its recovery rows, which open none, check
# that refusal. sim_rate itself is not gated here — the
# regression-gate leg above already soft-gates it against the
# committed baselines.
echo "=== perf smoke (Release) ==="
release="$build_root/release"
artifacts="$build_root/artifacts"
mkdir -p "$artifacts"
for bench in table_6_2 table_6_1 table_6_3 fault_sweep; do
    case "$bench" in
      table_6_2) args="--rows 256 --cols 256" ;;
      table_6_1|table_6_3) args="--quick" ;;
      *) args="" ;;
    esac
    for tier in off on; do
        # shellcheck disable=SC2086
        (cd "$release" && ./bench/$bench $args --fast-tier=$tier \
            > /dev/null)
        cp "$release/BENCH_$bench.json" \
            "$artifacts/BENCH_${bench}_fast_tier_$tier.json"
    done
    "$release/tools/bench_diff" --threshold=0 \
        "$artifacts/BENCH_${bench}_fast_tier_off.json" \
        "$artifacts/BENCH_${bench}_fast_tier_on.json"
done
(cd "$release" && ./bench/kernels_throughput > /dev/null)
# Per-layer rates: soft-float add, mul, fused multiply-add and div
# over seeded operands; FIFO push+pop under each parity mode; the cell
# tick streaming an fma loop, streaming with out-of-order
# writebacks and stalled on an empty queue; sixteen host-paced cells
# streaming in cell-local windows; and snapshot save
# (takeSnapshot().encode()) throughput. Recorded, not gated.
"$release/bench/micro_sim" \
    --benchmark_filter='BM_Softfloat|BM_FifoPushPop|BM_CellInnerLoop|BM_CellMixedWriteback|BM_CellStallTick|BM_HostPacedCells|BM_CheckpointEncode' \
    --benchmark_out="$artifacts/micro_sim.json" \
    --benchmark_out_format=json > /dev/null
echo "perf smoke OK"
