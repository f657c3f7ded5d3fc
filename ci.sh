#!/usr/bin/env bash
# CI for rtk: the tier-1 verify plus sanitizer and optimized legs.
#
#   pass 1  default build       — full library + tests + benches + examples,
#                                 whole GoogleTest suite via ctest, then
#                                 every example binary (example_evolving_
#                                 graph exits 1 if answers served after
#                                 ApplyUpdates differ from a fresh build)
#   pass 2  ThreadSanitizer     — library + tests only, runs the concurrency
#                                 suites (serving_test: inter-query;
#                                 request_scheduler_test: async submit /
#                                 admission / deadline-cancel paths;
#                                 pipeline_test: intra-query stage fan-out;
#                                 proximity_backend_test: backend
#                                 equivalence/superset guarantees + MC
#                                 determinism under parallel fan-out;
#                                 obs_test: counter / histogram / trace
#                                 ring hammering with exact-total
#                                 assertions;
#                                 spmm_test: fused SpMM kernels and
#                                 fused PMPN and forward lanes bitwise
#                                 equal to in-test scalar references at
#                                 every width 1..32, batched-serving
#                                 byte-identity at every batch width
#                                 and thread count;
#                                 storage_tier_test: heap-vs-mmap result
#                                 identity + concurrent cold faults over
#                                 one shared mmap source;
#                                 mutation_serving_test: live ApplyUpdates
#                                 mutation drains racing queries and
#                                 refinement write-back, with fresh-build
#                                 equivalence asserted after every publish;
#                                 adaptive_test: partial-escalation byte-
#                                 identity at every thread count + AIMD
#                                 budget-controller feedback under serving;
#                                 refinement_test: the fused 32-lane exact
#                                 fallback solve on the pool at 1/2/8
#                                 threads, equal to single-source solves)
#                                 race-detection-clean
#   pass 3  ASan+UBSan          — library + tests only, runs the storage-
#                                 heavy subset (index/serving/pipeline/
#                                 proximity-backend/fault-injection/
#                                 storage-tier/mutation-serving/adaptive/
#                                 refinement) plus dynamic_test (the CSR
#                                 row splice of ApplyEdgeUpdates is all
#                                 offset arithmetic, checked against a
#                                 GraphBuilder rebuild) and graph_test
#                                 (the BuildInCsr / InWeights offset
#                                 arithmetic) so shard lifetime bugs,
#                                 buffer overruns in the v2/v3 I/O paths,
#                                 the splice and the in-CSR, and UB
#                                 surface as hard
#                                 failures; float-cast-overflow is added
#                                 explicitly (GCC's -fsanitize=undefined
#                                 leaves it out), so an out-of-range
#                                 float-to-integer cast fails too
#   pass 4  Release (-O3 -DNDEBUG) — optimized build; smoke-runs the fig5
#                                 query-time bench (with --json, validating
#                                 the machine-readable output) and the
#                                 serving throughput bench — its embedded
#                                 metrics must export exactly the
#                                 rtk_serving_* names README's catalog
#                                 lists — whose JSON now
#                                 includes the overload sweep (latency
#                                 percentiles + shed counts), the CoW
#                                 publish-cost sweep (count-gated: a
#                                 privatized shard copies at most its
#                                 rows' top-K and residue arrays plus
#                                 one BCA-state pointer per row), the
#                                 batch-former
#                                 occupancy block, and the mixed
#                                 read/write mutation sweep (gated: p95
#                                 read latency under a background
#                                 ApplyUpdates stream <= 2x the read-only
#                                 p95 on the same graph) — plus the
#                                 dynamic-updates bench JSON (incremental
#                                 maintenance vs rebuild, schema-checked,
#                                 small batches must win) and the micro-SpMM
#                                 smoke, which fails CI if the fused B=8
#                                 kernel drops below 1.5x the solo SpMV
#                                 edge rate, the 16-lane fused PMPN
#                                 solver drops below 2.4x the 16 solo
#                                 solves on rmat-web-l, or the 16-hub
#                                 fused forward solver drops below 1.75x
#                                 its 16 solo solves there — so perf
#                                 regressions
#                                 fail loudly rather than rot; plus the index
#                                 cold-open gate (mmap open must stay
#                                 <= 10% of a heap full-load) and the
#                                 ulimit-capped larger-than-RAM serving
#                                 smoke (100 read-only queries through
#                                 the mmap tier under 96 MiB of
#                                 anonymous memory — the heap tier must
#                                 NOT fit under the same cap), the
#                                 packed-payload count gate on that
#                                 smoke index (BCA states and P_H at 12
#                                 bytes per entry plus fixed per-state
#                                 and per-hub overhead), the lane-kernel
#                                 alignment check (nm: every GatherKernel,
#                                 EpilogueKernel, ForwardScaleKernel and
#                                 ForwardGatherKernel instantiation and
#                                 every BcaRunner method on a 64-byte
#                                 boundary) — and the
#                                 approx-mode adaptive sweep (partial
#                                 escalation byte-identical AND no slower
#                                 than full escalation; the AIMD budget
#                                 controller at most the fixed-budget
#                                 arm's escalations and settle pushes)
#                                 — and the serving benchmark
#                                 (servebench/, its own Release build of
#                                 this checkout): its self-test (harness
#                                 tests + every BENCHMARK.json metric
#                                 reported with its unit) and a 2 s
#                                 traced hits-batched run, which fails on
#                                 a wrong answer or a missing metric and
#                                 whose replay builds its backend from the
#                                 "batched-pmpn" alias
#
# Usage: ./ci.sh [jobs]   (jobs defaults to nproc)

set -euo pipefail
cd "$(dirname "$0")"
JOBS="${1:-$(nproc)}"

echo "=== pass 1: default build + full test suite ==="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# The examples drive the public surface end to end; any non-zero exit
# fails CI.
for example in build/example_*; do
  [[ -f "$example" && -x "$example" ]] || continue
  echo "--- $example"
  "$example" > /dev/null
done

echo "=== pass 2: TSan build + concurrency suites ==="
cmake -B build-tsan -S . -DRTK_SANITIZE=thread \
      -DRTK_BUILD_BENCHES=OFF -DRTK_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$JOBS" \
      --target serving_test request_scheduler_test pipeline_test \
               proximity_backend_test obs_test spmm_test storage_tier_test \
               mutation_serving_test adaptive_test refinement_test
# halt_on_error: any report fails CI instead of just logging.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/serving_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/request_scheduler_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/pipeline_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/proximity_backend_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/obs_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/spmm_test
# storage_tier_test: concurrent cold faults / lazy verify / hub-store
# materialization over one shared mmap source.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/storage_tier_test
# mutation_serving_test: ApplyUpdates drains racing queries, refinement
# publishes, and each other — graph-version pinning and the stale-
# refinement drop are exactly the code TSan must see interleaved.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/mutation_serving_test
# adaptive_test: partial escalation's parallel targeted settles must stay
# byte-identical to full escalation at 1/2/8 threads, and the budget
# controller's mutex-guarded feedback path runs under real serving traffic.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/adaptive_test
# refinement_test: a query's exact fallbacks are solved together as one
# fused forward solve that fans out on the pool at 1, 2 and 8 threads.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/refinement_test

echo "=== pass 3: ASan+UBSan build + storage suites ==="
cmake -B build-asan -S . -DRTK_SANITIZE=address,undefined,float-cast-overflow \
      -DRTK_BUILD_BENCHES=OFF -DRTK_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$JOBS" \
      --target index_test fault_injection_test serving_test \
               request_scheduler_test pipeline_test proximity_backend_test \
               obs_test spmm_test storage_tier_test mutation_serving_test \
               adaptive_test dynamic_test refinement_test graph_test
# halt_on_error: any report fails CI instead of just logging.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/index_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/fault_injection_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/serving_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/request_scheduler_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/pipeline_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/proximity_backend_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/obs_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/spmm_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/storage_tier_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/mutation_serving_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/adaptive_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/dynamic_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/refinement_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/graph_test

echo "=== pass 4: Release build + bench smokes ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
      -DRTK_BUILD_TESTS=OFF -DRTK_BUILD_EXAMPLES=OFF
cmake --build build-release -j "$JOBS" \
      --target bench_fig5_query_time bench_serving_throughput bench_micro_spmm \
               bench_index_load bench_dynamic_updates bench_approx_mode rtk_cli
# Code placement gate: the library builds with -falign-functions=64, so
# every lane kernel instantiation (the SpMM gathers, the forward scale and
# gather, the PMPN epilogue, widths 1..32) and every BcaRunner method
# starts on a 64-byte boundary, and its timing follows its work and not
# where the linker put it. Checked on the linked CLI; .cold clones (the
# split-off unlikely paths) are exempt.
python3 - <<'PYEOF'
import re, subprocess
out = subprocess.run(['nm', '-C', 'build-release/rtk_cli'], check=True,
                     capture_output=True, text=True).stdout
kernels = {}
runner = {}
for line in out.splitlines():
    m = re.match(r'([0-9a-f]+) [tTwW] .*::(GatherKernel|EpilogueKernel|'
                 r'ForwardScaleKernel|ForwardGatherKernel)<(\d+)u>::Run\(', line)
    if m:
        kernels[(m.group(2), int(m.group(3)))] = int(m.group(1), 16)
    m = re.match(r'([0-9a-f]+) [tTwW] (rtk::BcaRunner::.*)$', line)
    if m and not m.group(2).endswith('[clone .cold]'):
        runner[m.group(2)] = int(m.group(1), 16)
assert len(kernels) == 4 * 32, 'found %d lane kernels, expected 128: %r' % (
    len(kernels), sorted(kernels)[:8])
bad = sorted('%s<%d> at %#x' % (k[0], k[1], a)
             for k, a in kernels.items() if a % 64)
assert not bad, 'lane kernels off a 64-byte boundary: %s' % ', '.join(bad)
print('lane kernels ok: all %d instantiations 64-byte aligned' % len(kernels))
assert len(runner) >= 10, 'found %d BcaRunner methods: %r' % (
    len(runner), sorted(runner))
bad = sorted('%s at %#x' % (name, a) for name, a in runner.items() if a % 64)
assert not bad, 'BcaRunner methods off a 64-byte boundary: %s' % ', '.join(bad)
print('BcaRunner ok: all %d methods 64-byte aligned' % len(runner))
PYEOF
RTK_BENCH_QUERIES=20 RTK_BENCH_SCALE=0.25 \
    ./build-release/bench_fig5_query_time --json build-release/BENCH_fig5.json
test -s build-release/BENCH_fig5.json
RTK_BENCH_QUERIES=50 RTK_BENCH_SCALE=0.25 \
    ./build-release/bench_serving_throughput --json build-release/BENCH_serving.json
test -s build-release/BENCH_serving.json
# The serving JSON must parse and must embed the engine's metrics snapshot
# (counters, gauges + latency histograms), so the observability surface
# can't silently fall out of the perf-trajectory artifacts.
python3 - <<'PYEOF'
import json, re
doc = json.load(open('build-release/BENCH_serving.json'))
metrics = doc['metrics']
assert 'rtk_serving_queries_total' in metrics, sorted(metrics)[:10]
assert 'rtk_serving_request_seconds' in metrics
hist = metrics['rtk_serving_request_seconds']
assert hist['count'] > 0 and 'p99_seconds' in hist and 'buckets' in hist
print('serving bench JSON ok: %d queries in the request histogram' % hist['count'])
# README's metric catalog and the exports list the same metrics: every
# exported rtk_serving_* name matches a catalog entry (first column of the
# table; {a,b} expands, <name>/<backend> stand for a backend name), and
# every catalog entry matches an exported name.
readme = open('README.md').read()
table = readme.split('Metric name catalog', 1)[1].split('\n\n', 2)[1]
backends = '(pmpn|monte_carlo|local_push|other)'
patterns = []
for row in table.splitlines()[2:]:
    for entry in re.findall(r'`([^`]+)`', row.split('|')[1]):
        alternatives = [entry]
        while any('{' in a for a in alternatives):
            expanded = []
            for a in alternatives:
                m = re.search(r'\{([^}]*)\}', a)
                if m is None:
                    expanded.append(a)
                    continue
                for choice in m.group(1).split(','):
                    expanded.append(a[:m.start()] + choice + a[m.end():])
            alternatives = expanded
        for a in alternatives:
            regex = re.sub(r'<(name|backend)>', backends,
                           re.escape('rtk_serving_' + a).replace(r'\<', '<')
                           .replace(r'\>', '>'))
            patterns.append((a, re.compile(regex + '$')))
exported = sorted(k for k in metrics if k.startswith('rtk_serving_'))
undocumented = [k for k in exported
                if not any(p.match(k) for _, p in patterns)]
unexported = [a for a, p in patterns if not any(p.match(k) for k in exported)]
assert not undocumented, 'exported but not in README catalog: %r' % undocumented
assert not unexported, 'in README catalog but not exported: %r' % unexported
print('metric catalog ok: %d exported names, %d catalog entries' %
      (len(exported), len(patterns)))
# Batch-former occupancy must ride along: the batching sweep ran, formed
# real multi-query batches, and attributed fused-solve wall time.
occ = doc['batch_occupancy']
assert occ['batches'] > 0, occ
assert occ['mean_batch'] > 1.0, occ
assert occ['peak_batch'] >= 2, occ
assert occ['fused_proximity_seconds'] > 0.0, occ
print('batch occupancy ok: mean %.1f peak %d over %d batches' %
      (occ['mean_batch'], occ['peak_batch'], occ['batches']))
# Live-mutation gate: a background ApplyUpdates stream must not stall
# reads — p95 read latency with mutations racing stays within 2x the
# read-only p95 on the same graph (best-of-3 rounds; the repair runs off
# the query pool, so only lock coupling could violate this). The sweep
# must also have actually published mutations.
rows = doc['mutation_sweep']
assert rows, 'mutation sweep produced no rows'
for row in rows:
    assert row['mutations_applied'] > 0, row
    assert row['mutation_updates'] > 0, row
    assert row['p95_ratio'] <= 2.0 + 1e-9, (
        'read p95 under mutation regressed: %.2fx read-only p95 on %s '
        '(read-only %.2fms, under mutation %.2fms)' % (
            row['p95_ratio'], row['graph'], row['read_only_p95_ms'],
            row['mutation_p95_ms']))
    print('mutation sweep ok on %s: p95 %.2fms read-only vs %.2fms under '
          '%d live publishes (ratio %.2fx <= 2x)' % (
              row['graph'], row['read_only_p95_ms'], row['mutation_p95_ms'],
              row['mutations_applied'], row['p95_ratio']))
# Copy-on-write count gate (bytes, not time): a publish's privatized shard
# copies its rows' top-K and residue arrays plus one pointer per row to
# the row's shared, immutable BCA state (a std::shared_ptr, 16 bytes on
# LP64). Copying the states themselves, most of the index, fails here.
sweep = [r for r in doc['publish_sweep'] if r['shards_copied'] > 0]
assert sweep, 'publish sweep privatized no shard'
for row in sweep:
    bound = row['shard_nodes'] * ((row['capacity_k'] + 1) * 8 + 16)
    assert row['bytes_per_shard'] <= bound, (
        'CoW privatization copied %.0f bytes per shard > %d on %s '
        '(%d-node shards, K=%d)' % (
            row['bytes_per_shard'], bound, row['graph'], row['shard_nodes'],
            row['capacity_k']))
print('CoW publish sweep ok: max %.0f bytes per privatized shard over %d rows'
      % (max(r['bytes_per_shard'] for r in sweep), len(sweep)))
PYEOF
# Evolving-graph bench: incremental maintenance must beat (or legitimately
# fall back to) a full rebuild, and its JSON rides the perf-trajectory
# artifacts like every other bench.
RTK_BENCH_SCALE=0.25 \
    ./build-release/bench_dynamic_updates --json build-release/BENCH_dynamic.json
test -s build-release/BENCH_dynamic.json
python3 - <<'PYEOF'
import json
doc = json.load(open('build-release/BENCH_dynamic.json'))
assert doc['bench'] == 'dynamic_updates', doc.get('bench')
rows = doc['rows']
assert rows, 'dynamic-updates JSON has no rows'
for row in rows:
    for key in ('graph', 'batch_size', 'incremental_seconds',
                'rebuild_seconds', 'speedup', 'affected_nodes',
                'affected_hubs', 'fallback_rebuild'):
        assert key in row, (key, row)
    assert row['incremental_seconds'] > 0.0 and row['rebuild_seconds'] > 0.0
    # When the incremental path really ran (no fallback), the smallest
    # batch must beat a full rebuild: its cost tracks the affected set,
    # not n. Larger batches legitimately converge to rebuild cost.
    if row['fallback_rebuild'] == 0 and row['batch_size'] == 2:
        assert row['speedup'] > 1.0, row
incr = [r['speedup'] for r in rows if r['fallback_rebuild'] == 0]
print('dynamic-updates JSON ok: %d rows, best incremental speedup %.1fx' % (
    len(rows), max(incr) if incr else 0.0))
PYEOF
# Self-tuning approximation gate: the adaptive sweep in the approx-mode
# bench runs partial escalation (targeted settles + reachability fast path
# + bound-targeted epsilon) against wholesale full escalation on the same
# queries, byte-identity enforced inside the bench. Partial must not be
# slower than full, and the AIMD controller must not escalate more than
# the fixed-budget arm while doing at most as much settle work — a knob or
# settler regression that silently re-inflates exact-tier latency fails
# here.
./build-release/bench_approx_mode --json build-release/BENCH_approx.json
test -s build-release/BENCH_approx.json
python3 - <<'PYEOF'
import json
doc = json.load(open('build-release/BENCH_approx.json'))
sweep = doc['adaptive_sweep']
for arm in ('full_escalation', 'partial_escalation', 'fixed_budget',
            'adaptive_budget'):
    block = sweep[arm]
    assert block['identical_to_exact'] == 1, (arm, block)
    assert block['seconds_per_query'] > 0.0, (arm, block)
ratio = sweep['partial_vs_full_latency_ratio']
assert ratio <= 1.0 + 1e-9, (
    'partial escalation regressed: %.3fx full-escalation latency' % ratio)
fixed, adaptive = sweep['fixed_budget'], sweep['adaptive_budget']
assert adaptive['escalations'] <= fixed['escalations'], (adaptive, fixed)
assert adaptive['settle_pushes'] <= fixed['settle_pushes'], (adaptive, fixed)
assert adaptive['final_scale'] > 1.0, adaptive
print('adaptive sweep ok on %s: partial %.2fx full latency, '
      'adaptive %d escalations / %d pushes vs fixed %d / %d (scale %.1f)' % (
          sweep['graph'], ratio, adaptive['escalations'],
          adaptive['settle_pushes'], fixed['escalations'],
          fixed['settle_pushes'], adaptive['final_scale']))
PYEOF
# Fused SpMM smoke: one blocked CSR pass over 8 right-hand sides must beat
# 8 independent SpMVs by >= 1.5x edge throughput on at least the graph it
# wins most on (full-scale graphs: at 0.25 scale everything is
# cache-resident and fusion has nothing to amortize). A regression of the
# kernel or its dispatch fails CI here. The solver gate: one fused solve
# of 16 uniform query lanes on rmat-web-l must beat the same 16
# single-source solves by >= 2.4x. Before every width had its own kernel
# this measured 1.6-1.9x; with them, 2.9-3.7x. A width falling back to a
# slow path fails here even when B=8 holds. The forward gate: the graph's
# first 16 hubs in one fused forward solve (one lane block of the index's
# hub phase) must beat their 16 single-source solves by >= 1.75x; eight
# Release runs on a 4-vCPU Xeon VM measured 2.1-3.3x (median 2.6x).
./build-release/bench_micro_spmm --json build-release/BENCH_spmm.json
test -s build-release/BENCH_spmm.json
python3 - <<'PYEOF'
import json
doc = json.load(open('build-release/BENCH_spmm.json'))
rows = [r for r in doc['rows'] if r['block'] == 8]
assert rows, 'no B=8 rows in micro-SpMM JSON'
best = max(r['speedup'] for r in rows)
assert best >= 1.5, 'fused SpMM B=8 regressed: best speedup %.2fx < 1.5x (%r)' % (
    best, [(r['graph'], round(r['speedup'], 2)) for r in rows])
print('micro-SpMM ok: best B=8 fused speedup %.2fx' % best)
solver = {r['graph']: r for r in doc['solver_rows']}
large = solver['rmat-web-l']
assert sum(large['passes_at_width']) > 0, large
assert large['speedup'] >= 2.4, (
    'fused PMPN solver regressed on rmat-web-l: %.2fx the 16 solo solves '
    '< 2.4x (passes at width %r)' % (
        large['speedup'], large['passes_at_width']))
print('micro-SpMM ok: 16-lane fused solver %.2fx the solo solves on '
      'rmat-web-l' % large['speedup'])
forward = {r['graph']: r for r in doc['forward_rows']}
hubs = forward['rmat-web-l']
assert sum(hubs['passes_at_width']) > 0, hubs
assert hubs['speedup'] >= 1.75, (
    'fused forward solver regressed on rmat-web-l: %.2fx the 16 solo hub '
    'solves < 1.75x (passes at width %r)' % (
        hubs['speedup'], hubs['passes_at_width']))
print('micro-SpMM ok: 16-hub fused forward solver %.2fx the solo solves on '
      'rmat-web-l' % hubs['speedup'])
PYEOF
# Memory-tiered storage gate: an mmap open reads only the O(|H| + shards)
# checksummed header, so it must cost <= 10% of a heap full-load on the
# largest suite graph. A format change that drags payload parsing back
# into the open path fails here.
RTK_BENCH_LOAD_REPS=3 \
    ./build-release/bench_index_load --json build-release/BENCH_index_load.json
test -s build-release/BENCH_index_load.json
python3 - <<'PYEOF'
import json
doc = json.load(open('build-release/BENCH_index_load.json'))
ratio = doc['mmap_open_over_heap_load']
assert ratio <= 0.10, 'mmap open regressed to %.4f of heap full-load on %s' % (
    ratio, doc['largest_graph'])
print('index-load ok: mmap open is %.4f of heap full-load on %s' % (
    ratio, doc['largest_graph']))
PYEOF
# Larger-than-RAM serving smoke: build an index whose file is ~3x a 64 MiB
# anonymous-memory cap (ulimit -d counts heap and anonymous mmap but NOT
# file-backed maps — exactly the tier split). The heap tier cannot even
# load it; the mmap tier must serve 100 read-only queries from the map.
./build-release/rtk_cli generate rmat build-release/ci_smoke_edges.txt 13
./build-release/rtk_cli build-index \
    build-release/ci_smoke_edges.txt build-release/ci_smoke.rtki 50
SMOKE_CAP_KB=98304  # 96 MiB: fits the graph + hub store, not the payloads
if bash -c "ulimit -d $SMOKE_CAP_KB; exec ./build-release/rtk_cli serve-bench \
      build-release/ci_smoke_edges.txt build-release/ci_smoke.rtki \
      10 100 2 --storage-tier heap --read-only" > /dev/null 2>&1; then
  echo "ulimit smoke: heap tier fit under ${SMOKE_CAP_KB}KB — cap is" \
       "meaningless, tighten it" >&2
  exit 1
fi
bash -c "ulimit -d $SMOKE_CAP_KB; exec ./build-release/rtk_cli serve-bench \
    build-release/ci_smoke_edges.txt build-release/ci_smoke.rtki \
    10 100 2 --storage-tier mmap --read-only" \
    | grep "storage tier: mmap"
echo "ulimit smoke ok: 100 queries served via mmap under a ${SMOKE_CAP_KB}KB cap"
# Packed-payload count gate (bytes, not time) on the smoke index: a BCA
# state is one record blob and P_H two flat arrays, so both cost 12 bytes
# per (id, value) entry plus a fixed overhead — per row its 16-byte state
# pointer, per stored state its 28-byte record header; per hub its id and
# offset, plus the final offset and the n-entry hub lookup. A padded
# 16-byte pair layout, or over-reserved lists, fails here.
./build-release/rtk_cli index-info build-release/ci_smoke.rtki \
    > build-release/ci_smoke_info.txt
python3 - <<'PYEOF'
import re
text = open('build-release/ci_smoke_info.txt').read()
def field(pattern):
    m = re.search(pattern, text, re.M)
    assert m, 'index-info output lacks %r:\n%s' % (pattern, text)
    return [int(g) for g in m.groups()]
(n,) = field(r'^nodes:\s+(\d+)')
hubs, hub_entries = field(r'^hubs:\s+(\d+) \((\d+) stored entries\)')
state_bytes, states, entries = field(
    r'^state bytes:\s+(\d+) \((\d+) states, (\d+) entries\)')
(hub_bytes,) = field(r'^hub bytes:\s+(\d+)')
assert entries > 0 and hub_entries > 0, text
expected_states = n * 16 + states * 28 + entries * 12
assert state_bytes == expected_states, (
    'state bytes %d != %d = 16 x %d rows + 28 x %d states + 12 x %d '
    'entries' % (state_bytes, expected_states, n, states, entries))
expected_hubs = hub_entries * 12 + hubs * (4 + 8) + 8 + n * 4
assert hub_bytes == expected_hubs, (
    'hub bytes %d != %d = 12 x %d entries + 12 x %d hubs + 8 + 4 x %d '
    'nodes' % (hub_bytes, expected_hubs, hub_entries, hubs, n))
print('packed payload count gate ok: %d state entries in %.1f MiB, %d hub '
      'entries in %.1f MiB (12 bytes each)' % (
          entries, state_bytes / 1048576.0, hub_entries,
          hub_bytes / 1048576.0))
PYEOF
# Serving benchmark: nothing else builds servebench/, which drives the
# library through ServingEngine, the backend factory (the traced replay
# resolves "batched-pmpn"), ComputeMulti and QueryStats. Both runs exit
# non-zero on a wrong answer or a missing metric.
python3 servebench/run.py --self-test
python3 servebench/run.py --workload hits-batched --seed 1 --seconds 2 --trace 1

echo "=== CI green ==="
