// Tests for the observability layer (src/obs): the sharded-cell counters
// and histograms (exact totals under concurrent hammering — the suite
// ci.sh also runs under TSan), log2 histogram percentile semantics against
// the exact NearestRankPercentile, the snapshot expositions, the lock-
// striped trace ring's wraparound, the slow-query log's threshold/eviction
// behavior, and the ServingEngine integration: the pinned exported surface
// and its agreement with stats(), retrievable traces, surfaced queue wait,
// and byte-identical results with tracing on vs off.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "exec/proximity_backends.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/serving_engine.h"
#include "workload/query_workload.h"

namespace rtk {
namespace {

// ---------------------------------------------------------------------------
// Counter

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  // Relaxed atomics lose no updates: the quiescent total is exact.
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementByAddsExactly) {
  Counter counter;
  counter.Increment(5);
  counter.Increment();
  counter.Increment(37);
  EXPECT_EQ(counter.value(), 43u);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketGeometry) {
  // Bucket 0 is [0, base]; bucket i > 0 is (base*2^(i-1), base*2^i].
  EXPECT_EQ(Histogram::BucketOf(0.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(kHistogramBaseSeconds), 0u);
  EXPECT_EQ(Histogram::BucketOf(kHistogramBaseSeconds * 1.5), 1u);
  EXPECT_EQ(Histogram::BucketOf(kHistogramBaseSeconds * 2.0), 1u);
  EXPECT_EQ(Histogram::BucketOf(kHistogramBaseSeconds * 2.1), 2u);
  EXPECT_EQ(Histogram::BucketOf(1e9), kHistogramBuckets - 1);   // open-ended
  EXPECT_EQ(Histogram::BucketOf(-1.0), 0u);                     // clamped
  for (size_t i = 1; i < kHistogramBuckets; ++i) {
    EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(i),
                     2.0 * HistogramBucketUpperBound(i - 1));
  }
}

TEST(HistogramTest, ConcurrentRecordsAreExact) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  const double sample = 3e-4;  // one fixed bucket
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, sample] {
      for (int i = 0; i < kPerThread; ++i) histogram.Record(sample);
    });
  }
  for (auto& thread : threads) thread.join();
  const HistogramSnapshot snap = histogram.Snapshot();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(snap.count, kTotal);
  EXPECT_EQ(snap.buckets[Histogram::BucketOf(sample)], kTotal);
  // The sum is fixed-point nanoseconds underneath: exact for this sample.
  EXPECT_NEAR(snap.sum_seconds, sample * static_cast<double>(kTotal),
              1e-9 * static_cast<double>(kTotal));
  EXPECT_NEAR(snap.mean_seconds(), sample, 1e-9);
}

TEST(HistogramTest, PercentileBoundsNearestRank) {
  // The histogram percentile reports the holding bucket's upper edge: it
  // must be >= the exact nearest-rank percentile and within one bucket
  // (a factor of 2) above it.
  Histogram histogram;
  Rng rng(99);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over ~(2us, 150ms) — spans many buckets, all > base.
    const double sample = 2e-6 * std::pow(2.0, rng.NextDouble() * 16.0);
    samples.push_back(sample);
    histogram.Record(sample);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snap = histogram.Snapshot();
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double exact = NearestRankPercentile(samples, p);
    const double coarse = snap.Percentile(p);
    EXPECT_GE(coarse, exact) << "p" << p;
    EXPECT_LE(coarse, exact * 2.0) << "p" << p;
  }
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.Snapshot().Percentile(50), 0.0);
  EXPECT_EQ(histogram.Snapshot().mean_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot exposition

TEST(MetricsSnapshotTest, LookupsAndExpositions) {
  Histogram latency;
  latency.Record(1e-3);
  MetricsSnapshot snap;
  snap.values = {{"rtk_test_depth", "gauge", 3.0},
                 {"rtk_test_events_total", "counter", 7.0}};
  snap.histograms = {{"rtk_test_latency_seconds", latency.Snapshot()}};

  EXPECT_EQ(snap.ValueOf("rtk_test_events_total"), 7.0);
  EXPECT_EQ(snap.ValueOf("rtk_test_depth"), 3.0);
  EXPECT_EQ(snap.ValueOf("rtk_test_missing"), 0.0);
  ASSERT_NE(snap.HistogramOf("rtk_test_latency_seconds"), nullptr);
  EXPECT_EQ(snap.HistogramOf("rtk_test_latency_seconds")->count, 1u);
  EXPECT_EQ(snap.HistogramOf("rtk_test_missing"), nullptr);

  const std::string text = snap.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE rtk_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rtk_test_events_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rtk_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("rtk_test_latency_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("rtk_test_latency_seconds_count 1"), std::string::npos);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"rtk_test_events_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"rtk_test_latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_seconds\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// QueryTrace / TraceRing / SlowQueryLog

TEST(QueryTraceTest, PhaseSecondsSumsSpans) {
  QueryTrace trace;
  trace.Start();
  trace.AddSpan(TracePhase::kProximity, 0.25);
  trace.AddSpan(TracePhase::kPrune, 0.5);
  trace.AddSpan(TracePhase::kProximity, 0.75);  // escalation re-run
  EXPECT_DOUBLE_EQ(trace.PhaseSeconds(TracePhase::kProximity), 1.0);
  EXPECT_DOUBLE_EQ(trace.PhaseSeconds(TracePhase::kPrune), 0.5);
  EXPECT_DOUBLE_EQ(trace.PhaseSeconds(TracePhase::kRefine), 0.0);
  trace.Finish();
  const std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("proximity"), std::string::npos);
  EXPECT_NE(rendered.find("prune"), std::string::npos);
}

TEST(TraceRingTest, WrapsToMostRecentCapacityTraces) {
  TraceRing ring(/*capacity=*/8, /*stripes=*/4);
  EXPECT_TRUE(ring.enabled());
  for (int i = 0; i < 20; ++i) {
    QueryTrace trace;
    trace.query = static_cast<uint32_t>(i);
    EXPECT_EQ(ring.Record(trace), static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  const std::vector<QueryTrace> recent = ring.Recent();
  ASSERT_EQ(recent.size(), 8u);
  // The survivors are exactly the newest `capacity` traces, in id order:
  // capacity deals evenly across 4 stripes (2 slots each), and ids go to
  // stripes round-robin, so every stripe retains its own 2 newest.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].trace_id, 13 + i);
    EXPECT_EQ(recent[i].query, 12 + i);
  }
}

TEST(TraceRingTest, DisabledRingRecordsNothing) {
  TraceRing ring(/*capacity=*/0);
  EXPECT_FALSE(ring.enabled());
  EXPECT_EQ(ring.Record(QueryTrace{}), 0u);
  EXPECT_TRUE(ring.Recent().empty());
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(TraceRingTest, ConcurrentRecordKeepsCapacityAndOrder) {
  TraceRing ring(/*capacity=*/64, /*stripes=*/4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring] {
      for (int i = 0; i < kPerThread; ++i) ring.Record(QueryTrace{});
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ring.recorded(), uint64_t{kThreads} * kPerThread);
  const std::vector<QueryTrace> recent = ring.Recent();
  EXPECT_EQ(recent.size(), 64u);
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_LT(recent[i - 1].trace_id, recent[i].trace_id);
  }
}

TEST(SlowQueryLogTest, ThresholdAndEviction) {
  SlowQueryLog log(/*threshold_seconds=*/0.5, /*capacity=*/2);
  EXPECT_TRUE(log.enabled());
  QueryTrace trace;
  trace.total_seconds = 0.1;
  EXPECT_FALSE(log.MaybeRecord(trace));  // under threshold
  trace.total_seconds = 0.6;
  trace.query = 1;
  EXPECT_TRUE(log.MaybeRecord(trace));
  trace.total_seconds = 0.7;
  trace.query = 2;
  EXPECT_TRUE(log.MaybeRecord(trace));
  trace.total_seconds = 0.8;
  trace.query = 3;
  EXPECT_TRUE(log.MaybeRecord(trace));  // evicts query 1
  EXPECT_EQ(log.slow_count(), 3u);
  const std::vector<QueryTrace> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].query, 2u);
  EXPECT_EQ(entries[1].query, 3u);
}

TEST(SlowQueryLogTest, DisabledByZeroThreshold) {
  SlowQueryLog log(/*threshold_seconds=*/0.0, /*capacity=*/4);
  EXPECT_FALSE(log.enabled());
  QueryTrace trace;
  trace.total_seconds = 100.0;
  EXPECT_FALSE(log.MaybeRecord(trace));
  EXPECT_TRUE(log.Entries().empty());
}

// ---------------------------------------------------------------------------
// ServingEngine integration

EngineOptions CoarseOptions() {
  EngineOptions opts;
  opts.capacity_k = 20;
  opts.hub_selection.degree_budget_b = 5;
  opts.bca.delta = 0.5;  // large residues => queries refine
  opts.num_threads = 2;
  opts.shard_nodes = 32;
  return opts;
}

Result<std::unique_ptr<ReverseTopkEngine>> BuildTestEngine(uint64_t seed) {
  Rng rng(seed);
  auto graph = BarabasiAlbert(250, 3, &rng);
  if (!graph.ok()) return graph.status();
  return ReverseTopkEngine::Build(std::move(*graph), CoarseOptions());
}

// The exported surface, pinned: every scalar row (name and Prometheus type)
// and every histogram a serving engine exports, sorted by name. A rename,
// a dropped row or a type change fails here before it reaches a scrape
// config or the README catalog.
const std::vector<std::pair<std::string, std::string>>& PinnedScalars() {
  static const std::vector<std::pair<std::string, std::string>> kScalars = {
      {"rtk_serving_adaptive_budget_resets_total", "counter"},
      {"rtk_serving_adaptive_full_escalations_total", "counter"},
      {"rtk_serving_adaptive_partial_escalations_total", "counter"},
      {"rtk_serving_adaptive_scale_local_push", "gauge"},
      {"rtk_serving_adaptive_scale_monte_carlo", "gauge"},
      {"rtk_serving_adaptive_scale_pmpn", "gauge"},
      {"rtk_serving_answers_certified_total", "counter"},
      {"rtk_serving_answers_uncertified_total", "counter"},
      {"rtk_serving_backend_escalations_total", "counter"},
      {"rtk_serving_batched_queries_total", "counter"},
      {"rtk_serving_batches_total", "counter"},
      {"rtk_serving_cache_entries", "gauge"},
      {"rtk_serving_cache_hits_total", "counter"},
      {"rtk_serving_cache_misses_total", "counter"},
      {"rtk_serving_cow_bytes_copied_total", "counter"},
      {"rtk_serving_current_epoch", "gauge"},
      {"rtk_serving_deltas_applied_total", "counter"},
      {"rtk_serving_deltas_recorded_total", "counter"},
      {"rtk_serving_epochs_published_total", "counter"},
      {"rtk_serving_graph_version", "gauge"},
      {"rtk_serving_index_shards", "gauge"},
      {"rtk_serving_mmap_bytes", "gauge"},
      {"rtk_serving_mutation_affected_nodes_total", "counter"},
      {"rtk_serving_mutation_batches_rejected_total", "counter"},
      {"rtk_serving_mutation_batches_total", "counter"},
      {"rtk_serving_mutation_cow_bytes_copied_total", "counter"},
      {"rtk_serving_mutation_hub_resolves_total", "counter"},
      {"rtk_serving_mutation_invalidations_total", "counter"},
      {"rtk_serving_mutation_rebuilds_total", "counter"},
      {"rtk_serving_mutation_repairs_total", "counter"},
      {"rtk_serving_mutation_shards_copied_total", "counter"},
      {"rtk_serving_mutation_updates_total", "counter"},
      {"rtk_serving_peak_batch_size", "gauge"},
      {"rtk_serving_peak_queue_depth", "gauge"},
      {"rtk_serving_pending_deltas", "gauge"},
      {"rtk_serving_pending_mutations", "gauge"},
      {"rtk_serving_queries_approximate_tier_total", "counter"},
      {"rtk_serving_queries_exact_tier_total", "counter"},
      {"rtk_serving_queries_total", "counter"},
      {"rtk_serving_queue_depth", "gauge"},
      {"rtk_serving_refinements_dropped_stale_total", "counter"},
      {"rtk_serving_requests_cancelled_total", "counter"},
      {"rtk_serving_requests_expired_total", "counter"},
      {"rtk_serving_requests_shed_total", "counter"},
      {"rtk_serving_requests_submitted_total", "counter"},
      {"rtk_serving_resident_shards", "gauge"},
      {"rtk_serving_shard_evictions_total", "counter"},
      {"rtk_serving_shard_faults_total", "counter"},
      {"rtk_serving_shards_copied_total", "counter"},
  };
  return kScalars;
}

const std::vector<std::string>& PinnedHistograms() {
  static const std::vector<std::string> kHistograms = {
      "rtk_serving_fused_proximity_seconds",
      "rtk_serving_mutation_publish_seconds",
      "rtk_serving_proximity_seconds",
      "rtk_serving_prune_seconds",
      "rtk_serving_publish_seconds",
      "rtk_serving_queue_wait_seconds",
      "rtk_serving_refine_seconds",
      "rtk_serving_request_approximate_tier_seconds",
      "rtk_serving_request_backend_local_push_seconds",
      "rtk_serving_request_backend_monte_carlo_seconds",
      "rtk_serving_request_backend_other_seconds",
      "rtk_serving_request_backend_pmpn_seconds",
      "rtk_serving_request_exact_tier_seconds",
      "rtk_serving_request_seconds",
  };
  return kHistograms;
}

// Drives every disposition and write path the exported surface reports
// (cache hits and misses, a hits-only request, a shed, a pre-expired and a
// pre-cancelled request, escalating exact-tier traffic on local push, a
// refinement publish and a mutation), then checks the surface row by row
// against stats() and the identities between counters.
TEST(ServingMetricsTest, PinnedSurfaceMatchesStats) {
  auto engine = BuildTestEngine(17);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Graph& graph = (*engine)->graph();
  ServingOptions options;
  options.num_threads = 2;
  options.max_pending = 2;
  options.publish_threshold = 0;  // the one refinement publish is explicit
  options.adaptive = true;
  options.exact_tier_backend.name = std::string(kLocalPushBackendName);
  options.exact_tier_backend.local_push.epsilon = 1e-2;  // escalates
  auto serving = ServingEngine::Create(**engine, options);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  ServingEngine& s = **serving;

  // A mutation first, so the budget controller's reset does not wipe the
  // feedback the exact-tier traffic below records.
  uint32_t v = 1;
  const auto row = graph.OutNeighbors(0);
  while (std::binary_search(row.begin(), row.end(), v)) ++v;
  const MutationResult mutated = s.ApplyUpdates({EdgeUpdate::Insert(0, v)}).get();
  ASSERT_TRUE(mutated.ok()) << mutated.status.ToString();

  uint64_t executed_ok = 0;  // responses that ran the pipeline and succeeded
  const auto tally = [&](const QueryResponse& response) {
    if (response.ok() && !response.cache_hit) ++executed_ok;
  };
  // Exact tier, with repeats: the first of each query misses the cache and
  // runs, the repeats hit.
  uint64_t hits_seen = 0;
  for (uint32_t q : {3u, 17u, 42u, 99u, 3u, 17u, 150u, 42u, 3u}) {
    QueryRequest request;
    request.query = q;
    request.k = 8;
    const QueryResponse response = s.Submit(request).get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    hits_seen += response.cache_hit ? 1 : 0;
    tally(response);
  }
  EXPECT_GT(hits_seen, 0u);

  // Two hits-only requests fill the paused queue; a third is shed.
  s.Pause();
  QueryRequest hits_only;
  hits_only.tier = AccuracyTier::kApproximateHitsOnly;
  hits_only.k = 8;
  hits_only.query = 11;
  std::future<QueryResponse> first = s.Submit(hits_only);
  hits_only.query = 12;
  std::future<QueryResponse> second = s.Submit(hits_only);
  hits_only.query = 13;
  const QueryResponse shed = s.Submit(hits_only).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  s.Resume();
  for (std::future<QueryResponse>* f : {&first, &second}) {
    const QueryResponse response = f->get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    tally(response);
  }

  QueryRequest expired;
  expired.query = 5;
  expired.deadline = SteadyClock::now() - std::chrono::seconds(1);
  EXPECT_EQ(s.Submit(expired).get().status.code(),
            StatusCode::kDeadlineExceeded);
  QueryRequest cancelled;
  cancelled.query = 6;
  cancelled.cancel = CancellationToken::Cancellable();
  cancelled.cancel.RequestCancel();
  EXPECT_EQ(s.Submit(cancelled).get().status.code(), StatusCode::kCancelled);

  EXPECT_GT(s.PublishPending(), 0u);

  const ServingStats stats = s.stats();
  const MetricsSnapshot metrics = s.Metrics();

  // The surface itself: same names, same types, same order.
  std::vector<std::pair<std::string, std::string>> scalars;
  for (const MetricValue& value : metrics.values) {
    scalars.emplace_back(value.name, value.type);
  }
  EXPECT_EQ(scalars, PinnedScalars());
  std::vector<std::string> histograms;
  for (const MetricHistogram& histogram : metrics.histograms) {
    histograms.push_back(histogram.name);
  }
  EXPECT_EQ(histograms, PinnedHistograms());

  // Each scalar equals its stats() field.
  const auto scale_of = [&](std::string_view backend) {
    for (const BackendBudgetState& state : stats.adaptive_budgets) {
      if (state.backend == backend) return state.scale;
    }
    return 1.0;
  };
  const std::vector<std::pair<std::string, double>> from_stats = {
      {"adaptive_budget_resets_total", stats.adaptive_resets},
      {"adaptive_full_escalations_total", stats.full_escalations},
      {"adaptive_partial_escalations_total", stats.partial_escalations},
      {"adaptive_scale_local_push", scale_of(kLocalPushBackendName)},
      {"adaptive_scale_monte_carlo", scale_of(kMonteCarloBackendName)},
      {"adaptive_scale_pmpn", scale_of(kPmpnBackendName)},
      {"backend_escalations_total", stats.backend_escalations},
      {"batched_queries_total", stats.batched_queries},
      {"batches_total", stats.batches},
      {"cache_entries", stats.cache.entries},
      {"cache_hits_total", stats.cache_hits},
      {"cache_misses_total", stats.cache_misses},
      {"cow_bytes_copied_total", stats.cow_bytes_copied},
      {"current_epoch", stats.current_epoch},
      {"deltas_applied_total", stats.deltas_applied},
      {"deltas_recorded_total", stats.deltas_recorded},
      {"epochs_published_total", stats.epochs_published},
      {"graph_version", stats.graph_version},
      {"index_shards", stats.index_shards},
      {"mmap_bytes", stats.mmap_bytes},
      {"mutation_affected_nodes_total", stats.mutation_affected_nodes},
      {"mutation_batches_rejected_total", stats.mutation_batches_rejected},
      {"mutation_batches_total", stats.mutation_batches},
      {"mutation_cow_bytes_copied_total", stats.mutation_cow_bytes_copied},
      {"mutation_invalidations_total", stats.mutation_invalidations},
      {"mutation_rebuilds_total", stats.mutation_rebuilds},
      {"mutation_repairs_total", stats.mutation_repairs},
      {"mutation_shards_copied_total", stats.mutation_shards_copied},
      {"mutation_updates_total", stats.mutation_updates},
      {"peak_batch_size", stats.peak_batch_size},
      {"peak_queue_depth", stats.peak_queue_depth},
      {"pending_deltas", stats.pending_deltas},
      {"pending_mutations", stats.pending_mutations},
      {"queries_approximate_tier_total", stats.approximate_tier_queries},
      {"queries_exact_tier_total", stats.exact_tier_queries},
      {"queries_total", stats.queries},
      {"queue_depth", stats.queue_depth},
      {"refinements_dropped_stale_total", stats.refinements_dropped_stale},
      {"requests_cancelled_total", stats.cancelled},
      {"requests_expired_total", stats.expired},
      {"requests_shed_total", stats.shed},
      {"requests_submitted_total", stats.submitted},
      {"resident_shards", stats.resident_shards},
      {"shard_evictions_total", stats.shard_evictions},
      {"shard_faults_total", stats.shard_faults},
      {"shards_copied_total", stats.shards_copied},
  };
  for (const auto& [name, value] : from_stats) {
    EXPECT_EQ(metrics.ValueOf("rtk_serving_" + name), value) << name;
  }
  // The three rows with no stats() field, against what the test observed.
  EXPECT_EQ(metrics.ValueOf("rtk_serving_answers_certified_total") +
                metrics.ValueOf("rtk_serving_answers_uncertified_total"),
            static_cast<double>(executed_ok));
  EXPECT_EQ(metrics.ValueOf("rtk_serving_mutation_hub_resolves_total"),
            static_cast<double>(mutated.affected_hubs));

  // Totals and their parts.
  EXPECT_EQ(stats.queries,
            stats.exact_tier_queries + stats.approximate_tier_queries);
  EXPECT_EQ(stats.backend_escalations,
            stats.partial_escalations + stats.full_escalations);
  EXPECT_EQ(stats.adaptive_resets, stats.mutation_repairs +
                                       stats.mutation_invalidations +
                                       stats.mutation_rebuilds);
  EXPECT_EQ(stats.submitted,
            stats.shed + stats.expired + stats.cancelled + stats.queries);
  // Engine-side counts agree with the components that own them.
  EXPECT_EQ(stats.cache_hits, stats.cache.hits);
  EXPECT_EQ(stats.cache_misses, stats.cache.misses);
  EXPECT_EQ(stats.refinements_dropped_stale, stats.log.dropped_stale);

  // What the traffic above did.
  EXPECT_EQ(stats.submitted, 14u);
  EXPECT_EQ(stats.cache_hits, hits_seen);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 9u);
  EXPECT_EQ(stats.approximate_tier_queries, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_GT(stats.backend_escalations, 0u);
  EXPECT_EQ(stats.mutation_batches, 1u);
  EXPECT_EQ(stats.adaptive_resets, 1u);
  EXPECT_EQ(stats.epochs_published, 2u);
  EXPECT_EQ(stats.graph_version, 1u);
  EXPECT_GT(scale_of(kLocalPushBackendName), 1.0);

  // Every executed request landed in the latency histograms; the stage
  // histograms and queue wait saw the worker-run ones.
  const HistogramSnapshot* latency =
      metrics.HistogramOf("rtk_serving_request_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, stats.queries);
  EXPECT_EQ(metrics.HistogramOf("rtk_serving_proximity_seconds")->count,
            stats.queries - stats.cache_hits);
  EXPECT_EQ(metrics.HistogramOf("rtk_serving_queue_wait_seconds")->count,
            stats.queries - stats.cache_hits);
  EXPECT_EQ(metrics.HistogramOf("rtk_serving_publish_seconds")->count, 1u);
  EXPECT_EQ(metrics.HistogramOf("rtk_serving_mutation_publish_seconds")->count,
            1u);

  const std::string text = metrics.ToPrometheusText();
  EXPECT_NE(text.find("rtk_serving_requests_submitted_total 14\n"),
            std::string::npos);
  EXPECT_NE(text.find("rtk_serving_request_seconds_bucket"),
            std::string::npos);
}

TEST(ServingMetricsTest, TracesAreRetrievableAndCoherent) {
  auto engine = BuildTestEngine(23);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServingOptions options;
  options.num_threads = 2;
  options.trace_ring_capacity = 128;
  // Everything qualifies as slow: the log must then see every trace.
  options.slow_query_threshold_seconds = 1e-12;
  options.slow_query_log_capacity = 256;
  auto serving = ServingEngine::Create(**engine, options);
  ASSERT_TRUE(serving.ok());

  Rng rng(5);
  const std::vector<uint32_t> workload = SampleQueries(
      (*engine)->graph(), 40, QueryDistribution::kInDegreeBiased, &rng);
  uint64_t max_trace_id = 0;
  for (const QueryResponse& response : (*serving)->QueryBatch(workload, 8)) {
    ASSERT_TRUE(response.ok());
    EXPECT_GT(response.trace_id, 0u);
    // Queue wait is the first part of the end-to-end time.
    EXPECT_GE(response.queue_wait_seconds, 0.0);
    EXPECT_LE(response.queue_wait_seconds, response.total_seconds);
    max_trace_id = std::max(max_trace_id, response.trace_id);
  }
  EXPECT_EQ(max_trace_id, 40u);

  const std::vector<QueryTrace> traces = (*serving)->RecentTraces();
  ASSERT_EQ(traces.size(), 40u);
  const ServingStats stats = (*serving)->stats();
  for (const QueryTrace& trace : traces) {
    EXPECT_GT(trace.trace_id, 0u);
    EXPECT_GE(trace.total_seconds, 0.0);
    if (trace.disposition == TraceDisposition::kCacheHit) {
      EXPECT_GT(trace.PhaseSeconds(TracePhase::kCacheProbe), 0.0);
    } else {
      EXPECT_EQ(trace.disposition, TraceDisposition::kOk);
      // Executed requests carry the pipeline's stage spans.
      EXPECT_GT(trace.PhaseSeconds(TracePhase::kProximity), 0.0);
      EXPECT_FALSE(trace.backend.empty());
    }
  }
  // With an always-qualifying threshold the slow log saw every trace.
  EXPECT_EQ((*serving)->SlowQueries().size(), traces.size());
  EXPECT_EQ(stats.queries, 40u);
}

TEST(ServingMetricsTest, ResultsAreByteIdenticalWithTracingOnOrOff) {
  auto engine = BuildTestEngine(31);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Same engine, same single-threaded request sequence; the only delta is
  // the tracing configuration. Tracing only writes timestamps, so results
  // must match element for element.
  ServingOptions traced_opts;
  traced_opts.num_threads = 1;
  traced_opts.trace_ring_capacity = 64;
  traced_opts.slow_query_threshold_seconds = 1e-12;
  ServingOptions untraced_opts;
  untraced_opts.num_threads = 1;
  untraced_opts.trace_ring_capacity = 0;      // tracing fully off
  untraced_opts.slow_query_threshold_seconds = 0.0;

  auto traced = ServingEngine::Create(**engine, traced_opts);
  auto untraced = ServingEngine::Create(**engine, untraced_opts);
  ASSERT_TRUE(traced.ok());
  ASSERT_TRUE(untraced.ok());

  Rng rng(5);
  const std::vector<uint32_t> workload = SampleQueries(
      (*engine)->graph(), 50, QueryDistribution::kInDegreeBiased, &rng);
  const std::vector<QueryResponse> with =
      (*traced)->QueryBatch(workload, 10);
  const std::vector<QueryResponse> without =
      (*untraced)->QueryBatch(workload, 10);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    ASSERT_TRUE(with[i].ok());
    ASSERT_TRUE(without[i].ok());
    EXPECT_EQ(with[i].results, without[i].results) << "query " << workload[i];
    // The untraced engine assigns no trace ids.
    EXPECT_EQ(without[i].trace_id, 0u);
  }
  EXPECT_TRUE((*untraced)->RecentTraces().empty());
  EXPECT_TRUE((*untraced)->SlowQueries().empty());
  EXPECT_FALSE((*traced)->RecentTraces().empty());
}

}  // namespace
}  // namespace rtk
