// Serving throughput: queries/sec of the concurrent ServingEngine at 1, 4
// and max-hardware threads versus the mutex-serialized baseline (a global
// lock around ReverseTopkEngine::Query — the only safe way to share the
// serial engine across threads).
//
// The workload is in-degree biased with replacement, i.e. a realistic
// skewed query log with repeats, so the serving engine's (q, k, epoch)
// result cache participates exactly as it would in production. Set
// RTK_BENCH_THREADS to override the max thread count, RTK_BENCH_QUERIES
// for the workload size, RTK_BENCH_SCALE / RTK_BENCH_GRAPH as usual.
//
// Two more sweeps follow the head-to-head: an overload sweep (open-loop
// offered load at 0.5-4x capacity through Submit(), reporting p50/p95/p99
// request latency and the shed count from the bounded admission queue)
// and the CoW publish-cost sweep. All three land in --json output.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "bca/hub_selection.h"
#include "bench_common.h"
#include "common/env.h"
#include "core/engine.h"
#include "index/index_builder.h"
#include "serving/serving_engine.h"
#include "workload/query_workload.h"

namespace rtk::bench {
namespace {

constexpr uint32_t kQueryK = 10;

// --storage-tier heap|mmap: the memory tier the head-to-head's serving
// engine reads from. mmap saves the built index to a scratch file and
// serves it through the mapped tier (cold shards faulted/streamed on
// demand) — results are identical; the column worth watching is the
// speedup staying flat while resident memory shrinks.
StorageTier g_storage_tier = StorageTier::kHeap;

bool ParseStorageTierArg(int argc, char** argv) {
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--storage-tier" && i + 1 < argc) value = argv[i + 1];
    if (arg.rfind("--storage-tier=", 0) == 0) value = arg.substr(15);
  }
  if (value.empty() || value == "heap") return true;
  if (value == "mmap") {
    g_storage_tier = StorageTier::kMmap;
    return true;
  }
  std::fprintf(stderr, "unknown --storage-tier: %s (expected heap|mmap)\n",
               value.c_str());
  return false;
}

// The engine the serving layer snapshots: the freshly built one (heap
// tier), or its saved bytes reloaded through the mmap tier.
Result<std::unique_ptr<ReverseTopkEngine>> TieredEngine(
    const NamedGraph& named, std::unique_ptr<ReverseTopkEngine> built,
    const EngineOptions& opts) {
  if (g_storage_tier == StorageTier::kHeap) return std::move(built);
  const std::string path = "/tmp/rtk_bench_serving_tier.rtki";
  if (Status s = built->SaveIndex(path); !s.ok()) return s;
  EngineOptions load_opts = opts;
  load_opts.storage_tier = StorageTier::kMmap;
  return ReverseTopkEngine::LoadFromFile(Graph(named.graph), path, load_opts);
}

struct ThroughputRow {
  std::string graph;
  int threads = 1;
  double mutex_qps = 0.0;
  double serving_qps = 0.0;
  double speedup = 1.0;
  double cache_hit_pct = 0.0;
};

// One (shard width x deltas-per-publish) configuration of the publish-cost
// sweep: what an epoch publish costs when the pending batch dirties only
// part of the copy-on-write shard table.
struct PublishRow {
  std::string graph;
  uint32_t num_nodes = 0;
  uint32_t shard_nodes = 0;
  uint32_t num_shards = 0;
  uint32_t capacity_k = 0;
  size_t deltas = 0;
  uint64_t applied = 0;
  uint64_t shards_copied = 0;
  /// Bytes one publish's privatizations copied, and per privatized shard.
  uint64_t bytes_copied = 0;
  double bytes_per_shard = 0.0;
  double publish_ms = 0.0;
};

// One offered-load point of the overload sweep: open-loop arrivals at
// `offered_qps` against a small worker pool with a bounded admission
// queue, reporting tail latency of completed requests and how many were
// shed with kResourceExhausted once offered load exceeded capacity.
struct OverloadRow {
  std::string graph;
  int workers = 0;
  size_t max_pending = 0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  size_t requests = 0;
};

// One configuration of the batching sweep: closed-loop QPS with the fused
// multi-query batch former on versus off, at the same client and worker
// counts, plus the occupancy the batch former actually achieved (mean/max
// batch size) and where proximity time went (fused solves vs per-query
// attribution).
struct BatchingRow {
  std::string graph;
  int clients = 0;
  int workers = 0;
  size_t max_batch = 0;
  double batch_window = 0.0;
  double unbatched_qps = 0.0;
  double batched_qps = 0.0;
  double speedup = 1.0;
  uint64_t batches = 0;
  uint64_t batched_queries = 0;
  double mean_batch = 0.0;
  size_t peak_batch = 0;
  /// Wall seconds inside fused multi-query solves (batched run).
  double fused_proximity_seconds = 0.0;
  /// Per-query attributed proximity seconds (batched run; fused shares).
  double batched_proximity_seconds = 0.0;
  /// Per-query proximity seconds of the unbatched run (all solo solves).
  double solo_proximity_seconds = 0.0;
};

// One phase of the mutation sweep: p50/p95 read latency of an open-loop
// read stream, alone vs with a background ApplyUpdates stream racing it.
// The ratio is the live-mutation headline number (ci.sh gates it at 2x):
// mutation drains repair the index on the side and publish atomically, so
// reads should see epoch swaps, never stalls.
struct MutationRow {
  std::string graph;
  int workers = 0;
  double offered_qps = 0.0;
  double read_only_p50_ms = 0.0;
  double read_only_p95_ms = 0.0;
  double mutation_p50_ms = 0.0;
  double mutation_p95_ms = 0.0;
  double p95_ratio = 0.0;
  uint64_t mutations_applied = 0;
  uint64_t mutation_updates = 0;
  uint64_t reads = 0;
  double mutation_publish_p50_ms = 0.0;
};

// Runs `workload` across `num_threads` threads, each thread taking a
// contiguous slice, calling `run_one(q)`. Returns wall seconds.
template <typename Fn>
double RunThreaded(const std::vector<uint32_t>& workload, int num_threads,
                   const Fn& run_one) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  const size_t per_thread =
      (workload.size() + num_threads - 1) / num_threads;
  for (int t = 0; t < num_threads; ++t) {
    const size_t begin = std::min(workload.size(), t * per_thread);
    const size_t end = std::min(workload.size(), begin + per_thread);
    threads.emplace_back([&, begin, end] {
      for (size_t i = begin; i < end; ++i) run_one(workload[i]);
    });
  }
  for (auto& thread : threads) thread.join();
  return watch.ElapsedSeconds();
}

void RunSuite(std::vector<ThroughputRow>* rows, std::string* metrics_json) {
  const int max_threads = static_cast<int>(
      EnvInt64("RTK_BENCH_THREADS",
               std::max(1u, std::thread::hardware_concurrency())));
  std::vector<int> thread_counts;
  for (int t : {1, 4, max_threads}) {
    if (t <= max_threads) thread_counts.push_back(t);
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  for (auto& named : MakeGraphSuite(1)) {
    EngineOptions opts;
    opts.capacity_k = 50;
    opts.hub_selection.degree_budget_b = named.graph.num_nodes() / 50 + 1;
    Rng rng(7);
    const std::vector<uint32_t> workload =
        SampleQueries(named.graph, NumQueries(300),
                      QueryDistribution::kInDegreeBiased, &rng);

    std::printf("storage tier: %s\n",
                g_storage_tier == StorageTier::kMmap ? "mmap" : "heap");
    std::printf("%-12s %8s %12s %12s %9s %10s\n", "graph", "threads",
                "mutex q/s", "serving q/s", "speedup", "cache-hit%");
    for (int threads : thread_counts) {
      // A fresh engine per row: the mutex baseline refines its index in
      // place, so reusing one engine would hand later rows progressively
      // tighter (faster) state and make rows incomparable.
      auto built = ReverseTopkEngine::Build(Graph(named.graph), opts);
      if (!built.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     built.status().ToString().c_str());
        continue;
      }
      auto engine = TieredEngine(named, std::move(*built), opts);
      if (!engine.ok()) {
        std::fprintf(stderr, "tier load failed: %s\n",
                     engine.status().ToString().c_str());
        continue;
      }
      // Serving engine snapshots the index before the baseline's in-place
      // refinement tightens it, so the comparison favors the baseline if
      // anything.
      ServingOptions serving_opts;
      serving_opts.num_threads = threads;
      auto serving = ServingEngine::Create(**engine, serving_opts);
      if (!serving.ok()) continue;
      const double serving_seconds =
          RunThreaded(workload, threads, [&](uint32_t q) {
            auto r = (*serving)->Query(q, kQueryK);
            if (!r.ok()) std::abort();
          });
      const ServingStats sstats = (*serving)->stats();
      // The last row's full metrics snapshot rides along in the --json
      // output (the max-thread run on the final graph — the configuration
      // the trajectory tooling tracks).
      *metrics_json = (*serving)->Metrics().ToJson();

      // Baseline: the engine's documented recipe for concurrent use
      // without the serving layer — one global mutex.
      std::mutex mu;
      const double mutex_seconds =
          RunThreaded(workload, threads, [&](uint32_t q) {
            std::lock_guard<std::mutex> lock(mu);
            auto r = (*engine)->Query(q, kQueryK);
            if (!r.ok()) std::abort();
          });

      const double n = static_cast<double>(workload.size());
      const double hit_pct =
          100.0 * static_cast<double>(sstats.cache_hits) /
          std::max<double>(1.0, static_cast<double>(sstats.queries));
      std::printf("%-12s %8d %12.1f %12.1f %8.2fx %9.1f%%\n",
                  named.name.c_str(), threads, n / mutex_seconds,
                  n / serving_seconds, mutex_seconds / serving_seconds,
                  hit_pct);
      rows->push_back({named.name, threads, n / mutex_seconds,
                       n / serving_seconds,
                       mutex_seconds / serving_seconds, hit_pct});
    }
  }
}

// Overload sweep: offered load at 0.5x / 1x / 2x / 4x of a calibrated
// closed-loop capacity, submitted open-loop (arrivals don't wait for
// completions, like real traffic) through the async Submit path. Requests
// bypass the result cache so every admitted request costs real work —
// the sweep measures the scheduler, not the cache. The numbers to look
// at: p99 latency exploding at >= 1x while the shed count (bounded
// admission queue) keeps p50 of *admitted* requests sane — shedding is
// the overload story, queue growth is not.
void RunOverloadSweep(std::vector<OverloadRow>* rows) {
  constexpr int kWorkers = 2;
  constexpr size_t kMaxPending = 16;
  for (auto& named : MakeGraphSuite(1)) {
    EngineOptions opts;
    opts.capacity_k = 50;
    opts.hub_selection.degree_budget_b = named.graph.num_nodes() / 50 + 1;
    auto engine = ReverseTopkEngine::Build(Graph(named.graph), opts);
    if (!engine.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   engine.status().ToString().c_str());
      continue;
    }
    Rng rng(11);
    const std::vector<uint32_t> workload =
        SampleQueries((*engine)->graph(), NumQueries(200),
                      QueryDistribution::kInDegreeBiased, &rng);

    // Calibrate capacity with a closed-loop run on a throwaway engine
    // (same snapshot: the serving layer never mutates the source engine).
    double capacity_qps;
    {
      ServingOptions calibrate_opts;
      calibrate_opts.num_threads = kWorkers;
      calibrate_opts.max_pending = workload.size();
      auto serving = ServingEngine::Create(**engine, calibrate_opts);
      if (!serving.ok()) continue;
      std::vector<QueryRequest> requests;
      requests.reserve(workload.size());
      for (uint32_t q : workload) {
        QueryRequest request;
        request.query = q;
        request.k = kQueryK;
        request.bypass_cache = true;
        requests.push_back(request);
      }
      Stopwatch watch;
      (*serving)->SubmitBatch(std::move(requests));
      capacity_qps =
          static_cast<double>(workload.size()) / watch.ElapsedSeconds();
    }

    std::printf("\noverload sweep on %s: %d workers, max_pending=%zu, "
                "capacity ~%.0f q/s (cache bypassed)\n",
                named.name.c_str(), kWorkers, kMaxPending, capacity_qps);
    std::printf("%-12s %12s %9s %9s %9s %10s %6s\n", "offered q/s",
                "achieved q/s", "p50 ms", "p95 ms", "p99 ms", "completed",
                "shed");
    for (double mult : {0.5, 1.0, 2.0, 4.0}) {
      const double offered_qps = capacity_qps * mult;
      ServingOptions serving_opts;
      serving_opts.num_threads = kWorkers;
      serving_opts.max_pending = kMaxPending;
      auto serving = ServingEngine::Create(**engine, serving_opts);
      if (!serving.ok()) continue;

      std::vector<std::future<QueryResponse>> futures;
      futures.reserve(workload.size());
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < workload.size(); ++i) {
        // Open loop: the i-th arrival is scheduled at i/offered seconds
        // regardless of how far behind the servers are.
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / offered_qps)));
        QueryRequest request;
        request.query = workload[i];
        request.k = kQueryK;
        request.bypass_cache = true;
        futures.push_back((*serving)->Submit(std::move(request)));
      }
      uint64_t completed = 0;
      uint64_t shed = 0;
      for (auto& future : futures) {
        const QueryResponse response = future.get();
        if (response.ok()) {
          ++completed;
        } else {
          ++shed;  // only kResourceExhausted is possible here
        }
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      // Percentiles come from the engine's own request-latency histogram
      // (log2 buckets, upper-bound semantics — see obs/metrics.h), the
      // same numbers a production scrape would report. Only executed
      // requests are recorded, matching the old ok-responses-only sample.
      const MetricsSnapshot metrics = (*serving)->Metrics();
      const HistogramSnapshot* latency =
          metrics.HistogramOf("rtk_serving_request_seconds");
      const HistogramSnapshot empty_latency;
      if (latency == nullptr) latency = &empty_latency;
      OverloadRow row;
      row.graph = named.name;
      row.workers = kWorkers;
      row.max_pending = kMaxPending;
      row.offered_qps = offered_qps;
      row.achieved_qps = static_cast<double>(completed) / elapsed;
      row.p50_ms = latency->Percentile(50) * 1e3;
      row.p95_ms = latency->Percentile(95) * 1e3;
      row.p99_ms = latency->Percentile(99) * 1e3;
      row.completed = completed;
      row.shed = shed;
      row.requests = workload.size();
      std::printf("%-12.1f %12.1f %9.2f %9.2f %9.2f %10llu %6llu\n",
                  row.offered_qps, row.achieved_qps, row.p50_ms, row.p95_ms,
                  row.p99_ms, static_cast<unsigned long long>(row.completed),
                  static_cast<unsigned long long>(row.shed));
      rows->push_back(std::move(row));
    }
  }
}

// Batching sweep: closed-loop throughput at many concurrent clients with
// the fused batch former on vs off. Each client thread submits its slice
// synchronously (Submit + get, cache bypassed), so with clients >> workers
// a real backlog forms and the batch former has material to fuse. The
// speedup column is the headline batching number: same engine, same
// workload, same thread counts — only max_batch changes.
//
// Two deliberate configuration choices keep the measurement about fusion:
//  * The hits-only accuracy tier. Batching fuses the proximity stage;
//    refinement is untouched, and on the coarse synthetic indexes these
//    benches build, exact-tier refinement is >90% of per-query cost —
//    Amdahl would hide any proximity speedup. Hits-only serves the
//    proximity-dominated profile (stage 1 + prune) the batch former
//    actually accelerates.
//  * One worker. The fused solve runs on the dispatching worker; with one
//    worker on both sides, batched vs unbatched differ only in how the
//    proximity rows are produced, not in how many cores happen to be busy.
//  * The suite's largest graph. Fusion pays when operands stream from
//    memory; at the small graph's ~2k nodes every per-query vector is
//    cache-resident and one CSR pass per B rows saves nothing.
void RunBatchingSweep(std::vector<BatchingRow>* rows,
                      BatchingRow* occupancy) {
  constexpr int kClients = 16;
  constexpr int kWorkers = 1;
  constexpr size_t kMaxBatch = 16;
  constexpr double kBatchWindow = 0.0005;
  auto suite = MakeGraphSuite(3);
  if (suite.empty()) return;
  {
    NamedGraph& named = suite.back();  // largest graph of the suite
    EngineOptions opts;
    opts.capacity_k = 50;
    opts.hub_selection.degree_budget_b = named.graph.num_nodes() / 50 + 1;
    auto engine = ReverseTopkEngine::Build(Graph(named.graph), opts);
    if (!engine.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   engine.status().ToString().c_str());
      return;
    }
    Rng rng(23);
    const std::vector<uint32_t> workload =
        SampleQueries((*engine)->graph(), NumQueries(400),
                      QueryDistribution::kInDegreeBiased, &rng);

    // Closed loop: each client blocks on its own request's future, so the
    // instantaneous backlog is at most kClients and the batch former sees
    // steady queue depth.
    const auto run_closed_loop = [&](size_t max_batch, ServingStats* stats,
                                     MetricsSnapshot* metrics) {
      ServingOptions serving_opts;
      serving_opts.num_threads = kWorkers;
      serving_opts.max_pending = 0;  // closed loop never sheds
      serving_opts.cache.capacity = 0;
      serving_opts.max_batch = max_batch;
      serving_opts.batch_window = max_batch > 1 ? kBatchWindow : 0.0;
      auto serving = ServingEngine::Create(**engine, serving_opts);
      if (!serving.ok()) return -1.0;
      const double seconds =
          RunThreaded(workload, kClients, [&](uint32_t q) {
            QueryRequest request;
            request.query = q;
            request.k = kQueryK;
            request.tier = AccuracyTier::kApproximateHitsOnly;
            request.bypass_cache = true;
            auto response = (*serving)->Submit(std::move(request)).get();
            if (!response.ok()) std::abort();
          });
      *stats = (*serving)->stats();
      *metrics = (*serving)->Metrics();
      return seconds;
    };

    ServingStats solo_stats, batched_stats;
    MetricsSnapshot solo_metrics, batched_metrics;
    const double solo_seconds =
        run_closed_loop(1, &solo_stats, &solo_metrics);
    const double batched_seconds =
        run_closed_loop(kMaxBatch, &batched_stats, &batched_metrics);
    if (solo_seconds < 0 || batched_seconds < 0) return;

    const auto histogram_sum = [](const MetricsSnapshot& metrics,
                                  const char* name) {
      const HistogramSnapshot* h = metrics.HistogramOf(name);
      return h == nullptr ? 0.0 : h->sum_seconds;
    };
    BatchingRow row;
    row.graph = named.name;
    row.clients = kClients;
    row.workers = kWorkers;
    row.max_batch = kMaxBatch;
    row.batch_window = kBatchWindow;
    const double n = static_cast<double>(workload.size());
    row.unbatched_qps = n / solo_seconds;
    row.batched_qps = n / batched_seconds;
    row.speedup = solo_seconds / batched_seconds;
    row.batches = batched_stats.batches;
    row.batched_queries = batched_stats.batched_queries;
    row.mean_batch =
        static_cast<double>(batched_stats.batched_queries) /
        std::max<double>(1.0, static_cast<double>(batched_stats.batches));
    row.peak_batch = batched_stats.peak_batch_size;
    row.fused_proximity_seconds =
        histogram_sum(batched_metrics, "rtk_serving_fused_proximity_seconds");
    row.batched_proximity_seconds =
        histogram_sum(batched_metrics, "rtk_serving_proximity_seconds");
    row.solo_proximity_seconds =
        histogram_sum(solo_metrics, "rtk_serving_proximity_seconds");

    std::printf("\nbatching sweep on %s: %d clients, %d workers, "
                "max_batch=%zu, window=%.1fms (closed loop, cache off)\n",
                named.name.c_str(), kClients, kWorkers, kMaxBatch,
                kBatchWindow * 1e3);
    std::printf("  unbatched %.1f q/s -> batched %.1f q/s (%.2fx); "
                "occupancy mean %.1f peak %zu over %llu batches; "
                "proximity %.2fs solo vs %.2fs fused-wall\n",
                row.unbatched_qps, row.batched_qps, row.speedup,
                row.mean_batch, row.peak_batch,
                static_cast<unsigned long long>(row.batches),
                row.solo_proximity_seconds, row.fused_proximity_seconds);
    *occupancy = row;
    rows->push_back(std::move(row));
  }
}

// Mutation sweep: the mixed read/write open-loop comparison. Phase 1
// measures p50/p95 of hits-only reads offered open-loop at ~0.5x the
// calibrated capacity (headroom, so the read-only tail is the pipeline's,
// not a saturation artifact). Phase 2 replays the identical read schedule
// while a background writer applies insert/then-delete toggle batches
// through ApplyUpdates as fast as each publish resolves. Reads use the
// hits-only tier (stable per-read cost across repair modes — exact-tier
// refinement cost depends on how much state the last repair reset, which
// would measure the index's tightness, not publish interference) with the
// cache off (every read does real work in both phases).
void RunMutationSweep(std::vector<MutationRow>* rows) {
  constexpr int kWorkers = 2;
  constexpr size_t kUpdatesPerBatch = 4;
  for (auto& named : MakeGraphSuite(1)) {
    EngineOptions opts;
    opts.capacity_k = 50;
    opts.hub_selection.degree_budget_b = named.graph.num_nodes() / 50 + 1;
    auto engine = ReverseTopkEngine::Build(Graph(named.graph), opts);
    if (!engine.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   engine.status().ToString().c_str());
      continue;
    }
    Rng rng(17);
    const std::vector<uint32_t> workload =
        SampleQueries((*engine)->graph(), NumQueries(300),
                      QueryDistribution::kInDegreeBiased, &rng);

    // A toggle set of edges absent from the base graph: inserting then
    // deleting the same set keeps every batch valid no matter how many
    // rounds run, and returns the graph to its base state between rounds.
    std::vector<EdgeUpdate> inserts;
    {
      Rng erng(18);
      const Graph& g = (*engine)->graph();
      while (inserts.size() < kUpdatesPerBatch) {
        const auto u = static_cast<uint32_t>(erng.Uniform(g.num_nodes()));
        const auto v = static_cast<uint32_t>(erng.Uniform(g.num_nodes()));
        const auto nbrs = g.OutNeighbors(u);
        if (u == v || std::binary_search(nbrs.begin(), nbrs.end(), v)) {
          continue;
        }
        bool dup = false;
        for (const EdgeUpdate& e : inserts) {
          if (e.src == u && e.dst == v) dup = true;
        }
        if (!dup) inserts.push_back(EdgeUpdate::Insert(u, v));
      }
    }
    std::vector<EdgeUpdate> deletes;
    deletes.reserve(inserts.size());
    for (const EdgeUpdate& e : inserts) {
      deletes.push_back(EdgeUpdate::Delete(e.src, e.dst));
    }

    // Calibrate hits-only capacity closed-loop, then offer half of it.
    double capacity_qps;
    {
      ServingOptions calibrate_opts;
      calibrate_opts.num_threads = kWorkers;
      calibrate_opts.max_pending = 0;
      calibrate_opts.cache.capacity = 0;
      auto serving = ServingEngine::Create(**engine, calibrate_opts);
      if (!serving.ok()) continue;
      Stopwatch watch;
      RunThreaded(workload, kWorkers, [&](uint32_t q) {
        QueryRequest request;
        request.query = q;
        request.k = kQueryK;
        request.tier = AccuracyTier::kApproximateHitsOnly;
        request.bypass_cache = true;
        if (!(*serving)->Submit(std::move(request)).get().ok()) std::abort();
      });
      capacity_qps =
          static_cast<double>(workload.size()) / watch.ElapsedSeconds();
    }
    const double offered_qps = capacity_qps * 0.5;

    // Phase reads: cycle the sampled workload up to a fixed count large
    // enough that p95 is a stable order statistic (the sweep gates a 2x
    // ratio of bucketed percentiles — small samples make that flaky).
    std::vector<uint32_t> phase_reads;
    phase_reads.reserve(std::max<size_t>(400, workload.size()));
    for (size_t i = 0; i < phase_reads.capacity(); ++i) {
      phase_reads.push_back(workload[i % workload.size()]);
    }

    struct PhaseStats {
      double p50_ms = 0.0;
      double p95_ms = 0.0;
      double publish_p50_ms = 0.0;
      uint64_t batches = 0;
      uint64_t updates = 0;
      uint64_t reads = 0;
    };

    // One open-loop read phase; with `mutate`, a background writer races
    // it. Returns the engine's own latency histogram percentiles.
    const auto run_phase = [&](bool mutate, PhaseStats* out) {
      ServingOptions serving_opts;
      serving_opts.num_threads = kWorkers;
      serving_opts.max_pending = 0;  // measure latency, not shedding
      serving_opts.cache.capacity = 0;
      auto serving = ServingEngine::Create(**engine, serving_opts);
      if (!serving.ok()) return false;

      std::atomic<bool> stop{false};
      std::thread writer;
      if (mutate) {
        writer = std::thread([&] {
          // A paced stream, not a saturating loop: back-to-back publishes
          // would measure CPU contention against an unbounded writer,
          // which no deployment runs. The interval keeps the drain duty
          // cycle in the low single-digit percent, so on a box with more
          // mutation work than cores the p95 read still lands outside
          // the repair slices — what the 2x gate is meant to measure is
          // lock coupling (reads stalling on a publish), not raw CPU
          // sharing.
          constexpr auto kInterval = std::chrono::milliseconds(150);
          bool inserted = false;
          while (!stop.load(std::memory_order_relaxed)) {
            GraphUpdateBatch batch = inserted ? deletes : inserts;
            MutationResult r =
                (*serving)->ApplyUpdates(std::move(batch)).get();
            if (!r.ok()) std::abort();
            inserted = !inserted;
            std::this_thread::sleep_for(kInterval);
          }
          // Leave the graph in its base state so phases stay comparable
          // round to round.
          if (inserted) {
            (void)(*serving)->ApplyUpdates(GraphUpdateBatch(deletes)).get();
          }
        });
      }
      std::vector<std::future<QueryResponse>> futures;
      futures.reserve(phase_reads.size());
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < phase_reads.size(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / offered_qps)));
        QueryRequest request;
        request.query = phase_reads[i];
        request.k = kQueryK;
        request.tier = AccuracyTier::kApproximateHitsOnly;
        request.bypass_cache = true;
        futures.push_back((*serving)->Submit(std::move(request)));
      }
      for (auto& future : futures) {
        if (!future.get().ok()) return false;
      }
      stop.store(true, std::memory_order_relaxed);
      if (writer.joinable()) writer.join();

      const MetricsSnapshot metrics = (*serving)->Metrics();
      const HistogramSnapshot* latency =
          metrics.HistogramOf("rtk_serving_request_seconds");
      const HistogramSnapshot empty;
      if (latency == nullptr) latency = &empty;
      const ServingStats stats = (*serving)->stats();
      out->p50_ms = latency->Percentile(50) * 1e3;
      out->p95_ms = latency->Percentile(95) * 1e3;
      out->reads = stats.queries;
      if (mutate) {
        out->batches = stats.mutation_batches;
        out->updates = stats.mutation_updates;
        const HistogramSnapshot* publish =
            metrics.HistogramOf("rtk_serving_mutation_publish_seconds");
        if (publish != nullptr) {
          out->publish_p50_ms = publish->Percentile(50) * 1e3;
        }
      }
      return true;
    };

    // Best-of-3 alternating rounds. Scheduler noise only INFLATES a
    // percentile, so min-across-rounds is the stable estimator of each
    // phase's true latency — without it the 2x gate flakes on loaded or
    // single-core CI boxes. Counters accumulate across rounds.
    constexpr int kRounds = 3;
    MutationRow row;
    row.graph = named.name;
    row.workers = kWorkers;
    row.offered_qps = offered_qps;
    row.read_only_p95_ms = row.mutation_p95_ms = 1e30;
    row.read_only_p50_ms = row.mutation_p50_ms = 1e30;
    bool ok = true;
    for (int round = 0; ok && round < kRounds; ++round) {
      PhaseStats alone, racing;
      ok = run_phase(/*mutate=*/false, &alone) &&
           run_phase(/*mutate=*/true, &racing);
      if (!ok) break;
      row.read_only_p50_ms = std::min(row.read_only_p50_ms, alone.p50_ms);
      row.read_only_p95_ms = std::min(row.read_only_p95_ms, alone.p95_ms);
      row.mutation_p50_ms = std::min(row.mutation_p50_ms, racing.p50_ms);
      row.mutation_p95_ms = std::min(row.mutation_p95_ms, racing.p95_ms);
      row.mutations_applied += racing.batches;
      row.mutation_updates += racing.updates;
      row.reads += alone.reads + racing.reads;
      if (round == 0 || racing.publish_p50_ms < row.mutation_publish_p50_ms) {
        row.mutation_publish_p50_ms = racing.publish_p50_ms;
      }
    }
    if (!ok) continue;
    row.p95_ratio = row.mutation_p95_ms /
                    std::max(row.read_only_p95_ms, 1e-9);
    std::printf("\nmutation sweep on %s: %d workers, %.0f reads/s offered "
                "(hits-only, cache off), %zu-edge toggle batches\n",
                named.name.c_str(), kWorkers, offered_qps, kUpdatesPerBatch);
    std::printf("  read-only p50/p95 %.2f/%.2f ms; under mutation "
                "p50/p95 %.2f/%.2f ms (p95 ratio %.2fx); %llu batches "
                "(%llu updates) published, publish p50 %.2f ms\n",
                row.read_only_p50_ms, row.read_only_p95_ms,
                row.mutation_p50_ms, row.mutation_p95_ms, row.p95_ratio,
                static_cast<unsigned long long>(row.mutations_applied),
                static_cast<unsigned long long>(row.mutation_updates),
                row.mutation_publish_p50_ms);
    rows->push_back(std::move(row));
  }
}

// Publish-cost sweep: clone-and-apply a synthetic delta batch against one
// index resharded to several widths. The point the numbers make: publish
// cost (time and shards copied) tracks the batch size, never n — the CoW
// table shares every clean shard with the outgoing snapshot — and a
// privatized shard copies its bound and residue arrays plus one BCA-state
// pointer per row (bytes per shard), never the states themselves.
void RunPublishSweep(std::vector<PublishRow>* rows) {
  for (auto& named : MakeGraphSuite(1)) {
    const uint32_t n = named.graph.num_nodes();
    TransitionOperator op(named.graph);
    auto hubs = SelectHubs(named.graph,
                           {.degree_budget_b = n / 50 + 1});
    if (!hubs.ok()) continue;
    IndexBuildOptions build_opts;
    build_opts.capacity_k = 50;
    // Coarse termination leaves most nodes refinable (residue > 0), like a
    // freshly built production index; the sweep's synthetic deltas tighten
    // those nodes.
    build_opts.bca.delta = 0.5;
    auto base = BuildLowerBoundIndex(op, *hubs, build_opts);
    if (!base.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   base.status().ToString().c_str());
      continue;
    }
    std::vector<uint32_t> refinable;
    refinable.reserve(n);
    for (uint32_t u = 0; u < n; ++u) {
      if (!base->IsExact(u)) refinable.push_back(u);
    }
    if (refinable.empty()) continue;

    std::printf("\npublish cost on %s (n=%u): CoW clone + delta batch\n",
                named.name.c_str(), n);
    std::printf("%-12s %8s %8s %10s %13s %14s %12s\n", "shard-nodes",
                "shards", "deltas", "applied", "shards-copied",
                "bytes/shard", "ms/publish");
    for (uint32_t shard_nodes : {64u, 256u, 1024u}) {
      const LowerBoundIndex sharded(*base, shard_nodes);
      for (size_t deltas : {1u, 8u, 64u, 512u}) {
        const size_t batch = std::min<size_t>(deltas, refinable.size());
        // Distinct refinable nodes spread across the id space (worst case
        // for CoW: maximally many dirty shards), each strictly tighter
        // than stored.
        std::vector<IndexDelta> batch_deltas;
        batch_deltas.reserve(batch);
        const size_t stride = std::max<size_t>(1, refinable.size() / batch);
        for (size_t i = 0; i < batch; ++i) {
          const uint32_t u = refinable[(i * stride) % refinable.size()];
          const auto row = sharded.LowerBounds(u);
          IndexDelta delta;
          delta.node = u;
          delta.topk.assign(row.begin(), row.end());
          delta.residue_l1 = sharded.ResidueL1(u) / 2.0;
          batch_deltas.push_back(std::move(delta));
        }

        constexpr int kReps = 20;
        uint64_t applied = 0, copied = 0, bytes = 0;
        Stopwatch watch;
        for (int rep = 0; rep < kReps; ++rep) {
          LowerBoundIndex next(sharded);  // the epoch clone
          applied = 0;
          for (const IndexDelta& delta : batch_deltas) {
            if (next.ApplyIfTighter(delta)) ++applied;
          }
          copied = next.cow_shard_copies();
          bytes = next.cow_bytes_copied();
        }
        const double ms = watch.ElapsedSeconds() / kReps * 1e3;
        const double per_shard =
            copied == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(copied);
        std::printf("%-12u %8u %8zu %10llu %13llu %14.0f %12.3f\n",
                    shard_nodes, sharded.num_shards(), batch,
                    static_cast<unsigned long long>(applied),
                    static_cast<unsigned long long>(copied), per_shard, ms);
        rows->push_back({named.name, n, shard_nodes, sharded.num_shards(),
                         build_opts.capacity_k, batch, applied, copied, bytes,
                         per_shard, ms});
      }
    }
  }
}

void WriteBatchingRow(JsonWriter& json, const BatchingRow& row) {
  json.BeginObject();
  json.Key("graph").String(row.graph);
  json.Key("clients").Int(row.clients);
  json.Key("workers").Int(row.workers);
  json.Key("max_batch").Int(static_cast<long long>(row.max_batch));
  json.Key("batch_window").Double(row.batch_window);
  json.Key("unbatched_qps").Double(row.unbatched_qps);
  json.Key("batched_qps").Double(row.batched_qps);
  json.Key("speedup").Double(row.speedup);
  json.Key("batches").Int(static_cast<long long>(row.batches));
  json.Key("batched_queries").Int(static_cast<long long>(row.batched_queries));
  json.Key("mean_batch").Double(row.mean_batch);
  json.Key("peak_batch").Int(static_cast<long long>(row.peak_batch));
  json.Key("fused_proximity_seconds").Double(row.fused_proximity_seconds);
  json.Key("batched_proximity_seconds")
      .Double(row.batched_proximity_seconds);
  json.Key("solo_proximity_seconds").Double(row.solo_proximity_seconds);
  json.EndObject();
}

void WriteJson(const std::string& path,
               const std::vector<ThroughputRow>& rows,
               const std::vector<OverloadRow>& overload_rows,
               const std::vector<PublishRow>& publish_rows,
               const std::vector<BatchingRow>& batching_rows,
               const BatchingRow& occupancy,
               const std::vector<MutationRow>& mutation_rows,
               const std::string& metrics_json) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("serving_throughput");
  json.Key("k").Int(kQueryK);
  json.Key("storage_tier")
      .String(g_storage_tier == StorageTier::kMmap ? "mmap" : "heap");
  // Batch-former occupancy of the batching sweep's last configuration:
  // how full fused batches ran and where proximity time went.
  json.Key("batch_occupancy");
  WriteBatchingRow(json, occupancy);
  json.Key("batching_sweep").BeginArray();
  for (const BatchingRow& row : batching_rows) WriteBatchingRow(json, row);
  json.EndArray();
  // The serving engine's full metrics snapshot (counters, gauges, latency
  // histograms) from the head-to-head's final configuration.
  json.Key("metrics").Raw(metrics_json.empty() ? "{}" : metrics_json);
  json.Key("rows").BeginArray();
  for (const ThroughputRow& row : rows) {
    json.BeginObject();
    json.Key("graph").String(row.graph);
    json.Key("threads").Int(row.threads);
    json.Key("mutex_qps").Double(row.mutex_qps);
    json.Key("serving_qps").Double(row.serving_qps);
    json.Key("speedup").Double(row.speedup);
    json.Key("cache_hit_pct").Double(row.cache_hit_pct);
    json.EndObject();
  }
  json.EndArray();
  json.Key("overload_sweep").BeginArray();
  for (const OverloadRow& row : overload_rows) {
    json.BeginObject();
    json.Key("graph").String(row.graph);
    json.Key("workers").Int(row.workers);
    json.Key("max_pending").Int(static_cast<long long>(row.max_pending));
    json.Key("offered_qps").Double(row.offered_qps);
    json.Key("achieved_qps").Double(row.achieved_qps);
    json.Key("p50_ms").Double(row.p50_ms);
    json.Key("p95_ms").Double(row.p95_ms);
    json.Key("p99_ms").Double(row.p99_ms);
    json.Key("completed").Int(static_cast<long long>(row.completed));
    json.Key("shed").Int(static_cast<long long>(row.shed));
    json.Key("requests").Int(static_cast<long long>(row.requests));
    json.EndObject();
  }
  json.EndArray();
  json.Key("mutation_sweep").BeginArray();
  for (const MutationRow& row : mutation_rows) {
    json.BeginObject();
    json.Key("graph").String(row.graph);
    json.Key("workers").Int(row.workers);
    json.Key("offered_qps").Double(row.offered_qps);
    json.Key("read_only_p50_ms").Double(row.read_only_p50_ms);
    json.Key("read_only_p95_ms").Double(row.read_only_p95_ms);
    json.Key("mutation_p50_ms").Double(row.mutation_p50_ms);
    json.Key("mutation_p95_ms").Double(row.mutation_p95_ms);
    json.Key("p95_ratio").Double(row.p95_ratio);
    json.Key("mutations_applied")
        .Int(static_cast<long long>(row.mutations_applied));
    json.Key("mutation_updates")
        .Int(static_cast<long long>(row.mutation_updates));
    json.Key("reads").Int(static_cast<long long>(row.reads));
    json.Key("mutation_publish_p50_ms").Double(row.mutation_publish_p50_ms);
    json.EndObject();
  }
  json.EndArray();
  json.Key("publish_sweep").BeginArray();
  for (const PublishRow& row : publish_rows) {
    json.BeginObject();
    json.Key("graph").String(row.graph);
    json.Key("num_nodes").Int(row.num_nodes);
    json.Key("shard_nodes").Int(row.shard_nodes);
    json.Key("num_shards").Int(row.num_shards);
    json.Key("capacity_k").Int(row.capacity_k);
    json.Key("deltas").Int(static_cast<long long>(row.deltas));
    json.Key("applied").Int(static_cast<long long>(row.applied));
    json.Key("shards_copied").Int(static_cast<long long>(row.shards_copied));
    json.Key("bytes_copied").Int(static_cast<long long>(row.bytes_copied));
    json.Key("bytes_per_shard").Double(row.bytes_per_shard);
    json.Key("publish_ms").Double(row.publish_ms);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteTo(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("json written to %s\n", path.c_str());
}

}  // namespace
}  // namespace rtk::bench

int main(int argc, char** argv) {
  rtk::bench::PrintHeader(
      "Serving throughput: ServingEngine vs mutex-serialized engine",
      "queries/sec over a skewed query log (repeats exercise the cache); "
      "speedup = mutex time / serving time at equal thread count");
  const std::string json_path = rtk::bench::JsonPathArg(argc, argv);
  if (!rtk::bench::ParseStorageTierArg(argc, argv)) return 1;
  std::vector<rtk::bench::ThroughputRow> rows;
  std::string metrics_json;
  rtk::bench::RunSuite(&rows, &metrics_json);
  std::vector<rtk::bench::OverloadRow> overload_rows;
  rtk::bench::RunOverloadSweep(&overload_rows);
  std::vector<rtk::bench::BatchingRow> batching_rows;
  rtk::bench::BatchingRow occupancy;
  rtk::bench::RunBatchingSweep(&batching_rows, &occupancy);
  std::vector<rtk::bench::MutationRow> mutation_rows;
  rtk::bench::RunMutationSweep(&mutation_rows);
  std::vector<rtk::bench::PublishRow> publish_rows;
  rtk::bench::RunPublishSweep(&publish_rows);
  if (!json_path.empty()) {
    rtk::bench::WriteJson(json_path, rows, overload_rows, publish_rows,
                          batching_rows, occupancy, mutation_rows,
                          metrics_json);
  }
  return 0;
}
