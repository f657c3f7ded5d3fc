// Observability walkthrough: scraping a live ServingEngine.
//
// Stands up a small serving engine, drives a mixed workload from a client
// thread, and — concurrently, the way a monitoring agent would — scrapes
// the engine's metrics on a fixed cadence, printing a few key
// series each tick. After the workload drains it prints the full
// Prometheus text exposition, the JSON form, the most recent request
// traces from the trace ring, and any slow-query captures.
//
// The scrape loop is the part to copy into a real exporter: Metrics() is
// safe to call from any thread at any time (recording is lock-free and
// never blocks on a scrape), so an HTTP handler can simply return
// engine.Metrics().ToPrometheusText().
//
// Build: cmake --build build --target example_metrics_export

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "rtk/rtk.h"

using namespace rtk;

int main() {
  Rng rng(42);
  auto graph = Rmat(11, 16000, &rng);
  if (!graph.ok()) return 1;
  auto engine = ReverseTopkEngine::Build(std::move(*graph), {});
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  ServingOptions options;
  options.num_threads = 2;
  // Capture generously for the demo: keep 128 traces and call anything
  // over 1 ms "slow" so the log has something to show.
  options.trace_ring_capacity = 128;
  options.slow_query_threshold_seconds = 1e-3;
  auto serving = ServingEngine::Create(**engine, options);
  if (!serving.ok()) return 1;

  // Client thread: a skewed query log with repeats (cache hits) and a few
  // approximate-tier requests, submitted closed-loop.
  std::atomic<bool> done{false};
  std::thread client([&] {
    Rng workload_rng(7);
    const std::vector<uint32_t> workload =
        SampleQueries((*engine)->graph(), 400,
                      QueryDistribution::kInDegreeBiased, &workload_rng);
    std::vector<QueryRequest> requests;
    requests.reserve(workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      QueryRequest request;
      request.query = workload[i];
      request.k = 10;
      if (i % 5 == 0) request.tier = AccuracyTier::kApproximateHitsOnly;
      requests.push_back(std::move(request));
    }
    (*serving)->SubmitBatch(std::move(requests));
    done.store(true);
  });

  // Scrape loop: sample the metrics every 50 ms while traffic flows.
  // This is the monitoring-agent side — it shares no state with the
  // client beyond the engine itself.
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const MetricsSnapshot snap = (*serving)->Metrics();
    const HistogramSnapshot* latency =
        snap.HistogramOf("rtk_serving_request_seconds");
    std::printf("scrape: %5.0f queries  depth %.0f  cache hits %.0f  "
                "p95 %s\n",
                snap.ValueOf("rtk_serving_queries_total"),
                snap.ValueOf("rtk_serving_queue_depth"),
                snap.ValueOf("rtk_serving_cache_hits_total"),
                latency == nullptr
                    ? "n/a"
                    : HumanSeconds(latency->Percentile(95)).c_str());
  }
  client.join();

  const MetricsSnapshot final_snap = (*serving)->Metrics();
  std::printf("\n--- Prometheus text exposition ---\n%s",
              final_snap.ToPrometheusText().c_str());
  std::printf("\n--- JSON ---\n%s\n", final_snap.ToJson().c_str());

  const std::vector<QueryTrace> traces = (*serving)->RecentTraces();
  std::printf("\n--- last %zu traces (of %zu retained) ---\n",
              std::min<size_t>(5, traces.size()), traces.size());
  for (size_t i = traces.size() > 5 ? traces.size() - 5 : 0;
       i < traces.size(); ++i) {
    std::printf("%s\n", traces[i].ToString().c_str());
  }

  const std::vector<QueryTrace> slow = (*serving)->SlowQueries();
  std::printf("\n--- slow queries (>= %s): %zu ---\n",
              HumanSeconds(options.slow_query_threshold_seconds).c_str(),
              slow.size());
  for (const QueryTrace& trace : slow) {
    std::printf("%s\n", trace.ToString().c_str());
  }
  return 0;
}
