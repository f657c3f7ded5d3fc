// Table 2: index construction time and space cost, per graph, for a sweep
// of the hub parameter B.
//
// Paper columns reproduced per graph:
//   B, |H|, construction time, no-rounding space, actual space,
//   Theorem-1 predicted space (beta = 0.76 per Bahmani et al. [4]),
//   plus the brute-force comparison (time to compute the entire exact P,
//   extrapolated from a sample of power-method solves) and the minimum
//   possible index (the top-K matrix alone).

#include <cinttypes>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bca/hub_selection.h"
#include "common/thread_pool.h"
#include "graph/graph_analysis.h"
#include "index/index_builder.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace {

using namespace rtk;
using namespace rtk::bench;

struct BuildRow {
  std::string graph;
  uint32_t num_nodes = 0;
  uint32_t hub_budget_b = 0;
  uint32_t num_hubs = 0;
  double build_seconds = 0.0;
  uint64_t actual_bytes = 0;
  uint64_t no_round_bytes = 0;
  uint64_t predicted_bytes_076 = 0;
  uint64_t predicted_bytes_fit = 0;
};

// Extrapolates the full-P computation time from `sample` PM solves.
double EstimateFullMatrixSeconds(const TransitionOperator& op,
                                 uint32_t sample) {
  Stopwatch watch;
  Rng rng(5);
  for (uint32_t i = 0; i < sample; ++i) {
    const uint32_t u = static_cast<uint32_t>(rng.Uniform(op.num_nodes()));
    auto col = ComputeProximityColumn(op, u);
    if (!col.ok()) return -1.0;
  }
  return watch.ElapsedSeconds() / sample * op.num_nodes();
}

void RunGraph(const NamedGraph& named, uint32_t capacity_k,
              ThreadPool* pool, std::vector<BuildRow>* rows) {
  const Graph& graph = named.graph;
  TransitionOperator op(graph);
  const uint32_t n = graph.num_nodes();
  std::printf("\n%s (stand-in for %s): n=%u m=%" PRIu64 ", K=%u\n",
              named.name.c_str(), named.stand_for.c_str(), n,
              graph.num_edges(), capacity_k);

  const double full_p_seconds = EstimateFullMatrixSeconds(op, 16);
  const double full_p_bytes = static_cast<double>(n) * n * 8.0;
  std::printf("entire-P baseline: ~%.1f s (extrapolated), %s dense\n",
              full_p_seconds, HumanBytes(full_p_bytes).c_str());
  std::printf("top-K floor (P_hat only): %s\n",
              HumanBytes(static_cast<uint64_t>(n) * capacity_k * 8).c_str());

  // Theorem 1 needs the proximity power-law exponent beta; the paper plugs
  // in 0.76 from the literature, and we also estimate it from a sample
  // column of this graph (graph_analysis.h) for a fitted prediction.
  double fitted_beta = 0.76;
  if (auto col = ComputeProximityColumn(op, 0); col.ok()) {
    if (auto beta = EstimatePowerLawExponent(*col);
        beta.ok() && *beta > 0.0 && *beta < 1.0) {
      fitted_beta = *beta;
    }
  }
  std::printf("fitted proximity beta: %.3f (prediction column 'pred-fit')\n",
              fitted_beta);

  std::printf("%-8s %-6s %-9s %-14s %-14s %-14s %-14s\n", "B", "|H|",
              "time(s)", "no-round", "actual", "pred-0.76", "pred-fit");
  for (uint32_t b : {n / 100 + 1, n / 50 + 1, n / 25 + 1, n / 12 + 1}) {
    HubSelectionOptions hub_opts;
    hub_opts.degree_budget_b = b;
    auto hubs = SelectHubs(graph, hub_opts);
    if (!hubs.ok()) continue;

    IndexBuildOptions build_opts;
    build_opts.capacity_k = capacity_k;
    build_opts.hub_store.rounding_omega = 1e-6;
    IndexBuildReport report;
    Stopwatch watch;
    auto index = BuildLowerBoundIndex(op, *hubs, build_opts, pool, &report);
    if (!index.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   index.status().ToString().c_str());
      continue;
    }
    const IndexStats stats = index->ComputeStats();
    // A hub entry is an id and a value, 12 bytes: what the paper prices
    // and what P_H stores (two flat arrays).
    constexpr uint64_t kHubEntryBytes = sizeof(uint32_t) + sizeof(double);
    // "No rounding" adds back the dropped hub entries at 12 bytes each,
    // mirroring the paper's no-rounding line.
    const uint64_t no_round_bytes =
        stats.TotalBytes() + stats.hub_entries_dropped * kHubEntryBytes;
    // Theorem 1: per-hub entries l*, 12 bytes each, plus the top-K floor —
    // once with the paper's beta = 0.76 and once with the fitted beta.
    auto predicted_bytes = [&](double beta) {
      return static_cast<double>(n) * capacity_k * 8.0 +
             HubProximityStore::PredictedEntriesPerHub(n, 1e-6, beta) *
                 stats.num_hubs * kHubEntryBytes;
    };
    std::printf(
        "%-8u %-6u %-9.2f %-14s %-14s %-14s %-14s\n", b, stats.num_hubs,
        watch.ElapsedSeconds(), HumanBytes(no_round_bytes).c_str(),
        HumanBytes(stats.TotalBytes()).c_str(),
        HumanBytes(static_cast<uint64_t>(predicted_bytes(0.76))).c_str(),
        HumanBytes(static_cast<uint64_t>(predicted_bytes(fitted_beta)))
            .c_str());
    rows->push_back({named.name, n, b, stats.num_hubs, watch.ElapsedSeconds(),
                     stats.TotalBytes(), no_round_bytes,
                     static_cast<uint64_t>(predicted_bytes(0.76)),
                     static_cast<uint64_t>(predicted_bytes(fitted_beta))});
  }
}

void WriteJson(const std::string& path, uint32_t capacity_k,
               const std::vector<BuildRow>& rows) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("table2_index_build");
  json.Key("capacity_k").Int(capacity_k);
  json.Key("rows").BeginArray();
  for (const BuildRow& row : rows) {
    json.BeginObject();
    json.Key("graph").String(row.graph);
    json.Key("num_nodes").Int(row.num_nodes);
    json.Key("hub_budget_b").Int(row.hub_budget_b);
    json.Key("num_hubs").Int(row.num_hubs);
    json.Key("build_seconds").Double(row.build_seconds);
    json.Key("actual_bytes").Int(static_cast<long long>(row.actual_bytes));
    json.Key("no_round_bytes").Int(static_cast<long long>(row.no_round_bytes));
    json.Key("predicted_bytes_076")
        .Int(static_cast<long long>(row.predicted_bytes_076));
    json.Key("predicted_bytes_fit")
        .Int(static_cast<long long>(row.predicted_bytes_fit));
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

int main(int argc, char** argv) {
  PrintHeader("Table 2: index construction time and space vs hub budget B",
              "paper shape: construction is a small fraction of entire-P "
              "cost;\nactual space beats the no-rounding space and usually "
              "the prediction");
  const std::string json_path = JsonPathArg(argc, argv);
  ThreadPool pool(ThreadPool::DefaultThreads());
  const uint32_t capacity_k =
      static_cast<uint32_t>(EnvInt64("RTK_BENCH_K", 100));
  std::vector<BuildRow> rows;
  for (const auto& named : MakeGraphSuite()) {
    RunGraph(named, capacity_k, &pool, &rows);
  }
  if (!json_path.empty()) WriteJson(json_path, capacity_k, rows);
  return 0;
}
