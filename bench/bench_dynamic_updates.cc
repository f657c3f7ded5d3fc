// Evolving-graph maintenance (the paper's Section 7 future work):
// incremental index maintenance vs full rebuild, across update batch
// sizes, both through the serving engine's mutation drain
// (ServingEngine::ApplyUpdates).
//
// Both arms are offline bulk maintenance: mutation_threads = 0 lends the
// drain the idle query pool. The incremental arm sets both mutation
// fractions to 0.5, so a batch whose affected set passes half the nodes
// falls back to a rebuild; the rebuild arm sets both to 0, so every batch
// rebuilds the whole index.
//
// Expected shape: the incremental path's cost tracks the affected-set
// size, which for localized updates on web-like graphs is a small
// fraction of n — so incremental beats rebuild by a wide margin for small
// batches, with the gap narrowing as batches grow (and a forced fallback
// once the affected set passes the rebuild fraction). The hubs column
// counts the affected hubs, each an exact vector the repair re-solves.

#include <set>

#include "bench_common.h"
#include "core/engine.h"
#include "serving/serving_engine.h"

namespace {

using namespace rtk;
using namespace rtk::bench;

// A batch of `size` random inserts + deletes against the current graph.
std::vector<EdgeUpdate> MakeBatch(const Graph& graph, size_t size, Rng* rng) {
  std::set<std::pair<uint32_t, uint32_t>> existing;
  for (uint32_t u = 0; u < graph.num_nodes(); ++u) {
    for (uint32_t v : graph.OutNeighbors(u)) existing.insert({u, v});
  }
  std::vector<EdgeUpdate> batch;
  while (batch.size() < size / 2 + 1) {  // inserts
    const auto u = static_cast<uint32_t>(rng->Uniform(graph.num_nodes()));
    const auto v = static_cast<uint32_t>(rng->Uniform(graph.num_nodes()));
    if (u == v || existing.count({u, v})) continue;
    existing.insert({u, v});
    batch.push_back(EdgeUpdate::Insert(u, v));
  }
  while (batch.size() < size) {  // deletes (keep sources non-dangling)
    const auto u = static_cast<uint32_t>(rng->Uniform(graph.num_nodes()));
    const auto nbrs = graph.OutNeighbors(u);
    if (nbrs.size() < 2) continue;
    const uint32_t v = nbrs[rng->Uniform(nbrs.size())];
    if (!existing.count({u, v})) continue;  // deleted already in this batch
    existing.erase({u, v});
    batch.push_back(EdgeUpdate::Delete(u, v));
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Evolving graphs: incremental maintenance vs full rebuild",
              "paper Section 7 future work; correctness asserted per batch");
  const std::string json_path = JsonPathArg(argc, argv);
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("dynamic_updates");
  json.Key("rows").BeginArray();

  auto suite = MakeGraphSuite(2);
  for (const NamedGraph& named : suite) {
    std::printf("\n%s (stand-in for %s): n=%u m=%llu\n", named.name.c_str(),
                named.stand_for.c_str(), named.graph.num_nodes(),
                static_cast<unsigned long long>(named.graph.num_edges()));
    std::printf("%-8s %-12s %-12s %-10s %-10s %-8s %-9s\n", "batch",
                "incr-sec", "rebuild-sec", "speedup", "affected", "hubs",
                "fallback");

    for (size_t batch_size : {2ul, 8ul, 32ul, 128ul}) {
      EngineOptions engine_opts;
      engine_opts.capacity_k = 50;
      engine_opts.hub_selection.degree_budget_b =
          named.graph.num_nodes() / 50 + 1;
      auto engine = ReverseTopkEngine::Build(named.graph, engine_opts);
      if (!engine.ok()) return 1;
      ServingOptions incr_opts;
      incr_opts.mutation_threads = 0;
      incr_opts.mutation_repair_fraction = 0.5;
      incr_opts.mutation_rebuild_fraction = 0.5;
      ServingOptions rebuild_opts = incr_opts;
      rebuild_opts.mutation_repair_fraction = 0.0;
      rebuild_opts.mutation_rebuild_fraction = 0.0;
      auto incremental = ServingEngine::Create(**engine, incr_opts);
      auto rebuild = ServingEngine::Create(**engine, rebuild_opts);
      if (!incremental.ok() || !rebuild.ok()) return 1;

      Rng rng(200 + static_cast<uint64_t>(batch_size));
      const auto batch = MakeBatch((*engine)->graph(), batch_size, &rng);

      const MutationResult incr = (*incremental)->ApplyUpdates(batch).get();
      const MutationResult full = (*rebuild)->ApplyUpdates(batch).get();
      if (!incr.ok() || !full.ok()) return 1;
      if (full.mode != MutationRepairMode::kRebuilt) {
        std::fprintf(stderr, "rebuild arm did not rebuild\n");
        return 1;
      }

      // Spot-check: both engines answer identically after the batch.
      const uint32_t n = (*engine)->graph().num_nodes();
      for (uint32_t q = 0; q < n; q += n / 7 + 1) {
        auto a = (*incremental)->Query(q, 10);
        auto b = (*rebuild)->Query(q, 10);
        if (!a.ok() || !b.ok() || *a != *b) {
          std::fprintf(stderr, "MISMATCH at q=%u\n", q);
          return 1;
        }
      }

      const bool fallback = incr.mode == MutationRepairMode::kRebuilt;
      const double speedup =
          full.apply_seconds /
          (incr.apply_seconds > 0.0 ? incr.apply_seconds : 1e-9);
      std::printf("%-8zu %-12.3f %-12.3f %-10.2f %-10llu %-8llu %-9s\n",
                  batch_size, incr.apply_seconds, full.apply_seconds, speedup,
                  static_cast<unsigned long long>(incr.affected_nodes),
                  static_cast<unsigned long long>(incr.affected_hubs),
                  fallback ? "yes" : "no");
      json.BeginObject();
      json.Key("graph").String(named.name);
      json.Key("batch_size").Int(static_cast<long long>(batch_size));
      json.Key("incremental_seconds").Double(incr.apply_seconds);
      json.Key("rebuild_seconds").Double(full.apply_seconds);
      json.Key("speedup").Double(speedup);
      json.Key("affected_nodes")
          .Int(static_cast<long long>(incr.affected_nodes));
      json.Key("affected_hubs").Int(static_cast<long long>(incr.affected_hubs));
      json.Key("fallback_rebuild").Int(fallback ? 1 : 0);
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf(
      "\npaper-shape check: incremental cost tracks the affected set, not n;\n"
      "small batches win big, large batches converge to (or fall back to)\n"
      "the rebuild cost. Queries after updates match a fresh engine.\n");
  return 0;
}
