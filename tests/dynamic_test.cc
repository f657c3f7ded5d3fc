// Tests for evolving-graph support: edge-update application (including a
// seeded differential check of the CSR row splice against a full
// GraphBuilder rebuild), affected-set computation, hub-vector re-solves,
// and the index repair's hub-store sharing. The end-to-end guarantee —
// answers after ServingEngine::ApplyUpdates equal a freshly built
// engine's — is asserted in mutation_serving_test.cc.

#include "dynamic/graph_updates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bca/hub_proximity_store.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dynamic/index_repair.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/toy_graphs.h"
#include "rwr/transition.h"

namespace rtk {
namespace {

// ------------------------------------------------------ ApplyEdgeUpdates --

TEST(ApplyEdgeUpdatesTest, InsertDeleteSetWeight) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 0);
  auto g = b.Build({.dangling_policy = DanglingPolicy::kError});
  ASSERT_TRUE(g.ok());

  auto updated = ApplyEdgeUpdates(
      *g, {EdgeUpdate::Insert(0, 2), EdgeUpdate::Delete(1, 2),
           EdgeUpdate::Insert(1, 3, 2.0), EdgeUpdate::SetWeight(2, 3, 5.0)});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->num_edges(), 5u);
  // 0 now has out-neighbors {1, 2}.
  const auto n0 = updated->OutNeighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  // Weights became non-uniform -> graph is weighted; 2->3 carries 5.
  EXPECT_TRUE(updated->is_weighted());
  EXPECT_EQ(updated->OutWeights(2)[0], 5.0);
}

TEST(ApplyEdgeUpdatesTest, UnweightedStaysUnweightedForUnitInserts) {
  Graph g = CycleGraph(5);
  auto updated = ApplyEdgeUpdates(g, {EdgeUpdate::Insert(0, 2)});
  ASSERT_TRUE(updated.ok());
  EXPECT_FALSE(updated->is_weighted());
}

TEST(ApplyEdgeUpdatesTest, DeleteLastOutEdgeAppliesSelfLoopPolicy) {
  Graph g = CycleGraph(3);
  auto updated = ApplyEdgeUpdates(g, {EdgeUpdate::Delete(1, 2)});
  ASSERT_TRUE(updated.ok());
  // Node 1 became dangling; the default policy gives it a self-loop, so
  // node count and ids are preserved.
  EXPECT_EQ(updated->num_nodes(), 3u);
  ASSERT_EQ(updated->OutDegree(1), 1u);
  EXPECT_EQ(updated->OutNeighbors(1)[0], 1u);
}

TEST(ApplyEdgeUpdatesTest, DeleteThenReinsertWithinBatch) {
  Graph g = CycleGraph(4);
  auto updated = ApplyEdgeUpdates(
      g, {EdgeUpdate::Delete(0, 1), EdgeUpdate::Insert(0, 1, 3.0)});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->num_edges(), 4u);
  EXPECT_EQ(updated->OutWeights(0)[0], 3.0);
}

TEST(ApplyEdgeUpdatesTest, ErrorsAreDiagnosed) {
  Graph g = CycleGraph(4);
  // Duplicate insert.
  auto r1 = ApplyEdgeUpdates(g, {EdgeUpdate::Insert(0, 1)});
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  // Missing delete.
  auto r2 = ApplyEdgeUpdates(g, {EdgeUpdate::Delete(0, 2)});
  EXPECT_EQ(r2.status().code(), StatusCode::kNotFound);
  // Missing re-weight.
  auto r3 = ApplyEdgeUpdates(g, {EdgeUpdate::SetWeight(0, 2, 2.0)});
  EXPECT_EQ(r3.status().code(), StatusCode::kNotFound);
  // Out of range.
  auto r4 = ApplyEdgeUpdates(g, {EdgeUpdate::Insert(0, 9)});
  EXPECT_EQ(r4.status().code(), StatusCode::kInvalidArgument);
  // Bad weight.
  auto r5 = ApplyEdgeUpdates(g, {EdgeUpdate::Insert(0, 2, -1.0)});
  EXPECT_EQ(r5.status().code(), StatusCode::kInvalidArgument);
  // Id-changing dangling policy.
  auto r6 = ApplyEdgeUpdates(g, {EdgeUpdate::Insert(0, 2)},
                             {.dangling_policy = DanglingPolicy::kRemove});
  EXPECT_EQ(r6.status().code(), StatusCode::kInvalidArgument);
}

// The reference semantics of ApplyEdgeUpdates: every edge in an ordered
// map, the updates applied by key, the whole edge set rebuilt by
// GraphBuilder. O(m log m) per batch; the splice must match it array for
// array and, on a bad batch, Status for Status.
Result<Graph> RebuildReference(const Graph& graph,
                               const std::vector<EdgeUpdate>& updates,
                               const GraphBuilderOptions& options) {
  if (options.dangling_policy != DanglingPolicy::kError &&
      options.dangling_policy != DanglingPolicy::kSelfLoop) {
    return Status::InvalidArgument(
        "ApplyEdgeUpdates: dangling policy must preserve node ids "
        "(kError or kSelfLoop)");
  }
  const uint32_t n = graph.num_nodes();
  const auto name = [](const EdgeUpdate& u) {
    return std::to_string(u.src) + " -> " + std::to_string(u.dst);
  };
  std::map<std::pair<uint32_t, uint32_t>, double> adjacency;
  for (uint32_t u = 0; u < n; ++u) {
    const auto targets = graph.OutNeighbors(u);
    const auto weights = graph.OutWeights(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      adjacency[{u, targets[i]}] = weights.empty() ? 1.0 : weights[i];
    }
  }
  for (const EdgeUpdate& update : updates) {
    if (update.src >= n || update.dst >= n) {
      return Status::InvalidArgument(
          "ApplyEdgeUpdates: endpoint out of range: " + name(update));
    }
    const std::pair<uint32_t, uint32_t> key{update.src, update.dst};
    switch (update.kind) {
      case EdgeUpdate::Kind::kInsert:
        if (!(update.weight > 0.0)) {
          return Status::InvalidArgument(
              "ApplyEdgeUpdates: insert weight must be > 0 for " +
              name(update));
        }
        if (!adjacency.emplace(key, update.weight).second) {
          return Status::InvalidArgument("ApplyEdgeUpdates: edge exists: " +
                                         name(update));
        }
        break;
      case EdgeUpdate::Kind::kDelete:
        if (adjacency.erase(key) == 0) {
          return Status::NotFound("ApplyEdgeUpdates: no such edge: " +
                                  name(update));
        }
        break;
      case EdgeUpdate::Kind::kSetWeight: {
        if (!(update.weight > 0.0)) {
          return Status::InvalidArgument(
              "ApplyEdgeUpdates: weight must be > 0 for " + name(update));
        }
        auto it = adjacency.find(key);
        if (it == adjacency.end()) {
          return Status::NotFound("ApplyEdgeUpdates: no such edge: " +
                                  name(update));
        }
        it->second = update.weight;
        break;
      }
    }
  }
  GraphBuilder builder(n);
  for (const auto& [edge, weight] : adjacency) {
    builder.AddEdge(edge.first, edge.second, weight);
  }
  return builder.Build(options);
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<uint64_t>(x) ==
                             std::bit_cast<uint64_t>(y);
                    });
}

// Every observable array of the two graphs, bit for bit.
::testing::AssertionResult SameGraph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges() ||
      a.is_weighted() != b.is_weighted() || a.sink_node() != b.sink_node() ||
      a.original_ids() != b.original_ids()) {
    return ::testing::AssertionFailure()
           << a.ToString() << " vs " << b.ToString();
  }
  for (uint32_t u = 0; u < a.num_nodes(); ++u) {
    const auto ao = a.OutNeighbors(u), bo = b.OutNeighbors(u);
    const auto ai = a.InNeighbors(u), bi = b.InNeighbors(u);
    const double as = a.OutWeightSum(u), bs = b.OutWeightSum(u);
    if (!std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()) ||
        !std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()) ||
        !SameBits(a.OutWeights(u), b.OutWeights(u)) ||
        !SameBits(a.InWeights(u), b.InWeights(u)) ||
        !SameBits({&as, 1}, {&bs, 1})) {
      return ::testing::AssertionFailure() << "rows of node " << u
                                           << " differ";
    }
  }
  return ::testing::AssertionSuccess();
}

// A small random base graph: sometimes weighted with rare non-unit weights
// (so a batch can flip it back to unweighted), sometimes with self-loops,
// sometimes with a kAddSink sink (which an update must forget).
Graph RandomBaseGraph(Rng* rng) {
  const auto n = static_cast<uint32_t>(1 + rng->Uniform(24));
  const bool weighted = rng->Bernoulli(0.5);
  const double non_unit = rng->Bernoulli(0.5) ? 0.05 : 0.5;
  const bool self_loops = rng->Bernoulli(0.5);
  GraphBuilder builder(n);
  const uint64_t edges = rng->Uniform(3 * static_cast<uint64_t>(n) + 1);
  for (uint64_t e = 0; e < edges; ++e) {
    const auto u = static_cast<uint32_t>(rng->Uniform(n));
    const auto v = static_cast<uint32_t>(rng->Uniform(n));
    if (u == v && !self_loops) continue;
    const double w = weighted && rng->Bernoulli(non_unit)
                         ? 0.25 * static_cast<double>(1 + rng->Uniform(12))
                         : 1.0;
    builder.AddEdge(u, v, w);
  }
  auto graph = builder.Build(
      {.dangling_policy = rng->Bernoulli(0.2) ? DanglingPolicy::kAddSink
                                              : DanglingPolicy::kSelfLoop,
       .parallel_edges = ParallelEdgePolicy::kKeepFirst,
       .allow_self_loops = self_loops});
  return std::move(graph).value();
}

double RandomWeight(Rng* rng) {
  switch (rng->Uniform(32)) {
    case 0:
      return std::numeric_limits<double>::infinity();
    case 1:
      return std::numeric_limits<double>::quiet_NaN();
    case 2:
      return -1.0;
    case 3:
      return 0.0;
    case 4:
    case 5:
    case 6:
    case 7:
    case 8:
      return 0.5 * static_cast<double>(1 + rng->Uniform(6));
    default:
      return 1.0;
  }
}

// A batch that is mostly valid against `g`: deletes and re-weights pick
// edges present when the batch reaches them, inserts absent ones, with a
// small chance of a wrong pick, a self-loop, a bad weight or an
// out-of-range id.
std::vector<EdgeUpdate> RandomBatch(const Graph& g, Rng* rng) {
  const uint32_t n = g.num_nodes();
  const auto node = [&] { return static_cast<uint32_t>(rng->Uniform(n)); };
  std::vector<EdgeUpdate> batch;
  if (rng->Bernoulli(0.15)) {
    // Empty one row (kSelfLoop refills it, kError rejects it), maybe
    // refilling it by hand.
    const uint32_t u = node();
    for (uint32_t v : g.OutNeighbors(u)) {
      batch.push_back(EdgeUpdate::Delete(u, v));
    }
    if (rng->Bernoulli(0.3)) batch.push_back(EdgeUpdate::Insert(u, node()));
    return batch;
  }
  std::set<std::pair<uint32_t, uint32_t>> edges;  // as the batch leaves g
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v : g.OutNeighbors(u)) edges.insert({u, v});
  }
  const auto pick_present = [&](uint32_t u, uint32_t* v) {
    auto lo = edges.lower_bound({u, 0});
    const auto count = std::distance(lo, edges.lower_bound({u + 1, 0}));
    if (count == 0) return;
    std::advance(lo, rng->Uniform(static_cast<uint64_t>(count)));
    *v = lo->second;
  };
  const uint64_t size = rng->Uniform(9);
  for (uint64_t i = 0; i < size; ++i) {
    const uint32_t u = node();
    uint32_t v = rng->Bernoulli(0.1) ? u : node();
    const bool valid = !rng->Bernoulli(0.05);
    const uint64_t kind = rng->Uniform(4);
    if (kind < 2) {
      if (!valid) pick_present(u, &v);
      for (int tries = 0; valid && tries < 8 && edges.contains({u, v});
           ++tries) {
        v = node();
      }
      const double w = RandomWeight(rng);
      batch.push_back(EdgeUpdate::Insert(u, v, w));
      if (w > 0.0) edges.insert({u, v});
    } else {
      if (valid) pick_present(u, &v);
      if (kind == 2) {
        batch.push_back(EdgeUpdate::Delete(u, v));
        edges.erase({u, v});
        if (rng->Bernoulli(0.3)) {
          const double w = RandomWeight(rng);
          batch.push_back(EdgeUpdate::Insert(u, v, w));
          if (w > 0.0) edges.insert({u, v});
        }
      } else {
        batch.push_back(EdgeUpdate::SetWeight(u, v, RandomWeight(rng)));
      }
    }
    if (rng->Bernoulli(0.03)) {
      (rng->Bernoulli(0.5) ? batch.back().src : batch.back().dst) =
          n + static_cast<uint32_t>(rng->Uniform(3));
    }
  }
  return batch;
}

GraphBuilderOptions RandomOptions(Rng* rng) {
  GraphBuilderOptions options;
  switch (rng->Uniform(20)) {
    case 0: options.dangling_policy = DanglingPolicy::kRemove; break;
    case 1: options.dangling_policy = DanglingPolicy::kAddSink; break;
    default:
      options.dangling_policy = rng->Bernoulli(0.5) ? DanglingPolicy::kError
                                                    : DanglingPolicy::kSelfLoop;
  }
  options.parallel_edges = static_cast<ParallelEdgePolicy>(rng->Uniform(3));
  options.allow_self_loops = rng->Bernoulli(0.6);
  return options;
}

TEST(ApplyEdgeUpdatesTest, SpliceMatchesRebuildReference) {
  Rng rng(20260418);
  // What the draw reached, so the test fails if a generator change stops
  // exercising a case.
  std::map<std::string, int> seen;
  const auto count_error = [&](const Status& st) {
    const std::string text = st.ToString();
    for (const char* kind : {"dangling policy must", "out of range",
                             "must be > 0", "edge exists", "no such edge",
                             "non-finite weight", "self-loop at node",
                             "policy is kError"}) {
      if (text.find(kind) != std::string::npos) ++seen[kind];
    }
  };
  for (int world = 0; world < 100; ++world) {
    Graph graph = RandomBaseGraph(&rng);
    for (int step = 0; step < 200; ++step) {
      const std::vector<EdgeUpdate> batch = RandomBatch(graph, &rng);
      const GraphBuilderOptions options = RandomOptions(&rng);
      auto spliced = ApplyEdgeUpdates(graph, batch, options);
      auto reference = RebuildReference(graph, batch, options);
      ASSERT_EQ(spliced.status().ToString(), reference.status().ToString())
          << "world " << world << " step " << step;
      if (!spliced.ok()) {
        count_error(spliced.status());
        continue;
      }
      ASSERT_TRUE(SameGraph(*spliced, *reference))
          << "world " << world << " step " << step;
      ++seen["valid"];
      if (graph.is_weighted() != spliced->is_weighted()) {
        ++seen[spliced->is_weighted() ? "to weighted" : "to unweighted"];
      }
      const auto only_self_loop = [](const Graph& h, uint32_t u) {
        const auto out = h.OutNeighbors(u);
        return out.size() == 1 && out[0] == u;
      };
      for (uint32_t u = 0; u < graph.num_nodes(); ++u) {
        if (only_self_loop(*spliced, u) && !only_self_loop(graph, u)) {
          ++seen["row refilled"];
        }
      }
      graph = std::move(*spliced);
    }
  }
  for (const char* kind :
       {"valid", "to weighted", "to unweighted", "row refilled",
        "dangling policy must", "out of range", "must be > 0", "edge exists",
        "no such edge", "non-finite weight", "self-loop at node",
        "policy is kError"}) {
    EXPECT_GT(seen[kind], 0) << kind;
  }
}

// ------------------------------------------------------ affected machinery --

TEST(ModifiedSourcesTest, SortedUniqueSources) {
  const auto sources = ModifiedSources({EdgeUpdate::Insert(5, 1),
                                        EdgeUpdate::Delete(2, 5),
                                        EdgeUpdate::Insert(5, 2),
                                        EdgeUpdate::SetWeight(2, 0, 1.0)});
  EXPECT_EQ(sources, (std::vector<uint32_t>{2, 5}));
}

TEST(ReverseReachableTest, ChainReachability) {
  // 0 -> 1 -> 2 -> 3 -> 0 plus 4 -> 2: nodes reaching {2} = everyone.
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 0);
  b.AddEdge(4, 2);
  auto g = b.Build({.dangling_policy = DanglingPolicy::kError});
  ASSERT_TRUE(g.ok());
  auto r = ReverseReachableFrom(*g, {2});
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.nodes, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(ReverseReachableTest, DisconnectedComponentExcluded) {
  GraphBuilder b(6);
  for (uint32_t i = 0; i < 3; ++i) b.AddEdge(i, (i + 1) % 3);
  for (uint32_t i = 3; i < 6; ++i) b.AddEdge(i, 3 + (i + 1 - 3) % 3);
  auto g = b.Build({.dangling_policy = DanglingPolicy::kError});
  ASSERT_TRUE(g.ok());
  auto r = ReverseReachableFrom(*g, {4});
  EXPECT_EQ(r.nodes, (std::vector<uint32_t>{3, 4, 5}));
}

TEST(ReverseReachableTest, TruncationFlag) {
  Graph g = CycleGraph(100);
  auto r = ReverseReachableFrom(g, {0}, /*max_nodes=*/10);
  EXPECT_TRUE(r.truncated);
  EXPECT_LE(r.nodes.size(), 12u);
}

// ------------------------------------------------ HubProximityStore::Rebuilt --

TEST(HubStoreRebuiltTest, MatchesFullBuildOnUpdatedGraph) {
  Rng rng(61);
  auto g = ErdosRenyi(100, 700, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  std::vector<uint32_t> hubs = {3, 17, 40, 88};
  HubStoreOptions opts;
  opts.rounding_omega = 1e-6;
  auto old_store = HubProximityStore::Build(op, hubs, opts);
  ASSERT_TRUE(old_store.ok());

  // Delete node 17's first out-edge: always a valid update, and it
  // changes hub 17's own vector (and possibly hub 3's through paths).
  const auto nbrs17 = g->OutNeighbors(17);
  ASSERT_FALSE(nbrs17.empty());
  auto updated = ApplyEdgeUpdates(*g, {EdgeUpdate::Delete(17, nbrs17[0])});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  TransitionOperator new_op(*updated);

  auto rebuilt =
      HubProximityStore::Rebuilt(*old_store, new_op, {3, 17}, {});
  auto full = HubProximityStore::Build(new_op, hubs, opts);
  ASSERT_TRUE(rebuilt.ok() && full.ok());
  // Affected hubs match the fresh build on the new graph.
  for (uint32_t h : {3u, 17u}) {
    const auto a = rebuilt->Vector(h);
    const auto b = full->Vector(h);
    ASSERT_EQ(a.size(), b.size()) << "hub " << h;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.ids[i], b.ids[i]);
      EXPECT_NEAR(a.values[i], b.values[i], 1e-9);
    }
  }
  // Unaffected hubs were copied from the old store verbatim.
  for (uint32_t h : {40u, 88u}) {
    const auto a = rebuilt->Vector(h);
    const auto b = old_store->Vector(h);
    ASSERT_EQ(a.size(), b.size()) << "hub " << h;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.ids[i], b.ids[i]);
      EXPECT_EQ(a.values[i], b.values[i]);
    }
  }
  EXPECT_EQ(rebuilt->hubs(), old_store->hubs());
  EXPECT_EQ(rebuilt->rounding_omega(), old_store->rounding_omega());
}

TEST(HubStoreRebuiltTest, EmptyAffectedListIsACopy) {
  Rng rng(67);
  auto g = ErdosRenyi(60, 360, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  auto store = HubProximityStore::Build(op, {1, 2}, {});
  ASSERT_TRUE(store.ok());
  auto rebuilt = HubProximityStore::Rebuilt(*store, op, {}, {});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->TotalEntries(), store->TotalEntries());
}

TEST(HubStoreRebuiltTest, RejectsNonHubAndUnsorted) {
  Rng rng(71);
  auto g = ErdosRenyi(60, 360, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  auto store = HubProximityStore::Build(op, {1, 2}, {});
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(HubProximityStore::Rebuilt(*store, op, {5}, {}).ok());
  EXPECT_FALSE(HubProximityStore::Rebuilt(*store, op, {2, 1}, {}).ok());
}

// ---------------------------------------------------- RepairAffectedNodes --

TEST(IndexRepairTest, RepairWithoutAffectedHubsSharesHubStore) {
  Rng rng(83);
  auto graph = BarabasiAlbert(200, 3, &rng);
  ASSERT_TRUE(graph.ok());
  EngineOptions opts;
  opts.capacity_k = 10;
  opts.hub_selection.degree_budget_b = 5;
  opts.shard_nodes = 32;
  auto engine = ReverseTopkEngine::Build(std::move(*graph), opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Graph& g = (*engine)->graph();
  const LowerBoundIndex& index = (*engine)->index();
  const HubProximityStore& hubs = index.hub_store();
  ASSERT_GT(hubs.num_hubs(), 0u);
  IndexRepairOptions repair_opts;
  repair_opts.solver.alpha = opts.bca.alpha;

  // One insert out of each node in turn until one affects no hub and one
  // affects some hub (BA edges point from newer to older nodes, so the
  // newest nodes reach few others).
  bool shared_case = false;
  bool refreshed_case = false;
  for (uint32_t u = g.num_nodes(); u-- > 0;) {
    if (shared_case && refreshed_case) break;
    uint32_t v = 0;
    while (v == u || std::ranges::binary_search(g.OutNeighbors(u), v)) ++v;
    const std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(u, v)};
    auto next = ApplyEdgeUpdates(g, batch);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    const auto affected = ReverseReachableFrom(*next, ModifiedSources(batch));
    const bool hits_hub = std::ranges::any_of(
        affected.nodes, [&](uint32_t w) { return hubs.IsHub(w); });
    if (hits_hub ? refreshed_case : shared_case) continue;
    TransitionOperator op(*next);
    IndexRepairReport report;
    auto repaired = RepairAffectedNodes(index, op, affected.nodes, repair_opts,
                                        nullptr, &report);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    if (hits_hub) {
      // Some hub vector is re-solved: a new store.
      EXPECT_GT(report.affected_hubs, 0u);
      EXPECT_NE(&repaired->hub_store(), &index.hub_store());
      refreshed_case = true;
    } else {
      // No hub is re-solved: the repaired index shares the old P_H itself.
      EXPECT_EQ(report.affected_hubs, 0u);
      EXPECT_EQ(&repaired->hub_store(), &index.hub_store());
      shared_case = true;
    }
    EXPECT_EQ(repaired->hub_store().TotalEntries(), hubs.TotalEntries());
  }
  EXPECT_TRUE(shared_case && refreshed_case);
}

}  // namespace
}  // namespace rtk
