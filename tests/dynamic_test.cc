// Tests for evolving-graph support: edge-update application, affected-set
// computation, and hub-vector re-solves. The end-to-end guarantee — answers
// after ServingEngine::ApplyUpdates equal a freshly built engine's — is
// asserted in mutation_serving_test.cc.

#include "dynamic/graph_updates.h"

#include <gtest/gtest.h>

#include "bca/hub_proximity_store.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/toy_graphs.h"

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
      EXPECT_EQ(a[i].first, b[i].first);
      EXPECT_NEAR(a[i].second, b[i].second, 1e-9);
    }
  }
  // Unaffected hubs were copied from the old store verbatim.
  for (uint32_t h : {40u, 88u}) {
    const auto a = rebuilt->Vector(h);
    const auto b = old_store->Vector(h);
    ASSERT_EQ(a.size(), b.size()) << "hub " << h;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first);
      EXPECT_EQ(a[i].second, b[i].second);
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

}  // namespace
}  // namespace rtk
