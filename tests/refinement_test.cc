// Tests for the refinement-path mechanisms added on top of the paper's
// Algorithm 4: incremental approx tracking, the stall cut-over to exact
// resolution, and their interaction with index updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bca/bca.h"
#include "bca/hub_proximity_store.h"
#include "bca/hub_selection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/top_k.h"
#include "core/brute_force.h"
#include "core/online_query.h"
#include "graph/generators.h"
#include "graph/toy_graphs.h"
#include "index/index_builder.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace rtk {
namespace {

// Tracked and untracked TopKApprox must agree exactly at every step.
TEST(ApproxTrackingTest, TrackedMatchesRebuiltAtEveryStep) {
  Rng rng(3);
  auto g = ErdosRenyi(120, 900, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  std::vector<uint32_t> hubs{0, 3, 9, 27};
  auto store = HubProximityStore::Build(op, hubs, {});
  ASSERT_TRUE(store.ok());
  BcaOptions opts;

  BcaRunner tracked(op, hubs, opts);
  BcaRunner rebuilt(op, hubs, opts);
  tracked.Start(42);
  tracked.BeginApproxTracking(*store);
  rebuilt.Start(42);
  for (int step = 0; step < 25; ++step) {
    const size_t a = tracked.Step(PushStrategy::kBatch);
    const size_t b = rebuilt.Step(PushStrategy::kBatch);
    ASSERT_EQ(a, b);
    if (a == 0) break;
    auto ta = tracked.TopKApprox(*store, 10);
    auto tb = rebuilt.TopKApprox(*store, 10);
    ASSERT_EQ(ta.size(), tb.size()) << "step " << step;
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].first, tb[i].first) << "step " << step << " i=" << i;
      EXPECT_NEAR(ta[i].second, tb[i].second, 1e-12);
    }
  }
}

TEST(ApproxTrackingTest, TrackingSurvivesHubAbsorptions) {
  // Start at a node whose neighbors are hubs so absorptions dominate.
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  std::vector<uint32_t> hubs{0, 1};
  auto store = HubProximityStore::Build(op, hubs, {});
  ASSERT_TRUE(store.ok());
  BcaOptions opts;
  BcaRunner runner(op, hubs, opts);
  runner.Start(2);  // out-edges {0, 1}: both hubs
  runner.BeginApproxTracking(*store);
  while (runner.Step(PushStrategy::kBatch) > 0) {
  }
  std::vector<double> dense;
  runner.MaterializeApprox(*store, &dense);
  auto top = runner.TopKApprox(*store, 6);
  for (const auto& [id, value] : top) {
    EXPECT_NEAR(value, dense[id], 1e-12);
  }
}

TEST(ApproxTrackingTest, StartResetsTracking) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  std::vector<uint32_t> hubs{0, 1};
  auto store = HubProximityStore::Build(op, hubs, {});
  ASSERT_TRUE(store.ok());
  BcaRunner runner(op, hubs, {});
  runner.Start(3);
  runner.BeginApproxTracking(*store);
  runner.Step();
  // A fresh Start must not leak the previous node's approx.
  runner.Start(5);
  runner.Step();
  auto top = runner.TopKApprox(*store, 6);  // untracked rebuild path
  std::vector<double> dense;
  runner.MaterializeApprox(*store, &dense);
  for (const auto& [id, value] : top) {
    EXPECT_NEAR(value, dense[id], 1e-12);
  }
}

// The stall cut-over must not change results: force tiny stall budgets and
// compare against brute force.
TEST(StallCutoverTest, AggressiveFallbackPreservesResults) {
  Rng rng(7);
  auto g = ErdosRenyi(150, 1200, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  auto hubs = SelectHubs(*g, {.degree_budget_b = 4});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 10;
  build_opts.bca.delta = 0.5;  // loose: plenty of refinement needed
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  ReverseTopkSearcher searcher(op, &(*index));

  QueryOptions opts;
  opts.k = 5;
  opts.max_stalled_refinements = 1;  // cut over almost immediately
  opts.max_refine_iterations_per_node = 3;
  for (uint32_t q : {10u, 60u, 120u}) {
    QueryStats stats;
    auto got = searcher.Query(q, opts, &stats);
    ASSERT_TRUE(got.ok());
    auto expected = BruteForceReverseTopk(op, q, 5);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*got, *expected) << "q=" << q;
    EXPECT_GT(stats.exact_fallbacks, 0u);  // the valve actually fired
  }
}

TEST(StallCutoverTest, FallbackInstallsExactEntry) {
  Rng rng(9);
  auto g = ErdosRenyi(100, 700, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  auto hubs = SelectHubs(*g, {.degree_budget_b = 3});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 8;
  build_opts.bca.delta = 0.5;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  ReverseTopkSearcher searcher(op, &(*index));

  QueryOptions opts;
  opts.k = 5;
  opts.max_refine_iterations_per_node = 1;  // everything refined goes exact
  QueryStats stats;
  auto r = searcher.Query(33, opts, &stats);
  ASSERT_TRUE(r.ok());
  if (stats.exact_fallbacks > 0) {
    // At least one node got upgraded to an exact entry.
    uint64_t exact_after = index->ComputeStats().exact_nodes;
    EXPECT_GT(exact_after, hubs->size());
  }
  // A repeat query does zero refinement on upgraded nodes and agrees.
  QueryStats again;
  auto r2 = searcher.Query(33, opts, &again);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r, *r2);
  EXPECT_LE(again.exact_fallbacks, stats.exact_fallbacks);
}

TEST(StallCutoverTest, NoUpdateFallbackDoesNotMutateIndex) {
  Rng rng(11);
  auto g = ErdosRenyi(100, 700, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  auto hubs = SelectHubs(*g, {.degree_budget_b = 3});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 8;
  build_opts.bca.delta = 0.5;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  const uint64_t exact_before = index->ComputeStats().exact_nodes;

  ReverseTopkSearcher searcher(op, &(*index));
  QueryOptions opts;
  opts.k = 5;
  opts.update_index = false;
  opts.max_refine_iterations_per_node = 1;
  QueryStats stats;
  ASSERT_TRUE(searcher.Query(33, opts, &stats).ok());
  EXPECT_EQ(index->ComputeStats().exact_nodes, exact_before);
}

// A fallback's delta carries no BCA state: its bounds are exact.
bool IsFallbackDelta(const IndexDelta& delta) {
  const StoredBcaState state = StateOf(delta.state);
  return state.residue().empty() && state.retained().empty() &&
         state.hub_ink().empty() && delta.residue_l1 == 0.0;
}

void ExpectSameDeltas(const std::vector<IndexDelta>& a,
                      const std::vector<IndexDelta>& b, int threads) {
  ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "threads=" << threads;
    EXPECT_EQ(a[i].topk, b[i].topk) << "node " << a[i].node;
    EXPECT_EQ(a[i].residue_l1, b[i].residue_l1) << "node " << a[i].node;
    const StoredBcaState sa = StateOf(a[i].state);
    const StoredBcaState sb = StateOf(b[i].state);
    EXPECT_EQ(sa.residue().ToPairs(), sb.residue().ToPairs())
        << "node " << a[i].node;
    EXPECT_EQ(sa.retained().ToPairs(), sb.retained().ToPairs())
        << "node " << a[i].node;
    EXPECT_EQ(sa.hub_ink().ToPairs(), sb.hub_ink().ToPairs())
        << "node " << a[i].node;
    EXPECT_EQ(sa.iterations(), sb.iterations()) << "node " << a[i].node;
  }
}

// A query whose refinement sends dozens of candidates to the exact
// fallback: they are solved together in fused forward lanes, and each
// must decide exactly as its own single-source solve would, at every
// thread count.
TEST(StallCutoverTest, ManyFallbacksSolvedTogetherMatchSingleSourceSolves) {
  // On R-MAT graphs BCA stalls often near popular targets, as on
  // servebench's rmat-web-s: no forced stall budget is needed.
  Rng rng(17);
  auto g = Rmat(9, 4096, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  auto hubs = SelectHubs(*g, {.degree_budget_b = 4});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 20;
  build_opts.bca.delta = 0.1;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  ReverseTopkSearcher searcher(op, *index);  // read-only: deltas to a sink
  ThreadPool pool(8);
  searcher.set_thread_pool(&pool);

  QueryOptions opts;
  opts.k = 5;

  // The query with the most fallbacks among the 8 most popular targets.
  std::vector<uint32_t> popular(g->num_nodes());
  for (uint32_t u = 0; u < g->num_nodes(); ++u) popular[u] = u;
  std::stable_sort(popular.begin(), popular.end(), [&](uint32_t a, uint32_t b) {
    return g->InDegree(a) > g->InDegree(b);
  });
  popular.resize(8);
  uint32_t q = 0;
  uint64_t most = 0;
  for (uint32_t candidate : popular) {
    QueryStats stats;
    ASSERT_TRUE(searcher.Query(candidate, opts, &stats).ok());
    if (stats.exact_fallbacks > most) {
      most = stats.exact_fallbacks;
      q = candidate;
    }
  }
  ASSERT_GE(most, 32u) << "no query reaches a full 32-lane fallback group";

  auto expected = BruteForceReverseTopk(op, q, opts.k);
  ASSERT_TRUE(expected.ok());
  std::vector<uint32_t> base_results;
  std::vector<IndexDelta> base_deltas;
  for (int threads : {1, 2, 8}) {
    opts.num_threads = threads;
    std::vector<IndexDelta> deltas;
    opts.delta_sink = &deltas;
    QueryStats stats;
    auto got = searcher.Query(q, opts, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "threads=" << threads;
    EXPECT_EQ(stats.exact_fallbacks, most) << "threads=" << threads;
    if (threads == 1) {
      uint64_t fallback_deltas = 0;
      for (const IndexDelta& delta : deltas) {
        if (!IsFallbackDelta(delta)) continue;
        ++fallback_deltas;
        auto column = ComputeProximityColumn(op, delta.node, opts.pmpn);
        ASSERT_TRUE(column.ok());
        std::vector<double> top =
            TopKValuesDescending(*column, build_opts.capacity_k);
        while (!top.empty() && top.back() <= 0.0) top.pop_back();
        EXPECT_EQ(delta.topk, top) << "node " << delta.node;
      }
      EXPECT_EQ(fallback_deltas, stats.exact_fallbacks);
      base_results = *got;
      base_deltas = std::move(deltas);
    } else {
      EXPECT_EQ(*got, base_results) << "threads=" << threads;
      ExpectSameDeltas(base_deltas, deltas, threads);
    }
  }
}

}  // namespace
}  // namespace rtk
