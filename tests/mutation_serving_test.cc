// Tests for live graph mutation under serving traffic: the MutationLog /
// GraphVersion plumbing, ServingEngine::ApplyUpdates across all three
// repair modes and several graph shapes, option validation, the
// stale-refinement version gate, and the concurrent mutate+query+refine
// stress test that ci.sh also runs under TSan.
//
// The correctness oracle throughout: after any sequence of ApplyUpdates
// batches, exact-tier answers must equal a fresh engine built on the
// final graph (Algorithm 4 is exact for ANY valid lower bounds, so this
// holds for repaired, invalidated and rebuilt indexes alike). A rebuild
// publishes exactly the index a fresh build writes, byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "dynamic/graph_updates.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/toy_graphs.h"
#include "index/index_io.h"
#include "serving/mutation_log.h"
#include "serving/refinement_log.h"
#include "serving/serving_engine.h"
#include "workload/query_workload.h"

namespace rtk {
namespace {

// Coarse options: a high BCA delta leaves large residues in the index, so
// queries must refine (and therefore produce write-back deltas the
// version gate has something to drop).
EngineOptions CoarseOptions() {
  EngineOptions opts;
  opts.capacity_k = 20;
  opts.hub_selection.degree_budget_b = 5;
  opts.bca.delta = 0.5;
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

bool HasEdge(const Graph& g, uint32_t u, uint32_t v) {
  const auto nbrs = g.OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

// `count` edge insertions that are valid against `g` (absent, no
// self-loops, no duplicates within the batch).
GraphUpdateBatch MakeInsertBatch(const Graph& g, size_t count, Rng* rng) {
  GraphUpdateBatch batch;
  std::set<std::pair<uint32_t, uint32_t>> chosen;
  const uint32_t n = g.num_nodes();
  while (batch.size() < count) {
    const auto u = static_cast<uint32_t>(rng->Uniform(n));
    const auto v = static_cast<uint32_t>(rng->Uniform(n));
    if (u == v || HasEdge(g, u, v)) continue;
    if (!chosen.insert({u, v}).second) continue;
    batch.push_back(EdgeUpdate::Insert(u, v));
  }
  return batch;
}

// The oracle: every exact-tier answer equals a fresh build on the graph
// the serving engine currently pins.
void ExpectMatchesFreshEngine(ServingEngine& serving, uint32_t k,
                              uint32_t query_stride) {
  auto snap = serving.snapshot();
  ASSERT_NE(snap->graph_version(), nullptr);
  Graph copy = snap->graph_version()->graph();  // Graph is copyable
  auto fresh = ReverseTopkEngine::Build(std::move(copy), CoarseOptions());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (uint32_t q = 0; q < snap->graph_version()->graph().num_nodes();
       q += query_stride) {
    auto served = serving.Query(q, k);
    auto expected = (*fresh)->Query(q, k);
    ASSERT_TRUE(served.ok() && expected.ok()) << "q=" << q;
    EXPECT_EQ(*served, *expected) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// RefinementLog graph-version gate

TEST(RefinementLogVersionTest, StaleTagsDroppedAdvancePurges) {
  RefinementLog log;
  EXPECT_EQ(log.graph_version(), 0u);
  // Untagged appends (kAnyGraphVersion) are always accepted.
  log.Append({{3, {0.5}, {}, 0.4}});
  // A matching tag is accepted too.
  log.Append({{5, {0.2}, {}, 0.6}}, /*graph_version=*/0);
  EXPECT_EQ(log.pending(), 2u);

  // The mutation barrier: pending deltas were refined against the
  // outgoing graph, so they are purged, and the new version becomes the
  // only accepted tag.
  log.AdvanceGraphVersion(1);
  EXPECT_EQ(log.graph_version(), 1u);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.stats().dropped_stale, 2u);

  // A worker that acquired its snapshot before the mutation tags the old
  // version: its whole payload is dropped.
  log.Append({{7, {0.1}, {}, 0.3}, {9, {0.4}, {}, 0.2}}, /*graph_version=*/0);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.stats().dropped_stale, 4u);

  // Batch form obeys the same gate.
  log.Append(std::vector<std::vector<IndexDelta>>{{{11, {0.3}, {}, 0.5}}},
             /*graph_version=*/0);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.stats().dropped_stale, 5u);

  // Post-mutation workers tag the new version and are accepted; untagged
  // producers still pass.
  log.Append({{7, {0.1}, {}, 0.3}}, /*graph_version=*/1);
  log.Append({{9, {0.4}, {}, 0.2}});
  EXPECT_EQ(log.pending(), 2u);
}

// ---------------------------------------------------------------------------
// MutationLog

TEST(MutationLogTest, DrainFifoAndShutdownCancels) {
  MutationLog log;
  auto f1 = log.Enqueue({EdgeUpdate::Insert(0, 1)});
  auto f2 = log.Enqueue({EdgeUpdate::Delete(2, 3), EdgeUpdate::Insert(4, 5)});
  EXPECT_EQ(log.pending(), 2u);
  auto stats = log.stats();
  EXPECT_EQ(stats.batches_enqueued, 2u);
  EXPECT_EQ(stats.updates_enqueued, 3u);

  auto drained = log.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].updates.size(), 1u);
  EXPECT_EQ(drained[1].updates.size(), 2u);
  EXPECT_EQ(log.pending(), 0u);
  drained[0].promise.set_value({Status::OK(), 1, 1});
  drained[1].promise.set_value({Status::OK(), 1, 1});
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());

  auto f3 = log.Enqueue({EdgeUpdate::Insert(6, 7)});
  log.Shutdown();
  EXPECT_EQ(f3.get().status.code(), StatusCode::kCancelled);
  // After shutdown, new batches fail immediately.
  EXPECT_EQ(log.Enqueue({}).get().status.code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// ApplyUpdates repair modes, each against the fresh-build oracle

TEST(MutationServingTest, RepairedModeMatchesFreshBuild) {
  auto engine = BuildTestEngine(101);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServingOptions opts;
  opts.num_threads = 2;
  // Default fractions would tip a 250-node BA graph (one giant SCC) into
  // invalidation; a repair cap of n keeps the exact incremental path.
  opts.mutation_repair_fraction = 1.0;
  opts.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());
  ASSERT_EQ((*serving)->stats().graph_version, 0u);

  Rng rng(102);
  auto batch =
      MakeInsertBatch((*serving)->snapshot()->graph_version()->graph(), 4,
                      &rng);
  MutationResult result = (*serving)->ApplyUpdates(std::move(batch)).get();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.mode, MutationRepairMode::kRepaired);
  EXPECT_EQ(result.graph_version, 1u);
  EXPECT_GT(result.affected_nodes, 0u);
  EXPECT_GE(result.epoch, 1u);

  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.mutation_batches, 1u);
  EXPECT_EQ(stats.mutation_updates, 4u);
  EXPECT_EQ(stats.mutation_repairs, 1u);
  EXPECT_EQ(stats.graph_version, 1u);
  ExpectMatchesFreshEngine(**serving, 8, 13);
}

TEST(MutationServingTest, InvalidatedModeMatchesFreshBuild) {
  auto engine = BuildTestEngine(111);
  ASSERT_TRUE(engine.ok());
  ServingOptions opts;
  opts.num_threads = 2;
  opts.mutation_repair_fraction = 0.0;  // any affected set => invalidate
  opts.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());

  Rng rng(112);
  auto batch =
      MakeInsertBatch((*serving)->snapshot()->graph_version()->graph(), 3,
                      &rng);
  MutationResult result = (*serving)->ApplyUpdates(std::move(batch)).get();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.mode, MutationRepairMode::kInvalidated);
  EXPECT_EQ(result.graph_version, 1u);
  // Invalidation still re-solves affected hubs (stale P_H rows would make
  // hub-ink redemption unsound), it only skips the per-node BCA re-runs.
  EXPECT_EQ((*serving)->stats().mutation_invalidations, 1u);
  // Algorithm 4 stays exact on the looser bounds.
  ExpectMatchesFreshEngine(**serving, 8, 13);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(MutationServingTest, RebuildModeMatchesFreshBuild) {
  // Whichever pool the drain borrows (the query pool, none, or its own),
  // a rebuild follows ReverseTopkEngine::Build's recipe exactly: the
  // published index serializes to the bytes of a fresh build.
  for (const int mutation_threads : {0, 1, 3}) {
    SCOPED_TRACE(testing::Message() << "mutation_threads=" << mutation_threads);
    auto engine = BuildTestEngine(121);
    ASSERT_TRUE(engine.ok());
    ServingOptions opts;
    opts.num_threads = 2;
    opts.mutation_threads = mutation_threads;
    // Rebuild cap of max(1, 0.001 * 250) = 1 node: any real affected set
    // truncates the reachability sweep and forces the full rebuild path.
    opts.mutation_rebuild_fraction = 0.001;
    auto serving = ServingEngine::Create(**engine, opts);
    ASSERT_TRUE(serving.ok());

    Rng rng(122);
    auto batch =
        MakeInsertBatch((*serving)->snapshot()->graph_version()->graph(), 3,
                        &rng);
    MutationResult result = (*serving)->ApplyUpdates(std::move(batch)).get();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    EXPECT_EQ(result.mode, MutationRepairMode::kRebuilt);
    EXPECT_EQ(result.affected_nodes, 250u);
    EXPECT_GT(result.affected_hubs, 0u);
    EXPECT_EQ((*serving)->stats().mutation_rebuilds, 1u);

    auto snap = (*serving)->snapshot();
    auto fresh = ReverseTopkEngine::Build(snap->graph_version()->graph(),
                                          CoarseOptions());
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const std::string prefix = testing::TempDir() + "mutation_rebuild_" +
                               std::to_string(mutation_threads);
    ASSERT_TRUE(SaveIndex(snap->index(), prefix + "_served.idx").ok());
    ASSERT_TRUE((*fresh)->SaveIndex(prefix + "_fresh.idx").ok());
    EXPECT_EQ(ReadBytes(prefix + "_served.idx"),
              ReadBytes(prefix + "_fresh.idx"));
    ExpectMatchesFreshEngine(**serving, 8, 13);
  }
}

// Graph shapes the repair-mode tests above do not reach. Queries refine
// the index and publish before each batch, so the drain repairs (or
// rebuilds over) refined state, not the build's.
struct ShapeCase {
  const char* name;
  Result<Graph> (*make_graph)();
  GraphUpdateBatch (*make_batch)(const Graph&);
  double repair_fraction;
  double rebuild_fraction;
  MutationRepairMode mode;
  uint64_t affected_nodes;  // 0: not checked
  // False when the built index already answers every query exactly, so
  // the queries before the batch have nothing to refine.
  bool refines;
};

const ShapeCase kShapeCases[] = {
    {"deletes of original edges",
     [] {
       Rng rng(41);
       return ErdosRenyi(150, 1200, &rng);
     },
     [](const Graph& g) {
       // The first out-edge of a few spread-out nodes.
       GraphUpdateBatch batch;
       for (uint32_t u = 3; u < g.num_nodes() && batch.size() < 5; u += 31) {
         const auto nbrs = g.OutNeighbors(u);
         if (!nbrs.empty()) batch.push_back(EdgeUpdate::Delete(u, nbrs[0]));
       }
       return batch;
     },
     1.0, 1.0, MutationRepairMode::kRepaired, 0, true},
    {"weight change on a weighted graph",
     [] {
       GraphBuilder b(30);
       Rng rng(43);
       for (uint32_t u = 0; u < 30; ++u) {
         for (int j = 0; j < 3; ++j) {
           const auto v = static_cast<uint32_t>(rng.Uniform(30));
           if (v != u) {
             b.AddEdge(u, v, 1.0 + static_cast<double>(rng.Uniform(5)));
           }
         }
       }
       return b.Build({.dangling_policy = DanglingPolicy::kSelfLoop,
                       .parallel_edges = ParallelEdgePolicy::kSumWeights});
     },
     [](const Graph& g) {
       return GraphUpdateBatch{
           EdgeUpdate::SetWeight(7, g.OutNeighbors(7)[0], 42.0)};
     },
     1.0, 1.0, MutationRepairMode::kRepaired, 0, true},
    {"two disjoint 3-cycles",
     [] {
       GraphBuilder b(6);
       for (uint32_t i = 0; i < 3; ++i) b.AddEdge(i, (i + 1) % 3);
       for (uint32_t i = 3; i < 6; ++i) b.AddEdge(i, 3 + (i + 1 - 3) % 3);
       return b.Build({.dangling_policy = DanglingPolicy::kError});
     },
     // Only the first cycle can reach the modified source.
     [](const Graph&) { return GraphUpdateBatch{EdgeUpdate::Insert(0, 2)}; },
     0.9, 0.9, MutationRepairMode::kRepaired, 3, false},
    {"rebuild fraction 0",
     [] {
       GraphBuilder b(3);
       b.AddEdge(0, 1);
       b.AddEdge(1, 2);
       b.AddEdge(2, 1);
       return b.Build({.dangling_policy = DanglingPolicy::kError});
     },
     // Nothing reaches node 0, so one node is affected; a rebuild fraction
     // of 0 must still rebuild.
     [](const Graph&) { return GraphUpdateBatch{EdgeUpdate::Insert(0, 2)}; },
     0.0, 0.0, MutationRepairMode::kRebuilt, 3, false},
    {"60-cycle",
     []() -> Result<Graph> { return CycleGraph(60); },
     // Every node reaches every other: one edge affects all 60, past both
     // caps of 15.
     [](const Graph&) { return GraphUpdateBatch{EdgeUpdate::Insert(0, 30)}; },
     0.25, 0.25, MutationRepairMode::kRebuilt, 60, true},
};

TEST(MutationServingTest, GraphShapesMatchFreshBuild) {
  constexpr uint32_t kK = 5;
  for (const ShapeCase& shape : kShapeCases) {
    SCOPED_TRACE(shape.name);
    auto graph = shape.make_graph();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    GraphUpdateBatch batch = shape.make_batch(*graph);
    ASSERT_FALSE(batch.empty());
    const uint32_t n = graph->num_nodes();
    auto engine = ReverseTopkEngine::Build(std::move(*graph), CoarseOptions());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ServingOptions opts;
    opts.num_threads = 2;
    opts.mutation_repair_fraction = shape.repair_fraction;
    opts.mutation_rebuild_fraction = shape.rebuild_fraction;
    auto serving = ServingEngine::Create(**engine, opts);
    ASSERT_TRUE(serving.ok());

    for (uint32_t q = 0; q < n; ++q) {
      ASSERT_TRUE((*serving)->Query(q, kK).ok()) << "q=" << q;
    }
    (*serving)->PublishPending();
    EXPECT_EQ((*serving)->epoch() > 0, shape.refines);

    MutationResult result = (*serving)->ApplyUpdates(std::move(batch)).get();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    EXPECT_EQ(result.mode, shape.mode);
    if (shape.affected_nodes != 0) {
      EXPECT_EQ(result.affected_nodes, shape.affected_nodes);
    }
    ExpectMatchesFreshEngine(**serving, kK, 1);
  }
}

TEST(MutationServingTest, CreateRejectsBadMutationOptions) {
  auto engine = BuildTestEngine(171);
  ASSERT_TRUE(engine.ok());
  // Each fraction becomes a node cap by a float-to-integer cast: anything
  // outside [0, 1], NaN included, must fail at Create, not in the drain.
  for (const double bad :
       {-1.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    ServingOptions repair;
    repair.mutation_repair_fraction = bad;
    EXPECT_EQ(ServingEngine::Create(**engine, repair).status().code(),
              StatusCode::kInvalidArgument)
        << "repair fraction " << bad;
    ServingOptions rebuild;
    rebuild.mutation_rebuild_fraction = bad;
    EXPECT_EQ(ServingEngine::Create(**engine, rebuild).status().code(),
              StatusCode::kInvalidArgument)
        << "rebuild fraction " << bad;
  }
  ServingOptions threads;
  threads.mutation_threads = -1;
  EXPECT_EQ(ServingEngine::Create(**engine, threads).status().code(),
            StatusCode::kInvalidArgument);

  // Both ends of the range are legal, and repair may exceed rebuild.
  ServingOptions edges;
  edges.num_threads = 1;
  edges.mutation_repair_fraction = 1.0;
  edges.mutation_rebuild_fraction = 0.0;
  edges.mutation_threads = 0;
  EXPECT_TRUE(ServingEngine::Create(**engine, edges).ok());
}

TEST(MutationServingTest, SequentialBatchesAccumulate) {
  auto engine = BuildTestEngine(131);
  ASSERT_TRUE(engine.ok());
  ServingOptions opts;
  opts.num_threads = 2;
  opts.mutation_repair_fraction = 1.0;
  opts.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());

  Rng rng(132);
  std::vector<std::pair<uint32_t, uint32_t>> inserted;
  for (int round = 0; round < 3; ++round) {
    const Graph& cur = (*serving)->snapshot()->graph_version()->graph();
    GraphUpdateBatch batch = MakeInsertBatch(cur, 2, &rng);
    for (const auto& u : batch) inserted.push_back({u.src, u.dst});
    // Delete one of this round's own inserts later; for now also exercise
    // interleaved queries between batches.
    MutationResult r = (*serving)->ApplyUpdates(std::move(batch)).get();
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.status.ToString();
    EXPECT_EQ(r.graph_version, static_cast<uint64_t>(round + 1));
    ASSERT_TRUE((*serving)->Query(7, 5).ok());
  }
  // A delete batch against edges we know exist now.
  GraphUpdateBatch deletes = {
      EdgeUpdate::Delete(inserted[0].first, inserted[0].second),
      EdgeUpdate::Delete(inserted[3].first, inserted[3].second)};
  MutationResult r = (*serving)->ApplyUpdates(std::move(deletes)).get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.graph_version, 4u);
  EXPECT_EQ((*serving)->stats().mutation_batches, 4u);
  ExpectMatchesFreshEngine(**serving, 8, 11);
}

TEST(MutationServingTest, InvalidBatchIsIsolated) {
  auto engine = BuildTestEngine(141);
  ASSERT_TRUE(engine.ok());
  ServingOptions opts;
  opts.num_threads = 1;
  opts.mutation_repair_fraction = 1.0;
  opts.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());
  const Graph& g0 = (*serving)->snapshot()->graph_version()->graph();
  const auto nbrs = g0.OutNeighbors(0);
  ASSERT_FALSE(nbrs.empty());

  // Duplicate insert: the whole batch is rejected atomically.
  MutationResult bad =
      (*serving)
          ->ApplyUpdates({EdgeUpdate::Insert(0, nbrs[0])})
          .get();
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.graph_version, 0u) << "graph must be unchanged";
  EXPECT_EQ((*serving)->stats().graph_version, 0u);
  EXPECT_EQ((*serving)->stats().mutation_batches_rejected, 1u);
  EXPECT_EQ((*serving)->stats().mutation_batches, 0u);

  // A valid batch right after still lands: the stream is not wedged.
  Rng rng(142);
  auto good_batch = MakeInsertBatch(g0, 2, &rng);
  MutationResult good = (*serving)->ApplyUpdates(std::move(good_batch)).get();
  ASSERT_TRUE(good.ok()) << good.status.ToString();
  EXPECT_EQ(good.graph_version, 1u);
  ExpectMatchesFreshEngine(**serving, 8, 17);
}

// ---------------------------------------------------------------------------
// Stale refinement write-back

TEST(MutationServingTest, StaleRefinementsNeverReachPostMutationIndex) {
  auto engine = BuildTestEngine(151);
  ASSERT_TRUE(engine.ok());
  ServingOptions opts;
  opts.num_threads = 1;
  opts.publish_threshold = 0;  // manual publishing: deltas stay pending
  opts.mutation_repair_fraction = 1.0;
  opts.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());

  // Fill the refinement log with deltas refined against graph version 0.
  for (uint32_t q = 0; q < 30; ++q) ASSERT_TRUE((*serving)->Query(q, 8).ok());
  ASSERT_GT((*serving)->stats().pending_deltas, 0u)
      << "coarse index must force refinement";

  // The mutation publish must purge them (they describe the old graph).
  Rng rng(152);
  auto batch =
      MakeInsertBatch((*serving)->snapshot()->graph_version()->graph(), 3,
                      &rng);
  MutationResult result = (*serving)->ApplyUpdates(std::move(batch)).get();
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.pending_deltas, 0u) << "stale deltas must be purged";
  EXPECT_GT(stats.refinements_dropped_stale, 0u);
  EXPECT_EQ((*serving)->PublishPending(), 0u)
      << "nothing stale may be applied after the mutation";
  ExpectMatchesFreshEngine(**serving, 8, 13);

  // Post-mutation queries refine against the new version and their deltas
  // ARE accepted again.
  for (uint32_t q = 0; q < 30; ++q) ASSERT_TRUE((*serving)->Query(q, 8).ok());
  EXPECT_GT((*serving)->stats().pending_deltas, 0u);
  EXPECT_GT((*serving)->PublishPending(), 0u);
  ExpectMatchesFreshEngine(**serving, 8, 13);
}

// ---------------------------------------------------------------------------
// Concurrency: the ci.sh TSan target

TEST(MutationServingTest, ConcurrentMutateQueryRefineStress) {
  auto engine = BuildTestEngine(161);
  ASSERT_TRUE(engine.ok());
  ServingOptions opts;
  opts.num_threads = 2;
  opts.publish_threshold = 16;  // refinement publishes race mutations
  opts.mutation_repair_fraction = 1.0;
  opts.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());

  Rng wrng(162);
  std::vector<uint32_t> workload = SampleQueries(
      (*engine)->graph(), 24, QueryDistribution::kInDegreeBiased, &wrng);
  constexpr uint32_t kK = 8;
  constexpr int kQueryThreads = 6;
  constexpr int kRounds = 4;
  constexpr int kBatches = 5;

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads + 1);
  // Query threads: mixed exact / hits-only tiers, racing the mutations.
  // Results cannot be compared to a fixed oracle mid-flight (the graph is
  // changing), but every request must resolve OK, and TSan checks the
  // epoch-pinned graph+index reads.
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < workload.size(); ++i) {
          const size_t j = (i + static_cast<size_t>(t) * 5) % workload.size();
          QueryRequest req;
          req.query = workload[j];
          req.k = kK;
          req.tier = (t % 3 == 0) ? AccuracyTier::kApproximateHitsOnly
                                  : AccuracyTier::kExact;
          QueryResponse resp = (*serving)->Submit(std::move(req)).get();
          if (!resp.ok()) ++failures;
        }
        if (t % 2 == 0) (*serving)->PublishPending();
      }
    });
  }
  // Mutation thread: kBatches sequential valid batches (each generated
  // against the graph version the previous publish pinned).
  std::atomic<int> mutations_ok{0};
  threads.emplace_back([&] {
    Rng mrng(163);
    for (int b = 0; b < kBatches; ++b) {
      const Graph& cur = (*serving)->snapshot()->graph_version()->graph();
      GraphUpdateBatch batch = MakeInsertBatch(cur, 3, &mrng);
      MutationResult r = (*serving)->ApplyUpdates(std::move(batch)).get();
      if (r.ok()) ++mutations_ok;
    }
    stop = true;
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mutations_ok.load(), kBatches);
  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.graph_version, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.mutation_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.pending_mutations, 0u);
  // The equivalence gate, through the serving path, after the dust
  // settles: byte-identical to a fresh build on the final graph.
  ExpectMatchesFreshEngine(**serving, kK, 7);

  // Hits-only answers on the settled engine are certified subsets.
  auto snap = (*serving)->snapshot();
  Graph copy = snap->graph_version()->graph();
  auto fresh = ReverseTopkEngine::Build(std::move(copy), CoarseOptions());
  ASSERT_TRUE(fresh.ok());
  for (uint32_t q = 0; q < 250; q += 29) {
    QueryRequest req;
    req.query = q;
    req.k = kK;
    req.tier = AccuracyTier::kApproximateHitsOnly;
    QueryResponse resp = (*serving)->Submit(std::move(req)).get();
    ASSERT_TRUE(resp.ok());
    auto exact = (*fresh)->Query(q, kK);
    ASSERT_TRUE(exact.ok());
    EXPECT_TRUE(std::includes(exact->begin(), exact->end(),
                              resp.results.begin(), resp.results.end()))
        << "hits-only answer must be a subset of exact, q=" << q;
  }
}

}  // namespace
}  // namespace rtk
