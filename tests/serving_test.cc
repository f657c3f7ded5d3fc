// Tests for the serving subsystem: snapshot isolation, the refinement
// write-back queue, the sharded query cache, and the ServingEngine facade
// (including the multi-threaded equivalence stress test that ci.sh also
// runs under TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bca/hub_proximity_store.h"
#include "common/rng.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "serving/index_snapshot.h"
#include "serving/query_cache.h"
#include "serving/refinement_log.h"
#include "serving/serving_engine.h"
#include "workload/query_workload.h"

namespace rtk {
namespace {

// Coarse options: a high BCA delta leaves large residues in the index, so
// queries must refine (and therefore produce write-back deltas).
EngineOptions CoarseOptions() {
  EngineOptions opts;
  opts.capacity_k = 20;
  opts.hub_selection.degree_budget_b = 5;
  opts.bca.delta = 0.5;
  opts.num_threads = 2;
  // Small shards so the 250-node test graphs span several storage shards
  // and publishes exercise real copy-on-write, not a single-shard clone.
  opts.shard_nodes = 32;
  return opts;
}

Result<std::unique_ptr<ReverseTopkEngine>> BuildTestEngine(uint64_t seed) {
  Rng rng(seed);
  auto graph = BarabasiAlbert(250, 3, &rng);
  if (!graph.ok()) return graph.status();
  return ReverseTopkEngine::Build(std::move(*graph), CoarseOptions());
}

// ---------------------------------------------------------------------------
// IndexDelta / ApplyIfTighter

TEST(IndexDeltaTest, ApplyIfTighterKeepsTighterEntry) {
  LowerBoundIndex index(4, 2, BcaOptions{}, HubProximityStore::Empty(4));
  // Fresh index rows carry residue 1.0 (nothing refined).
  EXPECT_TRUE(index.ApplyIfTighter({1, {0.4, 0.2}, nullptr, 0.5}));
  EXPECT_DOUBLE_EQ(index.LowerBound(1, 1), 0.4);
  EXPECT_DOUBLE_EQ(index.ResidueL1(1), 0.5);
  // Looser (larger residue) and equal deltas are rejected.
  EXPECT_FALSE(index.ApplyIfTighter({1, {0.3, 0.1}, nullptr, 0.7}));
  EXPECT_FALSE(index.ApplyIfTighter({1, {0.3, 0.1}, nullptr, 0.5}));
  EXPECT_DOUBLE_EQ(index.LowerBound(1, 1), 0.4);
  // Exact (residue 0) always wins over inexact, then is final.
  EXPECT_TRUE(index.ApplyIfTighter({1, {0.6, 0.5}, nullptr, 0.0}));
  EXPECT_TRUE(index.IsExact(1));
  EXPECT_FALSE(index.ApplyIfTighter({1, {0.9, 0.8}, nullptr, 0.0}));
}

TEST(IndexDeltaTest, ReadOnlySearcherRecordsDeltasWithoutMutating) {
  auto engine = BuildTestEngine(7);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const LowerBoundIndex& index = (*engine)->index();
  const uint64_t exact_before = index.ComputeStats().exact_nodes;

  ReverseTopkSearcher searcher((*engine)->transition(), index);
  QueryOptions opts;
  opts.k = 8;
  opts.update_index = true;
  std::vector<IndexDelta> deltas;
  opts.delta_sink = &deltas;
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> answers;
  for (uint32_t q = 0; q < 40; ++q) {
    auto result = searcher.Query(q, opts);
    ASSERT_TRUE(result.ok());
    answers.emplace_back(q, std::move(*result));
  }
  EXPECT_GT(deltas.size(), 0u) << "coarse index should force refinement";
  // The shared index was not touched.
  EXPECT_EQ(index.ComputeStats().exact_nodes, exact_before);
  for (const auto& delta : deltas) {
    EXPECT_LT(delta.residue_l1, index.ResidueL1(delta.node));
  }

  // The same queries through the mutating path return identical results.
  for (const auto& [q, result] : answers) {
    auto serial = (*engine)->Query(q, 8);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(result, serial.value()) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// RefinementLog

TEST(RefinementLogTest, KeepsTightestDeltaPerNode) {
  RefinementLog log;
  log.Append({{3, {0.5}, {}, 0.4}, {5, {0.2}, {}, 0.6}});
  log.Append({{3, {0.6}, {}, 0.2},    // tighter: replaces
              {5, {0.1}, {}, 0.9}});  // looser: dropped
  EXPECT_EQ(log.pending(), 2u);
  auto stats = log.stats();
  EXPECT_EQ(stats.appended, 4u);
  EXPECT_EQ(stats.superseded, 2u);

  auto drained = log.DrainByShard(/*shard_nodes=*/256);
  ASSERT_EQ(drained.size(), 1u);
  ASSERT_EQ(drained[0].deltas.size(), 2u);
  EXPECT_EQ(drained[0].deltas[0].node, 3u);
  EXPECT_DOUBLE_EQ(drained[0].deltas[0].residue_l1, 0.2);
  EXPECT_EQ(drained[0].deltas[1].node, 5u);
  EXPECT_DOUBLE_EQ(drained[0].deltas[1].residue_l1, 0.6);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_TRUE(log.DrainByShard(256).empty());
}

TEST(RefinementLogTest, DrainByShardGroupsAndSortsByNode) {
  RefinementLog log;
  log.Append({{300, {0.5}, {}, 0.4},
              {2, {0.3}, {}, 0.5},
              {257, {0.2}, {}, 0.6},
              {5, {0.1}, {}, 0.7}});
  auto groups = log.DrainByShard(/*shard_nodes=*/256);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].shard, 0u);
  ASSERT_EQ(groups[0].deltas.size(), 2u);
  EXPECT_EQ(groups[0].deltas[0].node, 2u);
  EXPECT_EQ(groups[0].deltas[1].node, 5u);
  EXPECT_EQ(groups[1].shard, 1u);
  ASSERT_EQ(groups[1].deltas.size(), 2u);
  EXPECT_EQ(groups[1].deltas[0].node, 257u);
  EXPECT_EQ(groups[1].deltas[1].node, 300u);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_TRUE(log.DrainByShard(256).empty());
}

// ---------------------------------------------------------------------------
// QueryCache

TEST(QueryCacheTest, HitMissAndEpochSeparation) {
  QueryCache cache({.capacity = 64, .num_shards = 4});
  const QueryCache::Key key{7, 10, 0};
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, std::make_shared<const std::vector<uint32_t>>(
                        std::vector<uint32_t>{1, 2, 3}));
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<uint32_t>{1, 2, 3}));
  // Same (q, k) under a newer epoch is a distinct entry.
  EXPECT_EQ(cache.Lookup({7, 10, 1}), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);

  cache.Clear();
  EXPECT_EQ(cache.Lookup(key), nullptr);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  // One shard with capacity 2 makes LRU order observable.
  QueryCache cache({.capacity = 2, .num_shards = 1});
  auto value = [](uint32_t v) {
    return std::make_shared<const std::vector<uint32_t>>(
        std::vector<uint32_t>{v});
  };
  cache.Insert({1, 1, 0}, value(1));
  cache.Insert({2, 1, 0}, value(2));
  ASSERT_NE(cache.Lookup({1, 1, 0}), nullptr);  // refresh key 1
  cache.Insert({3, 1, 0}, value(3));            // evicts key 2
  EXPECT_NE(cache.Lookup({1, 1, 0}), nullptr);
  EXPECT_EQ(cache.Lookup({2, 1, 0}), nullptr);
  EXPECT_NE(cache.Lookup({3, 1, 0}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(QueryCacheTest, ZeroCapacityDisablesCaching) {
  QueryCache cache({.capacity = 0});
  cache.Insert({1, 1, 0}, std::make_shared<const std::vector<uint32_t>>());
  EXPECT_EQ(cache.Lookup({1, 1, 0}), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// ServingEngine

TEST(ServingEngineTest, MatchesSerialEngineAndCaches) {
  auto engine = BuildTestEngine(21);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServingOptions serving_opts;
  serving_opts.num_threads = 2;
  serving_opts.publish_threshold = 0;  // keep epoch 0: hit counts exact
  // Snapshot is cloned here, before the serial engine refines itself.
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  const std::vector<uint32_t> queries = {1, 42, 42, 99, 1, 200};
  for (uint32_t q : queries) {
    auto expected = (*engine)->Query(q, 8);
    auto got = (*serving)->Query(q, 8);
    ASSERT_TRUE(expected.ok() && got.ok());
    EXPECT_EQ(*got, *expected) << "q=" << q;
  }
  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.cache_hits, 2u);  // the repeated 42 and 1
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_GT(stats.deltas_recorded, 0u);
}

TEST(ServingEngineTest, QueryBatchMatchesSerial) {
  auto engine = BuildTestEngine(33);
  ASSERT_TRUE(engine.ok());
  auto serving = ServingEngine::Create(**engine, {.num_threads = 4});
  ASSERT_TRUE(serving.ok());

  Rng rng(1);
  std::vector<uint32_t> queries =
      SampleQueries((*engine)->graph(), 24, QueryDistribution::kUniform, &rng);
  std::vector<QueryResponse> batch = (*serving)->QueryBatch(queries, 6);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status.ToString();
    auto expected = (*engine)->Query(queries[i], 6);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(batch[i].results, *expected) << "q=" << queries[i];
  }

  // Per-request status: a failing query no longer discards its siblings.
  std::vector<QueryResponse> mixed = (*serving)->QueryBatch({3, 9999}, 6);
  ASSERT_EQ(mixed.size(), 2u);
  ASSERT_TRUE(mixed[0].ok()) << "sibling of a failing query must survive";
  auto expected = (*engine)->Query(3, 6);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(mixed[0].results, *expected);
  EXPECT_EQ(mixed[1].status.code(), StatusCode::kInvalidArgument)
      << "out-of-range query must surface its own status";
}

TEST(ServingEngineTest, CacheInvalidationOnEpochBump) {
  auto engine = BuildTestEngine(55);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.publish_threshold = 0;  // manual publishing only
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());
  ASSERT_EQ((*serving)->epoch(), 0u);

  auto first = (*serving)->Query(17, 8);
  ASSERT_TRUE(first.ok());
  auto again = (*serving)->Query(17, 8);
  ASSERT_TRUE(again.ok());
  ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  ASSERT_GT(stats.pending_deltas, 0u) << "expected refinement to queue work";

  // Publishing folds the deltas into a fresh snapshot and bumps the epoch,
  // which invalidates every cached result by key.
  EXPECT_GT((*serving)->PublishPending(), 0u);
  EXPECT_EQ((*serving)->epoch(), 1u);
  EXPECT_EQ((*serving)->PublishPending(), 0u) << "log already drained";

  auto after = (*serving)->Query(17, 8);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *first) << "refinement must not change results";
  stats = (*serving)->stats();
  EXPECT_EQ(stats.cache_hits, 1u) << "epoch bump must miss the cache";
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.epochs_published, 1u);
  EXPECT_GT(stats.deltas_applied, 0u);
}

// The publish-cost property the sharded storage exists for: a publish
// privatizes only the shards its delta batch touches, and every clean
// shard of consecutive snapshots is physically shared memory.
TEST(ServingEngineTest, PublishCopiesOnlyDirtyShards) {
  auto engine = BuildTestEngine(91);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.publish_threshold = 0;  // manual publishing only
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());
  auto before = (*serving)->snapshot();
  const uint32_t num_shards = before->index().num_shards();
  ASSERT_GT(num_shards, 4u) << "test graph must span several shards";

  auto r = (*serving)->Query(17, 8);
  ASSERT_TRUE(r.ok());
  const uint64_t applied = (*serving)->PublishPending();
  ASSERT_GT(applied, 0u);
  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.index_shards, num_shards);
  EXPECT_GE(stats.shards_copied, 1u);
  // No more shards copied than deltas applied or shards in existence.
  EXPECT_LE(stats.shards_copied,
            std::min<uint64_t>(applied, num_shards));

  // Shards the publish did not dirty are the same memory in both epochs.
  auto after = (*serving)->snapshot();
  ASSERT_EQ(after->epoch(), before->epoch() + 1);
  uint32_t shared = 0, copied = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (after->index().ShardLowerBounds(s).data() ==
        before->index().ShardLowerBounds(s).data()) {
      ++shared;
    } else {
      ++copied;
    }
  }
  EXPECT_EQ(copied, stats.shards_copied);
  EXPECT_EQ(shared + copied, num_shards);
}

// The ci.sh TSan target: N threads of mixed cached/uncached queries racing
// with snapshot publishes; every result must equal the serial engine's.
TEST(ServingEngineTest, ConcurrentStressMatchesSerial) {
  auto engine = BuildTestEngine(77);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 2;
  serving_opts.publish_threshold = 16;  // exercise mid-stress publishes
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  // Workload with repeats (cache hits) computed serially first.
  Rng rng(3);
  std::vector<uint32_t> workload = SampleQueries(
      (*engine)->graph(), 20, QueryDistribution::kInDegreeBiased, &rng);
  const uint32_t k = 8;
  std::vector<std::vector<uint32_t>> expected;
  expected.reserve(workload.size());
  for (uint32_t q : workload) {
    auto r = (*engine)->Query(q, k);
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < workload.size(); ++i) {
          // Stagger start offsets so threads disagree about what is cached.
          const size_t j = (i + static_cast<size_t>(t) * 3) % workload.size();
          auto got = (*serving)->Query(workload[j], k);
          if (!got.ok()) {
            ++failures;
          } else if (*got != expected[j]) {
            ++mismatches;
          }
        }
        // Half the threads also race explicit publishes.
        if (t % 2 == 0) (*serving)->PublishPending();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.queries,
            static_cast<uint64_t>(kThreads) * kRounds * workload.size());
  EXPECT_GT(stats.cache_hits, 0u);
  // Publishes happened (threshold or explicit), and the final snapshot's
  // bounds are tighter than epoch 0's.
  EXPECT_GT(stats.epochs_published, 0u);
  EXPECT_GT(stats.deltas_applied, 0u);
}

}  // namespace
}  // namespace rtk
