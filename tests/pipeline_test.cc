// Staged query pipeline (exec/): intra-query determinism, shard-boundary
// tie handling, the pool-reentrant range helper, and the workspace pool.
//
// The load-bearing property is BYTE-identity: the pipeline at any
// num_threads must return the exact result list AND leave the exact
// refined index state (top-K values, residues, BCA states) that the
// serial num_threads=1 path produces — not merely an equivalent answer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "bca/hub_selection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/workspace_pool.h"
#include "core/online_query.h"
#include "exec/prune_stage.h"
#include "exec/query_pipeline.h"
#include "graph/generators.h"
#include "index/index_builder.h"
#include "rwr/pmpn.h"
#include "rwr/transition.h"

namespace rtk {
namespace {

// ---------------------------------------------------------------------------
// ParallelForRange

// The prune scan's shard loop runs at grain 0 and the serving engine's
// singles at grain 1: every (count, max_parallelism) cell must cover each
// element exactly once, also when the call is nested inside pool tasks.
TEST(ParallelForRangeTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t grain : {0, 1}) {
    for (int64_t count : {1, 2, 7, 64, 1000}) {
      for (int parallelism : {0, 1, 2, 4}) {
        std::vector<std::atomic<uint32_t>> seen(count);
        for (auto& c : seen) c.store(0);
        ParallelForRange(&pool, 0, count, parallelism, grain,
                         [&](int64_t lo, int64_t hi) {
                           ASSERT_LE(lo, hi);
                           for (int64_t i = lo; i < hi; ++i) {
                             seen[i].fetch_add(1);
                           }
                         });
        for (int64_t i = 0; i < count; ++i) {
          ASSERT_EQ(seen[i].load(), 1u)
              << "grain=" << grain << " count=" << count
              << " parallelism=" << parallelism << " i=" << i;
        }
      }
    }
    std::atomic<int64_t> total{0};
    ParallelForRange(&pool, 0, 4, 4, /*grain=*/1, [&](int64_t, int64_t) {
      ParallelForRange(&pool, 0, 100, 4, grain, [&](int64_t lo, int64_t hi) {
        total.fetch_add(hi - lo);
      });
    });
    EXPECT_EQ(total.load(), 400) << "grain=" << grain;
  }
}

TEST(ParallelForRangeTest, GrainOneActsAsWorkQueue) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  ParallelForRange(&pool, 10, 110, 2, /*grain=*/1,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) sum += i;
                   });
  int64_t expected = 0;
  for (int64_t i = 10; i < 110; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelForRangeTest, NullPoolAndEmptyRangeRunInline) {
  int calls = 0;
  ParallelForRange(nullptr, 0, 7, 0, 0, [&](int64_t lo, int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 7);
  });
  EXPECT_EQ(calls, 1);
  ParallelForRange(nullptr, 5, 5, 0, 0,
                   [&](int64_t, int64_t) { FAIL() << "empty range ran"; });
}

// The serving engine runs queries as pool tasks whose stages fan out on
// the same pool: nested calls must not deadlock even when every worker is
// itself inside a ParallelForRange wait.
TEST(ParallelForRangeTest, ReentrantFromPoolTasksDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  // More outer tasks than workers, each doing a nested range on the pool.
  ParallelForRange(&pool, 0, 8, 0, /*grain=*/1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ParallelForRange(&pool, 0, 100, 0, /*grain=*/0,
                       [&](int64_t nlo, int64_t nhi) {
                         total += nhi - nlo;
                       });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

// ---------------------------------------------------------------------------
// WorkspacePool

TEST(WorkspacePoolTest, ReusesReleasedInstances) {
  int built = 0;
  WorkspacePool<std::vector<int>> pool([&built]() {
    ++built;
    return std::make_unique<std::vector<int>>(16, 0);
  });
  {
    auto a = pool.Acquire();
    auto b = pool.Acquire();
    (*a)[0] = 1;
    (*b)[0] = 2;
    EXPECT_EQ(built, 2);
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 2u);
  auto c = pool.Acquire();
  EXPECT_EQ(built, 2);  // reused, not rebuilt
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(WorkspacePoolTest, ConcurrentAcquireIsSafe) {
  std::atomic<int> built{0};
  WorkspacePool<int> pool([&built]() {
    built++;
    return std::make_unique<int>(0);
  });
  ThreadPool threads(4);
  ParallelForRange(&threads, 0, 200, 0, /*grain=*/1,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       auto lease = pool.Acquire();
                       ++(*lease);
                     }
                   });
  EXPECT_LE(built.load(), 4 + 1);  // at most one per concurrent holder
  EXPECT_GE(built.load(), 1);
}

// ---------------------------------------------------------------------------
// Intra-query determinism

// Value copies of one row's BCA state lists.
struct StateLists {
  std::vector<std::pair<uint32_t, double>> residue;
  std::vector<std::pair<uint32_t, double>> retained;
  std::vector<std::pair<uint32_t, double>> hub_ink;
};

struct IndexImage {
  std::vector<double> topk;
  std::vector<double> residues;
  std::vector<StateLists> states;
};

IndexImage Capture(const LowerBoundIndex& index) {
  IndexImage image;
  for (uint32_t u = 0; u < index.num_nodes(); ++u) {
    const auto row = index.LowerBounds(u);
    image.topk.insert(image.topk.end(), row.begin(), row.end());
    image.residues.push_back(index.ResidueL1(u));
    const StoredBcaState state = index.State(u);
    image.states.push_back({state.residue().ToPairs(),
                            state.retained().ToPairs(),
                            state.hub_ink().ToPairs()});
  }
  return image;
}

void ExpectSameImage(const IndexImage& a, const IndexImage& b,
                     const std::string& context) {
  ASSERT_EQ(a.topk.size(), b.topk.size()) << context;
  for (size_t i = 0; i < a.topk.size(); ++i) {
    ASSERT_EQ(a.topk[i], b.topk[i]) << context << " topk[" << i << "]";
  }
  for (size_t i = 0; i < a.residues.size(); ++i) {
    ASSERT_EQ(a.residues[i], b.residues[i]) << context << " residue " << i;
  }
  for (size_t u = 0; u < a.states.size(); ++u) {
    ASSERT_EQ(a.states[u].residue, b.states[u].residue) << context << " r " << u;
    ASSERT_EQ(a.states[u].retained, b.states[u].retained) << context << " w " << u;
    ASSERT_EQ(a.states[u].hub_ink, b.states[u].hub_ink) << context << " s " << u;
  }
}

Graph MakeSeededGraph(int which) {
  Rng rng(1000 + which);
  Result<Graph> g = Status::Internal("unset");
  switch (which % 3) {
    case 0: g = ErdosRenyi(150, 900, &rng); break;
    case 1: g = BarabasiAlbert(150, 3, &rng); break;
    default: g = Rmat(8, 1100, &rng); break;  // 256 nodes
  }
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// Pipeline results and refined-index state at num_threads in {1, 2, 8}
// must be byte-identical across seeded random graphs and k in {1, 10, K}.
TEST(PipelineDeterminismTest, ThreadCountInvariantResultsAndIndex) {
  constexpr uint32_t kCapacityK = 25;
  ThreadPool pool(8);
  for (int g = 0; g < 3; ++g) {
    Graph graph = MakeSeededGraph(g);
    TransitionOperator op(graph);
    auto hubs = SelectHubs(graph, {.degree_budget_b = 8});
    ASSERT_TRUE(hubs.ok());
    IndexBuildOptions build_opts;
    build_opts.capacity_k = kCapacityK;
    // Small shards so these 150-256-node graphs exercise real multi-shard
    // scans and copy-on-write writes, not a single-shard degenerate case.
    build_opts.shard_nodes = 32;
    auto base = BuildLowerBoundIndex(op, *hubs, build_opts);
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    Rng rng(4242 + g);
    std::vector<uint32_t> queries;
    for (int i = 0; i < 3; ++i) {
      queries.push_back(static_cast<uint32_t>(rng.Uniform(graph.num_nodes())));
    }

    for (uint32_t k : {1u, 10u, kCapacityK}) {
      // Reference: fully serial run over a fresh index copy.
      LowerBoundIndex serial_index = *base;
      std::vector<std::vector<uint32_t>> serial_results;
      {
        ReverseTopkSearcher searcher(op, &serial_index);
        QueryOptions opts;
        opts.k = k;
        opts.num_threads = 1;
        for (uint32_t q : queries) {
          auto r = searcher.Query(q, opts);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          serial_results.push_back(*r);
        }
      }
      const IndexImage serial_image = Capture(serial_index);

      for (int threads : {2, 8}) {
        LowerBoundIndex index = *base;
        ReverseTopkSearcher searcher(op, &index);
        searcher.set_thread_pool(&pool);
        QueryOptions opts;
        opts.k = k;
        opts.num_threads = threads;
        QueryStats stats;
        for (size_t i = 0; i < queries.size(); ++i) {
          auto r = searcher.Query(queries[i], opts, &stats);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(*r, serial_results[i])
              << "graph " << g << " k=" << k << " threads=" << threads
              << " q=" << queries[i];
          EXPECT_EQ(stats.threads_used, threads);
        }
        ExpectSameImage(Capture(index), serial_image,
                        "graph " + std::to_string(g) + " k=" +
                            std::to_string(k) + " threads=" +
                            std::to_string(threads));
      }
    }
  }
}

// Read-only mode: delta sinks must receive identical deltas in identical
// (ascending node) order at every thread count.
TEST(PipelineDeterminismTest, DeltaSinkOrderThreadInvariant) {
  Graph graph = MakeSeededGraph(1);
  TransitionOperator op(graph);
  auto hubs = SelectHubs(graph, {.degree_budget_b = 6});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 15;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  const LowerBoundIndex& ro = *index;

  ThreadPool pool(4);
  std::vector<std::vector<IndexDelta>> sinks(3);
  const int thread_counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    ReverseTopkSearcher searcher(op, ro);
    searcher.set_thread_pool(&pool);
    QueryOptions opts;
    opts.k = 10;
    opts.num_threads = thread_counts[t];
    opts.delta_sink = &sinks[t];
    auto r = searcher.Query(17 % graph.num_nodes(), opts);
    ASSERT_TRUE(r.ok());
  }
  ASSERT_EQ(sinks[0].size(), sinks[1].size());
  ASSERT_EQ(sinks[0].size(), sinks[2].size());
  for (size_t i = 0; i < sinks[0].size(); ++i) {
    for (int t : {1, 2}) {
      EXPECT_EQ(sinks[0][i].node, sinks[t][i].node) << i;
      EXPECT_EQ(sinks[0][i].topk, sinks[t][i].topk) << i;
      EXPECT_EQ(sinks[0][i].residue_l1, sinks[t][i].residue_l1) << i;
      EXPECT_EQ(StateOf(sinks[0][i].state).residue().ToPairs(),
                StateOf(sinks[t][i].state).residue().ToPairs())
          << i;
    }
    if (i > 0) EXPECT_LT(sinks[0][i - 1].node, sinks[0][i].node);
  }
}

// Parallel PMPN must be bitwise identical to serial at every thread count.
TEST(PipelineDeterminismTest, ParallelPmpnBitwiseEqualsSerial) {
  Graph graph = MakeSeededGraph(2);
  TransitionOperator op(graph);
  ThreadPool pool(8);
  auto serial = ComputeProximityToNode(op, 5);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 8}) {
    IterativeSolveStats stats;
    auto parallel =
        ComputeProximityToNode(op, 5, {}, &stats, &pool, threads);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial->size(), parallel->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i], (*parallel)[i]) << "i=" << i;  // bitwise
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-boundary tie handling

// A tie-epsilon boundary candidate must survive shard-partitioned pruning
// exactly as in the serial scan, wherever the storage layout puts the shard
// cut. We build a real index, reshard it to every width from 1 (every node
// is its own boundary) up, and compare each concurrent scan against the
// single-shard (serial) scan.
TEST(PruneStageTest, TieBoundaryCandidatesSurviveAnySharding) {
  Graph graph = MakeSeededGraph(0);
  TransitionOperator op(graph);
  const uint32_t n = graph.num_nodes();
  auto hubs = SelectHubs(graph, {.degree_budget_b = 6});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 10;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());

  const uint32_t k = 5;
  const double tie = 1e-9;
  auto to_q_result = ComputeProximityToNode(op, 3);
  ASSERT_TRUE(to_q_result.ok());
  std::vector<double> to_q = *to_q_result;
  // Force exact tie-epsilon margins on nodes straddling the shard widths we
  // test: p_u(q) exactly at lb - tie (the survive/prune knife edge) and at
  // lb (an exact tie) for neighbors of several boundaries.
  for (uint32_t boundary : {32u, 64u, 100u}) {
    if (boundary + 1 >= n) continue;
    to_q[boundary - 1] = index->LowerBound(boundary - 1, k) - tie;  // edge
    to_q[boundary] = index->LowerBound(boundary, k);                // tie
    to_q[boundary + 1] =
        index->LowerBound(boundary + 1, k) - tie / 2.0;  // inside band
  }

  PruneStageOptions serial_opts;
  serial_opts.k = k;
  serial_opts.tie_epsilon = tie;
  serial_opts.max_parallelism = 1;
  const LowerBoundIndex one_shard(*index, n);  // one shard == serial scan
  const PruneResult serial =
      RunPruneStage(one_shard, to_q, serial_opts, nullptr);
  ASSERT_EQ(serial.shards_scanned, 1u);

  ThreadPool pool(4);
  for (uint32_t shard_nodes : {1u, 2u, 3u, 32u, 64u, 100u, n - 1}) {
    const LowerBoundIndex resharded(*index, shard_nodes);
    PruneStageOptions opts = serial_opts;
    opts.max_parallelism = 4;
    const PruneResult sharded = RunPruneStage(resharded, to_q, opts, &pool);
    EXPECT_EQ(sharded.hits, serial.hits) << "shard_nodes=" << shard_nodes;
    EXPECT_EQ(sharded.undecided, serial.undecided)
        << "shard_nodes=" << shard_nodes;
    EXPECT_EQ(sharded.candidates, serial.candidates)
        << "shard_nodes=" << shard_nodes;
    EXPECT_EQ(sharded.shards_scanned, (n + shard_nodes - 1) / shard_nodes);
  }
}

// End-to-end version: full queries with tie-manufactured proximities are
// covered above at the stage level; here ensure the default storage layout
// also matches serial on a real query that has candidates within
// tie_epsilon of their bound (common on symmetric structures).
TEST(PruneStageTest, DefaultShardingMatchesSerialOnRealQuery) {
  Graph graph = MakeSeededGraph(1);
  TransitionOperator op(graph);
  auto hubs = SelectHubs(graph, {.degree_budget_b = 6});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 10;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  auto to_q = ComputeProximityToNode(op, 11);
  ASSERT_TRUE(to_q.ok());

  PruneStageOptions opts;
  opts.k = 5;
  opts.max_parallelism = 1;
  const LowerBoundIndex one_shard(*index, graph.num_nodes());
  const PruneResult serial = RunPruneStage(one_shard, *to_q, opts, nullptr);

  ThreadPool pool(4);
  opts.max_parallelism = 0;
  const PruneResult sharded = RunPruneStage(*index, *to_q, opts, &pool);
  EXPECT_EQ(sharded.hits, serial.hits);
  EXPECT_EQ(sharded.undecided, serial.undecided);
  EXPECT_EQ(sharded.candidates, serial.candidates);
  EXPECT_EQ(sharded.shards_scanned, index->num_shards());
}

// ---------------------------------------------------------------------------
// Stats accounting

TEST(PipelineStatsTest, TimingInvariantsHoldByConstruction) {
  Graph graph = MakeSeededGraph(2);
  TransitionOperator op(graph);
  auto hubs = SelectHubs(graph, {.degree_budget_b = 6});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 10;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  ReverseTopkSearcher searcher(op, &(*index));

  QueryOptions opts;
  opts.k = 5;
  QueryStats stats;
  auto r = searcher.Query(7, opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.scan_seconds, stats.prune_seconds + stats.refine_seconds);
  EXPECT_EQ(stats.total_seconds,
            stats.pmpn_seconds + stats.scan_seconds + stats.overhead_seconds);
  EXPECT_GE(stats.total_seconds, stats.pmpn_seconds + stats.scan_seconds);
  EXPECT_GT(stats.pmpn_seconds, 0.0);
  EXPECT_GT(stats.prune_seconds, 0.0);
  EXPECT_EQ(stats.threads_used, 1);
}

// exact_fallback_seconds times the fused fallback solve: positive exactly
// when the query had fallbacks, and part of refine_seconds.
TEST(PipelineStatsTest, ExactFallbackSecondsIsPartOfRefineSeconds) {
  Graph graph = MakeSeededGraph(2);
  TransitionOperator op(graph);
  auto hubs = SelectHubs(graph, {.degree_budget_b = 6});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 10;
  build_opts.bca.delta = 0.5;  // loose: queries refine
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  ReverseTopkSearcher searcher(op, *index);
  ThreadPool pool(2);
  searcher.set_thread_pool(&pool);

  int with_fallbacks = 0;
  int without_fallbacks = 0;
  for (int threads : {1, 2}) {
    for (uint32_t q = 0; q < 40; ++q) {
      QueryOptions opts;
      opts.k = 5;
      opts.num_threads = threads;
      // Every other query stalls out almost at once.
      if (q % 2 == 0) opts.max_stalled_refinements = 1;
      QueryStats stats;
      ASSERT_TRUE(searcher.Query(q, opts, &stats).ok());
      EXPECT_EQ(stats.exact_fallback_seconds > 0.0, stats.exact_fallbacks > 0)
          << "q=" << q;
      EXPECT_LE(stats.exact_fallback_seconds, stats.refine_seconds)
          << "q=" << q;
      (stats.exact_fallbacks > 0 ? with_fallbacks : without_fallbacks)++;
    }
  }
  EXPECT_GT(with_fallbacks, 0);
  EXPECT_GT(without_fallbacks, 0);
}

// The proximity backend seam: a stub backend slots in and the pipeline
// consumes its row (everything prunes when the row is all zeros).
class ZeroBackend final : public ProximityBackend {
 public:
  explicit ZeroBackend(uint32_t n) : n_(n) {}
  Result<ProximityRow> Compute(uint32_t, const RwrOptions&, ThreadPool*,
                               int) const override {
    ProximityRow row;
    row.values.assign(n_, 0.0);  // zero error bounds: the row claims exactness
    return row;
  }
  bool exact() const override { return false; }
  std::string_view name() const override { return "zero-stub"; }

 private:
  uint32_t n_;
};

TEST(PipelineBackendTest, CustomProximityBackendIsUsed) {
  Graph graph = MakeSeededGraph(0);
  TransitionOperator op(graph);
  auto hubs = SelectHubs(graph, {.degree_budget_b = 6});
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions build_opts;
  build_opts.capacity_k = 10;
  auto index = BuildLowerBoundIndex(op, *hubs, build_opts);
  ASSERT_TRUE(index.ok());

  QueryPipeline pipeline(op, &(*index));
  EXPECT_EQ(pipeline.proximity_backend().name(), "pmpn");
  pipeline.set_proximity_backend(
      std::make_unique<ZeroBackend>(graph.num_nodes()));
  EXPECT_EQ(pipeline.proximity_backend().name(), "zero-stub");
  QueryOptions opts;
  opts.k = 5;
  QueryStats stats;
  auto r = pipeline.Run(3, opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());  // zero proximity everywhere -> all pruned
  EXPECT_EQ(stats.candidates, 0u);
}

}  // namespace
}  // namespace rtk
