// Tests for src/index: Algorithm 1 construction, stats, mutation, and
// serialization round trips.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "bca/hub_proximity_store.h"
#include "bca/hub_selection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/toy_graphs.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/lower_bound_index.h"
#include "index_fixtures.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace rtk {
namespace {

LowerBoundIndex MustBuild(const TransitionOperator& op,
                          const std::vector<uint32_t>& hubs,
                          IndexBuildOptions opts = {},
                          ThreadPool* pool = nullptr,
                          IndexBuildReport* report = nullptr) {
  Result<LowerBoundIndex> index =
      BuildLowerBoundIndex(op, hubs, opts, pool, report);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

TEST(IndexBuilderTest, ToyIndexShape) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  IndexBuildOptions opts;
  opts.capacity_k = 3;
  opts.bca.delta = 0.8;
  LowerBoundIndex index = MustBuild(op, {0, 1}, opts);
  EXPECT_EQ(index.num_nodes(), 6u);
  EXPECT_EQ(index.capacity_k(), 3u);
  EXPECT_EQ(index.hub_store().num_hubs(), 2u);
  // Hubs are exact; their state is empty.
  EXPECT_TRUE(index.IsExact(0));
  EXPECT_TRUE(index.State(0).residue().empty());
  EXPECT_TRUE(index.State(0).retained().empty());
}

TEST(IndexBuilderTest, LowerBoundsAreDescendingRows) {
  Rng rng(41);
  Result<Graph> g = ErdosRenyi(100, 600, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  HubSelectionOptions hub_opts;
  hub_opts.degree_budget_b = 5;
  Result<std::vector<uint32_t>> hubs = SelectHubs(*g, hub_opts);
  ASSERT_TRUE(hubs.ok());
  IndexBuildOptions opts;
  opts.capacity_k = 20;
  LowerBoundIndex index = MustBuild(op, *hubs, opts);
  for (uint32_t u = 0; u < g->num_nodes(); ++u) {
    auto row = index.LowerBounds(u);
    for (size_t i = 1; i < row.size(); ++i) {
      EXPECT_LE(row[i], row[i - 1]) << "u=" << u << " i=" << i;
    }
  }
}

TEST(IndexBuilderTest, BoundsAreValidLowerBounds) {
  Rng rng(43);
  Result<Graph> g = BarabasiAlbert(120, 3, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions opts;
  opts.capacity_k = 10;
  LowerBoundIndex index = MustBuild(op, {0, 1, 2, 3});
  for (uint32_t u = 0; u < g->num_nodes(); u += 11) {
    Result<std::vector<double>> exact = ComputeProximityColumn(op, u);
    ASSERT_TRUE(exact.ok());
    std::vector<double> sorted = *exact;
    std::sort(sorted.rbegin(), sorted.rend());
    for (uint32_t k = 1; k <= 10; ++k) {
      EXPECT_LE(index.LowerBound(u, k), sorted[k - 1] + 1e-9)
          << "u=" << u << " k=" << k;
    }
  }
}

TEST(IndexBuilderTest, ParallelAndSerialBuildsAgree) {
  Rng rng(47);
  Result<Graph> g = ErdosRenyi(150, 900, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions opts;
  opts.capacity_k = 15;
  ThreadPool pool(4);
  LowerBoundIndex serial = MustBuild(op, {0, 5, 10}, opts, nullptr);
  LowerBoundIndex parallel = MustBuild(op, {0, 5, 10}, opts, &pool);
  for (uint32_t u = 0; u < g->num_nodes(); ++u) {
    EXPECT_EQ(serial.ResidueL1(u), parallel.ResidueL1(u)) << "u=" << u;
    auto a = serial.LowerBounds(u);
    auto b = parallel.LowerBounds(u);
    for (uint32_t k = 0; k < opts.capacity_k; ++k) {
      EXPECT_EQ(a[k], b[k]) << "u=" << u << " k=" << k;
    }
  }
}

// Holds one worker of a pool with an unrelated task until destroyed, or
// for at most 5 s, so a caller that wrongly waits for it finishes late
// instead of hanging.
class BusyWorker {
 public:
  explicit BusyWorker(ThreadPool* pool) {
    pool->Submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      started_ = true;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(5), [this] { return released_; });
      finished_ = true;
      cv_.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_; });
  }
  ~BusyWorker() {
    std::unique_lock<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return finished_; });
  }

  /// True while the task still holds its worker.
  bool busy() {
    std::lock_guard<std::mutex> lock(mu_);
    return !finished_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
  bool finished_ = false;
};

TEST(IndexBuilderTest, MaintenanceOnASharedPoolWaitsOnlyForItsOwnWork) {
  // The serving engine lends its query pool to index maintenance; a hub
  // solve, a hub re-solve or a rebuild must not wait for in-flight queries.
  Rng rng(53);
  Result<Graph> g = ErdosRenyi(300, 2400, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  std::vector<uint32_t> hubs;
  for (uint32_t h = 0; h < 300; h += 15) hubs.push_back(h);
  ThreadPool pool(2);
  {
    BusyWorker unrelated(&pool);
    Result<HubProximityStore> store =
        HubProximityStore::Build(op, hubs, {}, &pool);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(unrelated.busy()) << "Build waited for an unrelated task";
    Result<HubProximityStore> rebuilt = HubProximityStore::Rebuilt(
        *store, op, {hubs[1], hubs[7], hubs[12]}, {}, &pool);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_TRUE(unrelated.busy()) << "Rebuilt waited for an unrelated task";
  }
  {
    // No hubs, so only the BCA phase runs: the hub phase is Build above.
    BusyWorker unrelated(&pool);
    IndexBuildOptions opts;
    opts.capacity_k = 10;
    opts.shard_nodes = 32;  // several shards: the BCA phase fans out
    Result<LowerBoundIndex> index =
        BuildLowerBoundIndex(op, /*hubs=*/{}, opts, &pool);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_TRUE(unrelated.busy())
        << "BuildLowerBoundIndex waited for an unrelated task";
  }
}

TEST(IndexBuilderTest, ReportBreaksDownTime) {
  Graph g = TwoCommunitiesGraph(10);
  TransitionOperator op(g);
  IndexBuildReport report;
  IndexBuildOptions opts;
  opts.capacity_k = 5;
  MustBuild(op, {0, 10}, opts, nullptr, &report);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GE(report.total_seconds,
            report.hub_solve_seconds * 0.5);  // sanity, not exact
  EXPECT_GT(report.total_bca_iterations, 0u);
}

TEST(IndexBuilderTest, SmallerDeltaMeansTighterBounds) {
  Rng rng(53);
  Result<Graph> g = BarabasiAlbert(100, 3, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions coarse, fine;
  coarse.capacity_k = fine.capacity_k = 10;
  coarse.bca.delta = 0.5;
  fine.bca.delta = 0.01;
  LowerBoundIndex ci = MustBuild(op, {0, 1}, coarse);
  LowerBoundIndex fi = MustBuild(op, {0, 1}, fine);
  double coarse_sum = 0.0, fine_sum = 0.0;
  for (uint32_t u = 0; u < g->num_nodes(); ++u) {
    coarse_sum += ci.LowerBound(u, 10);
    fine_sum += fi.LowerBound(u, 10);
    EXPECT_LE(ci.ResidueL1(u), 0.5 + 1e-12);
    EXPECT_LE(fi.ResidueL1(u), 0.01 + 1e-12);
  }
  EXPECT_GE(fine_sum, coarse_sum);
}

TEST(IndexBuilderTest, RejectsBadOptions) {
  Graph g = CycleGraph(4);
  TransitionOperator op(g);
  IndexBuildOptions opts;
  opts.capacity_k = 0;
  EXPECT_FALSE(BuildLowerBoundIndex(op, {}, opts).ok());
  opts.capacity_k = 5;
  opts.bca.alpha = 2.0;
  EXPECT_FALSE(BuildLowerBoundIndex(op, {}, opts).ok());
}

TEST(IndexStatsTest, CountsComponents) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  IndexBuildOptions opts;
  opts.capacity_k = 3;
  opts.bca.delta = 0.8;
  LowerBoundIndex index = MustBuild(op, {0, 1}, opts);
  IndexStats stats = index.ComputeStats();
  EXPECT_EQ(stats.num_nodes, 6u);
  EXPECT_EQ(stats.num_hubs, 2u);
  EXPECT_EQ(stats.capacity_k, 3u);
  // Hubs + nodes 3 and 5 (1-based) are exact: 4 of 6.
  EXPECT_EQ(stats.exact_nodes, 4u);
  EXPECT_GT(stats.topk_bytes, 0u);
  EXPECT_GT(stats.hub_store_bytes, 0u);
  EXPECT_EQ(stats.TotalBytes(),
            stats.topk_bytes + stats.state_bytes + stats.hub_store_bytes);
}

// ------------------------------------------------- sharded CoW storage --

TEST(IndexStorageTest, ShardLayoutPartitionsAllNodes) {
  LowerBoundIndex index(60, 4, BcaOptions{}, HubProximityStore::Empty(60),
                        /*shard_nodes=*/7);
  EXPECT_EQ(index.shard_nodes(), 7u);
  ASSERT_EQ(index.num_shards(), 9u);  // ceil(60 / 7)
  uint32_t next = 0;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    const auto [lo, hi] = index.ShardNodeRange(s);
    EXPECT_EQ(lo, next);
    EXPECT_GT(hi, lo);
    EXPECT_EQ(index.ShardLowerBounds(s).size(),
              static_cast<size_t>(hi - lo) * index.capacity_k());
    EXPECT_EQ(index.ShardResidues(s).size(), static_cast<size_t>(hi - lo));
    for (uint32_t u = lo; u < hi; ++u) EXPECT_EQ(index.ShardOf(u), s);
    next = hi;
  }
  EXPECT_EQ(next, 60u);  // last shard is short (60 = 8*7 + 4)
}

TEST(IndexStorageTest, CloneSharesShardsAndCopiesOnlyOnWrite) {
  Rng rng(71);
  Result<Graph> g = ErdosRenyi(60, 400, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions opts;
  opts.capacity_k = 6;
  opts.shard_nodes = 8;  // 8 shards over 60 nodes
  LowerBoundIndex base = MustBuild(op, {0, 7}, opts);
  ASSERT_EQ(base.num_shards(), 8u);

  LowerBoundIndex clone = base;
  EXPECT_EQ(clone.cow_shard_copies(), 0u);
  for (uint32_t s = 0; s < base.num_shards(); ++s) {
    EXPECT_EQ(clone.ShardLowerBounds(s).data(),
              base.ShardLowerBounds(s).data())
        << "clone must share shard " << s;
  }

  // First write to shard 1 (node 10) privatizes exactly that shard.
  const double base_before = base.LowerBound(10, 1);
  clone.SetNode(10, {0.9, 0.8}, nullptr, 0.01);
  EXPECT_EQ(clone.cow_shard_copies(), 1u);
  EXPECT_NE(clone.ShardLowerBounds(1).data(), base.ShardLowerBounds(1).data());
  EXPECT_EQ(clone.ShardLowerBounds(0).data(), base.ShardLowerBounds(0).data());
  EXPECT_DOUBLE_EQ(clone.LowerBound(10, 1), 0.9);
  EXPECT_DOUBLE_EQ(base.LowerBound(10, 1), base_before)
      << "writes to the clone must never reach the source";

  // A second write into the now-private shard copies nothing.
  clone.SetNode(11, {0.7}, nullptr, 0.02);
  EXPECT_EQ(clone.cow_shard_copies(), 1u);
  // A write to a different shard copies that one.
  clone.SetNode(50, {0.6}, nullptr, 0.03);
  EXPECT_EQ(clone.cow_shard_copies(), 2u);

  // Writing through the source privatizes the source's slot; the clone's
  // view stays intact.
  base.SetNode(0, {0.5}, nullptr, 0.04);
  EXPECT_EQ(base.cow_shard_copies(), 1u);
  EXPECT_NE(clone.LowerBound(0, 1), 0.5);
}

TEST(IndexStorageTest, ReshardingCopyPreservesEveryRow) {
  Rng rng(73);
  Result<Graph> g = BarabasiAlbert(90, 3, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions opts;
  opts.capacity_k = 8;
  LowerBoundIndex base = MustBuild(op, {0, 1, 2}, opts);
  for (uint32_t shard_nodes : {1u, 13u, 90u, 128u}) {
    LowerBoundIndex resharded(base, shard_nodes);
    EXPECT_EQ(resharded.shard_nodes(), shard_nodes);
    for (uint32_t u = 0; u < base.num_nodes(); ++u) {
      EXPECT_EQ(resharded.ResidueL1(u), base.ResidueL1(u)) << "u=" << u;
      const auto a = base.LowerBounds(u);
      const auto b = resharded.LowerBounds(u);
      for (uint32_t k = 0; k < opts.capacity_k; ++k) EXPECT_EQ(a[k], b[k]);
      EXPECT_EQ(resharded.State(u).residue().ToPairs(),
                base.State(u).residue().ToPairs());
      EXPECT_EQ(resharded.State(u).retained().ToPairs(),
                base.State(u).retained().ToPairs());
    }
  }
}

TEST(IndexStatsTest, PerShardBytesAndStateFootprint) {
  Rng rng(79);
  Result<Graph> g = ErdosRenyi(60, 400, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions opts;
  opts.capacity_k = 6;
  opts.shard_nodes = 16;
  LowerBoundIndex index = MustBuild(op, {0, 7}, opts);
  const IndexStats stats = index.ComputeStats();
  EXPECT_EQ(stats.num_shards, 4u);
  EXPECT_EQ(stats.shard_nodes, 16u);
  ASSERT_EQ(stats.shard_bytes.size(), 4u);
  uint64_t shard_sum = 0;
  for (uint64_t b : stats.shard_bytes) {
    EXPECT_GT(b, 0u);
    shard_sum += b;
  }
  EXPECT_EQ(shard_sum, stats.topk_bytes + stats.state_bytes);
  // The states vector's own footprint must be accounted, not just its
  // pair-list allocations: at least sizeof(StoredBcaState) per node.
  EXPECT_GE(stats.state_bytes, 60u * sizeof(StoredBcaState));
}

TEST(IndexMutationTest, SetNodeOverwrites) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  IndexBuildOptions opts;
  opts.capacity_k = 3;
  LowerBoundIndex index = MustBuild(op, {0, 1}, opts);
  const SharedBcaState state =
      PackBcaState(/*iterations=*/9, /*residue=*/{}, /*retained=*/{{2u, 0.5}});
  index.SetNode(2, {0.5, 0.4}, state, 0.25);
  EXPECT_DOUBLE_EQ(index.LowerBound(2, 1), 0.5);
  EXPECT_DOUBLE_EQ(index.LowerBound(2, 2), 0.4);
  EXPECT_DOUBLE_EQ(index.LowerBound(2, 3), 0.0);  // padded
  EXPECT_DOUBLE_EQ(index.ResidueL1(2), 0.25);
  EXPECT_FALSE(index.IsExact(2));
  EXPECT_EQ(index.State(2).iterations(), 9u);
}

// ------------------------------------------------------------------- I/O --

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "rtk_index_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IndexIoTest, RoundTripPreservesEverything) {
  Rng rng(61);
  Result<Graph> g = ErdosRenyi(80, 500, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions opts;
  opts.capacity_k = 12;
  opts.bca.eta = 2e-4;
  opts.bca.delta = 0.2;
  LowerBoundIndex index = MustBuild(op, {0, 7, 11}, opts);

  const std::string path = (dir_ / "index.bin").string();
  ASSERT_TRUE(SaveIndex(index, path).ok());
  Result<LowerBoundIndex> loaded = LoadIndex(path, g->num_nodes());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->capacity_k(), 12u);
  EXPECT_EQ(loaded->bca_options().eta, 2e-4);
  EXPECT_EQ(loaded->bca_options().delta, 0.2);
  EXPECT_EQ(loaded->hub_store().num_hubs(), 3u);
  EXPECT_EQ(loaded->hub_store().hubs(), index.hub_store().hubs());
  EXPECT_EQ(loaded->hub_store().TotalEntries(),
            index.hub_store().TotalEntries());
  for (uint32_t u = 0; u < g->num_nodes(); ++u) {
    EXPECT_EQ(loaded->ResidueL1(u), index.ResidueL1(u)) << "u=" << u;
    auto a = index.LowerBounds(u);
    auto b = loaded->LowerBounds(u);
    for (uint32_t k = 0; k < 12; ++k) EXPECT_EQ(a[k], b[k]);
    EXPECT_EQ(loaded->State(u).residue().ToPairs(),
              index.State(u).residue().ToPairs());
    EXPECT_EQ(loaded->State(u).retained().ToPairs(),
              index.State(u).retained().ToPairs());
    EXPECT_EQ(loaded->State(u).hub_ink().ToPairs(),
              index.State(u).hub_ink().ToPairs());
    EXPECT_EQ(loaded->State(u).iterations(), index.State(u).iterations());
  }
}

void ExpectSameIndex(const LowerBoundIndex& a, const LowerBoundIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.capacity_k(), b.capacity_k());
  EXPECT_EQ(a.bca_options().eta, b.bca_options().eta);
  EXPECT_EQ(a.bca_options().delta, b.bca_options().delta);
  EXPECT_EQ(a.hub_store().hubs(), b.hub_store().hubs());
  EXPECT_EQ(a.hub_store().TotalEntries(), b.hub_store().TotalEntries());
  for (uint32_t u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.ResidueL1(u), b.ResidueL1(u)) << "u=" << u;
    const auto ra = a.LowerBounds(u);
    const auto rb = b.LowerBounds(u);
    for (uint32_t k = 0; k < a.capacity_k(); ++k) {
      EXPECT_EQ(ra[k], rb[k]) << "u=" << u << " k=" << k;
    }
    EXPECT_EQ(a.State(u).residue().ToPairs(),
              b.State(u).residue().ToPairs())
        << "u=" << u;
    EXPECT_EQ(a.State(u).retained().ToPairs(),
              b.State(u).retained().ToPairs())
        << "u=" << u;
    EXPECT_EQ(a.State(u).hub_ink().ToPairs(),
              b.State(u).hub_ink().ToPairs())
        << "u=" << u;
    EXPECT_EQ(a.State(u).iterations(), b.State(u).iterations()) << "u=" << u;
  }
}

// Every format version must carry identical content: the checked-in
// fixtures hold the same index as v1, v2 and v3 (index_fixtures.h); load
// all three and compare everything against a fresh build.
TEST_F(IndexIoTest, AllFormatVersionRoundTripsAgree) {
  const Graph g = GoldenGraph();
  TransitionOperator op(g);
  Result<LowerBoundIndex> built = BuildGoldenIndex(g, op);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const LowerBoundIndex& index = *built;

  const std::string v1_path = GoldenIndexPath(1);
  const std::string v2_path = GoldenIndexPath(2);
  const std::string v3_path = GoldenIndexPath(3);
  Result<LowerBoundIndex> v1 = LoadIndex(v1_path, g.num_nodes());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  Result<LowerBoundIndex> v2 = LoadIndex(v2_path, g.num_nodes());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  Result<LowerBoundIndex> v3 = LoadIndex(v3_path, g.num_nodes());
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  ExpectSameIndex(index, *v1);
  ExpectSameIndex(index, *v2);
  ExpectSameIndex(index, *v3);
  // The sharded loaders reconstruct the file's shard layout.
  EXPECT_EQ(v2->shard_nodes(), 16u);
  EXPECT_EQ(v2->num_shards(), index.num_shards());
  EXPECT_EQ(v3->shard_nodes(), 16u);
  EXPECT_EQ(v3->num_shards(), index.num_shards());

  auto info = ReadIndexFileInfo(v3_path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->format_version, 3u);
  EXPECT_EQ(info->num_nodes, 60u);
  EXPECT_EQ(info->capacity_k, 8u);
  EXPECT_EQ(info->shard_nodes, 16u);
  EXPECT_EQ(info->num_shards, index.num_shards());
  auto v2_info = ReadIndexFileInfo(v2_path);
  ASSERT_TRUE(v2_info.ok());
  EXPECT_EQ(v2_info->format_version, 2u);
  EXPECT_EQ(v2_info->num_shards, index.num_shards());
  auto v1_info = ReadIndexFileInfo(v1_path);
  ASSERT_TRUE(v1_info.ok());
  EXPECT_EQ(v1_info->format_version, 1u);
  EXPECT_EQ(v1_info->num_shards, 0u);
}

// Save must emit identical bytes with and without a pool, and Load must
// reconstruct identical indexes either way (the parallel I/O is shard-
// aligned, so thread count cannot leak into file or index content).
TEST_F(IndexIoTest, ParallelSaveAndLoadMatchSerial) {
  Rng rng(69);
  Result<Graph> g = BarabasiAlbert(120, 3, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  IndexBuildOptions opts;
  opts.capacity_k = 10;
  opts.shard_nodes = 16;
  LowerBoundIndex index = MustBuild(op, {0, 1, 2, 3}, opts);

  ThreadPool pool(4);
  const std::string serial_path = (dir_ / "serial.bin").string();
  const std::string parallel_path = (dir_ / "parallel.bin").string();
  ASSERT_TRUE(SaveIndex(index, serial_path).ok());
  ASSERT_TRUE(SaveIndex(index, parallel_path, &pool).ok());

  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read_all(serial_path), read_all(parallel_path));

  Result<LowerBoundIndex> serial = LoadIndex(serial_path, g->num_nodes());
  ASSERT_TRUE(serial.ok());
  Result<LowerBoundIndex> parallel =
      LoadIndex(parallel_path, g->num_nodes(), &pool);
  ASSERT_TRUE(parallel.ok());
  ExpectSameIndex(*serial, *parallel);
  ExpectSameIndex(index, *parallel);
}

TEST_F(IndexIoTest, RejectsWrongGraphSize) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  IndexBuildOptions opts;
  opts.capacity_k = 3;
  LowerBoundIndex index = MustBuild(op, {0, 1}, opts);
  const std::string path = (dir_ / "index.bin").string();
  ASSERT_TRUE(SaveIndex(index, path).ok());
  Result<LowerBoundIndex> loaded = LoadIndex(path, 7);  // wrong n
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IndexIoTest, DetectsCorruption) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  IndexBuildOptions opts;
  opts.capacity_k = 3;
  LowerBoundIndex index = MustBuild(op, {0, 1}, opts);
  const std::string path = (dir_ / "index.bin").string();
  ASSERT_TRUE(SaveIndex(index, path).ok());
  // Flip one byte in the middle of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    char byte;
    f.seekg(200);
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(200);
    f.write(&byte, 1);
  }
  Result<LowerBoundIndex> loaded = LoadIndex(path, g.num_nodes());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(IndexIoTest, RejectsBadMagic) {
  const std::string path = (dir_ / "junk.bin").string();
  std::ofstream(path, std::ios::binary) << "NOTANINDEXFILE AT ALL";
  Result<LowerBoundIndex> loaded = LoadIndex(path, 6);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IndexIoTest, MissingFileIsIOError) {
  Result<LowerBoundIndex> loaded =
      LoadIndex((dir_ / "missing.bin").string(), 6);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace rtk
