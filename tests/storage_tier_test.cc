// Memory-tiered shard storage tests (index/shard_backing.h): the mmap
// tier must be indistinguishable from the heap tier in every result byte
// while deferring all payload parsing to first touch.
//
//   1. identity — heap and mmap loads of the same index file answer every
//      query identically at every thread count, and the refined indexes
//      they write back re-serialize to byte-identical files (covers
//      mid-query shard promotion: write-back faults cold shards in);
//   2. laziness — a prune-only query leaves every shard cold; v3 opens
//      defer the hub blob until the first refining query;
//   3. faults — a flipped payload bit fails the EAGER heap load up front,
//      while the mmap open succeeds and the first touching query surfaces
//      the same Corruption pinned to the shard (hub-blob corruption
//      likewise: open OK, first refining query fails, prune-only queries
//      unaffected, a mutation fails with it and keeps the old snapshot);
//      a dirty shard refuses demotion; a demoted clean shard refaults
//      bit-identically;
//   4. serving — ServingEngine over a mmap-tier engine publishes the same
//      epochs as over heap (CoW publish over mapped shards), the
//      residency manager promotes hot shards / demotes idle ones without
//      changing any answer, and the engine's fault and eviction counts
//      stay the source's after a mutation rebuild moves the index to the
//      heap;
//   5. write-back — RefinementLog's batched Append keeps the sequential
//      form's dedup winners;
//   6. copy-on-write — a shard copy shares every row's BCA state (a write
//      replaces one row's pointer, older snapshots keep their states),
//      and the serving engine counts the bytes publishes and mutation
//      drains copy;
//   7. round trips and hostile files — save, load in either tier and save
//      again is byte-identical after refinement; out-of-range node ids
//      behind valid checksums are Corruption on both tiers.
//
// ci.sh runs this file under TSan and ASan (the concurrency tests double
// as race detectors for the lazy fault/verify paths).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "index/index_io.h"
#include "index/shard_backing.h"
#include "index_fixtures.h"
#include "serving/refinement_log.h"
#include "serving/serving_engine.h"

namespace rtk {
namespace {

namespace fs = std::filesystem;

class StorageTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "rtk_storage_tier_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Coarse bounds (large BCA delta) so queries really refine and write
  // back — the tier comparison must exercise faulting, promotion, and
  // CoW over mapped shards, not just cold scans.
  static EngineOptions CoarseOptions() {
    EngineOptions opts;
    opts.capacity_k = 16;
    opts.hub_selection.degree_budget_b = 6;
    opts.bca.delta = 0.5;
    opts.num_threads = 2;
    opts.shard_nodes = 48;
    return opts;
  }

  Graph TestGraph(uint64_t seed = 33, uint32_t n = 400) {
    Rng rng(seed);
    auto graph = BarabasiAlbert(n, 3, &rng);
    EXPECT_TRUE(graph.ok());
    return std::move(*graph);
  }

  // Builds an engine, saves its index, and returns the file path.
  std::string MakeIndexFile(const Graph& graph) {
    auto built = ReverseTopkEngine::Build(Graph(graph), CoarseOptions());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    const std::string path = Path("index_v3.rtki");
    EXPECT_TRUE(SaveIndex((*built)->index(), path).ok());
    return path;
  }

  Result<std::unique_ptr<ReverseTopkEngine>> LoadTiered(const Graph& graph,
                                                        const std::string& path,
                                                        StorageTier tier) {
    EngineOptions opts = CoarseOptions();
    opts.storage_tier = tier;
    return ReverseTopkEngine::LoadFromFile(Graph(graph), path, opts);
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  fs::path dir_;
};

// ------------------------------------------------------------- identity --

TEST_F(StorageTierTest, QueriesAndRefinedStateIdenticalAcrossTiers) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);

  auto heap = LoadTiered(graph, path, StorageTier::kHeap);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
  EXPECT_EQ((*heap)->index().storage_tier(), StorageTier::kHeap);
  EXPECT_EQ((*mmap)->index().storage_tier(), StorageTier::kMmap);
  EXPECT_EQ((*mmap)->index().residency().resident_shards, 0u);

  // The same refining workload against both tiers, sweeping the
  // intra-query thread count. update_index=true makes each query's
  // write-back the next query's starting state, so any divergence
  // compounds — byte equality at the end is a strong invariant.
  Rng rng(5);
  for (int i = 0; i < 24; ++i) {
    QueryOptions qopts;
    qopts.k = 4 + static_cast<uint32_t>(rng.Uniform(8));
    qopts.num_threads = (i % 3 == 0) ? 4 : 1;
    const uint32_t q = static_cast<uint32_t>(rng.Uniform(graph.num_nodes()));
    auto rh = (*heap)->QueryWithOptions(q, qopts);
    auto rm = (*mmap)->QueryWithOptions(q, qopts);
    ASSERT_TRUE(rh.ok()) << rh.status().ToString();
    ASSERT_TRUE(rm.ok()) << rm.status().ToString();
    EXPECT_EQ(*rh, *rm) << "query " << q << " k " << qopts.k;
  }

  for (uint32_t u = 0; u < graph.num_nodes(); ++u) {
    const auto bh = (*heap)->index().LowerBounds(u);
    const auto bm = (*mmap)->index().LowerBounds(u);
    ASSERT_TRUE(std::equal(bh.begin(), bh.end(), bm.begin())) << "u=" << u;
    ASSERT_EQ((*heap)->index().ResidueL1(u), (*mmap)->index().ResidueL1(u));
  }

  // Write-back promoted (faulted + privatized) the shards it touched.
  EXPECT_GT((*mmap)->index().residency().resident_shards, 0u);
  EXPECT_GT((*mmap)->index().shard_source()->faults(), 0u);

  // The refined indexes must re-serialize identically: same records, same
  // checksums, byte for byte.
  const std::string heap_out = Path("refined_heap.rtki");
  const std::string mmap_out = Path("refined_mmap.rtki");
  ASSERT_TRUE((*heap)->SaveIndex(heap_out).ok());
  ASSERT_TRUE((*mmap)->SaveIndex(mmap_out).ok());
  std::ifstream a(heap_out, std::ios::binary), b(mmap_out, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

// The checked-in v2 and v3 fixtures hold the same index (index_fixtures.h).
TEST_F(StorageTierTest, V2FilesLoadInBothTiersAndAgree) {
  const Graph graph = GoldenGraph();
  const std::string v2_path = GoldenIndexPath(2);
  const std::string v3_path = GoldenIndexPath(3);

  auto v2_mmap = LoadTiered(graph, v2_path, StorageTier::kMmap);
  ASSERT_TRUE(v2_mmap.ok()) << v2_mmap.status().ToString();
  auto v3_heap = LoadTiered(graph, v3_path, StorageTier::kHeap);
  ASSERT_TRUE(v3_heap.ok()) << v3_heap.status().ToString();

  QueryOptions qopts;
  qopts.k = 8;  // the fixtures' capacity K
  qopts.update_index = false;
  for (uint32_t q : {7u, 20u, 33u}) {
    auto ra = (*v2_mmap)->QueryWithOptions(q, qopts);
    auto rb = (*v3_heap)->QueryWithOptions(q, qopts);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(*ra, *rb);
  }
}

TEST_F(StorageTierTest, V1FileRejectedByMmapTier) {
  const Graph graph = GoldenGraph();
  const std::string v1_path = GoldenIndexPath(1);
  auto v1_heap = LoadTiered(graph, v1_path, StorageTier::kHeap);
  EXPECT_TRUE(v1_heap.ok()) << v1_heap.status().ToString();
  auto v1_mmap = LoadTiered(graph, v1_path, StorageTier::kMmap);
  ASSERT_FALSE(v1_mmap.ok());
  EXPECT_EQ(v1_mmap.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- laziness --

TEST_F(StorageTierTest, PruneOnlyQueryLeavesEveryShardCold) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(mmap.ok());

  // Hits-only queries never refine, so the scan streams every shard from
  // the map and nothing materializes.
  QueryOptions qopts;
  qopts.approximate_hits_only = true;
  qopts.update_index = false;
  for (uint32_t q : {3u, 77u, 240u}) {
    ASSERT_TRUE((*mmap)->QueryWithOptions(q, qopts).ok());
  }
  const StorageResidency residency = (*mmap)->index().residency();
  EXPECT_EQ(residency.resident_shards, 0u);
  EXPECT_EQ(residency.shard_faults, 0u);
  EXPECT_GT(residency.mmap_bytes, 0u);
}

TEST_F(StorageTierTest, V3HeaderCarriesLayoutAndOpensWithoutPayload) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, 3u);
  ASSERT_GT(info->num_shards, 1u);
  ASSERT_EQ(info->shard_offsets.size(), info->num_shards);
  // The directory resolves to a gapless partition of the payload region
  // ending exactly at EOF.
  for (uint32_t s = 0; s + 1 < info->num_shards; ++s) {
    EXPECT_EQ(info->shard_offsets[s] + info->shard_bytes[s],
              info->shard_offsets[s + 1]);
  }
  EXPECT_EQ(info->shard_offsets.back() + info->shard_bytes.back(),
            info->file_bytes);
  // The hub blob sits between the header and the first shard payload.
  EXPECT_GE(info->shard_offsets.front(), info->hub_entries * 12);
}

// --------------------------------------------------------------- faults --

TEST_F(StorageTierTest, ShardCorruptionEagerOnHeapLazyAndPinnedOnMmap) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->num_shards, 2u);
  const uint32_t bad_shard = info->num_shards / 2;
  FlipByte(path, info->shard_offsets[bad_shard] +
                     info->shard_bytes[bad_shard] / 2);

  // Heap tier verifies every payload at load time: the open fails.
  auto heap = LoadTiered(graph, path, StorageTier::kHeap);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kCorruption);

  // Mmap tier opens fine (the header checksum never covers payloads)...
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
  EXPECT_TRUE((*mmap)->index().storage_status().ok());

  // ...and the first query's scan touches the bad shard, surfacing the
  // same Corruption, pinned to it.
  auto result = (*mmap)->Query(5, 8);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().ToString().find(std::to_string(bad_shard)),
            std::string::npos)
      << result.status().ToString();
  // Sticky: the source remembers the first error.
  EXPECT_FALSE((*mmap)->index().storage_status().ok());
}

// Saving an mmap-tier index with a corrupt cold section fails: the hub
// blob would be written as an empty store and a shard as its zero-
// knowledge stand-in, in a file whose checksums all hold.
TEST_F(StorageTierTest, SaveRefusesCorruptColdSections) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->hub_blob_bytes, 0u);
  const std::string valid = ReadBytes(path);
  LoadIndexOptions lazy;
  lazy.tier = StorageTier::kMmap;
  for (uint64_t at : {info->hub_blob_offset, info->shard_offsets[1]}) {
    SCOPED_TRACE(at);
    const std::string corrupt = Path("corrupt.rtki");
    std::string bytes = valid;
    bytes[at] ^= 0x40;
    {
      std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    auto mmap = LoadIndex(corrupt, graph.num_nodes(), lazy);
    ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
    const std::string out = Path("resaved.rtki");
    Status saved = SaveIndex(*mmap, out);
    EXPECT_EQ(saved.code(), StatusCode::kCorruption) << saved.ToString();
    EXPECT_FALSE(fs::exists(out));
    EXPECT_FALSE(fs::exists(out + ".tmp"));
  }
}

TEST_F(StorageTierTest, HubBlobCorruptionDefersToFirstRefiningQuery) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->hub_entries, 0u);
  // The hub blob ends where the first shard payload begins.
  FlipByte(path, info->shard_offsets.front() - 1);

  // Heap v3 loads parse (and verify) the blob eagerly.
  auto heap = LoadTiered(graph, path, StorageTier::kHeap);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kCorruption);

  // The mmap open defers the blob entirely...
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();

  // ...a prune-only query never touches hub proximities and still works...
  QueryOptions hits_only;
  hits_only.approximate_hits_only = true;
  hits_only.update_index = false;
  EXPECT_TRUE((*mmap)->QueryWithOptions(9, hits_only).ok());

  // ...and the first refining query materializes the hub store and fails
  // with the blob's checksum mismatch instead of silently refining
  // against an empty store.
  auto refined = (*mmap)->Query(9, 8);
  ASSERT_FALSE(refined.ok());
  EXPECT_EQ(refined.status().code(), StatusCode::kCorruption);
  EXPECT_NE(refined.status().ToString().find("hub"), std::string::npos)
      << refined.status().ToString();
}

TEST_F(StorageTierTest, HubBlobCorruptionFailsMutationAndKeepsSnapshot) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok());
  FlipByte(path, info->shard_offsets.front() - 1);
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();

  // Fractions of 1: the drain repairs (the path that reads the old hub
  // store) whatever the affected set.
  ServingOptions options;
  options.num_threads = 2;
  options.mutation_repair_fraction = 1.0;
  options.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**mmap, options);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  const auto before = (*serving)->snapshot();

  // The newest BA node has no in-edges, so only it is affected.
  const uint32_t u = graph.num_nodes() - 1;
  uint32_t v = 0;
  while (std::ranges::binary_search(graph.OutNeighbors(u), v)) ++v;
  MutationResult result =
      (*serving)->ApplyUpdates({EdgeUpdate::Insert(u, v)}).get();
  EXPECT_EQ(result.status.code(), StatusCode::kCorruption)
      << result.status.ToString();
  const auto after = (*serving)->snapshot();
  EXPECT_EQ(after->graph_version()->version(),
            before->graph_version()->version());
  EXPECT_EQ(after->epoch(), before->epoch());
  EXPECT_EQ(result.graph_version, before->graph_version()->version());
  EXPECT_EQ(result.epoch, before->epoch());

  // Every query either settles in the prune stage or surfaces the
  // corruption when it starts to refine; none reads hub ink through an
  // empty stand-in store.
  uint32_t corrupt = 0;
  for (uint32_t q = 0; q < graph.num_nodes(); ++q) {
    auto answer = (*serving)->Query(q, 8);
    if (answer.ok()) continue;
    EXPECT_EQ(answer.status().code(), StatusCode::kCorruption) << "q=" << q;
    ++corrupt;
  }
  EXPECT_GT(corrupt, 0u);
  EXPECT_EQ((*serving)->Query(9, 8).status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTierTest, DemotedShardRefaultsIdenticallyAndDirtyRefuses) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto heap = LoadTiered(graph, path, StorageTier::kHeap);
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(heap.ok() && mmap.ok());
  LowerBoundIndex index((*mmap)->index());  // private clone to mutate

  // Promote, demote, re-read: the refault must reproduce the same bytes.
  index.EnsureShardResident(0);
  EXPECT_TRUE(index.ShardResident(0));
  EXPECT_TRUE(index.ReleaseCleanShard(0));
  EXPECT_FALSE(index.ShardResident(0));
  EXPECT_GT(index.residency().shard_evictions, 0u);
  const auto [lo, hi] = index.ShardNodeRange(0);
  for (uint32_t u = lo; u < hi; ++u) {
    const auto expected = (*heap)->index().LowerBounds(u);
    const auto actual = index.LowerBounds(u);  // refaults shard 0
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), actual.begin()));
  }

  // A written shard's file bytes are stale: demotion must refuse.
  // ApplyIfTighter only accepts a strictly smaller residue, so pick a
  // node the coarse build left unrefined.
  uint32_t victim = UINT32_MAX;
  for (uint32_t u = lo; u < hi; ++u) {
    if (index.ResidueL1(u) > 0.0) {
      victim = u;
      break;
    }
  }
  ASSERT_NE(victim, UINT32_MAX) << "coarse build left shard 0 fully refined";
  IndexDelta delta;
  delta.node = victim;
  delta.topk = {0.9, 0.5};
  delta.residue_l1 = 0.0;
  ASSERT_TRUE(index.ApplyIfTighter(std::move(delta)));
  EXPECT_TRUE(index.ShardResident(0));
  EXPECT_FALSE(index.ReleaseCleanShard(0));
  EXPECT_EQ(index.LowerBounds(victim)[0], 0.9);
}

TEST_F(StorageTierTest, ConcurrentColdReadsFaultsAndScansAreSafe) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto heap = LoadTiered(graph, path, StorageTier::kHeap);
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(heap.ok() && mmap.ok());
  const LowerBoundIndex& cold = (*mmap)->index();
  const LowerBoundIndex& warm = (*heap)->index();

  // Readers fault shards, stream cold scans, and materialize the lazy
  // hub store concurrently; every observation must match the heap twin.
  // (ci.sh runs this under TSan — the assertions double as race probes
  // for the memoized verify/fault/hub paths.)
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        for (uint32_t s = 0; s < cold.num_shards(); ++s) {
          const ShardScanView view = cold.ShardScan(s);
          if (!view.status.ok()) mismatches.fetch_add(1);
        }
      }
      if (t % 4 < 2) {
        if (!cold.EnsureHubStore().ok()) mismatches.fetch_add(1);
        if (cold.hub_store().num_hubs() != warm.hub_store().num_hubs()) {
          mismatches.fetch_add(1);
        }
      }
      for (uint32_t u = t; u < cold.num_nodes(); u += 8) {
        if (cold.ResidueL1(u) != warm.ResidueL1(u)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cold.residency().resident_shards, cold.num_shards());
}

// -------------------------------------------------------------- serving --

struct ServedState {
  std::vector<QueryResponse> responses;
  std::vector<std::vector<double>> bounds;
  std::vector<double> residues;
};

ServedState ServeWorkload(ReverseTopkEngine& engine, ServingOptions options,
                          const std::vector<QueryRequest>& workload) {
  options.publish_threshold = 0;  // one explicit publish at the end
  options.cache.capacity = 0;
  auto serving = ServingEngine::Create(engine, options);
  EXPECT_TRUE(serving.ok());
  (*serving)->Pause();
  std::vector<std::future<QueryResponse>> futures;
  for (const QueryRequest& request : workload) {
    futures.push_back((*serving)->Submit(request));
  }
  (*serving)->Resume();
  ServedState state;
  for (auto& future : futures) state.responses.push_back(future.get());
  (*serving)->PublishPending();
  const auto snap = (*serving)->snapshot();
  for (uint32_t u = 0; u < snap->index().num_nodes(); ++u) {
    const auto bounds = snap->index().LowerBounds(u);
    state.bounds.emplace_back(bounds.begin(), bounds.end());
    state.residues.push_back(snap->index().ResidueL1(u));
  }
  return state;
}

std::vector<QueryRequest> ServingWorkload(uint32_t n, size_t count) {
  std::vector<QueryRequest> requests;
  Rng rng(91);
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request;
    request.query = static_cast<uint32_t>(rng.Uniform(n));
    request.k = 4 + static_cast<uint32_t>(rng.Uniform(8));
    request.update_index = true;
    request.bypass_cache = true;
    requests.push_back(request);
  }
  return requests;
}

TEST_F(StorageTierTest, ServingPublishesIdenticalEpochsAcrossTiers) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  const auto workload = ServingWorkload(graph.num_nodes(), 32);

  ServingOptions unbatched;
  unbatched.num_threads = 4;
  auto heap = LoadTiered(graph, path, StorageTier::kHeap);
  ASSERT_TRUE(heap.ok());
  const ServedState baseline = ServeWorkload(**heap, unbatched, workload);

  // CoW publish over mapped shards at several thread counts: identical
  // responses and identical published index state.
  for (int threads : {1, 2, 4}) {
    auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
    ASSERT_TRUE(mmap.ok());
    ServingOptions options;
    options.num_threads = threads;
    const ServedState run = ServeWorkload(**mmap, options, workload);
    ASSERT_EQ(baseline.responses.size(), run.responses.size());
    for (size_t i = 0; i < run.responses.size(); ++i) {
      ASSERT_EQ(baseline.responses[i].status.code(),
                run.responses[i].status.code());
      ASSERT_EQ(baseline.responses[i].results, run.responses[i].results)
          << "threads=" << threads << " i=" << i;
    }
    ASSERT_EQ(baseline.bounds, run.bounds) << "threads=" << threads;
    ASSERT_EQ(baseline.residues, run.residues) << "threads=" << threads;
  }
}

TEST_F(StorageTierTest, ResidencyManagerPromotesHotAndDemotesIdleShards) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(mmap.ok());

  ServingOptions options;
  options.num_threads = 2;
  options.publish_threshold = 0;
  options.cache.capacity = 0;
  options.shard_promote_touches = 1;  // any scanned candidate promotes
  options.shard_demote_epochs = 1;    // one idle epoch demotes
  auto serving = ServingEngine::Create(**mmap, options);
  ASSERT_TRUE(serving.ok());

  // Hits-only traffic is the promote-path scenario: the prune scan
  // streams every shard cold (recording candidate touches) but never
  // refines, so nothing faults resident on its own. (Exact queries fault
  // shards during refinement write-back, bypassing promotion entirely.)
  QueryRequest request;
  request.update_index = false;
  request.bypass_cache = true;
  request.tier = AccuracyTier::kApproximateHitsOnly;
  for (uint32_t q : {11u, 42u, 160u, 301u}) {
    request.query = q;
    request.k = 6;
    EXPECT_TRUE((*serving)->Submit(request).get().status.ok());
  }
  const size_t promoted = (*serving)->MaintainResidency();
  EXPECT_GT(promoted, 0u);
  const ServingStats hot = (*serving)->stats();
  EXPECT_GT(hot.resident_shards, 0u);
  EXPECT_GT(hot.shard_faults, 0u);
  EXPECT_GT(hot.mmap_bytes, 0u);

  // Two quiet epochs: everything promoted above is idle and clean, so it
  // demotes back to the map.
  (*serving)->MaintainResidency();
  (*serving)->MaintainResidency();
  const ServingStats cold = (*serving)->stats();
  EXPECT_EQ(cold.resident_shards, 0u);
  EXPECT_GT(cold.shard_evictions, 0u);

  // Residency moves are result-invisible: an exact query after the
  // demotions refaults what it needs and still succeeds.
  request.query = 42;
  request.tier = AccuracyTier::kExact;
  auto after = (*serving)->Submit(request).get();
  EXPECT_TRUE(after.status.ok());
}

TEST_F(StorageTierTest, ShardFaultCountsSurviveAMutationRebuild) {
  const Graph graph = TestGraph();
  const std::string path = MakeIndexFile(graph);
  auto mmap = LoadTiered(graph, path, StorageTier::kMmap);
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
  const std::shared_ptr<MmapShardSource> source =
      (*mmap)->index().shard_source();
  ASSERT_NE(source, nullptr);

  ServingOptions options;
  options.num_threads = 2;
  options.publish_threshold = 0;
  options.cache.capacity = 0;
  options.mutation_rebuild_fraction = 0.0;  // every drain rebuilds
  auto serving = ServingEngine::Create(**mmap, options);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();

  // Refining queries fault shards in from the map.
  for (uint32_t q : {11u, 42u, 160u, 301u, 7u, 99u}) {
    ASSERT_TRUE((*serving)->Query(q, 8).ok()) << "q=" << q;
  }
  ASSERT_GT(source->faults(), 0u);

  // The rebuilt index lives on the heap: the published snapshot no longer
  // reaches the source, but the faults it counted must stay counted.
  MutationResult mutated =
      (*serving)->ApplyUpdates({EdgeUpdate::Insert(3, 250)}).get();
  ASSERT_TRUE(mutated.ok()) << mutated.status.ToString();
  ASSERT_EQ(mutated.mode, MutationRepairMode::kRebuilt);
  EXPECT_EQ((*serving)->snapshot()->index().shard_source(), nullptr);

  const ServingStats stats = (*serving)->stats();
  const MetricsSnapshot metrics = (*serving)->Metrics();
  EXPECT_EQ(stats.shard_faults, source->faults());
  EXPECT_EQ(stats.shard_evictions, source->evictions());
  EXPECT_EQ(metrics.ValueOf("rtk_serving_shard_faults_total"),
            static_cast<double>(source->faults()));
  EXPECT_EQ(metrics.ValueOf("rtk_serving_shard_evictions_total"),
            static_cast<double>(source->evictions()));
}

// ------------------------------------------------------------ write-back --

TEST_F(StorageTierTest, RefinementLogBatchAppendMatchesSequential) {
  // The same per-producer delta vectors, appended one by one vs as one
  // batch: identical dedup winners and identical stats.
  const auto make_batches = [] {
    std::vector<std::vector<IndexDelta>> batches;
    Rng rng(17);
    for (int producer = 0; producer < 6; ++producer) {
      std::vector<IndexDelta> deltas;
      for (int i = 0; i < 10; ++i) {
        IndexDelta delta;
        delta.node = static_cast<uint32_t>(rng.Uniform(20));  // collisions
        delta.topk = {1.0 - 0.01 * producer, 0.5};
        delta.residue_l1 = 0.1 * static_cast<double>(rng.Uniform(8));
        deltas.push_back(std::move(delta));
      }
      batches.push_back(std::move(deltas));
    }
    return batches;
  };

  RefinementLog sequential;
  for (auto& deltas : make_batches()) sequential.Append(std::move(deltas));
  RefinementLog batched;
  batched.Append(make_batches());

  EXPECT_EQ(sequential.stats().appended, batched.stats().appended);
  EXPECT_EQ(sequential.stats().superseded, batched.stats().superseded);
  EXPECT_EQ(sequential.stats().pending, batched.stats().pending);

  // One shard holds every node, so each drain is one node-sorted group.
  auto a = sequential.DrainByShard(/*shard_nodes=*/64);
  auto b = batched.DrainByShard(/*shard_nodes=*/64);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  ASSERT_EQ(a[0].deltas.size(), b[0].deltas.size());
  for (size_t i = 0; i < a[0].deltas.size(); ++i) {
    EXPECT_EQ(a[0].deltas[i].node, b[0].deltas[i].node);
    EXPECT_EQ(a[0].deltas[i].topk, b[0].deltas[i].topk);
    EXPECT_EQ(a[0].deltas[i].residue_l1, b[0].deltas[i].residue_l1);
  }
}

// ---------------------------------------------- save / load / save --

// A refined index saved, loaded back in either tier and saved again gives
// the same file: a state's record travels from shard payload to blob and
// back byte for byte.
TEST_F(StorageTierTest, SaveLoadSaveIsByteIdenticalAfterRefining) {
  const Graph graph = TestGraph();
  auto built = ReverseTopkEngine::Build(Graph(graph), CoarseOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const uint32_t q = static_cast<uint32_t>(rng.Uniform(graph.num_nodes()));
    ASSERT_TRUE((*built)->Query(q, 4 + static_cast<uint32_t>(i % 8)).ok());
  }
  const std::string saved = Path("refined.rtki");
  ASSERT_TRUE((*built)->SaveIndex(saved).ok());
  const std::string bytes = ReadBytes(saved);
  ASSERT_FALSE(bytes.empty());
  for (StorageTier tier : {StorageTier::kHeap, StorageTier::kMmap}) {
    LoadIndexOptions load;
    load.tier = tier;
    auto loaded = LoadIndex(saved, graph.num_nodes(), load);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::string resaved = Path("resaved.rtki");
    ASSERT_TRUE(SaveIndex(*loaded, resaved).ok());
    EXPECT_EQ(ReadBytes(resaved), bytes)
        << "tier " << static_cast<int>(tier);
  }
}

// ------------------------------------------------ hostile index files --

// Node ids inside a checksum-consistent file — a state entry, a hub id, a
// hub entry — and the hub offsets are validated, not trusted: the heap
// load fails with Corruption, and the mmap tier reports it on first touch
// instead of indexing out of bounds (ASan turns a miss into a failure).
TEST_F(StorageTierTest, OutOfRangeIdsInChecksummedFilesAreCorruption) {
  const Graph graph = TestGraph();
  const uint32_t n = graph.num_nodes();
  auto built = ReverseTopkEngine::Build(Graph(graph), CoarseOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const LowerBoundIndex& index = (*built)->index();
  const std::string path = Path("valid.rtki");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  auto info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(info->num_hubs, 2u);
  const std::string valid = ReadBytes(path);

  // A node whose stored residue list is non-empty, and the file offset of
  // its first residue entry id: the records before it in its shard, then
  // its K + 1 doubles, iteration count and residue count.
  uint32_t u = UINT32_MAX;
  for (uint32_t v = 0; v < n && u == UINT32_MAX; ++v) {
    if (!index.State(v).residue().empty()) u = v;
  }
  ASSERT_NE(u, UINT32_MAX);
  const size_t row_bytes = (index.capacity_k() + 1) * sizeof(double);
  const uint32_t first = index.ShardNodeRange(index.ShardOf(u)).first;
  size_t state_id_at = info->shard_offsets[index.ShardOf(u)];
  for (uint32_t v = first; v < u; ++v) {
    state_id_at += row_bytes + index.State(v).bytes().size();
  }
  state_id_at += row_bytes + sizeof(uint32_t) + sizeof(uint64_t);

  // v3 layout (index_io.h): magic, n, k and BCA options take 44 bytes;
  // hub count, omega and dropped count 20 more; then the hub ids and the
  // offsets. The hub blob follows the header.
  const size_t hubs_at = 64;
  const size_t offsets_at = hubs_at + info->num_hubs * sizeof(uint32_t);
  const size_t blob_at = info->hub_blob_offset;

  // Each case overwrites one field: an id n + 10^6, or a hub offset past
  // the final one (so the offsets no longer ascend).
  struct Case {
    const char* name;
    size_t at;
    uint64_t value;
    size_t width;
    bool hub_section;
  };
  const uint64_t bad_id = n + 1000000;
  const Case cases[] = {
      {"state entry id", state_id_at, bad_id, sizeof(uint32_t), false},
      {"hub entry id", blob_at, bad_id, sizeof(uint32_t), true},
      {"hub id", hubs_at, bad_id, sizeof(uint32_t), true},
      {"hub offset", offsets_at + sizeof(uint64_t), info->hub_entries + 7,
       sizeof(uint64_t), true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string bytes = valid;
    std::memcpy(bytes.data() + c.at, &c.value, c.width);  // little-endian
    ResealV3(*info, &bytes);
    const std::string bad = Path("bad.rtki");
    {
      std::ofstream out(bad, std::ios::binary | std::ios::trunc);
      out << bytes;
    }

    auto heap = LoadIndex(bad, n);
    ASSERT_FALSE(heap.ok());
    EXPECT_EQ(heap.status().code(), StatusCode::kCorruption)
        << heap.status().ToString();

    LoadIndexOptions lazy;
    lazy.tier = StorageTier::kMmap;
    auto mmap = LoadIndex(bad, n, lazy);
    ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
    if (c.hub_section) {
      EXPECT_EQ(mmap->EnsureHubStore().code(), StatusCode::kCorruption);
      EXPECT_EQ(mmap->hub_store().num_hubs(), 0u);  // the empty stand-in
    } else {
      // A cold scan verifies the records after the checksum and refuses
      // the shard; a fault serves the zero-knowledge shard instead, and
      // the scan keeps refusing it once it is resident.
      const uint32_t s = mmap->ShardOf(u);
      EXPECT_EQ(mmap->ShardScan(s).status.code(), StatusCode::kCorruption);
      EXPECT_EQ(mmap->storage_status().code(), StatusCode::kCorruption);
      auto faulted = LoadIndex(bad, n, lazy);
      ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
      EXPECT_TRUE(faulted->State(u).residue().empty());
      EXPECT_EQ(faulted->storage_status().code(), StatusCode::kCorruption);
      EXPECT_TRUE(faulted->ShardResident(s));
      EXPECT_EQ(faulted->ShardScan(s).status.code(), StatusCode::kCorruption);
    }
  }
}

// -------------------------------------------------------- copy-on-write --

TEST_F(StorageTierTest, CowCopySharesRowStatesAndOldSnapshotsKeepTheirs) {
  const Graph graph = TestGraph();
  auto built = ReverseTopkEngine::Build(Graph(graph), CoarseOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const LowerBoundIndex& index = (*built)->index();

  // A node the coarse build left refinable, so its state has lists.
  uint32_t u = UINT32_MAX;
  for (uint32_t v = 0; v < index.num_nodes(); ++v) {
    if (index.ResidueL1(v) > 0.0 && !index.State(v).residue().empty()) {
      u = v;
      break;
    }
  }
  ASSERT_NE(u, UINT32_MAX) << "coarse build left every node exact";
  // Value copies of the source's lists, and where its record lives.
  const StoredBcaState source_state = index.State(u);
  const auto old_residue = source_state.residue().ToPairs();
  const auto old_retained = source_state.retained().ToPairs();
  const auto old_hub_ink = source_state.hub_ink().ToPairs();
  const uint32_t old_iterations = source_state.iterations();
  const char* old_address = source_state.bytes().data();
  const SharedBcaState replacement =
      PackBcaState(old_iterations + 1, {{u, 0.125}});
  const StoredBcaState replacement_state = StateOf(replacement);

  const auto [lo, hi] = index.ShardNodeRange(index.ShardOf(u));
  {
    LowerBoundIndex next(index);
    next.SetNode(u, {0.9, 0.5}, replacement, 0.125);
    ASSERT_EQ(next.cow_shard_copies(), 1u);
    // The privatization copied the rows' bounds and residues plus one
    // pointer per row, and no state.
    const uint64_t rows = hi - lo;
    EXPECT_EQ(next.cow_bytes_copied(),
              rows * (next.capacity_k() + 1) * sizeof(double) +
                  rows * sizeof(SharedBcaState));
    for (uint32_t v = lo; v < hi; ++v) {
      if (v == u) continue;
      EXPECT_EQ(next.State(v).bytes().data(), index.State(v).bytes().data())
          << "row " << v << " must share its state with the source";
    }
    EXPECT_EQ(next.State(u).residue().ToPairs(),
              replacement_state.residue().ToPairs());
    EXPECT_EQ(next.State(u).iterations(), replacement_state.iterations());
    // The source still holds its old lists, where they were.
    EXPECT_EQ(index.State(u).bytes().data(), old_address);
    EXPECT_EQ(index.State(u).residue().ToPairs(), old_residue);
    EXPECT_EQ(index.State(u).retained().ToPairs(), old_retained);
    EXPECT_EQ(index.State(u).hub_ink().ToPairs(), old_hub_ink);
  }

  // A view taken from an older snapshot outlives a newer copy that
  // replaced the row and was destroyed, and the source it was copied
  // from being written too (ASan turns a dangling read into a failure).
  LowerBoundIndex older(index);
  const StoredBcaState ref = older.State(u);
  {
    LowerBoundIndex newer(older);
    newer.SetNode(u, {0.8}, replacement, 0.0625);
    EXPECT_EQ(newer.State(u).residue().ToPairs(),
              replacement_state.residue().ToPairs());
  }
  LowerBoundIndex source_writer(index);
  source_writer.SetNode(u, {0.7}, nullptr, 0.0);
  EXPECT_EQ(ref.bytes().data(), old_address);
  EXPECT_EQ(ref.residue().ToPairs(), old_residue);
  EXPECT_EQ(ref.retained().ToPairs(), old_retained);
  EXPECT_EQ(ref.hub_ink().ToPairs(), old_hub_ink);
  EXPECT_EQ(ref.iterations(), old_iterations);
  EXPECT_EQ(older.State(u).residue().ToPairs(), old_residue);
}

TEST_F(StorageTierTest, PublishesAndMutationDrainsCountBytesTheyCopy) {
  const Graph graph = TestGraph();
  auto built = ReverseTopkEngine::Build(Graph(graph), CoarseOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const uint32_t shard_nodes = (*built)->index().shard_nodes();
  // The most one privatization may copy: a full shard's bound and
  // residue arrays plus one state pointer per row.
  const uint64_t shard_bytes =
      shard_nodes * ((*built)->index().capacity_k() + 1) * sizeof(double) +
      shard_nodes * sizeof(SharedBcaState);

  ServingOptions options;
  options.num_threads = 2;
  options.publish_threshold = 1;
  options.mutation_repair_fraction = 1.0;  // keep the exact repair path
  options.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**built, options);
  ASSERT_TRUE(serving.ok());
  for (const QueryRequest& request : ServingWorkload(graph.num_nodes(), 16)) {
    ASSERT_TRUE((*serving)->Submit(request).get().status.ok());
  }
  (*serving)->PublishPending();
  const ServingStats refined = (*serving)->stats();
  ASSERT_GT(refined.shards_copied, 0u);
  EXPECT_GT(refined.cow_bytes_copied, 0u);
  EXPECT_LE(refined.cow_bytes_copied, refined.shards_copied * shard_bytes);
  EXPECT_EQ(refined.mutation_shards_copied, 0u);
  EXPECT_EQ(refined.mutation_cow_bytes_copied, 0u);

  // One inserted edge: the drain's repair privatizes the affected shards
  // and counts them apart from refinement publishes.
  uint32_t v = 1;
  const auto row = graph.OutNeighbors(0);
  while (std::binary_search(row.begin(), row.end(), v)) ++v;
  MutationResult mutated =
      (*serving)->ApplyUpdates({EdgeUpdate::Insert(0, v)}).get();
  ASSERT_TRUE(mutated.ok()) << mutated.status.ToString();
  ASSERT_EQ(mutated.mode, MutationRepairMode::kRepaired);
  const ServingStats after = (*serving)->stats();
  EXPECT_EQ(after.shards_copied, refined.shards_copied);
  EXPECT_EQ(after.cow_bytes_copied, refined.cow_bytes_copied);
  ASSERT_GT(after.mutation_shards_copied, 0u);
  EXPECT_GT(after.mutation_cow_bytes_copied, 0u);
  EXPECT_LE(after.mutation_cow_bytes_copied,
            after.mutation_shards_copied * shard_bytes);
}

}  // namespace
}  // namespace rtk
