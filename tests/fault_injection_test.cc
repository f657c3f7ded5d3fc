// Fault-injection tests for the persistence layer: corrupted, truncated,
// mismatched, and malformed inputs must surface as clean Status errors —
// never crashes, hangs, or silently wrong data.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/online_query.h"
#include "graph/graph_io.h"
#include "index/index_io.h"
#include "index_fixtures.h"
#include "rwr/transition.h"

namespace rtk {
namespace {

namespace fs = std::filesystem;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "rtk_fault_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }

  // The deterministic index every persistence test mutates: the index the
  // checked-in golden fixtures hold (index_fixtures.h). Keeps its graph and
  // operator in graph_ and op_.
  Result<LowerBoundIndex> BuildGoldenIndex() {
    graph_ = GoldenGraph();
    op_ = std::make_unique<TransitionOperator>(graph_);
    return rtk::BuildGoldenIndex(graph_, *op_);
  }

  // A valid saved index (current format) to mutate.
  std::string MakeValidIndexFile() {
    auto index = BuildGoldenIndex();
    EXPECT_TRUE(index.ok());
    const std::string path = Path("valid.idx");
    EXPECT_TRUE(SaveIndex(*index, path).ok());
    return path;
  }

  fs::path dir_;
  Graph graph_;
  std::unique_ptr<TransitionOperator> op_;
};

// ------------------------------------------------------------- edge lists --

TEST_F(FaultInjectionTest, MissingEdgeListFile) {
  auto g = LoadEdgeList(Path("nope.txt"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST_F(FaultInjectionTest, EdgeListGarbageTokens) {
  WriteFile(Path("garbage.txt"), "0 1\nfoo bar\n2 3\n");
  auto g = LoadEdgeList(Path("garbage.txt"));
  EXPECT_FALSE(g.ok());
}

TEST_F(FaultInjectionTest, EdgeListMissingEndpoint) {
  WriteFile(Path("half.txt"), "0 1\n2\n");
  auto g = LoadEdgeList(Path("half.txt"));
  EXPECT_FALSE(g.ok());
}

TEST_F(FaultInjectionTest, EdgeListNegativeWeight) {
  WriteFile(Path("negw.txt"), "0 1 2.5\n1 0 -3.0\n");
  auto g = LoadEdgeList(Path("negw.txt"));
  EXPECT_FALSE(g.ok());
}

TEST_F(FaultInjectionTest, EdgeListCommentsAndBlanksAreFine) {
  WriteFile(Path("ok.txt"), "# a comment\n\n0 1\n1 2\n2 0\n# trailing\n");
  auto g = LoadEdgeList(Path("ok.txt"));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST_F(FaultInjectionTest, EmptyEdgeListFails) {
  WriteFile(Path("empty.txt"), "");
  auto g = LoadEdgeList(Path("empty.txt"));
  EXPECT_FALSE(g.ok());
}

TEST_F(FaultInjectionTest, SaveEdgeListToUnwritablePath) {
  WriteFile(Path("ok2.txt"), "0 1\n1 0\n");
  auto g = LoadEdgeList(Path("ok2.txt"));
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(SaveEdgeList(*g, (dir_ / "no_dir" / "x.txt").string()).ok());
}

// ------------------------------------------------------------ index files --

TEST_F(FaultInjectionTest, MissingIndexFile) {
  auto loaded = LoadIndex(Path("nope.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(FaultInjectionTest, BadMagicRejected) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFile(Path("badmagic.idx"), bytes);
  auto loaded = LoadIndex(Path("badmagic.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(FaultInjectionTest, TruncationAtEveryQuarterRejected) {
  const std::string path = MakeValidIndexFile();
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  for (double fraction : {0.25, 0.5, 0.75, 0.99}) {
    const auto cut = static_cast<size_t>(bytes.size() * fraction);
    WriteFile(Path("trunc.idx"), bytes.substr(0, cut));
    auto loaded = LoadIndex(Path("trunc.idx"), 60);
    EXPECT_FALSE(loaded.ok()) << "fraction " << fraction;
  }
}

TEST_F(FaultInjectionTest, PayloadBitflipFailsChecksum) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFileBytes(path);
  // Flip one byte in the middle of the payload (past the 8-byte magic,
  // before the trailing 8-byte checksum).
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFile(Path("flip.idx"), bytes);
  auto loaded = LoadIndex(Path("flip.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(FaultInjectionTest, NodeCountMismatchRejected) {
  const std::string path = MakeValidIndexFile();
  auto loaded = LoadIndex(path, 61);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultInjectionTest, AppendedJunkRejected) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFileBytes(path);
  bytes += "EXTRA BYTES AFTER CHECKSUM";
  WriteFile(Path("junk.idx"), bytes);
  auto loaded = LoadIndex(Path("junk.idx"), 60);
  EXPECT_FALSE(loaded.ok());
}

// A flipped bit inside a shard payload must fail that shard's checksum
// (the v2 format checks every shard independently).
TEST_F(FaultInjectionTest, ShardPayloadBitflipFailsShardChecksum) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFileBytes(path);
  // The last bytes of the file are the last shard's payload; flip one near
  // the end, far from the checksummed header/directory.
  bytes[bytes.size() - 16] ^= 0x01;
  WriteFile(Path("shardflip.idx"), bytes);
  auto loaded = LoadIndex(Path("shardflip.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find("shard"), std::string::npos)
      << "corruption should be pinned to a shard: "
      << loaded.status().ToString();
}

TEST_F(FaultInjectionTest, HeaderBitflipFailsHeaderChecksum) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFileBytes(path);
  bytes[12] ^= 0x20;  // inside the n/k header fields
  WriteFile(Path("headerflip.idx"), bytes);
  auto loaded = LoadIndex(Path("headerflip.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// Parallel loads must reject corruption exactly like serial ones.
TEST_F(FaultInjectionTest, ParallelLoadRejectsCorruptionToo) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 16] ^= 0x01;
  WriteFile(Path("pflip.idx"), bytes);
  ThreadPool pool(4);
  auto loaded = LoadIndex(Path("pflip.idx"), 60, &pool);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// ReadIndexFileInfo reads the header's counts before the checksum that
// covers them, so corrupt counts must surface as clean Corruption — never
// as count-sized allocations or reads.
TEST_F(FaultInjectionTest, IndexFileInfoOnCorruptHeaderReturnsStatus) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFileBytes(path);
  // num_hubs sits after magic(8) + n,k(8) + alpha,eta,delta,max_iter(28).
  for (int i = 0; i < 4; ++i) bytes[44 + i] = '\xFF';
  WriteFile(Path("hugehubs.idx"), bytes);
  auto info = ReadIndexFileInfo(Path("hugehubs.idx"));
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kCorruption);

  // Truncation anywhere in the header region is also a clean status.
  WriteFile(Path("shortinfo.idx"), ReadFileBytes(path).substr(0, 50));
  auto short_info = ReadIndexFileInfo(Path("shortinfo.idx"));
  ASSERT_FALSE(short_info.ok());
  EXPECT_EQ(short_info.status().code(), StatusCode::kCorruption);
}

// A header whose counts are all plausible but whose checksum does not
// match is corrupt for index-info exactly as for LoadIndex.
TEST_F(FaultInjectionTest, IndexFileInfoVerifiesHeaderChecksum) {
  const std::string path = MakeValidIndexFile();
  auto layout = ReadIndexFileInfo(path);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  // The directory's (bytes, checksum) pairs end at the header checksum,
  // which the hub blob follows; shard 0's checksum is its second u64.
  const uint64_t directory_at = layout->hub_blob_offset - sizeof(uint64_t) -
                                layout->num_shards * 2 * sizeof(uint64_t);
  std::string bytes = ReadFileBytes(path);
  bytes[directory_at + sizeof(uint64_t)] ^= 0x01;
  WriteFile(Path("dirsum.idx"), bytes);

  auto info = ReadIndexFileInfo(Path("dirsum.idx"));
  ASSERT_FALSE(info.ok()) << "shard 0 checksum read back as " << std::hex
                          << info->shard_checksums[0];
  EXPECT_EQ(info.status().code(), StatusCode::kCorruption);
  auto loaded = LoadIndex(Path("dirsum.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// A failed save leaves nothing behind: the temp file goes with the error.
TEST_F(FaultInjectionTest, FailedSaveRemovesTempFile) {
  auto index = BuildGoldenIndex();
  ASSERT_TRUE(index.ok());
  // rename() cannot replace a non-empty directory.
  const std::string target = Path("target");
  fs::create_directories(target);
  WriteFile(target + "/occupant", "x");
  Status saved = SaveIndex(*index, target);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIOError);
  EXPECT_FALSE(fs::exists(target + ".tmp"));
  EXPECT_TRUE(fs::exists(target + "/occupant"));
}

// ----------------------------------------------------- golden fixtures --

TEST_F(FaultInjectionTest, V1TruncationAndBitflipRejected) {
  const std::string bytes = ReadFileBytes(GoldenIndexPath(1));
  ASSERT_GT(bytes.size(), 64u);
  for (double fraction : {0.25, 0.5, 0.75, 0.99}) {
    const auto cut = static_cast<size_t>(bytes.size() * fraction);
    WriteFile(Path("v1trunc.idx"), bytes.substr(0, cut));
    EXPECT_FALSE(LoadIndex(Path("v1trunc.idx"), 60).ok())
        << "fraction " << fraction;
  }
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  WriteFile(Path("v1flip.idx"), flipped);
  auto loaded = LoadIndex(Path("v1flip.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// Backward compatibility: a v1 file written before the sharded storage
// refactor (checked-in fixture) must load through the current loader and
// match a freshly built index bit for bit (the build is deterministic).
TEST_F(FaultInjectionTest, V1GoldenFixtureLoadsAndMatchesRebuild) {
  const std::string fixture =
      std::string(RTK_TEST_DATA_DIR) + "/index_v1_golden.idx";
  auto loaded = LoadIndex(fixture, 60);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 60u);
  EXPECT_EQ(loaded->capacity_k(), 8u);

  auto info = ReadIndexFileInfo(fixture);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->format_version, 1u);

  auto rebuilt = BuildGoldenIndex();
  ASSERT_TRUE(rebuilt.ok());
  for (uint32_t u = 0; u < 60; ++u) {
    EXPECT_EQ(loaded->ResidueL1(u), rebuilt->ResidueL1(u)) << "u=" << u;
    const auto a = loaded->LowerBounds(u);
    const auto b = rebuilt->LowerBounds(u);
    for (uint32_t k = 0; k < 8; ++k) {
      EXPECT_EQ(a[k], b[k]) << "u=" << u << " k=" << k;
    }
    EXPECT_EQ(loaded->State(u).residue().ToPairs(),
              rebuilt->State(u).residue().ToPairs());
    EXPECT_EQ(loaded->State(u).retained().ToPairs(),
              rebuilt->State(u).retained().ToPairs());
    EXPECT_EQ(loaded->State(u).hub_ink().ToPairs(),
              rebuilt->State(u).hub_ink().ToPairs());
  }
  // A v1 load then v2 save round-trips to the same content.
  const std::string resaved = Path("resaved_v2.idx");
  ASSERT_TRUE(SaveIndex(*loaded, resaved).ok());
  auto again = LoadIndex(resaved, 60);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ResidueL1(30), loaded->ResidueL1(30));
}

// The v2 fixture loads in both tiers and matches a fresh build bit for
// bit, as the v1 fixture does on the heap tier.
TEST_F(FaultInjectionTest, V2GoldenFixtureLoadsAndMatchesRebuild) {
  const std::string fixture = GoldenIndexPath(2);
  auto info = ReadIndexFileInfo(fixture);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, 2u);
  EXPECT_EQ(info->num_shards, 4u);

  auto rebuilt = BuildGoldenIndex();
  ASSERT_TRUE(rebuilt.ok());
  for (StorageTier tier : {StorageTier::kHeap, StorageTier::kMmap}) {
    SCOPED_TRACE(tier == StorageTier::kHeap ? "heap" : "mmap");
    LoadIndexOptions options;
    options.tier = tier;
    auto loaded = LoadIndex(fixture, 60, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->storage_tier(), tier);
    EXPECT_EQ(loaded->capacity_k(), 8u);
    EXPECT_EQ(loaded->shard_nodes(), 16u);
    for (uint32_t u = 0; u < 60; ++u) {
      EXPECT_EQ(loaded->ResidueL1(u), rebuilt->ResidueL1(u)) << "u=" << u;
      const auto a = loaded->LowerBounds(u);
      const auto b = rebuilt->LowerBounds(u);
      for (uint32_t k = 0; k < 8; ++k) {
        EXPECT_EQ(a[k], b[k]) << "u=" << u << " k=" << k;
      }
      EXPECT_EQ(loaded->State(u).bytes(), rebuilt->State(u).bytes())
          << "u=" << u;
    }
    EXPECT_EQ(loaded->hub_store().hubs(), rebuilt->hub_store().hubs());
    EXPECT_EQ(loaded->hub_store().PackedEntries(),
              rebuilt->hub_store().PackedEntries());
  }
}

// SaveIndex writes exactly the v3 fixture for the index it holds: the
// writer's bytes are pinned, not just its round trip.
TEST_F(FaultInjectionTest, SaveIndexReproducesV3GoldenFixture) {
  auto index = BuildGoldenIndex();
  ASSERT_TRUE(index.ok());
  const std::string path = Path("golden_v3.idx");
  ASSERT_TRUE(SaveIndex(*index, path).ok());
  const std::string fixture = ReadFileBytes(GoldenIndexPath(3));
  ASSERT_EQ(fixture.size(), 86896u);
  EXPECT_TRUE(ReadFileBytes(path) == fixture)
      << "SaveIndex output differs from index_v3_golden.idx";
}

// Hostile index files: seeded 1-4 byte edits in one section of the v3
// fixture (header, hub blob or payloads), each file re-sealed so every
// checksum holds and only the parser's own validation can reject it, plus
// every fixture cut short at several lengths. Reading the header, loading in either tier, materializing the
// hub store and querying must each return a Status or a result — never
// crash or hit undefined behaviour (ci.sh runs this under ASan+UBSan).
TEST_F(FaultInjectionTest, MutatedAndTruncatedIndexFilesFailCleanly) {
  ASSERT_TRUE(BuildGoldenIndex().ok());  // graph_ and op_ for the queries
  const std::string v3 = GoldenIndexPath(3);
  auto layout = ReadIndexFileInfo(v3);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  const std::string hostile = Path("hostile.idx");

  // Returns how many of the two tiers loaded the file.
  const auto exercise = [&](const std::string& bytes) {
    WriteFile(hostile, bytes);
    (void)ReadIndexFileInfo(hostile);
    int loads = 0;
    for (StorageTier tier : {StorageTier::kHeap, StorageTier::kMmap}) {
      LoadIndexOptions options;
      options.tier = tier;
      auto loaded = LoadIndex(hostile, 60, options);
      if (!loaded.ok()) continue;
      ++loads;
      (void)loaded->EnsureHubStore();
      ReverseTopkSearcher searcher(*op_, &*loaded);
      for (uint32_t q : {0u, 23u, 59u}) {
        QueryOptions query;
        query.k = 1 + q % loaded->capacity_k();
        (void)searcher.Query(q, query);
      }
    }
    return loads;
  };

  constexpr int kMutations = 500;
  const std::string valid = ReadFileBytes(v3);
  // Each file's edits land in one section, picked evenly, so the small
  // header is edited as often as the hub blob and the shard payloads.
  const uint64_t sections[] = {0, layout->hub_blob_offset,
                               layout->shard_offsets[0], valid.size()};
  Rng rng(2026);
  int loaded_somewhere = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string bytes = valid;
    const uint64_t section = rng.Uniform(3);
    const uint64_t begin = sections[section];
    const uint64_t edits = 1 + rng.Uniform(4);
    for (uint64_t e = 0; e < edits; ++e) {
      bytes[begin + rng.Uniform(sections[section + 1] - begin)] =
          static_cast<char>(rng.Uniform(256));
    }
    ResealV3(*layout, &bytes);
    loaded_somewhere += exercise(bytes) > 0;
  }
  // The header parse rejects some edits outright; the mmap tier opens
  // every file whose header holds and meets the rest on first touch.
  EXPECT_LT(loaded_somewhere, kMutations);
  EXPECT_GT(loaded_somewhere, kMutations / 2);

  for (uint32_t version : {1u, 2u, 3u}) {
    const std::string bytes = ReadFileBytes(GoldenIndexPath(version));
    for (double fraction : {0.0, 0.0005, 0.001, 0.01, 0.07, 0.5, 0.9999}) {
      SCOPED_TRACE("v" + std::to_string(version) + " cut at " +
                   std::to_string(fraction));
      EXPECT_EQ(exercise(bytes.substr(0, bytes.size() * fraction)), 0);
    }
  }
}

TEST_F(FaultInjectionTest, ValidFileStillLoadsAfterAllThat) {
  const std::string path = MakeValidIndexFile();
  auto loaded = LoadIndex(path, 60);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 60u);
  EXPECT_EQ(loaded->capacity_k(), 8u);
}

}  // namespace
}  // namespace rtk
