// Fault-injection tests for the persistence layer: corrupted, truncated,
// mismatched, and malformed inputs must surface as clean Status errors —
// never crashes, hangs, or silently wrong data.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bca/hub_selection.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "index/index_builder.h"
#include "index/index_io.h"
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

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  // The deterministic index every persistence test mutates: same graph,
  // hub set, and BCA options as the checked-in v1 golden fixture.
  Result<LowerBoundIndex> BuildGoldenIndex() {
    Rng rng(7);
    graph_ = std::move(ErdosRenyi(60, 400, &rng)).value();
    op_ = std::make_unique<TransitionOperator>(graph_);
    auto hubs = SelectHubs(graph_, {.degree_budget_b = 4});
    IndexBuildOptions opts;
    opts.capacity_k = 8;
    opts.shard_nodes = 16;  // several shards over 60 nodes
    return BuildLowerBoundIndex(*op_, *hubs, opts);
  }

  // A valid saved index (current format) to mutate.
  std::string MakeValidIndexFile() {
    auto index = BuildGoldenIndex();
    EXPECT_TRUE(index.ok());
    const std::string path = Path("valid.idx");
    EXPECT_TRUE(SaveIndex(*index, path).ok());
    return path;
  }

  // The same index in the legacy monolithic format.
  std::string MakeValidV1IndexFile() {
    auto index = BuildGoldenIndex();
    EXPECT_TRUE(index.ok());
    const std::string path = Path("valid_v1.idx");
    SaveIndexOptions opts;
    opts.format_version = 1;
    EXPECT_TRUE(SaveIndex(*index, path, opts).ok());
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
  std::string bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(Path("badmagic.idx"), bytes);
  auto loaded = LoadIndex(Path("badmagic.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(FaultInjectionTest, TruncationAtEveryQuarterRejected) {
  const std::string path = MakeValidIndexFile();
  const std::string bytes = ReadFile(path);
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
  std::string bytes = ReadFile(path);
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
  std::string bytes = ReadFile(path);
  bytes += "EXTRA BYTES AFTER CHECKSUM";
  WriteFile(Path("junk.idx"), bytes);
  auto loaded = LoadIndex(Path("junk.idx"), 60);
  EXPECT_FALSE(loaded.ok());
}

// A flipped bit inside a shard payload must fail that shard's checksum
// (the v2 format checks every shard independently).
TEST_F(FaultInjectionTest, ShardPayloadBitflipFailsShardChecksum) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFile(path);
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
  std::string bytes = ReadFile(path);
  bytes[12] ^= 0x20;  // inside the n/k header fields
  WriteFile(Path("headerflip.idx"), bytes);
  auto loaded = LoadIndex(Path("headerflip.idx"), 60);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// Parallel loads must reject corruption exactly like serial ones.
TEST_F(FaultInjectionTest, ParallelLoadRejectsCorruptionToo) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFile(path);
  bytes[bytes.size() - 16] ^= 0x01;
  WriteFile(Path("pflip.idx"), bytes);
  ThreadPool pool(4);
  auto loaded = LoadIndex(Path("pflip.idx"), 60, &pool);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// ReadIndexFileInfo verifies no checksum, so corrupt header counts must
// surface as clean Corruption — never as count-sized allocations or reads.
TEST_F(FaultInjectionTest, IndexFileInfoOnCorruptHeaderReturnsStatus) {
  const std::string path = MakeValidIndexFile();
  std::string bytes = ReadFile(path);
  // num_hubs sits after magic(8) + n,k(8) + alpha,eta,delta,max_iter(28).
  for (int i = 0; i < 4; ++i) bytes[44 + i] = '\xFF';
  WriteFile(Path("hugehubs.idx"), bytes);
  auto info = ReadIndexFileInfo(Path("hugehubs.idx"));
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kCorruption);

  // Truncation anywhere in the header region is also a clean status.
  WriteFile(Path("shortinfo.idx"), ReadFile(path).substr(0, 50));
  auto short_info = ReadIndexFileInfo(Path("shortinfo.idx"));
  ASSERT_FALSE(short_info.ok());
  EXPECT_EQ(short_info.status().code(), StatusCode::kCorruption);
}

// --------------------------------------------------------- v1 files --

TEST_F(FaultInjectionTest, V1TruncationAndBitflipRejected) {
  const std::string path = MakeValidV1IndexFile();
  const std::string bytes = ReadFile(path);
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

TEST_F(FaultInjectionTest, ValidFileStillLoadsAfterAllThat) {
  const std::string path = MakeValidIndexFile();
  auto loaded = LoadIndex(path, 60);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 60u);
  EXPECT_EQ(loaded->capacity_k(), 8u);
}

}  // namespace
}  // namespace rtk
