// Unit tests for src/graph: CSR construction, builder policies, edge-list
// I/O round trips, fixture graphs.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/toy_graphs.h"

namespace rtk {
namespace {

Graph MustBuild(GraphBuilder& b, GraphBuilderOptions opts = {}) {
  Result<Graph> g = b.Build(opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// ----------------------------------------------------------------- basics --

TEST(GraphBuilderTest, SimpleTriangle) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kError});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(0), 1u);
  ASSERT_EQ(g.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  ASSERT_EQ(g.InNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(0)[0], 2u);
}

TEST(GraphBuilderTest, NeighborsSortedAscending) {
  GraphBuilder b(5);
  b.AddEdge(0, 4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 3);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  b.AddEdge(3, 0);
  b.AddEdge(4, 0);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kError});
  auto nbrs = g.OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  auto in = g.InNeighbors(0);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
  EXPECT_EQ(in.size(), 4u);
}

TEST(GraphBuilderTest, OutOfRangeEndpointFails) {
  GraphBuilder b(2);
  b.AddEdge(0, 5);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, NonPositiveWeightFails) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.0);
  b.AddEdge(1, 0);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, SelfLoopRejectedByDefault) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);
  b.AddEdge(1, 0);
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, SelfLoopAllowedWhenOptedIn) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);
  b.AddEdge(1, 0);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kError,
                          .allow_self_loops = true});
  EXPECT_EQ(g.num_edges(), 2u);
}

// -------------------------------------------------------- parallel edges --

TEST(GraphBuilderTest, ParallelEdgesSumWeights) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kSelfLoop,
                          .parallel_edges = ParallelEdgePolicy::kSumWeights});
  EXPECT_TRUE(g.is_weighted());
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_DOUBLE_EQ(g.OutWeights(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(g.OutWeightSum(0), 3.0);
}

TEST(GraphBuilderTest, ParallelEdgesKeepFirstStaysUnweighted) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kSelfLoop,
                          .parallel_edges = ParallelEdgePolicy::kKeepFirst});
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(g.OutDegree(0), 1u);
}

TEST(GraphBuilderTest, ParallelEdgesErrorPolicy) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  GraphBuilderOptions opts;
  opts.parallel_edges = ParallelEdgePolicy::kError;
  EXPECT_FALSE(b.Build(opts).ok());
}

// ---------------------------------------------------------- dangling fix --

TEST(DanglingPolicyTest, ErrorModeRejects) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);  // node 1 dangles
  EXPECT_FALSE(b.Build({.dangling_policy = DanglingPolicy::kError}).ok());
}

TEST(DanglingPolicyTest, SelfLoopFix) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kSelfLoop});
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.OutNeighbors(1)[0], 1u);
  EXPECT_FALSE(g.sink_node().has_value());
}

TEST(DanglingPolicyTest, SinkNodeFix) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);  // 1 and 2 dangle
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kAddSink});
  ASSERT_TRUE(g.sink_node().has_value());
  const uint32_t sink = *g.sink_node();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(sink, 3u);
  // Sink has a self-loop; both dangling nodes point to it.
  EXPECT_EQ(g.OutNeighbors(sink)[0], sink);
  EXPECT_EQ(g.OutNeighbors(1)[0], sink);
  EXPECT_EQ(g.OutNeighbors(2)[0], sink);
  // Node 0 already had out-edges: untouched.
  EXPECT_EQ(g.OutDegree(0), 2u);
}

TEST(DanglingPolicyTest, RemoveCompactsIds) {
  // 0 -> 1 -> 2 (2 dangles; removing 2 strands 1; removing 1 strands 0)
  // plus a 3-cycle 3 -> 4 -> 5 -> 3 that survives.
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 3);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kRemove});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(g.original_ids().size(), 3u);
  EXPECT_EQ(g.original_ids()[0], 3u);
  EXPECT_EQ(g.original_ids()[1], 4u);
  EXPECT_EQ(g.original_ids()[2], 5u);
}

TEST(DanglingPolicyTest, RemoveKeepsSelfLoopNodes) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);  // self-loop: not dangling
  b.AddEdge(1, 0);  // 1 has an out-edge; survives too
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kRemove,
                          .allow_self_loops = true});
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST(DanglingPolicyTest, RemoveCanEmptyADag) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);  // pure DAG: everything eventually dangles
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kRemove});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

// -------------------------------------------------------------- weighted --

TEST(WeightedGraphTest, TransitionWeightsExposed) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 3.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 0, 2.0);
  b.AddEdge(2, 0, 1.0);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kError});
  EXPECT_TRUE(g.is_weighted());
  EXPECT_DOUBLE_EQ(g.OutWeightSum(0), 4.0);
  auto w = g.OutWeights(0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 3.0);  // targets sorted: 1 then 2
  EXPECT_DOUBLE_EQ(w[1], 1.0);
}

TEST(WeightedGraphTest, InWeightsMirrorOutWeights) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 3.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 0, 2.0);
  b.AddEdge(2, 0, 1.5);
  b.AddEdge(2, 1, 0.5);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kError});
  // In-row of 1: sources 0 (weight 3) then 2 (weight 0.5), ascending.
  auto sources = g.InNeighbors(1);
  auto w = g.InWeights(1);
  ASSERT_EQ(sources.size(), 2u);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(sources[0], 0u);
  EXPECT_DOUBLE_EQ(w[0], 3.0);
  EXPECT_EQ(sources[1], 2u);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
  EXPECT_DOUBLE_EQ(g.InWeights(0)[1], 1.5);  // 2 -> 0

  GraphBuilder unweighted(2);
  unweighted.AddEdge(0, 1);
  unweighted.AddEdge(1, 0);
  EXPECT_TRUE(MustBuild(unweighted, {.dangling_policy = DanglingPolicy::kError})
                  .InWeights(0)
                  .empty());
}

TEST(WeightedGraphTest, UndirectedConvenienceAddsBothDirections) {
  GraphBuilder b(2);
  b.AddUndirectedEdge(0, 1, 2.5);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kError});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.OutWeights(1)[0], 2.5);
}

// ----------------------------------------------------------------- stats --

TEST(GraphStatsTest, DegreesAndMemory) {
  Graph g = StarGraph(5);  // center 0, 4 leaves
  EXPECT_EQ(g.MaxOutDegree(), 4u);
  EXPECT_EQ(g.MaxInDegree(), 4u);
  EXPECT_GT(g.MemoryBytes(), 0u);
  EXPECT_NE(g.ToString().find("n=5"), std::string::npos);
}

// -------------------------------------------------------------- fixtures --

TEST(ToyGraphsTest, CycleShape) {
  Graph g = CycleGraph(4);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  for (uint32_t u = 0; u < 4; ++u) {
    EXPECT_EQ(g.OutDegree(u), 1u);
    EXPECT_EQ(g.OutNeighbors(u)[0], (u + 1) % 4);
  }
}

TEST(ToyGraphsTest, PathHasTailSelfLoop) {
  Graph g = PathGraph(3);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.OutNeighbors(2)[0], 2u);
}

TEST(ToyGraphsTest, CompleteGraphDegrees) {
  Graph g = CompleteGraph(4);
  EXPECT_EQ(g.num_edges(), 12u);
  for (uint32_t u = 0; u < 4; ++u) {
    EXPECT_EQ(g.OutDegree(u), 3u);
    EXPECT_EQ(g.InDegree(u), 3u);
  }
}

TEST(ToyGraphsTest, TwoCommunitiesBridge) {
  Graph g = TwoCommunitiesGraph(3);
  EXPECT_EQ(g.num_nodes(), 6u);
  // 2 * 3*2 intra edges + 2 bridges.
  EXPECT_EQ(g.num_edges(), 14u);
}

TEST(ToyGraphsTest, PaperToyGraphShape) {
  Graph g = PaperToyGraph();
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 12u);
  // Node 1 (0-based 0) has the max out-degree, node 2 (0-based 1) the max
  // in-degree — they become the hubs in Figure 2.
  EXPECT_EQ(g.MaxOutDegree(), 3u);
  EXPECT_EQ(g.OutDegree(0), 3u);
  EXPECT_EQ(g.MaxInDegree(), 5u);
  EXPECT_EQ(g.InDegree(1), 5u);
}

// -------------------------------------------------------------------- IO --

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "rtk_graph_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, LoadSimpleEdgeList) {
  const auto path = dir_ / "simple.txt";
  std::ofstream(path) << "# comment line\n"
                         "0 1\n"
                         "1 2\n"
                         "2 0\n";
  Result<Graph> g = LoadEdgeList(path.string());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST_F(GraphIoTest, LoadRelabelsSparseIds) {
  const auto path = dir_ / "sparse_ids.txt";
  std::ofstream(path) << "1000 2000\n2000 30000\n30000 1000\n";
  Result<Graph> g = LoadEdgeList(path.string());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3u);  // dense relabeling
}

TEST_F(GraphIoTest, LoadWeightedThirdColumn) {
  const auto path = dir_ / "weighted.txt";
  std::ofstream(path) << "0 1 2.5\n1 0 1.5\n";
  Result<Graph> g = LoadEdgeList(path.string());
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_weighted());
  EXPECT_DOUBLE_EQ(g->OutWeights(0)[0], 2.5);
}

TEST_F(GraphIoTest, LoadAppliesDanglingPolicy) {
  const auto path = dir_ / "dangling.txt";
  std::ofstream(path) << "0 1\n";  // node 1 dangles
  Result<Graph> g = LoadEdgeList(path.string());  // default kAddSink
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->sink_node().has_value());
  EXPECT_EQ(g->num_nodes(), 3u);
}

TEST_F(GraphIoTest, MissingFileFails) {
  Result<Graph> g = LoadEdgeList((dir_ / "nope.txt").string());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, GarbageLineFails) {
  const auto path = dir_ / "garbage.txt";
  std::ofstream(path) << "0 1\nhello world\n";
  Result<Graph> g = LoadEdgeList(path.string());
  EXPECT_EQ(g.status().code(), StatusCode::kCorruption);
}

TEST_F(GraphIoTest, EmptyFileFails) {
  const auto path = dir_ / "empty.txt";
  std::ofstream(path) << "# nothing\n";
  EXPECT_FALSE(LoadEdgeList(path.string()).ok());
}

TEST_F(GraphIoTest, SaveLoadRoundTrip) {
  Graph g = PaperToyGraph();
  const auto path = dir_ / "roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(g, path.string()).ok());
  LoadEdgeListOptions opts;
  opts.relabel_dense = false;
  opts.builder.dangling_policy = DanglingPolicy::kError;
  Result<Graph> g2 = LoadEdgeList(path.string(), opts);
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  ASSERT_EQ(g2->num_nodes(), g.num_nodes());
  ASSERT_EQ(g2->num_edges(), g.num_edges());
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    auto a = g.OutNeighbors(u);
    auto b = g2->OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST_F(GraphIoTest, WeightedRoundTripPreservesWeights) {
  GraphBuilder b(2);
  b.AddUndirectedEdge(0, 1, 3.25);
  Graph g = MustBuild(b, {.dangling_policy = DanglingPolicy::kError});
  const auto path = dir_ / "weighted_rt.txt";
  ASSERT_TRUE(SaveEdgeList(g, path.string()).ok());
  Result<Graph> g2 = LoadEdgeList(path.string());
  ASSERT_TRUE(g2.ok());
  EXPECT_TRUE(g2->is_weighted());
  EXPECT_DOUBLE_EQ(g2->OutWeights(0)[0], 3.25);
}

}  // namespace
}  // namespace rtk
