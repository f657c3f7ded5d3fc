// Cross-module property suite: every independent implementation of the
// same mathematical object must agree, across a (graph family x alpha)
// grid. This is the strongest guard the library has against a bug that
// two coupled modules could share.
//
// Objects cross-validated here:
//   proximity COLUMN p_u    dense Gauss-Jordan / power method / Jacobi /
//                           Gauss-Seidel / K-dash LU
//   proximity ROW p_{q,*}   dense / PMPN / K-dash transpose LU
//   contributions           local push bounds vs the exact row
//   reverse top-k           serving engine after ApplyUpdates vs
//                           per-query brute force

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "core/brute_force.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/toy_graphs.h"
#include "rwr/dense_solver.h"
#include "rwr/linear_solvers.h"
#include "rwr/local_push.h"
#include "rwr/pmpn.h"
#include "rwr/power_method.h"
#include "rwr/reverse_adjacency.h"
#include "serving/serving_engine.h"
#include "topk/kdash.h"

namespace rtk {
namespace {

double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

Graph MakeFamily(int family, uint64_t seed) {
  Rng rng(seed);
  switch (family) {
    case 0:
      return std::move(ErdosRenyi(70, 420, &rng)).value();
    case 1:
      return std::move(BarabasiAlbert(70, 3, &rng)).value();
    case 2:
      return std::move(Rmat(6, 260, &rng)).value();
    case 3:
      return std::move(WattsStrogatz(64, 4, 0.3, &rng)).value();
    default:
      return PaperToyGraph();
  }
}

class AllSolversParamTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(AllSolversParamTest, EveryColumnSolverAgreesWithDenseTruth) {
  const auto [family, alpha] = GetParam();
  Graph g = MakeFamily(family, 900 + family);
  TransitionOperator op(g);
  ReverseTransitionView view(op);
  DenseSolverOptions dense_opts;
  dense_opts.alpha = alpha;
  auto dense = ComputeDenseProximityMatrix(g, dense_opts);
  ASSERT_TRUE(dense.ok());
  auto lu = KdashIndex::Build(op, {.alpha = alpha});
  ASSERT_TRUE(lu.ok());

  RwrOptions rwr;
  rwr.alpha = alpha;
  rwr.epsilon = 1e-12;
  StationarySolverOptions stationary;
  stationary.rwr = rwr;

  for (uint32_t u = 0; u < g.num_nodes(); u += 29) {
    const std::vector<double> truth = dense->Column(u);
    auto pm = ComputeProximityColumn(op, u, rwr);
    auto jacobi = JacobiSolveColumn(view, u, stationary);
    auto gs = GaussSeidelSolveColumn(view, u, stationary);
    auto kd = lu->SolveColumn(u);
    ASSERT_TRUE(pm.ok() && jacobi.ok() && gs.ok() && kd.ok());
    EXPECT_LT(LInfDistance(*pm, truth), 1e-9) << "pm u=" << u;
    EXPECT_LT(LInfDistance(*jacobi, truth), 1e-9) << "jacobi u=" << u;
    EXPECT_LT(LInfDistance(*gs, truth), 1e-9) << "gs u=" << u;
    EXPECT_LT(LInfDistance(*kd, truth), 1e-9) << "kdash u=" << u;
  }
}

TEST_P(AllSolversParamTest, EveryRowSolverAgreesWithDenseTruth) {
  const auto [family, alpha] = GetParam();
  Graph g = MakeFamily(family, 700 + family);
  TransitionOperator op(g);
  ReverseTransitionView view(op);
  DenseSolverOptions dense_opts;
  dense_opts.alpha = alpha;
  auto dense = ComputeDenseProximityMatrix(g, dense_opts);
  ASSERT_TRUE(dense.ok());
  auto lu = KdashIndex::Build(op, {.alpha = alpha});
  ASSERT_TRUE(lu.ok());

  RwrOptions rwr;
  rwr.alpha = alpha;
  rwr.epsilon = 1e-12;

  for (uint32_t q = 0; q < g.num_nodes(); q += 23) {
    const std::vector<double> truth = dense->Row(q);
    auto pmpn = ComputeProximityToNode(op, q, rwr);
    auto kd = lu->SolveRow(q);
    ASSERT_TRUE(pmpn.ok() && kd.ok());
    EXPECT_LT(LInfDistance(*pmpn, truth), 1e-9) << "pmpn q=" << q;
    EXPECT_LT(LInfDistance(*kd, truth), 1e-9) << "kdash q=" << q;

    // Local push: entrywise sandwich truth - eps <= estimate <= truth.
    LocalPushOptions push;
    push.alpha = alpha;
    push.epsilon = 1e-6;
    auto approx = ApproximateContributions(view, q, push);
    ASSERT_TRUE(approx.ok());
    for (uint32_t u = 0; u < g.num_nodes(); ++u) {
      EXPECT_LE(approx->estimates[u], truth[u] + 1e-9);
      EXPECT_GE(approx->estimates[u], truth[u] - push.epsilon - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndAlphas, AllSolversParamTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(0.15, 0.5)));

// Live mutation (ServingEngine::ApplyUpdates) against the per-query brute
// force after a random update schedule — ground truth independent of the
// whole index stack.
class DynamicVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(DynamicVsBruteForceTest, UpdatesThenQueriesMatchBruteForce) {
  const int family = GetParam();
  EngineOptions opts;
  opts.capacity_k = 8;
  opts.hub_selection.degree_budget_b = 4;
  opts.num_threads = 1;
  auto engine = ReverseTopkEngine::Build(MakeFamily(family, 1300 + family),
                                         opts);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.mutation_repair_fraction = 0.5;
  serving_opts.mutation_rebuild_fraction = 0.5;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  Rng rng(77 + family);
  for (int round = 0; round < 2; ++round) {
    // One random insert (retry until novel) per round.
    std::vector<EdgeUpdate> batch;
    const Graph& cur = (*serving)->snapshot()->graph_version()->graph();
    for (int tries = 0; tries < 300 && batch.empty(); ++tries) {
      const auto u = static_cast<uint32_t>(rng.Uniform(cur.num_nodes()));
      const auto v = static_cast<uint32_t>(rng.Uniform(cur.num_nodes()));
      if (u == v) continue;
      const auto nbrs = cur.OutNeighbors(u);
      if (std::find(nbrs.begin(), nbrs.end(), v) == nbrs.end()) {
        batch.push_back(EdgeUpdate::Insert(u, v));
      }
    }
    ASSERT_FALSE(batch.empty());
    MutationResult applied = (*serving)->ApplyUpdates(std::move(batch)).get();
    ASSERT_TRUE(applied.ok()) << applied.status.ToString();

    auto snap = (*serving)->snapshot();
    const Graph& graph = snap->graph_version()->graph();
    TransitionOperator op(graph);
    for (uint32_t q = 0; q < graph.num_nodes(); q += 19) {
      auto fast = (*serving)->Query(q, 5);
      auto slow = BruteForceReverseTopk(op, q, 5);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(*fast, *slow) << "family=" << family << " round=" << round
                              << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, DynamicVsBruteForceTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace rtk
