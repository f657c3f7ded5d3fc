// Tests for src/rwr: transition operator, power method, PMPN (Theorem 2),
// dense solver, Monte Carlo estimators, PageRank.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/toy_graphs.h"
#include "rwr/dense_solver.h"
#include "rwr/monte_carlo.h"
#include "rwr/pagerank.h"
#include "rwr/pmpn.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace rtk {
namespace {

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// y = A x through the forward kernel's single-lane width.
std::vector<double> Forward(const TransitionOperator& op,
                            const std::vector<double>& x) {
  std::vector<double> y(x.size()), scaled;
  EXPECT_TRUE(op.ApplyForwardMulti(x, &y, &scaled, 1).ok());
  return y;
}

// ---------------------------------------------------- TransitionOperator --

TEST(TransitionOperatorTest, ForwardPreservesMass) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  std::vector<double> x(6, 1.0 / 6), y(6);
  y = Forward(op, x);
  EXPECT_NEAR(Sum(y), 1.0, 1e-12);  // A is column-stochastic
}

TEST(TransitionOperatorTest, ForwardMatchesHandComputation) {
  // Cycle 0->1->2->0: A e_0 = e_1.
  Graph g = CycleGraph(3);
  TransitionOperator op(g);
  std::vector<double> x{1.0, 0.0, 0.0}, y(3);
  y = Forward(op, x);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(TransitionOperatorTest, TransposeIsAdjointOfForward) {
  // <A x, y> == <x, A^T y> for random vectors: the two kernels agree.
  Rng rng(77);
  Result<Graph> g = ErdosRenyi(50, 300, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  const uint32_t n = g->num_nodes();
  std::vector<double> x(n), y(n), ax(n), aty(n);
  for (uint32_t i = 0; i < n; ++i) {
    x[i] = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  ax = Forward(op, x);
  ASSERT_TRUE(op.ApplyTransposeMulti(y, &aty, 1).ok());
  double lhs = 0.0, rhs = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    lhs += ax[i] * y[i];
    rhs += x[i] * aty[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-10);
}

TEST(TransitionOperatorTest, WeightedEdgeProbabilities) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 3.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  Result<Graph> g = b.Build({.dangling_policy = DanglingPolicy::kError});
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  EXPECT_DOUBLE_EQ(op.EdgeProbability(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(op.EdgeProbability(0, 1), 0.25);
  std::vector<double> x{1.0, 0.0, 0.0}, y(3);
  y = Forward(op, x);
  EXPECT_DOUBLE_EQ(y[1], 0.75);
  EXPECT_DOUBLE_EQ(y[2], 0.25);
}

TEST(TransitionOperatorTest, SampleOutNeighborRespectsWeights) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 9.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  Result<Graph> g = b.Build({.dangling_policy = DanglingPolicy::kError});
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  Rng rng(31);
  int to1 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    to1 += (op.SampleOutNeighbor(0, &rng) == 1);
  }
  EXPECT_NEAR(to1 / static_cast<double>(trials), 0.9, 0.02);
}

// ------------------------------------------------------------ PowerMethod --

TEST(PowerMethodTest, ProximityVectorSumsToOne) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  for (uint32_t u = 0; u < 6; ++u) {
    Result<std::vector<double>> p = ComputeProximityColumn(op, u);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(Sum(*p), 1.0, 1e-9);
  }
}

TEST(PowerMethodTest, SolvesLinearSystem) {
  // Residual check: p = (1-a) A p + a e_u must hold.
  Graph g = TwoCommunitiesGraph(4);
  TransitionOperator op(g);
  const double alpha = 0.15;
  Result<std::vector<double>> p = ComputeProximityColumn(op, 2);
  ASSERT_TRUE(p.ok());
  std::vector<double> ap(g.num_nodes());
  ap = Forward(op, *p);
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    const double rhs = (1 - alpha) * ap[i] + (i == 2 ? alpha : 0.0);
    EXPECT_NEAR((*p)[i], rhs, 1e-9);
  }
}

TEST(PowerMethodTest, MatchesDenseSolver) {
  Rng rng(123);
  Result<Graph> g = ErdosRenyi(40, 200, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  Result<DenseProximityMatrix> dense = ComputeDenseProximityMatrix(*g);
  ASSERT_TRUE(dense.ok());
  for (uint32_t u = 0; u < g->num_nodes(); u += 7) {
    Result<std::vector<double>> p = ComputeProximityColumn(op, u);
    ASSERT_TRUE(p.ok());
    EXPECT_LT(L1Distance(*p, dense->Column(u)), 1e-8);
  }
}

TEST(PowerMethodTest, ReportsConvergence) {
  Graph g = CycleGraph(10);
  TransitionOperator op(g);
  IterativeSolveStats stats;
  RwrOptions opts;
  Result<std::vector<double>> p = ComputeProximityColumn(op, 0, opts, &stats);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.iterations, 1);
  EXPECT_LT(stats.final_delta, opts.epsilon);
}

TEST(PowerMethodTest, RejectsBadArguments) {
  Graph g = CycleGraph(4);
  TransitionOperator op(g);
  EXPECT_FALSE(ComputeProximityColumn(op, 99).ok());
  RwrOptions bad;
  bad.alpha = 1.5;
  EXPECT_FALSE(ComputeProximityColumn(op, 0, bad).ok());
  bad.alpha = 0.15;
  bad.epsilon = -1.0;
  EXPECT_FALSE(ComputeProximityColumn(op, 0, bad).ok());
}

TEST(PowerMethodTest, AlphaOneHalfConcentratesAtSource) {
  Graph g = CompleteGraph(5);
  TransitionOperator op(g);
  RwrOptions opts;
  opts.alpha = 0.5;
  Result<std::vector<double>> p = ComputeProximityColumn(op, 0, opts);
  ASSERT_TRUE(p.ok());
  // Higher restart probability concentrates proximity at the source.
  for (uint32_t v = 1; v < 5; ++v) EXPECT_GT((*p)[0], (*p)[v]);
  EXPECT_GT((*p)[0], 0.5);
}

TEST(PowerMethodTest, MultiColumnConvenience) {
  Graph g = CycleGraph(6);
  TransitionOperator op(g);
  Result<std::vector<std::vector<double>>> cols =
      ComputeProximityColumns(op, {0, 3, 5});
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols->size(), 3u);
  // Cycle symmetry: every column is a rotation of column 0.
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_NEAR((*cols)[0][i], (*cols)[1][(i + 3) % 6], 1e-9);
  }
}

// ------------------------------------------------------------------ PMPN --

TEST(PmpnTest, MatchesDenseRowOnToyGraph) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  Result<DenseProximityMatrix> dense = ComputeDenseProximityMatrix(g);
  ASSERT_TRUE(dense.ok());
  for (uint32_t q = 0; q < 6; ++q) {
    Result<std::vector<double>> row = ComputeProximityToNode(op, q);
    ASSERT_TRUE(row.ok());
    EXPECT_LT(L1Distance(*row, dense->Row(q)), 1e-8) << "q=" << q;
  }
}

TEST(PmpnTest, MatchesColumnsComputedIndependently) {
  // p_{q,*}(u) must equal p_u(q) for every u — the reverse-query key fact.
  Rng rng(321);
  Result<Graph> g = BarabasiAlbert(80, 3, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  const uint32_t q = 11;
  Result<std::vector<double>> row = ComputeProximityToNode(op, q);
  ASSERT_TRUE(row.ok());
  for (uint32_t u = 0; u < g->num_nodes(); u += 13) {
    Result<std::vector<double>> col = ComputeProximityColumn(op, u);
    ASSERT_TRUE(col.ok());
    EXPECT_NEAR((*row)[u], (*col)[q], 1e-8) << "u=" << u;
  }
}

TEST(PmpnTest, ConvergesFromArbitraryStart) {
  // Theorem 2(a): any initialization converges to the same fixed point. The
  // implementation starts from e_q; verify the fixed-point property
  // x = (1-a) A^T x + a e_q instead, which pins the same uniqueness.
  Graph g = TwoCommunitiesGraph(5);
  TransitionOperator op(g);
  const double alpha = 0.15;
  const uint32_t q = 3;
  Result<std::vector<double>> row = ComputeProximityToNode(op, q);
  ASSERT_TRUE(row.ok());
  std::vector<double> atx(g.num_nodes());
  ASSERT_TRUE(op.ApplyTransposeMulti(*row, &atx, 1).ok());
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    const double rhs = (1 - alpha) * atx[i] + (i == q ? alpha : 0.0);
    EXPECT_NEAR((*row)[i], rhs, 1e-9);
  }
}

TEST(PmpnTest, RowIsNotStochasticButConverges) {
  // Unlike columns, rows of P need not sum to 1 — the reason Theorem 2's
  // proof cannot reuse the classic argument. Star graph: the center's row
  // sums far above 1.
  Graph g = StarGraph(11);  // center 0, 10 leaves
  TransitionOperator op(g);
  Result<std::vector<double>> row = ComputeProximityToNode(op, 0);
  ASSERT_TRUE(row.ok());
  EXPECT_GT(Sum(*row), 2.0);
}

TEST(PmpnTest, IterationCountWithinTheorem2Bound) {
  Rng rng(55);
  Result<Graph> g = ErdosRenyi(200, 1500, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  RwrOptions opts;  // alpha 0.15, eps 1e-10
  IterativeSolveStats stats;
  Result<std::vector<double>> row =
      ComputeProximityToNode(op, 0, opts, &stats);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.iterations, PmpnIterationBound(opts.alpha, opts.epsilon));
}

TEST(PmpnTest, IterationBoundFormula) {
  // log(eps/alpha)/log(1-alpha) for alpha=.15, eps=1e-10: ~140 iterations.
  const int bound = PmpnIterationBound(0.15, 1e-10);
  EXPECT_GE(bound, 120);
  EXPECT_LE(bound, 160);
}

TEST(PmpnTest, RejectsBadArguments) {
  Graph g = CycleGraph(4);
  TransitionOperator op(g);
  EXPECT_FALSE(ComputeProximityToNode(op, 4).ok());
  RwrOptions bad;
  bad.alpha = 0.0;
  EXPECT_FALSE(ComputeProximityToNode(op, 0, bad).ok());
}

// ----------------------------------------------------------- DenseSolver --

TEST(DenseSolverTest, ReproducesPaperToyMatrix) {
  Graph g = PaperToyGraph();
  Result<DenseProximityMatrix> dense = ComputeDenseProximityMatrix(g);
  ASSERT_TRUE(dense.ok());
  const auto expected = PaperToyExpectedProximity();
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 6; ++j) {
      // The paper prints two decimals; allow half-ulp of that print.
      EXPECT_NEAR(dense->At(i, j), expected[i][j], 0.005)
          << "entry (" << i << "," << j << ")";
    }
  }
}

TEST(DenseSolverTest, ColumnsAreDistributions) {
  Graph g = TwoCommunitiesGraph(4);
  Result<DenseProximityMatrix> dense = ComputeDenseProximityMatrix(g);
  ASSERT_TRUE(dense.ok());
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(Sum(dense->Column(u)), 1.0, 1e-10);
    for (double v : dense->Column(u)) EXPECT_GE(v, 0.0);
  }
}

TEST(DenseSolverTest, SizeGuardRejectsBigGraphs) {
  Rng rng(1);
  Result<Graph> g = ErdosRenyi(100, 500, &rng);
  ASSERT_TRUE(g.ok());
  DenseSolverOptions opts;
  opts.max_nodes = 50;
  EXPECT_FALSE(ComputeDenseProximityMatrix(*g, opts).ok());
}

TEST(DenseSolverTest, RowAndColumnAccessorsAgree) {
  Graph g = PaperToyGraph();
  Result<DenseProximityMatrix> dense = ComputeDenseProximityMatrix(g);
  ASSERT_TRUE(dense.ok());
  const std::vector<double> row = dense->Row(2);
  for (uint32_t j = 0; j < 6; ++j) {
    EXPECT_DOUBLE_EQ(row[j], dense->At(2, j));
    EXPECT_DOUBLE_EQ(dense->Column(j)[2], dense->At(2, j));
  }
}

// ------------------------------------------------------------ MonteCarlo --

TEST(MonteCarloTest, EndPointApproximatesProximity) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  Rng rng(42);
  MonteCarloOptions opts;
  opts.num_walks = 200000;
  Result<std::vector<double>> est = MonteCarloEndPoint(op, 0, opts, &rng);
  ASSERT_TRUE(est.ok());
  Result<std::vector<double>> exact = ComputeProximityColumn(op, 0);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(L1Distance(*est, *exact), 0.02);
  EXPECT_NEAR(Sum(*est), 1.0, 1e-9);  // walks always end somewhere
}

TEST(MonteCarloTest, CompletePathApproximatesProximity) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  Rng rng(43);
  MonteCarloOptions opts;
  opts.num_walks = 100000;
  Result<std::vector<double>> est = MonteCarloCompletePath(op, 0, opts, &rng);
  ASSERT_TRUE(est.ok());
  Result<std::vector<double>> exact = ComputeProximityColumn(op, 0);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(L1Distance(*est, *exact), 0.02);
}

TEST(MonteCarloTest, CompletePathBeatsEndPointAtEqualBudget) {
  // Complete Path uses every node on the walk, so at the same walk budget
  // its error should (statistically) be smaller.
  Graph g = TwoCommunitiesGraph(5);
  TransitionOperator op(g);
  Result<std::vector<double>> exact = ComputeProximityColumn(op, 0);
  ASSERT_TRUE(exact.ok());
  MonteCarloOptions opts;
  opts.num_walks = 20000;
  double err_end = 0.0, err_path = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng r1(seed), r2(seed + 100);
    err_end += L1Distance(*MonteCarloEndPoint(op, 0, opts, &r1), *exact);
    err_path += L1Distance(*MonteCarloCompletePath(op, 0, opts, &r2), *exact);
  }
  EXPECT_LT(err_path, err_end);
}

TEST(MonteCarloTest, EstimatesAreNotLowerBounds) {
  // The reason the index uses BCA: MC estimates overshoot true proximities
  // on some nodes. Verify overshoot exists (in any direction per node).
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  Rng rng(44);
  MonteCarloOptions opts;
  opts.num_walks = 500;  // small budget: noisy
  Result<std::vector<double>> est = MonteCarloEndPoint(op, 0, opts, &rng);
  ASSERT_TRUE(est.ok());
  Result<std::vector<double>> exact = ComputeProximityColumn(op, 0);
  bool overshoot = false;
  for (uint32_t v = 0; v < 6; ++v) {
    if ((*est)[v] > (*exact)[v] + 1e-12) overshoot = true;
  }
  EXPECT_TRUE(overshoot);
}

TEST(MonteCarloTest, RejectsBadArguments) {
  Graph g = CycleGraph(3);
  TransitionOperator op(g);
  Rng rng(1);
  MonteCarloOptions opts;
  opts.num_walks = 0;
  EXPECT_FALSE(MonteCarloEndPoint(op, 0, opts, &rng).ok());
}

// -------------------------------------------------------------- PageRank --

TEST(PageRankTest, UniformOnSymmetricGraph) {
  Graph g = CompleteGraph(5);
  TransitionOperator op(g);
  Result<std::vector<double>> pr = ComputePageRank(op);
  ASSERT_TRUE(pr.ok());
  for (double v : *pr) EXPECT_NEAR(v, 0.2, 1e-9);
}

TEST(PageRankTest, MatchesProximityMatrixIdentity) {
  // Eq. (3): pr = (1/n) P e — PageRank is the row-average of P.
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  Result<std::vector<double>> pr = ComputePageRank(op);
  ASSERT_TRUE(pr.ok());
  Result<DenseProximityMatrix> dense = ComputeDenseProximityMatrix(g);
  ASSERT_TRUE(dense.ok());
  for (uint32_t i = 0; i < 6; ++i) {
    double avg = 0.0;
    for (uint32_t j = 0; j < 6; ++j) avg += dense->At(i, j);
    EXPECT_NEAR((*pr)[i], avg / 6.0, 1e-9);
  }
}

TEST(PageRankTest, PersonalizedEqualsProximityColumn) {
  // Eq. (3): ppr_{e_u} = P e_u = p_u.
  Graph g = TwoCommunitiesGraph(4);
  TransitionOperator op(g);
  std::vector<double> pref(g.num_nodes(), 0.0);
  pref[5] = 1.0;
  Result<std::vector<double>> ppr = ComputePersonalizedPageRank(op, pref);
  ASSERT_TRUE(ppr.ok());
  Result<std::vector<double>> col = ComputeProximityColumn(op, 5);
  ASSERT_TRUE(col.ok());
  EXPECT_LT(L1Distance(*ppr, *col), 1e-8);
}

TEST(PageRankTest, RejectsUnnormalizedPreference) {
  Graph g = CycleGraph(4);
  TransitionOperator op(g);
  std::vector<double> pref(4, 0.5);  // L1 = 2
  EXPECT_FALSE(ComputePersonalizedPageRank(op, pref).ok());
  pref.assign(4, 0.25);
  pref[0] = -0.25;
  pref[1] = 0.75;
  EXPECT_FALSE(ComputePersonalizedPageRank(op, pref).ok());
}

}  // namespace
}  // namespace rtk
