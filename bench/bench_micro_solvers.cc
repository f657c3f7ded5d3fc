// Micro benchmarks (google-benchmark): the solver kernels underlying every
// experiment. Headline check: PMPN (row of P) costs the same as a classic
// power-method column solve — Theorem 2's "same complexity" claim — and
// both are linear in m per iteration.

#include <benchmark/benchmark.h>

#include <memory>

#include "bca/bca.h"
#include "bca/hub_proximity_store.h"
#include "bca/hub_selection.h"
#include "common/rng.h"
#include "core/upper_bound.h"
#include "graph/generators.h"
#include "rwr/dense_solver.h"
#include "rwr/monte_carlo.h"
#include "rwr/pagerank.h"
#include "rwr/pmpn.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace {

using namespace rtk;

// One shared graph per scale, lazily built.
const Graph& TestGraph(int scale) {
  static std::map<int, std::unique_ptr<Graph>> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    Rng rng(1000 + scale);
    auto g = Rmat(scale, (1u << scale) * 8, &rng);
    it = cache.emplace(scale, std::make_unique<Graph>(std::move(*g))).first;
  }
  return *it->second;
}

void BM_TransitionForward(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  TransitionOperator op(g);
  std::vector<double> x(g.num_nodes(), 1.0 / g.num_nodes());
  std::vector<double> y(g.num_nodes()), scaled;
  for (auto _ : state) {
    if (!op.ApplyForwardMulti(x, &y, &scaled, 1).ok()) {
      state.SkipWithError("ApplyForwardMulti failed");
      break;
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_TransitionForward)->Arg(10)->Arg(12)->Arg(14);

void BM_TransitionTranspose(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  TransitionOperator op(g);
  std::vector<double> x(g.num_nodes(), 1.0 / g.num_nodes());
  std::vector<double> y(g.num_nodes());
  for (auto _ : state) {
    if (!op.ApplyTransposeMulti(x, &y, 1).ok()) {
      state.SkipWithError("ApplyTransposeMulti failed");
      break;
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_TransitionTranspose)->Arg(10)->Arg(12)->Arg(14);

// Theorem 2 parity: these two should track each other closely.
void BM_PowerMethodColumn(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  TransitionOperator op(g);
  uint32_t u = 0;
  for (auto _ : state) {
    auto col = ComputeProximityColumn(op, u % g.num_nodes());
    benchmark::DoNotOptimize(col);
    u += 13;
  }
}
BENCHMARK(BM_PowerMethodColumn)->Arg(10)->Arg(12)->Arg(14);

void BM_PmpnRow(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  TransitionOperator op(g);
  uint32_t q = 0;
  for (auto _ : state) {
    auto row = ComputeProximityToNode(op, q % g.num_nodes());
    benchmark::DoNotOptimize(row);
    q += 13;
  }
}
BENCHMARK(BM_PmpnRow)->Arg(10)->Arg(12)->Arg(14);

void BM_DenseSolve(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto P = ComputeDenseProximityMatrix(g);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_DenseSolve)->Arg(8)->Arg(9);

void BM_MonteCarloEndPoint(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  TransitionOperator op(g);
  Rng rng(3);
  MonteCarloOptions opts;
  opts.num_walks = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto est = MonteCarloEndPoint(op, 5, opts, &rng);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_MonteCarloEndPoint)->Arg(1000)->Arg(10000);

void BM_MonteCarloCompletePath(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  TransitionOperator op(g);
  Rng rng(4);
  MonteCarloOptions opts;
  opts.num_walks = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto est = MonteCarloCompletePath(op, 5, opts, &rng);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_MonteCarloCompletePath)->Arg(1000)->Arg(10000);

void BM_PageRank(benchmark::State& state) {
  const Graph& g = TestGraph(static_cast<int>(state.range(0)));
  TransitionOperator op(g);
  for (auto _ : state) {
    auto pr = ComputePageRank(op);
    benchmark::DoNotOptimize(pr);
  }
}
BENCHMARK(BM_PageRank)->Arg(12)->Arg(14);

void BM_BcaIndexOneNode(benchmark::State& state) {
  const Graph& g = TestGraph(12);
  TransitionOperator op(g);
  auto hubs = SelectHubs(g, {.degree_budget_b = g.num_nodes() / 50 + 1});
  BcaOptions opts;
  BcaRunner runner(op, *hubs, opts);
  uint32_t u = 0;
  for (auto _ : state) {
    runner.Start(u % g.num_nodes());
    runner.RunToTermination(PushStrategy::kBatch);
    benchmark::DoNotOptimize(runner.ResidueL1());
    u += 7;
  }
}
BENCHMARK(BM_BcaIndexOneNode);

void BM_UpperBound(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  std::vector<double> lb(k);
  double v = 0.5;
  for (uint32_t i = 0; i < k; ++i) {
    lb[i] = v;
    v *= 0.9;
  }
  double r = 0.07;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeUpperBound(lb, k, r));
    r = r < 0.9 ? r + 1e-6 : 0.07;  // vary the pour level slightly
  }
}
BENCHMARK(BM_UpperBound)->Arg(5)->Arg(20)->Arg(100)->Arg(200);

void BM_HubStoreBuild(benchmark::State& state) {
  const Graph& g = TestGraph(11);
  TransitionOperator op(g);
  auto hubs = SelectHubs(g, {.degree_budget_b = 20});
  for (auto _ : state) {
    auto store = HubProximityStore::Build(op, *hubs, {});
    benchmark::DoNotOptimize(store);
  }
}
BENCHMARK(BM_HubStoreBuild);

}  // namespace

BENCHMARK_MAIN();
