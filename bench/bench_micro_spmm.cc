// Micro-benchmark of the fused solve paths, at two levels.
//
// Kernel rows: the fused SpMM kernel (ApplyTransposeMulti at width B)
// against B independent single-vector applies (width 1). One CSR pass
// feeds B accumulators, so the graph (indices + weights) streams from
// memory once per B right-hand sides instead of once per right-hand side.
// The number to watch is edges/sec *per query*: the per-lane
// edge-traversal rate. The sweep covers every width 1..16 — the widths a
// 16-lane serving batch passes through as its lanes converge and retire —
// plus 24 and 32. Both sides run serial (no thread pool) so the comparison
// isolates memory traffic, not scheduling.
//
// Solver rows: 16 uniformly drawn query lanes through one
// ComputeProximityToNodesFused call against the same 16
// ComputeProximityToNode solves (best of several repetitions each,
// serial), plus the per-width pass histogram: how many SpMM passes the
// fused solve ran at each block width as its lanes retired. Forward rows:
// the same for the forward power method, with the graph's first 16 hubs
// (the index's hub-vector block) through one ComputeProximityColumnsFused
// call against 16 ComputeProximityColumn solves. The bench checks every
// fused lane equals its single-source solve bitwise.
//
// --json <path> writes machine-readable rows; ci.sh's bench-smoke leg
// gates the B=8 kernel speedup and both solver speedups.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bca/hub_selection.h"
#include "bench_common.h"
#include "common/rng.h"
#include "rwr/pmpn.h"
#include "rwr/pmpn_multi.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace rtk::bench {
namespace {

constexpr uint32_t kSolverLanes = 16;
constexpr int kSolverReps = 7;

struct SpmmRow {
  std::string graph;
  uint32_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint32_t block = 0;
  int iters = 0;
  double solo_seconds = 0.0;
  double fused_seconds = 0.0;
  /// Per-lane edge-traversal rate: (iters * m) / (seconds / B).
  double solo_edges_per_sec_per_query = 0.0;
  double fused_edges_per_sec_per_query = 0.0;
  double speedup = 1.0;
};

struct SolverRow {
  std::string graph;
  uint32_t lanes = 0;
  double solo_seconds = 0.0;
  double fused_seconds = 0.0;
  double speedup = 1.0;
  /// Total lane-iterations over all lanes (equal on both sides).
  long long lane_iterations = 0;
  /// passes_at_width[w - 1] = fused SpMM passes run at block width w.
  std::vector<long long> passes_at_width;
};

void Apply(const TransitionOperator& op, const std::vector<double>& x,
           std::vector<double>* y, uint32_t block) {
  const Status status = op.ApplyTransposeMulti(x, y, block);
  if (!status.ok()) {
    std::fprintf(stderr, "ApplyTransposeMulti: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
}

// Picks an iteration count that keeps each (graph, B) cell around a fixed
// edge-traversal budget, so small graphs are timed over many repetitions
// and large ones over a few.
int ItersForBudget(uint64_t num_edges, uint32_t block) {
  constexpr uint64_t kEdgeBudget = 40'000'000;
  const uint64_t per_iter = num_edges * block;
  return static_cast<int>(std::max<uint64_t>(4, kEdgeBudget / std::max<uint64_t>(1, per_iter)));
}

SpmmRow RunCell(const NamedGraph& named, const TransitionOperator& op,
                uint32_t block) {
  const uint32_t n = named.graph.num_nodes();
  const uint64_t m = named.graph.num_edges();
  const int iters = ItersForBudget(m, block);

  Rng rng(17 + block);
  std::vector<double> x(static_cast<size_t>(n) * block);
  for (double& v : x) v = rng.NextDouble();

  // Solo baseline: B independent width-1 applies per iteration,
  // ping-ponged so the chain is data-dependent and the compiler cannot
  // hoist anything.
  std::vector<std::vector<double>> solo_x(block), solo_y(block);
  for (uint32_t j = 0; j < block; ++j) {
    solo_x[j].resize(n);
    for (uint32_t u = 0; u < n; ++u) {
      solo_x[j][u] = x[static_cast<size_t>(u) * block + j];
    }
    solo_y[j].resize(n);
  }
  Stopwatch solo_watch;
  for (int it = 0; it < iters; ++it) {
    for (uint32_t j = 0; j < block; ++j) {
      Apply(op, solo_x[j], &solo_y[j], 1);
      solo_x[j].swap(solo_y[j]);
    }
  }
  const double solo_seconds = solo_watch.ElapsedSeconds();

  // Fused: one blocked pass per iteration over the same lanes.
  std::vector<double> y(x.size());
  Stopwatch fused_watch;
  for (int it = 0; it < iters; ++it) {
    Apply(op, x, &y, block);
    x.swap(y);
  }
  const double fused_seconds = fused_watch.ElapsedSeconds();

  SpmmRow row;
  row.graph = named.name;
  row.num_nodes = n;
  row.num_edges = m;
  row.block = block;
  row.iters = iters;
  row.solo_seconds = solo_seconds;
  row.fused_seconds = fused_seconds;
  const double traversed =
      static_cast<double>(m) * iters;  // per lane, both sides
  row.solo_edges_per_sec_per_query =
      traversed / (solo_seconds / block);
  row.fused_edges_per_sec_per_query =
      traversed / (fused_seconds / block);
  row.speedup = solo_seconds / fused_seconds;
  return row;
}

using FusedSolve = Result<std::vector<PmpnLaneResult>> (*)(
    const TransitionOperator&, const std::vector<PmpnLaneSpec>&,
    const RwrOptions&, ThreadPool*, int);
using SoloSolve = Result<std::vector<double>> (*)(const TransitionOperator&,
                                                  uint32_t, const RwrOptions&,
                                                  IterativeSolveStats*);

Result<std::vector<double>> SoloPmpn(const TransitionOperator& op, uint32_t q,
                                     const RwrOptions& options,
                                     IterativeSolveStats* stats) {
  return ComputeProximityToNode(op, q, options, stats);
}

// Times `lanes` through one fused call against one solo solve per lane.
SolverRow RunSolver(const NamedGraph& named, const TransitionOperator& op,
                    const std::vector<PmpnLaneSpec>& lanes, FusedSolve fused_fn,
                    SoloSolve solo_fn) {
  const size_t width = lanes.size();
  SolverRow row;
  row.graph = named.name;
  row.lanes = static_cast<uint32_t>(width);
  row.solo_seconds = row.fused_seconds = 1e300;
  std::vector<PmpnLaneResult> fused;
  std::vector<std::vector<double>> solo(width);
  std::vector<IterativeSolveStats> solo_stats(width);
  for (int rep = 0; rep < kSolverReps; ++rep) {
    Stopwatch solo_watch;
    for (size_t j = 0; j < width; ++j) {
      auto result = solo_fn(op, lanes[j].query, {}, &solo_stats[j]);
      if (!result.ok()) {
        std::fprintf(stderr, "solo solve: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      solo[j] = std::move(*result);
    }
    row.solo_seconds = std::min(row.solo_seconds, solo_watch.ElapsedSeconds());

    Stopwatch fused_watch;
    auto result = fused_fn(op, lanes, {}, nullptr, 0);
    row.fused_seconds =
        std::min(row.fused_seconds, fused_watch.ElapsedSeconds());
    if (!result.ok()) {
      std::fprintf(stderr, "fused solve: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    fused = std::move(*result);
  }
  row.speedup = row.solo_seconds / row.fused_seconds;

  // A lane converging at iteration t took part in passes 1..t, so the
  // block width of pass p is the number of lanes with t >= p.
  int max_iterations = 0;
  for (size_t j = 0; j < width; ++j) {
    if (fused[j].row != solo[j] ||
        fused[j].stats.iterations != solo_stats[j].iterations) {
      std::fprintf(stderr, "FATAL: fused lane %zu differs from its solo solve\n",
                   j);
      std::exit(1);
    }
    row.lane_iterations += fused[j].stats.iterations;
    max_iterations = std::max(max_iterations, fused[j].stats.iterations);
  }
  row.passes_at_width.assign(width, 0);
  for (int pass = 1; pass <= max_iterations; ++pass) {
    uint32_t lanes_in_pass = 0;
    for (const PmpnLaneResult& lane : fused) {
      if (lane.stats.iterations >= pass) ++lanes_in_pass;
    }
    ++row.passes_at_width[lanes_in_pass - 1];
  }
  return row;
}

SolverRow RunPmpnSolver(const NamedGraph& named, const TransitionOperator& op) {
  const uint32_t n = named.graph.num_nodes();
  Rng rng(29);
  std::vector<PmpnLaneSpec> lanes;
  for (uint32_t j = 0; j < kSolverLanes; ++j) {
    lanes.push_back({static_cast<uint32_t>(rng.Uniform(n)), nullptr});
  }
  return RunSolver(named, op, lanes, &ComputeProximityToNodesFused, &SoloPmpn);
}

// The graph's first 16 hubs under the serving engine's hub budget: the
// index build's first lane block.
SolverRow RunForwardSolver(const NamedGraph& named,
                           const TransitionOperator& op) {
  const uint32_t n = named.graph.num_nodes();
  auto hubs = SelectHubs(named.graph, {.degree_budget_b = n / 50 + 1});
  if (!hubs.ok() || hubs->size() < kSolverLanes) {
    std::fprintf(stderr, "hub selection on %s gave too few hubs\n",
                 named.name.c_str());
    std::exit(1);
  }
  std::vector<PmpnLaneSpec> lanes;
  for (uint32_t j = 0; j < kSolverLanes; ++j) {
    lanes.push_back({(*hubs)[j], nullptr});
  }
  return RunSolver(named, op, lanes, &ComputeProximityColumnsFused,
                   &ComputeProximityColumn);
}

void PrintSolverRow(const char* what, const SolverRow& solver) {
  long long passes = 0;
  for (long long p : solver.passes_at_width) passes += p;
  std::printf(
      "%s, %u lanes: solo %.2f ms, fused %.2f ms, speedup %.2fx; %lld "
      "passes, mean width %.1f\n",
      what, solver.lanes, solver.solo_seconds * 1e3,
      solver.fused_seconds * 1e3, solver.speedup, passes,
      static_cast<double>(solver.lane_iterations) /
          static_cast<double>(passes));
  std::printf("  passes at width:");
  for (uint32_t w = 1; w <= solver.lanes; ++w) {
    std::printf(" %u:%lld", w, solver.passes_at_width[w - 1]);
  }
  std::printf("\n");
}

void WriteSolverRows(JsonWriter* json, const char* key,
                     const std::vector<SolverRow>& rows) {
  json->Key(key).BeginArray();
  for (const SolverRow& row : rows) {
    json->BeginObject();
    json->Key("graph").String(row.graph);
    json->Key("lanes").Int(row.lanes);
    json->Key("solo_seconds").Double(row.solo_seconds);
    json->Key("fused_seconds").Double(row.fused_seconds);
    json->Key("speedup").Double(row.speedup);
    json->Key("lane_iterations").Int(row.lane_iterations);
    json->Key("passes_at_width").BeginArray();
    for (long long passes : row.passes_at_width) json->Int(passes);
    json->EndArray();
    json->EndObject();
  }
  json->EndArray();
}

void WriteJson(const std::string& path, const std::vector<SpmmRow>& rows,
               const std::vector<SolverRow>& solver_rows,
               const std::vector<SolverRow>& forward_rows) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("micro_spmm");
  json.Key("rows").BeginArray();
  for (const SpmmRow& row : rows) {
    json.BeginObject();
    json.Key("graph").String(row.graph);
    json.Key("num_nodes").Int(row.num_nodes);
    json.Key("num_edges").Int(static_cast<long long>(row.num_edges));
    json.Key("block").Int(row.block);
    json.Key("iters").Int(row.iters);
    json.Key("solo_seconds").Double(row.solo_seconds);
    json.Key("fused_seconds").Double(row.fused_seconds);
    json.Key("solo_edges_per_sec_per_query")
        .Double(row.solo_edges_per_sec_per_query);
    json.Key("fused_edges_per_sec_per_query")
        .Double(row.fused_edges_per_sec_per_query);
    json.Key("speedup").Double(row.speedup);
    json.EndObject();
  }
  json.EndArray();
  WriteSolverRows(&json, "solver_rows", solver_rows);
  WriteSolverRows(&json, "forward_rows", forward_rows);
  json.EndObject();
  if (!json.WriteTo(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("json written to %s\n", path.c_str());
}

}  // namespace
}  // namespace rtk::bench

int main(int argc, char** argv) {
  using namespace rtk::bench;
  PrintHeader(
      "Fused solves: SpMM kernel at every width, and the 16-lane PMPN and "
      "forward solvers",
      "edges/sec per query = per-lane edge-traversal rate, serial kernels; "
      "speedup = solo seconds / fused seconds at equal work");
  const std::string json_path = JsonPathArg(argc, argv);
  std::vector<uint32_t> blocks;
  for (uint32_t block = 1; block <= 16; ++block) blocks.push_back(block);
  blocks.push_back(24);
  blocks.push_back(32);

  std::vector<SpmmRow> rows;
  std::vector<SolverRow> solver_rows;
  std::vector<SolverRow> forward_rows;
  for (auto& named : MakeGraphSuite()) {
    rtk::TransitionOperator op(named.graph);
    std::printf("\n%s: n=%u m=%llu\n", named.name.c_str(),
                named.graph.num_nodes(),
                static_cast<unsigned long long>(named.graph.num_edges()));
    std::printf("%6s %7s %16s %16s %9s\n", "B", "iters", "solo Medge/s/q",
                "fused Medge/s/q", "speedup");
    for (uint32_t block : blocks) {
      const SpmmRow row = RunCell(named, op, block);
      std::printf("%6u %7d %16.1f %16.1f %8.2fx\n", row.block, row.iters,
                  row.solo_edges_per_sec_per_query / 1e6,
                  row.fused_edges_per_sec_per_query / 1e6, row.speedup);
      rows.push_back(row);
    }
    solver_rows.push_back(RunPmpnSolver(named, op));
    PrintSolverRow("pmpn solver, uniform queries", solver_rows.back());
    forward_rows.push_back(RunForwardSolver(named, op));
    PrintSolverRow("forward solver, hubs", forward_rows.back());
  }
  if (!json_path.empty()) {
    WriteJson(json_path, rows, solver_rows, forward_rows);
  }
  return 0;
}
