// Tests for the fused multi-query (SpMM) execution path, bottom to top:
//   1. kernel: ApplyTransposeMulti at every width 1..kMaxTransposeLanes is
//      bitwise equal to a plain scalar gather written here, serial and on
//      a pool; its preconditions fail with a Status in every build type;
//   2. solver: every lane of the fused multi-source PMPN, and the
//      single-source solve (its B = 1 lane), is bitwise equal to a plain
//      power-iteration loop written here — values, iteration counts,
//      converged flags, final deltas — including a batch whose lanes
//      retire one at a time (every width from 16 down to 1), iteration
//      caps and per-lane deadline/cancellation;
//   3. serving: a batched ServingEngine returns byte-identical responses
//      AND written-back index state to an unbatched one, at several batch
//      widths and thread counts (ci.sh runs this file under TSan);
//   4. queue: AdmissionQueue::PopUpTo pops in strict priority/FIFO order
//      under one lock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "exec/proximity_backends.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "rwr/pmpn.h"
#include "rwr/pmpn_multi.h"
#include "rwr/transition.h"
#include "serving/admission_queue.h"
#include "serving/serving_engine.h"

namespace rtk {
namespace {

Graph UnweightedTestGraph(uint64_t seed, uint32_t n = 200) {
  Rng rng(seed);
  auto graph = BarabasiAlbert(n, 3, &rng);
  EXPECT_TRUE(graph.ok());
  return std::move(*graph);
}

Graph WeightedTestGraph(uint64_t seed, uint32_t n = 120) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (int e = 0; e < 4; ++e) {
      uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
      if (v == u) v = (v + 1) % n;
      b.AddEdge(u, v, 0.25 + rng.NextDouble());
    }
  }
  auto graph = b.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(*graph);
}

// ---------------------------------------------------------------------------
// Independent references: the textbook loops, one vector at a time.

// y = A^T x: y[u] = (sum over u's out-edges (u, v), in CSR order, of
// w(u, v) * x[v]) * (1 / W(u)), the unweighted sum adding x[v] alone.
std::vector<double> ReferenceTranspose(const Graph& graph,
                                       const std::vector<double>& x) {
  std::vector<double> y(graph.num_nodes());
  for (uint32_t u = 0; u < graph.num_nodes(); ++u) {
    auto nbrs = graph.OutNeighbors(u);
    auto weights = graph.OutWeights(u);
    double acc = 0.0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      acc += weights.empty() ? x[nbrs[i]] : weights[i] * x[nbrs[i]];
    }
    y[u] = acc * (1.0 / graph.OutWeightSum(u));
  }
  return y;
}

struct ReferenceSolve {
  std::vector<double> row;
  IterativeSolveStats stats;
};

// Paper Algorithm 2 as written: x <- (1-alpha) A^T x + alpha e_q from
// x = e_q until the L1 step falls below epsilon; a capped solve reports
// max_iterations + 1 iterations.
ReferenceSolve ReferencePmpn(const Graph& graph, uint32_t q,
                             const RwrOptions& options) {
  std::vector<double> x(graph.num_nodes(), 0.0);
  x[q] = 1.0;
  ReferenceSolve out;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    std::vector<double> next = ReferenceTranspose(graph, x);
    for (double& v : next) v *= (1.0 - options.alpha);
    next[q] += options.alpha;
    double delta = 0.0;
    for (size_t i = 0; i < next.size(); ++i) delta += std::abs(next[i] - x[i]);
    x.swap(next);
    out.stats.final_delta = delta;
    if (delta < options.epsilon) {
      out.stats.iterations = iter;
      out.stats.converged = true;
      out.row = std::move(x);
      return out;
    }
  }
  out.stats.iterations = options.max_iterations + 1;
  out.row = std::move(x);
  return out;
}

void ExpectSolveEqualsReference(const std::vector<double>& row,
                                const IterativeSolveStats& stats,
                                const ReferenceSolve& expected, uint32_t q) {
  ASSERT_EQ(row.size(), expected.row.size()) << "q=" << q;
  for (size_t u = 0; u < row.size(); ++u) {
    ASSERT_EQ(row[u], expected.row[u]) << "q=" << q << " u=" << u;
  }
  EXPECT_EQ(stats.iterations, expected.stats.iterations) << "q=" << q;
  EXPECT_EQ(stats.converged, expected.stats.converged) << "q=" << q;
  EXPECT_EQ(stats.final_delta, expected.stats.final_delta) << "q=" << q;
}

// ---------------------------------------------------------------------------
// 1. Kernel: fused SpMM == the scalar reference per lane, bitwise, at every
//    width and thread count.

void CheckKernelBitwise(const Graph& graph) {
  TransitionOperator op(graph);
  const uint32_t n = graph.num_nodes();
  Rng rng(99);
  ThreadPool pool(4);
  struct Config {
    ThreadPool* pool;
    int max_parallelism;
  };
  // Serial, whole pool, and a capped-width parallel run.
  const Config configs[] = {{nullptr, 1}, {&pool, 0}, {&pool, 3}};

  for (uint32_t block = 1; block <= kMaxTransposeLanes; ++block) {
    // Lane-interleaved input, plus each lane's reference output.
    std::vector<double> x(static_cast<size_t>(n) * block);
    for (double& v : x) v = rng.NextDouble();
    std::vector<std::vector<double>> expected(block);
    for (uint32_t j = 0; j < block; ++j) {
      std::vector<double> xj(n);
      for (uint32_t u = 0; u < n; ++u) {
        xj[u] = x[static_cast<size_t>(u) * block + j];
      }
      expected[j] = ReferenceTranspose(graph, xj);
    }
    for (const Config& config : configs) {
      std::vector<double> y(static_cast<size_t>(n) * block, -1.0);
      ASSERT_TRUE(op.ApplyTransposeMulti(x, &y, block, config.pool,
                                         config.max_parallelism)
                      .ok());
      for (uint32_t j = 0; j < block; ++j) {
        for (uint32_t u = 0; u < n; ++u) {
          ASSERT_EQ(y[static_cast<size_t>(u) * block + j], expected[j][u])
              << "block=" << block << " lane=" << j << " u=" << u
              << " threads=" << config.max_parallelism;
        }
      }
    }
  }
}

TEST(SpmmKernelTest, EveryWidthBitwiseEqualToReferenceUnweighted) {
  CheckKernelBitwise(UnweightedTestGraph(1));
}

TEST(SpmmKernelTest, EveryWidthBitwiseEqualToReferenceWeighted) {
  CheckKernelBitwise(WeightedTestGraph(2));
}

TEST(SpmmKernelTest, RejectsBadBlocksAndOperandsInEveryBuild) {
  const Graph graph = UnweightedTestGraph(7, 50);
  TransitionOperator op(graph);
  const size_t n = graph.num_nodes();
  const size_t wide = n * (kMaxTransposeLanes + 1);
  std::vector<double> x(wide, 1.0);
  std::vector<double> y(wide, -1.0);
  for (uint32_t block : {0u, kMaxTransposeLanes + 1, 1000u}) {
    const Status status = op.ApplyTransposeMulti(x, &y, block);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << block;
  }
  std::vector<double> short_x(n * 4 - 1, 1.0), short_y(n * 4 - 1, -1.0);
  EXPECT_EQ(op.ApplyTransposeMulti(short_x, &y, 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(op.ApplyTransposeMulti(x, &short_y, 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(op.ApplyTransposeMulti(x, &x, 4).code(),
            StatusCode::kInvalidArgument);
  // A rejected call writes nothing.
  EXPECT_TRUE(std::all_of(y.begin(), y.end(), [](double v) { return v == -1.0; }));
  EXPECT_TRUE(std::all_of(short_y.begin(), short_y.end(),
                          [](double v) { return v == -1.0; }));
  // The widest legal block, with operands longer than n * block, works.
  EXPECT_TRUE(op.ApplyTransposeMulti(x, &y, kMaxTransposeLanes).ok());
}

// ---------------------------------------------------------------------------
// 2. Solver: every fused lane and the single-source solve == the reference
//    power iteration, bitwise.

void CheckFusedSolver(const Graph& graph, const std::vector<uint32_t>& queries,
                      const RwrOptions& options, ThreadPool* pool,
                      int max_parallelism) {
  TransitionOperator op(graph);
  std::vector<PmpnLaneSpec> lanes;
  lanes.reserve(queries.size());
  for (uint32_t q : queries) lanes.push_back({q, nullptr});
  auto fused =
      ComputeProximityToNodesFused(op, lanes, options, pool, max_parallelism);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const ReferenceSolve expected = ReferencePmpn(graph, queries[i], options);
    const PmpnLaneResult& lane = (*fused)[i];
    ASSERT_TRUE(lane.status.ok()) << lane.status.ToString();
    ExpectSolveEqualsReference(lane.row, lane.stats, expected, queries[i]);

    IterativeSolveStats solo_stats;
    auto solo = ComputeProximityToNode(op, queries[i], options, &solo_stats,
                                       pool, max_parallelism);
    ASSERT_TRUE(solo.ok());
    ExpectSolveEqualsReference(*solo, solo_stats, expected, queries[i]);
  }
}

TEST(PmpnMultiTest, MatchesReferenceAcrossWidthsAndThreads) {
  const Graph graph = UnweightedTestGraph(3);
  RwrOptions options;
  options.epsilon = 1e-9;  // converge quickly but over many iterations
  ThreadPool pool(4);
  // Mixed-degree queries converge at different iterations, exercising
  // compact-on-converge through many intermediate widths.
  std::vector<uint32_t> queries;
  for (uint32_t i = 0; i < 40; ++i) {  // > kMaxTransposeLanes: two groups
    queries.push_back((i * 37) % graph.num_nodes());
  }
  CheckFusedSolver(graph, queries, options, nullptr, 1);
  CheckFusedSolver(graph, queries, options, &pool, 0);
  CheckFusedSolver(graph, queries, options, &pool, 2);
}

TEST(PmpnMultiTest, WeightedGraphAndDuplicateQueries) {
  const Graph graph = WeightedTestGraph(4);
  RwrOptions options;
  options.epsilon = 1e-8;
  ThreadPool pool(3);
  const std::vector<uint32_t> queries = {5, 5, 17, 5, 93, 17, 0};
  CheckFusedSolver(graph, queries, options, nullptr, 1);
  CheckFusedSolver(graph, queries, options, &pool, 0);
}

// A weighted chain 0 -> 1 -> ... -> 19 with skip edges u -> u + 2, its
// end draining into the builder's sink, fed from a 2-cycle {20, 21} by an
// edge of negligible weight into node 0. The longest chain path into node i
// has i edges, so the chain's share of its row is exact after i + 1
// iterations and the reference converges at iteration i + 2 on a tiny but
// nonzero delta from the cycle: every chain node has its own schedule.
Graph ChainGraph() {
  constexpr uint32_t kChain = 20;
  Rng rng(8);
  GraphBuilder b(kChain + 2);
  for (uint32_t u = 0; u + 1 < kChain; ++u) {
    b.AddEdge(u, u + 1, 0.5 + rng.NextDouble());
    if (u + 2 < kChain) b.AddEdge(u, u + 2, 0.25 + rng.NextDouble());
  }
  b.AddEdge(kChain, kChain + 1, 1.0);
  b.AddEdge(kChain + 1, kChain, 1.0);
  b.AddEdge(kChain, 0, 1e-12);
  auto graph = b.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(*graph);
}

TEST(PmpnMultiTest, LanesRetiringOneAtATimeVisitEveryWidth) {
  // Sixteen lanes with sixteen distinct reference schedules: the block
  // retires one lane per convergence, so it runs at every width from 16
  // down to 1. The lanes are scrambled so retirements come from every
  // block position, and every lane must still match the reference.
  const Graph graph = ChainGraph();
  const RwrOptions options;  // epsilon 1e-10
  std::vector<uint32_t> queries;
  for (uint32_t i = 0; i < 16; ++i) queries.push_back((i * 7) % 16);
  std::set<int> schedules;
  for (uint32_t q : queries) {
    const ReferenceSolve expected = ReferencePmpn(graph, q, options);
    ASSERT_TRUE(expected.stats.converged);
    ASSERT_GT(expected.stats.final_delta, 0.0);
    schedules.insert(expected.stats.iterations);
  }
  ASSERT_EQ(schedules.size(), queries.size());
  ThreadPool pool(3);
  CheckFusedSolver(graph, queries, options, nullptr, 1);
  CheckFusedSolver(graph, queries, options, &pool, 0);
}

TEST(PmpnMultiTest, IterationCapReportsLikeReference) {
  const Graph graph = UnweightedTestGraph(5, 80);
  RwrOptions options;
  options.epsilon = 1e-14;    // unreachable within the cap below
  options.max_iterations = 6;  // every lane hits the cap
  CheckFusedSolver(graph, {1, 2, 3, 4}, options, nullptr, 1);
}

TEST(PmpnMultiTest, RejectsBadOptionsAndQueries) {
  const Graph graph = UnweightedTestGraph(9, 40);
  TransitionOperator op(graph);
  RwrOptions bad_alpha;
  bad_alpha.alpha = 1.0;
  RwrOptions bad_epsilon;
  bad_epsilon.epsilon = 0.0;
  RwrOptions bad_cap;
  bad_cap.max_iterations = 0;
  for (const RwrOptions& options : {bad_alpha, bad_epsilon, bad_cap}) {
    const Status expected = ValidateRwrOptions(options);
    ASSERT_FALSE(expected.ok());
    auto fused = ComputeProximityToNodesFused(op, {{1, nullptr}}, options);
    ASSERT_FALSE(fused.ok());
    EXPECT_EQ(fused.status().ToString(), expected.ToString());
    auto solo = ComputeProximityToNode(op, 1, options);
    ASSERT_FALSE(solo.ok());
    EXPECT_EQ(solo.status().ToString(), expected.ToString());
  }
  EXPECT_EQ(ComputeProximityToNode(op, graph.num_nodes()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PmpnMultiTest, TrippedLaneMasksOnlyItsOwnColumn) {
  const Graph graph = UnweightedTestGraph(6);
  TransitionOperator op(graph);
  RwrOptions options;
  options.epsilon = 1e-9;

  // Lane 1 carries an already-expired deadline; lane 2 a pre-cancelled
  // token. Both must come back aborted while lanes 0 and 3 are bitwise
  // equal to the reference.
  const ExecControl expired{SteadyClock::now() - std::chrono::seconds(1),
                            CancellationToken()};
  CancellationToken cancelled = CancellationToken::Cancellable();
  cancelled.RequestCancel();
  const ExecControl cancelled_control{kNoDeadline, cancelled};

  std::vector<PmpnLaneSpec> lanes = {{3, nullptr},
                                     {11, &expired},
                                     {23, &cancelled_control},
                                     {42, nullptr}};
  auto fused = ComputeProximityToNodesFused(op, lanes, options);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ((*fused)[1].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE((*fused)[1].row.empty());
  EXPECT_EQ((*fused)[2].status.code(), StatusCode::kCancelled);
  EXPECT_TRUE((*fused)[2].row.empty());
  for (size_t i : {size_t{0}, size_t{3}}) {
    ASSERT_TRUE((*fused)[i].status.ok());
    ExpectSolveEqualsReference(
        (*fused)[i].row, (*fused)[i].stats,
        ReferencePmpn(graph, lanes[i].query, options), lanes[i].query);
  }
}

// ---------------------------------------------------------------------------
// 3. Serving: batched == unbatched, byte for byte (responses and the
//    refined index state). ci.sh also runs this under TSan.

EngineOptions CoarseOptions() {
  EngineOptions opts;
  opts.capacity_k = 20;
  opts.hub_selection.degree_budget_b = 5;
  opts.bca.delta = 0.5;  // coarse bounds force real refinement write-back
  opts.num_threads = 2;
  opts.shard_nodes = 32;
  return opts;
}

Result<std::unique_ptr<ReverseTopkEngine>> BuildTestEngine(uint64_t seed) {
  Rng rng(seed);
  auto graph = BarabasiAlbert(250, 3, &rng);
  if (!graph.ok()) return graph.status();
  return ReverseTopkEngine::Build(std::move(*graph), CoarseOptions());
}

std::vector<QueryRequest> MakeWorkload(uint32_t n, size_t count) {
  std::vector<QueryRequest> requests;
  Rng rng(77);
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request;
    request.query = static_cast<uint32_t>(rng.Uniform(n));
    request.k = 5 + static_cast<uint32_t>(rng.Uniform(10));
    request.update_index = true;
    request.bypass_cache = true;  // every request must really execute
    // Mixed priorities: the batch former must preserve priority order.
    request.priority = (i % 3 == 0) ? RequestPriority::kInteractive
                                    : RequestPriority::kStandard;
    requests.push_back(request);
  }
  return requests;
}

struct ServedRun {
  std::vector<QueryResponse> responses;
  std::vector<std::vector<double>> bounds;    // per node, K lower bounds
  std::vector<double> residues;               // per node
  ServingStats stats;
  MetricsSnapshot metrics;
};

// Builds a fresh engine from `engine_seed` (so successive runs never see
// each other's refinement write-back), pauses dispatch, enqueues the whole
// workload, releases it, then flushes all refinement into one published
// epoch and snapshots the index state.
ServedRun RunWorkload(uint64_t engine_seed, ServingOptions options,
                      const std::vector<QueryRequest>& workload) {
  auto engine = BuildTestEngine(engine_seed);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  options.publish_threshold = 0;  // single explicit publish at the end
  options.cache.capacity = 0;
  auto serving = ServingEngine::Create(**engine, options);
  EXPECT_TRUE(serving.ok());
  (*serving)->Pause();
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(workload.size());
  for (const QueryRequest& request : workload) {
    futures.push_back((*serving)->Submit(request));
  }
  (*serving)->Resume();
  ServedRun run;
  for (auto& future : futures) run.responses.push_back(future.get());
  (*serving)->PublishPending();
  const auto snap = (*serving)->snapshot();
  const LowerBoundIndex& index = snap->index();
  const uint32_t n = (*engine)->graph().num_nodes();
  for (uint32_t u = 0; u < n; ++u) {
    auto bounds = index.LowerBounds(u);
    run.bounds.emplace_back(bounds.begin(), bounds.end());
    run.residues.push_back(index.ResidueL1(u));
  }
  run.stats = (*serving)->stats();
  run.metrics = (*serving)->Metrics();
  return run;
}

void ExpectIdenticalRuns(const ServedRun& a, const ServedRun& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < a.responses.size(); ++i) {
    const QueryResponse& ra = a.responses[i];
    const QueryResponse& rb = b.responses[i];
    ASSERT_EQ(ra.status.code(), rb.status.code()) << "i=" << i;
    ASSERT_EQ(ra.results, rb.results) << "i=" << i;
    EXPECT_EQ(ra.stats.pmpn_iterations, rb.stats.pmpn_iterations) << i;
    EXPECT_EQ(ra.stats.candidates, rb.stats.candidates) << i;
    EXPECT_EQ(ra.stats.refined_nodes, rb.stats.refined_nodes) << i;
  }
  ASSERT_EQ(a.bounds, b.bounds);
  ASSERT_EQ(a.residues, b.residues);
}

TEST(BatchedServingTest, ByteIdenticalToUnbatchedAcrossWidthsAndThreads) {
  constexpr uint64_t kSeed = 21;
  // 250-node BarabasiAlbert graphs: every generated query id is in range.
  const std::vector<QueryRequest> workload = MakeWorkload(250, 48);

  ServingOptions unbatched;
  unbatched.num_threads = 4;
  const ServedRun baseline = RunWorkload(kSeed, unbatched, workload);
  // Sanity: the workload actually refines (otherwise the index-state
  // comparison below would be vacuous), and the unbatched engine never
  // forms batches.
  EXPECT_GT(baseline.stats.deltas_applied, 0u);
  EXPECT_EQ(baseline.stats.batches, 0u);

  // Every name of the PMPN backend fuses: the default, "pmpn" and the
  // "batched-pmpn" alias.
  for (std::string_view name :
       {std::string_view(), kPmpnBackendName, kBatchedPmpnBackendName}) {
    for (size_t max_batch : {size_t{4}, size_t{16}, size_t{64}}) {
      for (int threads : {2, 4}) {
        ServingOptions batched;
        batched.num_threads = threads;
        batched.max_batch = max_batch;
        batched.batch_window = 0.002;
        batched.exact_tier_backend.name = std::string(name);
        batched.approximate_tier_backend.name = std::string(name);
        const ServedRun run = RunWorkload(kSeed, batched, workload);
        ExpectIdenticalRuns(baseline, run);
        EXPECT_GT(run.stats.batches, 0u) << "backend \"" << name << "\"";
      }
    }
  }
  // And with intra-query parallelism on top of batching.
  ServingOptions wide;
  wide.num_threads = 4;
  wide.max_batch = 8;
  wide.query.num_threads = 0;  // whole pool per fused solve / stage
  ExpectIdenticalRuns(baseline, RunWorkload(kSeed, wide, workload));
}

TEST(BatchedServingTest, BatchesFormAndOccupancyIsObservable) {
  // A paused engine with one worker and the whole backlog released at once
  // must form at least one real multi-query batch, and the occupancy
  // counters must account for every batched request.
  ServingOptions options;
  options.num_threads = 1;
  options.max_batch = 16;
  const ServedRun run = RunWorkload(22, options, MakeWorkload(250, 32));
  for (const QueryResponse& response : run.responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  EXPECT_GT(run.stats.batches, 0u);
  EXPECT_GT(run.stats.batched_queries, run.stats.batches);
  EXPECT_GE(run.stats.peak_batch_size, 2u);
  EXPECT_LE(run.stats.peak_batch_size, options.max_batch);
  // Batched answers report the one PMPN backend, and its latency series
  // is the only one they land in.
  for (const QueryResponse& response : run.responses) {
    EXPECT_EQ(response.backend, kPmpnBackendName);
  }
  const HistogramSnapshot* pmpn_latency =
      run.metrics.HistogramOf("rtk_serving_request_backend_pmpn_seconds");
  ASSERT_NE(pmpn_latency, nullptr);
  EXPECT_EQ(pmpn_latency->count, run.responses.size());
  EXPECT_EQ(run.metrics.ToPrometheusText().find("batched_pmpn"),
            std::string::npos);
}

TEST(BatchedServingTest, AbortedRequestMasksOnlyItsOwnLane) {
  constexpr uint64_t kSeed = 23;

  // Baseline answers from a plain unbatched engine.
  ServingOptions unbatched;
  unbatched.num_threads = 2;
  std::vector<QueryRequest> plain = MakeWorkload(250, 8);
  const ServedRun baseline = RunWorkload(kSeed, unbatched, plain);

  // Same workload through a batched engine (fresh, same seed), with one
  // pre-cancelled and one already-expired request spliced into the middle
  // of the batch.
  auto engine = BuildTestEngine(kSeed);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServingOptions batched;
  batched.num_threads = 2;
  batched.max_batch = 16;
  batched.publish_threshold = 0;
  batched.cache.capacity = 0;
  auto serving = ServingEngine::Create(**engine, batched);
  ASSERT_TRUE(serving.ok());
  (*serving)->Pause();
  // Both doomed requests are healthy at Submit time (so the submit-thread
  // fast path admits them into the queue) and tripped before Resume, so
  // they reach the batch former as poisoned lanes.
  CancellationToken cancelled = CancellationToken::Cancellable();
  std::vector<std::future<QueryResponse>> futures;
  for (size_t i = 0; i < plain.size(); ++i) {
    futures.push_back((*serving)->Submit(plain[i]));
    if (i == 3) {
      QueryRequest doomed = plain[0];
      doomed.cancel = cancelled;
      futures.push_back((*serving)->Submit(doomed));
      QueryRequest expiring = plain[1];
      expiring.deadline = SteadyClock::now() + std::chrono::milliseconds(10);
      futures.push_back((*serving)->Submit(expiring));
    }
  }
  cancelled.RequestCancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*serving)->Resume();
  std::vector<QueryResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());

  // The two doomed requests aborted with their own codes...
  EXPECT_EQ(responses[4].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(responses[5].status.code(), StatusCode::kDeadlineExceeded);
  // ...and every healthy batch-mate still got the exact answer.
  size_t bi = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i == 4 || i == 5) continue;
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_EQ(responses[i].results, baseline.responses[bi].results);
    ++bi;
  }
}

TEST(BatchedServingTest, UnfusedRequestsRunSideBySide) {
  // One dispatch ticket pops the whole backlog, so the other workers'
  // tickets find the queue empty: requests the former does not fuse (here
  // a local-push tier) must still spread over the pool. Each callback
  // waits, bounded, until a second one has arrived, so the check does not
  // depend on request cost — run one after another, the first callback
  // times out alone and all four share one thread.
  std::mutex mu;
  std::condition_variable arrived;
  size_t callbacks = 0;
  std::set<std::thread::id> threads;

  auto engine = BuildTestEngine(24);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServingOptions options;
  options.num_threads = 4;
  options.max_batch = 16;
  options.approximate_tier_backend.name = std::string(kLocalPushBackendName);
  auto serving = ServingEngine::Create(**engine, options);
  ASSERT_TRUE(serving.ok());
  (*serving)->Pause();
  for (uint32_t q : {3u, 40u, 77u, 120u}) {
    QueryRequest request;
    request.query = q;
    request.k = 5;
    request.tier = AccuracyTier::kApproximateHitsOnly;
    (*serving)->Submit(std::move(request), [&](QueryResponse response) {
      EXPECT_TRUE(response.ok()) << response.status.ToString();
      std::unique_lock<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
      ++callbacks;
      arrived.notify_all();
      arrived.wait_for(lock, std::chrono::seconds(5),
                       [&] { return callbacks >= 2; });
    });
  }
  (*serving)->Resume();
  std::unique_lock<std::mutex> lock(mu);
  arrived.wait(lock, [&] { return callbacks == 4; });
  EXPECT_GE(threads.size(), 2u);
  EXPECT_EQ((*serving)->stats().batches, 0u);
}

// ---------------------------------------------------------------------------
// 4. AdmissionQueue::PopUpTo

PendingQuery MakePending(uint32_t q, RequestPriority priority) {
  PendingQuery item;
  item.request.query = q;
  item.request.priority = priority;
  item.deliver = [](QueryResponse) {};
  return item;
}

TEST(AdmissionQueueTest, PopUpToDrainsInPriorityFifoOrder) {
  AdmissionQueue queue(/*capacity=*/0);
  PendingQuery items[] = {
      MakePending(0, RequestPriority::kBatch),
      MakePending(1, RequestPriority::kInteractive),
      MakePending(2, RequestPriority::kStandard),
      MakePending(3, RequestPriority::kInteractive),
      MakePending(4, RequestPriority::kBatch),
      MakePending(5, RequestPriority::kStandard),
  };
  for (PendingQuery& item : items) ASSERT_TRUE(queue.TryPush(item));

  // First pop: the three most urgent, in priority-then-FIFO order.
  std::vector<PendingQuery> first = queue.PopUpTo(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].request.query, 1u);
  EXPECT_EQ(first[1].request.query, 3u);
  EXPECT_EQ(first[2].request.query, 2u);
  EXPECT_EQ(queue.depth(), 3u);

  // Asking for more than remains drains the rest; counters line up.
  std::vector<PendingQuery> rest = queue.PopUpTo(100);
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].request.query, 5u);
  EXPECT_EQ(rest[1].request.query, 0u);
  EXPECT_EQ(rest[2].request.query, 4u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_TRUE(queue.PopUpTo(4).empty());
  const AdmissionQueueStats stats = queue.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.popped, 6u);
  EXPECT_EQ(stats.depth, 0u);
}

}  // namespace
}  // namespace rtk
