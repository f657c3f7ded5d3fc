// Tests for the typed async serving API: admission queue semantics
// (priority ordering, bounded-depth shedding), deadline expiry and
// cancellation at dispatch and inside the pipeline stages, and the
// equivalence guarantee — Submit with a default request is byte-identical
// (results AND post-query index state) to the legacy synchronous Query
// path. The concurrent submit stress at the bottom is part of the ci.sh
// TSan leg alongside serving_test.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "core/engine.h"
#include "exec/prune_stage.h"
#include "exec/refine_stage.h"
#include "graph/generators.h"
#include "rwr/pmpn.h"
#include "serving/admission_queue.h"
#include "serving/serving_engine.h"
#include "workload/query_workload.h"

namespace rtk {
namespace {

// Coarse options: a high BCA delta leaves large residues in the index, so
// queries must refine (deltas, publishes, long refine loops for the
// control checks to interrupt).
EngineOptions CoarseOptions() {
  EngineOptions opts;
  opts.capacity_k = 20;
  opts.hub_selection.degree_budget_b = 5;
  opts.bca.delta = 0.5;
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

QueryRequest MakeRequest(uint32_t q, uint32_t k,
                         RequestPriority priority = RequestPriority::kStandard) {
  QueryRequest request;
  request.query = q;
  request.k = k;
  request.priority = priority;
  return request;
}

void ExpectIndexStateIdentical(const LowerBoundIndex& a,
                               const LowerBoundIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (uint32_t s = 0; s < a.num_shards(); ++s) {
    const auto bounds_a = a.ShardLowerBounds(s);
    const auto bounds_b = b.ShardLowerBounds(s);
    ASSERT_EQ(bounds_a.size(), bounds_b.size());
    EXPECT_EQ(0, std::memcmp(bounds_a.data(), bounds_b.data(),
                             bounds_a.size() * sizeof(double)))
        << "lower-bound shard " << s << " diverged";
    const auto residues_a = a.ShardResidues(s);
    const auto residues_b = b.ShardResidues(s);
    ASSERT_EQ(residues_a.size(), residues_b.size());
    EXPECT_EQ(0, std::memcmp(residues_a.data(), residues_b.data(),
                             residues_a.size() * sizeof(double)))
        << "residue shard " << s << " diverged";
  }
  for (uint32_t u = 0; u < a.num_nodes(); ++u) {
    const StoredBcaState& state_a = a.State(u);
    const StoredBcaState& state_b = b.State(u);
    ASSERT_EQ(state_a.residue().ToPairs(),
              state_b.residue().ToPairs())
        << "u=" << u;
    ASSERT_EQ(state_a.retained().ToPairs(),
              state_b.retained().ToPairs())
        << "u=" << u;
    ASSERT_EQ(state_a.hub_ink().ToPairs(),
              state_b.hub_ink().ToPairs())
        << "u=" << u;
  }
}

// ---------------------------------------------------------------------------
// AdmissionQueue

TEST(AdmissionQueueTest, PriorityOrderThenFifoWithinClass) {
  AdmissionQueue queue(/*capacity=*/0);
  auto push = [&](uint32_t q, RequestPriority priority) {
    PendingQuery item;
    item.request = MakeRequest(q, 1, priority);
    item.deliver = [](QueryResponse) {};
    ASSERT_TRUE(queue.TryPush(item));
  };
  push(0, RequestPriority::kBatch);
  push(1, RequestPriority::kStandard);
  push(2, RequestPriority::kInteractive);
  push(3, RequestPriority::kBatch);
  push(4, RequestPriority::kInteractive);

  // PopUpTo(0) pops nothing: the dispatcher clamps max_batch to >= 1.
  EXPECT_TRUE(queue.PopUpTo(0).empty());
  EXPECT_EQ(queue.depth(), 5u);

  // One at a time, as a dispatch ticket pops at max_batch <= 1.
  std::vector<uint32_t> order;
  for (auto popped = queue.PopUpTo(1); !popped.empty();
       popped = queue.PopUpTo(1)) {
    ASSERT_EQ(popped.size(), 1u);
    order.push_back(popped[0].request.query);
  }
  EXPECT_EQ(order, (std::vector<uint32_t>{2, 4, 1, 0, 3}));
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueueTest, BoundedCapacityShedsAndPreservesItem) {
  AdmissionQueue queue(/*capacity=*/2);
  PendingQuery item;
  item.deliver = [](QueryResponse) {};
  item.request = MakeRequest(1, 1);
  ASSERT_TRUE(queue.TryPush(item));
  item.request = MakeRequest(2, 1);
  item.deliver = [](QueryResponse) {};
  ASSERT_TRUE(queue.TryPush(item));

  // Full: the push fails and the item must stay usable (the caller
  // delivers the shed response through it).
  bool delivered = false;
  item.request = MakeRequest(3, 1, RequestPriority::kInteractive);
  item.deliver = [&delivered](QueryResponse) { delivered = true; };
  EXPECT_FALSE(queue.TryPush(item));
  ASSERT_NE(item.deliver, nullptr);
  item.deliver(QueryResponse{});
  EXPECT_TRUE(delivered);

  const AdmissionQueueStats stats = queue.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.peak_depth, 2u);

  // Popping frees a slot.
  ASSERT_EQ(queue.PopUpTo(1).size(), 1u);
  item.request = MakeRequest(4, 1);
  item.deliver = [](QueryResponse) {};
  EXPECT_TRUE(queue.TryPush(item));
}

// ---------------------------------------------------------------------------
// Equivalence: Submit == legacy synchronous path

TEST(RequestSchedulerTest, SubmitMatchesLegacyQueryResultsAndIndexState) {
  auto engine = BuildTestEngine(17);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;  // one worker: deterministic delta order
  serving_opts.publish_threshold = 0;
  auto via_submit = ServingEngine::Create(**engine, serving_opts);
  auto via_query = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(via_submit.ok() && via_query.ok());

  const std::vector<uint32_t> workload = {4, 18, 99, 4, 150, 201, 18, 60};
  const uint32_t k = 8;
  for (uint32_t q : workload) {
    // Default-constructed request == legacy Query semantics.
    QueryResponse response = (*via_submit)->Submit(MakeRequest(q, k)).get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    auto legacy = (*via_query)->Query(q, k);
    ASSERT_TRUE(legacy.ok());
    EXPECT_EQ(response.results, *legacy) << "q=" << q;
    EXPECT_EQ(response.query, q);
    EXPECT_EQ(response.k, k);
  }

  // Both engines saw identical refinement: publishing must produce
  // byte-identical snapshots (same epoch, same every-shard contents).
  const uint64_t applied_submit = (*via_submit)->PublishPending();
  const uint64_t applied_query = (*via_query)->PublishPending();
  EXPECT_EQ(applied_submit, applied_query);
  EXPECT_GT(applied_submit, 0u) << "coarse index should force refinement";
  EXPECT_EQ((*via_submit)->epoch(), (*via_query)->epoch());
  ExpectIndexStateIdentical((*via_submit)->snapshot()->index(),
                            (*via_query)->snapshot()->index());

  const ServingStats stats = (*via_submit)->stats();
  EXPECT_EQ(stats.submitted, workload.size());
  EXPECT_EQ(stats.queries, workload.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(RequestSchedulerTest, ApproximateTierMatchesSerialApproximateOptions) {
  auto engine = BuildTestEngine(29);
  ASSERT_TRUE(engine.ok());
  auto serving = ServingEngine::Create(**engine, {.num_threads = 2});
  ASSERT_TRUE(serving.ok());

  for (uint32_t q : {5u, 77u, 142u}) {
    QueryRequest request = MakeRequest(q, 10);
    request.tier = AccuracyTier::kApproximateHitsOnly;
    QueryResponse approx = (*serving)->Submit(request).get();
    ASSERT_TRUE(approx.ok()) << approx.status.ToString();

    QueryOptions serial_opts;
    serial_opts.k = 10;
    serial_opts.approximate_hits_only = true;
    serial_opts.update_index = false;
    auto serial = (*engine)->QueryWithOptions(q, serial_opts);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(approx.results, *serial) << "q=" << q;

    // The approximate answer is a subset of the exact one.
    QueryResponse exact = (*serving)->Submit(MakeRequest(q, 10)).get();
    ASSERT_TRUE(exact.ok());
    for (uint32_t u : approx.results) {
      EXPECT_TRUE(std::find(exact.results.begin(), exact.results.end(), u) !=
                  exact.results.end())
          << "approximate hit " << u << " missing from exact result";
    }
  }
  // Approximate responses never touch the (q, k, epoch) cache.
  EXPECT_EQ((*serving)->stats().cache.insertions, 3u)
      << "only the exact-tier responses may be cached";
}

TEST(RequestSchedulerTest, BypassCacheAndReadOnlyRequests) {
  auto engine = BuildTestEngine(31);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.publish_threshold = 0;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  QueryRequest read_only = MakeRequest(12, 8);
  read_only.bypass_cache = true;
  read_only.update_index = false;
  QueryResponse first = (*serving)->Submit(read_only).get();
  QueryResponse second = (*serving)->Submit(read_only).get();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.results, second.results);
  EXPECT_FALSE(second.cache_hit) << "bypass_cache must skip the lookup";

  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache.insertions, 0u);
  EXPECT_EQ(stats.pending_deltas, 0u)
      << "update_index=false must leave no refinement trace";
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation

TEST(RequestSchedulerTest, ExpiredDeadlineIsShedAtDispatch) {
  auto engine = BuildTestEngine(43);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.publish_threshold = 0;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  QueryRequest request = MakeRequest(9, 8);
  request.deadline = SteadyClock::now() - std::chrono::milliseconds(1);
  QueryResponse response = (*serving)->Submit(request).get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.results.empty());

  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.pending_deltas, 0u) << "an expired request must not run";
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST(RequestSchedulerTest, CancelledBeforeDispatchNeverRuns) {
  auto engine = BuildTestEngine(47);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.publish_threshold = 0;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  CancellationToken token = CancellationToken::Cancellable();
  QueryRequest request = MakeRequest(9, 8);
  request.cancel = token;
  (*serving)->Pause();  // hold dispatch so the cancel deterministically wins
  std::future<QueryResponse> future = (*serving)->Submit(request);
  token.RequestCancel();
  (*serving)->Resume();
  QueryResponse response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);

  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.pending_deltas, 0u);
}

// The stage-level controls: a tripped ExecControl aborts the prune scan
// between shards and the refine loop between candidates (and inside a
// candidate's iteration loop), emitting no write-back deltas.
TEST(RequestSchedulerTest, StageAbortsEmitNothing) {
  auto engine = BuildTestEngine(53);
  ASSERT_TRUE(engine.ok());
  const LowerBoundIndex& index = (*engine)->index();
  const TransitionOperator& op = (*engine)->transition();

  auto to_q = ComputeProximityToNode(op, /*q=*/7);
  ASSERT_TRUE(to_q.ok());

  // Baseline: the uncontrolled scan finds refinable candidates.
  PruneStageOptions prune_opts;
  prune_opts.k = 8;
  PruneResult pruned = RunPruneStage(index, *to_q, prune_opts, nullptr);
  ASSERT_TRUE(pruned.status.ok());
  ASSERT_GT(pruned.undecided.size(), 0u)
      << "coarse index should leave undecided candidates";

  // Expired deadline: the prune scan aborts between shards.
  ExecControl expired;
  expired.deadline = SteadyClock::now() - std::chrono::milliseconds(1);
  prune_opts.control = &expired;
  PruneResult aborted = RunPruneStage(index, *to_q, prune_opts, nullptr);
  EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);

  // Cancelled token: the refine stage aborts between candidates with no
  // deltas (mid-refine cancellation; the same Check also runs every few
  // iterations inside a candidate's refinement loop).
  ExecControl cancelled;
  cancelled.cancel = CancellationToken::Cancellable();
  cancelled.cancel.RequestCancel();
  RefineStageOptions refine_opts;
  refine_opts.k = 8;
  refine_opts.pmpn = (*engine)->options().solver;
  refine_opts.control = &cancelled;
  RefineStage refine(op, index);
  auto refined = refine.Run(pruned.undecided, *to_q, refine_opts, nullptr);
  EXPECT_FALSE(refined.ok());
  EXPECT_EQ(refined.status().code(), StatusCode::kCancelled);

  // Full pipeline with a pre-tripped control: read-only searcher, no
  // deltas may reach the sink.
  ReverseTopkSearcher searcher(op, index);
  QueryOptions query_opts;
  query_opts.k = 8;
  query_opts.pmpn = (*engine)->options().solver;
  std::vector<IndexDelta> deltas;
  query_opts.delta_sink = &deltas;
  query_opts.control = &cancelled;
  auto result = searcher.Query(7, query_opts);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(deltas.empty()) << "an aborted query must write nothing back";
}

// Mid-flight cancellation race: the cancel may land before dispatch,
// mid-pipeline, or after completion — all are legal outcomes, and the
// engine must stay fully consistent either way.
TEST(RequestSchedulerTest, MidFlightCancellationLeavesEngineConsistent) {
  auto engine = BuildTestEngine(59);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.publish_threshold = 0;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  const uint32_t q = 23;
  CancellationToken token = CancellationToken::Cancellable();
  QueryRequest request = MakeRequest(q, 12);
  request.cancel = token;
  request.bypass_cache = true;
  std::future<QueryResponse> future = (*serving)->Submit(request);
  token.RequestCancel();  // races the worker
  QueryResponse response = future.get();
  ASSERT_TRUE(response.ok() ||
              response.status.code() == StatusCode::kCancelled)
      << response.status.ToString();

  // Whatever the race decided, the engine still answers exactly.
  auto after = (*serving)->Query(q, 12);
  ASSERT_TRUE(after.ok());
  auto serial = (*engine)->Query(q, 12);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(*after, *serial);
}

// ---------------------------------------------------------------------------
// Priority ordering and shedding under a full admission queue

// Every ticket pops up to max(1, max_batch) requests: at max_batch 0 and 1
// one at a time, at 4 as fused groups of 4 and 2 whose responses fan back
// in pop order — the completion order is the same at all three.
TEST(RequestSchedulerTest, PriorityOrderedDispatchUnderBacklog) {
  auto engine = BuildTestEngine(61);
  ASSERT_TRUE(engine.ok());
  for (size_t max_batch : {0, 1, 4}) {
    SCOPED_TRACE("max_batch=" + std::to_string(max_batch));
    // Declared before the engine: a request stranded by a broken dispatch
    // is cancelled into these when the engine is destroyed.
    std::mutex mu;
    std::vector<uint32_t> completion_order;
    ServingOptions serving_opts;
    serving_opts.num_threads = 1;  // one worker: completion order == dispatch
    serving_opts.max_batch = max_batch;
    auto serving = ServingEngine::Create(**engine, serving_opts);
    ASSERT_TRUE(serving.ok());

    (*serving)->Pause();
    std::vector<std::future<QueryResponse>> futures;
    // Submission order is worst case: batch first, interactive last.
    const std::vector<std::pair<uint32_t, RequestPriority>> submissions = {
        {10, RequestPriority::kBatch},       {11, RequestPriority::kBatch},
        {20, RequestPriority::kStandard},    {21, RequestPriority::kStandard},
        {30, RequestPriority::kInteractive}, {31, RequestPriority::kInteractive},
    };
    for (const auto& [q, priority] : submissions) {
      auto promise = std::make_shared<std::promise<QueryResponse>>();
      futures.push_back(promise->get_future());
      (*serving)->Submit(MakeRequest(q, 6, priority),
                         [&mu, &completion_order, promise](QueryResponse r) {
                           {
                             std::lock_guard<std::mutex> lock(mu);
                             completion_order.push_back(r.query);
                           }
                           // Outside the lock: set_value unblocks the main
                           // thread, which destroys mu on scope exit.
                           promise->set_value(std::move(r));
                         });
    }
    EXPECT_EQ((*serving)->stats().queue_depth, submissions.size());
    (*serving)->Resume();
    // Bounded wait: a dispatch that pops nothing fails here, not by hanging.
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "a request was never dispatched";
      ASSERT_TRUE(future.get().ok());
    }
    EXPECT_EQ(completion_order,
              (std::vector<uint32_t>{30, 31, 20, 21, 10, 11}))
        << "strict priority order, FIFO within a class";
  }
}

TEST(RequestSchedulerTest, FullQueueShedsWithResourceExhausted) {
  auto engine = BuildTestEngine(67);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 1;
  serving_opts.max_pending = 3;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  (*serving)->Pause();
  std::vector<std::future<QueryResponse>> admitted;
  for (uint32_t q = 0; q < 3; ++q) {
    admitted.push_back((*serving)->Submit(MakeRequest(q, 6)));
  }
  // Queue full: the 4th request resolves immediately (before Resume),
  // synchronously on this thread, with kResourceExhausted.
  std::future<QueryResponse> shed =
      (*serving)->Submit(MakeRequest(99, 6, RequestPriority::kInteractive));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "shedding must not wait for dispatch";
  QueryResponse shed_response = shed.get();
  EXPECT_EQ(shed_response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed_response.query, 99u);

  ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.queue_depth, 3u);
  EXPECT_EQ(stats.peak_queue_depth, 3u) << "backlog must stay bounded";

  (*serving)->Resume();
  for (auto& future : admitted) {
    EXPECT_TRUE(future.get().ok()) << "admitted requests must still complete";
  }
  EXPECT_EQ((*serving)->stats().queue_depth, 0u);
}

TEST(RequestSchedulerTest, BatchLargerThanAdmissionBoundCompletesFully) {
  auto engine = BuildTestEngine(73);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 2;
  serving_opts.max_pending = 4;  // far smaller than the batch
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  std::vector<uint32_t> queries(40);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i] = static_cast<uint32_t>(i * 5 % 250);
  }
  const std::vector<QueryResponse> responses =
      (*serving)->QueryBatch(queries, 6);
  ASSERT_EQ(responses.size(), queries.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok())
        << "a closed-loop batch must never shed itself: "
        << responses[i].status.ToString();
  }
  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.peak_queue_depth, serving_opts.max_pending);
}

// ---------------------------------------------------------------------------
// Concurrent submit stress (ci.sh runs this under TSan): mixed priorities,
// tiers and deadlines racing publishes; every exact no-deadline response
// must equal the serial engine's answer.
TEST(RequestSchedulerTest, ConcurrentSubmitStressMatchesSerial) {
  auto engine = BuildTestEngine(71);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 2;
  serving_opts.publish_threshold = 16;
  serving_opts.max_pending = 0;  // unbounded: every request must resolve ok
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  Rng rng(5);
  std::vector<uint32_t> workload = SampleQueries(
      (*engine)->graph(), 16, QueryDistribution::kInDegreeBiased, &rng);
  const uint32_t k = 8;
  std::vector<std::vector<uint32_t>> expected;
  expected.reserve(workload.size());
  for (uint32_t q : workload) {
    auto r = (*engine)->Query(q, k);
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  constexpr int kThreads = 6;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::atomic<int> unexpected_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const RequestPriority priority =
          static_cast<RequestPriority>(t % kNumRequestPriorities);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<QueryResponse>> futures;
        std::vector<size_t> indices;
        for (size_t i = 0; i < workload.size(); ++i) {
          const size_t j = (i + static_cast<size_t>(t) * 5) % workload.size();
          QueryRequest request = MakeRequest(workload[j], k, priority);
          if (t == kThreads - 1 && i % 4 == 0) {
            // A slice of already-expired requests exercises dispatch-time
            // shedding under load; their outcome is checked by status.
            request.deadline = SteadyClock::now() - std::chrono::seconds(1);
          }
          indices.push_back(j);
          futures.push_back((*serving)->Submit(std::move(request)));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          QueryResponse response = futures[i].get();
          if (response.status.code() == StatusCode::kDeadlineExceeded) {
            continue;  // only the expired slice may land here
          }
          if (!response.ok()) {
            ++unexpected_failures;
          } else if (response.results != expected[indices[i]]) {
            ++mismatches;
          }
        }
        if (t % 2 == 0) (*serving)->PublishPending();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(unexpected_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kThreads) * kRounds * workload.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GT(stats.expired, 0u) << "the expired slice must be counted";
  EXPECT_GT(stats.epochs_published, 0u);
}

}  // namespace
}  // namespace rtk
