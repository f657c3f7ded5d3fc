// Asynchronous serving walkthrough: the typed request/response surface.
//
// Builds a small engine, stands up a ServingEngine, and walks the request
// lifecycle end to end:
//   1. a plain future-based Submit (the async replacement for Query),
//   2. a latency-sensitive request: kInteractive priority + a deadline,
//   3. the approximate accuracy tier (paper Section 5.3, hits only),
//   4. cancellation via a shared token,
//   5. a shed request against a deliberately tiny admission queue,
//   6. a callback-based batch with per-request statuses.
//
// Build: cmake --build build --target example_async_serving

#include <cstdio>
#include <future>
#include <mutex>
#include <vector>

#include "rtk/rtk.h"

using namespace rtk;

namespace {

void PrintResponse(const char* label, const QueryResponse& response) {
  if (!response.ok()) {
    std::printf("%-22s q=%u: %s\n", label, response.query,
                response.status.ToString().c_str());
    return;
  }
  std::printf("%-22s q=%u: %zu nodes, epoch %llu%s, queue %.0f us, "
              "total %.2f ms\n",
              label, response.query, response.results.size(),
              static_cast<unsigned long long>(response.epoch),
              response.cache_hit ? " (cache hit)" : "",
              response.queue_wait_seconds * 1e6,
              response.total_seconds * 1e3);
}

}  // namespace

int main() {
  Rng rng(42);
  auto graph = BarabasiAlbert(500, 4, &rng);
  if (!graph.ok()) return 1;
  EngineOptions opts;
  opts.capacity_k = 30;
  opts.hub_selection.degree_budget_b = 11;
  auto engine = ReverseTopkEngine::Build(std::move(*graph), opts);
  if (!engine.ok()) return 1;

  ServingOptions serving_opts;
  serving_opts.num_threads = 2;
  serving_opts.max_pending = 64;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  if (!serving.ok()) return 1;

  // 1. The plain async path: Submit returns a future immediately.
  {
    QueryRequest request;
    request.query = 7;
    request.k = 10;
    std::future<QueryResponse> future = (*serving)->Submit(request);
    // ... the caller is free to do other work here ...
    PrintResponse("async submit", future.get());
  }

  // 2. Latency-sensitive: interactive priority, 50 ms deadline. If the
  // deadline passes while queued the request is never dispatched; if it
  // passes mid-evaluation the pipeline aborts at the next stage boundary
  // (and writes nothing back). Either way: kDeadlineExceeded.
  {
    QueryRequest request;
    request.query = 7;  // same (q, k) as above -> served from the cache
    request.k = 10;
    request.priority = RequestPriority::kInteractive;
    request.deadline = DeadlineAfter(0.050);
    PrintResponse("interactive+deadline", (*serving)->Submit(request).get());
  }

  // 3. Approximate tier: only candidates the stored index bounds already
  // confirm — no refinement, a strict subset of the exact answer.
  {
    QueryRequest request;
    request.query = 7;
    request.k = 10;
    request.tier = AccuracyTier::kApproximateHitsOnly;
    PrintResponse("approximate tier", (*serving)->Submit(request).get());
  }

  // 4. Cancellation: keep a copy of the token, cancel any time. Here the
  // token is cancelled before dispatch, so the worker sheds the request
  // without running it (a mid-run cancel aborts between stages instead).
  {
    CancellationToken token = CancellationToken::Cancellable();
    QueryRequest request;
    request.query = 11;
    request.k = 10;
    request.cancel = token;
    (*serving)->Pause();  // hold dispatch so the cancel wins the race
    std::future<QueryResponse> future = (*serving)->Submit(request);
    token.RequestCancel();
    (*serving)->Resume();
    PrintResponse("cancelled", future.get());
  }

  // 5. Admission control: a tiny queue sheds overload immediately with
  // kResourceExhausted instead of building an unbounded backlog.
  {
    ServingOptions tiny;
    tiny.num_threads = 1;
    tiny.max_pending = 2;
    auto small = ServingEngine::Create(**engine, tiny);
    if (!small.ok()) return 1;
    (*small)->Pause();  // freeze dispatch so the queue fills deterministically
    std::vector<std::future<QueryResponse>> futures;
    for (uint32_t q = 0; q < 4; ++q) {
      QueryRequest request;
      request.query = q;
      request.k = 5;
      futures.push_back((*small)->Submit(request));
    }
    (*small)->Resume();
    for (auto& future : futures) PrintResponse("tiny queue", future.get());
    const ServingStats stats = (*small)->stats();
    std::printf("tiny queue stats: submitted=%llu shed=%llu peak_depth=%zu\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.shed),
                stats.peak_queue_depth);
  }

  // 6. Callback delivery + per-request statuses: one bad query does not
  // poison its siblings.
  {
    std::mutex mu;
    std::vector<std::pair<uint32_t, Status>> done;
    int remaining = 3;
    std::promise<void> all_done;
    for (uint32_t q : {3u, 100000u, 21u}) {  // 100000 is out of range
      QueryRequest request;
      request.query = q;
      request.k = 10;
      request.priority = RequestPriority::kBatch;
      (*serving)->Submit(request, [&](QueryResponse response) {
        bool last;
        {
          std::lock_guard<std::mutex> lock(mu);
          done.emplace_back(response.query, response.status);
          last = (--remaining == 0);
        }
        // Outside the lock: set_value releases the main thread, which
        // destroys mu when the enclosing block exits.
        if (last) all_done.set_value();
      });
    }
    all_done.get_future().wait();
    for (const auto& [q, status] : done) {
      std::printf("callback batch         q=%u: %s\n", q,
                  status.ToString().c_str());
    }
  }

  const ServingStats stats = (*serving)->stats();
  std::printf("\nserving stats: submitted=%llu executed=%llu hits=%llu "
              "expired=%llu cancelled=%llu shed=%llu epoch=%llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.current_epoch));
  return 0;
}
