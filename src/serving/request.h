// Typed request/response messages of the serving API.
//
// A QueryRequest is everything the scheduler needs to admit, order, run and
// abort one reverse top-k evaluation: the query itself (q, k), an accuracy
// tier (exact Algorithm 4 vs the paper's Section 5.3 hits-only variant), a
// priority class for the admission queue, an absolute deadline, a
// cancellation token, and cache/index-update knobs. A QueryResponse carries
// the per-request Status (never a whole-batch failure), the result list,
// the epoch it was served from, a cache-hit flag, its queue wait and
// end-to-end time, and the pipeline's QueryStats (stage times included).
//
// Requests are plain values: build one, hand it to
// ServingEngine::Submit(), keep the cancellation token if you may want to
// abandon it. Responses are delivered through a std::future or a callback.

#ifndef RTK_SERVING_REQUEST_H_
#define RTK_SERVING_REQUEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/online_query.h"

namespace rtk {

/// \brief Admission/dispatch priority classes, dispatched strictly in
/// order (kInteractive first), FIFO within a class. A full admission queue
/// sheds the *incoming* request regardless of class — priorities order
/// dispatch, they do not preempt admitted work.
enum class RequestPriority : uint8_t {
  kInteractive = 0,  ///< user-facing, latency-sensitive
  kStandard = 1,     ///< default
  kBatch = 2,        ///< offline / bulk work, runs when nothing else waits
};

inline constexpr int kNumRequestPriorities = 3;

inline std::string_view RequestPriorityToString(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kInteractive:
      return "interactive";
    case RequestPriority::kStandard:
      return "standard";
    case RequestPriority::kBatch:
      return "batch";
  }
  return "unknown";
}

/// \brief Per-request accuracy tier (the Section 5.3 knob, lifted to the
/// serving surface).
enum class AccuracyTier : uint8_t {
  /// Exact Algorithm 4: prune, then refine every undecided candidate.
  kExact = 0,
  /// Approximate: return only candidates the *stored* bounds already
  /// confirm ("hits"), skipping refinement entirely — a fast tier whose
  /// result is always a subset of the exact answer.
  kApproximateHitsOnly = 1,
};

/// \brief One reverse top-k request. Value type; default-constructed
/// fields give exactly the legacy Query(q, k) behavior.
struct QueryRequest {
  /// Query node q.
  uint32_t query = 0;
  /// Result rank; 1 <= k <= index capacity K.
  uint32_t k = 10;
  RequestPriority priority = RequestPriority::kStandard;
  AccuracyTier tier = AccuracyTier::kExact;
  /// Absolute deadline. Checked at dispatch (an expired queued request is
  /// never run) and polled at pipeline stage boundaries while running.
  /// Use DeadlineAfter(seconds) for relative deadlines.
  SteadyTimePoint deadline = kNoDeadline;
  /// Cooperative cancellation. Keep a copy of the token and call
  /// RequestCancel() to abandon the request; an inert default token makes
  /// the request non-cancellable at zero cost.
  CancellationToken cancel;
  /// Skip the result cache entirely (no lookup, no insert) — for
  /// measurement runs or callers that must touch the index.
  bool bypass_cache = false;
  /// Record refinement deltas for the next snapshot publish (the legacy
  /// path always did). False = a pure read that leaves no trace.
  bool update_index = true;
  /// Intra-query parallelism override; 0 inherits
  /// ServingOptions::query.num_threads.
  int num_threads = 0;
};

/// \brief The per-request outcome. status distinguishes success from
/// shedding (kResourceExhausted), deadline expiry (kDeadlineExceeded),
/// cancellation (kCancelled) and argument errors; results are only
/// meaningful when ok().
struct QueryResponse {
  Status status;
  /// Ascending node ids; the exact (or, for kApproximateHitsOnly, the
  /// confirmed-subset) reverse top-k answer.
  std::vector<uint32_t> results;
  /// Echo of the request, so callbacks need no side table.
  uint32_t query = 0;
  uint32_t k = 0;
  RequestPriority priority = RequestPriority::kStandard;
  /// Index epoch the request was served against (0 for requests that never
  /// reached a snapshot, e.g. shed at admission).
  uint64_t epoch = 0;
  /// True when the result came from the (q, k, epoch) cache.
  bool cache_hit = false;
  /// Admission-to-dispatch wait in seconds (0 for requests resolved on the
  /// submit thread).
  double queue_wait_seconds = 0.0;
  /// Wall time from Submit() to response delivery, in seconds.
  double total_seconds = 0.0;
  /// Id of this request's trace in the serving engine's trace ring
  /// (ServingEngine::RecentTraces); 0 when tracing is disabled.
  uint64_t trace_id = 0;
  /// Proximity backend that produced the row this answer was served from:
  /// the tier's configured backend, or "pmpn" when an approximate backend
  /// escalated (stats.escalated). Empty for cache hits and requests that
  /// never ran.
  std::string backend;
  /// Full pipeline counters and stage times (pmpn_seconds, prune_seconds,
  /// refine_seconds); zeroed for cache hits / sheds.
  QueryStats stats;

  bool ok() const { return status.ok(); }
};

}  // namespace rtk

#endif  // RTK_SERVING_REQUEST_H_
