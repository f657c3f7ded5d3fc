// Per-request trace spans: where one query's wall time actually went.
//
// A QueryTrace is a small value owned by the request's driver (the serving
// worker's stack, a bench loop) and threaded through the pipeline via
// QueryOptions::trace. Each lifecycle phase appends one TraceSpan —
// admission, queue wait, cache probe, proximity, prune, refine, write-back
// — with start/duration on the shared steady clock, so a trace is a gap
// free decomposition of the request's latency the way the paper's Figs.
// 5–7 decompose query time into PMPN / prune / refinement.
//
// Tracing never changes results: the pipeline only ever *writes
// timestamps into* an attached trace (null = zero work), and recorded
// query results are byte-identical with tracing on or off (asserted in
// tests/obs_test.cc).
//
// Completed traces land in a TraceRing — a lock-striped ring buffer of
// the most recent requests — and traces whose total exceeds a threshold
// are additionally retained in a SlowQueryLog, which keeps the slowest
// requests with their full stage breakdowns for "why did p99 spike?"
// forensics. Both are bounded; recording overwrites the oldest entry and
// never blocks on readers.

#ifndef RTK_OBS_TRACE_H_
#define RTK_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"

namespace rtk {

/// \brief Lifecycle phases a span can describe, in serving order.
enum class TracePhase : uint8_t {
  kAdmission = 0,   ///< Submit() fast-path work before queuing
  kQueueWait = 1,   ///< admission to dispatch
  kCacheProbe = 2,  ///< result-cache lookup
  kProximity = 3,   ///< stage 1 (includes any escalation re-run)
  kPrune = 4,       ///< stage 2 bound scan
  kRefine = 5,      ///< stage 3 BCA refinement
  kWriteBack = 6,   ///< merge + delta emission / index write-back
  // Mutation-publish phases (synthetic traces with backend="mutation").
  kMutateGraph = 7,    ///< apply edge batches + affected-set computation
  kMutateRepair = 8,   ///< hub re-solve + per-node repair (or full rebuild)
  kMutatePublish = 9,  ///< version advance + snapshot/catalog swap
};

std::string_view TracePhaseToString(TracePhase phase);

/// \brief How the request left the system.
enum class TraceDisposition : uint8_t {
  kOk = 0,
  kCacheHit = 1,
  kShed = 2,
  kExpired = 3,
  kCancelled = 4,
  kError = 5,
};

std::string_view TraceDispositionToString(TraceDisposition d);

/// \brief One timed phase. Offsets are relative to QueryTrace::started_at
/// so a completed trace is self-contained (no clock anchors to keep).
struct TraceSpan {
  TracePhase phase = TracePhase::kAdmission;
  double start_seconds = 0.0;  ///< offset from trace start
  double duration_seconds = 0.0;
};

/// \brief One request's trace: identity, routing facts, spans.
struct QueryTrace {
  /// Monotonically increasing per-ring id, assigned on Record (0 before).
  uint64_t trace_id = 0;
  uint32_t query = 0;
  uint32_t k = 0;
  /// Index epoch served against (0 when the request never reached one).
  uint64_t epoch = 0;
  /// Stage-1 backend that produced the served row ("" when none ran).
  std::string backend;
  bool escalated = false;
  /// Numeric EscalationMode (core/online_query.h): 0 none, 1 partial
  /// (targeted settles resolved every uncertain node), 2 full (exact
  /// re-run). Kept as the raw value so this header stays layer-clean.
  uint8_t escalation_mode = 0;
  /// Uncertain nodes the escalation (either mode) had to resolve.
  uint64_t escalated_nodes = 0;
  /// Accuracy tier as requested (true = hits-only).
  bool approximate_tier = false;
  TraceDisposition disposition = TraceDisposition::kOk;
  /// End-to-end wall seconds (submit to delivery) stamped by Finish().
  double total_seconds = 0.0;
  std::vector<TraceSpan> spans;

  /// \brief Starts the clock; spans record offsets from here.
  void Start() { started_at_ = SteadyClock::now(); }

  /// \brief Starts the clock at an earlier anchor (e.g. the Submit
  /// timestamp), so queue wait is part of the trace's timeline.
  void StartAt(SteadyTimePoint t) { started_at_ = t; }

  /// \brief Appends a span covering [began, now] for `phase`.
  void EndSpan(TracePhase phase, SteadyTimePoint began) {
    TraceSpan span;
    span.phase = phase;
    span.start_seconds = Offset(began);
    span.duration_seconds = Offset(SteadyClock::now()) - span.start_seconds;
    spans.push_back(span);
  }

  /// \brief Appends an already-measured span starting now - duration.
  void AddSpan(TracePhase phase, double duration_seconds) {
    TraceSpan span;
    span.phase = phase;
    span.start_seconds = Offset(SteadyClock::now()) - duration_seconds;
    span.duration_seconds = duration_seconds;
    spans.push_back(span);
  }

  /// \brief Appends a span at an explicit timeline position — for phases
  /// measured on another thread (e.g. the submit thread's admission work,
  /// replayed by the worker when it dispatches the request).
  void AddSpanAt(TracePhase phase, double start_seconds,
                 double duration_seconds) {
    spans.push_back(TraceSpan{phase, start_seconds, duration_seconds});
  }

  /// \brief Stamps total_seconds; call once, just before Record.
  void Finish() { total_seconds = Offset(SteadyClock::now()); }

  /// \brief Sum of span durations for one phase (0 when it never ran).
  double PhaseSeconds(TracePhase phase) const;

  /// \brief One-line rendering for logs and the CLI dump.
  std::string ToString() const;

 private:
  double Offset(SteadyTimePoint t) const {
    return std::chrono::duration<double>(t - started_at_).count();
  }
  SteadyTimePoint started_at_{};
};

/// \brief Lock-striped ring buffer of the most recent completed traces.
/// Record picks a stripe round-robin and overwrites that stripe's oldest
/// slot under the stripe lock — writers on different stripes never
/// contend, and a reader snapshots stripe by stripe.
class TraceRing {
 public:
  /// `capacity` total retained traces (0 disables recording entirely);
  /// stripes are coerced into [1, capacity].
  explicit TraceRing(size_t capacity, size_t stripes = 4);

  /// \brief Stores `trace`, assigning and returning its trace_id (0 when
  /// the ring is disabled — a cheap no-op then).
  uint64_t Record(QueryTrace trace);

  /// \brief The retained traces, oldest to newest. (Traces that finish
  /// mid-call may or may not appear; each stripe is internally ordered.)
  std::vector<QueryTrace> Recent() const;

  /// \brief Traces recorded since construction (including overwritten).
  uint64_t recorded() const { return next_id_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<QueryTrace> slots;  // capacity-bounded circular buffer
    size_t next = 0;                // overwrite cursor
    uint64_t written = 0;
  };

  size_t capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> next_id_{0};
};

/// \brief Bounded log of traces slower than a threshold, kept in arrival
/// order (a forensic tail, not a top-N heap: under a persistent
/// regression the newest offenders are the interesting ones).
class SlowQueryLog {
 public:
  /// Traces with total_seconds >= `threshold_seconds` are retained, up to
  /// `capacity` (oldest evicted). threshold <= 0 or capacity 0 disables.
  SlowQueryLog(double threshold_seconds, size_t capacity);

  /// \brief Records `trace` if it qualifies; returns whether it did.
  bool MaybeRecord(const QueryTrace& trace);

  /// \brief Retained slow traces, oldest first.
  std::vector<QueryTrace> Entries() const;

  /// \brief Qualifying traces ever seen (>= Entries().size()).
  uint64_t slow_count() const {
    return slow_count_.load(std::memory_order_relaxed);
  }

  double threshold_seconds() const { return threshold_seconds_; }
  bool enabled() const { return threshold_seconds_ > 0.0 && capacity_ > 0; }

 private:
  double threshold_seconds_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<QueryTrace> entries_;  // circular, next_ is the oldest slot
  size_t next_ = 0;
  bool wrapped_ = false;
  std::atomic<uint64_t> slow_count_{0};
};

}  // namespace rtk

#endif  // RTK_OBS_TRACE_H_
