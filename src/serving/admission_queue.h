// AdmissionQueue: the bounded, priority-ordered request queue in front of
// the serving workers.
//
// Admission control is the overload story of the serving layer: the queue
// holds at most `capacity` pending requests, and a Submit that finds it
// full is shed immediately with kResourceExhausted instead of growing an
// unbounded backlog whose every entry would miss its deadline anyway
// (classic bufferbloat). Within the bound, dispatch order is strict
// priority (kInteractive before kStandard before kBatch) and FIFO within a
// class, so interactive traffic overtakes queued batch work without
// preempting anything already running.
//
// The queue is a passive container: ServingEngine workers pop from it; it
// never owns threads. All methods are thread-safe.

#ifndef RTK_SERVING_ADMISSION_QUEUE_H_
#define RTK_SERVING_ADMISSION_QUEUE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/cancellation.h"
#include "serving/request.h"

namespace rtk {

/// \brief One queued request plus its delivery path. The future and
/// callback Submit overloads both reduce to a `deliver` closure, invoked
/// exactly once per request (worker thread normally; submitting thread for
/// requests shed at admission).
struct PendingQuery {
  QueryRequest request;
  std::function<void(QueryResponse)> deliver;
  /// Admission timestamp; queue wait = dispatch time - enqueued_at.
  SteadyTimePoint enqueued_at{};
  /// Submit-thread work before enqueue (control checks + cache probe),
  /// seconds — the trace's admission span (obs/trace.h).
  double admission_seconds = 0.0;
  /// Portion of admission_seconds spent probing the result cache.
  double cache_probe_seconds = 0.0;
};

/// \brief Aggregate queue counters. depth/peak_depth are gauges of the
/// instantaneous backlog; the rest are monotone.
struct AdmissionQueueStats {
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t popped = 0;
  size_t depth = 0;
  size_t peak_depth = 0;
};

/// \brief Thread-safe bounded priority FIFO (see file comment).
class AdmissionQueue {
 public:
  /// `capacity` 0 means unbounded (shedding disabled).
  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  /// \brief Admits `item`, or returns false when the queue is full —
  /// `item` is then untouched (not moved-from) so the caller can still
  /// deliver the shed response through it.
  bool TryPush(PendingQuery& item);

  /// \brief Pops up to `n` requests under ONE lock acquisition: the most
  /// urgent non-empty class first, FIFO within a class; empty when the
  /// queue is. Every dispatch ticket gathers its batch here, so a fused
  /// batch costs one mutex round-trip instead of one per request.
  std::vector<PendingQuery> PopUpTo(size_t n);

  /// \brief Current backlog across all classes.
  size_t depth() const;

  AdmissionQueueStats stats() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::array<std::deque<PendingQuery>, kNumRequestPriorities> lanes_;
  size_t depth_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t popped_ = 0;
  size_t peak_depth_ = 0;
};

}  // namespace rtk

#endif  // RTK_SERVING_ADMISSION_QUEUE_H_
