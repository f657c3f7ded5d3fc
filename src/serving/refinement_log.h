// RefinementLog: the write-back queue between snapshot-isolated query
// workers and the single snapshot publisher.
//
// Workers append the IndexDelta values their queries produced; the log
// deduplicates per node, keeping only the tightest delta (smallest
// |r|_1 — refinement is monotone, so "tightest" is well-defined and
// merging is conflict-free). The publisher drains the log, folds the
// deltas into a clone of the current snapshot via
// LowerBoundIndex::ApplyIfTighter, and publishes the result as a new
// epoch. Thread-safe for any number of concurrent appenders and drainers.
//
// Live graph mutation adds a versioning contract: a delta refined against
// graph version V is meaningless — possibly unsound — under version V+1,
// so appends are tagged with the graph version their snapshot served and
// the mutation publisher calls AdvanceGraphVersion before swapping in the
// new snapshot. Stale deltas are dropped, never re-validated: refinement
// is a pure optimization (bounds re-tighten through subsequent queries),
// so dropping is always sound and the drop count is observable
// (stats().dropped_stale, rtk_serving_refinements_dropped_stale_total).

#ifndef RTK_SERVING_REFINEMENT_LOG_H_
#define RTK_SERVING_REFINEMENT_LOG_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "index/lower_bound_index.h"

namespace rtk {

/// \brief Counters exposed through ServingStats.
struct RefinementLogStats {
  /// Deltas handed to Append (including ones later superseded).
  uint64_t appended = 0;
  /// Appended deltas dropped because a tighter delta for the same node was
  /// already pending.
  uint64_t superseded = 0;
  /// Deltas currently waiting to be drained.
  uint64_t pending = 0;
  /// Deltas discarded by the graph-version contract: tagged with a stale
  /// version at Append, or pending when AdvanceGraphVersion purged.
  uint64_t dropped_stale = 0;
};

/// \brief Pending deltas of one storage shard, sorted by node.
struct ShardDeltaGroup {
  uint32_t shard = 0;
  std::vector<IndexDelta> deltas;
};

/// \brief Thread-safe, per-node-deduplicating delta queue.
class RefinementLog {
 public:
  /// Version tag accepting any graph version (producers outside the
  /// serving engine's versioned chain, and unit tests).
  static constexpr uint64_t kAnyGraphVersion = ~0ull;

  /// \brief Merges `deltas` into the pending set. For each node, the delta
  /// with the smaller residue wins (ties keep the incumbent).
  /// `graph_version` is the version of the snapshot the producing query
  /// served: the whole vector is dropped (counted dropped_stale) when it
  /// no longer matches the log's current version.
  void Append(std::vector<IndexDelta> deltas,
              uint64_t graph_version = kAnyGraphVersion);

  /// \brief Batch form: merges every per-producer delta vector under ONE
  /// lock acquisition, in batch order. Equivalent to calling Append on
  /// each element in sequence (same dedup winners, same stats), but a
  /// fused query group / per-worker aggregation pays the log mutex once
  /// instead of once per lane.
  void Append(std::vector<std::vector<IndexDelta>> batches,
              uint64_t graph_version = kAnyGraphVersion);

  /// \brief Mutation-publish barrier: purges every pending delta (they
  /// were refined against the outgoing graph) and makes `graph_version`
  /// the only accepted tag. Call BEFORE swapping in the new snapshot so
  /// no delta of the old version can slip in between.
  void AdvanceGraphVersion(uint64_t graph_version);

  /// \brief The version Append currently accepts (0 until advanced).
  uint64_t graph_version() const;

  /// \brief Removes every pending delta, grouped by the storage shard that
  /// owns each node (`shard_nodes` is the index's shard width). Groups are
  /// in ascending shard order and each group's deltas in ascending node
  /// order, so the publisher dirties every copy-on-write shard exactly
  /// once, with sequential writes within it.
  std::vector<ShardDeltaGroup> DrainByShard(uint32_t shard_nodes);

  /// \brief Number of pending deltas.
  size_t pending() const;

  RefinementLogStats stats() const;

 private:
  void AppendLocked(std::vector<IndexDelta> deltas);

  mutable std::mutex mu_;
  std::unordered_map<uint32_t, IndexDelta> tightest_;
  uint64_t appended_ = 0;
  uint64_t superseded_ = 0;
  uint64_t dropped_stale_ = 0;
  uint64_t graph_version_ = 0;
};

}  // namespace rtk

#endif  // RTK_SERVING_REFINEMENT_LOG_H_
