// MutationLog: the graph-update queue between ApplyUpdates callers and the
// mutation drain — the write-side sibling of RefinementLog.
//
// Callers hand in batches of edge updates and get a future<MutationResult>
// back; the serving engine's mutation worker drains whole batches in FIFO
// order, splices them into a new graph derived from the current
// GraphVersion's, repairs (or conservatively invalidates, or rebuilds) the
// index state the batch can affect, and publishes one new IndexSnapshot
// pinned to the new graph version. Batches that coalesce into one drain
// share one publish — the mutation analogue of refinement's
// publish_threshold batching.
//
// Promise discipline mirrors the admission queue: a batch's promise
// resolves exactly once — with the publish result, with its own validation
// error (per-batch isolation: an invalid insert never wedges the stream),
// or with kCancelled at shutdown. A promise is never dropped.

#ifndef RTK_SERVING_MUTATION_LOG_H_
#define RTK_SERVING_MUTATION_LOG_H_

#include <cstdint>
#include <future>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dynamic/graph_updates.h"

namespace rtk {

/// \brief One ApplyUpdates payload: edge updates applied atomically, in
/// order, as a single batch.
using GraphUpdateBatch = std::vector<EdgeUpdate>;

/// \brief How the mutation drain brought the index back in sync.
enum class MutationRepairMode : uint8_t {
  /// Exact incremental repair: affected hub vectors re-solved, affected
  /// non-hub nodes re-ran truncated BCA — the published index is the one
  /// a fresh Algorithm-1 build on the new graph produces for the affected
  /// set (unaffected nodes keep their refined state verbatim).
  kRepaired = 0,
  /// Conservative invalidation (large affected set): affected hub vectors
  /// are STILL re-solved — stale P_H rows would make later hub-ink
  /// redemption unsound — but affected non-hub nodes fall back to the
  /// trivial lower bound (zero top-k, |r|_1 = 1). Exact-tier answers stay
  /// exact (Algorithm 4 is exact for any valid bounds); refinement
  /// re-tightens the reset nodes over subsequent queries.
  kInvalidated = 1,
  /// Full rebuild: the affected set crossed mutation_rebuild_fraction (or
  /// reachability truncated) — hubs re-selected, Algorithm 1 re-run.
  kRebuilt = 2,
};

std::string_view MutationRepairModeToString(MutationRepairMode mode);

/// \brief What one ApplyUpdates batch resolved to. Batches coalesced into
/// one drain share the publish-wide fields (mode, counts, timing).
struct MutationResult {
  /// OK when the batch landed; InvalidArgument/NotFound when the batch
  /// itself failed validation (the graph is then unchanged by THIS batch;
  /// other batches in the drain still apply); kCancelled at shutdown.
  Status status;
  /// Graph version the drain published (the version serving queries read
  /// after this future resolves; unchanged when status is not OK and no
  /// sibling batch applied).
  uint64_t graph_version = 0;
  /// Index epoch pinned to that graph version.
  uint64_t epoch = 0;
  MutationRepairMode mode = MutationRepairMode::kRepaired;
  /// Nodes whose index state the drain recomputed or reset (n on rebuild).
  uint64_t affected_nodes = 0;
  /// Hub vectors re-solved against the new graph.
  uint64_t affected_hubs = 0;
  /// Wall seconds of the whole drain (graph rebuild + repair + publish).
  double apply_seconds = 0.0;

  bool ok() const { return status.ok(); }
};

/// \brief MutationLog counters (exposed through ServingStats).
struct MutationLogStats {
  uint64_t batches_enqueued = 0;
  uint64_t updates_enqueued = 0;
  /// Batches currently waiting for the mutation worker.
  uint64_t pending = 0;
};

/// \brief Thread-safe FIFO of pending update batches with per-batch
/// promises.
class MutationLog {
 public:
  /// \brief One queued batch, moved out whole by Drain(); the drainer owns
  /// the promise and must resolve it.
  struct PendingBatch {
    GraphUpdateBatch updates;
    std::promise<MutationResult> promise;
  };

  /// \brief Queues `updates` and returns the future its drain resolves.
  /// After Shutdown() the future resolves immediately with kCancelled.
  std::future<MutationResult> Enqueue(GraphUpdateBatch updates);

  /// \brief Removes every pending batch, oldest first.
  std::vector<PendingBatch> Drain();

  size_t pending() const;

  MutationLogStats stats() const;

  /// \brief Fails every pending (and future) batch with kCancelled.
  /// Idempotent; call after the drain worker has stopped.
  void Shutdown();

 private:
  mutable std::mutex mu_;
  std::vector<PendingBatch> pending_;
  bool shut_down_ = false;
  uint64_t batches_enqueued_ = 0;
  uint64_t updates_enqueued_ = 0;
};

}  // namespace rtk

#endif  // RTK_SERVING_MUTATION_LOG_H_
