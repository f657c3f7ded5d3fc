// PruneStage — stage 2 of the query pipeline (Algorithm 4 lines 2-11):
// scan every node u against the index, classifying it as
//   pruned     p_u(q) <= 0, or p_u(q) < lb_u(k) - tie          (dropped)
//   hit        stored bounds decide: exact entry, or p_u(q) >= ub_u - tie
//   undecided  needs BCA refinement (stage 3)
//
// Error-certified pruning: when the proximity row is approximate, the
// options carry its additive error bounds and every comparison is widened
// so that a node is dropped/confirmed only if EVERY proximity value inside
// its error interval would be dropped/confirmed by the exact scan:
//   drop     p_hi <= 0, or p_hi < lb_u(k) - tie      (p_hi = value + eps)
//   hit      p_lo > 0 and p_lo >= lb_u(k) - tie and
//            (exact entry, or p_lo >= ub_u - tie)    (p_lo = value - eps)
// Everything else is "undecided": its exact-scan classification is not
// determined by the interval, so the pipeline must escalate to an exact
// row (exact tier) or drop it (hits-only tier). Certified drops/hits are
// therefore sound: hits are a subset of the exact answer and the
// non-dropped set is a superset of the exact candidate set. With zero
// error bounds the widened comparisons degenerate to the exact scan,
// branch for branch.
//
// Scan partitions are the index's own storage shards (index_storage.h):
// each work item reads exactly one shard's contiguous bound/residue slices
// — the rows a worker classifies are the rows it streams, with no
// cross-shard pointer math — and the per-shard lists are concatenated in
// shard order, which IS ascending node order. The output is therefore
// byte-identical to a serial left-to-right scan for every shard layout and
// thread count: per-node classification depends on nothing but that node's
// own bounds and proximity, so a tie_epsilon-boundary candidate survives
// (or not) identically wherever the shard cuts fall.
//
// Storage tiers: a heap-resident shard is scanned through its bound /
// residue spans as always; a cold mmap-backed shard is streamed IN PLACE
// from the mapped file through ShardPayloadCursor (lazy checksum verified
// on first touch) — same branches, same constants, so heap and mmap scans
// of the same index bytes emit identical lists, and a cold scan costs page
// cache instead of heap. Shards are scheduled on the pool with
// ParallelForRange and each scanned shard feeds its candidate count back
// as a residency touch signal; neither affects the output.

#ifndef RTK_EXEC_PRUNE_STAGE_H_
#define RTK_EXEC_PRUNE_STAGE_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/lower_bound_index.h"

namespace rtk {

/// \brief Scan parameters (a projection of QueryOptions).
struct PruneStageOptions {
  uint32_t k = 10;
  double tie_epsilon = 1e-9;
  /// Section 5.3 approximate mode: undecided nodes are dropped instead of
  /// forwarded to refinement.
  bool approximate_hits_only = false;
  /// Additive error bounds of the proximity row (ProximityRow's
  /// certificate): the true p_u(q) lies in
  /// [to_q[u] - eps_below, to_q[u] + eps_above], or within
  /// (*eps_node)[u] of to_q[u] on both sides when eps_node is set (the
  /// per-node vector overrides the scalars; caller-owned, size n). Zero /
  /// null = the row is exact and the scan is the unwidened Algorithm 4.
  double eps_below = 0.0;
  double eps_above = 0.0;
  const std::vector<double>* eps_node = nullptr;
  /// Worker cap for the shard scan (0 = whole pool, 1 = serial).
  int max_parallelism = 1;
  /// Deadline/cancellation, polled before each shard's scan; an aborted
  /// run reports the reason in PruneResult::status. Null skips all checks.
  const ExecControl* control = nullptr;
};

/// \brief Stage output. Both lists are in ascending node order.
struct PruneResult {
  /// OK, or the abort reason when the scan stopped between shards:
  /// kDeadlineExceeded / kCancelled from the control, or kCorruption when
  /// a mmap-backed shard failed its lazy checksum / structural validation
  /// (pinned to that shard). The lists are then incomplete and must be
  /// discarded.
  Status status;
  /// Confirmed result nodes (paper's "hits"); with a widened scan these
  /// are CERTIFIED hits (members of the exact answer for every proximity
  /// value inside the error interval).
  std::vector<uint32_t> hits;
  /// Candidates needing refinement (empty in approximate mode). With a
  /// widened scan this holds the uncertain nodes — those whose exact
  /// classification the error interval does not determine; refining them
  /// requires an exact row (the pipeline's escalation path).
  std::vector<uint32_t> undecided;
  /// Lower-bound survivors (hits + undecided + approximate-mode drops);
  /// with a widened scan, a certified superset of the exact count.
  uint64_t candidates = 0;
  /// Storage shards scanned (== index.num_shards(); introspection/tests).
  uint32_t shards_scanned = 0;
  /// Smallest POSITIVE margin |p_u(q) - bound_k(u)| between a node's
  /// proximity estimate and the stored k-th lower bound it is classified
  /// against, among the nodes the scan deep-touched (those past the
  /// p_hi > 0 gate, with a positive stored bound). This is the precision
  /// a certificate actually needed to decide every touched node — the
  /// query's real decision gap — piggybacked on work the scan already
  /// does. 0 when no touched node produced a positive margin. Feeds the
  /// pipeline's bound-targeted epsilon; a min over per-shard minima, so
  /// thread- and tier-invariant like every other output.
  double min_kth_bound_gap = 0.0;
};

/// \brief Runs the shard-aligned scan of `to_q` (size n, from the
/// proximity stage) against `index`. Read-only on the index; safe to call
/// from inside a pool task.
PruneResult RunPruneStage(const LowerBoundIndex& index,
                          const std::vector<double>& to_q,
                          const PruneStageOptions& options, ThreadPool* pool);

}  // namespace rtk

#endif  // RTK_EXEC_PRUNE_STAGE_H_
