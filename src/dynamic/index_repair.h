// Incremental index repair: Algorithm 1 restricted to an affected node
// set, run by the serving layer's mutation drain
// (ServingEngine::ApplyUpdates).
//
// Given an index built over the OLD graph and the transition operator of
// the NEW graph, RepairAffectedNodes produces an index that is back in
// sync for every node in `affected` (the reverse-reachability superset of
// graph_updates.h) while sharing every clean storage shard with the source
// copy-on-write — the repair costs O(affected work + dirty shards), never
// O(n).
//
//  1. Hub vectors of affected hubs are re-solved exactly against the new
//     graph (HubProximityStore::Rebuilt); unaffected hub vectors are
//     reused verbatim. This step is NOT optional: hub rows feed hub-ink
//     redemption for every node, so a stale row would poison bounds far
//     outside the affected set. When no affected node is a hub, nothing
//     is re-solved or copied: the repaired index shares the old P_H
//     object itself (O(1), not O(|P_H|)).
//  2. Affected non-hub nodes either re-run truncated BCA from scratch
//     (repair_bca = true, the exact incremental maintenance: rows match
//     a fresh build) or are reset to the trivial-but-valid lower bound
//     (repair_bca = false, conservative invalidation: zero top-k, empty
//     BCA state, |r|_1 = 1 — fresh-start state that query-time refinement
//     re-tightens). Either way Algorithm 4 stays exact: its correctness
//     needs valid lower bounds, not tight ones (Section 4.2.3).
//
// Unaffected nodes keep their (possibly refinement-tightened) state
// byte-for-byte: their proximity columns are unchanged by the update
// batch, and their residue / hub ink lives only on nodes they can reach —
// all unaffected (see graph_updates.h for the soundness argument).

#ifndef RTK_DYNAMIC_INDEX_REPAIR_H_
#define RTK_DYNAMIC_INDEX_REPAIR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "index/lower_bound_index.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Knobs for RepairAffectedNodes.
struct IndexRepairOptions {
  /// Power-method settings for the exact hub re-solves; callers must pin
  /// solver.alpha to the index's BCA alpha (one alpha everywhere).
  RwrOptions solver;
  /// true: affected non-hub nodes re-run truncated BCA (exact incremental
  /// maintenance). false: they reset to the trivial lower bound
  /// (conservative invalidation — cheaper for large affected sets).
  bool repair_bca = true;
};

/// \brief What one repair did (feeds MutationResult and the mutation
/// metrics).
struct IndexRepairReport {
  uint32_t affected_hubs = 0;
  /// Non-hub nodes reset to the trivial bound (0 when repair_bca).
  uint32_t invalidated_nodes = 0;
  /// Re-solving the affected hubs' P_H vectors.
  double hub_seconds = 0.0;
  /// The affected nodes' BCA re-runs (and the hubs' top-K reads) only.
  double bca_seconds = 0.0;
  /// Installing the repaired rows into the copy-on-write copy, where
  /// shards shared with `index` are privatized.
  double install_seconds = 0.0;
};

/// \brief Repairs `index` against the new graph behind `op` for the
/// sorted-unique `affected` node set. Returns a new index sharing every
/// untouched shard with `index` (copy-on-write), and its hub store too when
/// no affected node is a hub; `index` itself is never written. Fails with
/// the hub section's Corruption when `index` has a lazy hub store that
/// does not verify. Re-entrant-safe parallelism: may be called from inside
/// a pool task of `pool`.
Result<LowerBoundIndex> RepairAffectedNodes(const LowerBoundIndex& index,
                                            const TransitionOperator& op,
                                            const std::vector<uint32_t>& affected,
                                            const IndexRepairOptions& options,
                                            ThreadPool* pool = nullptr,
                                            IndexRepairReport* report = nullptr);

}  // namespace rtk

#endif  // RTK_DYNAMIC_INDEX_REPAIR_H_
