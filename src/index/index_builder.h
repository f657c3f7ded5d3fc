// IndexBuilder: offline construction of the LowerBoundIndex (Algorithm 1).
//
// Per-node BCA runs are independent, which the paper exploits on a 100-core
// cluster; we exploit it across local threads. Hub vectors are solved
// exactly first (fused lane blocks, also in parallel), then every node's
// BCA is run to the delta/eta termination and its top-K lower bounds
// extracted.

#ifndef RTK_INDEX_INDEX_BUILDER_H_
#define RTK_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "index/lower_bound_index.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Options for BuildLowerBoundIndex().
struct IndexBuildOptions {
  /// K: maximum k any query may use (paper uses 200).
  uint32_t capacity_k = 200;
  /// BCA knobs (alpha, eta, delta).
  BcaOptions bca;
  /// Push strategy of the indexing runs (paper: batch).
  PushStrategy push_strategy = PushStrategy::kBatch;
  /// Hub proximity solve + rounding.
  HubStoreOptions hub_store;
  /// Nodes per storage shard (0 = IndexStorage::kDefaultShardNodes). The
  /// shard table doubles as the build work queue: each worker claims one
  /// shard at a time and emits its rows directly.
  uint32_t shard_nodes = 0;
};

/// \brief Timing breakdown of an index build (Table 2 inputs).
struct IndexBuildReport {
  double hub_solve_seconds = 0.0;
  double bca_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t total_bca_iterations = 0;
};

/// \brief Builds the index over the given hub set. `hubs` must be sorted
/// unique ids (see SelectHubs). Runs on `pool` when provided, waiting for
/// its own work only: safe on a pool that is serving other tasks.
Result<LowerBoundIndex> BuildLowerBoundIndex(
    const TransitionOperator& op, const std::vector<uint32_t>& hubs,
    const IndexBuildOptions& options = {}, ThreadPool* pool = nullptr,
    IndexBuildReport* report = nullptr);

}  // namespace rtk

#endif  // RTK_INDEX_INDEX_BUILDER_H_
