// Fused multi-source PMPN — Algorithm 2 for B query nodes at once.
//
// Runs the iteration x_b <- (1-alpha) A^T x_b + alpha e_{q_b} for every
// lane b SIMULTANEOUSLY: one blocked SpMM pass over the CSR structure
// (TransitionOperator::ApplyTransposeMulti) feeds all B accumulators per
// edge, so the graph is streamed once per iteration instead of once per
// query. This is the serving layer's throughput lever under deep queues —
// the proximity stage dominates Algorithm 4's cost (paper Section 6), and
// fusing amortizes it across an admission batch.
//
// Exactness contract: lane b's iterate sequence depends on q_b alone,
// bitwise, at every batch width and thread count, and the single-source
// solver ComputeProximityToNode is this solver's B = 1 lane. Per-lane
// convergence masking makes that possible without stragglers paying for
// finished queries: a converged lane is extracted and the accumulator
// block COMPACTS to the surviving lanes (each lane's arithmetic never
// depends on which lanes accompany it), preserving each column's exact
// iteration count, convergence delta and result vector. Every width the
// block passes through (1..kMaxTransposeLanes) runs its own fixed-width
// instantiation of both the SpMM gather and the scale / restart / L1-delta
// epilogue.
//
// Per-lane deadline/cancellation: a lane whose ExecControl trips is masked
// out exactly like a converged one — its siblings proceed untouched, which
// is what lets the serving batch former honor per-request aborts inside a
// fused solve.

#ifndef RTK_RWR_PMPN_MULTI_H_
#define RTK_RWR_PMPN_MULTI_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "rwr/pmpn.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief One fused solve input: the query node plus an optional abort
/// control polled once per iteration (null = never aborts).
struct PmpnLaneSpec {
  uint32_t query = 0;
  const ExecControl* control = nullptr;
};

/// \brief One fused solve output. `status` is OK for a completed lane
/// (row/stats then equal ComputeProximityToNode(q) exactly) or the abort
/// code (kCancelled / kDeadlineExceeded) when the lane's control tripped
/// mid-solve — the row is then empty and must not be served.
struct PmpnLaneResult {
  Status status;
  std::vector<double> row;
  IterativeSolveStats stats;
};

/// \brief Computes p_{q,*} for every lane via the fused blocked-SpMM
/// iteration. Returns one result per lane, aligned with `lanes`.
///
/// Lanes are processed in groups of at most kMaxTransposeLanes (wider
/// batches simply take several fused passes). Duplicate query nodes are
/// fine (each lane runs its own column). Errors that invalidate the whole
/// call (bad alpha/epsilon, query out of range) surface as the top-level
/// Status (ValidateRwrOptions' message for bad options); per-lane aborts
/// surface per lane. A lane that hits max_iterations reports
/// iterations = max_iterations + 1 and converged = false.
///
/// When `pool` is non-null the SpMM kernel of each iteration is blocked
/// over node ranges across up to `max_parallelism` workers (0 = whole
/// pool); the scale / restart / convergence epilogue stays serial, so
/// every lane — and therefore the whole result — is bitwise identical at
/// any thread count.
Result<std::vector<PmpnLaneResult>> ComputeProximityToNodesFused(
    const TransitionOperator& op, const std::vector<PmpnLaneSpec>& lanes,
    const RwrOptions& options = {}, ThreadPool* pool = nullptr,
    int max_parallelism = 0);

}  // namespace rtk

#endif  // RTK_RWR_PMPN_MULTI_H_
