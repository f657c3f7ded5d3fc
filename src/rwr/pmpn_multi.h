// Fused multi-source RWR solves — Algorithm 2 (PMPN) and the forward power
// method for B source nodes at once.
//
// Both run one power loop per lane SIMULTANEOUSLY:
//   PMPN     x_b <- (1-alpha) A^T x_b + alpha e_{q_b}   (row p_{q_b,*})
//   forward  x_b <- (1-alpha) A   x_b + alpha e_{u_b}   (column p_{u_b})
// One blocked SpMM pass over the graph (TransitionOperator::
// ApplyTransposeMulti over the out-CSR, or ApplyForwardMulti over the
// in-CSR) feeds all B accumulators per edge, so the graph is streamed once
// per iteration instead of once per lane. The two directions share
// everything but that kernel: the scale / restart / L1-delta epilogue,
// the convergence test and the lane compaction below. This is the serving
// layer's throughput lever under deep queues (the proximity stage
// dominates Algorithm 4's cost, paper Section 6), and it batches the
// index's hub vectors and refinement's exact fallbacks the same way.
//
// Exactness contract: lane b's iterate sequence depends on its own node
// alone, bitwise, at every batch width and thread count, and the
// single-source solvers ComputeProximityToNode and ComputeProximityColumn
// are these solvers' B = 1 lanes. Per-lane convergence masking makes that
// possible without stragglers paying for finished lanes: a converged lane
// is extracted and the accumulator block COMPACTS to the surviving lanes
// (each lane's arithmetic never depends on which lanes accompany it),
// preserving each lane's exact iteration count, convergence delta and
// result vector. Every width the block passes through
// (1..kMaxTransposeLanes) runs its own fixed-width instantiation of both
// the SpMM gather and the epilogue.
//
// Per-lane deadline/cancellation: a lane whose ExecControl trips is masked
// out exactly like a converged one — its siblings proceed untouched, which
// is what lets the serving batch former honor per-request aborts inside a
// fused solve, and one request's fallbacks abort together.

#ifndef RTK_RWR_PMPN_MULTI_H_
#define RTK_RWR_PMPN_MULTI_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "rwr/pmpn.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief One fused solve input: the lane's restart node (the query q of
/// a PMPN lane, the source u of a forward lane) plus an optional abort
/// control polled once per iteration (null = never aborts).
struct PmpnLaneSpec {
  uint32_t query = 0;
  const ExecControl* control = nullptr;
};

/// \brief One fused solve output. `status` is OK for a completed lane
/// (row/stats then equal the lane's single-source solve,
/// ComputeProximityToNode(q) or ComputeProximityColumn(u), exactly) or the
/// abort
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

/// \brief Computes the column p_u (the proximities from u to every node)
/// for every lane via the fused forward iteration; lane.query is the
/// source u. Same grouping, error, abort, iteration-cap and thread-count
/// contract as ComputeProximityToNodesFused; the kernel is
/// ApplyForwardMulti.
Result<std::vector<PmpnLaneResult>> ComputeProximityColumnsFused(
    const TransitionOperator& op, const std::vector<PmpnLaneSpec>& lanes,
    const RwrOptions& options = {}, ThreadPool* pool = nullptr,
    int max_parallelism = 0);

}  // namespace rtk

#endif  // RTK_RWR_PMPN_MULTI_H_
