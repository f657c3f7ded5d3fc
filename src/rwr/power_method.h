// Power Method for RWR proximity columns.
//
// Solves p_u = (1-alpha) A p_u + alpha e_u (Eq. 1) by the classic iteration
// x <- (1-alpha) A x + alpha e_u (Eq. 12), which converges at rate
// (1 - alpha) from any stochastic start. This is the exact-proximity
// workhorse: hub vectors in the index, refinement's exact fallbacks, the
// brute-force baselines, and ground truth in tests all use it. The solve
// is the forward direction of the fused solver (pmpn_multi.h): the
// functions here are its B = 1 lane and a plain batch of lanes, so a
// column is bitwise the same however many columns share its pass.

#ifndef RTK_RWR_POWER_METHOD_H_
#define RTK_RWR_POWER_METHOD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Convergence report of an iterative solve.
struct IterativeSolveStats {
  int iterations = 0;
  /// L1 distance between the last two iterates.
  double final_delta = 0.0;
  /// True when the epsilon criterion fired (false: max_iterations hit).
  bool converged = false;
};

/// \brief Checks the RwrOptions fields every iterative solver relies on:
/// alpha in (0, 1), epsilon > 0, max_iterations > 0. Returns
/// InvalidArgument naming the first bad field.
Status ValidateRwrOptions(const RwrOptions& options);

/// \brief Computes the proximity vector p_u (column u of P) by the power
/// method. Returns the dense vector; `stats` (optional) receives the
/// convergence report. This is the B = 1 lane of
/// ComputeProximityColumnsFused (pmpn_multi.h).
///
/// Errors: InvalidArgument for bad options (ValidateRwrOptions) or u >= n.
Result<std::vector<double>> ComputeProximityColumn(
    const TransitionOperator& op, uint32_t u, const RwrOptions& options = {},
    IterativeSolveStats* stats = nullptr);

/// \brief Computes the proximity columns of several nodes in one fused
/// call (lanes in groups of 32), each bitwise equal to its
/// ComputeProximityColumn.
Result<std::vector<std::vector<double>>> ComputeProximityColumns(
    const TransitionOperator& op, const std::vector<uint32_t>& nodes,
    const RwrOptions& options = {});

/// \brief Lanes per fused solve of ForEachProximityColumn. Measured on an
/// 8,193-node R-MAT graph (214 hubs, 4 threads, 2 MiB L2 per core): the
/// hub phase took 0.19-0.26 s at 8 to 16 lanes and 0.34 s at 32, whose
/// three n x 32 operands (6 MiB) no longer fit the L2.
inline constexpr size_t kColumnBlockLanes = 16;

/// \brief Solves p_u for every u of `nodes` in fused blocks of
/// kColumnBlockLanes lanes spread over `pool` (null = serial) and calls
/// visit(i, p_{nodes[i]}) exactly once per i, on the thread that solved
/// its block; visits from different blocks may run concurrently. Each
/// column is bitwise its ComputeProximityColumn. The join waits for these
/// blocks only (ParallelForRange), so the call is safe from inside a pool
/// task and never waits for unrelated pool work. This is the batch entry
/// for hub vectors and the brute-force baselines.
///
/// Errors: as ComputeProximityColumnsFused (the first failing block's, in
/// block order).
Status ForEachProximityColumn(
    const TransitionOperator& op, const std::vector<uint32_t>& nodes,
    const RwrOptions& options, ThreadPool* pool,
    const std::function<void(size_t, const std::vector<double>&)>& visit);

}  // namespace rtk

#endif  // RTK_RWR_POWER_METHOD_H_
