// Power Method for RWR proximity columns.
//
// Solves p_u = (1-alpha) A p_u + alpha e_u (Eq. 1) by the classic iteration
// x <- (1-alpha) A x + alpha e_u (Eq. 12), which converges at rate
// (1 - alpha) from any stochastic start. This is the exact-proximity
// workhorse: hub vectors in the index, the brute-force baselines, and
// ground truth in tests all use it.

#ifndef RTK_RWR_POWER_METHOD_H_
#define RTK_RWR_POWER_METHOD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
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
/// convergence report.
///
/// Errors: InvalidArgument for bad u/alpha.
Result<std::vector<double>> ComputeProximityColumn(
    const TransitionOperator& op, uint32_t u, const RwrOptions& options = {},
    IterativeSolveStats* stats = nullptr);

/// \brief Computes proximity columns for several nodes (convenience wrapper
/// used by hub precomputation; columns are independent solves).
Result<std::vector<std::vector<double>>> ComputeProximityColumns(
    const TransitionOperator& op, const std::vector<uint32_t>& nodes,
    const RwrOptions& options = {});

}  // namespace rtk

#endif  // RTK_RWR_POWER_METHOD_H_
