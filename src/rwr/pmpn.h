// PMPN — Power Method for Proximity to Node (paper Algorithm 2, Theorem 2).
//
// Computes the row p_{q,*} of the proximity matrix: the exact RWR proximity
// from EVERY node to a given node q, via the iteration
//
//     x <- (1-alpha) A^T x + alpha e_q                       (Eq. 13)
//
// Theorem 2 proves this converges from any start at rate (1-alpha), even
// though the sequence is not stochastic (unlike the classic power method on
// A). This is the paper's side contribution and the first step of every
// online reverse top-k query: p_{q,u} = p_u(q) is the proximity from u to q.

#ifndef RTK_RWR_PMPN_H_
#define RTK_RWR_PMPN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Computes p_{q,*}, the exact proximities from all nodes to q
/// (row q of P), in O(iterations * m). `stats` (optional) receives the
/// convergence report; Theorem 2(c) bounds iterations by
/// log(eps/alpha) / log(1-alpha).
///
/// This is the B = 1 lane of ComputeProximityToNodesFused (pmpn_multi.h):
/// one solver, so the row, iteration count, converged flag and final delta
/// are bitwise those of q's lane in any fused batch. When `pool` is
/// non-null the A^T x kernel of each iteration is blocked over node ranges
/// across up to `max_parallelism` workers (0 = whole pool); the result is
/// bitwise identical at every thread count.
///
/// Errors: InvalidArgument for bad options (ValidateRwrOptions) or q >= n.
Result<std::vector<double>> ComputeProximityToNode(
    const TransitionOperator& op, uint32_t q, const RwrOptions& options = {},
    IterativeSolveStats* stats = nullptr, ThreadPool* pool = nullptr,
    int max_parallelism = 0);

/// \brief The Theorem 2(c) iteration bound for reaching L1 tolerance eps:
/// i > log(eps/alpha) / log(1-alpha).
int PmpnIterationBound(double alpha, double epsilon);

}  // namespace rtk

#endif  // RTK_RWR_PMPN_H_
