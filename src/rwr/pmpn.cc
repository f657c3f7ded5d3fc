#include "rwr/pmpn.h"

#include <cmath>
#include <utility>

#include "rwr/pmpn_multi.h"

namespace rtk {

Result<std::vector<double>> ComputeProximityToNode(
    const TransitionOperator& op, uint32_t q, const RwrOptions& options,
    IterativeSolveStats* stats, ThreadPool* pool, int max_parallelism) {
  RTK_ASSIGN_OR_RETURN(
      std::vector<PmpnLaneResult> lanes,
      ComputeProximityToNodesFused(op, {PmpnLaneSpec{q, nullptr}}, options,
                                   pool, max_parallelism));
  if (stats != nullptr) *stats = lanes[0].stats;
  return std::move(lanes[0].row);
}

int PmpnIterationBound(double alpha, double epsilon) {
  // i > log(eps/alpha) / log(1-alpha); both logs are negative.
  const double bound = std::log(epsilon / alpha) / std::log1p(-alpha);
  return static_cast<int>(std::ceil(bound)) + 1;
}

}  // namespace rtk
