#include "rwr/power_method.h"

#include <cmath>
#include <string>

namespace rtk {

Status ValidateRwrOptions(const RwrOptions& options) {
  if (!(options.alpha > 0.0) || !(options.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1), got " +
                                   std::to_string(options.alpha));
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  return Status::OK();
}

Result<std::vector<double>> ComputeProximityColumn(
    const TransitionOperator& op, uint32_t u, const RwrOptions& options,
    IterativeSolveStats* stats) {
  RTK_RETURN_NOT_OK(ValidateRwrOptions(options));
  const uint32_t n = op.num_nodes();
  if (u >= n) {
    return Status::InvalidArgument("node " + std::to_string(u) +
                                   " out of range (n=" + std::to_string(n) +
                                   ")");
  }
  const double alpha = options.alpha;
  std::vector<double> x(n, 0.0), next(n, 0.0);
  x[u] = 1.0;  // start from e_u: already a distribution
  IterativeSolveStats local;
  for (local.iterations = 1; local.iterations <= options.max_iterations;
       ++local.iterations) {
    op.ApplyForward(x, &next);
    for (uint32_t i = 0; i < n; ++i) next[i] *= (1.0 - alpha);
    next[u] += alpha;
    double delta = 0.0;
    for (uint32_t i = 0; i < n; ++i) delta += std::abs(next[i] - x[i]);
    x.swap(next);
    local.final_delta = delta;
    if (delta < options.epsilon) {
      local.converged = true;
      break;
    }
  }
  if (stats != nullptr) *stats = local;
  return x;
}

Result<std::vector<std::vector<double>>> ComputeProximityColumns(
    const TransitionOperator& op, const std::vector<uint32_t>& nodes,
    const RwrOptions& options) {
  std::vector<std::vector<double>> out;
  out.reserve(nodes.size());
  for (uint32_t u : nodes) {
    RTK_ASSIGN_OR_RETURN(std::vector<double> col,
                         ComputeProximityColumn(op, u, options));
    out.push_back(std::move(col));
  }
  return out;
}

}  // namespace rtk
