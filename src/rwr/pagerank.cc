#include "rwr/pagerank.h"

#include <cmath>

namespace rtk {

Result<std::vector<double>> ComputePageRank(const TransitionOperator& op,
                                            const RwrOptions& options,
                                            IterativeSolveStats* stats) {
  const uint32_t n = op.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  std::vector<double> uniform(n, 1.0 / n);
  return ComputePersonalizedPageRank(op, uniform, options, stats);
}

Result<std::vector<double>> ComputePersonalizedPageRank(
    const TransitionOperator& op, const std::vector<double>& preference,
    const RwrOptions& options, IterativeSolveStats* stats) {
  const uint32_t n = op.num_nodes();
  if (preference.size() != n) {
    return Status::InvalidArgument("preference vector has wrong dimension");
  }
  if (!(options.alpha > 0.0) || !(options.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  double l1 = 0.0;
  for (double v : preference) {
    if (v < 0.0 || !std::isfinite(v)) {
      return Status::InvalidArgument("preference entries must be >= 0");
    }
    l1 += v;
  }
  if (std::abs(l1 - 1.0) > 1e-9) {
    return Status::InvalidArgument("preference vector must have L1 norm 1");
  }

  const double alpha = options.alpha;
  std::vector<double> x = preference;
  std::vector<double> next(n, 0.0);
  std::vector<double> scaled;  // ApplyForwardMulti's scratch
  IterativeSolveStats local;
  for (local.iterations = 1; local.iterations <= options.max_iterations;
       ++local.iterations) {
    RTK_RETURN_NOT_OK(op.ApplyForwardMulti(x, &next, &scaled, /*block=*/1));
    for (uint32_t i = 0; i < n; ++i) {
      next[i] = (1.0 - alpha) * next[i] + alpha * preference[i];
    }
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

}  // namespace rtk
