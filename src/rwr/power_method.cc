#include "rwr/power_method.h"

#include <algorithm>
#include <string>
#include <utility>

#include "rwr/pmpn_multi.h"

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
  RTK_ASSIGN_OR_RETURN(
      std::vector<PmpnLaneResult> lanes,
      ComputeProximityColumnsFused(op, {PmpnLaneSpec{u, nullptr}}, options));
  if (stats != nullptr) *stats = lanes[0].stats;
  return std::move(lanes[0].row);
}

Result<std::vector<std::vector<double>>> ComputeProximityColumns(
    const TransitionOperator& op, const std::vector<uint32_t>& nodes,
    const RwrOptions& options) {
  std::vector<PmpnLaneSpec> lanes;
  lanes.reserve(nodes.size());
  for (uint32_t u : nodes) lanes.push_back({u, nullptr});
  RTK_ASSIGN_OR_RETURN(std::vector<PmpnLaneResult> solved,
                       ComputeProximityColumnsFused(op, lanes, options));
  std::vector<std::vector<double>> out;
  out.reserve(solved.size());
  for (PmpnLaneResult& lane : solved) out.push_back(std::move(lane.row));
  return out;
}

Status ForEachProximityColumn(
    const TransitionOperator& op, const std::vector<uint32_t>& nodes,
    const RwrOptions& options, ThreadPool* pool,
    const std::function<void(size_t, const std::vector<double>&)>& visit) {
  const size_t num_blocks =
      (nodes.size() + kColumnBlockLanes - 1) / kColumnBlockLanes;
  std::vector<Status> statuses(num_blocks);
  ParallelForRange(
      pool, 0, static_cast<int64_t>(num_blocks), /*max_parallelism=*/0,
      /*grain=*/1, [&](int64_t lo, int64_t hi) {
        std::vector<PmpnLaneSpec> lanes;
        for (auto block = static_cast<size_t>(lo);
             block < static_cast<size_t>(hi); ++block) {
          const size_t begin = block * kColumnBlockLanes;
          const size_t end = std::min(nodes.size(), begin + kColumnBlockLanes);
          lanes.clear();
          for (size_t i = begin; i < end; ++i) lanes.push_back({nodes[i]});
          Result<std::vector<PmpnLaneResult>> solved =
              ComputeProximityColumnsFused(op, lanes, options);
          if (!solved.ok()) {
            statuses[block] = solved.status();
            continue;
          }
          for (size_t i = begin; i < end; ++i) {
            visit(i, (*solved)[i - begin].row);
          }
        }
      });
  for (const Status& status : statuses) RTK_RETURN_NOT_OK(status);
  return Status::OK();
}

}  // namespace rtk
