#include "exec/proximity_backends.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <utility>

#include "rwr/pmpn_multi.h"

namespace rtk {

namespace {
std::atomic<uint64_t> g_backend_builds{0};
}  // namespace

uint64_t ProximityBackendBuildCount() {
  return g_backend_builds.load(std::memory_order_relaxed);
}

std::shared_ptr<const ReverseTransitionView> SharedReverseTransitionView(
    const TransitionOperator& op) {
  static std::mutex mu;
  static std::map<const TransitionOperator*,
                  std::weak_ptr<const ReverseTransitionView>>
      memo;
  std::lock_guard<std::mutex> lock(mu);
  // Sweep expired slots so the memo stays bounded by the number of LIVE
  // operators, not every operator ever seen.
  for (auto it = memo.begin(); it != memo.end();) {
    it = it->second.expired() ? memo.erase(it) : std::next(it);
  }
  std::weak_ptr<const ReverseTransitionView>& slot = memo[&op];
  if (auto view = slot.lock()) return view;
  auto view = std::make_shared<const ReverseTransitionView>(op);
  slot = view;
  return view;
}

Result<ProximityRow> PmpnProximityBackend::Compute(
    uint32_t q, const RwrOptions& options, ThreadPool* pool,
    int max_parallelism) const {
  // The fused solver's B = 1 lane.
  IterativeSolveStats stats;
  RTK_ASSIGN_OR_RETURN(std::vector<double> values,
                       ComputeProximityToNode(*op_, q, options, &stats, pool,
                                              max_parallelism));
  ProximityRow row;
  row.values = std::move(values);
  row.iterations = stats.iterations;
  return row;
}

std::vector<ProximityLaneOutcome> PmpnProximityBackend::ComputeMulti(
    const std::vector<ProximityLaneSpec>& lanes, const RwrOptions& options,
    ThreadPool* pool, int max_parallelism) const {
  std::vector<PmpnLaneSpec> specs;
  specs.reserve(lanes.size());
  for (const ProximityLaneSpec& lane : lanes) {
    specs.push_back({lane.query, lane.control});
  }
  std::vector<ProximityLaneOutcome> out(lanes.size());
  Result<std::vector<PmpnLaneResult>> fused = ComputeProximityToNodesFused(
      *op_, specs, options, pool, max_parallelism);
  if (!fused.ok()) {
    // Whole-call validation errors (bad alpha/epsilon, query out of range)
    // apply to every lane identically.
    for (ProximityLaneOutcome& slot : out) slot.status = fused.status();
    return out;
  }
  std::vector<PmpnLaneResult>& results = fused.value();
  for (size_t i = 0; i < lanes.size(); ++i) {
    if (!results[i].status.ok()) {
      out[i].status = std::move(results[i].status);
      continue;
    }
    out[i].row.values = std::move(results[i].row);
    out[i].row.iterations = results[i].stats.iterations;
  }
  return out;
}

Result<ProximityRow> MonteCarloProximityBackend::Compute(
    uint32_t q, const RwrOptions& options, ThreadPool* pool,
    int max_parallelism) const {
  MonteCarloColumnOptions mc = options_;
  mc.alpha = options.alpha;  // the index's alpha always wins
  RTK_ASSIGN_OR_RETURN(
      MonteCarloColumnResult column,
      MonteCarloProximityColumn(*op_, q, mc, pool, max_parallelism));
  ProximityRow row;
  row.values = std::move(column.estimates);
  row.eps_node = std::move(column.eps_node);
  row.eps_below = column.eps_uniform;
  row.eps_above = column.eps_uniform;
  row.certified = false;  // bounds hold w.h.p., not deterministically
  row.walks = column.total_walks;
  return row;
}

Result<ProximityRow> LocalPushProximityBackend::Compute(
    uint32_t q, const RwrOptions& options, ThreadPool* /*pool*/,
    int /*max_parallelism*/) const {
  LocalPushOptions push = options_;
  push.alpha = options.alpha;  // the index's alpha always wins
  if (options.push_epsilon > 0.0) {
    // Per-call budget from the pipeline (bound-targeted epsilon and/or the
    // serving controller's scale); the configured epsilon is the default.
    push.epsilon = options.push_epsilon;
  }
  RTK_ASSIGN_OR_RETURN(ContributionEstimate estimate,
                       ApproximateContributions(*view_, q, push));
  ProximityRow row;
  row.values = std::move(estimate.estimates);
  // One-sided certificate: estimates never exceed the true contributions,
  // and the remaining residual bounds the gap from above —
  //   c - p = (I - (1-a)A^T)^{-1} r, with the inverse nonnegative, entries
  //   <= 1/a and row sums <= 1/a — so both max_residual/a and
  //   residual_l1/a are valid uniform gaps; take the tighter.
  row.eps_below = 0.0;
  row.eps_above =
      std::min(estimate.max_residual, estimate.residual_l1) / push.alpha;
  row.pushes = estimate.pushes;
  return row;
}

std::vector<std::string_view> RegisteredProximityBackendNames() {
  return {kPmpnBackendName, kMonteCarloBackendName, kLocalPushBackendName};
}

bool IsPmpnBackendName(std::string_view name) {
  return name.empty() || name == kPmpnBackendName ||
         name == kBatchedPmpnBackendName;
}

Result<std::unique_ptr<ProximityBackend>> MakeProximityBackend(
    const TransitionOperator& op, const ProximityBackendConfig& config) {
  g_backend_builds.fetch_add(1, std::memory_order_relaxed);
  if (IsPmpnBackendName(config.name)) {
    return std::unique_ptr<ProximityBackend>(
        std::make_unique<PmpnProximityBackend>(op));
  }
  if (config.name == kMonteCarloBackendName) {
    return std::unique_ptr<ProximityBackend>(
        std::make_unique<MonteCarloProximityBackend>(op, config.monte_carlo));
  }
  if (config.name == kLocalPushBackendName) {
    return std::unique_ptr<ProximityBackend>(
        std::make_unique<LocalPushProximityBackend>(op, config.local_push));
  }
  std::string known;
  for (std::string_view name : RegisteredProximityBackendNames()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  return Status::InvalidArgument("unknown proximity backend \"" +
                                 config.name + "\" (registered: " + known +
                                 ")");
}

}  // namespace rtk
