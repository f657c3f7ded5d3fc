#include "bca/hub_selection.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.h"
#include "bca/bca.h"
#include "rwr/transition.h"

namespace rtk {

namespace {

// Top-B node ids by a degree key, ties broken toward smaller id.
std::vector<uint32_t> TopByDegree(const Graph& graph, uint32_t b,
                                  bool use_in_degree) {
  std::vector<uint32_t> ids(graph.num_nodes());
  for (uint32_t u = 0; u < graph.num_nodes(); ++u) ids[u] = u;
  const auto key = [&](uint32_t u) {
    return use_in_degree ? graph.InDegree(u) : graph.OutDegree(u);
  };
  b = std::min<uint32_t>(b, graph.num_nodes());
  std::partial_sort(ids.begin(), ids.begin() + b, ids.end(),
                    [&](uint32_t x, uint32_t y) {
                      const uint32_t kx = key(x), ky = key(y);
                      if (kx != ky) return kx > ky;
                      return x < y;
                    });
  ids.resize(b);
  return ids;
}

Result<std::vector<uint32_t>> SelectGreedyBca(
    const Graph& graph, const HubSelectionOptions& options) {
  const uint32_t n = graph.num_nodes();
  const uint32_t target = std::min<uint32_t>(options.num_hubs, n);
  TransitionOperator op(graph);
  Rng rng(options.seed);
  std::set<uint32_t> hubs;
  // Probe from random starts; each probe promotes the non-start node where
  // the most ink was retained (Berkhin's scheme, bounded iterations). The
  // probe reuses the hub-aware runner so already-chosen hubs absorb ink and
  // later probes discover complementary hubs.
  int stall = 0;
  while (hubs.size() < target && stall < 8 * static_cast<int>(target) + 64) {
    std::vector<uint32_t> hub_vec(hubs.begin(), hubs.end());
    BcaOptions bca_opts;
    bca_opts.alpha = options.alpha;
    bca_opts.eta = options.eta;
    bca_opts.delta = 0.0;  // run purely on the iteration budget
    BcaRunner runner(op, hub_vec, bca_opts);
    const uint32_t start = static_cast<uint32_t>(rng.Uniform(n));
    runner.Start(start);
    for (int i = 0; i < options.max_probe_iterations; ++i) {
      if (runner.Step(PushStrategy::kBatch) == 0) break;
    }
    const SharedBcaState extracted = runner.Extract();
    const BcaEntryList retained = StateOf(extracted).retained();
    uint32_t best = UINT32_MAX;
    double best_ink = 0.0;
    for (size_t i = 0; i < retained.size(); ++i) {
      const uint32_t v = retained.id(i);
      const double ink = retained.value(i);
      if (v == start || hubs.count(v)) continue;
      if (ink > best_ink || (ink == best_ink && v < best)) {
        best_ink = ink;
        best = v;
      }
    }
    if (best == UINT32_MAX) {
      ++stall;
      continue;
    }
    hubs.insert(best);
  }
  return std::vector<uint32_t>(hubs.begin(), hubs.end());
}

}  // namespace

Result<std::vector<uint32_t>> SelectHubs(const Graph& graph,
                                         const HubSelectionOptions& options) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  switch (options.strategy) {
    case HubSelectionStrategy::kDegree: {
      if (options.degree_budget_b == 0) {
        return Status::InvalidArgument("degree_budget_b must be > 0");
      }
      std::vector<uint32_t> in_top =
          TopByDegree(graph, options.degree_budget_b, /*use_in_degree=*/true);
      std::vector<uint32_t> out_top =
          TopByDegree(graph, options.degree_budget_b, /*use_in_degree=*/false);
      std::set<uint32_t> merged(in_top.begin(), in_top.end());
      merged.insert(out_top.begin(), out_top.end());
      return std::vector<uint32_t>(merged.begin(), merged.end());
    }
    case HubSelectionStrategy::kGreedyBca:
      if (options.num_hubs == 0) {
        return Status::InvalidArgument("num_hubs must be > 0");
      }
      return SelectGreedyBca(graph, options);
    case HubSelectionStrategy::kRandom: {
      if (options.num_hubs == 0) {
        return Status::InvalidArgument("num_hubs must be > 0");
      }
      Rng rng(options.seed);
      const uint32_t count =
          std::min<uint32_t>(options.num_hubs, graph.num_nodes());
      std::vector<uint64_t> sample =
          rng.SampleWithoutReplacement(graph.num_nodes(), count);
      std::vector<uint32_t> hubs(sample.begin(), sample.end());
      std::sort(hubs.begin(), hubs.end());
      return hubs;
    }
  }
  return Status::InvalidArgument("unknown hub selection strategy");
}

}  // namespace rtk
