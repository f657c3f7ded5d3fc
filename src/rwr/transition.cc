#include "rwr/transition.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace rtk {

TransitionOperator::TransitionOperator(const Graph& graph) : graph_(&graph) {
  const uint32_t n = graph.num_nodes();
  inv_out_weight_.resize(n);
  for (uint32_t u = 0; u < n; ++u) {
    const double w = graph.OutWeightSum(u);
    assert(w > 0.0 && "graph has a dangling node; use a DanglingPolicy");
    inv_out_weight_[u] = 1.0 / w;
  }
  if (graph.is_weighted()) {
    cumulative_weights_.reserve(graph.num_edges());
    for (uint32_t u = 0; u < n; ++u) {
      double acc = 0.0;
      for (double w : graph.OutWeights(u)) {
        acc += w;
        cumulative_weights_.push_back(acc);
      }
    }
  }
}

void TransitionOperator::ApplyForward(const std::vector<double>& x,
                                      std::vector<double>* y) const {
  const uint32_t n = graph_->num_nodes();
  assert(x.size() == n && y->size() == n && &x != y);
  std::fill(y->begin(), y->end(), 0.0);
  for (uint32_t u = 0; u < n; ++u) {
    const double xu = x[u];
    if (xu == 0.0) continue;
    auto nbrs = graph_->OutNeighbors(u);
    auto weights = graph_->OutWeights(u);
    if (weights.empty()) {
      const double share = xu * inv_out_weight_[u];
      for (uint32_t v : nbrs) (*y)[v] += share;
    } else {
      const double scale = xu * inv_out_weight_[u];
      for (size_t i = 0; i < nbrs.size(); ++i) {
        (*y)[nbrs[i]] += scale * weights[i];
      }
    }
  }
}

namespace {

/// Width-B SpMM gather: fills the B-wide slabs of y for u in [lo, hi). B is
/// a compile-time constant so the lane loops unroll and vectorize; each
/// lane accumulates u's out-edges in CSR order (multiply-then-add when
/// weighted) and scales once by 1 / W(u), whatever B is.
template <uint32_t B>
struct GatherKernel {
  static void Run(const Graph& graph, const double* inv_out_weight,
                  const double* x, double* y, uint32_t lo, uint32_t hi) {
    for (uint32_t u = lo; u < hi; ++u) {
      auto nbrs = graph.OutNeighbors(u);
      auto weights = graph.OutWeights(u);
      double acc[B] = {0.0};
      if (weights.empty()) {
        for (uint32_t v : nbrs) {
          const double* xv = x + static_cast<size_t>(v) * B;
          for (uint32_t j = 0; j < B; ++j) acc[j] += xv[j];
        }
      } else {
        for (size_t i = 0; i < nbrs.size(); ++i) {
          const double w = weights[i];
          const double* xv = x + static_cast<size_t>(nbrs[i]) * B;
          for (uint32_t j = 0; j < B; ++j) acc[j] += w * xv[j];
        }
      }
      const double inv = inv_out_weight[u];
      double* yu = y + static_cast<size_t>(u) * B;
      for (uint32_t j = 0; j < B; ++j) yu[j] = acc[j] * inv;
    }
  }
};

}  // namespace

Status TransitionOperator::ApplyTransposeMulti(const std::vector<double>& x,
                                               std::vector<double>* y,
                                               uint32_t block,
                                               ThreadPool* pool,
                                               int max_parallelism) const {
  if (block < 1 || block > kMaxTransposeLanes) {
    return Status::InvalidArgument(
        "transpose block " + std::to_string(block) + " outside [1, " +
        std::to_string(kMaxTransposeLanes) + "]");
  }
  const uint32_t n = graph_->num_nodes();
  const size_t len = static_cast<size_t>(n) * block;
  if (x.size() < len || y->size() < len || &x == y) {
    return Status::InvalidArgument(
        "transpose operands need two distinct vectors of >= " +
        std::to_string(len) + " values");
  }
  const auto gather = LaneKernelTable<GatherKernel>[block - 1];
  const Graph* graph = graph_;
  const double* inv = inv_out_weight_.data();
  const double* xd = x.data();
  double* yd = y->data();
  ParallelForRange(pool, 0, n, max_parallelism, /*grain=*/0,
                   [=](int64_t lo, int64_t hi) {
                     gather(*graph, inv, xd, yd, static_cast<uint32_t>(lo),
                            static_cast<uint32_t>(hi));
                   });
  return Status::OK();
}

uint32_t TransitionOperator::SampleOutNeighbor(uint32_t u, Rng* rng) const {
  auto nbrs = graph_->OutNeighbors(u);
  assert(!nbrs.empty());
  if (cumulative_weights_.empty()) {
    return nbrs[rng->Uniform(nbrs.size())];
  }
  // Binary search the node's cumulative-weight slice.
  const uint64_t begin = &nbrs[0] - graph_->OutNeighbors(0).data();
  const double* lo = cumulative_weights_.data() + begin;
  const double* hi = lo + nbrs.size();
  const double total = *(hi - 1) - (begin == 0 ? 0.0 : *(lo - 1));
  const double base = (begin == 0 ? 0.0 : *(lo - 1));
  const double target = base + rng->NextDouble() * total;
  const double* it = std::upper_bound(lo, hi, target);
  if (it == hi) --it;  // numerical edge: target == total
  return nbrs[it - lo];
}

}  // namespace rtk
