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

/// Width-B forward scale pass: z[u] = x[u] * (1 / W(u)) for every lane of
/// u in [lo, hi).
template <uint32_t B>
struct ForwardScaleKernel {
  static void Run(const double* inv_out_weight, const double* x, double* z,
                  uint32_t lo, uint32_t hi) {
    for (uint32_t u = lo; u < hi; ++u) {
      const double inv = inv_out_weight[u];
      const double* xu = x + static_cast<size_t>(u) * B;
      double* zu = z + static_cast<size_t>(u) * B;
      for (uint32_t j = 0; j < B; ++j) zu[j] = xu[j] * inv;
    }
  }
};

/// Width-B forward gather: fills the B-wide slabs of y for v in [lo, hi)
/// by summing the scaled sources z over v's in-row in ascending source
/// order (one multiply by w(u, v) per term when weighted).
template <uint32_t B>
struct ForwardGatherKernel {
  static void Run(const Graph& graph, const double* z, double* y, uint32_t lo,
                  uint32_t hi) {
    for (uint32_t v = lo; v < hi; ++v) {
      auto sources = graph.InNeighbors(v);
      auto weights = graph.InWeights(v);
      double acc[B] = {0.0};
      if (weights.empty()) {
        for (uint32_t u : sources) {
          const double* zu = z + static_cast<size_t>(u) * B;
          for (uint32_t j = 0; j < B; ++j) acc[j] += zu[j];
        }
      } else {
        for (size_t i = 0; i < sources.size(); ++i) {
          const double w = weights[i];
          const double* zu = z + static_cast<size_t>(sources[i]) * B;
          for (uint32_t j = 0; j < B; ++j) acc[j] += zu[j] * w;
        }
      }
      double* yv = y + static_cast<size_t>(v) * B;
      for (uint32_t j = 0; j < B; ++j) yv[j] = acc[j];
    }
  }
};

/// The preconditions both multi-vector applies share.
Status CheckLaneOperands(const char* direction, uint32_t n, uint32_t block,
                         const std::vector<double>& x,
                         const std::vector<double>* y) {
  if (block < 1 || block > kMaxTransposeLanes) {
    return Status::InvalidArgument(
        std::string(direction) + " block " + std::to_string(block) +
        " outside [1, " + std::to_string(kMaxTransposeLanes) + "]");
  }
  const size_t len = static_cast<size_t>(n) * block;
  if (x.size() < len || y->size() < len || &x == y) {
    return Status::InvalidArgument(
        std::string(direction) + " operands need two distinct vectors of >= " +
        std::to_string(len) + " values");
  }
  return Status::OK();
}

}  // namespace

Status TransitionOperator::ApplyTransposeMulti(const std::vector<double>& x,
                                               std::vector<double>* y,
                                               uint32_t block,
                                               ThreadPool* pool,
                                               int max_parallelism) const {
  const uint32_t n = graph_->num_nodes();
  RTK_RETURN_NOT_OK(CheckLaneOperands("transpose", n, block, x, y));
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

Status TransitionOperator::ApplyForwardMulti(const std::vector<double>& x,
                                             std::vector<double>* y,
                                             std::vector<double>* scaled,
                                             uint32_t block, ThreadPool* pool,
                                             int max_parallelism) const {
  const uint32_t n = graph_->num_nodes();
  RTK_RETURN_NOT_OK(CheckLaneOperands("forward", n, block, x, y));
  if (scaled == &x || scaled == y) {
    return Status::InvalidArgument(
        "forward scratch must differ from both operands");
  }
  scaled->resize(static_cast<size_t>(n) * block);
  const auto scale = LaneKernelTable<ForwardScaleKernel>[block - 1];
  const auto gather = LaneKernelTable<ForwardGatherKernel>[block - 1];
  const Graph* graph = graph_;
  const double* inv = inv_out_weight_.data();
  const double* xd = x.data();
  double* zd = scaled->data();
  double* yd = y->data();
  // Every z[u] must be in place before any in-row reads it: two blocked
  // passes, joined in between.
  ParallelForRange(pool, 0, n, max_parallelism, /*grain=*/0,
                   [=](int64_t lo, int64_t hi) {
                     scale(inv, xd, zd, static_cast<uint32_t>(lo),
                           static_cast<uint32_t>(hi));
                   });
  ParallelForRange(pool, 0, n, max_parallelism, /*grain=*/0,
                   [=](int64_t lo, int64_t hi) {
                     gather(*graph, zd, yd, static_cast<uint32_t>(lo),
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
