// TransitionOperator: the column-stochastic RWR transition matrix A of a
// graph, applied matrix-free in O(m).
//
// a_ij = w(j, i) / W(j) where W(j) is node j's total out-weight (Section 2.1
// of the paper; uniform 1/OD(j) for unweighted graphs, and the weighted
// variant of Section 5.4 for weighted ones). Both directions run as fused
// gathers over 1..32 node-major vectors in one pass: Y = A^T X over the
// out-CSR (the kernel of the paper's PMPN algorithm) and Y = A X over the
// in-CSR (the forward power method behind hub vectors and exact
// fallbacks).

#ifndef RTK_RWR_TRANSITION_H_
#define RTK_RWR_TRANSITION_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/graph.h"

namespace rtk {

/// \brief Widest accumulator block ApplyTransposeMulti and
/// ApplyForwardMulti accept. 32 doubles
/// = 4 cache lines per node: wide enough to amortize one CSR pass over a
/// full admission batch, narrow enough that a node's slab stays in L1
/// while its edges stream.
inline constexpr uint32_t kMaxTransposeLanes = 32;

/// \brief {&Kernel<1>::Run, ..., &Kernel<kMaxTransposeLanes>::Run}, indexed
/// by block - 1: one compile-time instantiation per lane-block width, so
/// every width a shrinking block passes through runs fully unrolled lane
/// loops. Callers must range-check the block before indexing.
template <template <uint32_t> class Kernel>
inline constexpr auto LaneKernelTable =
    []<uint32_t... I>(std::integer_sequence<uint32_t, I...>) {
      return std::array{&Kernel<I + 1>::Run...};
    }(std::make_integer_sequence<uint32_t, kMaxTransposeLanes>{});

/// \brief Shared knobs for iterative RWR computations.
struct RwrOptions {
  /// Restart probability alpha in (0, 1); the paper uses 0.15 throughout.
  double alpha = 0.15;
  /// L1 convergence threshold epsilon for iterative solvers.
  double epsilon = 1e-10;
  /// Hard iteration cap (the epsilon criterion normally fires well before).
  int max_iterations = 100000;
  /// Per-call override of the local-push stopping epsilon (> 0 replaces
  /// LocalPushOptions::epsilon for this solve). Iterative exact solvers
  /// ignore it, so one RwrOptions value can carry a query's adaptive push
  /// budget through the pipeline without perturbing PMPN or refinement.
  /// 0 (the default) defers to the backend's configured epsilon.
  double push_epsilon = 0.0;
};

/// \brief Matrix-free application of A and A^T for a graph.
///
/// Holds a reference to the graph; the graph must outlive the operator.
class TransitionOperator {
 public:
  explicit TransitionOperator(const Graph& graph);

  const Graph& graph() const { return *graph_; }
  uint32_t num_nodes() const { return graph_->num_nodes(); }

  /// \brief Transition probability mass leaving u along its i-th out-edge:
  /// w_i / W(u).
  double EdgeProbability(uint32_t u, size_t edge_index) const {
    auto weights = graph_->OutWeights(u);
    if (weights.empty()) return inv_out_weight_[u];  // uniform 1/OD(u)
    return weights[edge_index] * inv_out_weight_[u];
  }

  /// \brief Fused multi-vector transpose apply (SpMM): Y = A^T X for
  /// `block` right-hand sides in ONE pass over the CSR structure. At
  /// block = 1 this is the plain y = A^T x.
  ///
  /// X and Y are node-major lane-interleaved: lane j of node u lives at
  /// index u * block + j, so the `block` accumulators of an edge gather
  /// read/write contiguous fixed-width slabs. Every width from 1 to
  /// kMaxTransposeLanes has its own compile-time instantiation (fully
  /// unrolled lane loops), picked from a LaneKernelTable.
  ///
  /// Lane j of the result depends on lane j of X alone, bitwise, at every
  /// block width and thread count: each y[u] lane accumulates u's
  /// out-edges in CSR order with the same multiply-then-add shape, and
  /// blocking over node ranges (ParallelForRange on `pool`, at most
  /// `max_parallelism` workers, 0 = whole pool, null pool = serial)
  /// changes scheduling only. This is what lets the fused solver drop
  /// converged columns out of the block without perturbing the
  /// stragglers. Safe to call from inside a pool task.
  ///
  /// Errors: InvalidArgument unless 1 <= block <= kMaxTransposeLanes, x
  /// and y hold at least n * block values, and x and y are distinct. The
  /// checks hold in every build type.
  [[nodiscard]] Status ApplyTransposeMulti(const std::vector<double>& x,
                                           std::vector<double>* y,
                                           uint32_t block,
                                           ThreadPool* pool = nullptr,
                                           int max_parallelism = 0) const;

  /// \brief Fused multi-vector forward apply: Y = A X for `block`
  /// right-hand sides in the layout of ApplyTransposeMulti, as a gather
  /// over the in-CSR. At block = 1 this is the plain y = A x.
  ///
  /// Two passes: `scaled` (caller-owned scratch, resized to n * block)
  /// first receives z[u] = x[u] * (1 / W(u)) for every node and lane, then
  /// each y[v] lane sums z[u] (times w(u, v) when weighted) over v's
  /// in-row, whose sources ascend. Those are the terms, roundings and
  /// order of the textbook scatter over out-edges (for u ascending:
  /// y[v] += (x[u] * (1 / W(u))) * w(u, v)), so every lane is bitwise
  /// equal to it at every block width and thread count; the multiply by
  /// 1 / W(u) stays out of the edge loop so no build can fuse it into the
  /// add.
  /// Both passes are blocked over node ranges like ApplyTransposeMulti
  /// (same `pool` / `max_parallelism` contract). Safe to call from inside
  /// a pool task.
  ///
  /// Errors: InvalidArgument unless 1 <= block <= kMaxTransposeLanes, x
  /// and y hold at least n * block values, and x, y and `scaled` are
  /// pairwise distinct. The checks hold in every build type.
  [[nodiscard]] Status ApplyForwardMulti(const std::vector<double>& x,
                                         std::vector<double>* y,
                                         std::vector<double>* scaled,
                                         uint32_t block,
                                         ThreadPool* pool = nullptr,
                                         int max_parallelism = 0) const;

  /// \brief Samples an out-neighbor of u with probability proportional to
  /// edge weight (uniform when unweighted). u must have out-degree > 0.
  uint32_t SampleOutNeighbor(uint32_t u, Rng* rng) const;

 private:
  const Graph* graph_;
  std::vector<double> inv_out_weight_;  // 1 / W(u) per node
  // Per-node cumulative weights for weighted sampling; empty when the graph
  // is unweighted. Aligned with the out-edge arrays.
  std::vector<double> cumulative_weights_;
};

}  // namespace rtk

#endif  // RTK_RWR_TRANSITION_H_
