#include "core/brute_force.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/stopwatch.h"
#include "common/top_k.h"

namespace rtk {

namespace {

// Every node id, in order: the lanes of an all-columns solve.
std::vector<uint32_t> AllNodes(uint32_t n) {
  std::vector<uint32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0u);
  return nodes;
}

// Computes the exact top-K threshold rows for all columns of P, solving
// the columns in fused power-method blocks. Fills `topk` (n * K,
// descending per node); optionally also stores the full columns into
// `matrix`.
Status ComputeAllColumns(const TransitionOperator& op, uint32_t capacity_k,
                         const RwrOptions& rwr, ThreadPool* pool,
                         std::vector<double>* topk,
                         std::vector<double>* matrix) {
  const uint32_t n = op.num_nodes();
  topk->assign(static_cast<size_t>(n) * capacity_k, 0.0);
  return ForEachProximityColumn(
      op, AllNodes(n), rwr, pool,
      [&](size_t u, const std::vector<double>& col) {
        std::vector<double> top = TopKValuesDescending(col, capacity_k);
        std::copy(top.begin(), top.end(), topk->begin() + u * capacity_k);
        if (matrix != nullptr) {
          std::copy(col.begin(), col.end(), matrix->begin() + u * n);
        }
      });
}

}  // namespace

Result<std::vector<uint32_t>> BruteForceReverseTopk(
    const TransitionOperator& op, uint32_t q, uint32_t k,
    const RwrOptions& options, ThreadPool* pool) {
  const uint32_t n = op.num_nodes();
  if (q >= n) return Status::InvalidArgument("query node out of range");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  std::vector<uint8_t> in_result(n, 0);
  RTK_RETURN_NOT_OK(ForEachProximityColumn(
      op, AllNodes(n), options, pool,
      [&](size_t u, const std::vector<double>& col) {
        std::vector<double> top = TopKValuesDescending(col, k);
        const double kth = top.size() >= k ? top[k - 1] : 0.0;
        // Zero-proximity memberships excluded (see ReverseTopkSearcher
        // docs).
        if (col[q] >= kth && col[q] > 0.0) in_result[u] = 1;
      }));
  std::vector<uint32_t> result;
  for (uint32_t u = 0; u < n; ++u) {
    if (in_result[u]) result.push_back(u);
  }
  return result;
}

Result<IbfOracle> IbfOracle::Build(const TransitionOperator& op,
                                   const BaselineOptions& options,
                                   ThreadPool* pool) {
  const uint32_t n = op.num_nodes();
  if (n > options.ibf_max_nodes) {
    return Status::InvalidArgument(
        "IBF over n=" + std::to_string(n) + " exceeds ibf_max_nodes=" +
        std::to_string(options.ibf_max_nodes) +
        " (the whole point: O(n^2) memory is infeasible)");
  }
  if (options.capacity_k == 0) {
    return Status::InvalidArgument("capacity_k must be > 0");
  }
  Stopwatch watch;
  IbfOracle oracle;
  oracle.n_ = n;
  oracle.capacity_k_ = std::min(options.capacity_k, n);
  oracle.matrix_.assign(static_cast<size_t>(n) * n, 0.0);
  RTK_RETURN_NOT_OK(ComputeAllColumns(op, oracle.capacity_k_, options.rwr,
                                      pool, &oracle.topk_, &oracle.matrix_));
  oracle.build_seconds_ = watch.ElapsedSeconds();
  return oracle;
}

Result<std::vector<uint32_t>> IbfOracle::Query(uint32_t q, uint32_t k) const {
  if (q >= n_) return Status::InvalidArgument("query node out of range");
  if (k == 0 || k > capacity_k_) {
    return Status::InvalidArgument("k outside [1, K]");
  }
  std::vector<uint32_t> result;
  for (uint32_t u = 0; u < n_; ++u) {
    const double p_u_q = matrix_[static_cast<size_t>(u) * n_ + q];
    if (p_u_q > 0.0 &&
        p_u_q >= topk_[static_cast<size_t>(u) * capacity_k_ + (k - 1)]) {
      result.push_back(u);
    }
  }
  return result;
}

Result<FbfOracle> FbfOracle::Build(const TransitionOperator& op,
                                   const BaselineOptions& options,
                                   ThreadPool* pool) {
  if (options.capacity_k == 0) {
    return Status::InvalidArgument("capacity_k must be > 0");
  }
  Stopwatch watch;
  FbfOracle oracle;
  oracle.op_ = &op;
  oracle.n_ = op.num_nodes();
  oracle.capacity_k_ = std::min(options.capacity_k, oracle.n_);
  oracle.rwr_ = options.rwr;
  oracle.tie_epsilon_ = options.tie_epsilon;
  RTK_RETURN_NOT_OK(ComputeAllColumns(op, oracle.capacity_k_, options.rwr,
                                      pool, &oracle.topk_, nullptr));
  oracle.build_seconds_ = watch.ElapsedSeconds();
  return oracle;
}

Result<std::vector<uint32_t>> FbfOracle::Query(uint32_t q, uint32_t k,
                                               double* query_seconds) const {
  if (q >= n_) return Status::InvalidArgument("query node out of range");
  if (k == 0 || k > capacity_k_) {
    return Status::InvalidArgument("k outside [1, K]");
  }
  Stopwatch watch;
  RTK_ASSIGN_OR_RETURN(std::vector<double> to_q,
                       ComputeProximityToNode(*op_, q, rwr_));
  // The thresholds come from power-method column solves while to_q comes
  // from PMPN; a mathematical tie arrives with ~solver-epsilon noise, so
  // margins within tie_epsilon count as ties — the same rule as
  // QueryOptions::tie_epsilon (naive BF doesn't need it: it compares a
  // column against a threshold extracted from that same column).
  std::vector<uint32_t> result;
  for (uint32_t u = 0; u < n_; ++u) {
    if (to_q[u] > 0.0 &&
        to_q[u] >= topk_[static_cast<size_t>(u) * capacity_k_ + (k - 1)] -
                       tie_epsilon_) {
      result.push_back(u);
    }
  }
  if (query_seconds != nullptr) *query_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace rtk
