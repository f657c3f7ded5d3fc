#include "rwr/pmpn_multi.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace rtk {

namespace {

/// One lane of the in-flight block: where its column currently lives is
/// implied by its position in the active vector; `out` is the caller's
/// result slot it drains into.
struct ActiveLane {
  uint32_t query = 0;
  const ExecControl* control = nullptr;
  size_t out = 0;
};

/// Width-B iteration epilogue on the fresh SpMM output `next`: scale by
/// (1 - alpha), add the restart mass alpha at each lane's restart node, and
/// accumulate each lane's L1 delta against the previous iterate `x` in
/// ascending node order. B is a compile-time constant so the lane loops
/// unroll and the B deltas stay in registers; a lane's arithmetic never
/// depends on B or on its neighbours.
template <uint32_t B>
struct EpilogueKernel {
  static void Run(double* next, const double* x, uint32_t n, double alpha,
                  const ActiveLane* lanes, double* deltas) {
    const size_t total = static_cast<size_t>(n) * B;
    for (size_t i = 0; i < total; ++i) next[i] *= (1.0 - alpha);
    for (uint32_t j = 0; j < B; ++j) {
      next[static_cast<size_t>(lanes[j].query) * B + j] += alpha;
    }
    double acc[B] = {0.0};
    for (uint32_t i = 0; i < n; ++i) {
      const double* ni = next + static_cast<size_t>(i) * B;
      const double* xi = x + static_cast<size_t>(i) * B;
      for (uint32_t j = 0; j < B; ++j) acc[j] += std::abs(ni[j] - xi[j]);
    }
    for (uint32_t j = 0; j < B; ++j) deltas[j] = acc[j];
  }
};

/// Extracts column `j` of the width-`block` iterate into `row`.
void ExtractColumn(const std::vector<double>& x, uint32_t n, uint32_t block,
                   uint32_t j, std::vector<double>* row) {
  row->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    (*row)[i] = x[static_cast<size_t>(i) * block + j];
  }
}

/// Drops every lane of `active` not listed in `keep` (ascending block
/// positions) and repacks the iterate to the survivors' width. The
/// in-place forward copy is safe: every write lands at or before the
/// offset it reads from.
void RetainLanes(const std::vector<uint32_t>& keep, uint32_t n,
                 std::vector<double>* x, std::vector<ActiveLane>* active) {
  if (keep.size() == active->size()) return;
  const size_t old_block = active->size();
  const size_t new_block = keep.size();
  for (uint32_t i = 0; i < n; ++i) {
    const size_t src = i * old_block;
    const size_t dst = i * new_block;
    for (size_t k = 0; k < new_block; ++k) {
      (*x)[dst + k] = (*x)[src + keep[k]];
    }
  }
  std::vector<ActiveLane> survivors;
  survivors.reserve(new_block);
  for (uint32_t j : keep) survivors.push_back((*active)[j]);
  active->swap(survivors);
}

/// Runs one fused group of at most kMaxTransposeLanes lanes; results land
/// in their pre-assigned slots of `results`. `apply(x, &next, block)` is
/// the direction's SpMM kernel: next = A^T x or A x over `block` lanes.
template <typename Apply>
Status SolveGroup(uint32_t n, const std::vector<PmpnLaneSpec>& lanes,
                  size_t begin, size_t end, const RwrOptions& options,
                  const Apply& apply, std::vector<PmpnLaneResult>* results) {
  std::vector<ActiveLane> active;
  active.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    active.push_back({lanes[i].query, lanes[i].control, i});
  }

  // Each lane starts from e at its restart node: Theorem 2 allows any
  // initialization for PMPN, and for the forward solve e_u is already a
  // distribution.
  const uint32_t width = static_cast<uint32_t>(active.size());
  std::vector<double> x(static_cast<size_t>(n) * width, 0.0);
  std::vector<double> next(x.size(), 0.0);
  for (uint32_t j = 0; j < width; ++j) {
    x[static_cast<size_t>(active[j].query) * width + j] = 1.0;
  }

  double deltas[kMaxTransposeLanes];
  std::vector<uint32_t> keep;
  keep.reserve(width);
  for (int iter = 1; iter <= options.max_iterations && !active.empty();
       ++iter) {
    // Per-lane abort poll: a tripped lane is masked out BEFORE this
    // iteration spends work on it; its siblings are untouched.
    keep.clear();
    for (uint32_t j = 0; j < active.size(); ++j) {
      const ExecControl* control = active[j].control;
      if (control != nullptr && control->active()) {
        if (Status tripped = control->Check(); !tripped.ok()) {
          (*results)[active[j].out].status = std::move(tripped);
          continue;
        }
      }
      keep.push_back(j);
    }
    RetainLanes(keep, n, &x, &active);
    if (active.empty()) return Status::OK();

    // The fused O(m * B) SpMM goes parallel; the O(n * B) epilogue stays
    // serial in ascending node order per lane, so every lane's iterate
    // sequence is bitwise identical at every width and thread count.
    const uint32_t block = static_cast<uint32_t>(active.size());
    RTK_RETURN_NOT_OK(apply(x, &next, block));
    LaneKernelTable<EpilogueKernel>[block - 1](
        next.data(), x.data(), n, options.alpha, active.data(), deltas);
    x.swap(next);

    // Convergence masking: converged lanes drain out of the block
    // (compact-on-converge) so stragglers never pay for finished queries.
    keep.clear();
    for (uint32_t j = 0; j < block; ++j) {
      PmpnLaneResult& slot = (*results)[active[j].out];
      slot.stats.final_delta = deltas[j];
      if (deltas[j] < options.epsilon) {
        slot.stats.iterations = iter;
        slot.stats.converged = true;
        ExtractColumn(x, n, block, j, &slot.row);
      } else {
        keep.push_back(j);
      }
    }
    RetainLanes(keep, n, &x, &active);
  }

  // Iteration cap reached: the counter sits one past the cap when the
  // epsilon test never fired.
  const uint32_t block = static_cast<uint32_t>(active.size());
  for (uint32_t j = 0; j < block; ++j) {
    PmpnLaneResult& slot = (*results)[active[j].out];
    slot.stats.iterations = options.max_iterations + 1;
    slot.stats.converged = false;
    ExtractColumn(x, n, block, j, &slot.row);
  }
  return Status::OK();
}

/// Validates the call, then solves the lanes in groups of at most
/// kMaxTransposeLanes (wider batches simply take several fused passes).
template <typename Apply>
Result<std::vector<PmpnLaneResult>> SolveLanes(
    const TransitionOperator& op, const std::vector<PmpnLaneSpec>& lanes,
    const RwrOptions& options, const Apply& apply) {
  RTK_RETURN_NOT_OK(ValidateRwrOptions(options));
  const uint32_t n = op.num_nodes();
  for (const PmpnLaneSpec& lane : lanes) {
    if (lane.query >= n) {
      return Status::InvalidArgument(
          "node " + std::to_string(lane.query) + " out of range (n=" +
          std::to_string(n) + ")");
    }
  }
  std::vector<PmpnLaneResult> results(lanes.size());
  for (size_t begin = 0; begin < lanes.size(); begin += kMaxTransposeLanes) {
    const size_t end = std::min(lanes.size(),
                                begin + static_cast<size_t>(kMaxTransposeLanes));
    RTK_RETURN_NOT_OK(
        SolveGroup(n, lanes, begin, end, options, apply, &results));
  }
  return results;
}

}  // namespace

Result<std::vector<PmpnLaneResult>> ComputeProximityToNodesFused(
    const TransitionOperator& op, const std::vector<PmpnLaneSpec>& lanes,
    const RwrOptions& options, ThreadPool* pool, int max_parallelism) {
  return SolveLanes(op, lanes, options,
                    [&](const std::vector<double>& x, std::vector<double>* y,
                        uint32_t block) {
                      return op.ApplyTransposeMulti(x, y, block, pool,
                                                    max_parallelism);
                    });
}

Result<std::vector<PmpnLaneResult>> ComputeProximityColumnsFused(
    const TransitionOperator& op, const std::vector<PmpnLaneSpec>& lanes,
    const RwrOptions& options, ThreadPool* pool, int max_parallelism) {
  std::vector<double> scaled;  // the kernel's z = x / W, reused per pass
  return SolveLanes(op, lanes, options,
                    [&](const std::vector<double>& x, std::vector<double>* y,
                        uint32_t block) {
                      return op.ApplyForwardMulti(x, y, &scaled, block, pool,
                                                  max_parallelism);
                    });
}

}  // namespace rtk
