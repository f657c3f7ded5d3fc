#include "exec/refine_stage.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "common/top_k.h"
#include "core/upper_bound.h"
#include "rwr/pmpn_multi.h"

namespace rtk {

struct RefineStage::CandidateOutcome {
  Status status = Status::OK();
  bool is_result = false;
  bool has_delta = false;
  IndexDelta delta;
  uint64_t refine_iterations = 0;
  /// BCA stalled: Run decides the node from its exact column instead.
  bool exact_fallback = false;
};

RefineStage::RefineStage(const TransitionOperator& op,
                         const LowerBoundIndex& index)
    : op_(&op),
      index_(&index),
      runners_([&op, &index]() {
        return std::make_unique<BcaRunner>(op, index.hub_store().hubs(),
                                           index.bca_options());
      }) {}

Status RefineStage::RefineOne(uint32_t u, double p_u_q,
                              const RefineStageOptions& options,
                              BcaRunner* runner,
                              CandidateOutcome* out) const {
  const uint32_t k = options.k;
  const uint32_t capacity_k = index_->capacity_k();
  const double tie = options.tie_epsilon;
  const HubProximityStore& store = index_->hub_store();
  const ExecControl* control =
      (options.control != nullptr && options.control->active())
          ? options.control
          : nullptr;
  if (control != nullptr) RTK_RETURN_NOT_OK(control->Check());

  // Incremental approx tracking keeps per-iteration cost proportional to
  // the delta instead of re-expanding every hub vector.
  RTK_RETURN_NOT_OK(runner->Load(index_->State(u)));
  runner->BeginApproxTracking(store);
  std::vector<double> refined_topk;  // current lower bounds of u
  bool is_result = false;
  bool decided = false;
  int iters_here = 0;
  int consecutive_stalls = 0;
  while (!decided) {
    // Poll every 8 iterations: frequent enough that a stuck near-tie
    // candidate (10^4+ iterations) honors a deadline promptly, rare enough
    // that the clock read never shows up in profiles.
    if (control != nullptr && (iters_here & 7) == 0) {
      RTK_RETURN_NOT_OK(control->Check());
    }
    if (iters_here >= options.max_refine_iterations_per_node ||
        consecutive_stalls >= options.max_stalled_refinements) {
      // BCA's push granularity is exhausted (or the iteration cap hit):
      // Run decides the node from its exact column, solved together with
      // the query's other stalled candidates.
      out->exact_fallback = true;
      return Status::OK();
    }
    size_t pushed = runner->Step(options.refine_strategy);
    // A stalled iteration is one where no node reached the eta
    // threshold: absorption-only steps and forced single-max pushes both
    // count. (Counting only the latter would let absorb/push alternation
    // reset the counter forever while each sub-eta push removes just
    // ~alpha*eta of residue.)
    bool stalled = (runner->last_step_pushed() == 0);
    if (pushed == 0) {
      // Nothing above eta and nothing to absorb: force progress on the
      // largest residue.
      pushed = runner->Step(PushStrategy::kSingleMax);
      stalled = true;
    }
    if (stalled) {
      ++consecutive_stalls;
    } else {
      consecutive_stalls = 0;
    }
    ++iters_here;
    ++out->refine_iterations;

    const auto topk_pairs = runner->TopKApprox(store, k);
    refined_topk.assign(k, 0.0);
    for (size_t i = 0; i < topk_pairs.size(); ++i) {
      refined_topk[i] = topk_pairs[i].second;
    }
    const double residue = runner->ResidueL1();
    if (p_u_q < refined_topk[k - 1] - tie) {
      is_result = false;  // pruned by the refined lower bound
      decided = true;
    } else if (residue == 0.0 || pushed == 0) {
      is_result = true;  // bound is exact and p_u_q >= lb - tie
      decided = true;
    } else {
      const double ub = ComputeUpperBound(refined_topk, k, residue);
      if (p_u_q >= ub - tie) {
        is_result = true;  // confirmed by the refined upper bound
        decided = true;
      }
    }
  }
  out->is_result = is_result;

  // Write-back (Section 4.2.3): capture the refined state and FULL top-K
  // list so future queries at any k <= K benefit. (Exact fallbacks
  // already produced their exact delta above.)
  if (options.update_index) {
    const auto full_pairs = runner->TopKApprox(store, capacity_k);
    std::vector<double> full_values;
    full_values.reserve(full_pairs.size());
    for (const auto& [id, v] : full_pairs) full_values.push_back(v);
    out->has_delta = true;
    out->delta = {u, std::move(full_values), runner->Extract(),
                  runner->ResidueL1()};
  }
  return Status::OK();
}

void RefineStage::DecideExact(uint32_t u, double p_u_q,
                              const std::vector<double>& column,
                              const RefineStageOptions& options,
                              CandidateOutcome* out) const {
  const uint32_t k = options.k;
  std::vector<double> top = TopKValuesDescending(column, index_->capacity_k());
  out->is_result =
      (top.size() >= k ? top[k - 1] : 0.0) - options.tie_epsilon <= p_u_q;
  if (options.update_index) {
    // Upgrades the index entry to exact once the caller applies it.
    while (!top.empty() && top.back() <= 0.0) top.pop_back();
    out->has_delta = true;
    out->delta = {u, std::move(top), nullptr, /*residue_l1=*/0.0};
  }
}

Result<RefineResult> RefineStage::Run(const std::vector<uint32_t>& candidates,
                                      const std::vector<double>& to_q,
                                      const RefineStageOptions& options,
                                      ThreadPool* pool) {
  RefineResult result;
  if (candidates.empty()) return result;

  // Mmap-tier indexes (v3 files) keep the hub section cold until first
  // use; materialize it here so a corrupt hub blob surfaces as Corruption
  // instead of refining against an empty poison store. Free once warm.
  RTK_RETURN_NOT_OK(index_->EnsureHubStore());

  // Per-candidate slots keep the merge deterministic no matter which
  // worker ran which candidate.
  std::vector<CandidateOutcome> outcomes(candidates.size());
  // Sticky abort: the first candidate to observe an expired deadline or a
  // cancelled token records the reason; the rest are skipped instead of
  // each paying their own refinement before noticing.
  std::atomic<bool> aborted{false};
  const bool controlled =
      options.control != nullptr && options.control->active();
  ParallelForRange(
      pool, 0, static_cast<int64_t>(candidates.size()),
      options.max_parallelism, /*grain=*/1, [&](int64_t lo, int64_t hi) {
        auto runner = runners_.Acquire();
        for (int64_t i = lo; i < hi; ++i) {
          if (controlled && aborted.load(std::memory_order_relaxed)) {
            outcomes[i].status = options.control->Check();
            continue;
          }
          const uint32_t u = candidates[i];
          outcomes[i].status = RefineOne(u, to_q[u], options, runner.get(),
                                         &outcomes[i]);
          if (!outcomes[i].status.ok()) {
            aborted.store(true, std::memory_order_relaxed);
          }
        }
      });

  for (const CandidateOutcome& out : outcomes) {
    if (!out.status.ok()) return out.status;  // first error in node order
  }

  // Exact fallbacks: the stalled candidates' columns in fused forward
  // solves, one lane each, in node order. The lanes carry the request's
  // control, so an abort stops them all within one iteration. Groups of
  // kMaxTransposeLanes (the solver's own grouping) bound the live rows.
  std::vector<size_t> stalled;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].exact_fallback) stalled.push_back(i);
  }
  Stopwatch fallback_watch;
  std::vector<PmpnLaneSpec> lanes;
  for (size_t begin = 0; begin < stalled.size(); begin += kMaxTransposeLanes) {
    const size_t end = std::min(stalled.size(),
                                begin + static_cast<size_t>(kMaxTransposeLanes));
    lanes.clear();
    for (size_t s = begin; s < end; ++s) {
      lanes.push_back({candidates[stalled[s]], options.control});
    }
    RTK_ASSIGN_OR_RETURN(
        std::vector<PmpnLaneResult> solved,
        ComputeProximityColumnsFused(*op_, lanes, options.pmpn, pool,
                                     options.max_parallelism));
    for (size_t s = begin; s < end; ++s) {
      PmpnLaneResult& lane = solved[s - begin];
      RTK_RETURN_NOT_OK(lane.status);
      const uint32_t u = candidates[stalled[s]];
      DecideExact(u, to_q[u], lane.row, options, &outcomes[stalled[s]]);
    }
  }
  if (!stalled.empty()) {
    result.exact_fallback_seconds = fallback_watch.ElapsedSeconds();
  }

  // outcomes is candidate-ordered, so both outputs stay ascending.
  for (size_t i = 0; i < outcomes.size(); ++i) {
    CandidateOutcome& out = outcomes[i];
    if (out.is_result) result.accepted.push_back(candidates[i]);
    if (out.has_delta) result.deltas.push_back(std::move(out.delta));
    result.refine_iterations += out.refine_iterations;
    if (out.exact_fallback) ++result.exact_fallbacks;
  }
  return result;
}

}  // namespace rtk
