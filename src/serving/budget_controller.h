// BudgetController — feedback-driven approximation budgets for serving.
//
// The serving layer's certify-or-escalate contract makes approximate
// stage-1 backends a latency bet: a budget (push epsilon, walk count)
// that is too loose escalates often (paying the approximate attempt PLUS
// the exact re-run), one that is too tight wastes the approximation's
// whole advantage. The right budget depends on the graph, the index's
// current bound tightness, and the query mix — none of which are known at
// configuration time, and all of which drift as refinement tightens
// bounds and mutations rewrite the graph.
//
// This controller closes the loop per backend name with an AIMD-style
// rule driven by the pipeline's escalation outcomes:
//   * FULL escalation (the exact re-run)  — multiplicative increase of
//     the budget scale (x2): the budget was badly short.
//   * PARTIAL escalation (targeted settles resolved every uncertain
//     node) — gentle increase (x1.25): close, but uncertain nodes still
//     cost settle pushes.
//   * certified answer (no escalation)    — slow multiplicative decay of
//     the excess toward 1.0 (x0.98): cheap probes for a tighter budget,
//     so transient hard stretches don't pin the budget high.
// The scale is clamped to [1, 64] and consumed by
// QueryOptions::approx_budget_scale, which DIVIDES the local-push epsilon
// or MULTIPLIES the Monte-Carlo walk budget (exec/query_pipeline.h).
// Soundness is never the controller's job: every answer is still
// certified or escalated, so the scale only moves latency.
//
// Reset() zeroes the state back to scale 1.0 — called on every mutation
// publish (rtk_serving_adaptive_budget_resets_total counts them), because
// the new graph version invalidates what the feedback measured.
// Thread-safe; the per-record mutex guards a two-entry vector,
// far off any hot path's critical section.

#ifndef RTK_SERVING_BUDGET_CONTROLLER_H_
#define RTK_SERVING_BUDGET_CONTROLLER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/online_query.h"

namespace rtk {

/// \brief One backend's controller state (Snapshot element).
struct BackendBudgetState {
  std::string backend;
  double scale = 1.0;
  uint64_t certified = 0;
  uint64_t partial_escalations = 0;
  uint64_t full_escalations = 0;
};

/// \brief Per-backend-name AIMD budget controller. Thread-safe.
class BudgetController {
 public:
  /// \brief Current budget scale for `backend` (1.0 until feedback says
  /// otherwise). Feed into QueryOptions::approx_budget_scale.
  double ScaleFor(std::string_view backend) const;

  /// \brief Feeds one exact-tier outcome back: kNone = certified,
  /// kPartial / kFull = the escalation tier that ran.
  void Record(std::string_view backend, EscalationMode mode);

  /// \brief Drops all state back to scale 1.0 (mutation publish: the new
  /// graph version invalidates the measured feedback).
  void Reset();

  /// \brief Per-backend state, in first-seen order.
  std::vector<BackendBudgetState> Snapshot() const;

 private:
  BackendBudgetState* FindOrCreateLocked(std::string_view backend);

  mutable std::mutex mu_;
  std::vector<BackendBudgetState> states_;
};

}  // namespace rtk

#endif  // RTK_SERVING_BUDGET_CONTROLLER_H_
