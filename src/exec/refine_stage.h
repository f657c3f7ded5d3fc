// RefineStage — stage 3 of the query pipeline (Algorithm 4 line 13 /
// Algorithm 1 lines 6-7): drain the prune stage's undecided candidates
// through BCA refinement until each is pruned or confirmed.
//
// Candidates are independent: refining u reads only u's stored BCA state
// (plus the shared immutable hub store) and decides against u's own
// refined bounds. The stage therefore runs them through a work-queue —
// each worker leases a BcaRunner from a WorkspacePool (O(n) accumulators,
// reused across queries) and claims candidates one at a time, which
// load-balances the heavily skewed per-candidate cost. A candidate whose
// BCA stalls is decided from its exact column instead: once every BCA
// loop has finished, the stalled candidates' columns are solved together,
// one lane each, in fused forward power-method passes
// (ComputeProximityColumnsFused), so a query with many fallbacks streams
// the graph once per iteration rather than once per fallback. Decisions
// and write-back deltas are recorded per candidate and emitted in
// ascending node order, so the stage output is byte-identical to the
// serial one-node-at-a-time loop at every thread count.

#ifndef RTK_EXEC_REFINE_STAGE_H_
#define RTK_EXEC_REFINE_STAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bca/bca.h"
#include "common/cancellation.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/workspace_pool.h"
#include "index/lower_bound_index.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Refinement parameters (a projection of QueryOptions).
struct RefineStageOptions {
  uint32_t k = 10;
  double tie_epsilon = 1e-9;
  PushStrategy refine_strategy = PushStrategy::kBatch;
  int max_refine_iterations_per_node = 10000;
  int max_stalled_refinements = 64;
  /// Capture refined states as write-back deltas.
  bool update_index = true;
  /// Solver settings for the exact-fallback safety valve.
  RwrOptions pmpn;
  /// Worker cap for the candidate queue and the fallback solve's kernel
  /// (0 = whole pool, 1 = serial).
  int max_parallelism = 1;
  /// Deadline/cancellation, polled before each candidate, every few
  /// refinement iterations inside a candidate's loop, and once per
  /// iteration of the fallback solve, so even one long-refining node
  /// cannot pin an abandoned request. An aborted Run returns the reason
  /// (kDeadlineExceeded / kCancelled) and emits no deltas. Null skips all
  /// checks.
  const ExecControl* control = nullptr;
};

/// \brief Stage output; both vectors are in ascending node order.
struct RefineResult {
  /// Candidates confirmed as results.
  std::vector<uint32_t> accepted;
  /// Refined states to write back (empty unless update_index). The caller
  /// applies them — to the mutable index or a delta sink — preserving this
  /// order, which matches the serial write-back order.
  std::vector<IndexDelta> deltas;
  uint64_t refine_iterations = 0;
  uint64_t exact_fallbacks = 0;
  /// Wall time of the fused exact-fallback solves (0 when none ran).
  double exact_fallback_seconds = 0.0;
};

/// \brief Owns the BcaRunner pool; construct once per pipeline and reuse.
/// Read-only on the index passed to Run (write-back is the caller's job).
class RefineStage {
 public:
  /// The operator and index (hub store, BCA options) must outlive the
  /// stage.
  RefineStage(const TransitionOperator& op, const LowerBoundIndex& index);

  /// \brief Refines `candidates` (ascending node ids from the prune
  /// stage); `to_q` is the proximity stage's row. Safe to call from inside
  /// a pool task.
  Result<RefineResult> Run(const std::vector<uint32_t>& candidates,
                           const std::vector<double>& to_q,
                           const RefineStageOptions& options,
                           ThreadPool* pool);

 private:
  struct CandidateOutcome;

  /// One candidate's BCA refinement loop on a leased runner; a stall only
  /// marks the outcome for the exact fallback.
  Status RefineOne(uint32_t u, double p_u_q, const RefineStageOptions& options,
                   BcaRunner* runner, CandidateOutcome* out) const;

  /// Decides a stalled candidate from its exact column p_u and records
  /// its exact write-back delta.
  void DecideExact(uint32_t u, double p_u_q, const std::vector<double>& column,
                   const RefineStageOptions& options,
                   CandidateOutcome* out) const;

  const TransitionOperator* op_;
  const LowerBoundIndex* index_;
  WorkspacePool<BcaRunner> runners_;
};

}  // namespace rtk

#endif  // RTK_EXEC_REFINE_STAGE_H_
