// OQ — the online reverse top-k query algorithm (paper Algorithm 4).
//
// Query evaluation for node q with parameter k <= K:
//   1. Compute the exact proximities p_{q,*} from all nodes to q via PMPN.
//   2. For each u: prune when p_u(q) < lb_u(k) (index lower bound);
//      confirm when |r_u| = 0 (bound is exact) or p_u(q) >= ub_u (Alg. 3).
//   3. Otherwise refine u's BCA state one iteration at a time, re-testing
//      both bounds, until u is pruned or confirmed.
//   4. Optionally write refined states back into the index so future
//      queries start from tighter bounds (Section 4.2.3).
//
// Execution is staged (exec/query_pipeline.h): ProximityStage (step 1,
// pluggable backend, parallel A^T x kernel), PruneStage (step 2, sharded
// scan), RefineStage (step 3, work-queue of pooled BcaRunners). This header
// keeps the per-query option/stat types and ReverseTopkSearcher, the thin
// facade the rest of the library queries through.

#ifndef RTK_CORE_ONLINE_QUERY_H_
#define RTK_CORE_ONLINE_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/proximity_backends.h"
#include "index/lower_bound_index.h"
#include "rwr/pmpn.h"
#include "rwr/transition.h"

namespace rtk {

class QueryPipeline;
struct QueryTrace;

/// \brief How a query's exactness was restored when the approximate row
/// could not certify every node (QueryStats::escalation_mode).
enum class EscalationMode : uint8_t {
  /// The row certified everything (or the row was exact / hits-only mode).
  kNone = 0,
  /// Only the uncertain nodes were settled, by targeted per-node solves
  /// composed against the row's certificate — the full row was kept.
  kPartial = 1,
  /// The whole row was recomputed with PMPN (the PR 5 fallback; this is
  /// what QueryStats::escalated reports for backward compatibility).
  kFull = 2,
};

inline std::string_view EscalationModeToString(EscalationMode mode) {
  switch (mode) {
    case EscalationMode::kNone:
      return "none";
    case EscalationMode::kPartial:
      return "partial";
    case EscalationMode::kFull:
      return "full";
  }
  return "unknown";
}

/// \brief Per-query options.
struct QueryOptions {
  /// Number of top slots q must occupy; 1 <= k <= index.capacity_k().
  uint32_t k = 10;
  /// Intra-query parallelism: stage work (PMPN kernel, prune shards,
  /// refinement queue) fans out across up to this many workers of the
  /// pipeline's thread pool. 1 = fully serial on the calling thread
  /// (always available, no pool needed); 0 = every pool worker. Results
  /// and index write-back are byte-identical at every setting — stage
  /// decomposition is order-independent (see exec/query_pipeline.h).
  int num_threads = 1;
  /// Write refined BCA states back into the index ("update" mode of the
  /// evaluation; makes future queries faster).
  bool update_index = true;
  /// Section 5.3's approximate variant: return only lower-bound survivors
  /// confirmed by the *initial* upper bound ("hits"), skipping refinement.
  bool approximate_hits_only = false;
  /// Stage-1 proximity backend selection (exec/proximity_backends.h). An
  /// empty name uses the pipeline's default (exact PMPN unless overridden);
  /// "monte-carlo" / "local-push" select the approximate estimators, whose
  /// error certificates widen the prune-stage comparisons. Without
  /// approximate_hits_only, results stay byte-identical to the exact
  /// pipeline at every backend choice: uncertain candidates trigger one
  /// bounded escalation to PMPN (QueryStats::escalated). With it, the
  /// answer is the certified-hit subset and no escalation happens.
  ProximityBackendConfig proximity;
  /// Partial escalation: when a certified approximate row leaves uncertain
  /// candidates, first try to settle just those nodes with targeted
  /// per-node solves (rwr/targeted_settle.h) instead of immediately
  /// recomputing the whole row with PMPN. Results and index write-back
  /// stay byte-identical to full escalation either way — a node the
  /// targeted solve cannot certify forces the full fallback — so this is
  /// purely a latency knob (kept switchable for A/B measurement).
  bool partial_escalation = true;
  /// Bound-targeted epsilon: derive the local-push stopping epsilon for
  /// this query from the index's observed smallest positive k-th bound
  /// (piggybacked on the previous prune scan at the same k) instead of the
  /// configured uniform target, so easy queries stop pushing early. Only
  /// affects QueryOptions::proximity = "local-push"; always sound
  /// (certify-or-escalate holds for every epsilon). Off by default so a
  /// fixed config stays exactly reproducible; the adaptive serving mode
  /// turns it on.
  bool bound_targeted_epsilon = false;
  /// Approximate-backend budget multiplier injected by the serving
  /// BudgetController (>= 1; 1 = configured budgets). Scales Monte-Carlo
  /// walks up and divides the local-push epsilon, so backends that keep
  /// escalating converge to budgets that certify.
  double approx_budget_scale = 1.0;
  /// PMPN solver settings (alpha must match the index).
  RwrOptions pmpn;
  /// Refinement push strategy; batch is the paper's choice.
  PushStrategy refine_strategy = PushStrategy::kBatch;
  /// Safety valve: nodes still undecided after this many refinement
  /// iterations are resolved exactly by a power-method solve.
  int max_refine_iterations_per_node = 10000;
  /// Stall cut-over: once no node holds residue >= eta, each forced
  /// single-max push removes only ~alpha*eta of mass — for a candidate
  /// whose margin is a near-tie that decay can take 10^5+ iterations. After
  /// this many consecutive stalled iterations the node is resolved exactly
  /// by one power-method solve instead (and, in update mode, its exact
  /// top-K is installed in the index, making it free forever after).
  int max_stalled_refinements = 64;
  /// Tie tolerance. Problem 1 uses ">=", and exact ties are common (a
  /// node's own maximum, symmetric structures). The query-side proximities
  /// come from PMPN while the bounds come from BCA/power-method solves, so
  /// a mathematical tie arrives with ~solver-epsilon noise; margins within
  /// this tolerance are treated as ties and included, exactly like the
  /// brute force's ">=" does. Must exceed the solvers' epsilon/alpha error.
  double tie_epsilon = 1e-9;
  /// When set (and update_index is true), refinement write-back is captured
  /// as IndexDelta values appended here instead of mutating the index. This
  /// is how snapshot-isolated serving searchers record their work: the
  /// deltas are merged into the next published snapshot by a single writer
  /// (serving/refinement_log.h). Must point at caller-owned storage that
  /// outlives the Query call; entries are appended, never cleared.
  /// Deltas arrive in ascending node order regardless of num_threads.
  std::vector<IndexDelta>* delta_sink = nullptr;
  /// Optional trace sink (obs/trace.h): when set, each pipeline stage
  /// appends one span (proximity, prune, refine, write-back; escalation
  /// re-runs append a second proximity/prune span) with the SAME measured
  /// durations that land in QueryStats — the two views cannot drift (a
  /// debug-build check in the pipeline enforces it). Tracing writes
  /// timestamps only: results and index side effects are byte-identical
  /// with or without a trace attached. Caller-owned; must outlive the
  /// Query call. Null (the default) costs nothing.
  QueryTrace* trace = nullptr;
  /// Deadline/cancellation bundle polled at stage boundaries (prox →
  /// prune → refine), between prune shards and between refinement
  /// candidates. When the query aborts (kDeadlineExceeded / kCancelled) no
  /// index write-back happens and no deltas are emitted — a controlled
  /// abort is all-or-nothing. Null (the default) skips every check; the
  /// caller owns the object and must keep it alive through the Query call.
  const ExecControl* control = nullptr;
};

/// \brief Counters filled in by Query (Figures 5-7 inputs).
///
/// Timing accounting: the three stage timers are measured independently;
/// scan_seconds and total_seconds are *derived* sums, so
///   scan_seconds  == prune_seconds + refine_seconds
///   total_seconds == pmpn_seconds + scan_seconds + overhead_seconds
/// hold by construction (overhead_seconds absorbs validation, result
/// merging and index write-back).
struct QueryStats {
  uint32_t query = 0;
  uint32_t k = 0;
  /// Nodes not pruned by the stored lower bound (paper's "cand").
  uint64_t candidates = 0;
  /// Candidates confirmed immediately: exact bound or first upper bound
  /// (paper's "hits").
  uint64_t hits = 0;
  /// Final result size.
  uint64_t results = 0;
  /// Candidates that required refinement iterations.
  uint64_t refined_nodes = 0;
  uint64_t refine_iterations = 0;
  /// Nodes resolved by the exact-solve safety valve (BCA stalled).
  uint64_t exact_fallbacks = 0;
  int pmpn_iterations = 0;
  /// Stage-1 backend the query selected (QueryOptions::proximity resolved;
  /// "pmpn" for the default exact pipeline).
  std::string backend;
  /// True when an approximate row could not certify the prune and stage 1
  /// was re-run with PMPN (the bounded exactness fallback; results are
  /// then byte-identical to the pure exact pipeline by construction).
  /// Equivalent to escalation_mode == kFull; partial escalation keeps the
  /// approximate row and does NOT set this flag.
  bool escalated = false;
  /// How exactness was restored: none (certified first pass), partial
  /// (targeted per-node settles), or full (whole-row PMPN re-run).
  EscalationMode escalation_mode = EscalationMode::kNone;
  /// Uncertain nodes at escalation time: the nodes settled individually
  /// (partial) or outstanding when the full re-run started (full); 0 when
  /// escalation_mode == kNone.
  uint64_t escalated_nodes = 0;
  /// Push work spent by targeted settles (0 unless partial was attempted).
  uint64_t settle_pushes = 0;
  /// Error certificate the selected backend reported for its row (uniform
  /// additive bounds; 0/0 for exact backends).
  double prox_eps_below = 0.0;
  double prox_eps_above = 0.0;
  /// Whether the certificate of the row the answer was DERIVED from is a
  /// deterministic guarantee (PMPN, local push, or any escalated query)
  /// rather than a w.h.p. bound (non-escalated Monte-Carlo). The serving
  /// layer only caches certified exact-tier answers.
  bool prox_certified = true;
  /// Approximate-backend work: Monte-Carlo walks simulated / local-push
  /// node pushes (0 for PMPN, which reports pmpn_iterations instead).
  uint64_t prox_walks = 0;
  uint64_t prox_pushes = 0;
  /// Workers the pipeline actually fanned out across (1 = serial).
  int threads_used = 1;
  /// Stage 1: PMPN proximity solve.
  double pmpn_seconds = 0.0;
  /// Stage 2: sharded candidate scan against the index bounds.
  double prune_seconds = 0.0;
  /// Stage 3: BCA refinement of undecided candidates.
  double refine_seconds = 0.0;
  /// The part of refine_seconds spent in the fused exact-fallback solve;
  /// > 0 exactly when exact_fallbacks > 0.
  double exact_fallback_seconds = 0.0;
  /// Everything outside the stages (validation, merge, write-back).
  double overhead_seconds = 0.0;
  /// Derived: prune_seconds + refine_seconds (the pre-pipeline "scan").
  double scan_seconds = 0.0;
  /// Derived: pmpn_seconds + scan_seconds + overhead_seconds.
  double total_seconds = 0.0;
};

/// \brief Executes reverse top-k queries against a LowerBoundIndex.
///
/// Membership semantics: Problem 1's "p_u^kmax <= p_u(q)" with ties
/// included, restricted to p_u(q) > 0. Without that restriction, any node
/// with fewer than k reachable targets (p_u^kmax = 0) would vacuously
/// "rank" every unreachable node in the graph; a node that cannot reach q
/// cannot meaningfully have q in its top-k. The brute-force baselines in
/// brute_force.h apply the identical rule.
///
/// Thread-safety: a searcher is a stateful façade over one QueryPipeline
/// (pooled O(n) workspaces) — do not call Query concurrently on the SAME
/// searcher; use one searcher per calling thread (the serving layer's
/// model). Within a single Query call the pipeline itself may fan out
/// across set_thread_pool()'s workers when options.num_threads != 1; that
/// internal parallelism is invisible to callers and byte-deterministic.
/// The index may be mutated by queries when the searcher was constructed
/// in read-write mode and update_index is set; in read-only mode the index
/// is never touched and refinements either flow to
/// QueryOptions::delta_sink or are discarded.
class ReverseTopkSearcher {
 public:
  /// Read-write mode: refinement may write back into `index`. The
  /// operator, index (and the graph beneath them) must outlive the
  /// searcher.
  ReverseTopkSearcher(const TransitionOperator& op, LowerBoundIndex* index);

  /// Read-only mode: `index` is never mutated, so many searchers may share
  /// one index concurrently (the serving layer's snapshot isolation).
  /// Refinements are recorded into QueryOptions::delta_sink when provided.
  ReverseTopkSearcher(const TransitionOperator& op,
                      const LowerBoundIndex& index);

  ~ReverseTopkSearcher();

  /// \brief Runs Algorithm 4. Returns the sorted list of result nodes: all
  /// u with p_u(q) >= p_u^kmax (ties included, matching Problem 1).
  Result<std::vector<uint32_t>> Query(uint32_t q, const QueryOptions& options,
                                      QueryStats* stats = nullptr);

  /// \brief Lends a thread pool to the pipeline for intra-query
  /// parallelism (non-owning; pass nullptr to detach). Without one,
  /// num_threads != 1 runs on a lazily created internal pool.
  void set_thread_pool(ThreadPool* pool);

  /// \brief The staged executor, exposed for stage-level control (e.g.
  /// swapping the proximity backend).
  QueryPipeline& pipeline() { return *pipeline_; }

  const LowerBoundIndex& index() const;

 private:
  std::unique_ptr<QueryPipeline> pipeline_;
};

}  // namespace rtk

#endif  // RTK_CORE_ONLINE_QUERY_H_
