// QueryPipeline — the staged executor of Algorithm 4.
//
//    q ──► ProximityStage ──► PruneStage ──► RefineStage ──► merge/write-back
//          (backend seam,     (sharded       (work-queue of
//           parallel A^T x)    bound scan)    pooled BcaRunners)
//
// Each stage fans out across up to QueryOptions::num_threads workers of
// the attached thread pool. Results, stats counters and index write-back
// are byte-identical at every thread count because every parallel
// decomposition is order-independent:
//   * proximity: the parallel kernel computes each y[u] with the serial
//     gather order, and the convergence test stays serial, so the PMPN
//     row is bitwise thread-invariant;
//   * prune: per-node classification reads only that node's bounds, and
//     per-shard lists concatenated in shard order ARE ascending node
//     order;
//   * refine: candidates are independent (each reads/writes only its own
//     index entry) and outcomes are emitted in candidate order; write-back
//     is applied by the pipeline after the stage, in ascending node order,
//     exactly like the serial loop (and ApplyIfTighter-based sinks merge
//     monotonically anyway).
//
// Tiered proximity backends: stage 1 is name-keyed. Each Run resolves
// QueryOptions::proximity against the built-in exact PMPN backend, the
// settable default, an engine-shared catalog (set_shared_backends), or a
// lazily constructed cache entry (the factory in
// exec/proximity_backends.h). An approximate backend returns its row with
// an additive error certificate; the prune stage widens its comparisons by
// it, yielding certified hits plus the uncertain remainder. When exact
// results are demanded and any node is uncertain, the pipeline escalates
// in two tiers:
//
//   * PARTIAL escalation (QueryOptions::partial_escalation, certified
//     rows only): each uncertain node is settled individually by a
//     targeted forward push (rwr/targeted_settle.h) whose brackets
//     compose the node's own residual with the row's certificate. The
//     settle classifier applies EXACTLY the widened prune comparisons, so
//     a settled drop/hit matches the exact scan's classification, and a
//     node the exact scan would send to refinement can never be certified
//     either way (its exact value fails both certificates for every
//     bracket containing it) — so when every uncertain node settles, the
//     exact scan's undecided set is provably empty: no refinement, no
//     deltas, and hits = certified first-pass hits + settled hits, which
//     is precisely what full escalation would have produced.
//   * FULL escalation (the PR 5 fallback, and the only path for
//     uncertified Monte-Carlo rows): recompute stage 1 with PMPN and
//     re-run prune + refine on the exact row. Any unsettled node discards
//     the partial attempt and takes this path verbatim.
//
// Either way results and index write-back are byte-identical to the pure
// exact pipeline at every backend choice (QueryStats::escalation_mode
// records which tier ran). In hits-only mode the uncertain nodes are
// dropped instead, making the answer a certified subset of the exact one.
//
// Bound-targeted epsilon (QueryOptions::bound_targeted_epsilon): the prune
// scan piggybacks the smallest positive stored k-th bound it touches; the
// pipeline caches it per k and derives the NEXT local-push stopping
// epsilon at that k from it (clamped), so easy queries stop pushing as
// soon as their certificate clears the index's actual decision gap.
// QueryOptions::approx_budget_scale (the serving controller's knob)
// multiplies Monte-Carlo walk budgets and divides the push epsilon.
// Certify-or-escalate keeps every epsilon sound.
//
// The pipeline is the engine behind ReverseTopkSearcher; drive it directly
// for stage-level control (custom proximity backends, stage timings).

#ifndef RTK_EXEC_QUERY_PIPELINE_H_
#define RTK_EXEC_QUERY_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/workspace_pool.h"
#include "core/online_query.h"
#include "exec/proximity_backends.h"
#include "exec/proximity_stage.h"
#include "exec/refine_stage.h"
#include "index/lower_bound_index.h"
#include "rwr/targeted_settle.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Staged Algorithm 4 executor. Not safe for concurrent Run calls
/// on one instance (stage workspaces are reused); one pipeline per calling
/// thread, exactly like the searcher facade. Within a Run call the stages
/// themselves parallelize on the attached pool.
class QueryPipeline {
 public:
  /// Read-write mode: refinement writes back into `index` (unless a
  /// delta_sink redirects it). Operator and index must outlive the
  /// pipeline.
  QueryPipeline(const TransitionOperator& op, LowerBoundIndex* index);

  /// Read-only mode: the index is never mutated; refinements flow to
  /// QueryOptions::delta_sink or are discarded.
  QueryPipeline(const TransitionOperator& op, const LowerBoundIndex& index);

  ~QueryPipeline();

  /// \brief Lends a pool for intra-query parallelism (non-owning; nullptr
  /// detaches). Without one, num_threads != 1 lazily creates an internal
  /// pool of DefaultThreads() workers.
  void set_thread_pool(ThreadPool* pool) { external_pool_ = pool; }

  /// \brief Swaps the DEFAULT proximity backend — the one Run uses when
  /// QueryOptions::proximity names nothing. Must not be null. The default
  /// is also addressable by its name() in QueryOptions::proximity. The
  /// built-in exact PMPN backend stays available regardless (it anchors
  /// escalation).
  void set_proximity_backend(std::unique_ptr<ProximityBackend> backend);
  const ProximityBackend& proximity_backend() const {
    return proximity_ != nullptr ? *proximity_ : *pmpn_backend_;
  }

  /// \brief Attaches an engine-owned shared backend catalog (non-owning;
  /// nullptr detaches). ResolveBackend consults it on exact config match
  /// before the per-pipeline cache, so pooled searchers reuse backends
  /// built once at engine setup instead of re-parsing tier configs per
  /// pipeline. The catalog must outlive the attachment.
  void set_shared_backends(const SharedProximityBackends* shared) {
    shared_backends_ = shared;
  }

  /// \brief Resolves a backend the way Run does: "" or the default's name
  /// -> the default, "pmpn" or its alias "batched-pmpn" -> the built-in
  /// exact backend, any other registered name -> a cached instance built
  /// from `config` (rebuilt when the config changed). InvalidArgument for
  /// unknown names.
  Result<ProximityBackend*> ResolveBackend(
      const ProximityBackendConfig& config);

  /// \brief Runs the staged Algorithm 4 for query node q.
  Result<std::vector<uint32_t>> Run(uint32_t q, const QueryOptions& options,
                                    QueryStats* stats = nullptr);

  /// \brief Runs stages 2+ (prune / refine / merge / write-back) for query
  /// node q against a PRECOMPUTED stage-1 row — the fan-back entry the
  /// serving batch former uses after a fused multi-query proximity solve.
  ///
  /// `row` must be exactly what a backend's Compute(q, ...) would have
  /// returned (the fused solver guarantees bitwise identity), so every
  /// downstream stage — and therefore results and index write-back — is
  /// byte-identical to an ordinary Run. `row_seconds` is this query's
  /// share of the fused solve's wall time; it lands in
  /// QueryStats::pmpn_seconds and the proximity trace span so the
  /// per-phase accounting invariants keep holding. `backend_name` is
  /// recorded as QueryStats::backend. QueryOptions::proximity is ignored
  /// (stage 1 already happened); escalation still anchors on the built-in
  /// PMPN backend if the supplied row is approximate.
  Result<std::vector<uint32_t>> RunWithRow(uint32_t q,
                                           const QueryOptions& options,
                                           ProximityRow row,
                                           double row_seconds,
                                           std::string_view backend_name,
                                           QueryStats* stats = nullptr);

  const LowerBoundIndex& index() const { return *index_; }

 private:
  /// Resolves (pool, worker cap) for a Run from options.num_threads.
  ThreadPool* EffectivePool(const QueryOptions& options, int* max_parallelism);

  /// Validation shared by both entries: control pre-check, q / k range.
  /// Fills `control` with the effective (active) control or null.
  Status CheckRunPreconditions(uint32_t q, const QueryOptions& options,
                               const ExecControl** control) const;

  /// Stages 2+ of a run: prune, optional escalation, refine, merge and
  /// write-back, stats/trace finalization. `local` arrives with the
  /// stage-1 fields (backend, pmpn_seconds, row counters) already set.
  Result<std::vector<uint32_t>> RunStages(uint32_t q,
                                          const QueryOptions& options,
                                          const ExecControl* control,
                                          ThreadPool* pool,
                                          int max_parallelism,
                                          const RwrOptions& pmpn_opts,
                                          ProximityRow row, QueryStats local,
                                          QueryStats* stats);

  /// Applies the self-tuning knobs to the resolved stage-1 backend before
  /// Compute: derives a bound-targeted / budget-scaled push epsilon into
  /// pmpn_opts->push_epsilon for the local-push backend (a caller-set
  /// push_epsilon > 0 wins and is left alone), or re-resolves a
  /// walk-scaled Monte-Carlo config when approx_budget_scale > 1. No-op
  /// for exact backends.
  Status ApplyAdaptiveBudget(const QueryOptions& options,
                             ProximityBackend** backend,
                             RwrOptions* pmpn_opts);

  /// Partial escalation: tries to settle every uncertain node with a
  /// targeted forward push (see the class docs). On success (all settled)
  /// appends the settled hits to *settled_hits (ascending, since
  /// `undecided` is ascending) and returns true; on any unsettled node
  /// returns false and the caller falls back to full escalation.
  /// *total_pushes accumulates settle pushes either way. Deterministic at
  /// every thread count: every node is settled (no early exit) and each
  /// settle is an independent pure function of (node, row, index).
  bool SettleUndecided(uint32_t q, const QueryOptions& options,
                       const RwrOptions& pmpn_opts, ThreadPool* pool,
                       int max_parallelism, const ProximityRow& row,
                       const std::vector<uint32_t>& undecided,
                       std::vector<uint32_t>* settled_hits,
                       uint64_t* total_pushes);

  /// Bound-targeted epsilon memo: last observed positive decision gap
  /// (PruneResult::min_positive_kth_bound) per k, fed by each prune pass
  /// and consumed by ApplyAdaptiveBudget on the NEXT query at that k.
  double CachedKthGap(uint32_t k) const;
  void RecordKthGap(uint32_t k, double gap);

  /// A name-keyed, config-pinned cache entry (see ResolveBackend).
  struct CachedBackend {
    ProximityBackendConfig config;
    std::unique_ptr<ProximityBackend> backend;
  };

  const TransitionOperator* op_;
  const LowerBoundIndex* index_;
  LowerBoundIndex* mutable_index_;  // null in read-only mode
  std::unique_ptr<ProximityBackend> pmpn_backend_;  // always available
  std::unique_ptr<ProximityBackend> proximity_;     // optional default override
  std::vector<CachedBackend> backend_cache_;
  const SharedProximityBackends* shared_backends_ = nullptr;  // non-owning
  std::unique_ptr<RefineStage> refine_;
  ThreadPool* external_pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;  // lazy, only without external
  // Lazily created settler workspaces for partial escalation (one leased
  // per parallel settle worker, reused across runs).
  std::unique_ptr<WorkspacePool<TargetedSettler>> settlers_;
  // Per-k decision-gap memo for bound-targeted epsilon (tiny: one entry
  // per distinct k this pipeline has served).
  std::vector<std::pair<uint32_t, double>> kth_gap_cache_;
};

}  // namespace rtk

#endif  // RTK_EXEC_QUERY_PIPELINE_H_
