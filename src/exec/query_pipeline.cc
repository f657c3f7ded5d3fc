#include "exec/query_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "core/upper_bound.h"
#include "exec/prune_stage.h"
#include "obs/trace.h"

namespace rtk {

namespace {

// Bound-targeted epsilon constants: the derived local-push epsilon is
// kGapMargin times the observed decision gap (so a certificate of that
// width still clears the gap with margin), clamped to a floor that keeps
// the push finite near-degenerate gaps and a ceiling that keeps the
// certificate meaningful.
constexpr double kGapMargin = 0.25;
// A near-tie margin would otherwise drive epsilon (and local-push cost)
// unboundedly small; below this floor a full solve is the cheaper way to
// decide the node anyway.
constexpr double kPushEpsilonFloor = 1e-8;
constexpr double kPushEpsilonCeiling = 0.05;

// Budget-scaled Monte-Carlo walk counts are capped so a runaway controller
// cannot request an unbounded amount of work.
constexpr uint64_t kMaxScaledWalks = 1000000000;  // 1e9

}  // namespace

QueryPipeline::QueryPipeline(const TransitionOperator& op,
                             LowerBoundIndex* index)
    : op_(&op),
      index_(index),
      mutable_index_(index),
      pmpn_backend_(std::make_unique<PmpnProximityBackend>(op)),
      refine_(std::make_unique<RefineStage>(op, *index)) {}

QueryPipeline::QueryPipeline(const TransitionOperator& op,
                             const LowerBoundIndex& index)
    : op_(&op),
      index_(&index),
      mutable_index_(nullptr),
      pmpn_backend_(std::make_unique<PmpnProximityBackend>(op)),
      refine_(std::make_unique<RefineStage>(op, index)) {}

QueryPipeline::~QueryPipeline() = default;

void QueryPipeline::set_proximity_backend(
    std::unique_ptr<ProximityBackend> backend) {
  proximity_ = std::move(backend);
}

Result<ProximityBackend*> QueryPipeline::ResolveBackend(
    const ProximityBackendConfig& config) {
  if (config.name.empty()) {
    return proximity_ != nullptr ? proximity_.get() : pmpn_backend_.get();
  }
  if (IsPmpnBackendName(config.name)) return pmpn_backend_.get();
  if (proximity_ != nullptr && config.name == proximity_->name()) {
    return proximity_.get();
  }
  // Engine-shared catalog: exact config match reuses a backend built once
  // at engine setup (Compute is const/stateless, so shared use is safe).
  // Misses — notably controller-scaled configs — fall through to the
  // private cache.
  if (shared_backends_ != nullptr) {
    if (ProximityBackend* shared = shared_backends_->Find(config)) {
      return shared;
    }
  }
  for (CachedBackend& cached : backend_cache_) {
    if (cached.backend->name() != config.name) continue;
    if (!(cached.config == config)) {
      // Same name, new knobs (e.g. a different walk budget): rebuild.
      RTK_ASSIGN_OR_RETURN(cached.backend, MakeProximityBackend(*op_, config));
      cached.config = config;
    }
    return cached.backend.get();
  }
  RTK_ASSIGN_OR_RETURN(std::unique_ptr<ProximityBackend> built,
                       MakeProximityBackend(*op_, config));
  backend_cache_.push_back({config, std::move(built)});
  return backend_cache_.back().backend.get();
}

ThreadPool* QueryPipeline::EffectivePool(const QueryOptions& options,
                                         int* max_parallelism) {
  if (options.num_threads == 1) {
    *max_parallelism = 1;
    return nullptr;  // serial: no pool touched, no tasks queued
  }
  ThreadPool* pool = external_pool_;
  if (pool == nullptr) {
    if (owned_pool_ == nullptr) {
      owned_pool_ =
          std::make_unique<ThreadPool>(ThreadPool::DefaultThreads());
    }
    pool = owned_pool_.get();
  }
  *max_parallelism =
      options.num_threads > 0
          ? std::min(options.num_threads, pool->num_threads())
          : pool->num_threads();
  return pool;
}

Status QueryPipeline::CheckRunPreconditions(
    uint32_t q, const QueryOptions& options,
    const ExecControl** control) const {
  // A control that is already tripped (deadline in the past, token
  // cancelled before dispatch) aborts before any stage spends work; the
  // same check repeats at every stage boundary. Inactive/null controls
  // cost nothing anywhere.
  *control = (options.control != nullptr && options.control->active())
                 ? options.control
                 : nullptr;
  if (*control != nullptr) RTK_RETURN_NOT_OK((*control)->Check());
  if (q >= op_->num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  if (options.k == 0 || options.k > index_->capacity_k()) {
    return Status::InvalidArgument(
        "k=" + std::to_string(options.k) + " outside [1, K=" +
        std::to_string(index_->capacity_k()) + "]");
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> QueryPipeline::Run(uint32_t q,
                                                 const QueryOptions& options,
                                                 QueryStats* stats) {
  Stopwatch overhead_watch;
  const ExecControl* control = nullptr;
  RTK_RETURN_NOT_OK(CheckRunPreconditions(q, options, &control));
  RTK_ASSIGN_OR_RETURN(ProximityBackend * backend,
                       ResolveBackend(options.proximity));
  RwrOptions pmpn_opts = options.pmpn;
  pmpn_opts.alpha = index_->bca_options().alpha;  // one alpha everywhere
  RTK_RETURN_NOT_OK(ApplyAdaptiveBudget(options, &backend, &pmpn_opts));

  QueryStats local;
  local.query = q;
  local.k = options.k;
  local.backend = std::string(backend->name());
  int max_parallelism = 1;
  ThreadPool* pool = EffectivePool(options, &max_parallelism);
  local.threads_used = max_parallelism;
  local.overhead_seconds = overhead_watch.ElapsedSeconds();

  // Stage 1 (Alg. 4 line 1): proximities from all nodes to q, with the
  // backend's error certificate.
  Stopwatch pmpn_watch;
  RTK_ASSIGN_OR_RETURN(ProximityRow row,
                       backend->Compute(q, pmpn_opts, pool, max_parallelism));
  local.pmpn_iterations = row.iterations;
  local.prox_walks = row.walks;
  local.prox_pushes = row.pushes;
  local.prox_eps_below = row.eps_below;
  local.prox_eps_above = row.eps_above;
  local.prox_certified = row.certified;
  local.pmpn_seconds = pmpn_watch.ElapsedSeconds();
  // Trace spans carry the SAME measured duration the stats field holds
  // (one Stopwatch read feeds both), so the two views cannot drift.
  if (options.trace != nullptr) {
    options.trace->AddSpan(TracePhase::kProximity, local.pmpn_seconds);
  }
  if (control != nullptr) RTK_RETURN_NOT_OK(control->Check());

  return RunStages(q, options, control, pool, max_parallelism, pmpn_opts,
                   std::move(row), std::move(local), stats);
}

Result<std::vector<uint32_t>> QueryPipeline::RunWithRow(
    uint32_t q, const QueryOptions& options, ProximityRow row,
    double row_seconds, std::string_view backend_name, QueryStats* stats) {
  Stopwatch overhead_watch;
  const ExecControl* control = nullptr;
  RTK_RETURN_NOT_OK(CheckRunPreconditions(q, options, &control));
  RwrOptions pmpn_opts = options.pmpn;
  pmpn_opts.alpha = index_->bca_options().alpha;  // one alpha everywhere

  QueryStats local;
  local.query = q;
  local.k = options.k;
  local.backend = std::string(backend_name);
  int max_parallelism = 1;
  ThreadPool* pool = EffectivePool(options, &max_parallelism);
  local.threads_used = max_parallelism;
  local.overhead_seconds = overhead_watch.ElapsedSeconds();

  // Stage 1 already happened in the caller's fused solve; adopt the row's
  // counters and this query's share of the fused wall time so the
  // stats/trace accounting invariants below hold unchanged.
  local.pmpn_iterations = row.iterations;
  local.prox_walks = row.walks;
  local.prox_pushes = row.pushes;
  local.prox_eps_below = row.eps_below;
  local.prox_eps_above = row.eps_above;
  local.prox_certified = row.certified;
  local.pmpn_seconds = row_seconds;
  if (options.trace != nullptr) {
    options.trace->AddSpan(TracePhase::kProximity, row_seconds);
  }
  if (control != nullptr) RTK_RETURN_NOT_OK(control->Check());

  return RunStages(q, options, control, pool, max_parallelism, pmpn_opts,
                   std::move(row), std::move(local), stats);
}

Status QueryPipeline::ApplyAdaptiveBudget(const QueryOptions& options,
                                          ProximityBackend** backend,
                                          RwrOptions* pmpn_opts) {
  const double scale = std::max(1.0, options.approx_budget_scale);
  const std::string& name = options.proximity.name;
  if (name == kLocalPushBackendName) {
    // An explicit caller-set push epsilon always wins untouched.
    if (pmpn_opts->push_epsilon > 0.0) return Status::OK();
    const double configured = options.proximity.local_push.epsilon;
    double eps = configured;
    if (options.bound_targeted_epsilon) {
      const double gap = CachedKthGap(options.k);
      if (gap > 0.0) {
        // Tighten-only: the configured epsilon is the caller's cost
        // ceiling, and the observed gap says how much precision the
        // certificate actually needs. When the gap demands finer bounds,
        // tightening up front trades cheap push work against whole
        // escalations; a gap looser than the configured epsilon is never
        // acted on, because loosening re-widens the uncertain set and the
        // escalations it would cause dwarf the backend time saved.
        eps = std::min(configured,
                       std::clamp(kGapMargin * gap, kPushEpsilonFloor,
                                  kPushEpsilonCeiling));
      }
    }
    // The controller's budget scale tightens (divides) the epsilon.
    eps = std::max(eps / scale, kPushEpsilonFloor);
    if (eps != configured) pmpn_opts->push_epsilon = eps;
    return Status::OK();
  }
  if (scale > 1.0 && name == kMonteCarloBackendName) {
    ProximityBackendConfig scaled = options.proximity;
    const double walks =
        static_cast<double>(scaled.monte_carlo.walks_per_node) * scale;
    scaled.monte_carlo.walks_per_node = static_cast<uint64_t>(
        std::llround(std::min(walks, static_cast<double>(kMaxScaledWalks))));
    RTK_ASSIGN_OR_RETURN(*backend, ResolveBackend(scaled));
  }
  return Status::OK();
}

double QueryPipeline::CachedKthGap(uint32_t k) const {
  for (const auto& [cached_k, gap] : kth_gap_cache_) {
    if (cached_k == k) return gap;
  }
  return 0.0;
}

void QueryPipeline::RecordKthGap(uint32_t k, double gap) {
  if (gap <= 0.0) return;  // no positive bound observed: keep the old memo
  for (auto& entry : kth_gap_cache_) {
    if (entry.first == k) {
      entry.second = gap;
      return;
    }
  }
  kth_gap_cache_.emplace_back(k, gap);
}

bool QueryPipeline::SettleUndecided(uint32_t q, const QueryOptions& options,
                                    const RwrOptions& pmpn_opts,
                                    ThreadPool* pool, int max_parallelism,
                                    const ProximityRow& row,
                                    const std::vector<uint32_t>& undecided,
                                    std::vector<uint32_t>* settled_hits,
                                    uint64_t* total_pushes) {
  const int64_t n = static_cast<int64_t>(undecided.size());
  RowIntervalView view;
  view.values = row.values.data();
  view.eps_below = row.eps_below;
  view.eps_above = row.eps_above;
  view.eps_node = row.eps_node.empty() ? nullptr : row.eps_node.data();

  TargetedSettleOptions settle_opts;
  settle_opts.alpha = pmpn_opts.alpha;

  const uint32_t k = options.k;
  const double tie = options.tie_epsilon;
  // Per-node classifier mirroring the widened prune scan branch for
  // branch (see prune_stage.cc): the bounds/residue reads go through the
  // index's const, thread-safe shard accessors.
  const auto classifier_for = [&](uint32_t u) -> SettleClassifier {
    const double cutoff = index_->LowerBound(u, k) - tie;
    const double residue = index_->ResidueL1(u);
    const double ub =
        residue != 0.0 ? ComputeUpperBound(index_->LowerBounds(u), k, residue)
                       : 0.0;
    return [cutoff, residue, ub, tie](double p_lo,
                                      double p_hi) -> SettleVerdict {
      if (p_hi <= 0.0 || p_hi < cutoff) return SettleVerdict::kDrop;
      if (p_lo > 0.0 && p_lo >= cutoff &&
          (residue == 0.0 || p_lo >= ub - tie)) {
        return SettleVerdict::kHit;
      }
      // Dead zone: every bracket contains the true proximity p, so
      //   p_lo >= cutoff  ==>  p >= cutoff: no future bracket's hi can
      //   fall below the cutoff (or 0) — a drop can never certify;
      //   p_hi < ub - tie ==>  p < ub - tie: no future bracket's lo can
      //   reach the upper-bound gate — a hit can never certify.
      // Only refinement (which moves cutoff/ub themselves) decides this
      // node; tell the settler to stop paying for precision.
      if (residue != 0.0 && p_lo > 0.0 && p_lo >= cutoff && p_hi < ub - tie) {
        return SettleVerdict::kImpossible;
      }
      return SettleVerdict::kUnsettled;
    };
  };

  // Per-node verdict/push slots: each settle is an independent pure
  // function of (node, row, index), and EVERY node is settled even after
  // one fails (no early exit), so the outcome — verdicts AND push counts —
  // is identical at every thread count and chunking.
  std::vector<SettleVerdict> verdicts(undecided.size(),
                                      SettleVerdict::kUnsettled);
  std::vector<uint64_t> pushes(undecided.size(), 0);

  // Sign fast path. A node whose stored k-th bound is at or below the tie
  // epsilon has cutoff <= 0, so its exact classification collapses to the
  // SIGN of p_u(q) — a question the push bracket can never answer (see
  // MarkNodesReaching) but one reverse reachability sweep from q decides
  // exactly, for every such node at once:
  //   - unreachable  =>  exact p_u(q) == 0  =>  the exact scan's
  //     "p_hi <= 0" drop, regardless of cutoff;
  //   - reachable with cutoff <= 0  =>  p > 0 clears candidacy and
  //     certified_alive; with residue == 0 (or an upper-bound gate already
  //     at/below zero) that is the exact scan's hit branch verbatim.
  // Everything else still needs a magnitude bracket. The sweep runs once,
  // serially, before the parallel loop and costs no settle pushes, so the
  // thread-invariance of verdicts and push counts is preserved.
  std::vector<uint8_t> reaches_q;
  MarkNodesReaching(op_->graph(), q, &reaches_q);
  int64_t remaining = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t u = undecided[i];
    if (!reaches_q[u]) {
      verdicts[i] = SettleVerdict::kDrop;
      continue;
    }
    const double cutoff = index_->LowerBound(u, k) - tie;
    if (cutoff <= 0.0) {
      const double residue = index_->ResidueL1(u);
      if (residue == 0.0 ||
          ComputeUpperBound(index_->LowerBounds(u), k, residue) - tie <= 0.0) {
        verdicts[i] = SettleVerdict::kHit;
        continue;
      }
    }
    ++remaining;
  }

  if (remaining > 0) {
    if (settlers_ == nullptr) {
      settlers_ = std::make_unique<WorkspacePool<TargetedSettler>>(
          [this] { return std::make_unique<TargetedSettler>(*op_); });
    }
    const auto settle_range = [&](int64_t lo, int64_t hi) {
      auto lease = settlers_->Acquire();
      TargetedSettler& settler = *lease;
      for (int64_t i = lo; i < hi; ++i) {
        if (verdicts[i] != SettleVerdict::kUnsettled) continue;  // sign-decided
        const uint32_t u = undecided[i];
        verdicts[i] = settler.Settle(u, q, view, settle_opts, classifier_for(u),
                                     &pushes[i]);
      }
    };
    if (pool == nullptr || max_parallelism <= 1 || remaining <= 1) {
      settle_range(0, n);
    } else {
      // grain 1: settle costs are highly skewed (a node near its decision
      // boundary pushes orders of magnitude more than an easy one).
      ParallelForRange(pool, 0, n, max_parallelism, /*grain=*/1, settle_range);
    }
  }

  bool all_settled = true;
  uint64_t push_sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    push_sum += pushes[i];
    if (verdicts[i] == SettleVerdict::kUnsettled ||
        verdicts[i] == SettleVerdict::kImpossible) {
      all_settled = false;  // both mean: only full escalation decides u
    } else if (verdicts[i] == SettleVerdict::kHit) {
      // `undecided` is ascending, so the hits come out ascending too.
      settled_hits->push_back(undecided[i]);
    }
  }
  *total_pushes += push_sum;
  return all_settled;
}

Result<std::vector<uint32_t>> QueryPipeline::RunStages(
    uint32_t q, const QueryOptions& options, const ExecControl* control,
    ThreadPool* pool, int max_parallelism, const RwrOptions& pmpn_opts,
    ProximityRow row, QueryStats local, QueryStats* stats) {
  // Stage 2 (Alg. 4 lines 2-11): sharded scan against the stored bounds,
  // widened by the row's error certificate (no-op widening when exact).
  Stopwatch prune_watch;
  PruneStageOptions prune_opts;
  prune_opts.k = options.k;
  prune_opts.tie_epsilon = options.tie_epsilon;
  prune_opts.approximate_hits_only = options.approximate_hits_only;
  prune_opts.eps_below = row.eps_below;
  prune_opts.eps_above = row.eps_above;
  prune_opts.eps_node = row.eps_node.empty() ? nullptr : &row.eps_node;
  prune_opts.max_parallelism = max_parallelism;
  prune_opts.control = control;
  PruneResult pruned = RunPruneStage(*index_, row.values, prune_opts, pool);
  RTK_RETURN_NOT_OK(pruned.status);
  RecordKthGap(options.k, pruned.min_kth_bound_gap);
  local.candidates = pruned.candidates;
  local.hits = pruned.hits.size();
  local.prune_seconds = prune_watch.ElapsedSeconds();
  if (options.trace != nullptr) {
    options.trace->AddSpan(TracePhase::kPrune, local.prune_seconds);
  }

  // Escalation: exact results are demanded but the approximate row could
  // not certify every node's classification — the uncertain remainder
  // cannot be refined against an approximate proximity.
  //
  // Tier 1 (partial): for a CERTIFIED row, try to settle each uncertain
  // node individually with a targeted forward push whose classifier
  // mirrors the widened scan. If every node settles, the exact scan's
  // undecided set is provably empty (see the header) and the answer is
  // the certified hits plus the settled hits — no exact row needed.
  //
  // Tier 2 (full, the fallback and the only path for uncertified rows):
  // re-run stage 1 with PMPN and redo the scan exactly; everything
  // downstream is then byte-identical to the pure exact pipeline.
  // Bounded: PMPN's row is exact, so this happens at most once per query.
  if (!row.exact() && !options.approximate_hits_only &&
      !pruned.undecided.empty()) {
    const uint64_t uncertain = pruned.undecided.size();
    local.escalated_nodes = uncertain;
    bool settled_all = false;
    if (options.partial_escalation && row.certified) {
      Stopwatch settle_watch;
      std::vector<uint32_t> settled_hits;
      settled_all =
          SettleUndecided(q, options, pmpn_opts, pool, max_parallelism, row,
                          pruned.undecided, &settled_hits, &local.settle_pushes);
      // Settle work is proximity work (targeted stage-1 re-solves), so it
      // lands in pmpn_seconds / the proximity span and the per-phase
      // accounting invariants below keep holding.
      const double settle_seconds = settle_watch.ElapsedSeconds();
      local.pmpn_seconds += settle_seconds;
      if (options.trace != nullptr) {
        options.trace->AddSpan(TracePhase::kProximity, settle_seconds);
      }
      if (control != nullptr) RTK_RETURN_NOT_OK(control->Check());
      if (settled_all) {
        local.escalation_mode = EscalationMode::kPartial;
        std::vector<uint32_t> merged(pruned.hits.size() + settled_hits.size());
        std::merge(pruned.hits.begin(), pruned.hits.end(),
                   settled_hits.begin(), settled_hits.end(), merged.begin());
        pruned.hits = std::move(merged);
        pruned.undecided.clear();
        local.hits = pruned.hits.size();
      }
      // An unsettled remainder discards the partial attempt entirely and
      // takes the full path below (only its push count is kept as stats).
    }
    if (!settled_all) {
      local.escalated = true;
      local.escalation_mode = EscalationMode::kFull;
      Stopwatch escalation_watch;
      RTK_ASSIGN_OR_RETURN(
          row, pmpn_backend_->Compute(q, pmpn_opts, pool, max_parallelism));
      local.pmpn_iterations = row.iterations;
      local.prox_certified = row.certified;  // the exact row anchors the answer
      const double escalation_pmpn = escalation_watch.ElapsedSeconds();
      local.pmpn_seconds += escalation_pmpn;
      if (options.trace != nullptr) {
        // The escalation re-run appends second proximity/prune spans; the
        // per-phase sums still equal the stats fields.
        options.trace->AddSpan(TracePhase::kProximity, escalation_pmpn);
      }
      if (control != nullptr) RTK_RETURN_NOT_OK(control->Check());
      prune_watch.Reset();
      prune_opts.eps_below = 0.0;
      prune_opts.eps_above = 0.0;
      prune_opts.eps_node = nullptr;
      pruned = RunPruneStage(*index_, row.values, prune_opts, pool);
      RTK_RETURN_NOT_OK(pruned.status);
      RecordKthGap(options.k, pruned.min_kth_bound_gap);
      local.candidates = pruned.candidates;
      local.hits = pruned.hits.size();
      const double escalation_prune = prune_watch.ElapsedSeconds();
      local.prune_seconds += escalation_prune;
      if (options.trace != nullptr) {
        options.trace->AddSpan(TracePhase::kPrune, escalation_prune);
      }
    }
  }

  // Stage 3 (Alg. 4 line 13): refine the undecided candidates. The row
  // here is exact whenever candidates exist (approximate rows either
  // certified everything or escalated above).
  Stopwatch refine_watch;
  RefineStageOptions refine_opts;
  refine_opts.k = options.k;
  refine_opts.tie_epsilon = options.tie_epsilon;
  refine_opts.refine_strategy = options.refine_strategy;
  refine_opts.max_refine_iterations_per_node =
      options.max_refine_iterations_per_node;
  refine_opts.max_stalled_refinements = options.max_stalled_refinements;
  refine_opts.update_index = options.update_index;
  refine_opts.pmpn = pmpn_opts;
  refine_opts.max_parallelism = max_parallelism;
  refine_opts.control = control;
  RTK_ASSIGN_OR_RETURN(
      RefineResult refined,
      refine_->Run(pruned.undecided, row.values, refine_opts, pool));
  local.refined_nodes = pruned.undecided.size();
  local.refine_iterations = refined.refine_iterations;
  local.exact_fallbacks = refined.exact_fallbacks;
  local.exact_fallback_seconds = refined.exact_fallback_seconds;
  local.refine_seconds = refine_watch.ElapsedSeconds();
  if (options.trace != nullptr) {
    options.trace->AddSpan(TracePhase::kRefine, local.refine_seconds);
  }

  // Merge + write-back. Hits and accepted candidates are disjoint sorted
  // lists; the merge reproduces the serial scan's ascending result order.
  Stopwatch write_back_watch;
  std::vector<uint32_t> results;
  results.resize(pruned.hits.size() + refined.accepted.size());
  std::merge(pruned.hits.begin(), pruned.hits.end(),
             refined.accepted.begin(), refined.accepted.end(),
             results.begin());
  if (options.update_index) {
    // Deltas arrive in ascending node order (matching the serial loop's
    // write-back order); each targets a distinct node.
    if (options.delta_sink != nullptr) {
      for (IndexDelta& delta : refined.deltas) {
        options.delta_sink->push_back(std::move(delta));
      }
    } else if (mutable_index_ != nullptr) {
      for (IndexDelta& delta : refined.deltas) {
        mutable_index_->SetNode(delta.node, delta.topk,
                                std::move(delta.state), delta.residue_l1);
      }
    }
  }

  local.results = results.size();
  const double write_back_seconds = write_back_watch.ElapsedSeconds();
  local.overhead_seconds += write_back_seconds;
  if (options.trace != nullptr) {
    options.trace->AddSpan(TracePhase::kWriteBack, write_back_seconds);
  }
  // Derived totals: the >= invariants hold by construction.
  local.scan_seconds = local.prune_seconds + local.refine_seconds;
  local.total_seconds =
      local.pmpn_seconds + local.scan_seconds + local.overhead_seconds;
#ifndef NDEBUG
  // The timing invariant and the span/stats agreement are structural —
  // both sides of each pair are fed by the same Stopwatch read — so any
  // disagreement means a stage changed its accounting on one side only.
  assert(local.total_seconds ==
         local.pmpn_seconds + local.scan_seconds + local.overhead_seconds);
  assert(local.scan_seconds == local.prune_seconds + local.refine_seconds);
  if (options.trace != nullptr) {
    assert(options.trace->PhaseSeconds(TracePhase::kProximity) ==
           local.pmpn_seconds);
    assert(options.trace->PhaseSeconds(TracePhase::kPrune) ==
           local.prune_seconds);
    assert(options.trace->PhaseSeconds(TracePhase::kRefine) ==
           local.refine_seconds);
  }
#endif
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace rtk
