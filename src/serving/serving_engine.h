// ServingEngine: the concurrent request scheduler over a ReverseTopkEngine.
//
// Architecture (one instance serves many threads):
//
//   Submit(QueryRequest) ──► submit-thread fast path: tripped deadline /
//          │                  cancel resolves immediately; QueryCache probe
//          │                  (sharded LRU, keyed (q, k, epoch)) — a hit
//          │                  never queues and can never be shed
//          │ miss
//          ▼
//      AdmissionQueue (bounded, priority-ordered;
//          │              full ⇒ shed with kResourceExhausted)
//          │ dispatch ticket            │ priority pop
//          ▼                            ▼
//      worker pool ──► deadline/cancel check (expired queue-waiters
//                            │                never run)
//                            ▼
//                 searcher pool ──reads──► IndexSnapshot (immutable, epoch E)
//                            │ refinements as IndexDelta
//                            ▼
//                 RefinementLog ──shard-grouped drain, single writer──►
//                                  CoW clone + ApplyIfTighter (copies only
//                                                              │ dirty shards)
//                                         publish epoch E+1 ◄──┘ (atomic swap)
//
// Guarantees:
//  * Submit() is safe from any number of threads; each request resolves
//    exactly once — a future or callback — with a per-request Status
//    (kResourceExhausted when shed at admission, kDeadlineExceeded /
//    kCancelled when aborted, OK with results otherwise).
//  * Backlog is bounded by ServingOptions::max_pending; overload degrades
//    by shedding new arrivals, never by unbounded queue growth.
//  * Dispatch is strict-priority (interactive > standard > batch), FIFO
//    within a class; a request's deadline and cancellation token are also
//    polled at pipeline stage boundaries while it runs, and an aborted
//    request writes nothing back (all-or-nothing refinement capture).
//  * A default-constructed request runs the identical pipeline
//    configuration as the legacy Query(q, k) path: results and post-query
//    index state are byte-identical to the serial ReverseTopkEngine on the
//    same graph (Algorithm 4 is exact regardless of how tight the index
//    bounds are; refinement only tightens them, Section 4.2.3).
//  * Accuracy tiers route to configured proximity backends
//    (ServingOptions::exact_tier_backend / approximate_tier_backend).
//    Exact-tier answers stay byte-identical to PMPN for ANY backend with
//    a deterministic certificate — an approximate row either certifies
//    the prune via its error bounds or escalates to PMPN
//    (exec/query_pipeline.h); Monte-Carlo's certificate is probabilistic,
//    so its non-escalated answers are exact w.h.p. and are never cached.
//    Hits-only answers are certified subsets. QueryResponse::backend
//    reports which backend served each request.
//  * Refinement is never lost, only deferred: deltas are merged and
//    published once enough accumulate (or on explicit PublishPending()).
//  * Live graph mutation: ApplyUpdates(GraphUpdateBatch) queues edge
//    updates into a MutationLog; a dedicated mutation worker drains them
//    under the publish lock, applies the batches to a copy of the current
//    GraphVersion's graph, repairs the affected index state (or
//    conservatively invalidates it, or rebuilds — see
//    mutation_repair_fraction / mutation_rebuild_fraction), and publishes
//    ONE new IndexSnapshot pinned to the new graph version. Queries never
//    block on a mutation: in-flight requests finish against the
//    graph+index pair their snapshot pinned, and requests after the
//    publish serve results byte-identical (exact tier) to a fresh build
//    on the mutated graph. Refinement deltas from pre-mutation epochs are
//    dropped by the RefinementLog's version tag — stale write-back can
//    never corrupt a post-mutation index.

#ifndef RTK_SERVING_SERVING_ENGINE_H_
#define RTK_SERVING_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/online_query.h"
#include "dynamic/graph_updates.h"
#include "exec/proximity_stage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/admission_queue.h"
#include "serving/budget_controller.h"
#include "serving/graph_versioning.h"
#include "serving/index_snapshot.h"
#include "serving/mutation_log.h"
#include "serving/query_cache.h"
#include "serving/refinement_log.h"
#include "serving/request.h"

namespace rtk {

class ShardResidencyManager;  // index/shard_backing.h

/// \brief Configuration of the serving layer.
struct ServingOptions {
  /// Worker threads executing admitted requests; 0 = hardware concurrency.
  int num_threads = 0;
  /// Admission queue capacity: requests submitted while this many are
  /// already pending are shed immediately with kResourceExhausted.
  /// 0 disables shedding (unbounded backlog; not recommended in
  /// production). Running requests do not count against the bound.
  size_t max_pending = 1024;
  /// Result cache shape; capacity 0 disables caching entirely.
  QueryCacheOptions cache;
  /// Publish a new snapshot once this many refinement deltas are pending;
  /// 0 disables automatic publishing (call PublishPending() yourself).
  /// A publish copies only the storage shards the drained deltas touch
  /// (copy-on-write, see index_storage.h), so its cost scales with the
  /// batch — O(dirty shards) — not with n; the default 64 keeps epochs
  /// fresh at any index size.
  size_t publish_threshold = 64;
  /// Per-shard publish batching: an AUTOMATIC publish only drains storage
  /// shards with at least this many pending deltas, so hot shards publish
  /// eagerly while cold shards accumulate instead of being copied for a
  /// single delta each epoch. 0 (default) drains every dirty shard (the
  /// pre-batching behavior). Explicit PublishPending() always flushes
  /// everything; deltas are never lost, only deferred.
  size_t shard_publish_threshold = 0;
  /// Proximity backend per accuracy tier (exec/proximity_backends.h).
  /// kExact requests run exact_tier_backend — results stay byte-identical
  /// to PMPN for ANY backend here, because an approximate row either
  /// certifies the prune or escalates to PMPN (see exec/query_pipeline.h);
  /// an approximate choice is a latency bet, not a correctness one.
  /// kApproximateHitsOnly requests run approximate_tier_backend and return
  /// the certified-hit subset with no refinement and no escalation — the
  /// fast tier. Defaults: both PMPN (empty name = pipeline default).
  ProximityBackendConfig exact_tier_backend;
  ProximityBackendConfig approximate_tier_backend;
  /// Completed request traces retained in the lock-striped ring
  /// (ServingEngine::RecentTraces). 0 disables per-request tracing
  /// entirely — no spans are recorded anywhere. Tracing only ever writes
  /// timestamps: results are byte-identical either way.
  size_t trace_ring_capacity = 256;
  /// Traces whose end-to-end latency reaches this many seconds are
  /// additionally retained in the slow-query log with their full stage
  /// breakdowns (ServingEngine::SlowQueries). <= 0 disables the log.
  double slow_query_threshold_seconds = 0.25;
  /// Slow-query log size (oldest evicted beyond it).
  size_t slow_query_log_capacity = 64;
  /// Multi-query fusion: a dispatch ticket gathers up to this many queued
  /// requests and, per accuracy tier, runs ONE fused blocked-SpMM
  /// proximity solve for that tier's requests (rwr/pmpn_multi.h), served
  /// against one snapshot, before fanning back into per-query
  /// prune/refine. <= 1 (default) disables batching entirely — the
  /// single-pop dispatch path, byte for byte. A tier fuses when its
  /// backend does (ProximityBackend::fused_multi()): PMPN, the default,
  /// under any of its names. Popped requests that do not fuse (another
  /// backend, a lone request of its tier) run side by side on the pool.
  /// Every fused lane is bitwise identical to its solo solve and reports
  /// backend "pmpn", so batching is purely a scheduling decision.
  /// Priority order is preserved (the batch is popped in strict
  /// priority/FIFO order); per-request deadlines and cancellation still
  /// bite mid-solve — a tripped request is masked out of the block and
  /// aborts alone, its batch-mates unaffected.
  size_t max_batch = 1;
  /// Extra gather wait (seconds) after a dispatch ticket pops a partial
  /// batch: trade that much latency for wider fused blocks. 0 (default)
  /// takes whatever is queued right now and never sleeps. Only meaningful
  /// with max_batch > 1.
  double batch_window = 0.0;
  /// Base per-query options; k / tier / update_index / num_threads are
  /// overridden per request, delta_sink and control are managed by the
  /// engine, and pmpn is inherited from the source engine's solver
  /// settings in Create(). Set query.num_threads to 0 (or > 1) to let idle
  /// pool workers parallelize individual requests — best for latency under
  /// light load; the default 1 keeps every worker serving its own request,
  /// which maximizes saturated throughput.
  QueryOptions query;
  /// Memory-tier residency knobs — only meaningful when the served index
  /// is mmap-backed (StorageTier::kMmap; heap indexes are always fully
  /// resident and these are ignored). A shard whose prune scans touched at
  /// least `shard_promote_touches` candidate rows during one residency
  /// epoch (one MaintainResidency call or delta publish) is promoted to a
  /// heap materialization; a clean resident shard idle for
  /// `shard_demote_epochs` consecutive epochs is demoted back to the map.
  /// 0 disables the respective direction. Residency moves are result-
  /// invisible: they republish the SAME epoch (no cache purge).
  uint64_t shard_promote_touches = 64;
  uint32_t shard_demote_epochs = 2;
  /// Pins pool workers to CPUs (ThreadPool::BindWorkersToCpus) so the
  /// thread-affine prune ranges become CPU/NUMA-affine. No-op unless the
  /// build enables RTK_ENABLE_NUMA.
  bool pin_workers = false;
  /// Live-mutation repair policy, as fractions of n. A mutation drain
  /// whose affected set (reverse reachability from the modified sources)
  /// is at most `mutation_repair_fraction * n` runs the exact incremental
  /// repair (affected hubs re-solved + affected non-hubs re-run truncated
  /// BCA); a larger set up to `mutation_rebuild_fraction * n` re-solves
  /// the affected hubs but resets affected non-hubs to the trivial lower
  /// bound (cheap, still exact for Algorithm 4; refinement re-tightens
  /// them); beyond that the drain rebuilds the whole index (hubs
  /// re-selected). Exact-tier results are byte-identical to a fresh build
  /// under every mode.
  double mutation_repair_fraction = 0.2;
  double mutation_rebuild_fraction = 0.75;
  /// Threads for mutation repair/rebuild work. The default (1) runs the
  /// repair inline on the dedicated mutation worker thread; values > 1
  /// give the drain its own small pool. Either way the repair NEVER fans
  /// out onto the query pool — a background mutation stream must not
  /// steal query workers, or read latency degrades by the repair duty
  /// cycle. 0 borrows the query pool (the throughput-over-latency
  /// choice, e.g. offline bulk loads with no concurrent readers).
  int mutation_threads = 1;
  /// Graph-rebuild policy for ApplyUpdates batches (see
  /// dynamic/graph_updates.h — the dangling policy must preserve ids).
  GraphBuilderOptions mutation_graph = {
      .dangling_policy = DanglingPolicy::kSelfLoop,
      .parallel_edges = ParallelEdgePolicy::kError,
      .allow_self_loops = true};
  /// Self-tuning approximation. When enabled, exact-tier requests routed
  /// to an approximate backend run with partial escalation, bound-targeted
  /// epsilon, and a per-backend budget scale from the feedback controller
  /// (serving/budget_controller.h): a full escalation multiplies the
  /// backend's budget, a partial one nudges it, and every certified
  /// answer decays it back toward 1.0 — the steady-state escalation rate
  /// falls without giving up byte-identical exact-tier results
  /// (certify-or-escalate still guards every answer; the scale only moves
  /// latency). The controller resets on every mutation publish (the new
  /// graph version invalidates the measured feedback). Off by default:
  /// fixed budgets, bitwise-unchanged behavior.
  bool adaptive = false;
  BudgetControllerOptions adaptive_controller;
};

/// \brief Aggregate serving counters (all monotone except the *_depth /
/// current_epoch / pending_deltas gauges). Since the observability PR
/// this is a field-compatible VIEW assembled from the engine's
/// MetricsRegistry plus the component gauges — the registry (see
/// Metrics()) is the source of truth and additionally carries the
/// latency histograms this flat struct cannot express.
struct ServingStats {
  /// Submit() calls, including shed ones.
  uint64_t submitted = 0;
  /// Requests shed at admission (queue full, kResourceExhausted).
  uint64_t shed = 0;
  /// Requests that missed their deadline — at dispatch or mid-pipeline.
  uint64_t expired = 0;
  /// Requests abandoned via their cancellation token.
  uint64_t cancelled = 0;
  /// Requests that reached execution (cache lookup or searcher run).
  uint64_t queries = 0;
  /// Executed requests by accuracy tier (cache hits count as exact-tier).
  uint64_t exact_tier_queries = 0;
  uint64_t approximate_tier_queries = 0;
  /// Exact-tier requests whose approximate backend could not certify the
  /// prune outright and escalated — partially (targeted settles) or fully
  /// (PMPN re-run); the two mode counters below split this total (0 when
  /// the tier runs PMPN).
  uint64_t backend_escalations = 0;
  uint64_t partial_escalations = 0;
  uint64_t full_escalations = 0;
  /// Budget-controller resets (one per mutation publish).
  uint64_t adaptive_resets = 0;
  /// Per-backend controller state, first-seen order (empty until the
  /// adaptive mode has recorded feedback).
  std::vector<BackendBudgetState> adaptive_budgets;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Refinement deltas recorded by queries (pre-dedup).
  uint64_t deltas_recorded = 0;
  /// Deltas that actually tightened a published snapshot.
  uint64_t deltas_applied = 0;
  uint64_t epochs_published = 0;
  /// Storage shards deep-copied across all publishes (copy-on-write dirty
  /// shards; the publish-cost observable — compare against deltas_applied
  /// and index_shards).
  uint64_t shards_copied = 0;
  /// Storage shards in the current snapshot (gauge).
  uint64_t index_shards = 0;
  uint64_t current_epoch = 0;
  uint64_t pending_deltas = 0;
  /// Fused multi-query batches executed and the requests they carried
  /// (mean occupancy = batched_queries / batches); singles that bypassed
  /// fusion count in neither.
  uint64_t batches = 0;
  uint64_t batched_queries = 0;
  /// Widest fused batch observed (gauge).
  size_t peak_batch_size = 0;
  /// Memory-tier observables (all 0 for a heap-tier index). Faults and
  /// evictions are source-wide monotone counters (shared across epochs);
  /// the residency pair is a gauge over the CURRENT snapshot.
  uint64_t shard_faults = 0;
  uint64_t shard_evictions = 0;
  uint64_t resident_shards = 0;
  /// Bytes of the mmap'd index file backing the current snapshot (gauge).
  uint64_t mmap_bytes = 0;
  /// Admission backlog right now / its high-water mark.
  size_t queue_depth = 0;
  size_t peak_queue_depth = 0;
  /// Live-mutation observables. `mutation_batches` counts APPLIED batches
  /// (rejected ones — failed validation — count separately); the three
  /// mode counters sum to the number of mutation publishes.
  uint64_t mutation_batches = 0;
  uint64_t mutation_batches_rejected = 0;
  uint64_t mutation_updates = 0;
  uint64_t mutation_repairs = 0;
  uint64_t mutation_invalidations = 0;
  uint64_t mutation_rebuilds = 0;
  uint64_t mutation_affected_nodes = 0;
  /// Refinement deltas dropped by the graph-version tag (== log.dropped_stale).
  uint64_t refinements_dropped_stale = 0;
  /// Graph version of the current snapshot (gauge; 0 until a mutation).
  uint64_t graph_version = 0;
  /// ApplyUpdates batches waiting for the mutation worker (gauge).
  uint64_t pending_mutations = 0;
  QueryCacheStats cache;
  RefinementLogStats log;
  MutationLogStats mutations;
};

/// \brief Thread-safe query service over an immutable index snapshot
/// chain. Construct via Create(); the source engine (graph, transition
/// operator) must outlive the ServingEngine, but its index is cloned at
/// creation and never touched afterwards.
class ServingEngine {
 public:
  using ResponseCallback = std::function<void(QueryResponse)>;

  /// \brief Snapshots `engine`'s current index as epoch 0 and readies the
  /// worker pool. PMPN solver settings always come from the engine
  /// (options.query.pmpn is overwritten), keeping serving and serial
  /// query evaluation bit-identical. InvalidArgument when a tier names a
  /// backend the factory does not know.
  static Result<std::unique_ptr<ServingEngine>> Create(
      const ReverseTopkEngine& engine, const ServingOptions& options = {});

  /// Destruction runs every admitted request to completion (the pool
  /// drains its queue on shutdown), then fails anything still undispatched
  /// (e.g. while paused) with kCancelled — no future is ever abandoned.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // ------------------------------------------------------- async surface --

  /// \brief Admits `request` and returns a future for its response. Never
  /// blocks: cache hits and already-tripped deadlines/tokens resolve on
  /// this thread without queuing, and a full admission queue resolves the
  /// future immediately with kResourceExhausted. Safe from any thread. Do
  /// not block on the future from inside a response callback (the workers
  /// are finite).
  std::future<QueryResponse> Submit(QueryRequest request);

  /// \brief Callback form: `on_done` is invoked exactly once with the
  /// response — on a worker thread normally, or synchronously on the
  /// submitting thread when the request resolves in Submit itself (cache
  /// hit, pre-tripped deadline/cancel, or shed at admission). The
  /// callback must not block on other futures of this engine.
  void Submit(QueryRequest request, ResponseCallback on_done);

  // -------------------------------------------- synchronous conveniences --

  /// \brief Legacy surface: Submit(default request for (q, k)) + wait.
  /// Identical results and index side effects to the pre-scheduler
  /// blocking path for every request that executes — but execution now
  /// goes through admission control: under overload (backlog at
  /// max_pending) this can return kResourceExhausted where the old inline
  /// path would have queued on a lock, and it blocks until Resume() when
  /// dispatch is paused. Must not be called from a worker callback.
  Result<std::vector<uint32_t>> Query(uint32_t q, uint32_t k);

  /// \brief Submits every query at RequestPriority::kBatch and waits for
  /// all of them. The response vector is aligned with `queries`, each
  /// element carrying its own Status — one failing query no longer
  /// discards (or blocks) its siblings.
  std::vector<QueryResponse> QueryBatch(const std::vector<uint32_t>& queries,
                                        uint32_t k);

  /// \brief As above, but with full per-request control. Submission is
  /// windowed at max_pending / 2 in flight, so a batch of any size never
  /// sheds itself against the admission bound (concurrent open-loop
  /// traffic may still shed individual entries).
  std::vector<QueryResponse> SubmitBatch(std::vector<QueryRequest> requests);

  // ------------------------------------------------------- control plane --

  /// \brief Stops dispatching admitted requests (running ones finish;
  /// Submit keeps admitting/shedding against the bounded queue). With
  /// Resume(), gives deterministic dispatch windows for tests and
  /// maintenance (e.g. snapshot surgery). Call Pause/Resume from one
  /// control thread.
  void Pause();

  /// \brief Resumes dispatch and reschedules the whole backlog.
  void Resume();

  /// \brief The currently published snapshot (workers may still be
  /// finishing requests against older epochs they acquired earlier).
  std::shared_ptr<const IndexSnapshot> snapshot() const;

  /// \brief Current epoch, = snapshot()->epoch().
  uint64_t epoch() const { return snapshot()->epoch(); }

  /// \brief Drains the refinement log and, when at least one delta
  /// tightens the index, publishes a new snapshot under epoch+1. Returns
  /// the number of deltas applied (0 = no publish happened). Serialized
  /// internally; safe to call concurrently with queries.
  uint64_t PublishPending();

  /// \brief Queues one batch of edge updates for the mutation worker and
  /// returns the future its publish resolves. Never blocks on the repair:
  /// the worker drains batches FIFO (possibly coalescing several into one
  /// publish), applies them to a copy of the current graph, repairs /
  /// invalidates / rebuilds the affected index state, and publishes a new
  /// snapshot pinned to the new graph version before resolving. The batch
  /// is atomic: if any update in it fails validation the whole batch is
  /// rejected (its future carries the error) and sibling batches in the
  /// same drain still apply. Queries racing the publish are unaffected —
  /// each serves the graph+index pair its snapshot pinned. Safe from any
  /// thread.
  std::future<MutationResult> ApplyUpdates(GraphUpdateBatch updates);

  /// \brief Advances one shard-residency epoch for a mmap-tier index:
  /// consumes the per-shard touch counters the prune scans accumulated,
  /// promotes hot shards to heap and demotes cold clean ones back to the
  /// map (ServingOptions::shard_promote_touches / shard_demote_epochs),
  /// then republishes the adjusted index under the SAME epoch — residency
  /// is result-invisible, so cached answers stay valid. Returns the number
  /// of shards moved (0 = no republish; always 0 for a heap-tier index).
  /// Serialized with publishes; safe to call concurrently with queries.
  /// Delta publishes advance the residency epoch too, so an explicit
  /// maintenance tick is only needed under read-heavy load.
  size_t MaintainResidency();

  ServingStats stats() const;

  // -------------------------------------------------------- observability --

  /// \brief Point-in-time snapshot of every serving metric: counters,
  /// gauges and the log2-bucket latency histograms (queue wait, per-tier
  /// and per-backend request latency, stage times, publish cost). Gauges
  /// are refreshed from their components at snapshot time. Render with
  /// ToPrometheusText() / ToJson(); the metric name catalog is in the
  /// README's "Observability" section.
  MetricsSnapshot Metrics() const;

  /// \brief The most recent completed request traces (every disposition:
  /// served, cache hit, shed, expired, cancelled), oldest first. Empty
  /// when trace_ring_capacity is 0.
  std::vector<QueryTrace> RecentTraces() const { return traces_.Recent(); }

  /// \brief Traces that crossed slow_query_threshold_seconds, oldest
  /// first, with full stage breakdowns.
  std::vector<QueryTrace> SlowQueries() const { return slow_log_.Entries(); }

  /// \brief The live registry, for embedding callers that want to attach
  /// their own instruments to the same exposition.
  MetricsRegistry& metrics_registry() { return registry_; }

  int num_threads() const { return pool_->num_threads(); }

 private:
  /// The engine-owned shared backend catalog, pinned to the graph version
  /// its backends were built over (a backend reads the version's
  /// transition operator). Swapped with the snapshot on every mutation
  /// publish; pooled searchers hold a ref so a racing swap can never free
  /// a catalog a pipeline still reads.
  struct VersionedBackends {
    std::shared_ptr<const GraphVersion> version;
    SharedProximityBackends catalog;
  };

  /// A pooled searcher pinned to the snapshot it was built against.
  struct PooledSearcher {
    std::shared_ptr<const IndexSnapshot> snapshot;
    /// Keeps the attached shared-backend catalog alive (null when the
    /// searcher's pipeline runs on its private cache only).
    std::shared_ptr<const VersionedBackends> backends;
    std::unique_ptr<ReverseTopkSearcher> searcher;
  };

  /// A fused lane's finished response, parked until the group's deltas
  /// are merged into the log (see ExecuteAdmitted's deliver_sink).
  struct DeferredDelivery {
    std::function<void(QueryResponse)> deliver;
    QueryResponse response;
  };

  ServingEngine(const ReverseTopkEngine& engine, const ServingOptions& options,
                std::shared_ptr<const GraphVersion> version0,
                std::shared_ptr<const VersionedBackends> backends);

  /// One dispatch ticket: pops and executes the highest-priority pending
  /// request — or, with max_batch > 1, up to max_batch of them as one
  /// fused batch (no-op while paused or when the backlog is empty;
  /// surplus tickets always no-op, so over-ticketing is harmless).
  void DispatchOne();

  /// Runs one admitted request end to end and delivers its response.
  void ExecuteRequest(PendingQuery item);

  /// Batch former: splits a popped batch by accuracy tier. A tier with
  /// two or more live requests resolves its backend through a pooled
  /// searcher of the current snapshot and, when that backend fuses, runs
  /// them through RunFusedGroup; every other request runs through
  /// ExecuteRequest, side by side on the pool.
  void ExecuteBatch(std::vector<PendingQuery> items);

  /// One fused group: `pooled`'s snapshot and searcher serve every lane,
  /// one ComputeMulti solve on `backend` (resolved by that searcher's
  /// pipeline) covers all of them, then the per-request fan-back
  /// (prune/refine/deliver) runs in pop order.
  void RunFusedGroup(std::vector<PendingQuery> live, PooledSearcher pooled,
                     ProximityBackend* backend);

  /// The shared request executor behind ExecuteRequest (fused == nullptr:
  /// full pipeline on a freshly acquired searcher) and RunFusedGroup's
  /// fan-back (fused != nullptr: stages 2+ against the precomputed row,
  /// on the batch's shared searcher `shared`, with `fused_share` seconds
  /// attributed as this request's proximity time). With the two sinks set
  /// (always together), captured deltas are handed to the caller as one
  /// batch element instead of being appended to the log per lane, and the
  /// finished response is parked in `deliver_sink` instead of delivered —
  /// RunFusedGroup merges the whole group under one log lock and only
  /// then releases the responses, preserving the single-path invariant
  /// that a resolved future's write-back is already in the log (a caller
  /// that joins its futures and calls PublishPending must see it).
  /// Dedup winners are unchanged: batch order is pop order, exactly the
  /// order the per-lane appends used.
  void ExecuteAdmitted(PendingQuery item, PooledSearcher* shared,
                       ProximityLaneOutcome* fused, double fused_share,
                       std::string_view fused_backend,
                       std::vector<std::vector<IndexDelta>>* group_sink,
                       std::vector<DeferredDelivery>* deliver_sink);

  /// Counts an abort against the right counter and stamps the response.
  void FinishAborted(Status status, QueryResponse* response);

  /// Completes a trace (disposition, total) and files it into the ring
  /// and, when slow enough, the slow-query log. No-op with tracing off.
  void FinishTrace(QueryTrace* trace, const QueryResponse& response,
                   uint64_t* trace_id_out);

  /// Per-backend request-latency histogram ("" and unknown names fall
  /// back to a shared "other" histogram). Lock-free for the pre-created
  /// registered backends.
  Histogram* BackendLatency(const std::string& backend);

  /// Pops a pooled searcher for `snap` (or builds one). Searchers hold
  /// O(n) workspaces, so reuse across queries matters.
  PooledSearcher AcquireSearcher(
      const std::shared_ptr<const IndexSnapshot>& snap);
  void ReleaseSearcher(PooledSearcher pooled);

  void MaybePublish();

  /// Drains shards with >= min_shard_pending deltas (0 = all) and
  /// publishes when anything tightened. Returns deltas applied;
  /// `drained` (optional) receives the number of deltas taken out of the
  /// log — 0 means every pending shard was below the threshold and the
  /// caller must not retry until more deltas arrive. A delta publish also
  /// advances the residency epoch (mmap tier), folding promotions /
  /// demotions into the same snapshot swap.
  uint64_t PublishLocked(size_t min_shard_pending, size_t* drained = nullptr);

  /// Applies one residency epoch to the publisher's private clone
  /// (promote hot, demote cold-clean). Caller holds publish_mu_. Returns
  /// shards moved.
  size_t ApplyResidencyLocked(LowerBoundIndex* next);

  /// Forwards the backing source's monotone fault/eviction totals into
  /// the registry counters (CAS-delta; safe from concurrent scrapes).
  void SyncBackingMetrics() const;

  /// Forwards the refinement log's dropped-stale total into the registry
  /// counter (same CAS-delta pattern).
  void SyncLogMetrics() const;

  /// Builds the shared backend catalog over `version`'s operator: one
  /// backend per distinct non-PMPN tier config, parsed and constructed
  /// HERE — once per graph version — instead of once per pooled searcher.
  /// Null when every tier runs PMPN; the factory's error for a config it
  /// rejects.
  static Result<std::shared_ptr<const VersionedBackends>> MakeSharedBackends(
      const ServingOptions& options,
      const std::shared_ptr<const GraphVersion>& version);

  /// The mutation worker's thread body: waits for ApplyUpdates wake-ups
  /// and runs DrainMutations under publish_mu_. A dedicated thread, NOT a
  /// pool ticket — the repair fans out onto the pool (ParallelForRange),
  /// and full rebuilds use ParallelFor, which must not be entered from a
  /// pool task.
  void MutationWorker();

  /// Drains the MutationLog and publishes one mutated snapshot. Caller
  /// holds publish_mu_. Resolves every drained batch's promise.
  void DrainMutations();

  ServingOptions options_;
  /// Build-time knobs for mutation repair/rebuild (the source engine may
  /// not outlive a rebuild decision, so they are copied at creation).
  EngineOptions engine_options_;
  /// Node count (immutable: edge updates never change the node set).
  uint32_t num_nodes_ = 0;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<size_t> peak_batch_{0};

  mutable std::mutex snapshot_mu_;  // guards snapshot_/shared_backends_
                                    // swap/load
  std::shared_ptr<const IndexSnapshot> snapshot_;
  std::shared_ptr<const VersionedBackends> shared_backends_;

  /// Feedback-driven approximation budgets (see ServingOptions::adaptive).
  BudgetController budgets_;

  AdmissionQueue queue_;
  std::atomic<bool> paused_{false};
  RefinementLog log_;
  QueryCache cache_;
  std::mutex publish_mu_;  // serializes the single snapshot writer

  // ------------------------------------------------------ mutation plane --
  MutationLog mutations_;
  std::mutex mutation_mu_;  // guards the worker's wake/stop flags only
  std::condition_variable mutation_cv_;
  bool mutation_stop_ = false;
  bool mutation_wake_ = false;
  std::thread mutation_thread_;
  /// Pool for mutation repairs when mutation_threads > 1 (created lazily
  /// on the first drain, used only by the mutation worker). Null means
  /// repairs run inline on the mutation thread (mutation_threads == 1)
  /// or on the query pool (mutation_threads == 0).
  std::unique_ptr<ThreadPool> mutation_pool_;

  /// Residency epoch planner (mmap tier only; null for heap indexes).
  /// Touched only under publish_mu_.
  std::unique_ptr<ShardResidencyManager> residency_;
  /// Source totals already forwarded into the registry counters.
  mutable std::atomic<uint64_t> faults_seen_{0};
  mutable std::atomic<uint64_t> evictions_seen_{0};
  mutable std::atomic<uint64_t> dropped_stale_seen_{0};

  std::mutex searchers_mu_;
  std::vector<PooledSearcher> free_searchers_;

  // All engine-level counters and histograms live in the registry
  // (ServingStats is a view over it); the struct below caches the
  // instrument pointers resolved once at construction so the hot path
  // never takes the registry's get-or-create lock.
  MetricsRegistry registry_;
  struct Instruments {
    Counter* submitted = nullptr;
    Counter* shed = nullptr;
    Counter* expired = nullptr;
    Counter* cancelled = nullptr;
    Counter* queries = nullptr;
    Counter* exact_tier = nullptr;
    Counter* approximate_tier = nullptr;
    Counter* escalations = nullptr;
    Counter* partial_escalations = nullptr;
    Counter* full_escalations = nullptr;
    Counter* adaptive_resets = nullptr;
    Counter* certified = nullptr;
    Counter* uncertified = nullptr;
    Counter* cache_hits = nullptr;
    Counter* cache_misses = nullptr;
    Counter* batches = nullptr;
    Counter* batched_queries = nullptr;
    Counter* deltas_recorded = nullptr;
    Counter* deltas_applied = nullptr;
    Counter* epochs_published = nullptr;
    Counter* shards_copied = nullptr;
    Counter* shard_faults = nullptr;
    Counter* shard_evictions = nullptr;
    Counter* mutation_batches = nullptr;
    Counter* mutation_rejected = nullptr;
    Counter* mutation_updates = nullptr;
    Counter* mutation_affected = nullptr;
    Counter* mutation_hub_resolves = nullptr;
    Counter* mutation_repairs = nullptr;
    Counter* mutation_invalidations = nullptr;
    Counter* mutation_rebuilds = nullptr;
    Counter* refinements_dropped_stale = nullptr;
    Histogram* queue_wait = nullptr;
    Histogram* fused_proximity_seconds = nullptr;
    Histogram* request_latency = nullptr;
    Histogram* exact_tier_latency = nullptr;
    Histogram* approximate_tier_latency = nullptr;
    Histogram* proximity_seconds = nullptr;
    Histogram* prune_seconds = nullptr;
    Histogram* refine_seconds = nullptr;
    Histogram* publish_seconds = nullptr;
    Histogram* mutation_publish_seconds = nullptr;
    Histogram* other_backend_latency = nullptr;
    // Gauges, refreshed from their components at Metrics() time.
    Gauge* queue_depth = nullptr;
    Gauge* peak_queue_depth = nullptr;
    Gauge* peak_batch_size = nullptr;
    Gauge* pending_deltas = nullptr;
    Gauge* current_epoch = nullptr;
    Gauge* index_shards = nullptr;
    Gauge* cache_entries = nullptr;
    Gauge* resident_shards = nullptr;
    Gauge* mmap_bytes = nullptr;
    Gauge* graph_version = nullptr;
    Gauge* pending_mutations = nullptr;
    /// One request-latency histogram per registered proximity backend,
    /// resolved by linear scan (the set is tiny and fixed).
    std::vector<std::pair<std::string, Histogram*>> backend_latency;
    /// One budget-scale gauge per registered backend, refreshed from the
    /// controller at Metrics() time.
    std::vector<std::pair<std::string, Gauge*>> adaptive_scale;
  };
  Instruments ins_;
  TraceRing traces_;
  SlowQueryLog slow_log_;
};

}  // namespace rtk

#endif  // RTK_SERVING_SERVING_ENGINE_H_
