#include "serving/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "dynamic/index_repair.h"
#include "exec/proximity_backends.h"
#include "exec/query_pipeline.h"
#include "index/shard_backing.h"

namespace rtk {

namespace {

/// Response skeleton echoing the request's identity fields; every
/// delivery path (fast paths, shed, worker execution) starts from this so
/// the echoes cannot drift apart.
QueryResponse MakeResponseHeader(const QueryRequest& request) {
  QueryResponse response;
  response.query = request.query;
  response.k = request.k;
  response.priority = request.priority;
  return response;
}

double SecondsSince(SteadyTimePoint start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Prometheus-safe backend name: "monte-carlo" -> "monte_carlo".
std::string MetricSafe(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '-' || c == '.' || c == ' ') c = '_';
  }
  return out;
}

TraceDisposition DispositionOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return TraceDisposition::kShed;
    case StatusCode::kDeadlineExceeded:
      return TraceDisposition::kExpired;
    case StatusCode::kCancelled:
      return TraceDisposition::kCancelled;
    default:
      return status.ok() ? TraceDisposition::kOk : TraceDisposition::kError;
  }
}

}  // namespace

ServingEngine::ServingEngine(const ReverseTopkEngine& engine,
                             const ServingOptions& options,
                             std::shared_ptr<const GraphVersion> version0,
                             std::shared_ptr<const VersionedBackends> backends)
    : options_(options),
      engine_options_(engine.options()),
      num_nodes_(engine.graph().num_nodes()),
      queue_(options.max_pending),
      cache_(options.cache),
      backend_names_(RegisteredProximityBackendNames()),
      backend_latency_(backend_names_.size() + 1),
      traces_(options.trace_ring_capacity),
      slow_log_(options.slow_query_threshold_seconds,
                options.slow_query_log_capacity) {
  const int threads = options_.num_threads > 0 ? options_.num_threads
                                               : ThreadPool::DefaultThreads();
  pool_ = std::make_unique<ThreadPool>(threads);
  snapshot_ = std::make_shared<const IndexSnapshot>(
      LowerBoundIndex(engine.index()), /*epoch=*/0, std::move(version0));
  shared_backends_ = std::move(backends);
  if (snapshot_->index().storage_tier() == StorageTier::kMmap) {
    residency_ = std::make_unique<ShardResidencyManager>(
        options_.shard_promote_touches, options_.shard_demote_epochs,
        snapshot_->index().num_shards());
  }
  shard_source_ = snapshot_->index().shard_source();

  // Start the mutation worker last: its drain reads every member above.
  mutation_thread_ = std::thread([this] { MutationWorker(); });
}

Result<std::shared_ptr<const ServingEngine::VersionedBackends>>
ServingEngine::MakeSharedBackends(
    const ServingOptions& options,
    const std::shared_ptr<const GraphVersion>& version) {
  auto holder = std::make_shared<VersionedBackends>();
  holder->version = version;
  for (const ProximityBackendConfig* config :
       {&options.exact_tier_backend, &options.approximate_tier_backend}) {
    // Pipeline builtins resolve without the factory; a catalog entry for
    // them would only shadow the per-pipeline instances.
    if (IsPmpnBackendName(config->name)) continue;
    if (holder->catalog.Find(*config) != nullptr) continue;  // tiers coincide
    RTK_ASSIGN_OR_RETURN(std::unique_ptr<ProximityBackend> built,
                         MakeProximityBackend(version->op(), *config));
    holder->catalog.entries.push_back(
        SharedProximityBackends::Entry{*config, std::move(built)});
  }
  if (holder->catalog.entries.empty()) holder.reset();
  return std::shared_ptr<const VersionedBackends>(std::move(holder));
}

Histogram& ServingEngine::BackendLatency(std::string_view backend) {
  size_t i = 0;
  while (i < backend_names_.size() && backend_names_[i] != backend) ++i;
  return backend_latency_[i];  // past the names: "other"
}

void ServingEngine::FinishTrace(QueryTrace* trace,
                                const QueryResponse& response,
                                uint64_t* trace_id_out) {
  if (trace == nullptr) return;
  trace->query = response.query;
  trace->k = response.k;
  trace->epoch = response.epoch;
  trace->backend = response.backend;
  trace->escalated = response.stats.escalated;
  trace->escalation_mode = static_cast<uint8_t>(response.stats.escalation_mode);
  trace->escalated_nodes = response.stats.escalated_nodes;
  trace->disposition = response.cache_hit ? TraceDisposition::kCacheHit
                                          : DispositionOf(response.status);
  trace->Finish();
  // Ring first (it assigns the id), then the slow log, so a slow entry
  // carries the same trace_id its ring twin has.
  const uint64_t id = traces_.Record(*trace);
  trace->trace_id = id;
  slow_log_.MaybeRecord(*trace);
  if (trace_id_out != nullptr) *trace_id_out = id;
}

ServingEngine::~ServingEngine() {
  // Stop the mutation worker first: its repairs fan out onto the pool, so
  // it must be joined before the pool is torn down.
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    mutation_stop_ = true;
  }
  mutation_cv_.notify_all();
  if (mutation_thread_.joinable()) mutation_thread_.join();
  // Fail batches enqueued after the worker's last drain with kCancelled
  // (and every later Enqueue resolves the same way).
  mutations_.Shutdown();
  // Every dispatch ticket runs, and so does every helper task a ticket
  // fans out; tickets that executed while paused (or raced a concurrent
  // pop) left their requests behind. Wait while pool_ is still set: a
  // running ticket reads it (ExecuteBatch, AcquireSearcher) even after
  // its requests' responses are delivered.
  pool_->Wait();
  pool_.reset();
  // Fail whatever is still queued — a promise must never be dropped.
  for (PendingQuery& item : queue_.PopUpTo(queue_.depth())) {
    QueryResponse response = MakeResponseHeader(item.request);
    response.status = Status::Cancelled("serving engine shut down");
    response.total_seconds = SecondsSince(item.enqueued_at);
    item.deliver(std::move(response));
  }
}

Result<std::unique_ptr<ServingEngine>> ServingEngine::Create(
    const ReverseTopkEngine& engine, const ServingOptions& options) {
  // The drain turns each fraction into a node cap by a float-to-integer
  // cast, which is undefined outside [0, n]; NaN fails both comparisons.
  for (const double fraction :
       {options.mutation_repair_fraction, options.mutation_rebuild_fraction}) {
    if (!(fraction >= 0.0 && fraction <= 1.0)) {
      return Status::InvalidArgument(
          "serving: mutation fractions must be in [0, 1]");
    }
  }
  if (options.mutation_threads < 0) {
    return Status::InvalidArgument("serving: mutation_threads must be >= 0");
  }
  ServingOptions opts = options;
  // Inherit the engine's solver settings the way ReverseTopkEngine::Query
  // does (the searcher re-pins alpha to the index's alpha regardless).
  opts.query.pmpn = engine.options().solver;
  // Version 0 borrows the source engine's graph and operator (the engine
  // must outlive the serving layer — the pre-mutation contract, kept so
  // startup never copies the graph); every mutation publish adopts an
  // owned graph+operator pair instead.
  std::shared_ptr<const GraphVersion> version0 =
      GraphVersion::Borrow(engine.graph(), engine.transition(), /*version=*/0);
  // The catalog build is each tier config's one factory pass, so a backend
  // name the factory rejects fails here instead of on every request of
  // its tier.
  RTK_ASSIGN_OR_RETURN(std::shared_ptr<const VersionedBackends> backends,
                       MakeSharedBackends(opts, version0));
  return std::unique_ptr<ServingEngine>(new ServingEngine(
      engine, opts, std::move(version0), std::move(backends)));
}

std::shared_ptr<const IndexSnapshot> ServingEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

// --------------------------------------------------------------- submit --

std::future<QueryResponse> ServingEngine::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  Submit(std::move(request), [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void ServingEngine::Submit(QueryRequest request, ResponseCallback on_done) {
  submitted_.Increment();
  const SteadyTimePoint submitted_at = SteadyClock::now();
  const bool tracing = traces_.enabled();

  // Requests resolved on this thread (tripped control, cache hit, shed)
  // still leave a trace: a ring that only held worker-run requests would
  // hide exactly the dispositions an overload investigation looks for.
  const auto finish_here = [&](QueryResponse response) {
    response.total_seconds = SecondsSince(submitted_at);
    if (tracing) {
      QueryTrace trace;
      trace.StartAt(submitted_at);
      trace.approximate_tier =
          request.tier == AccuracyTier::kApproximateHitsOnly;
      trace.EndSpan(TracePhase::kAdmission, submitted_at);
      FinishTrace(&trace, response, &response.trace_id);
    }
    on_done(std::move(response));
  };

  // Submit-thread fast paths — neither consumes a queue slot or a worker.
  // 1. A control that is already tripped (deadline in the past, token
  //    cancelled before submission) resolves immediately.
  const ExecControl control{request.deadline, request.cancel};
  if (control.active()) {
    if (Status tripped = control.Check(); !tripped.ok()) {
      QueryResponse response = MakeResponseHeader(request);
      FinishAborted(std::move(tripped), &response);
      finish_here(std::move(response));
      return;
    }
  }
  // 2. A result cached under the current epoch is handed out right here:
  //    a hit costs one sharded-LRU probe, never admission latency — and
  //    cache hits can never be shed. Misses fall through to the queue;
  //    the worker skips re-probing (insert-only), so the cache's own
  //    hit/miss counts stay exactly one-per-request.
  double cache_probe_seconds = 0.0;
  if (!request.bypass_cache && request.tier == AccuracyTier::kExact) {
    std::shared_ptr<const IndexSnapshot> snap = snapshot();
    const QueryCache::Key key{request.query, request.k, snap->epoch()};
    const SteadyTimePoint probe_began = SteadyClock::now();
    QueryCache::Value cached = cache_.Lookup(key);
    cache_probe_seconds = SecondsSince(probe_began);
    if (cached != nullptr) {
      exact_tier_.Increment();
      QueryResponse response = MakeResponseHeader(request);
      response.epoch = snap->epoch();
      response.cache_hit = true;
      response.results = *cached;
      const double total = SecondsSince(submitted_at);
      request_latency_.Record(total);
      exact_tier_latency_.Record(total);
      response.total_seconds = total;
      if (tracing) {
        QueryTrace trace;
        trace.StartAt(submitted_at);
        trace.EndSpan(TracePhase::kAdmission, submitted_at);
        trace.AddSpan(TracePhase::kCacheProbe, cache_probe_seconds);
        FinishTrace(&trace, response, &response.trace_id);
      }
      on_done(std::move(response));
      return;
    }
  }

  PendingQuery item;
  item.request = std::move(request);
  item.deliver = std::move(on_done);
  item.enqueued_at = submitted_at;
  item.admission_seconds = SecondsSince(submitted_at);
  item.cache_probe_seconds = cache_probe_seconds;
  if (!queue_.TryPush(item)) {
    // Shed at admission (the queue counts it): resolve synchronously on
    // the submitting thread.
    QueryResponse response = MakeResponseHeader(item.request);
    response.status = Status::ResourceExhausted(
        "admission queue full (max_pending=" +
        std::to_string(options_.max_pending) + ")");
    response.total_seconds = SecondsSince(submitted_at);
    if (tracing) {
      QueryTrace trace;
      trace.StartAt(submitted_at);
      trace.approximate_tier =
          item.request.tier == AccuracyTier::kApproximateHitsOnly;
      trace.EndSpan(TracePhase::kAdmission, submitted_at);
      FinishTrace(&trace, response, &response.trace_id);
    }
    item.deliver(std::move(response));
    return;
  }
  // One ticket per admitted request. Tickets are anonymous — each pops the
  // most urgent pending request at execution time, so dispatch follows
  // priority order even though the pool's own task queue is FIFO.
  pool_->Submit([this] { DispatchOne(); });
}

void ServingEngine::DispatchOne() {
  if (paused_.load(std::memory_order_acquire)) return;
  // Drain up to max_batch (at least one: PopUpTo(0) pops nothing, which
  // would strand max_batch = 0 traffic) in ONE queue lock. Each admitted
  // request issued its own ticket, so a ticket that pops k requests leaves
  // k-1 later tickets to no-op — requests can never strand (tickets
  // outstanding always >= queued requests).
  const size_t max_batch = std::max<size_t>(1, options_.max_batch);
  std::vector<PendingQuery> batch = queue_.PopUpTo(max_batch);
  if (batch.empty()) return;  // raced another ticket (or a Resume surplus)
  if (batch.size() < max_batch && options_.batch_window > 0.0) {
    // Gather window: trade a bounded latency hit for a wider fused block.
    // The popped requests are already ours, so the sleep delays only them
    // — and their deadlines are still honored at execution/solve time.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.batch_window));
    std::vector<PendingQuery> more = queue_.PopUpTo(max_batch - batch.size());
    for (PendingQuery& item : more) batch.push_back(std::move(item));
  }
  ExecuteBatch(std::move(batch));
}

void ServingEngine::ExecuteBatch(std::vector<PendingQuery> items) {
  // Requests that cannot occupy a lane run as singles: already-tripped
  // controls abort there without spending solve work, and an out-of-range
  // query must fail alone instead of poisoning the fused solve's
  // validation. The rest group by accuracy tier — the tier's backend
  // config decides both fusability and the solve's knobs.
  std::vector<PendingQuery> singles;
  std::vector<PendingQuery> tiers[2];  // [0] exact, [1] approximate
  for (PendingQuery& item : items) {
    const ExecControl control{item.request.deadline, item.request.cancel};
    const bool tripped = control.active() && !control.Check().ok();
    if (tripped || item.request.query >= num_nodes_) {
      singles.push_back(std::move(item));
    } else {
      tiers[item.request.tier == AccuracyTier::kApproximateHitsOnly].push_back(
          std::move(item));
    }
  }
  // Loaded only once a group forms: a lone request takes its own snapshot
  // in ExecuteAdmitted, so single-request dispatch pays for one load.
  std::shared_ptr<const IndexSnapshot> snap;
  for (int approx = 0; approx < 2; ++approx) {
    std::vector<PendingQuery>& live = tiers[approx];
    if (live.size() >= 2) {
      // The pooled searcher is built over the snapshot's graph version, so
      // the backend it resolves reads the operator the group's prune and
      // refine run against.
      if (snap == nullptr) snap = snapshot();
      PooledSearcher pooled = AcquireSearcher(snap);
      Result<ProximityBackend*> backend =
          pooled.searcher->pipeline().ResolveBackend(
              approx ? options_.approximate_tier_backend
                     : options_.exact_tier_backend);
      if (backend.ok() && (*backend)->fused_multi()) {
        RunFusedGroup(std::move(live), std::move(pooled), *backend);
        continue;
      }
      ReleaseSearcher(std::move(pooled));
    }
    // A lone live request gains nothing from the fused layout, and a
    // backend that cannot fuse would only loop Compute.
    for (PendingQuery& item : live) singles.push_back(std::move(item));
  }
  // Side by side on the pool: this ticket popped the whole batch, so the
  // other workers' tickets find the queue empty. A single runs inline.
  ParallelForRange(pool_.get(), 0, static_cast<int64_t>(singles.size()),
                   /*max_parallelism=*/0, /*grain=*/1,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       ExecuteRequest(std::move(singles[i]));
                     }
                   });
}

void ServingEngine::RunFusedGroup(std::vector<PendingQuery> live,
                                  PooledSearcher pooled,
                                  ProximityBackend* backend) {
  batches_.Increment();
  batched_queries_.Increment(live.size());
  size_t peak = peak_batch_.load(std::memory_order_relaxed);
  while (live.size() > peak &&
         !peak_batch_.compare_exchange_weak(peak, live.size(),
                                            std::memory_order_relaxed)) {
  }

  // One snapshot and one pooled searcher serve the whole group; every
  // lane's response reports this epoch, exactly as if each request had
  // popped it individually.
  std::shared_ptr<const IndexSnapshot> snap = pooled.snapshot;

  // Stable ExecControl storage: the solver keeps per-lane pointers and
  // polls them once per iteration — a mid-solve deadline/cancel masks
  // that lane out of the block while its batch-mates keep iterating.
  std::vector<ExecControl> controls;
  controls.reserve(live.size());
  std::vector<ProximityLaneSpec> lanes;
  lanes.reserve(live.size());
  for (PendingQuery& item : live) {
    controls.push_back(ExecControl{item.request.deadline, item.request.cancel});
    lanes.push_back({item.request.query,
                     controls.back().active() ? &controls.back() : nullptr});
  }

  RwrOptions pmpn_opts = options_.query.pmpn;
  pmpn_opts.alpha = snap->index().bca_options().alpha;  // one alpha everywhere

  // Mirror the pipeline's EffectivePool policy for the engine-level
  // num_threads setting (per-request overrides only affect that request's
  // own prune/refine stages; intra-solve parallelism is a batch-level
  // scheduling choice and cannot change any lane's bits).
  int max_parallelism = 1;
  ThreadPool* pool = nullptr;
  if (options_.query.num_threads != 1) {
    pool = pool_.get();
    max_parallelism = options_.query.num_threads > 0
                          ? std::min(options_.query.num_threads,
                                     pool->num_threads())
                          : pool->num_threads();
  }

  const SteadyTimePoint solve_began = SteadyClock::now();
  std::vector<ProximityLaneOutcome> outcomes =
      backend->ComputeMulti(lanes, pmpn_opts, pool, max_parallelism);
  const double fused_seconds = SecondsSince(solve_began);
  fused_proximity_.Record(fused_seconds);
  // Each lane's share of the fused wall time is the batch's amortization,
  // made visible: it lands in that request's pmpn_seconds/trace span.
  const double share = fused_seconds / static_cast<double>(live.size());

  // Per-group delta aggregation: every lane parks its captured deltas
  // (and its finished response) here; the group merges the deltas into
  // the log under ONE lock, in pop order — the same order the per-lane
  // appends used, so the dedup winners (and thus the next published
  // epoch) are byte-identical.
  std::vector<std::vector<IndexDelta>> group_deltas;
  std::vector<DeferredDelivery> deliveries;
  deliveries.reserve(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    ExecuteAdmitted(std::move(live[i]), &pooled, &outcomes[i], share,
                    backend->name(), &group_deltas, &deliveries);
  }
  ReleaseSearcher(std::move(pooled));
  // Append strictly BEFORE resolving any lane's future: a caller that has
  // joined its futures and then flushes the log (PublishPending) must
  // observe this group's write-back, exactly as on the single path where
  // each request appends before delivering. The append is tagged with the
  // graph version the group served — a mutation publish racing this
  // group makes the whole append a no-op (stale bounds must never reach a
  // post-mutation index).
  const bool appended = !group_deltas.empty();
  if (appended) {
    log_.Append(std::move(group_deltas), snap->graph_version()->version());
  }
  for (DeferredDelivery& d : deliveries) d.deliver(std::move(d.response));
  if (appended) MaybePublish();
}

void ServingEngine::Pause() { paused_.store(true, std::memory_order_release); }

void ServingEngine::Resume() {
  paused_.store(false, std::memory_order_release);
  // Tickets that ran while paused were consumed without popping; reissue
  // one per backlog entry. Surplus tickets no-op harmlessly.
  const size_t backlog = queue_.depth();
  for (size_t i = 0; i < backlog; ++i) {
    pool_->Submit([this] { DispatchOne(); });
  }
}

void ServingEngine::FinishAborted(Status status, QueryResponse* response) {
  if (status.code() == StatusCode::kCancelled) {
    cancelled_.Increment();
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    expired_.Increment();
  }
  response->status = std::move(status);
}

void ServingEngine::ExecuteRequest(PendingQuery item) {
  ExecuteAdmitted(std::move(item), /*shared=*/nullptr, /*fused=*/nullptr,
                  /*fused_share=*/0.0, /*fused_backend=*/{},
                  /*group_sink=*/nullptr, /*deliver_sink=*/nullptr);
}

void ServingEngine::ExecuteAdmitted(
    PendingQuery item, PooledSearcher* shared, ProximityLaneOutcome* fused,
    double fused_share, std::string_view fused_backend,
    std::vector<std::vector<IndexDelta>>* group_sink,
    std::vector<DeferredDelivery>* deliver_sink) {
  const QueryRequest& request = item.request;
  QueryResponse response = MakeResponseHeader(request);
  const double queue_seconds = SecondsSince(item.enqueued_at);
  response.queue_wait_seconds = queue_seconds;
  queue_wait_.Record(queue_seconds);
  const bool approximate_tier =
      request.tier == AccuracyTier::kApproximateHitsOnly;

  // The trace timeline is anchored at submit time (enqueued_at), so the
  // submit-thread phases — measured over there and carried through the
  // queue in the PendingQuery — slot in at their true offsets and the
  // queue-wait span starts where admission work ended.
  QueryTrace trace;
  QueryTrace* trace_ptr = traces_.enabled() ? &trace : nullptr;
  if (trace_ptr != nullptr) {
    trace.StartAt(item.enqueued_at);
    trace.approximate_tier = approximate_tier;
    trace.AddSpanAt(TracePhase::kAdmission, 0.0, item.admission_seconds);
    if (item.cache_probe_seconds > 0.0) {
      trace.AddSpanAt(TracePhase::kCacheProbe,
                      item.admission_seconds - item.cache_probe_seconds,
                      item.cache_probe_seconds);
    }
    trace.AddSpanAt(TracePhase::kQueueWait, item.admission_seconds,
                    std::max(0.0, queue_seconds - item.admission_seconds));
  }

  ExecControl control{request.deadline, request.cancel};
  bool executed = false;
  const auto deliver = [&] {
    const double total = SecondsSince(item.enqueued_at);
    response.total_seconds = total;
    if (executed) {
      request_latency_.Record(total);
      (approximate_tier ? approximate_tier_latency_ : exact_tier_latency_)
          .Record(total);
      BackendLatency(response.backend).Record(total);
    }
    FinishTrace(trace_ptr, response, &response.trace_id);
    if (deliver_sink != nullptr) {
      // Fused lane: the future resolves only after the group's deltas
      // are in the log (RunFusedGroup releases the parked responses).
      deliver_sink->push_back({std::move(item.deliver), std::move(response)});
    } else {
      item.deliver(std::move(response));
    }
  };

  // A queued request that expired or was cancelled while waiting is never
  // run — under overload this is where most of the shed deadline budget
  // comes back.
  if (Status admitted = control.Check(); !admitted.ok()) {
    FinishAborted(std::move(admitted), &response);
    deliver();
    return;
  }
  // Counted only now: `queries` means requests that reached execution.
  (approximate_tier ? approximate_tier_ : exact_tier_).Increment();
  executed = true;

  // A batched request serves the snapshot its fused solve ran against;
  // singles pop the current one.
  std::shared_ptr<const IndexSnapshot> snap =
      shared != nullptr ? shared->snapshot : snapshot();
  response.epoch = snap->epoch();
  // The cache probe happened on the submitting thread (Submit's fast
  // path); this request missed, so the worker only inserts afterwards —
  // re-probing here would double-count misses. Approximate-tier results
  // are a different (subset) answer and must not collide with exact
  // entries under the same (q, k, epoch) key; they are cheap to
  // recompute, so they skip the cache entirely. Exact-tier results remain
  // cacheable for ANY configured backend: certify-or-escalate makes them
  // byte-identical to PMPN's.
  const bool cacheable =
      !request.bypass_cache && request.tier == AccuracyTier::kExact;

  if (fused != nullptr && !fused->status.ok()) {
    // This lane's control tripped inside the fused solve — the solver
    // masked its column out and its batch-mates kept iterating. Nothing
    // was written back; deliver the abort like any mid-pipeline one.
    FinishAborted(std::move(fused->status), &response);
    deliver();
    return;
  }

  PooledSearcher local_pooled;
  ReverseTopkSearcher* searcher = nullptr;
  if (shared != nullptr) {
    searcher = shared->searcher.get();  // the batch shares one searcher
  } else {
    local_pooled = AcquireSearcher(snap);
    searcher = local_pooled.searcher.get();
  }
  QueryOptions query_opts = options_.query;
  query_opts.k = request.k;
  query_opts.approximate_hits_only = approximate_tier;
  // Accuracy-tier routing: each tier runs its configured backend.
  query_opts.proximity = approximate_tier ? options_.approximate_tier_backend
                                          : options_.exact_tier_backend;
  // Self-tuning approximation: exact-tier requests on a non-builtin
  // backend consume the controller's current budget scale and turn the
  // bound-targeted epsilon on. The feedback only ever moves latency —
  // certify-or-escalate still guards every answer byte.
  const bool adaptive_backend =
      !approximate_tier && !IsPmpnBackendName(query_opts.proximity.name);
  if (options_.adaptive && adaptive_backend) {
    query_opts.partial_escalation = true;
    query_opts.bound_targeted_epsilon = true;
    query_opts.approx_budget_scale =
        budgets_.ScaleFor(query_opts.proximity.name);
  }
  query_opts.update_index = request.update_index;
  if (request.num_threads != 0) query_opts.num_threads = request.num_threads;
  std::vector<IndexDelta> deltas;
  query_opts.delta_sink =
      request.update_index ? &deltas : nullptr;  // capture, never write
  query_opts.control = control.active() ? &control : nullptr;
  query_opts.trace = trace_ptr;  // pipeline appends the stage spans
  Result<std::vector<uint32_t>> result =
      fused != nullptr
          ? searcher->pipeline().RunWithRow(request.query, query_opts,
                                            std::move(fused->row), fused_share,
                                            fused_backend, &response.stats)
          : searcher->Query(request.query, query_opts, &response.stats);
  if (shared == nullptr) ReleaseSearcher(std::move(local_pooled));
  proximity_seconds_.Record(response.stats.pmpn_seconds);
  prune_seconds_.Record(response.stats.prune_seconds);
  refine_seconds_.Record(response.stats.refine_seconds);
  // Which backend actually produced the served row: a partial escalation
  // keeps the approximate backend's row (the settles only decided the
  // uncertain remainder), so only a FULL escalation reports PMPN.
  response.backend = response.stats.escalated
                         ? std::string(kPmpnBackendName)
                         : response.stats.backend;
  switch (response.stats.escalation_mode) {
    case EscalationMode::kPartial:
      partial_escalations_.Increment();
      break;
    case EscalationMode::kFull:
      full_escalations_.Increment();
      break;
    case EscalationMode::kNone:
      break;
  }
  if (options_.adaptive && adaptive_backend && result.ok()) {
    budgets_.Record(query_opts.proximity.name,
                    response.stats.escalation_mode);
  }
  if (!result.ok()) {
    // An aborted pipeline emitted no deltas and wrote nothing back; the
    // snapshot chain is exactly as if the request never ran.
    FinishAborted(result.status(), &response);
    deliver();
    return;
  }
  (response.stats.prox_certified ? certified_ : uncertified_).Increment();

  if (!deltas.empty()) {
    deltas_recorded_.Increment(deltas.size());
    if (group_sink != nullptr) {
      // Fused lane: the group merges everyone's deltas under one log lock
      // after the fan-back (and runs the publish check once).
      group_sink->push_back(std::move(deltas));
    } else {
      // Tagged with the version served: a delta refined against a
      // pre-mutation snapshot is dropped, never folded into the new
      // graph's index.
      log_.Append(std::move(deltas), snap->graph_version()->version());
      MaybePublish();
    }
  }
  if (cacheable && response.stats.prox_certified) {
    // Keyed under the epoch actually served (it may have advanced past
    // the one the submit-time probe missed on). Answers derived from a
    // merely-probabilistic certificate (a non-escalated Monte-Carlo row)
    // are exact only w.h.p. — serve them once but never pin them into the
    // epoch's cache.
    cache_.Insert(QueryCache::Key{request.query, request.k, snap->epoch()},
                  std::make_shared<const std::vector<uint32_t>>(*result));
  }
  response.results = std::move(*result);
  deliver();
}

// --------------------------------------------------- synchronous surface --

Result<std::vector<uint32_t>> ServingEngine::Query(uint32_t q, uint32_t k) {
  QueryRequest request;
  request.query = q;
  request.k = k;
  QueryResponse response = Submit(std::move(request)).get();
  if (!response.status.ok()) return response.status;
  return std::move(response.results);
}

std::vector<QueryResponse> ServingEngine::QueryBatch(
    const std::vector<uint32_t>& queries, uint32_t k) {
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (uint32_t q : queries) {
    QueryRequest request;
    request.query = q;
    request.k = k;
    request.priority = RequestPriority::kBatch;
    requests.push_back(std::move(request));
  }
  return SubmitBatch(std::move(requests));
}

std::vector<QueryResponse> ServingEngine::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<QueryResponse> responses;
  responses.reserve(requests.size());
  // A batch is closed-loop (the caller blocks for everything), so it must
  // not race its own backlog into the admission bound: cap the in-flight
  // window at half of max_pending — deep enough to keep every worker fed,
  // shallow enough that a lone batch can never shed itself and concurrent
  // submitters keep queue room. Open-loop traffic arriving on top can
  // still fill the queue, in which case individual batch entries carry
  // kResourceExhausted like any other shed request.
  const size_t window =
      options_.max_pending == 0
          ? requests.size()
          : std::max<size_t>(1, options_.max_pending / 2);
  std::deque<std::future<QueryResponse>> inflight;
  for (QueryRequest& request : requests) {
    if (inflight.size() >= window) {
      responses.push_back(inflight.front().get());
      inflight.pop_front();
    }
    inflight.push_back(Submit(std::move(request)));
  }
  while (!inflight.empty()) {
    responses.push_back(inflight.front().get());
    inflight.pop_front();
  }
  return responses;
}

// -------------------------------------------------------- searcher pool --

ServingEngine::PooledSearcher ServingEngine::AcquireSearcher(
    const std::shared_ptr<const IndexSnapshot>& snap) {
  {
    // Take only a searcher built against this exact snapshot OBJECT (not
    // just this epoch: a residency republish swaps the object under an
    // unchanged epoch, and its searchers must retire with it); leave the
    // rest in place so a straggler wanting an old snapshot doesn't
    // destroy fresh searchers.
    std::lock_guard<std::mutex> lock(searchers_mu_);
    for (auto it = free_searchers_.begin(); it != free_searchers_.end();
         ++it) {
      if (it->snapshot == snap) {
        PooledSearcher pooled = std::move(*it);
        free_searchers_.erase(it);
        return pooled;
      }
    }
  }
  PooledSearcher pooled;
  pooled.snapshot = snap;
  // The searcher reads the graph+index pair the snapshot pins: a worker
  // that acquired a pre-mutation snapshot keeps querying the matching
  // pre-mutation operator, no matter how many publishes race it.
  pooled.searcher = std::make_unique<ReverseTopkSearcher>(
      snap->graph_version()->op(), snap->index());
  // Lend the worker pool to the searcher's pipeline: when the serving
  // layer is configured with query.num_threads != 1, idle workers pick up
  // a big query's stage shards (the pipeline's fan-out is pool-reentrant,
  // so this is safe even when the query itself runs as a pool task).
  pooled.searcher->set_thread_pool(pool_.get());
  // Attach the engine's shared backend catalog when it was built over the
  // SAME graph version this snapshot pins (a backend reads the version's
  // operator): tier configs are then parsed/constructed once per version,
  // not once per pooled searcher. The pooled ref keeps the catalog alive
  // across any concurrent mutation swap.
  std::shared_ptr<const VersionedBackends> shared;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    shared = shared_backends_;
  }
  if (shared != nullptr && shared->version == snap->graph_version()) {
    pooled.backends = std::move(shared);
    pooled.searcher->pipeline().set_shared_backends(
        &pooled.backends->catalog);
  }
  return pooled;
}

void ServingEngine::ReleaseSearcher(PooledSearcher pooled) {
  // Searchers pinned to superseded snapshots are dropped, not pooled
  // (object identity, not epoch: a residency republish keeps the epoch).
  // The check must happen under searchers_mu_: the publisher swaps the
  // snapshot before clearing the pool under this same mutex, so a stale
  // searcher either sees the new snapshot (and is dropped) or is pushed
  // before the publisher's clear (and is swept).
  std::lock_guard<std::mutex> lock(searchers_mu_);
  if (pooled.snapshot != snapshot()) return;
  free_searchers_.push_back(std::move(pooled));
}

// ------------------------------------------------------------- publish --

void ServingEngine::MaybePublish() {
  if (options_.publish_threshold == 0) return;
  // Only one writer; a thread that loses the try_lock leaves its deltas to
  // the current publisher, whose re-check of the loop condition after
  // unlocking picks up anything appended after its drain (otherwise deltas
  // arriving mid-publish could strand above the threshold until the next
  // delta-producing query).
  while (log_.pending() >= options_.publish_threshold) {
    if (!publish_mu_.try_lock()) return;
    std::lock_guard<std::mutex> lock(publish_mu_, std::adopt_lock);
    PublishLocked();
  }
}

uint64_t ServingEngine::PublishPending() {
  uint64_t applied;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    applied = PublishLocked();
  }
  // Deltas appended while we held the lock may have crossed the automatic
  // threshold with their MaybePublish losing the try_lock; re-check so
  // they don't strand.
  MaybePublish();
  return applied;
}

uint64_t ServingEngine::PublishLocked() {
  const SteadyTimePoint publish_began = SteadyClock::now();
  std::shared_ptr<const IndexSnapshot> current = snapshot();
  // Deltas arrive grouped by storage shard so the copy-on-write clone
  // privatizes each dirty shard exactly once and writes it sequentially;
  // clean shards stay shared with the outgoing snapshot, making the
  // publish cost O(dirty shards), not O(n*K).
  std::vector<ShardDeltaGroup> groups =
      log_.DrainByShard(current->index().shard_nodes());
  if (groups.empty()) return 0;
  LowerBoundIndex next(current->index());  // shares every shard until written
  uint64_t applied = 0;
  for (ShardDeltaGroup& group : groups) {
    for (IndexDelta& delta : group.deltas) {
      if (next.ApplyIfTighter(std::move(delta))) ++applied;
    }
  }
  if (applied == 0) return 0;  // everything stale; keep the epoch
  // Piggyback one residency epoch on the publish (mmap tier): promotions
  // and demotions ride the same snapshot swap instead of paying their own.
  ApplyResidencyLocked(&next);
  shards_copied_.Increment(next.cow_shard_copies());
  cow_bytes_copied_.Increment(next.cow_bytes_copied());
  // A refinement publish keeps the graph version: only mutations move it.
  auto fresh = std::make_shared<const IndexSnapshot>(
      std::move(next), current->epoch() + 1, current->graph_version());
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = fresh;
  }
  {
    // Pooled searchers pinned to the old epoch are useless now.
    std::lock_guard<std::mutex> lock(searchers_mu_);
    free_searchers_.clear();
  }
  // Superseded cache entries can never be hit again; free their slots.
  cache_.PurgeOtherEpochs(fresh->epoch());
  deltas_applied_.Increment(applied);
  epochs_published_.Increment();
  // Timed only when a snapshot actually went out: the histogram answers
  // "what does a publish cost", not "what does checking the log cost".
  publish_seconds_.Record(SecondsSince(publish_began));
  return applied;
}

size_t ServingEngine::ApplyResidencyLocked(LowerBoundIndex* next) {
  if (residency_ == nullptr) return 0;
  const ResidencyPlan plan = residency_->Advance(next->storage());
  for (uint32_t s : plan.promote) next->EnsureShardResident(s);
  for (uint32_t s : plan.demote) next->ReleaseCleanShard(s);
  return plan.promote.size() + plan.demote.size();
}

size_t ServingEngine::MaintainResidency() {
  if (residency_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::shared_ptr<const IndexSnapshot> current = snapshot();
  // Plan against a private clone (the manager's Advance consumes the
  // source's epoch touch counters; EnsureShardResident / ReleaseCleanShard
  // are writes and must never touch the published object).
  LowerBoundIndex next(current->index());
  const size_t moved = ApplyResidencyLocked(&next);
  if (moved == 0) return 0;
  // Residency never changes any result byte, so the adjusted index
  // republishes under the SAME epoch: cached answers stay valid (no
  // purge) and in-flight readers of the old snapshot object are
  // unaffected (shards are shared; demotion only clears the clone's
  // slot). Pooled searchers hold bound span pointers into the old
  // snapshot's materializations, so the pool is swept like any publish.
  auto fresh = std::make_shared<const IndexSnapshot>(
      std::move(next), current->epoch(), current->graph_version());
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    snapshot_ = fresh;
  }
  {
    std::lock_guard<std::mutex> searcher_lock(searchers_mu_);
    free_searchers_.clear();
  }
  return moved;
}

// ------------------------------------------------------------- mutation --

std::future<MutationResult> ServingEngine::ApplyUpdates(
    GraphUpdateBatch updates) {
  std::future<MutationResult> future = mutations_.Enqueue(std::move(updates));
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    mutation_wake_ = true;
  }
  mutation_cv_.notify_one();
  return future;
}

void ServingEngine::MutationWorker() {
  std::unique_lock<std::mutex> lock(mutation_mu_);
  while (true) {
    mutation_cv_.wait(lock,
                      [this] { return mutation_stop_ || mutation_wake_; });
    if (mutation_stop_) return;
    mutation_wake_ = false;
    lock.unlock();
    {
      // Same single-writer lock as refinement publishes: a mutation drain
      // and a delta publish can never interleave their snapshot swaps.
      // Queries are never blocked — their publish path only try_locks.
      std::lock_guard<std::mutex> publish(publish_mu_);
      DrainMutations();
    }
    lock.lock();
  }
}

void ServingEngine::DrainMutations() {
  std::vector<MutationLog::PendingBatch> batches = mutations_.Drain();
  if (batches.empty()) return;
  const SteadyTimePoint drain_began = SteadyClock::now();
  std::shared_ptr<const IndexSnapshot> current = snapshot();
  const std::shared_ptr<const GraphVersion>& base = current->graph_version();

  QueryTrace trace;
  QueryTrace* trace_ptr = traces_.enabled() ? &trace : nullptr;
  if (trace_ptr != nullptr) trace.StartAt(drain_began);

  // Phase 1 — graph: splice the batches in FIFO order, one batch at a
  // time so a malformed batch fails alone (ApplyEdgeUpdates validates the
  // whole batch against the graph it receives, so a rejected batch leaves
  // no partial updates behind). The first applied batch splices from the
  // served graph itself; later ones from their predecessor's result.
  std::optional<Graph> working;
  std::vector<Status> outcomes;
  outcomes.reserve(batches.size());
  GraphUpdateBatch all_updates;
  size_t applied_batches = 0;
  for (MutationLog::PendingBatch& batch : batches) {
    Result<Graph> next =
        ApplyEdgeUpdates(working.has_value() ? *working : base->graph(),
                         batch.updates, options_.mutation_graph);
    if (!next.ok()) {
      outcomes.push_back(next.status());
      continue;
    }
    working = std::move(*next);
    outcomes.push_back(Status::OK());
    ++applied_batches;
    all_updates.insert(all_updates.end(), batch.updates.begin(),
                       batch.updates.end());
  }
  if (batches.size() > applied_batches) {
    mutation_rejected_.Increment(batches.size() - applied_batches);
  }
  if (applied_batches == 0) {
    // Nothing changed; the rejected batches report the unchanged world.
    for (size_t i = 0; i < batches.size(); ++i) {
      MutationResult result;
      result.status = std::move(outcomes[i]);
      result.graph_version = base->version();
      result.epoch = current->epoch();
      batches[i].promise.set_value(std::move(result));
    }
    return;
  }

  // Affected set on the FINAL graph, seeded by every applied batch's
  // modified sources. Sound for multi-batch drains: any changed walk's
  // first modified traversal starts at some batch's source, and the walk
  // prefix reaching it survives into the final graph (conservative for
  // edges a later batch reverted). The sweep stops just past the rebuild
  // threshold — beyond it the set's exact size no longer matters. (Its
  // max_nodes is at least 1, as 0 means unlimited; a threshold of 0 still
  // rebuilds on every batch.)
  const auto repair_cap = static_cast<uint32_t>(
      options_.mutation_repair_fraction * static_cast<double>(num_nodes_));
  const auto rebuild_cap = static_cast<uint32_t>(
      options_.mutation_rebuild_fraction * static_cast<double>(num_nodes_));
  ReverseReachability affected =
      ReverseReachableFrom(*working, ModifiedSources(all_updates),
                           std::max<uint32_t>(1, rebuild_cap));
  MutationRepairMode mode = MutationRepairMode::kRepaired;
  if (affected.truncated || affected.nodes.size() > rebuild_cap) {
    mode = MutationRepairMode::kRebuilt;
  } else if (affected.nodes.size() > repair_cap) {
    mode = MutationRepairMode::kInvalidated;
  }
  if (trace_ptr != nullptr) {
    trace.EndSpan(TracePhase::kMutateGraph, drain_began);
  }

  auto next_version =
      GraphVersion::Adopt(std::move(*working), base->version() + 1);

  // Phase 2 — index: exact repair / conservative invalidation (both
  // re-solve the affected hub vectors — a stale P_H row would poison
  // hub-ink redemption at every node that banks ink on that hub) or a
  // full rebuild with fresh hub selection. The repair runs off the query
  // pool by default (inline on this thread, or on a dedicated pool when
  // mutation_threads > 1): stealing query workers for background repair
  // inflates read tail latency by the repair duty cycle.
  ThreadPool* repair_pool = pool_.get();
  if (options_.mutation_threads == 1) {
    repair_pool = nullptr;
  } else if (options_.mutation_threads > 1) {
    if (mutation_pool_ == nullptr) {
      mutation_pool_ =
          std::make_unique<ThreadPool>(options_.mutation_threads);
    }
    repair_pool = mutation_pool_.get();
  }
  const SteadyTimePoint repair_began = SteadyClock::now();
  IndexRepairReport repair_report;
  uint64_t hubs_resolved = 0;
  uint64_t affected_count = 0;
  Result<LowerBoundIndex> rebuilt = [&]() -> Result<LowerBoundIndex> {
    if (mode == MutationRepairMode::kRebuilt) {
      // The served shard width, not the option: a LoadFromFile engine
      // keeps its file's shard size across rebuilds.
      EngineOptions build_opts = engine_options_;
      build_opts.shard_nodes = current->index().shard_nodes();
      RTK_ASSIGN_OR_RETURN(
          LowerBoundIndex index,
          BuildEngineIndex(next_version->op(), build_opts, repair_pool));
      hubs_resolved = index.hub_store().num_hubs();
      affected_count = num_nodes_;
      return index;
    }
    IndexRepairOptions repair_opts;
    repair_opts.solver = engine_options_.solver;
    repair_opts.solver.alpha = engine_options_.bca.alpha;
    repair_opts.repair_bca = mode == MutationRepairMode::kRepaired;
    RTK_ASSIGN_OR_RETURN(
        LowerBoundIndex repaired,
        RepairAffectedNodes(current->index(), next_version->op(),
                            affected.nodes, repair_opts, repair_pool,
                            &repair_report));
    hubs_resolved = repair_report.affected_hubs;
    affected_count = affected.nodes.size();
    return repaired;
  }();
  if (!rebuilt.ok()) {
    // Index repair failed (cannot normally happen on a graph that already
    // validated): the old snapshot keeps serving; every batch learns the
    // error. Batches that failed validation keep their own status.
    for (size_t i = 0; i < batches.size(); ++i) {
      MutationResult result;
      result.status =
          outcomes[i].ok() ? rebuilt.status() : std::move(outcomes[i]);
      result.graph_version = base->version();
      result.epoch = current->epoch();
      batches[i].promise.set_value(std::move(result));
    }
    return;
  }
  if (trace_ptr != nullptr) {
    trace.EndSpan(TracePhase::kMutateRepair, repair_began);
  }
  // The repair's copy-on-write privatizations (a rebuild copies none).
  mutation_shards_copied_.Increment(rebuilt->cow_shard_copies());
  mutation_cow_bytes_copied_.Increment(rebuilt->cow_bytes_copied());

  // Phase 3 — publish. Version-advance the refinement log BEFORE the
  // snapshot swap: a pending delta tagged with the old version is purged
  // here, a late append of one is dropped by its tag, and a worker that
  // already serves the new snapshot tags the new version and is accepted.
  // No stale refinement can cross the mutation boundary.
  const SteadyTimePoint publish_began = SteadyClock::now();
  log_.AdvanceGraphVersion(next_version->version());
  auto fresh = std::make_shared<const IndexSnapshot>(
      std::move(*rebuilt), current->epoch() + 1, next_version);
  // Create already rejected every tier config the factory refuses.
  std::shared_ptr<const VersionedBackends> fresh_shared =
      MakeSharedBackends(options_, next_version).value_or(nullptr);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = fresh;
    shared_backends_ = std::move(fresh_shared);
  }
  // The new graph version invalidates everything the budget controller
  // measured; start its feedback over (stats() counts the resets as the
  // mutation publishes they follow).
  budgets_.Reset();
  {
    // Pooled searchers read the old graph+index pair; retire them.
    std::lock_guard<std::mutex> lock(searchers_mu_);
    free_searchers_.clear();
  }
  // Cached answers describe the old graph; the new epoch keys them out,
  // and the purge frees their slots immediately.
  cache_.PurgeOtherEpochs(fresh->epoch());

  mutation_batches_.Increment(applied_batches);
  mutation_updates_.Increment(all_updates.size());
  mutation_affected_.Increment(affected_count);
  mutation_hub_resolves_.Increment(hubs_resolved);
  switch (mode) {
    case MutationRepairMode::kRepaired:
      mutation_repairs_.Increment();
      break;
    case MutationRepairMode::kInvalidated:
      mutation_invalidations_.Increment();
      break;
    case MutationRepairMode::kRebuilt:
      mutation_rebuilds_.Increment();
      break;
  }
  epochs_published_.Increment();
  const double total_seconds = SecondsSince(drain_began);
  // The histogram times the whole drain (graph + repair + publish): it
  // answers "what does a mutation cost end to end".
  mutation_publish_seconds_.Record(total_seconds);
  if (trace_ptr != nullptr) {
    trace.EndSpan(TracePhase::kMutatePublish, publish_began);
    trace.backend = "mutation";
    trace.epoch = fresh->epoch();
    trace.Finish();
    traces_.Record(trace);
  }

  // Resolve promises only after the swap: when an ApplyUpdates future
  // resolves, queries already serve the new graph. Rejected batches
  // report the new version/epoch too — the world moved on without them.
  MutationResult published;
  published.status = Status::OK();
  published.graph_version = next_version->version();
  published.epoch = fresh->epoch();
  published.mode = mode;
  published.affected_nodes = affected_count;
  published.affected_hubs = hubs_resolved;
  published.apply_seconds = total_seconds;
  for (size_t i = 0; i < batches.size(); ++i) {
    MutationResult result = published;
    if (!outcomes[i].ok()) result.status = std::move(outcomes[i]);
    batches[i].promise.set_value(std::move(result));
  }
}

ServingStats ServingEngine::stats() const {
  ServingStats stats;
  stats.submitted = submitted_.value();
  stats.expired = expired_.value();
  stats.cancelled = cancelled_.value();
  stats.exact_tier_queries = exact_tier_.value();
  stats.approximate_tier_queries = approximate_tier_.value();
  stats.queries = stats.exact_tier_queries + stats.approximate_tier_queries;
  stats.partial_escalations = partial_escalations_.value();
  stats.full_escalations = full_escalations_.value();
  stats.backend_escalations =
      stats.partial_escalations + stats.full_escalations;
  stats.answers_certified = certified_.value();
  stats.answers_uncertified = uncertified_.value();
  stats.batches = batches_.value();
  stats.batched_queries = batched_queries_.value();
  stats.peak_batch_size = peak_batch_.load(std::memory_order_relaxed);
  stats.deltas_recorded = deltas_recorded_.value();
  stats.deltas_applied = deltas_applied_.value();
  stats.epochs_published = epochs_published_.value();
  stats.shards_copied = shards_copied_.value();
  stats.cow_bytes_copied = cow_bytes_copied_.value();
  stats.mutation_batches = mutation_batches_.value();
  stats.mutation_batches_rejected = mutation_rejected_.value();
  stats.mutation_updates = mutation_updates_.value();
  stats.mutation_affected_nodes = mutation_affected_.value();
  stats.mutation_hub_resolves = mutation_hub_resolves_.value();
  stats.mutation_repairs = mutation_repairs_.value();
  stats.mutation_invalidations = mutation_invalidations_.value();
  stats.mutation_rebuilds = mutation_rebuilds_.value();
  stats.mutation_shards_copied = mutation_shards_copied_.value();
  stats.mutation_cow_bytes_copied = mutation_cow_bytes_copied_.value();
  stats.adaptive_resets = stats.mutation_repairs +
                          stats.mutation_invalidations +
                          stats.mutation_rebuilds;
  stats.adaptive_budgets = budgets_.Snapshot();

  const AdmissionQueueStats queue = queue_.stats();
  stats.shed = queue.shed;
  stats.queue_depth = queue.depth;
  stats.peak_queue_depth = queue.peak_depth;
  stats.cache = cache_.stats();
  stats.cache_hits = stats.cache.hits;
  stats.cache_misses = stats.cache.misses;
  stats.log = log_.stats();
  stats.pending_deltas = stats.log.pending;
  stats.refinements_dropped_stale = stats.log.dropped_stale;
  stats.mutations = mutations_.stats();
  stats.pending_mutations = stats.mutations.pending;

  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  stats.current_epoch = snap->epoch();
  stats.graph_version =
      snap->graph_version() != nullptr ? snap->graph_version()->version() : 0;
  stats.index_shards = snap->index().num_shards();
  const StorageResidency residency = snap->index().residency();
  stats.resident_shards = residency.resident_shards;
  stats.mmap_bytes = residency.mmap_bytes;
  if (shard_source_ != nullptr) {
    stats.shard_faults = shard_source_->faults();
    stats.shard_evictions = shard_source_->evictions();
  }
  return stats;
}

MetricsSnapshot ServingEngine::Metrics() const {
  const ServingStats s = stats();
  MetricsSnapshot snap;
  // The one name table: every scalar row is a stats() field.
  const auto count = [&](std::string_view name, double value) {
    snap.values.push_back({"rtk_serving_" + std::string(name), "counter", value});
  };
  const auto gauge = [&](std::string_view name, double value) {
    snap.values.push_back({"rtk_serving_" + std::string(name), "gauge", value});
  };
  count("requests_submitted_total", s.submitted);
  count("requests_shed_total", s.shed);
  count("requests_expired_total", s.expired);
  count("requests_cancelled_total", s.cancelled);
  count("queries_total", s.queries);
  count("queries_exact_tier_total", s.exact_tier_queries);
  count("queries_approximate_tier_total", s.approximate_tier_queries);
  count("backend_escalations_total", s.backend_escalations);
  count("adaptive_partial_escalations_total", s.partial_escalations);
  count("adaptive_full_escalations_total", s.full_escalations);
  count("adaptive_budget_resets_total", s.adaptive_resets);
  count("answers_certified_total", s.answers_certified);
  count("answers_uncertified_total", s.answers_uncertified);
  count("cache_hits_total", s.cache_hits);
  count("cache_misses_total", s.cache_misses);
  count("batches_total", s.batches);
  count("batched_queries_total", s.batched_queries);
  count("deltas_recorded_total", s.deltas_recorded);
  count("deltas_applied_total", s.deltas_applied);
  count("epochs_published_total", s.epochs_published);
  count("shards_copied_total", s.shards_copied);
  count("cow_bytes_copied_total", s.cow_bytes_copied);
  count("shard_faults_total", s.shard_faults);
  count("shard_evictions_total", s.shard_evictions);
  count("mutation_batches_total", s.mutation_batches);
  count("mutation_batches_rejected_total", s.mutation_batches_rejected);
  count("mutation_updates_total", s.mutation_updates);
  count("mutation_affected_nodes_total", s.mutation_affected_nodes);
  count("mutation_hub_resolves_total", s.mutation_hub_resolves);
  count("mutation_repairs_total", s.mutation_repairs);
  count("mutation_invalidations_total", s.mutation_invalidations);
  count("mutation_rebuilds_total", s.mutation_rebuilds);
  count("mutation_shards_copied_total", s.mutation_shards_copied);
  count("mutation_cow_bytes_copied_total", s.mutation_cow_bytes_copied);
  count("refinements_dropped_stale_total", s.refinements_dropped_stale);
  gauge("queue_depth", s.queue_depth);
  gauge("peak_queue_depth", s.peak_queue_depth);
  gauge("peak_batch_size", s.peak_batch_size);
  gauge("pending_deltas", s.pending_deltas);
  gauge("current_epoch", s.current_epoch);
  gauge("index_shards", s.index_shards);
  gauge("cache_entries", s.cache.entries);
  gauge("resident_shards", s.resident_shards);
  gauge("mmap_bytes", s.mmap_bytes);
  gauge("graph_version", s.graph_version);
  gauge("pending_mutations", s.pending_mutations);
  for (std::string_view backend : backend_names_) {
    double scale = 1.0;  // the controller's scale until it has feedback
    for (const BackendBudgetState& state : s.adaptive_budgets) {
      if (state.backend == backend) scale = state.scale;
    }
    gauge("adaptive_scale_" + MetricSafe(backend), scale);
  }

  const auto histogram = [&](const std::string& name, const Histogram& h) {
    snap.histograms.push_back({"rtk_serving_" + name, h.Snapshot()});
  };
  histogram("queue_wait_seconds", queue_wait_);
  histogram("fused_proximity_seconds", fused_proximity_);
  histogram("request_seconds", request_latency_);
  histogram("request_exact_tier_seconds", exact_tier_latency_);
  histogram("request_approximate_tier_seconds", approximate_tier_latency_);
  histogram("proximity_seconds", proximity_seconds_);
  histogram("prune_seconds", prune_seconds_);
  histogram("refine_seconds", refine_seconds_);
  histogram("publish_seconds", publish_seconds_);
  histogram("mutation_publish_seconds", mutation_publish_seconds_);
  for (size_t i = 0; i < backend_latency_.size(); ++i) {
    const std::string backend = i < backend_names_.size()
                                    ? MetricSafe(backend_names_[i])
                                    : std::string("other");
    histogram("request_backend_" + backend + "_seconds", backend_latency_[i]);
  }

  std::sort(snap.values.begin(), snap.values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const MetricHistogram& a, const MetricHistogram& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace rtk
