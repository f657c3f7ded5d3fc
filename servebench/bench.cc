// Serving benchmark: drives ServingEngine in-process from one generator
// thread over two seeded workloads, checks the answers it is served, and
// prints every metric by name and unit. The last stdout line is the JSON
// result (harness.h ResultJson).
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --scratch <dir>
//   servebench --list-metrics
//
// --trace 0: end-to-end metrics from the workload's untraced rounds.
// --trace 1: per-layer metrics from the same rounds, a traced round of the
// first measured round's stream and update probe (spans around Submit,
// delivery, ApplyUpdates and set-up), and a single-threaded replay of that
// round through the layers' public stage functions on a copy of the
// workload's index.
//
// The benchmark only calls the library; it never changes it. Each
// workload's graph is a fixed dataset; its request streams and toggled
// edges come from --seed. No environment variable resizes a workload.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "dynamic/graph_updates.h"
#include "dynamic/index_repair.h"
#include "exec/proximity_backends.h"
#include "exec/prune_stage.h"
#include "exec/refine_stage.h"
#include "graph/generators.h"
#include "harness.h"
#include "serving/serving_engine.h"

namespace servebench {
namespace {

using rtk::AccuracyTier;
using rtk::EdgeUpdate;
using rtk::Graph;
using rtk::GraphUpdateBatch;
using rtk::MutationResult;
using rtk::QueryRequest;
using rtk::QueryResponse;
using rtk::ReverseTopkEngine;
using rtk::ServingEngine;
using rtk::StatusCode;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kTopK = 10;
// A run is a warm-up round and the workload's measured rounds, each on a
// fresh deployment (set-up included) of the workload's graph. qps and the
// latency percentiles pool the measured rounds' requests; set-up time is a
// median.
constexpr double kWarmupShare = 0.25;
// Serving workers of every workload: with the generator they leave a CPU
// of a 4-CPU machine to the rest of the system.
constexpr int kWorkers = 2;
// Hits-only answers per round checked for subset-of-exact.
constexpr int kSubsetSample = 12;
// Replay bound: requests replayed single-threaded in a traced run.
constexpr size_t kMaxReplayRequests = 3000;

// ------------------------------------------------------------- workloads --

enum class GraphKind { kRmatWebS, kRmatWebL };

struct Workload {
  std::string name;
  GraphKind graph;
  AccuracyTier tier;
  // Result-cache entries (0 = off). exact-update's 64 entries hold the
  // popular head of its log.
  size_t cache_capacity;
  bool write_back;
  size_t max_batch;
  double batch_window;
  // Measured rounds: 8 on exact-update, whose refinement work on a fresh
  // index depends on the order of the round's queries and on how its two
  // workers' refinements interleave, so that its rounds differ by ~13%.
  int rounds;
  // Closed loop: `outstanding` requests in flight until the round has
  // issued its fixed number of requests, `rate` per second of the run
  // spread over its rounds, so every run of a seed does the same work. (A
  // time-bounded round on a fresh index would count a different mix of
  // heavy refinements each time.) More requests are outstanding than
  // there are workers, so a worker finds one queued when it finishes.
  size_t outstanding;
  double rate;
  // Queries drawn proportionally to in-degree instead of uniformly.
  bool popular_queries;
  // Sequential toggles after each round's timed phase, pooled over the
  // rounds for mut_p50_ms and mut_p95_ms (p95 needs 200 samples).
  int probe_toggles;
};

// Every workload is a closed loop. Open loops at a fixed rate were tried
// and dropped: their latency runs from each request's due time, so every
// stall of the generator's virtual CPU on a shared host charges all the
// requests due during it, and the same seed's p99 ranged from 3.6 to 28 ms
// as the host's load changed.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"exact-update", GraphKind::kRmatWebS, AccuracyTier::kExact, 64, true,
       1, 0.0, 8, 4, 840.0, true, 76},
      {"hits-batched", GraphKind::kRmatWebL,
       AccuracyTier::kApproximateHitsOnly, 0, false, 16, 0.0005, 4, 32,
       690.0, false, 50},
  };
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------- metrics --

struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
};

const std::vector<MetricSpec>& Catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      {"setup_s", "s", true},
      {"qps", "1/s", true},
      {"p50_ms", "ms", true},
      {"p99_ms", "ms", true},
      {"ok_frac", "ratio", true},
      {"mut_p50_ms", "ms", true},
      {"mut_p95_ms", "ms", true},
      {"rss_mb", "MiB", true},
      {"fail_frac", "ratio", false},
      {"serving.submit_us.p50", "us", false},
      {"serving.queue_wait_ms.p50", "ms", false},
      {"serving.queue_wait_ms.p99", "ms", false},
      {"serving.cache_hit_ratio", "ratio", false},
      {"serving.batch_occupancy", "queries/batch", false},
      {"serving.publishes", "count", false},
      {"serving.publish_ms.mean", "ms", false},
      {"serving.shards_copied_per_publish", "count", false},
      {"serving.deltas_applied_ratio", "ratio", false},
      {"serving.refinements_dropped_stale", "count", false},
      {"serving.shed", "count", false},
      {"serving.expired", "count", false},
      {"serving.create_ms", "ms", false},
      {"exec.proximity_ms.p50", "ms", false},
      {"exec.proximity_ms.p99", "ms", false},
      {"exec.prune_ms.p50", "ms", false},
      {"exec.prune_ms.p99", "ms", false},
      {"exec.candidates.mean", "count", false},
      {"exec.hit_ratio", "ratio", false},
      {"exec.refine_ms.p50", "ms", false},
      {"exec.refine_ms.p99", "ms", false},
      {"exec.undecided.mean", "count", false},
      {"exec.stats_over_replay.proximity", "ratio", false},
      {"exec.stats_over_replay.prune", "ratio", false},
      {"exec.stats_over_replay.refine", "ratio", false},
      {"rwr.pmpn_iterations.mean", "count", false},
      {"rwr.edges_per_us", "1/us", false},
      {"bca.refine_iterations.mean", "count", false},
      {"bca.iterations_per_ms", "1/ms", false},
      {"bca.exact_fallbacks", "count", false},
      {"index.build_s", "s", false},
      {"index.rows_per_us", "1/us", false},
      {"index.writeback_us.mean", "us", false},
      {"dynamic.affected_ms.mean", "ms", false},
      {"dynamic.repair_ms.mean", "ms", false},
      {"dynamic.repair_hub_ms.mean", "ms", false},
      {"dynamic.repair_bca_ms.mean", "ms", false},
      {"dynamic.affected_nodes.mean", "count", false},
      {"dynamic.repaired", "count", false},
      {"dynamic.invalidated", "count", false},
      {"dynamic.rebuilt", "count", false},
      {"graph.apply_edges_ms.mean", "ms", false},
      {"gen.late_ms.p99", "ms", false},
      {"gen.trace_overhead", "ratio", false},
      {"gen.trace_overhead_qps", "ratio", false},
  };
  return kCatalog;
}

class MetricSet {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  // Every catalog metric of the requested kind, in catalog order; a metric
  // the run did not set is an error in the benchmark itself.
  std::vector<Metric> Emit(bool end_to_end) const {
    std::vector<Metric> out;
    for (const MetricSpec& spec : Catalog()) {
      if (spec.end_to_end != end_to_end) continue;
      auto it = values_.find(spec.name);
      if (it == values_.end()) {
        std::fprintf(stderr, "servebench: metric %s was not measured\n",
                     spec.name);
        std::exit(2);
      }
      out.push_back({spec.name, spec.unit, it->second});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// ------------------------------------------------------------------ utils --

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Check(rtk::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Anonymous resident memory of this process (RssAnon), MiB.
double RssAnonMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Cumulative CPU time of all CPUs from /proc/stat, in clock ticks: the
// total and the part a hypervisor ran other guests on this machine's
// virtual CPUs instead ("steal").
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  uint64_t v = 0;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

Outcome OutcomeOf(const rtk::Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return Outcome::kOk;
    case StatusCode::kResourceExhausted: return Outcome::kShed;
    case StatusCode::kDeadlineExceeded: return Outcome::kExpired;
    case StatusCode::kCancelled: return Outcome::kCancelled;
    default: return Outcome::kError;
  }
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  return x * 0x94D049BB133111EBull + 1;
}

// ----------------------------------------------------------------- inputs --

// Generator seed of every workload's graph.
constexpr uint64_t kDatasetSeed = 20140901;

Graph MakeGraph(GraphKind kind) {
  rtk::Rng rng(Mix(kDatasetSeed, 1));
  switch (kind) {
    case GraphKind::kRmatWebS:
      return Check(rtk::Rmat(11, 8192, &rng), "rmat-web-s");
    case GraphKind::kRmatWebL:
      return Check(rtk::Rmat(13, 40000, &rng), "rmat-web-l");
  }
  Die("unknown graph");
}

// A round's query log: `count` queries over uniform nodes, or for
// exact-update over popular targets, drawn proportionally to in-degree.
// Popular nodes recur, which is what the result cache serves (about 30% of
// requests at the seed commit, well away from one half, so the median
// stays among the misses); nodes nobody links to, whose answers are
// trivial, are never drawn.
//
// The log is a systematic sample, shuffled: every node appears its
// expected number of times, rounded up or down, and the seed decides the
// rounding and the order. Independent draws would let the number of
// expensive queries in a round (hub targets, first refinements on a fresh
// index) vary by seed, and with it every figure of the run.
class QueryStream {
 public:
  QueryStream(const Graph& g, bool popular, uint64_t seed, size_t count) {
    rtk::Rng rng(Mix(seed, 2));
    std::vector<uint64_t> cumulative;  // weight prefix sums
    uint64_t total = 0;
    for (uint32_t u = 0; u < g.num_nodes(); ++u) {
      total += popular ? g.InDegree(u) : 1;
      cumulative.push_back(total);
    }
    const double offset = rng.NextDouble();
    for (size_t j = 0; j < count; ++j) {
      const auto x = static_cast<uint64_t>(
          (static_cast<double>(j) + offset) * static_cast<double>(total) /
          static_cast<double>(count));
      log_.push_back(static_cast<uint32_t>(
          std::upper_bound(cumulative.begin(), cumulative.end(), x) -
          cumulative.begin()));
    }
    for (size_t j = log_.size(); j > 1; --j) {
      std::swap(log_[j - 1], log_[rng.Uniform(j)]);
    }
  }

  uint32_t Next() { return log_.at(next_++); }

 private:
  std::vector<uint32_t> log_;
  size_t next_ = 0;
};

// Four absent edges whose sources few nodes can reach, so each toggle's
// affected set (the nodes that reach a source) stays within the
// exact-repair threshold. Sources are drawn from the reachability band
// [n/100, n/50]; graphs with no node in the band (R-MAT: a node is reached
// by one node or by half the graph) take sources no other node reaches.
std::vector<EdgeUpdate> ChooseToggleEdges(const Graph& g, uint64_t seed) {
  rtk::Rng rng(Mix(seed, 3));
  const uint32_t n = g.num_nodes();
  std::vector<uint32_t> sources;
  for (uint32_t lo : {std::max<uint32_t>(2, n / 100), 1u}) {
    const uint32_t hi = std::max<uint32_t>(lo, n / 50);
    for (int attempt = 0; attempt < 4 * static_cast<int>(n) && sources.size() < 4;
         ++attempt) {
      const auto s = static_cast<uint32_t>(rng.Uniform(n));
      if (std::find(sources.begin(), sources.end(), s) != sources.end()) {
        continue;
      }
      const size_t reach =
          rtk::ReverseReachableFrom(g, {s}, hi + 1).nodes.size();
      if (reach >= lo && reach <= hi) sources.push_back(s);
    }
    if (sources.size() == 4) break;
    sources.clear();
  }
  if (sources.size() < 4) Die("no toggle sources in the reachability band");
  std::vector<EdgeUpdate> edges;
  for (uint32_t s : sources) {
    const auto out = g.OutNeighbors(s);
    for (;;) {
      const auto d = static_cast<uint32_t>(rng.Uniform(n));
      if (d == s || std::find(out.begin(), out.end(), d) != out.end()) continue;
      edges.push_back(EdgeUpdate::Insert(s, d));
      break;
    }
  }
  return edges;
}

// A round toggles kToggleSets edge sets in turn: batch i inserts set
// (i / 2) mod kToggleSets when i is even and deletes it again when i is
// odd, so an even number of batches returns the graph to its base state.
// Update cost depends on the set's affected nodes; cycling through several
// sets keeps one draw from setting a run's update latency.
constexpr uint64_t kToggleSets = 8;
using ToggleSets = std::vector<std::vector<EdgeUpdate>>;

ToggleSets ChooseToggleSets(const Graph& g, uint64_t seed) {
  ToggleSets sets;
  for (uint64_t k = 0; k < kToggleSets; ++k) {
    sets.push_back(ChooseToggleEdges(g, Mix(seed, k)));
  }
  return sets;
}

GraphUpdateBatch ToggleBatch(const ToggleSets& sets, uint64_t i) {
  GraphUpdateBatch batch;
  for (const EdgeUpdate& e : sets[(i / 2) % sets.size()]) {
    batch.push_back(i % 2 == 0 ? EdgeUpdate::Insert(e.src, e.dst)
                               : EdgeUpdate::Delete(e.src, e.dst));
  }
  return batch;
}

// Everything a round generates from the run's seed on the workload's
// graph. The graph itself is the workload's fixed dataset (kDatasetSeed):
// graphs of one shape drawn from different seeds differ in cost by +-12%
// per graph, which would make runs of different seeds differ by the
// graphs they drew rather than by the code they measure.
struct RoundInputs {
  RoundInputs(const Graph& graph, uint64_t seed, int round)
      : toggles(ChooseToggleSets(graph, Mix(seed, round))),
        stream_seed(Mix(seed, 100 + round)) {}
  ToggleSets toggles;
  uint64_t stream_seed;  // the round's query stream
};

// ---------------------------------------------------------------- waiting --

// Pause hint for a spin-wait loop.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// The generator spins, so it gets a CPU of its own: the last CPU this
// process may use. Every thread the serving engine starts is created under
// the other CPUs' mask, so a worker never waits behind the spinner. With a
// single CPU nothing is pinned.
struct CpuSets {
  cpu_set_t engine;
  cpu_set_t generator;
  bool split = false;
};

const CpuSets& Cpus() {
  static const CpuSets sets = [] {
    CpuSets c;
    CPU_ZERO(&c.engine);
    CPU_ZERO(&c.generator);
    if (sched_getaffinity(0, sizeof(c.engine), &c.engine) != 0) return c;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &c.engine)) continue;
      CPU_SET(cpu, &c.generator);
      CPU_CLR(cpu, &c.engine);
      break;
    }
    c.split = CPU_COUNT(&c.engine) > 0;
    return c;
  }();
  return sets;
}

// Runs the calling thread on `set` for the guard's lifetime; a no-op when
// the CPUs are not split.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& set)
      : active_(Cpus().split &&
                sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
                sched_setaffinity(0, sizeof(set), &set) == 0) {}
  ~ScopedAffinity() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_;
  bool active_;
};

// The generator waits by spinning, never by sleeping. On a virtual machine
// a thread that sleeps leaves its virtual CPU halted, and how long the host
// takes to run that CPU again when the thread is woken depends on the
// host's other tenants; a spinning generator is never woken. Serving
// workers keep requests queued (more outstanding than workers), so they
// are not woken between requests either.
template <typename T>
T SpinGet(std::future<T> future) {
  while (future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    CpuRelax();
  }
  return future.get();
}

// ------------------------------------------------------------------ set-up --

rtk::EngineOptions EngineOptionsFor(const Graph& g) {
  rtk::EngineOptions opts;
  opts.capacity_k = 50;
  opts.hub_selection.degree_budget_b = g.num_nodes() / 50 + 1;
  opts.num_threads = 4;
  return opts;
}

rtk::ServingOptions ServingOptionsFor(const Workload& w) {
  rtk::ServingOptions opts;
  opts.num_threads = kWorkers;
  opts.max_pending = 4096;
  opts.cache.capacity = w.cache_capacity;
  opts.max_batch = w.max_batch;
  opts.batch_window = w.batch_window;
  opts.trace_ring_capacity = 0;
  opts.slow_query_threshold_seconds = 0.0;
  opts.query.num_threads = 1;
  return opts;
}

struct Deployment {
  // The serial engine the serving layer runs on. The serving layer clones
  // its index at creation and never writes it, so it is also the replay's
  // index source, and once serving has stopped the exactness oracle: its
  // Query is exact whatever its index state.
  std::unique_ptr<ReverseTopkEngine> engine;
  std::unique_ptr<ServingEngine> serving;
  double build_s = 0.0;
  double create_s = 0.0;
  double total_s = 0.0;
};

Deployment Setup(const Workload& w, const Graph& graph) {
  Deployment d;
  const Clock::time_point t0 = Clock::now();
  d.engine = Check(ReverseTopkEngine::Build(graph, EngineOptionsFor(graph)),
                   "index build");
  const Clock::time_point t3 = Clock::now();
  d.build_s = Seconds(t3 - t0);
  {
    const ScopedAffinity engine_cpus(Cpus().engine);
    d.serving = Check(ServingEngine::Create(*d.engine, ServingOptionsFor(w)),
                      "ServingEngine::Create");
  }
  const Clock::time_point t4 = Clock::now();
  d.create_s = Seconds(t4 - t3);
  d.total_s = Seconds(t4 - t0);
  return d;
}

// ------------------------------------------------------------ timed phase --

struct RequestRecord {
  uint32_t query = 0;
  double due = 0.0;  // when the in-flight slot it took was freed
  double submitted = 0.0;
  double submit_end = 0.0;
  double delivered = 0.0;
  Outcome outcome = Outcome::kOk;
  bool cache_hit = false;
  double queue_wait = 0.0;
  std::vector<uint32_t> results;
  // QueryStats stage seconds (the rest of QueryStats is not kept, so the
  // records stay small next to the engine in the resident set).
  double stats_prox_s = 0.0;
  double stats_prune_s = 0.0;
  double stats_refine_s = 0.0;
};

struct UpdateRecord {
  uint64_t index = 0;  // the toggle batch's number
  double submitted = 0.0;  // the ApplyUpdates call
  double resolved = 0.0;   // its future resolved
  MutationResult result;
};

// Fixed-address record store: the generator appends, workers fill in
// delivery fields of records that already exist, nothing ever moves.
class RecordStore {
 public:
  static constexpr size_t kChunk = 4096;
  RequestRecord& at(size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  const RequestRecord& at(size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  void Ensure(size_t i) {
    while (chunks_.size() <= i / kChunk) {
      chunks_.push_back(std::make_unique<RequestRecord[]>(kChunk));
    }
  }

 private:
  std::vector<std::unique_ptr<RequestRecord[]>> chunks_;
};

struct RunResult {
  Clock::time_point t0;  // the timed phase's start; record times count from it
  RecordStore records;
  size_t num_requests = 0;
  std::vector<UpdateRecord> updates;  // the probe after the timed phase
  double wall_s = 0.0;
  double rss_mb = 0.0;
  rtk::ServingStats stats;
  rtk::MetricsSnapshot metrics;
};

QueryRequest MakeRequest(const Workload& w, uint32_t q) {
  QueryRequest req;
  req.query = q;
  req.k = kTopK;
  req.tier = w.tier;
  req.update_index = w.write_back;
  return req;
}

// Requests a round of `seconds` issues at `per_second`.
size_t RoundCount(double per_second, double seconds) {
  return static_cast<size_t>(std::ceil(per_second * seconds));
}

// The timed phase: one generator thread (this one) keeps w.outstanding
// requests in flight until `requests` requests were issued. A request is
// due when the in-flight slot it takes is freed; how long the generator
// takes to refill it is its lateness. The wall time runs until the last
// request is delivered. With `read_rss` the phase ends by reading rss_mb.
void TimedPhase(const Workload& w, ServingEngine* serving, const Graph& graph,
                uint64_t seed, size_t requests, bool read_rss,
                RunResult* run) {
  const ScopedAffinity generator_cpu(Cpus().generator);
  QueryStream stream(graph, w.popular_queries, seed, requests);
  std::mutex mu;
  // Times at which in-flight slots were freed, oldest first; every slot is
  // free at the start. `free_count` mirrors its size for the spinning
  // generator.
  std::deque<double> free_slots(w.outstanding, 0.0);
  std::atomic<size_t> free_count{w.outstanding};
  const Clock::time_point t0 = Clock::now();
  const auto now_s = [&] { return Seconds(Clock::now() - t0); };
  run->t0 = t0;
  for (size_t i = 0; i < requests; ++i) {
    while (free_count.load(std::memory_order_acquire) == 0) CpuRelax();
    double due = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu);
      due = free_slots.front();
      free_slots.pop_front();
      free_count.fetch_sub(1, std::memory_order_relaxed);
    }
    run->records.Ensure(i);
    RequestRecord& rec = run->records.at(i);
    rec.query = stream.Next();
    rec.due = due;
    rec.submitted = now_s();
    // Records never move, so the worker writes through a pointer instead of
    // reading the chunk table the generator may be growing.
    RequestRecord* slot = &rec;
    serving->Submit(MakeRequest(w, rec.query), [&, slot](QueryResponse r) {
      slot->delivered = now_s();
      slot->outcome = OutcomeOf(r.status);
      slot->cache_hit = r.cache_hit;
      slot->queue_wait = r.queue_wait_seconds;
      slot->results = std::move(r.results);
      slot->stats_prox_s = r.stats.pmpn_seconds;
      slot->stats_prune_s = r.stats.prune_seconds;
      slot->stats_refine_s = r.stats.refine_seconds;
      std::lock_guard<std::mutex> lock(mu);
      free_slots.push_back(slot->delivered);
      free_count.fetch_add(1, std::memory_order_release);
    });
    rec.submit_end = now_s();
  }
  while (free_count.load(std::memory_order_acquire) < w.outstanding) {
    CpuRelax();
  }
  run->num_requests = requests;
  run->wall_s = now_s();
  // The last callback may still be releasing the lock; taking it once
  // more makes sure no worker touches this frame after it returns.
  { std::lock_guard<std::mutex> lock(mu); }
  if (read_rss) {
    // Memory the engine holds, not what the allocator keeps cached from
    // requests that already finished. Only here: returning the cache to
    // the kernel makes the next round fault its pages in again.
    malloc_trim(0);
    run->rss_mb = RssAnonMiB();
  }
  run->stats = serving->stats();
  run->metrics = serving->Metrics();
}

// Sequential toggles after a round's timed phase, recorded in `run`:
// update latency on an idle engine, from the ApplyUpdates call until its
// future resolves, which is when the publish is visible to reads. An even
// count leaves the base graph in place.
void UpdateProbe(const Workload& w, ServingEngine* serving,
                 const ToggleSets& toggles, RunResult* run) {
  const ScopedAffinity generator_cpu(Cpus().generator);
  for (int i = 0; i < w.probe_toggles; ++i) {
    UpdateRecord rec;
    rec.index = static_cast<uint64_t>(i);
    rec.submitted = Seconds(Clock::now() - run->t0);
    rec.result = SpinGet(serving->ApplyUpdates(ToggleBatch(toggles, rec.index)));
    rec.resolved = Seconds(Clock::now() - run->t0);
    run->updates.push_back(std::move(rec));
  }
}

// --------------------------------------------------------------- checking --

struct CheckReport {
  bool correct = true;
  uint64_t checked = 0;
  void Fail(const std::string& what) {
    if (correct) std::fprintf(stderr, "servebench: WRONG ANSWER: %s\n", what.c_str());
    correct = false;
  }
};

// Exact answers from the serial ReverseTopkEngine on a fresh build of the
// round's base graph, memoized per query node.
class Oracle {
 public:
  const std::vector<uint32_t>& Answer(ReverseTopkEngine* engine, uint32_t q) {
    auto it = answers_.find(q);
    if (it == answers_.end()) {
      it = answers_.emplace(q, Check(engine->QueryWithOptions(q, Options()),
                                     "oracle query")).first;
    }
    return it->second;
  }

  // Answers `queries` up front on kOracleThreads engines, each its own
  // fresh serial build of `graph` on its own thread: independent queries
  // parallelize better across engines than inside one.
  void Prefetch(const Graph& graph, const std::vector<uint32_t>& queries) {
    std::vector<uint32_t> todo;
    for (uint32_t q : queries) {
      if (answers_.count(q) == 0) todo.push_back(q);
    }
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    if (todo.empty()) return;
    std::vector<std::vector<uint32_t>> results(todo.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    const size_t num_threads = std::min<size_t>(kOracleThreads, todo.size());
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&] {
        rtk::EngineOptions opts = EngineOptionsFor(graph);
        opts.num_threads = 1;
        auto engine = Check(ReverseTopkEngine::Build(graph, opts), "oracle");
        for (size_t i = next++; i < todo.size(); i = next++) {
          results[i] = Check(engine->QueryWithOptions(todo[i], Options()),
                             "oracle query");
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < todo.size(); ++i) {
      answers_.emplace(todo[i], std::move(results[i]));
    }
  }

  size_t size() const { return answers_.size(); }

 private:
  static constexpr int kOracleThreads = 4;
  static rtk::QueryOptions Options() {
    rtk::QueryOptions opts;
    opts.k = kTopK;
    return opts;
  }
  std::map<uint32_t, std::vector<uint32_t>> answers_;
};

std::string Describe(uint32_t q, const std::vector<uint32_t>& got,
                     const std::vector<uint32_t>& want) {
  std::string s = "q=" + std::to_string(q) + " served {";
  for (uint32_t v : got) s += std::to_string(v) + " ";
  s += "} oracle {";
  for (uint32_t v : want) s += std::to_string(v) + " ";
  return s + "}";
}

// Every exact answer must equal the oracle's byte for byte.
void CheckExact(const RunResult& run, const Graph& graph,
                ReverseTopkEngine* engine, Oracle* oracle,
                CheckReport* report) {
  std::vector<uint32_t> queries;
  for (size_t i = 0; i < run.num_requests; ++i) {
    queries.push_back(run.records.at(i).query);
  }
  oracle->Prefetch(graph, queries);
  for (size_t i = 0; i < run.num_requests && report->correct; ++i) {
    const RequestRecord& r = run.records.at(i);
    if (r.outcome != Outcome::kOk) continue;
    const std::vector<uint32_t>& want = oracle->Answer(engine, r.query);
    ++report->checked;
    if (r.results != want) report->Fail(Describe(r.query, r.results, want));
  }
}

// Hits-only answers on a fixed sample (the first kSubsetSample distinct
// queries of the round) must be subsets of the exact answer.
void CheckSubset(const RunResult& run, ReverseTopkEngine* engine,
                 Oracle* oracle, CheckReport* report) {
  std::map<uint32_t, bool> seen;
  for (size_t i = 0; i < run.num_requests && seen.size() < kSubsetSample &&
                     report->correct;
       ++i) {
    const RequestRecord& r = run.records.at(i);
    if (r.outcome != Outcome::kOk || seen.count(r.query) > 0) continue;
    seen[r.query] = true;
    const std::vector<uint32_t>& exact = oracle->Answer(engine, r.query);
    ++report->checked;
    if (!std::includes(exact.begin(), exact.end(), r.results.begin(),
                       r.results.end())) {
      report->Fail("not a subset: " + Describe(r.query, r.results, exact));
    }
  }
}

// ----------------------------------------------------------------- replay --

constexpr uint64_t kUpdateRequestBase = 1ull << 40;

struct ReplayResult {
  SpanLog spans;
  // Per replayed request: stage durations (s) and the work they did.
  std::vector<double> prox_s, prune_s, refine_s, writeback_s;
  std::vector<double> candidates, hits, undecided, iterations,
      refine_iterations;
  uint64_t exact_fallbacks = 0;
  double pmpn_edges = 0.0;  // sum of iterations x edges
  uint64_t prune_rows = 0;
  // The same requests' QueryStats stage seconds from the traced run.
  double stats_prox_s = 0.0, stats_prune_s = 0.0, stats_refine_s = 0.0;
  // Per replayed update batch.
  std::vector<double> apply_edges_s, affected_s, repair_s, repair_hub_s,
      repair_bca_s;
  size_t replayed = 0;
  // Highest request id replayed (the request-path window of the run).
  size_t last_request = 0;
  bool answers_match = true;
};

// The replay's copy of the serving state: graph, operator, index and the
// stage objects bound to them (rebuilt after every replayed update).
struct ReplayState {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<rtk::TransitionOperator> op;
  std::unique_ptr<rtk::LowerBoundIndex> index;
  std::unique_ptr<rtk::RefineStage> refine;
  std::unique_ptr<rtk::ProximityBackend> backend;

  void Bind(const rtk::ProximityBackendConfig& config) {
    refine = std::make_unique<rtk::RefineStage>(*op, *index);
    backend = Check(rtk::MakeProximityBackend(*op, config), "backend");
  }
};

// Single-threaded replay of a traced run's executed requests (cache hits
// never reach the stages) in issue order, then of its probe's update
// batches, through the stage functions on a copy of the served index.
// Write-back deltas go straight into the copy with ApplyIfTighter.
// Requests stop after kMaxReplayRequests or `budget_s` seconds; the
// updates still replay, within twice that budget.
ReplayResult Replay(const Workload& w, const Deployment& d,
                    const RunResult& run,
                    const ToggleSets& toggles, double budget_s) {
  ReplayResult out;
  const rtk::ServingOptions sopts = ServingOptionsFor(w);
  rtk::ProximityBackendConfig config;
  if (w.max_batch > 1) config.name = rtk::kBatchedPmpnBackendName;
  ReplayState st;
  st.graph = std::make_unique<Graph>(d.engine->graph());
  st.op = std::make_unique<rtk::TransitionOperator>(*st.graph);
  st.index = std::make_unique<rtk::LowerBoundIndex>(d.engine->index());
  st.Bind(config);
  const rtk::EngineOptions eopts = d.engine->options();
  rtk::RwrOptions rwr = eopts.solver;
  rwr.alpha = st.index->bca_options().alpha;
  const bool hits_only = w.tier == AccuracyTier::kApproximateHitsOnly;
  const uint32_t n = st.graph->num_nodes();
  const auto repair_cap = static_cast<uint32_t>(
      sopts.mutation_repair_fraction * static_cast<double>(n));
  const auto rebuild_cap = std::max<uint32_t>(
      1, static_cast<uint32_t>(sopts.mutation_rebuild_fraction *
                               static_cast<double>(n)));

  const Clock::time_point t0 = Clock::now();
  const auto now_s = [&] { return Seconds(Clock::now() - t0); };

  const auto replay_update = [&](const UpdateRecord& u) {
    const uint64_t id = kUpdateRequestBase + u.index;
    const GraphUpdateBatch batch = ToggleBatch(toggles, u.index);
    const double a = now_s();
    const int64_t root = out.spans.Add("replay.update", a, a, -1, id);
    auto graph = std::make_unique<Graph>(Check(
        rtk::ApplyEdgeUpdates(*st.graph, batch, sopts.mutation_graph),
        "replay apply edges"));
    const double b = now_s();
    out.spans.Add("graph.apply_edges", a, b, root, id);
    auto op = std::make_unique<rtk::TransitionOperator>(*graph);
    const double c = now_s();
    out.spans.Add("graph.transition", b, c, root, id);
    const rtk::ReverseReachability affected = rtk::ReverseReachableFrom(
        *graph, rtk::ModifiedSources(batch), rebuild_cap);
    const double e = now_s();
    out.spans.Add("dynamic.affected", c, e, root, id);
    if (affected.truncated || affected.nodes.size() > repair_cap) {
      Die("replay: toggle left the exact-repair band");
    }
    rtk::IndexRepairOptions ropts;
    ropts.solver = eopts.solver;
    ropts.solver.alpha = eopts.bca.alpha;
    rtk::IndexRepairReport report;
    auto index = std::make_unique<rtk::LowerBoundIndex>(
        Check(rtk::RepairAffectedNodes(*st.index, *op, affected.nodes, ropts,
                                       nullptr, &report),
              "replay repair"));
    const double f = now_s();
    out.spans.Add("dynamic.repair", e, f, root, id);
    out.apply_edges_s.push_back(b - a);
    out.affected_s.push_back(e - c);
    out.repair_s.push_back(f - e);
    out.repair_hub_s.push_back(report.hub_seconds);
    out.repair_bca_s.push_back(report.bca_seconds);
    st.refine.reset();
    st.backend.reset();
    st.index = std::move(index);
    st.op = std::move(op);
    st.graph = std::move(graph);
    st.Bind(config);
    out.spans.SetEnd(root, now_s());
  };

  // One request's stages 2+ after its proximity row is in hand.
  // A fused lane's proximity span is its share of the fused solve, placed
  // right before the lane's own stages so its request tree is contiguous.
  const auto replay_rest = [&](size_t id, const RequestRecord& r,
                               rtk::ProximityRow row, double prox_s) {
    const double prox_end = now_s();
    const double start = prox_end - prox_s;
    const int64_t root = out.spans.Add("replay.request", start, start, -1, id);
    out.spans.Add("exec.proximity", start, prox_end, root, id);
    out.prox_s.push_back(prox_end - start);
    out.iterations.push_back(row.iterations);
    out.pmpn_edges += static_cast<double>(row.iterations) *
                      static_cast<double>(st.graph->num_edges());

    rtk::PruneStageOptions popts;
    popts.k = kTopK;
    popts.tie_epsilon = sopts.query.tie_epsilon;
    popts.approximate_hits_only = hits_only;
    popts.eps_below = row.eps_below;
    popts.eps_above = row.eps_above;
    popts.eps_node = row.eps_node.empty() ? nullptr : &row.eps_node;
    popts.max_parallelism = 1;
    const double p0 = now_s();
    rtk::PruneResult pruned =
        rtk::RunPruneStage(*st.index, row.values, popts, nullptr);
    const double p1 = now_s();
    if (!pruned.status.ok()) Die("replay prune: " + pruned.status.ToString());
    out.spans.Add("exec.prune", p0, p1, root, id);
    out.prune_s.push_back(p1 - p0);
    out.prune_rows += n;
    out.candidates.push_back(static_cast<double>(pruned.candidates));
    out.hits.push_back(static_cast<double>(pruned.hits.size()));
    out.undecided.push_back(static_cast<double>(pruned.undecided.size()));

    std::vector<uint32_t> results = pruned.hits;
    double refine_s = 0.0;
    if (!hits_only) {
      if (!row.exact()) Die("replay: the exact tier needs an exact row");
      rtk::RefineStageOptions ropts;
      ropts.k = kTopK;
      ropts.tie_epsilon = sopts.query.tie_epsilon;
      ropts.refine_strategy = sopts.query.refine_strategy;
      ropts.max_refine_iterations_per_node =
          sopts.query.max_refine_iterations_per_node;
      ropts.max_stalled_refinements = sopts.query.max_stalled_refinements;
      ropts.update_index = w.write_back;
      ropts.pmpn = rwr;
      ropts.max_parallelism = 1;
      const double r0 = now_s();
      rtk::RefineResult refined = Check(
          st.refine->Run(pruned.undecided, row.values, ropts, nullptr),
          "replay refine");
      const double r1 = now_s();
      out.spans.Add("exec.refine", r0, r1, root, id);
      refine_s = r1 - r0;
      out.refine_iterations.push_back(
          static_cast<double>(refined.refine_iterations));
      out.exact_fallbacks += refined.exact_fallbacks;
      results.clear();
      std::merge(pruned.hits.begin(), pruned.hits.end(),
                 refined.accepted.begin(), refined.accepted.end(),
                 std::back_inserter(results));
      if (w.write_back && !refined.deltas.empty()) {
        const double wb0 = now_s();
        for (rtk::IndexDelta& delta : refined.deltas) {
          st.index->ApplyIfTighter(std::move(delta));
        }
        const double wb1 = now_s();
        out.spans.Add("index.writeback", wb0, wb1, root, id);
        out.writeback_s.push_back(wb1 - wb0);
      }
    }
    out.refine_s.push_back(refine_s);
    out.spans.SetEnd(root, now_s());
    out.stats_prox_s += r.stats_prox_s;
    out.stats_prune_s += r.stats_prune_s;
    out.stats_refine_s += r.stats_refine_s;
    // The replay must reproduce the served answer (exact tier: exactness;
    // hits-only: the same stored bounds).
    if (results != r.results) out.answers_match = false;
    out.last_request = id;
    ++out.replayed;
  };

  std::vector<size_t> order;
  for (size_t i = 0; i < run.num_requests; ++i) {
    const RequestRecord& r = run.records.at(i);
    if (r.outcome == Outcome::kOk && !r.cache_hit) order.push_back(i);
  }
  const size_t lanes = std::max<size_t>(1, w.max_batch);
  for (size_t pos = 0; pos < order.size();) {
    if (out.replayed >= kMaxReplayRequests || now_s() >= budget_s) break;
    if (lanes == 1) {
      const RequestRecord& r = run.records.at(order[pos]);
      const double a = now_s();
      rtk::ProximityRow row =
          Check(st.backend->Compute(r.query, rwr, nullptr, 1), "proximity");
      replay_rest(order[pos], r, std::move(row), now_s() - a);
      ++pos;
      continue;
    }
    // Fused stage 1 over up to max_batch requests; the span is split
    // evenly across the lanes.
    const size_t take = std::min(lanes, order.size() - pos);
    std::vector<rtk::ProximityLaneSpec> specs;
    for (size_t j = 0; j < take; ++j) {
      specs.push_back({run.records.at(order[pos + j]).query, nullptr});
    }
    const double a = now_s();
    std::vector<rtk::ProximityLaneOutcome> rows =
        st.backend->ComputeMulti(specs, rwr, nullptr, 1);
    const double share = (now_s() - a) / static_cast<double>(take);
    for (size_t j = 0; j < take; ++j) {
      if (!rows[j].status.ok()) Die("replay fused proximity failed");
      replay_rest(order[pos + j], run.records.at(order[pos + j]),
                  std::move(rows[j].row), share);
    }
    pos += take;
  }
  // The probe's toggles came after every request.
  for (const UpdateRecord& u : run.updates) {
    if (now_s() >= 2.0 * budget_s) break;
    if (u.result.ok()) replay_update(u);
  }
  return out;
}

// ------------------------------------------------------------------ report --

double Ms(double s) { return s * 1e3; }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct EndToEnd {
  std::vector<double> latency_s;  // OK requests
  std::vector<double> lateness_s;
  std::vector<double> submit_s;  // duration of each Submit call
};

EndToEnd Summarize(const RunResult& run, FailureCounts* failures) {
  EndToEnd e;
  for (size_t i = 0; i < run.num_requests; ++i) {
    const RequestRecord& r = run.records.at(i);
    failures->Add(r.outcome);
    e.lateness_s.push_back(GeneratorLateness(r.due, r.submitted));
    e.submit_s.push_back(r.submit_end - r.submitted);
    if (r.outcome != Outcome::kOk) continue;
    e.latency_s.push_back(r.delivered - r.submitted);
  }
  return e;
}

// Nearest-rank percentile of a metric the end-to-end contract depends on:
// too few samples fails the run rather than reporting a thin tail.
double Required(QuantileReport* report, const char* metric,
                const std::vector<double>& samples, double p, double scale) {
  const Quantile q = report->Take(metric, samples, p, scale);
  if (!q.valid) {
    Die(std::string(metric) + ": " + std::to_string(q.samples) +
        " samples, p" + std::to_string(static_cast<int>(p)) + " needs " +
        std::to_string(MinSamplesFor(p)));
  }
  return q.value * scale;
}

// Latency samples and completion rate of a run's first `n` requests.
// Round 1 and its traced repeat issue the same stream on the same graph,
// so their prefixes of equal length compare like for like.
struct Prefix {
  std::vector<double> latency_s;
  double qps = 0.0;
};

Prefix PrefixOf(const RunResult& run, size_t n) {
  Prefix out;
  double last_delivery = 0.0;
  for (size_t i = 0; i < std::min(n, run.num_requests); ++i) {
    const RequestRecord& r = run.records.at(i);
    if (r.outcome != Outcome::kOk) continue;
    out.latency_s.push_back(r.delivered - r.submitted);
    last_delivery = std::max(last_delivery, r.delivered);
  }
  out.qps = Ratio(static_cast<double>(out.latency_s.size()), last_delivery);
  return out;
}

void PrintShares(const char* title, const std::map<std::string, double>& by_name) {
  double total = 0.0;
  for (const auto& [name, s] : by_name) total += s;
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, s] : by_name) ranked.push_back({s, name});
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("%s (self time, total %.3f s)\n", title, total);
  for (const auto& [s, name] : ranked) {
    std::printf("  %-22s %6.1f%%  %9.3f ms\n", name.c_str(),
                100.0 * Ratio(s, total), Ms(s));
  }
}

// -------------------------------------------------------------------- main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  bool list_metrics = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--scratch") {
      a.scratch = value();
    } else if (arg == "--list-metrics") {
      a.list_metrics = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (!a.list_metrics && (!have_workload || FindWorkload(a.workload) == nullptr)) {
    Die("--workload must be one of exact-update, hits-batched");
  }
  if (!(a.seconds > 0.0)) Die("--seconds must be positive");
  return a;
}

struct SetupTimes {
  std::vector<double> total, build, create;
  void Add(const Deployment& d) {
    total.push_back(d.total_s);
    build.push_back(d.build_s);
    create.push_back(d.create_s);
  }
};

// Everything the traced round hands to the per-layer report. `baseline` is
// the untraced run of the round it repeats, over its `baseline_requests`.
void ReportLayers(const Workload& w, const Args& args, const Deployment& td,
                  const RunResult& traced, const ToggleSets& toggles,
                  const SetupTimes& setup, const Prefix& baseline,
                  size_t baseline_requests, MetricSet* metrics,
                  QuantileReport* quantiles, CheckReport* check);

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.list_metrics) {
    for (const MetricSpec& m : Catalog()) {
      std::printf("%s\t%s\t%s\n", m.end_to_end ? "end_to_end" : "per_layer",
                  m.name, m.unit);
    }
    return 0;
  }
  const Workload& w = *FindWorkload(args.workload);
  const double round_s = args.seconds / w.rounds;
  std::printf("workload %s seed %llu: warm-up and %d rounds of %zu requests\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.rounds, RoundCount(w.rate, round_s));

  MetricSet metrics;
  QuantileReport quantiles;
  FailureCounts failures;
  CheckReport check;
  SetupTimes setup;
  std::vector<double> latency_s, mut_s;
  double timed_s = 0.0;
  double rss_mb = 0.0;
  CpuTicks timed_ticks;  // over the measured rounds' timed phases
  Prefix baseline;
  size_t baseline_requests = 0;
  const Graph graph = MakeGraph(w.graph);
  // Every round serves the same graph, so the oracle's answers carry over.
  Oracle oracle;
  // Round 0 warms the process up (allocator arenas, code pages, the
  // host's scheduling of the virtual CPUs): a first timed phase often ran
  // 1.5x slower than later ones. It is kWarmupShare of a round, without the
  // update probe, and its set-up time is not measured. Its answers are
  // checked like every round's, but only rss_mb is read from it, in the
  // fresh process: memory freed by one round stays cached in the
  // allocator's per-thread arenas and would count in the next round's
  // resident set.
  for (int round = 0; round <= w.rounds; ++round) {
    const RoundInputs in(graph, args.seed, round);
    const bool measured = round > 0;
    const double phase_s = measured ? round_s : kWarmupShare * round_s;
    auto d = std::make_unique<Deployment>(Setup(w, graph));
    RunResult run;
    const CpuTicks before = ReadCpuTicks();
    TimedPhase(w, d->serving.get(), graph, in.stream_seed,
               RoundCount(w.rate, phase_s), !measured, &run);
    const CpuTicks after = ReadCpuTicks();
    const EndToEnd e = Summarize(run, &failures);
    if (!measured) {
      rss_mb = run.rss_mb;
      std::printf("  warm-up rss %.4g MiB\n", rss_mb);
    }
    if (measured) {
      timed_ticks.steal += after.steal - before.steal;
      timed_ticks.total += after.total - before.total;
      setup.Add(*d);
      latency_s.insert(latency_s.end(), e.latency_s.begin(), e.latency_s.end());
      timed_s += run.wall_s;
    }
    if (round == 1) {
      baseline_requests = run.num_requests;
      baseline = PrefixOf(run, baseline_requests);
    }
    const Clock::time_point untimed = Clock::now();
    if (measured) {
      UpdateProbe(w, d->serving.get(), in.toggles, &run);
      for (const UpdateRecord& u : run.updates) {
        failures.Add(u.result.ok() ? Outcome::kOk : Outcome::kRejected);
        mut_s.push_back(u.resolved - u.submitted);
      }
    }
    const rtk::ServingStats& st = run.stats;
    d->serving.reset();  // answers are checked with the engine stopped
    if (w.tier == AccuracyTier::kExact) {
      CheckExact(run, graph, d->engine.get(), &oracle, &check);
    } else {
      CheckSubset(run, d->engine.get(), &oracle, &check);
    }
    std::printf(
        "  round %d: set-up %.3f s, %zu requests in %.3f s, probe and checks "
        "%.3f s, p50 %.4g ms, p99 %.4g ms, late p99 %.4g ms, submit p99 "
        "%.4g ms, cache hits %llu/%llu, batches %llu, publishes %llu, "
        "toggles %zu\n",
        round, d->total_s, run.num_requests, run.wall_s,
        Seconds(Clock::now() - untimed),
        Ms(NearestRank(e.latency_s, 50).value),
        Ms(NearestRank(e.latency_s, 99).value),
        Ms(NearestRank(e.lateness_s, 99).value),
        Ms(NearestRank(e.submit_s, 99).value),
        static_cast<unsigned long long>(st.cache_hits),
        static_cast<unsigned long long>(st.cache_hits + st.cache_misses),
        static_cast<unsigned long long>(st.batches),
        static_cast<unsigned long long>(st.epochs_published),
        run.updates.size());
    d.reset();
  }
  // Every wall-clock metric moves with the host's load; runs are only
  // comparable when this share is similar (and small).
  std::printf("host CPU steal during the timed phases: %.1f%%\n",
              100.0 * Ratio(static_cast<double>(timed_ticks.steal),
                            static_cast<double>(timed_ticks.total)));
  std::printf("checked %llu answers (%llu distinct queries) against the "
              "oracle: %s\n",
              static_cast<unsigned long long>(check.checked),
              static_cast<unsigned long long>(oracle.size()),
              check.correct ? "all match" : "MISMATCH");

  metrics.Set("setup_s", Median(setup.total));
  metrics.Set("qps", Ratio(static_cast<double>(latency_s.size()), timed_s));
  metrics.Set("p50_ms", Required(&quantiles, "p50_ms", latency_s, 50, 1e3));
  metrics.Set("p99_ms", Required(&quantiles, "p99_ms", latency_s, 99, 1e3));
  metrics.Set("rss_mb", rss_mb);
  metrics.Set("mut_p50_ms", Required(&quantiles, "mut_p50_ms", mut_s, 50, 1e3));
  metrics.Set("mut_p95_ms", Required(&quantiles, "mut_p95_ms", mut_s, 95, 1e3));

  if (args.trace) {
    // A traced repeat of round 1, then the single-threaded replay. It
    // issues at least 2 x MinSamplesFor(99) requests, so the executed
    // requests left after cache hits still give each replayed stage a
    // valid p99; its first baseline_requests requests are round 1's.
    const RoundInputs in(graph, args.seed, 1);
    auto td = std::make_unique<Deployment>(Setup(w, graph));
    RunResult traced;
    TimedPhase(w, td->serving.get(), graph, in.stream_seed,
               std::max(RoundCount(w.rate, round_s), 2 * MinSamplesFor(99)),
               false, &traced);
    UpdateProbe(w, td->serving.get(), in.toggles, &traced);
    td->serving.reset();
    ReportLayers(w, args, *td, traced, in.toggles, setup, baseline,
                 baseline_requests, &metrics, &quantiles, &check);
  }
  metrics.Set("ok_frac", 1.0 - failures.fail_frac());
  metrics.Set("fail_frac", failures.fail_frac());

  std::printf("percentiles (nearest rank over n samples; per-layer ones "
              "with too few read %g):\n%s",
              kInvalidPercentile, quantiles.Table().c_str());
  std::printf("%s\n", ResultJson(check.correct, failures.attempted,
                                 failures.failed(),
                                 metrics.Emit(!args.trace))
                          .c_str());
  std::fflush(stdout);
  return check.correct ? 0 : 1;
}

void ReportLayers(const Workload& w, const Args& args, const Deployment& td,
                  const RunResult& traced, const ToggleSets& toggles,
                  const SetupTimes& setup, const Prefix& baseline,
                  size_t baseline_requests, MetricSet* metrics,
                  QuantileReport* quantiles, CheckReport* check) {
  FailureCounts traced_failures;
  const EndToEnd te = Summarize(traced, &traced_failures);
  const rtk::ServingStats& ts = traced.stats;

  SpanLog concurrent;
  concurrent.Add("setup", 0.0, td.total_s, -1, 0);
  concurrent.Add("index.build", 0.0, td.build_s, 0, 0);
  concurrent.Add("serving.create", td.total_s - td.create_s, td.total_s, 0, 0);
  std::vector<double> submit_us, queue_wait_s;
  for (size_t i = 0; i < traced.num_requests; ++i) {
    const RequestRecord& r = traced.records.at(i);
    const int64_t root =
        concurrent.Add("serving.request", r.submitted, r.delivered, -1, i);
    concurrent.Add("serving.submit", r.submitted, r.submit_end, root, i);
    submit_us.push_back((r.submit_end - r.submitted) * 1e6);
    if (r.outcome == Outcome::kOk && !r.cache_hit) {
      queue_wait_s.push_back(r.queue_wait);
    }
  }
  std::vector<double> affected_nodes;
  uint64_t repaired = 0, invalidated = 0, rebuilt = 0;
  for (const UpdateRecord& u : traced.updates) {
    concurrent.Add("serving.apply_updates", u.submitted, u.resolved, -1,
                   kUpdateRequestBase + u.index);
    affected_nodes.push_back(static_cast<double>(u.result.affected_nodes));
    switch (u.result.mode) {
      case rtk::MutationRepairMode::kRepaired: ++repaired; break;
      case rtk::MutationRepairMode::kInvalidated: ++invalidated; break;
      case rtk::MutationRepairMode::kRebuilt: ++rebuilt; break;
    }
  }

  // The serving engine cloned td's index at creation and never wrote the
  // source engine's copy, so the replay starts from the served state.
  const ReplayResult rp = Replay(w, td, traced, toggles, args.seconds);
  if (!rp.answers_match) {
    check->Fail("the replay did not reproduce a served answer");
  }
  const std::string base =
      args.scratch + "/spans-" + w.name + "-" + std::to_string(args.seed);
  if (!concurrent.WriteTsv(base + "-concurrent.tsv") ||
      !rp.spans.WriteTsv(base + "-replay.tsv")) {
    Die("cannot write spans under " + args.scratch);
  }

  // Layer shares over the window of the round's own stream (the traced
  // round may run longer, for the percentiles): the replayed stages plus
  // the Submit calls of the same requests (cache hits are served inside
  // Submit).
  const size_t window = std::min(baseline_requests, rp.last_request + 1);
  std::map<std::string, double> query_path =
      SelfTimeByName(rp.spans.spans(), "replay.request", window);
  double submit_s = 0.0;
  for (size_t i = 0; i < window && i < traced.num_requests; ++i) {
    const RequestRecord& r = traced.records.at(i);
    submit_s += r.submit_end - r.submitted;
  }
  query_path["serving.submit"] = submit_s;
  std::printf("\nlayer shares, %s: %zu requests and %zu updates replayed, "
              "shares over requests 0..%zu\n",
              w.name.c_str(), rp.replayed, rp.repair_s.size(), window - 1);
  PrintShares("query path", query_path);
  if (!rp.repair_s.empty()) {
    PrintShares("update path",
                SelfTimeByName(rp.spans.spans(), "replay.update"));
  }
  const double prox_ratio = Ratio(rp.stats_prox_s, Sum(rp.prox_s));
  const double prune_ratio = Ratio(rp.stats_prune_s, Sum(rp.prune_s));
  const double refine_ratio = Ratio(rp.stats_refine_s, Sum(rp.refine_s));
  std::printf("QueryStats / replay span: proximity %.3f  prune %.3f  "
              "refine %.3f\n\n", prox_ratio, prune_ratio, refine_ratio);

  // Per-layer percentiles: recorded with their sample counts; one taken
  // over too few samples reads kInvalidPercentile.
  const auto pct = [&](const char* metric, const std::vector<double>& v,
                       double p, double scale) {
    return quantiles->Layer(metric, v, p, scale);
  };
  MetricSet& m = *metrics;
  m.Set("serving.submit_us.p50", pct("serving.submit_us.p50", submit_us, 50, 1));
  m.Set("serving.queue_wait_ms.p50",
        pct("serving.queue_wait_ms.p50", queue_wait_s, 50, 1e3));
  m.Set("serving.queue_wait_ms.p99",
        pct("serving.queue_wait_ms.p99", queue_wait_s, 99, 1e3));
  m.Set("serving.cache_hit_ratio",
        Ratio(static_cast<double>(ts.cache_hits),
              static_cast<double>(ts.cache_hits + ts.cache_misses)));
  m.Set("serving.batch_occupancy",
        Ratio(static_cast<double>(ts.batched_queries),
              static_cast<double>(ts.batches)));
  const rtk::HistogramSnapshot* publish =
      traced.metrics.HistogramOf("rtk_serving_publish_seconds");
  const uint64_t publishes = publish != nullptr ? publish->count : 0;
  m.Set("serving.publishes", static_cast<double>(publishes));
  m.Set("serving.publish_ms.mean",
        publish != nullptr ? Ms(publish->mean_seconds()) : 0.0);
  m.Set("serving.shards_copied_per_publish",
        Ratio(static_cast<double>(ts.shards_copied),
              static_cast<double>(publishes)));
  m.Set("serving.deltas_applied_ratio",
        Ratio(static_cast<double>(ts.deltas_applied),
              static_cast<double>(ts.deltas_recorded)));
  m.Set("serving.refinements_dropped_stale",
        static_cast<double>(ts.refinements_dropped_stale));
  m.Set("serving.shed", static_cast<double>(traced_failures.shed));
  m.Set("serving.expired", static_cast<double>(traced_failures.expired));
  m.Set("serving.create_ms", Ms(Median(setup.create)));

  m.Set("exec.proximity_ms.p50", pct("exec.proximity_ms.p50", rp.prox_s, 50, 1e3));
  m.Set("exec.proximity_ms.p99", pct("exec.proximity_ms.p99", rp.prox_s, 99, 1e3));
  m.Set("exec.prune_ms.p50", pct("exec.prune_ms.p50", rp.prune_s, 50, 1e3));
  m.Set("exec.prune_ms.p99", pct("exec.prune_ms.p99", rp.prune_s, 99, 1e3));
  m.Set("exec.candidates.mean", Mean(rp.candidates));
  m.Set("exec.hit_ratio", Ratio(Sum(rp.hits), Sum(rp.candidates)));
  m.Set("exec.refine_ms.p50", pct("exec.refine_ms.p50", rp.refine_s, 50, 1e3));
  m.Set("exec.refine_ms.p99", pct("exec.refine_ms.p99", rp.refine_s, 99, 1e3));
  m.Set("exec.undecided.mean", Mean(rp.undecided));
  m.Set("exec.stats_over_replay.proximity", prox_ratio);
  m.Set("exec.stats_over_replay.prune", prune_ratio);
  m.Set("exec.stats_over_replay.refine", refine_ratio);

  const double prox_us = Sum(rp.prox_s) * 1e6;
  m.Set("rwr.pmpn_iterations.mean", Mean(rp.iterations));
  m.Set("rwr.edges_per_us", Ratio(rp.pmpn_edges, prox_us));
  m.Set("bca.refine_iterations.mean", Mean(rp.refine_iterations));
  m.Set("bca.iterations_per_ms",
        Ratio(Sum(rp.refine_iterations), Ms(Sum(rp.refine_s))));
  m.Set("bca.exact_fallbacks", static_cast<double>(rp.exact_fallbacks));

  m.Set("index.build_s", Median(setup.build));
  m.Set("index.rows_per_us",
        Ratio(static_cast<double>(rp.prune_rows), Sum(rp.prune_s) * 1e6));
  m.Set("index.writeback_us.mean", Mean(rp.writeback_s) * 1e6);

  m.Set("dynamic.affected_ms.mean", Ms(Mean(rp.affected_s)));
  m.Set("dynamic.repair_ms.mean", Ms(Mean(rp.repair_s)));
  m.Set("dynamic.repair_hub_ms.mean", Ms(Mean(rp.repair_hub_s)));
  m.Set("dynamic.repair_bca_ms.mean", Ms(Mean(rp.repair_bca_s)));
  m.Set("dynamic.affected_nodes.mean", Mean(affected_nodes));
  m.Set("dynamic.repaired", static_cast<double>(repaired));
  m.Set("dynamic.invalidated", static_cast<double>(invalidated));
  m.Set("dynamic.rebuilt", static_cast<double>(rebuilt));
  m.Set("graph.apply_edges_ms.mean", Ms(Mean(rp.apply_edges_s)));

  m.Set("gen.late_ms.p99", pct("gen.late_ms.p99", te.lateness_s, 99, 1e3));
  // The traced round's first baseline_requests requests against round 1.
  const Prefix tp = PrefixOf(traced, baseline_requests);
  m.Set("gen.trace_overhead",
        Ratio(NearestRank(tp.latency_s, 50).value,
              NearestRank(baseline.latency_s, 50).value));
  m.Set("gen.trace_overhead_qps", Ratio(tp.qps, baseline.qps));
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
