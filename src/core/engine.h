// ReverseTopkEngine: the library's public facade.
//
// Wraps graph + transition operator + hub selection + index construction +
// online query behind one object, so a downstream user writes:
//
//   rtk::Graph graph = ...;                       // load or generate
//   auto engine = rtk::ReverseTopkEngine::Build(std::move(graph), {});
//   auto result = (*engine)->Query(q, k);         // reverse top-k of q
//
// Power users can drive the underlying modules (index_builder.h,
// online_query.h, ...) directly; the engine adds no policy beyond wiring
// consistent options through the stack.

#ifndef RTK_CORE_ENGINE_H_
#define RTK_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "bca/hub_selection.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/online_query.h"
#include "graph/graph.h"
#include "index/index_builder.h"
#include "index/lower_bound_index.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Top-level configuration (defaults are the paper's Section 5.2).
struct EngineOptions {
  /// K: largest k a query may use.
  uint32_t capacity_k = 200;
  /// BCA: restart alpha, propagation eta, residue delta.
  BcaOptions bca;
  /// How hubs are chosen (degree strategy with B=100 by default).
  HubSelectionOptions hub_selection;
  /// Hub-vector rounding threshold omega (Section 4.1.3).
  double rounding_omega = 1e-6;
  /// Iterative-solver settings for hub solves and PMPN (alpha is taken
  /// from `bca.alpha`; epsilon defaults to 1e-10).
  RwrOptions solver;
  /// Worker threads for index construction (and, after construction, for
  /// intra-query stage parallelism when QueryOptions::num_threads != 1);
  /// 0 = hardware concurrency, 1 = fully serial.
  int num_threads = 0;
  /// Nodes per index storage shard (0 = IndexStorage::kDefaultShardNodes).
  /// Shards are the unit of build work, prune-scan partitioning, parallel
  /// index I/O, and serving-layer copy-on-write publishes.
  uint32_t shard_nodes = 0;
  /// Memory tier for LoadFromFile (Build always constructs heap shards):
  /// kHeap eagerly parses every shard; kMmap maps the file and opens in
  /// O(directory) time, faulting shard bytes on first touch — identical
  /// query results, page-cache-resident cold shards (index_storage.h).
  /// kMmap requires a sharded (v2 or v3) index file.
  StorageTier storage_tier = StorageTier::kHeap;
};

/// \brief The one recipe that turns EngineOptions into an index over the
/// graph behind `op`: hub selection (alpha pinned to `bca.alpha`) plus
/// Algorithm 1 with the engine's capacity, BCA, solver, rounding and shard
/// settings. ReverseTopkEngine::Build and the serving engine's rebuild
/// drain both call it, so a rebuilt snapshot is byte-identical to a fresh
/// build on the same graph. Runs on `pool` when provided.
Result<LowerBoundIndex> BuildEngineIndex(const TransitionOperator& op,
                                         const EngineOptions& options,
                                         ThreadPool* pool = nullptr,
                                         IndexBuildReport* report = nullptr);

/// \brief Owning facade over graph, index and query machinery.
///
/// Thread-safety: Query() is NOT safe to call from multiple threads —
/// Algorithm 4 refines the LowerBoundIndex in place, and the searcher's
/// pipeline reuses pooled O(n) workspaces. Two distinct kinds of
/// parallelism compose with that rule:
///  * intra-query — a SINGLE Query call fans its stages out across the
///    engine's worker pool when QueryOptions::num_threads != 1 (see
///    exec/query_pipeline.h); results stay byte-identical to serial.
///  * inter-query — for concurrent callers wrap this engine in a
///    ServingEngine (serving/serving_engine.h): it clones the index into
///    immutable snapshots that any number of workers read lock-free,
///    captures refinement as deltas, and republishes tightened snapshots
///    through a single writer — byte-identical results at multi-threaded
///    throughput. The serving layer can additionally enable intra-query
///    parallelism so idle workers accelerate big queries.
class ReverseTopkEngine {
 public:
  /// \brief Selects hubs, builds the index, and readies the searcher.
  static Result<std::unique_ptr<ReverseTopkEngine>> Build(
      Graph graph, const EngineOptions& options = {});

  /// \brief Loads a previously saved index instead of building (hub set and
  /// BCA options come from the file).
  static Result<std::unique_ptr<ReverseTopkEngine>> LoadFromFile(
      Graph graph, const std::string& index_path,
      const EngineOptions& options = {});

  /// \brief Persists the current (possibly query-refined) index.
  Status SaveIndex(const std::string& path) const;

  /// \brief Reverse top-k query with default per-query options
  /// (update_index = true).
  Result<std::vector<uint32_t>> Query(uint32_t q, uint32_t k,
                                      QueryStats* stats = nullptr);

  /// \brief Reverse top-k query with full per-query control.
  Result<std::vector<uint32_t>> QueryWithOptions(uint32_t q,
                                                 const QueryOptions& options,
                                                 QueryStats* stats = nullptr);

  const Graph& graph() const { return graph_; }
  const LowerBoundIndex& index() const { return *index_; }
  const TransitionOperator& transition() const { return *op_; }
  const EngineOptions& options() const { return options_; }

  /// \brief Build timing (zeroed when the index was loaded from disk).
  const IndexBuildReport& build_report() const { return build_report_; }

  /// \brief Current index sizes.
  IndexStats index_stats() const { return index_->ComputeStats(); }

 private:
  explicit ReverseTopkEngine(Graph graph, const EngineOptions& options);

  Graph graph_;
  EngineOptions options_;
  std::unique_ptr<TransitionOperator> op_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<LowerBoundIndex> index_;
  std::unique_ptr<ReverseTopkSearcher> searcher_;
  IndexBuildReport build_report_;
};

}  // namespace rtk

#endif  // RTK_CORE_ENGINE_H_
