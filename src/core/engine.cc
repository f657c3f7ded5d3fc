#include "core/engine.h"

#include "index/index_io.h"

namespace rtk {

ReverseTopkEngine::ReverseTopkEngine(Graph graph, const EngineOptions& options)
    : graph_(std::move(graph)), options_(options) {
  op_ = std::make_unique<TransitionOperator>(graph_);
  const int threads = options_.num_threads > 0 ? options_.num_threads
                                               : ThreadPool::DefaultThreads();
  pool_ = std::make_unique<ThreadPool>(threads);
}

Result<LowerBoundIndex> BuildEngineIndex(const TransitionOperator& op,
                                         const EngineOptions& options,
                                         ThreadPool* pool,
                                         IndexBuildReport* report) {
  HubSelectionOptions hub_opts = options.hub_selection;
  hub_opts.alpha = options.bca.alpha;
  RTK_ASSIGN_OR_RETURN(std::vector<uint32_t> hubs,
                       SelectHubs(op.graph(), hub_opts));

  IndexBuildOptions build_opts;
  build_opts.capacity_k = options.capacity_k;
  build_opts.bca = options.bca;
  build_opts.shard_nodes = options.shard_nodes;
  build_opts.hub_store.rwr = options.solver;
  build_opts.hub_store.rwr.alpha = options.bca.alpha;
  build_opts.hub_store.rounding_omega = options.rounding_omega;
  return BuildLowerBoundIndex(op, hubs, build_opts, pool, report);
}

Result<std::unique_ptr<ReverseTopkEngine>> ReverseTopkEngine::Build(
    Graph graph, const EngineOptions& options) {
  std::unique_ptr<ReverseTopkEngine> engine(
      new ReverseTopkEngine(std::move(graph), options));
  RTK_ASSIGN_OR_RETURN(
      LowerBoundIndex index,
      BuildEngineIndex(*engine->op_, options, engine->pool_.get(),
                       &engine->build_report_));
  engine->index_ = std::make_unique<LowerBoundIndex>(std::move(index));
  engine->searcher_ = std::make_unique<ReverseTopkSearcher>(
      *engine->op_, engine->index_.get());
  // The build pool is idle after construction; lend it to the query
  // pipeline so QueryOptions::num_threads != 1 parallelizes single queries.
  engine->searcher_->set_thread_pool(engine->pool_.get());
  return engine;
}

Result<std::unique_ptr<ReverseTopkEngine>> ReverseTopkEngine::LoadFromFile(
    Graph graph, const std::string& index_path, const EngineOptions& options) {
  std::unique_ptr<ReverseTopkEngine> engine(
      new ReverseTopkEngine(std::move(graph), options));
  LoadIndexOptions load_opts;
  load_opts.pool = engine->pool_.get();
  load_opts.tier = options.storage_tier;
  RTK_ASSIGN_OR_RETURN(
      LowerBoundIndex index,
      LoadIndex(index_path, engine->graph_.num_nodes(), load_opts));
  engine->index_ = std::make_unique<LowerBoundIndex>(std::move(index));
  engine->searcher_ = std::make_unique<ReverseTopkSearcher>(
      *engine->op_, engine->index_.get());
  engine->searcher_->set_thread_pool(engine->pool_.get());
  return engine;
}

Status ReverseTopkEngine::SaveIndex(const std::string& path) const {
  // Shard payloads serialize in parallel on the engine's pool.
  return rtk::SaveIndex(*index_, path, pool_.get());
}

Result<std::vector<uint32_t>> ReverseTopkEngine::Query(uint32_t q, uint32_t k,
                                                       QueryStats* stats) {
  QueryOptions query_opts;
  query_opts.k = k;
  query_opts.pmpn = options_.solver;
  return searcher_->Query(q, query_opts, stats);
}

Result<std::vector<uint32_t>> ReverseTopkEngine::QueryWithOptions(
    uint32_t q, const QueryOptions& options, QueryStats* stats) {
  return searcher_->Query(q, options, stats);
}

}  // namespace rtk
