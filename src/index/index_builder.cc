#include "index/index_builder.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <string>

#include "common/stopwatch.h"
#include "common/workspace_pool.h"

namespace rtk {

namespace {

// Writes one node's results straight into its (exclusively owned) shard —
// the builder's write path bypasses SetNode's copy-on-write check because
// each shard is visited by exactly one worker.
void WriteRow(IndexShard* shard, uint32_t capacity_k, uint32_t u,
              const std::vector<double>& topk, SharedBcaState state,
              double residue_l1) {
  assert(topk.size() <= capacity_k);
  assert(std::is_sorted(topk.rbegin(), topk.rend()));
  const uint32_t local = u - shard->begin_node;
  double* row =
      shard->topk_values.data() + static_cast<size_t>(local) * capacity_k;
  std::copy(topk.begin(), topk.end(), row);
  std::fill(row + topk.size(), row + capacity_k, 0.0);
  shard->states[local] = std::move(state);
  shard->residue_l1[local] = residue_l1;
}

}  // namespace

Result<LowerBoundIndex> BuildLowerBoundIndex(const TransitionOperator& op,
                                             const std::vector<uint32_t>& hubs,
                                             const IndexBuildOptions& options,
                                             ThreadPool* pool,
                                             IndexBuildReport* report) {
  const uint32_t n = op.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (options.capacity_k == 0) {
    return Status::InvalidArgument("capacity_k must be > 0");
  }
  if (!(options.bca.alpha > 0.0) || !(options.bca.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }

  Stopwatch total_watch;
  IndexBuildReport local_report;

  // Phase 1: exact hub vectors, rounded (Section 4.1.3).
  Stopwatch hub_watch;
  HubStoreOptions hub_opts = options.hub_store;
  hub_opts.rwr.alpha = options.bca.alpha;  // one alpha everywhere
  RTK_ASSIGN_OR_RETURN(
      HubProximityStore store,
      HubProximityStore::Build(op, hubs, hub_opts, pool));
  local_report.hub_solve_seconds = hub_watch.ElapsedSeconds();

  LowerBoundIndex index(n, options.capacity_k, options.bca, std::move(store),
                        options.shard_nodes);
  const HubProximityStore& hub_store = index.hub_store();

  // Phase 2: partial BCA from every node (Algorithm 1 lines 3-9). The work
  // queue is the storage shard table itself: each chunk is one shard, whose
  // rows are emitted directly, so per-shard memory is written by one
  // thread, sequentially, in node order. ParallelForRange joins on these
  // chunks only, so a build on a shared pool never waits for unrelated
  // tasks.
  Stopwatch bca_watch;
  // Runners own the O(n) workspaces; one per concurrent chunk.
  WorkspacePool<BcaRunner> runners([&op, &hub_store, &options]() {
    return std::make_unique<BcaRunner>(op, hub_store.hubs(), options.bca);
  });
  std::atomic<uint64_t> iteration_total{0};
  ParallelForRange(
      pool, 0, index.num_shards(), /*max_parallelism=*/0, /*grain=*/1,
      [&](int64_t lo, int64_t hi) {
        auto runner = runners.Acquire();
        uint64_t iters = 0;
        for (int64_t s = lo; s < hi; ++s) {
          IndexShard& shard = index.MutableShard(static_cast<uint32_t>(s));
          for (uint32_t u = shard.begin_node; u < shard.end_node; ++u) {
            if (hub_store.IsHub(u)) {
              // Hubs store their exact top-K straight from P_H; no BCA
              // state.
              std::vector<std::pair<uint32_t, double>> topk =
                  hub_store.TopK(u, options.capacity_k);
              std::vector<double> values;
              values.reserve(topk.size());
              for (const auto& [id, v] : topk) values.push_back(v);
              WriteRow(&shard, options.capacity_k, u, values,
                       /*state=*/nullptr, /*residue_l1=*/0.0);
              continue;
            }
            runner->Start(u);
            iters += static_cast<uint64_t>(
                runner->RunToTermination(options.push_strategy));
            std::vector<std::pair<uint32_t, double>> topk =
                runner->TopKApprox(hub_store, options.capacity_k);
            std::vector<double> values;
            values.reserve(topk.size());
            for (const auto& [id, v] : topk) values.push_back(v);
            WriteRow(&shard, options.capacity_k, u, values, runner->Extract(),
                     runner->ResidueL1());
          }
        }
        iteration_total.fetch_add(iters);
      });
  local_report.bca_seconds = bca_watch.ElapsedSeconds();
  local_report.total_bca_iterations = iteration_total.load();
  local_report.total_seconds = total_watch.ElapsedSeconds();
  if (report != nullptr) *report = local_report;
  return index;
}

}  // namespace rtk
