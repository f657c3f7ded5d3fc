#include "dynamic/index_repair.h"

#include <memory>
#include <optional>
#include <utility>

#include "bca/bca.h"
#include "common/stopwatch.h"
#include "common/workspace_pool.h"

namespace rtk {

Result<LowerBoundIndex> RepairAffectedNodes(
    const LowerBoundIndex& index, const TransitionOperator& op,
    const std::vector<uint32_t>& affected, const IndexRepairOptions& options,
    ThreadPool* pool, IndexRepairReport* report) {
  IndexRepairReport local;
  // A cold hub section that fails verification must fail the repair: the
  // empty stand-in hub_store() returns would otherwise be published as
  // the refreshed P_H, hiding the corruption from later queries.
  RTK_RETURN_NOT_OK(index.EnsureHubStore());

  // 1. Refresh the vectors of affected hubs against the new graph;
  // unaffected vectors (and the hub set and rounding threshold) are
  // inherited verbatim. With no affected hub the old P_H is shared as is.
  Stopwatch hub_watch;
  std::vector<uint32_t> affected_hubs;
  const HubProximityStore& old_store = index.hub_store();
  for (uint32_t u : affected) {
    if (old_store.IsHub(u)) affected_hubs.push_back(u);
  }
  std::optional<HubProximityStore> new_store;
  if (!affected_hubs.empty()) {
    RTK_ASSIGN_OR_RETURN(
        new_store, HubProximityStore::Rebuilt(old_store, op, affected_hubs,
                                              options.solver, pool));
  }
  local.affected_hubs = static_cast<uint32_t>(affected_hubs.size());
  local.hub_seconds = hub_watch.ElapsedSeconds();

  // 2. Algorithm 1 restricted to the affected set, against the P_H the
  // repaired index will serve. Compute first, install after (step 3):
  // SetNode privatizes a copy-on-write shard, and the write contract is
  // one thread per shard.
  Stopwatch bca_watch;
  const HubProximityStore& store =
      new_store.has_value() ? *new_store : old_store;
  const uint32_t capacity_k = index.capacity_k();
  const BcaOptions& bca_opts = index.bca_options();
  struct RepairedRow {
    std::vector<double> values;  // descending top-K (empty = trivial bound)
    SharedBcaState state;
    double residue_l1 = 1.0;
  };
  std::vector<RepairedRow> rows(affected.size());
  // Runners own the O(n) workspaces; one per concurrent chunk, leased on
  // its first BCA re-run. Start() resets a reused runner completely.
  WorkspacePool<BcaRunner> runners([&op, &store, &bca_opts]() {
    return std::make_unique<BcaRunner>(op, store.hubs(), bca_opts);
  });
  ParallelForRange(
      pool, 0, static_cast<int64_t>(affected.size()), /*max_parallelism=*/0,
      /*grain=*/1, [&](int64_t lo, int64_t hi) {
        std::optional<WorkspacePool<BcaRunner>::Lease> runner;
        for (int64_t i = lo; i < hi; ++i) {
          const uint32_t u = affected[i];
          RepairedRow& row = rows[i];
          if (store.IsHub(u)) {
            // Hubs read their exact top-K from the refreshed store.
            auto topk = store.TopK(u, capacity_k);
            row.values.reserve(topk.size());
            for (const auto& [id, value] : topk) row.values.push_back(value);
            row.residue_l1 = 0.0;
            continue;
          }
          if (!options.repair_bca) {
            // Trivial-but-valid bound: the INITIAL BCA state (unit ink at
            // u), not an empty one — an empty state has |r|_1 = 0, which
            // the refine stage reads as "run complete, p_u == 0 exactly"
            // and confirms every candidate. Unit residue at u makes a
            // later Load() equivalent to Start(u): refinement re-derives
            // the row from scratch, exactly.
            row.state = PackBcaState(/*iterations=*/0, {{u, 1.0}});
            continue;
          }
          if (!runner.has_value()) runner.emplace(runners.Acquire());
          BcaRunner& bca = **runner;
          bca.Start(u);
          bca.RunToTermination();
          auto topk = bca.TopKApprox(store, capacity_k);
          row.values.reserve(topk.size());
          for (const auto& [id, value] : topk) row.values.push_back(value);
          row.state = bca.Extract();
          row.residue_l1 = bca.ResidueL1();
        }
      });
  if (!options.repair_bca) {
    local.invalidated_nodes =
        static_cast<uint32_t>(affected.size()) - local.affected_hubs;
  }
  local.bca_seconds = bca_watch.ElapsedSeconds();

  // 3. Install the repaired rows into a copy-on-write copy sharing every
  // storage shard with the source until written, serving the refreshed
  // P_H if there is one (sound because unaffected nodes' hub ink
  // references only unaffected hubs, whose vectors the refreshed store
  // keeps byte-identical). One task per dirty shard: `affected` is
  // sorted, so each shard's run is contiguous and writes sequentially.
  Stopwatch install_watch;
  LowerBoundIndex next = new_store.has_value()
                             ? LowerBoundIndex(index, std::move(*new_store))
                             : index;
  std::vector<std::pair<size_t, size_t>> shard_runs;
  size_t i = 0;
  while (i < affected.size()) {
    const uint32_t shard = next.ShardOf(affected[i]);
    size_t j = i;
    while (j < affected.size() && next.ShardOf(affected[j]) == shard) ++j;
    shard_runs.emplace_back(i, j);
    i = j;
  }
  ParallelForRange(
      pool, 0, static_cast<int64_t>(shard_runs.size()), /*max_parallelism=*/0,
      /*grain=*/1, [&](int64_t lo, int64_t hi) {
        for (int64_t g = lo; g < hi; ++g) {
          for (size_t p = shard_runs[g].first; p < shard_runs[g].second; ++p) {
            const uint32_t u = affected[p];
            next.SetNode(u, rows[p].values, std::move(rows[p].state),
                         rows[p].residue_l1);
          }
        }
      });
  local.install_seconds = install_watch.ElapsedSeconds();

  if (report != nullptr) *report = local;
  return next;
}

}  // namespace rtk
