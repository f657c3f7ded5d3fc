#include "serving/refinement_log.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rtk {

void RefinementLog::Append(std::vector<IndexDelta> deltas,
                           uint64_t graph_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (graph_version != kAnyGraphVersion && graph_version != graph_version_) {
    dropped_stale_ += deltas.size();
    return;
  }
  AppendLocked(std::move(deltas));
}

void RefinementLog::Append(std::vector<std::vector<IndexDelta>> batches,
                           uint64_t graph_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (graph_version != kAnyGraphVersion && graph_version != graph_version_) {
    for (const auto& deltas : batches) dropped_stale_ += deltas.size();
    return;
  }
  for (auto& deltas : batches) AppendLocked(std::move(deltas));
}

void RefinementLog::AdvanceGraphVersion(uint64_t graph_version) {
  std::lock_guard<std::mutex> lock(mu_);
  dropped_stale_ += tightest_.size();
  tightest_.clear();
  graph_version_ = graph_version;
}

uint64_t RefinementLog::graph_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_version_;
}

void RefinementLog::AppendLocked(std::vector<IndexDelta> deltas) {
  appended_ += deltas.size();
  for (auto& delta : deltas) {
    auto [it, inserted] = tightest_.try_emplace(delta.node);
    if (inserted || delta.residue_l1 < it->second.residue_l1) {
      if (!inserted) ++superseded_;
      it->second = std::move(delta);
    } else {
      ++superseded_;
    }
  }
}

std::vector<ShardDeltaGroup> RefinementLog::DrainByShard(uint32_t shard_nodes) {
  assert(shard_nodes > 0);
  std::lock_guard<std::mutex> lock(mu_);
  // Sorted node order makes both the shard grouping and the within-group
  // delta order deterministic regardless of map iteration order.
  std::vector<uint32_t> nodes;
  nodes.reserve(tightest_.size());
  for (const auto& [node, delta] : tightest_) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end());

  std::vector<ShardDeltaGroup> groups;
  size_t i = 0;
  while (i < nodes.size()) {
    const uint32_t shard = nodes[i] / shard_nodes;
    size_t j = i;
    while (j < nodes.size() && nodes[j] / shard_nodes == shard) ++j;
    ShardDeltaGroup group;
    group.shard = shard;
    group.deltas.reserve(j - i);
    for (size_t p = i; p < j; ++p) {
      group.deltas.push_back(std::move(tightest_.find(nodes[p])->second));
    }
    groups.push_back(std::move(group));
    i = j;
  }
  tightest_.clear();
  return groups;
}

size_t RefinementLog::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tightest_.size();
}

RefinementLogStats RefinementLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RefinementLogStats stats;
  stats.appended = appended_;
  stats.superseded = superseded_;
  stats.pending = tightest_.size();
  stats.dropped_stale = dropped_stale_;
  return stats;
}

}  // namespace rtk
