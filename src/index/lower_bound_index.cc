#include "index/lower_bound_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rtk {

LowerBoundIndex::LowerBoundIndex(uint32_t num_nodes, uint32_t capacity_k,
                                 BcaOptions bca_options,
                                 HubProximityStore hub_store,
                                 uint32_t shard_nodes)
    : num_nodes_(num_nodes),
      capacity_k_(capacity_k),
      bca_options_(bca_options),
      hub_store_(std::make_shared<const HubProximityStore>(std::move(hub_store))),
      storage_(num_nodes, capacity_k, shard_nodes) {
  assert(capacity_k_ > 0);
}

LowerBoundIndex::LowerBoundIndex(BcaOptions bca_options,
                                 HubProximityStore hub_store,
                                 IndexStorage storage)
    : num_nodes_(storage.num_nodes()),
      capacity_k_(storage.capacity_k()),
      bca_options_(bca_options),
      hub_store_(
          std::make_shared<const HubProximityStore>(std::move(hub_store))),
      storage_(std::move(storage)) {
  assert(capacity_k_ > 0);
}

LowerBoundIndex::LowerBoundIndex(BcaOptions bca_options,
                                 std::shared_ptr<LazyHubStore> lazy_hubs,
                                 IndexStorage storage)
    : num_nodes_(storage.num_nodes()),
      capacity_k_(storage.capacity_k()),
      bca_options_(bca_options),
      lazy_hubs_(std::move(lazy_hubs)),
      storage_(std::move(storage)) {
  assert(capacity_k_ > 0);
  assert(lazy_hubs_ != nullptr);
}

LowerBoundIndex::LowerBoundIndex(const LowerBoundIndex& other,
                                 HubProximityStore hub_store)
    : num_nodes_(other.num_nodes_),
      capacity_k_(other.capacity_k_),
      bca_options_(other.bca_options_),
      hub_store_(
          std::make_shared<const HubProximityStore>(std::move(hub_store))),
      storage_(other.storage_) {
  assert(hub_store_->num_nodes() == num_nodes_);
}

LowerBoundIndex::LowerBoundIndex(const LowerBoundIndex& other,
                                 uint32_t shard_nodes)
    : num_nodes_(other.num_nodes_),
      capacity_k_(other.capacity_k_),
      bca_options_(other.bca_options_),
      hub_store_(other.hub_store_),
      lazy_hubs_(other.lazy_hubs_),
      storage_(other.num_nodes_, other.capacity_k_, shard_nodes) {
  for (uint32_t s = 0; s < storage_.num_shards(); ++s) {
    IndexShard& dst = storage_.MutableShard(s);
    for (uint32_t u = dst.begin_node; u < dst.end_node; ++u) {
      const IndexShard& src = other.storage_.shard(other.ShardOf(u));
      const uint32_t src_local = u - src.begin_node;
      const uint32_t dst_local = u - dst.begin_node;
      std::copy_n(src.topk_values.data() +
                      static_cast<size_t>(src_local) * capacity_k_,
                  capacity_k_,
                  dst.topk_values.data() +
                      static_cast<size_t>(dst_local) * capacity_k_);
      dst.residue_l1[dst_local] = src.residue_l1[src_local];
      dst.states[dst_local] = src.states[src_local];
    }
  }
}

void LowerBoundIndex::SetNode(uint32_t u, const std::vector<double>& topk,
                              SharedBcaState state, double residue_l1) {
  assert(u < num_nodes_);
  assert(topk.size() <= capacity_k_);
  assert(std::is_sorted(topk.rbegin(), topk.rend()));
  IndexShard& shard = storage_.MutableShard(storage_.ShardOf(u));
  const uint32_t local = u - shard.begin_node;
  double* row =
      shard.topk_values.data() + static_cast<size_t>(local) * capacity_k_;
  std::copy(topk.begin(), topk.end(), row);
  std::fill(row + topk.size(), row + capacity_k_, 0.0);
  shard.states[local] = std::move(state);
  shard.residue_l1[local] = residue_l1;
}

bool LowerBoundIndex::ApplyIfTighter(const IndexDelta& delta) {
  assert(delta.node < num_nodes_);
  if (delta.residue_l1 >= ResidueL1(delta.node)) {
    return false;  // stored state is at least as refined
  }
  SetNode(delta.node, delta.topk, delta.state, delta.residue_l1);
  return true;
}

bool LowerBoundIndex::ApplyIfTighter(IndexDelta&& delta) {
  assert(delta.node < num_nodes_);
  if (delta.residue_l1 >= ResidueL1(delta.node)) {
    return false;
  }
  SetNode(delta.node, delta.topk, std::move(delta.state), delta.residue_l1);
  return true;
}

IndexStats LowerBoundIndex::ComputeStats() const {
  IndexStats stats;
  stats.num_nodes = num_nodes_;
  stats.capacity_k = capacity_k_;
  // hub_store() materializes a cold lazy hub section — intended: stats
  // report the store's real footprint.
  stats.num_hubs = hub_store().num_hubs();
  stats.num_shards = storage_.num_shards();
  stats.shard_nodes = storage_.shard_nodes();
  stats.shard_bytes.reserve(stats.num_shards);
  const StorageResidency residency = storage_.residency();
  stats.resident_shards = residency.resident_shards;
  stats.mmap_bytes = residency.mmap_bytes;
  for (uint32_t s = 0; s < storage_.num_shards(); ++s) {
    // Cold mmap shards have no heap footprint (and reading them here would
    // fault them in): they contribute zero bytes and are skipped.
    if (!storage_.ShardResident(s)) {
      stats.shard_bytes.push_back(0);
      continue;
    }
    const IndexShard& shard = storage_.shard(s);
    const uint64_t topk_bytes =
        (shard.topk_values.capacity() + shard.residue_l1.capacity()) *
        sizeof(double);
    // Per row: the state pointer, and the record it points to. A state
    // shared with other copies counts in each index holding it.
    uint64_t state_bytes = shard.states.capacity() * sizeof(SharedBcaState);
    for (const SharedBcaState& state : shard.states) {
      if (state == nullptr) continue;
      const StoredBcaState view(state.get());
      state_bytes += view.bytes().size();
      ++stats.stored_states;
      stats.state_entries += view.residue().size() + view.retained().size() +
                             view.hub_ink().size();
    }
    stats.topk_bytes += topk_bytes;
    stats.state_bytes += state_bytes;
    stats.shard_bytes.push_back(topk_bytes + state_bytes);
    for (double residue : shard.residue_l1) {
      if (residue == 0.0) ++stats.exact_nodes;
    }
  }
  const HubProximityStore& hubs = hub_store();
  stats.hub_store_bytes = hubs.MemoryBytes();
  stats.hub_entries_stored = hubs.TotalEntries();
  stats.hub_entries_dropped = hubs.DroppedEntries();
  return stats;
}

}  // namespace rtk
