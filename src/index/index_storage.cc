#include "index/index_storage.h"

#include <algorithm>

#include "index/shard_backing.h"

namespace rtk {

IndexStorage::IndexStorage(uint32_t num_nodes, uint32_t capacity_k,
                           uint32_t shard_nodes)
    : num_nodes_(num_nodes),
      capacity_k_(capacity_k),
      shard_nodes_(shard_nodes == 0 ? kDefaultShardNodes : shard_nodes) {
  const uint32_t num_shards =
      num_nodes == 0 ? 0 : (num_nodes + shard_nodes_ - 1) / shard_nodes_;
  slots_.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_shared<IndexShard>();
    shard->begin_node = s * shard_nodes_;
    shard->end_node = std::min(num_nodes, shard->begin_node + shard_nodes_);
    const uint32_t local = shard->num_local_nodes();
    shard->topk_values.assign(static_cast<size_t>(local) * capacity_k, 0.0);
    shard->residue_l1.assign(local, 1.0);
    shard->states.resize(local);
    slots_[s].view.store(shard.get(), std::memory_order_relaxed);
    slots_[s].owned = std::move(shard);
  }
}

IndexStorage::IndexStorage(std::shared_ptr<MmapShardSource> source)
    : num_nodes_(source->num_nodes()),
      capacity_k_(source->capacity_k()),
      shard_nodes_(source->shard_nodes()),
      slots_(source->num_shards()),
      source_(std::move(source)) {}

IndexStorage::IndexStorage(const IndexStorage& other)
    : num_nodes_(other.num_nodes_),
      capacity_k_(other.capacity_k_),
      shard_nodes_(other.shard_nodes_),
      source_(other.source_) {
  std::lock_guard<std::mutex> lock(other.fault_mu_);
  slots_ = other.slots_;
}

IndexStorage& IndexStorage::operator=(const IndexStorage& other) {
  if (this == &other) return *this;
  num_nodes_ = other.num_nodes_;
  capacity_k_ = other.capacity_k_;
  shard_nodes_ = other.shard_nodes_;
  source_ = other.source_;
  cow_copies_ = 0;
  cow_bytes_ = 0;
  std::lock_guard<std::mutex> lock(other.fault_mu_);
  slots_ = other.slots_;
  return *this;
}

IndexStorage::IndexStorage(IndexStorage&& other) noexcept
    : num_nodes_(other.num_nodes_),
      capacity_k_(other.capacity_k_),
      shard_nodes_(other.shard_nodes_),
      slots_(std::move(other.slots_)),
      source_(std::move(other.source_)),
      cow_copies_(other.cow_copies_),
      cow_bytes_(other.cow_bytes_) {}

IndexStorage& IndexStorage::operator=(IndexStorage&& other) noexcept {
  if (this == &other) return *this;
  num_nodes_ = other.num_nodes_;
  capacity_k_ = other.capacity_k_;
  shard_nodes_ = other.shard_nodes_;
  slots_ = std::move(other.slots_);
  source_ = std::move(other.source_);
  cow_copies_ = other.cow_copies_;
  cow_bytes_ = other.cow_bytes_;
  return *this;
}

const IndexShard& IndexStorage::Fault(uint32_t s) const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  Slot& slot = slots_[s];
  // Re-check under the lock: another reader may have faulted it first.
  const IndexShard* v = slot.view.load(std::memory_order_relaxed);
  if (v != nullptr) return *v;
  slot.owned = source_->Materialize(s);
  slot.view.store(slot.owned.get(), std::memory_order_release);
  return *slot.owned;
}

IndexShard& IndexStorage::MutableShard(uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.owned == nullptr) {
    // Cold mmap shard: materialize (the source's cached copy — shared, so
    // the CoW branch below always privatizes before the caller writes).
    slot.owned = source_->Materialize(s);
  }
  if (source_ != nullptr) source_->MarkDirty(s);
  if (slot.owned.use_count() > 1) {
    slot.owned = std::make_shared<IndexShard>(*slot.owned);
    ++cow_copies_;
    cow_bytes_ += slot.owned->CopyBytes();
  }
  slot.view.store(slot.owned.get(), std::memory_order_release);
  return *slot.owned;
}

ShardScanView IndexStorage::ScanView(uint32_t s) const {
  ShardScanView view;
  // The lazy verdict first (memoized; a load once the shard is verified):
  // a shard whose file bytes failed verification serves nothing, not even
  // the zero-knowledge stand-in a fault left resident.
  if (source_ != nullptr) {
    view.status = source_->VerifyShard(s);
    if (!view.status.ok()) return view;
  }
  const IndexShard* v = slots_[s].view.load(std::memory_order_acquire);
  if (v != nullptr) {
    view.resident = true;
    view.bounds = v->topk_values;
    view.residues = v->residue_l1;
    return view;
  }
  view.payload = source_->ShardBytes(s);
  return view;
}

void IndexStorage::EnsureResident(uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.owned != nullptr) return;
  slot.owned = source_->Materialize(s);
  slot.view.store(slot.owned.get(), std::memory_order_release);
}

bool IndexStorage::ReleaseShard(uint32_t s) {
  if (source_ == nullptr) return false;
  Slot& slot = slots_[s];
  if (slot.owned == nullptr || source_->dirty(s)) return false;
  slot.view.store(nullptr, std::memory_order_release);
  slot.owned.reset();
  source_->Evict(s);
  return true;
}

void IndexStorage::RecordShardTouches(uint32_t s, uint64_t touches) const {
  if (source_ != nullptr && touches > 0) source_->RecordTouches(s, touches);
}

StorageResidency IndexStorage::residency() const {
  StorageResidency r;
  r.tier = tier();
  r.total_shards = num_shards();
  for (const Slot& slot : slots_) {
    if (slot.view.load(std::memory_order_acquire) != nullptr) {
      ++r.resident_shards;
    }
  }
  if (source_ != nullptr) {
    r.mmap_bytes = source_->mapped_bytes();
    r.shard_faults = source_->faults();
    r.shard_evictions = source_->evictions();
  }
  return r;
}

Status IndexStorage::backing_status() const {
  return source_ == nullptr ? Status::OK() : source_->first_error();
}

}  // namespace rtk
