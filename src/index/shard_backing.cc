#include "index/shard_backing.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace rtk {

namespace {

// Record geometry of one serialized node (index_io.h format): the fixed
// prefix is f64 topk[K], f64 residue_l1, u32 iterations; then three
// (u64 count, count x (u32,f64)) pair lists (bca/bca_state.h).

size_t FixedPrefixBytes(uint32_t capacity_k) {
  return (static_cast<size_t>(capacity_k) + 1) * sizeof(double) +
         sizeof(uint32_t);
}

// Page-aligns [addr, addr+len) outward for madvise (hints only: advising a
// few bytes of a neighboring shard's edge page is harmless).
void AdviseRegion(const char* addr, size_t len, int advice) {
  if (len == 0) return;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return;
  const uintptr_t mask = static_cast<uintptr_t>(page) - 1;
  const uintptr_t lo = reinterpret_cast<uintptr_t>(addr) & ~mask;
  const uintptr_t hi =
      (reinterpret_cast<uintptr_t>(addr) + len + mask) & ~mask;
  ::madvise(reinterpret_cast<void*>(lo), hi - lo, advice);
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// ------------------------------------------------------------------------
// ParseShardRecords

Status ParseNodeRecords(std::string_view* records, uint32_t num_nodes,
                        uint32_t capacity_k, IndexShard* shard) {
  const size_t row_bytes = static_cast<size_t>(capacity_k) * sizeof(double);
  for (uint32_t u = shard->begin_node; u < shard->end_node; ++u) {
    const uint32_t local = u - shard->begin_node;
    if (records->size() < row_bytes + sizeof(double)) {
      return Status::Corruption("truncated record for node " +
                                std::to_string(u));
    }
    std::memcpy(shard->topk_values.data() + local * size_t{capacity_k},
                records->data(), row_bytes);
    std::memcpy(&shard->residue_l1[local], records->data() + row_bytes,
                sizeof(double));
    records->remove_prefix(row_bytes + sizeof(double));
    Status st = ReadBcaStateRecord(records, num_nodes, &shard->states[local]);
    if (!st.ok()) {
      return Status::Corruption("bad BCA state for node " + std::to_string(u) +
                                ": " + st.message());
    }
  }
  return Status::OK();
}

Status CheckShardRecords(std::string_view payload, uint32_t num_nodes,
                         uint32_t capacity_k, uint32_t num_local_nodes) {
  const size_t bounds_bytes =
      (static_cast<size_t>(capacity_k) + 1) * sizeof(double);
  for (uint32_t local = 0; local < num_local_nodes; ++local) {
    size_t length = 0;
    if (payload.size() < bounds_bytes) {
      return Status::Corruption("truncated record");
    }
    payload.remove_prefix(bounds_bytes);
    RTK_RETURN_NOT_OK(CheckBcaStateRecord(payload, num_nodes, &length));
    payload.remove_prefix(length);
  }
  if (!payload.empty()) return Status::Corruption("trailing bytes");
  return Status::OK();
}

Status ParseShardRecords(std::string_view payload, uint32_t num_nodes,
                         uint32_t capacity_k, IndexShard* shard) {
  RTK_RETURN_NOT_OK(ParseNodeRecords(&payload, num_nodes, capacity_k, shard));
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes in shard of node " +
                              std::to_string(shard->begin_node));
  }
  return Status::OK();
}

// ------------------------------------------------------------------------
// ShardPayloadCursor

bool ShardPayloadCursor::Next() {
  have_record_ = false;
  if (!ok_ || pos_ >= payload_.size()) return false;
  const size_t fixed = FixedPrefixBytes(capacity_k_);
  if (payload_.size() - pos_ < fixed) {
    ok_ = false;
    return false;
  }
  record_ = pos_;
  size_t p = pos_ + fixed;
  for (int list = 0; list < 3; ++list) {
    uint64_t count = 0;
    if (payload_.size() - p < sizeof(count)) {
      ok_ = false;
      return false;
    }
    std::memcpy(&count, payload_.data() + p, sizeof(count));
    p += sizeof(count);
    if (count > (payload_.size() - p) / kBcaEntryBytes) {
      ok_ = false;
      return false;
    }
    p += static_cast<size_t>(count) * kBcaEntryBytes;
  }
  pos_ = p;
  have_record_ = true;
  return true;
}

double ShardPayloadCursor::ReadDouble(size_t at) const {
  double v;
  std::memcpy(&v, payload_.data() + at, sizeof(v));
  return v;
}

void ShardPayloadCursor::CopyRow(double* out) const {
  std::memcpy(out, payload_.data() + record_,
              static_cast<size_t>(capacity_k_) * sizeof(double));
}

// ------------------------------------------------------------------------
// MmapShardSource

MmapShardSource::MmapShardSource(std::string path, const char* map,
                                 size_t map_len, IndexFileInfo layout)
    : path_(std::move(path)),
      map_(map),
      map_len_(map_len),
      layout_(std::move(layout)) {
  const uint32_t shards = num_shards();
  verified_ = std::make_unique<std::atomic<uint8_t>[]>(shards);
  dirty_ = std::make_unique<std::atomic<uint8_t>[]>(shards);
  touches_ = std::make_unique<std::atomic<uint64_t>[]>(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    verified_[s].store(0, std::memory_order_relaxed);
    dirty_[s].store(0, std::memory_order_relaxed);
    touches_[s].store(0, std::memory_order_relaxed);
  }
  cache_.resize(shards);
}

MmapShardSource::~MmapShardSource() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_len_);
  }
}

Result<std::shared_ptr<MmapShardSource>> MmapShardSource::Open(
    const std::string& path, IndexFileInfo layout) {
  if (layout.format_version < 2) {
    return Status::InvalidArgument(
        "mmap storage tier requires a sharded (v2+) index file: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open index for mmap: " + path);
  }
  // Map the whole file (the header parse tiled it with the hub blob and
  // the shard payloads): header pages stay untouched after open, shard
  // pages fault on demand.
  const size_t len = static_cast<size_t>(layout.file_bytes);
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }
  return std::shared_ptr<MmapShardSource>(new MmapShardSource(
      path, static_cast<const char*>(map), len, std::move(layout)));
}

Status MmapShardSource::VerifyShard(uint32_t s) const {
  const auto failure = [&](uint8_t verdict) {
    return Status::Corruption(
        (verdict == 2 ? "checksum mismatch in shard " : "bad records in shard ") +
        std::to_string(s) + ": " + path_);
  };
  uint8_t v = verified_[s].load(std::memory_order_acquire);
  if (v == 0) {
    // A benign race here checks the same immutable bytes twice and stores
    // the same verdict.
    const std::string_view bytes = ShardBytes(s);
    const uint32_t first = s * shard_nodes();
    if (Fnv1a64(bytes) != layout_.shard_checksums[s]) {
      v = 2;
    } else if (!CheckShardRecords(bytes, num_nodes(), capacity_k(),
                                  std::min(num_nodes() - first,
                                           shard_nodes()))
                    .ok()) {
      v = 3;
    } else {
      v = 1;
    }
    if (v != 1) RecordError(failure(v));
    verified_[s].store(v, std::memory_order_release);
  }
  return v == 1 ? Status::OK() : failure(v);
}

std::shared_ptr<IndexShard> MmapShardSource::Materialize(uint32_t s) const {
  std::lock_guard<std::mutex> lock(StripeFor(s));
  if (cache_[s] != nullptr) return cache_[s];
  faults_.fetch_add(1, std::memory_order_relaxed);

  auto shard = std::make_shared<IndexShard>();
  shard->begin_node = s * shard_nodes();
  shard->end_node =
      std::min(num_nodes(), shard->begin_node + shard_nodes());
  const uint32_t local = shard->num_local_nodes();
  shard->topk_values.assign(static_cast<size_t>(local) * capacity_k(), 0.0);
  shard->residue_l1.assign(local, 1.0);
  shard->states.assign(local, nullptr);

  Status st = VerifyShard(s);
  if (st.ok()) {
    const std::string_view bytes = ShardBytes(s);
    AdviseRegion(bytes.data(), bytes.size(), MADV_WILLNEED);
    st = ParseShardRecords(bytes, num_nodes(), capacity_k(), shard.get());
    if (!st.ok()) {
      verified_[s].store(3, std::memory_order_release);
      RecordError(st);
      // Reset to the zero-knowledge shard: zero bounds with unit residues
      // are valid (maximally loose) lower bounds, so reference-returning
      // readers stay safe; the scan path reports the Corruption.
      std::fill(shard->topk_values.begin(), shard->topk_values.end(), 0.0);
      std::fill(shard->residue_l1.begin(), shard->residue_l1.end(), 1.0);
      shard->states.assign(local, nullptr);
    }
  }
  cache_[s] = shard;
  return shard;
}

void MmapShardSource::Evict(uint32_t s) const {
  {
    std::lock_guard<std::mutex> lock(StripeFor(s));
    cache_[s].reset();
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  const std::string_view bytes = ShardBytes(s);
  AdviseRegion(bytes.data(), bytes.size(), MADV_DONTNEED);
}

Status MmapShardSource::first_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

void MmapShardSource::RecordError(const Status& status) const {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = status;
}

Result<std::string_view> MmapShardSource::HubBlob() const {
  if (layout_.format_version != 3) {
    return Status::InvalidArgument("index file has no lazy hub section: " +
                                   path_);
  }
  const std::string_view bytes{map_ + layout_.hub_blob_offset,
                               static_cast<size_t>(layout_.hub_blob_bytes)};
  uint8_t v = hub_verified_.load(std::memory_order_acquire);
  if (v == 0) {
    // Benign race: both racers hash the same immutable bytes.
    if (Fnv1a64(bytes) == layout_.hub_blob_checksum) {
      v = 1;
    } else {
      v = 2;
      RecordError(
          Status::Corruption("checksum mismatch in hub store: " + path_));
    }
    hub_verified_.store(v, std::memory_order_release);
  }
  if (v != 1) {
    return Status::Corruption("checksum mismatch in hub store: " + path_);
  }
  return bytes;
}

// ------------------------------------------------------------------------
// LazyHubStore

Result<const HubProximityStore*> LazyHubStore::Get() const {
  const HubProximityStore* fast = view_.load(std::memory_order_acquire);
  if (fast != nullptr) return fast;
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) return store_.get();
  if (!status_.ok()) return status_;
  Result<std::string_view> blob = source_->HubBlob();
  if (!blob.ok()) {
    status_ = blob.status();
    return status_;
  }
  Result<HubProximityStore> store = HubProximityStore::FromRaw(
      num_nodes_, std::move(hubs_), std::move(offsets_), *blob,
      rounding_omega_, dropped_entries_);
  if (!store.ok()) {
    status_ = Status::Corruption(store.status().message() + ": " +
                                 source_->path());
    return status_;
  }
  store_ = std::make_unique<const HubProximityStore>(std::move(*store));
  view_.store(store_.get(), std::memory_order_release);
  return store_.get();
}

const HubProximityStore& LazyHubStore::GetOrEmpty() const {
  const HubProximityStore* fast = view_.load(std::memory_order_acquire);
  if (fast != nullptr) return *fast;
  Result<const HubProximityStore*> r = Get();
  if (r.ok()) return **r;
  std::lock_guard<std::mutex> lock(mu_);
  if (poison_ == nullptr) {
    poison_ = std::make_unique<const HubProximityStore>(
        HubProximityStore::Empty(num_nodes_));
  }
  return *poison_;
}

Status LazyHubStore::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

// ------------------------------------------------------------------------
// ShardResidencyManager

ResidencyPlan ShardResidencyManager::Advance(const IndexStorage& storage) {
  ResidencyPlan plan;
  const MmapShardSource* src = storage.source().get();
  if (src == nullptr) return plan;
  const uint32_t num_shards = storage.num_shards();
  for (uint32_t s = 0; s < num_shards && s < idle_epochs_.size(); ++s) {
    const uint64_t touches = src->TakeEpochTouches(s);
    if (touches > 0) {
      idle_epochs_[s] = 0;
    } else if (idle_epochs_[s] != UINT32_MAX) {
      ++idle_epochs_[s];
    }
    if (!storage.ShardResident(s)) {
      if (promote_touches_ > 0 && touches >= promote_touches_) {
        plan.promote.push_back(s);
      }
    } else if (demote_idle_epochs_ > 0 &&
               idle_epochs_[s] >= demote_idle_epochs_ && !src->dirty(s)) {
      plan.demote.push_back(s);
    }
  }
  return plan;
}

}  // namespace rtk
