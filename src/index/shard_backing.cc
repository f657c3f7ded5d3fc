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
// (u64 count, count x (u32,f64)) pair lists.
constexpr size_t kPairBytes = sizeof(uint32_t) + sizeof(double);

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

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// ------------------------------------------------------------------------
// ParseShardRecords

Status ParseShardRecords(std::string_view payload, uint32_t num_nodes,
                         uint32_t capacity_k, IndexShard* shard) {
  size_t pos = 0;
  auto read_pod = [&](void* out, size_t len) {
    if (payload.size() - pos < len) return false;
    std::memcpy(out, payload.data() + pos, len);
    pos += len;
    return true;
  };
  auto read_pairs = [&](std::vector<std::pair<uint32_t, double>>* pairs) {
    uint64_t count = 0;
    if (!read_pod(&count, sizeof(count)) || count > num_nodes) return false;
    if (count > (payload.size() - pos) / kPairBytes) return false;
    pairs->resize(count);
    for (auto& [id, v] : *pairs) {
      if (!read_pod(&id, sizeof(id)) || !read_pod(&v, sizeof(v))) {
        return false;
      }
    }
    return true;
  };
  for (uint32_t u = shard->begin_node; u < shard->end_node; ++u) {
    const uint32_t local = u - shard->begin_node;
    double* row =
        shard->topk_values.data() + static_cast<size_t>(local) * capacity_k;
    StoredBcaState st;
    uint32_t iters = 0;
    if (!read_pod(row, static_cast<size_t>(capacity_k) * sizeof(double)) ||
        !read_pod(&shard->residue_l1[local], sizeof(double)) ||
        !read_pod(&iters, sizeof(iters)) || !read_pairs(&st.residue) ||
        !read_pairs(&st.retained) || !read_pairs(&st.hub_ink)) {
      return Status::Corruption("bad BCA state for node " + std::to_string(u));
    }
    st.iterations = iters;
    shard->states[local] = ShareBcaState(std::move(st));
  }
  if (pos != payload.size()) {
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
    if (count > (payload_.size() - p) / kPairBytes) {
      ok_ = false;
      return false;
    }
    p += static_cast<size_t>(count) * kPairBytes;
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
                                 size_t map_len, MmapSourceLayout layout)
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
    const std::string& path, MmapSourceLayout layout) {
  if (layout.offsets.size() != layout.checksums.size() + 1 ||
      layout.shard_nodes == 0) {
    return Status::InvalidArgument("malformed mmap source layout: " + path);
  }
  if (layout.hub_blob_bytes > 0 &&
      (layout.hub_blob_offset > layout.offsets.back() ||
       layout.hub_blob_bytes >
           layout.offsets.back() - layout.hub_blob_offset)) {
    return Status::InvalidArgument("hub blob outside mapped file: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open index for mmap: " + path);
  }
  // Map the whole file (the loader validated offsets.back() == file size):
  // header pages stay untouched after open, shard pages fault on demand.
  const size_t len = static_cast<size_t>(layout.offsets.back());
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }
  return std::shared_ptr<MmapShardSource>(new MmapShardSource(
      path, static_cast<const char*>(map), len, std::move(layout)));
}

Status MmapShardSource::VerifyShard(uint32_t s) const {
  uint8_t v = verified_[s].load(std::memory_order_acquire);
  if (v == 0) {
    // A benign race here hashes the same immutable bytes twice and stores
    // the same verdict.
    if (Fnv1a64(ShardBytes(s)) == layout_.checksums[s]) {
      v = 1;
    } else {
      v = 2;
      RecordError(Status::Corruption("checksum mismatch in shard " +
                                     std::to_string(s) + ": " + path_));
    }
    verified_[s].store(v, std::memory_order_release);
  }
  if (v != 1) {
    return Status::Corruption("checksum mismatch in shard " +
                              std::to_string(s) + ": " + path_);
  }
  return Status::OK();
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
      verified_[s].store(2, std::memory_order_release);
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
  if (layout_.hub_blob_checksum == 0 && layout_.hub_blob_bytes == 0 &&
      layout_.hub_blob_offset == 0) {
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
  const uint64_t num_entries = offsets_.empty() ? 0 : offsets_.back();
  if (blob->size() != num_entries * kPairBytes) {
    status_ = Status::Corruption("hub blob size mismatch: " + source_->path());
    return status_;
  }
  std::vector<std::pair<uint32_t, double>> entries(num_entries);
  const char* p = blob->data();
  for (auto& [id, value] : entries) {
    std::memcpy(&id, p, sizeof(uint32_t));
    std::memcpy(&value, p + sizeof(uint32_t), sizeof(double));
    p += kPairBytes;
  }
  store_ = std::make_unique<const HubProximityStore>(HubProximityStore::FromRaw(
      num_nodes_, std::move(hubs_), std::move(offsets_), std::move(entries),
      rounding_omega_, dropped_entries_));
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
