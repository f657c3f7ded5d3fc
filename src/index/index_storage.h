// IndexStorage: the sharded, copy-on-write backing store of the
// LowerBoundIndex, with a pluggable memory tier per shard.
//
// The per-node index arrays (top-K lower bounds, |r|_1 cache, BCA states)
// are split into S contiguous node shards, each owned by a shared_ptr.
// Copying an IndexStorage copies only the shard slot table — O(S), not
// O(n*K) — and the first write to a shard whose ownership is shared
// replaces it with a private copy (copy-on-write). Publishing a serving
// snapshot therefore costs O(dirty shards): shards untouched by the
// refinement batch are shared between the old and new epoch forever.
//
// A row's BCA state is one immutable record blob (bca/bca_state.h) held by
// shared pointer, so a privatization copies the shard's bound and residue
// arrays plus one pointer per row — never the state records, which are
// most of the index. A write replaces one row's pointer; the state it
// drops stays alive for every other shard copy (and older snapshot) still
// holding it.
//
// Storage tiers (shard_backing.h):
//  * heap  — every shard heap-resident from construction (builders, v1
//            loads, eager v2 and v3 loads). Exactly the historical
//            behavior.
//  * mmap  — constructed over an open MmapShardSource (the mmap'd v2 or
//            v3 index file). Shard slots start EMPTY: an empty slot means
//            "this shard is bit-identical to its file bytes". Reads fault
//            a shard to heap on first dereference (checksum-verified,
//            memoized in the source so all epochs share one copy); the
//            prune scan avoids even that by streaming the raw mapped
//            payload through ScanView(). Writes fault + privatize, so
//            CoW publish semantics are unchanged. ReleaseShard() demotes
//            a clean resident shard back to the map.
//
// Concurrency contract (the same single-writer rule the monolithic arrays
// had, stated per shard):
//  * Any number of threads may READ a storage concurrently — including
//    the lazy fault path: shard() is const and thread-safe, publishing
//    faulted shards through per-slot atomics under a per-storage mutex.
//  * A write (MutableShard and anything built on it: SetNode,
//    ApplyIfTighter), EnsureResident and ReleaseShard require that no
//    other thread is reading or writing the SAME IndexStorage object.
//    Readers of OTHER storages sharing the shards are unaffected:
//    copy-on-write never mutates a shared shard in place.
//  * Copying a storage counts as reading it (the copy ctor takes the
//    source's fault mutex, so cloning a snapshot races safely with
//    readers faulting it).
//  * Exception for builders/loaders: when every shard is unshared (a
//    freshly constructed heap storage), distinct threads may write
//    DISTINCT shards concurrently — shards are independent heap objects.

#ifndef RTK_INDEX_INDEX_STORAGE_H_
#define RTK_INDEX_INDEX_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "bca/bca_state.h"
#include "common/status.h"

namespace rtk {

class MmapShardSource;

/// \brief One contiguous slice of nodes [begin_node, end_node) with its
/// rows of every per-node index array.
struct IndexShard {
  uint32_t begin_node = 0;
  uint32_t end_node = 0;  // exclusive
  /// (end_node - begin_node) * K doubles, row-major, descending per row.
  std::vector<double> topk_values;
  /// Cached |r_u|_1 per node; 0 means the stored bounds are exact.
  std::vector<double> residue_l1;
  /// Resumable BCA state per node, shared with every copy of the shard.
  std::vector<SharedBcaState> states;

  uint32_t num_local_nodes() const { return end_node - begin_node; }

  /// \brief Bytes a copy of this shard copies: the bound and residue
  /// arrays plus one state pointer per row (the states are shared).
  uint64_t CopyBytes() const {
    return (topk_values.size() + residue_l1.size()) * sizeof(double) +
           states.size() * sizeof(decltype(states)::value_type);
  }
};

/// \brief Where a storage's shard payloads live (see file header).
enum class StorageTier {
  kHeap = 0,
  kMmap = 1,
};

/// \brief A prune-scan view of one shard: either heap spans (resident) or
/// the raw mapped payload bytes (cold), never both. status carries the
/// mmap tier's lazy verdict (checksum, then records) — a corrupt shard
/// yields neither, resident or not.
struct ShardScanView {
  Status status;  // OK, or Corruption pinned to this shard
  bool resident = false;
  /// Resident: the shard's bound/residue slices (as ShardLowerBounds /
  /// ShardResidues always returned).
  std::span<const double> bounds;
  std::span<const double> residues;
  /// Cold: the shard's serialized records in the mapping, verified;
  /// decode with ShardPayloadCursor (shard_backing.h).
  std::string_view payload;
};

/// \brief Residency snapshot of a storage (metrics / index-info).
struct StorageResidency {
  StorageTier tier = StorageTier::kHeap;
  uint32_t resident_shards = 0;
  uint32_t total_shards = 0;
  uint64_t mmap_bytes = 0;       // bytes of the backing file mapping
  uint64_t shard_faults = 0;     // materializations since open (source-wide)
  uint64_t shard_evictions = 0;  // demotions since open (source-wide)
};

/// \brief Shard table with copy-on-write cloning. Value-copyable: a copy
/// shares every shard (and the backing source) with its source until one
/// of them writes.
class IndexStorage {
 public:
  /// Nodes per shard when the caller does not choose (a multiple of the
  /// index builder's work granularity; small enough that a publish after a
  /// handful of refinements copies a few hundred KB, large enough that the
  /// shard directory stays negligible even at 10^7 nodes).
  static constexpr uint32_t kDefaultShardNodes = 256;

  /// Creates S = ceil(n / shard_nodes) heap shards, zero-filled bounds,
  /// unit residues, empty states. `shard_nodes` 0 picks kDefaultShardNodes.
  IndexStorage(uint32_t num_nodes, uint32_t capacity_k, uint32_t shard_nodes);

  /// Creates a mmap-tier storage over an open v2 or v3 file: every slot starts
  /// empty (equal to its file bytes), shape taken from the source. O(S).
  explicit IndexStorage(std::shared_ptr<MmapShardSource> source);

  /// Shallow copy: shares every shard and the source; the copy's
  /// cow_copies() and cow_bytes() restart at 0 so a publisher can read
  /// "shards this clone dirtied" off it. Locks the source's fault path
  /// (safe to clone a storage other threads are reading).
  IndexStorage(const IndexStorage& other);
  IndexStorage& operator=(const IndexStorage& other);
  /// Moves require exclusive access to both sides (like writes).
  IndexStorage(IndexStorage&& other) noexcept;
  IndexStorage& operator=(IndexStorage&& other) noexcept;

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t capacity_k() const { return capacity_k_; }
  /// \brief Nodes per shard (every shard but possibly the last).
  uint32_t shard_nodes() const { return shard_nodes_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(slots_.size()); }

  uint32_t ShardOf(uint32_t u) const { return u / shard_nodes_; }

  /// \brief [first, last) node range of shard s (pure arithmetic; valid
  /// whether or not the shard is resident).
  std::pair<uint32_t, uint32_t> NodeRange(uint32_t s) const {
    const uint32_t first = s * shard_nodes_;
    const uint32_t last =
        first + shard_nodes_ < num_nodes_ ? first + shard_nodes_ : num_nodes_;
    return {first, last};
  }

  /// \brief Shard s, faulted to heap on first touch in mmap mode (const
  /// and thread-safe; see the class concurrency contract). If the shard's
  /// file bytes are corrupt this returns a zero-knowledge shard (zero
  /// bounds, unit residues — still valid lower bounds) and the error is
  /// reported by backing_status() and by the ScanView path.
  const IndexShard& shard(uint32_t s) const {
    const IndexShard* v = slots_[s].view.load(std::memory_order_acquire);
    if (v != nullptr) return *v;
    return Fault(s);
  }

  /// \brief Write access to shard s; faults it in first (mmap mode) and
  /// copies it iff its ownership is shared (see the class concurrency
  /// contract; the copy shares every row's BCA state). In mmap mode the
  /// shard is marked dirty in the source: its file bytes are stale from
  /// here on and it is never demoted.
  IndexShard& MutableShard(uint32_t s);

  // ------------------------------------------------------ tier control --

  StorageTier tier() const {
    return source_ == nullptr ? StorageTier::kHeap : StorageTier::kMmap;
  }
  const std::shared_ptr<MmapShardSource>& source() const { return source_; }

  /// \brief True when shard s has a heap materialization in THIS storage
  /// (always true in heap mode).
  bool ShardResident(uint32_t s) const {
    return slots_[s].view.load(std::memory_order_acquire) != nullptr;
  }

  /// \brief The prune scan's tier-polymorphic view of shard s: heap spans
  /// when resident, verified raw payload bytes when cold. Const and
  /// thread-safe; never faults the shard to heap.
  ShardScanView ScanView(uint32_t s) const;

  /// \brief Promotes shard s to heap (no-op when already resident).
  /// Requires write access (the residency manager runs on the publisher's
  /// private clone).
  void EnsureResident(uint32_t s);

  /// \brief Demotes shard s back to the map: clears this storage's slot
  /// (the slot invariant — empty means file-identical — is why this
  /// requires a clean shard) and drops the source's cached copy with a
  /// DONTNEED hint. Other storages holding the shard are unaffected.
  /// Returns false (and does nothing) for heap storages, non-resident or
  /// dirty shards. Requires write access.
  bool ReleaseShard(uint32_t s);

  /// \brief Feeds the residency manager's access counters (no-op in heap
  /// mode). Const and thread-safe: counters live in the shared source.
  void RecordShardTouches(uint32_t s, uint64_t touches) const;

  /// \brief Residency + fault statistics (tier, resident count, mapping
  /// size, source-wide fault/eviction totals).
  StorageResidency residency() const;

  /// \brief First corruption detected by lazy verification on the backing
  /// source (sticky); OK for heap storages.
  Status backing_status() const;

  /// \brief Shards copied by copy-on-write since this storage was
  /// constructed/copied/moved-into — i.e. the number of shards this
  /// particular view has dirtied. (In mmap mode a first write to a cold
  /// shard materializes and privatizes it: that counts, same meaning.)
  uint64_t cow_copies() const { return cow_copies_; }

  /// \brief Bytes those copies copied (IndexShard::CopyBytes each), over
  /// the same window as cow_copies().
  uint64_t cow_bytes() const { return cow_bytes_; }

 private:
  /// One shard slot. `owned` keeps the materialization alive; `view` is
  /// its atomically published mirror (readers load `view` lock-free, the
  /// fault path writes `owned` under fault_mu_ then releases `view`).
  /// Invariant: view == owned.get() (both null for a cold mmap shard).
  struct Slot {
    Slot() = default;
    Slot(const Slot& other) : owned(other.owned), view(owned.get()) {}
    Slot(Slot&& other) noexcept
        : owned(std::move(other.owned)), view(owned.get()) {}
    Slot& operator=(const Slot& other) {
      owned = other.owned;
      view.store(owned.get(), std::memory_order_release);
      return *this;
    }
    Slot& operator=(Slot&& other) noexcept {
      owned = std::move(other.owned);
      view.store(owned.get(), std::memory_order_release);
      return *this;
    }

    std::shared_ptr<IndexShard> owned;
    std::atomic<const IndexShard*> view{nullptr};
  };

  const IndexShard& Fault(uint32_t s) const;

  uint32_t num_nodes_;
  uint32_t capacity_k_;
  uint32_t shard_nodes_;
  mutable std::vector<Slot> slots_;
  /// Serializes concurrent faults into THIS storage's slots (and excludes
  /// them against concurrent clones of this storage).
  mutable std::mutex fault_mu_;
  std::shared_ptr<MmapShardSource> source_;  // null in heap mode
  uint64_t cow_copies_ = 0;
  uint64_t cow_bytes_ = 0;
};

}  // namespace rtk

#endif  // RTK_INDEX_INDEX_STORAGE_H_
