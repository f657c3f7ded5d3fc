// Shard backing tiers: where an IndexShard's bytes live.
//
// A v2 or v3 index file (index_io.h) is shard-addressable: a directory maps
// every storage shard to a contiguous payload region with its own FNV-1a
// checksum. That makes the file itself a valid *storage tier*: instead of
// eagerly parsing every shard into heap vectors at load time, the whole
// file is mmap'd once and each shard's bytes are faulted in on demand —
// LoadIndex in mmap mode is O(directory) (open, map, validate the header),
// and an index larger than RAM serves at page-cache residency.
//
//   heap tier   every shard materialized as an IndexShard (the classic
//               always-resident layout; what LoadIndex did before).
//   mmap tier   shards start as raw mapped file regions. The prune scan
//               streams them in place through ShardPayloadCursor (no heap
//               copy); refinement / write-back / hot-shard promotion
//               materializes a shard on first touch via MmapShardSource.
//
// Checksums are verified LAZILY, once per shard, on first touch (first
// cold scan or first materialization) — a flipped bit is pinned to the
// shard it corrupted and surfaces as Status::Corruption from the scan,
// exactly like the eager loader, just later.
//
// MmapShardSource is shared (shared_ptr) by every IndexStorage in a
// snapshot chain, so the materialization cache, the dirty set, the lazy
// verification results and the per-shard access counters are common to
// all epochs over the same file.

#ifndef RTK_INDEX_SHARD_BACKING_H_
#define RTK_INDEX_SHARD_BACKING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bca/hub_proximity_store.h"
#include "common/result.h"
#include "index/index_storage.h"

namespace rtk {

/// \brief FNV-1a's offset basis: the hash of zero bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xCBF29CE484222325ull;

/// \brief FNV-1a over a byte range — THE checksum of the v2 and v3 index
/// formats. `seed` resumes a running hash, so Fnv1a64(b, Fnv1a64(a)) is
/// the hash of a then b: the streaming header checksum and the one-shot
/// payload checksums are this one loop. Shared by the writer, the header
/// parse, the eager loader and the lazy mmap verification, so they can
/// never disagree.
uint64_t Fnv1a64(std::string_view bytes, uint64_t seed = kFnv1a64Basis);

/// \brief An index file's layout, as the header parse (index_io.cc) reads
/// it from a header whose checksum verified: shape, hub section and shard
/// directory resolved to absolute file positions. `rtk_cli index-info`
/// prints it, and the mmap tier addresses its mapping with it.
struct IndexFileInfo {
  uint32_t format_version = 0;
  uint32_t num_nodes = 0;
  uint32_t capacity_k = 0;
  uint32_t num_hubs = 0;
  uint64_t hub_entries = 0;
  uint32_t shard_nodes = 0;  // 0 for v1 files
  uint32_t num_shards = 0;   // 0 for v1 files
  uint64_t file_bytes = 0;
  /// v2+ only: shard s's payload is [shard_offsets[s], shard_offsets[s] +
  /// shard_bytes[s]) with FNV-1a checksum shard_checksums[s]. The three
  /// vectors have num_shards entries and the payloads tile the file up to
  /// file_bytes (validated). Empty for v1 files.
  std::vector<uint64_t> shard_offsets;
  std::vector<uint64_t> shard_bytes;
  std::vector<uint64_t> shard_checksums;
  /// v3 only: the packed hub entries, a section of their own between the
  /// header checksum and the first shard payload, with their own checksum
  /// (so an mmap open never reads them). hub_blob_offset is the first
  /// byte after the header checksum.
  uint64_t hub_blob_offset = 0;
  uint64_t hub_blob_bytes = 0;
  uint64_t hub_blob_checksum = 0;
};

/// \brief Parses the serialized node records of `shard`'s nodes (f64
/// topk[K], f64 residue_l1, then the BCA state record of bca_state.h) from
/// the front of `*records` into `shard`, whose node range and vectors must
/// already be sized for the shard, and advances `*records` past them. Each
/// state record goes through ReadBcaStateRecord, so ids are range-checked
/// and the bytes are copied once. Shared by every eager loader (v1's
/// monolithic record stream included) and lazy materialization, so all
/// tiers produce bit-identical shards from the same bytes.
Status ParseNodeRecords(std::string_view* records, uint32_t num_nodes,
                        uint32_t capacity_k, IndexShard* shard);

/// \brief ParseNodeRecords over one whole v2/v3 shard payload: Corruption
/// if bytes remain after the shard's last record.
Status ParseShardRecords(std::string_view payload, uint32_t num_nodes,
                         uint32_t capacity_k, IndexShard* shard);

/// \brief Checks one shard payload in place, copying nothing: exactly
/// `num_local_nodes` complete records, each state record valid
/// (CheckBcaStateRecord). The mmap tier's lazy verification runs it after
/// the checksum, so a cold scan rejects what a fault would reject.
Status CheckShardRecords(std::string_view payload, uint32_t num_nodes,
                         uint32_t capacity_k, uint32_t num_local_nodes);

/// \brief Streaming decoder over one shard's raw serialized records.
///
/// The prune scan needs only two fields per node — the k-th stored bound
/// (the cutoff) and |r|_1 — plus the full top-K row for the occasional
/// candidate's upper-bound test. All three sit at fixed offsets inside a
/// record; only the three BCA pair lists are variable-length, and those
/// are skipped by their counts. A cold scan therefore reads exactly the
/// bytes it classifies, directly from the mapped file, with no heap
/// materialization. Reads are memcpy'd out (the mapped payload has no
/// alignment guarantees).
class ShardPayloadCursor {
 public:
  ShardPayloadCursor(std::string_view payload, uint32_t capacity_k)
      : payload_(payload), capacity_k_(capacity_k) {}

  /// Advances to the next node record; false when the payload is
  /// exhausted or malformed (check ok() to distinguish).
  bool Next();

  /// False iff a structural violation (truncated record, pair count
  /// running past the payload) was hit.
  bool ok() const { return ok_; }

  /// True when every byte has been consumed by complete records.
  bool exhausted() const { return ok_ && pos_ == payload_.size(); }

  /// \brief topk[k-1] of the current record (k is 1-based).
  double Bound(uint32_t k) const {
    return ReadDouble(record_ + static_cast<size_t>(k - 1) * sizeof(double));
  }

  /// \brief |r|_1 of the current record.
  double Residue() const {
    return ReadDouble(record_ +
                      static_cast<size_t>(capacity_k_) * sizeof(double));
  }

  /// \brief Copies the current record's full K bounds into `out`.
  void CopyRow(double* out) const;

 private:
  double ReadDouble(size_t at) const;

  std::string_view payload_;
  uint32_t capacity_k_;
  size_t pos_ = 0;     // first byte after the last complete record
  size_t record_ = 0;  // first byte of the current record
  bool have_record_ = false;
  bool ok_ = true;
};

/// \brief An open, mmap'd v2 or v3 index file: the cold tier behind a
/// mmap-backed IndexStorage.
///
/// Owns the mapping plus everything shared across the snapshot chain:
/// memoized lazy checksum verdicts, the materialization cache (so
/// concurrent faulting threads and successive epochs share one heap copy
/// per shard), the dirty set (shards some epoch has written — their file
/// bytes are stale and must never be re-served), per-epoch access
/// counters fed by the prune scan, and fault/eviction statistics.
///
/// Thread-safety: every method is safe to call concurrently. The mapped
/// bytes are immutable (PROT_READ, MAP_PRIVATE, never written).
class MmapShardSource {
 public:
  /// Maps `path` read-only. The layout must come from the header parse
  /// (ReadIndexFileInfo's); payload checksums are NOT verified here — that
  /// is the lazy, per-shard first-touch check. InvalidArgument for a v1
  /// layout, which has no shard directory to address the mapping with.
  static Result<std::shared_ptr<MmapShardSource>> Open(
      const std::string& path, IndexFileInfo layout);

  ~MmapShardSource();
  MmapShardSource(const MmapShardSource&) = delete;
  MmapShardSource& operator=(const MmapShardSource&) = delete;

  uint32_t num_shards() const { return layout_.num_shards; }
  uint32_t num_nodes() const { return layout_.num_nodes; }
  uint32_t capacity_k() const { return layout_.capacity_k; }
  uint32_t shard_nodes() const { return layout_.shard_nodes; }
  uint64_t mapped_bytes() const { return map_len_; }
  const std::string& path() const { return path_; }

  /// \brief Shard s's raw payload bytes in the mapping (possibly not yet
  /// checksum-verified; pair with VerifyShard).
  std::string_view ShardBytes(uint32_t s) const {
    return {map_ + layout_.shard_offsets[s],
            static_cast<size_t>(layout_.shard_bytes[s])};
  }

  /// \brief Verifies shard s's checksum and then its records
  /// (CheckShardRecords), memoized: the passes run at most once per shard
  /// per process (twice under a benign race). A failure is sticky and pins
  /// the Corruption to this shard.
  Status VerifyShard(uint32_t s) const;

  /// \brief Heap-materializes shard s (verify + parse), memoized so every
  /// faulting storage shares one copy. On corruption records the sticky
  /// error and returns a zero-knowledge shard (zero bounds, unit residue)
  /// — still valid lower bounds, so reference-returning accessors stay
  /// safe; the scan path reports the Corruption through VerifyShard.
  std::shared_ptr<IndexShard> Materialize(uint32_t s) const;

  /// \brief Drops shard s's cached materialization (if any) and advises
  /// the kernel its pages are not needed. Safe concurrently with
  /// Materialize; storages holding the old shared_ptr are unaffected.
  void Evict(uint32_t s) const;

  /// \brief Marks shard s as diverged from the file (a storage privatized
  /// and wrote it). Dirty shards are never demoted by the residency
  /// manager: clearing a written slot would resurrect stale file bytes.
  void MarkDirty(uint32_t s) const {
    dirty_[s].store(1, std::memory_order_release);
  }
  bool dirty(uint32_t s) const {
    return dirty_[s].load(std::memory_order_acquire) != 0;
  }

  /// \brief Per-epoch access counters (prune-scan deep touches), fed by
  /// PruneStage and consumed (exchange-to-zero) by the residency manager.
  void RecordTouches(uint32_t s, uint64_t n) const {
    touches_[s].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t TakeEpochTouches(uint32_t s) const {
    return touches_[s].exchange(0, std::memory_order_relaxed);
  }

  uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// \brief First corruption seen by lazy verification (sticky); OK while
  /// every touched shard verified.
  Status first_error() const;

  /// \brief The mapped hub-entries blob (v3 files), checksum-verified on
  /// first call (memoized; a mismatch is sticky like a shard's).
  /// InvalidArgument when the file has no lazy hub section (v2).
  Result<std::string_view> HubBlob() const;

 private:
  MmapShardSource(std::string path, const char* map, size_t map_len,
                  IndexFileInfo layout);

  void RecordError(const Status& status) const;
  std::mutex& StripeFor(uint32_t s) const {
    return stripes_[s % stripes_.size()];
  }

  std::string path_;
  const char* map_ = nullptr;
  size_t map_len_ = 0;
  IndexFileInfo layout_;

  /// 0 = unverified, 1 = ok, 2 = checksum mismatch, 3 = malformed records.
  /// Relaxed double-computation is benign: both racers check the same
  /// immutable bytes.
  std::unique_ptr<std::atomic<uint8_t>[]> verified_;
  mutable std::atomic<uint8_t> hub_verified_{0};  // same 0/1/2 protocol
  std::unique_ptr<std::atomic<uint8_t>[]> dirty_;
  std::unique_ptr<std::atomic<uint64_t>[]> touches_;

  /// Materialization cache, lock-striped so distinct shards parse
  /// concurrently while double-parses of the same shard are impossible.
  mutable std::array<std::mutex, 16> stripes_;
  mutable std::vector<std::shared_ptr<IndexShard>> cache_;

  mutable std::atomic<uint64_t> faults_{0};
  mutable std::atomic<uint64_t> evictions_{0};

  mutable std::mutex error_mu_;
  mutable Status first_error_;
};

/// \brief The hub store of a v3 file opened in mmap mode: cold until first
/// use. The hub META (hub ids, offsets, omega) is tiny and parsed eagerly
/// from the checksummed header; the entries blob — typically the second-
/// largest section of the file — stays in the map until the first query
/// needs hub proximities, then parses once (checksum-verified) and is
/// memoized for every index sharing this store (the whole snapshot chain).
///
/// Failure model mirrors shards: Get() surfaces Corruption (sticky);
/// GetOrEmpty() serves reference-returning callers that cannot fail by
/// poisoning to an EMPTY store (valid — hubs only tighten bounds), while
/// query stages call LowerBoundIndex::EnsureHubStore() so the real status
/// reaches the caller instead of silently weaker results.
///
/// Thread-safe; materialization runs at most once (mutex), the
/// materialized fast path is one acquire load.
class LazyHubStore {
 public:
  LazyHubStore(std::shared_ptr<MmapShardSource> source, uint32_t num_nodes,
               std::vector<uint32_t> hubs, std::vector<uint64_t> offsets,
               double rounding_omega, uint64_t dropped_entries)
      : source_(std::move(source)),
        num_nodes_(num_nodes),
        hubs_(std::move(hubs)),
        offsets_(std::move(offsets)),
        rounding_omega_(rounding_omega),
        dropped_entries_(dropped_entries) {}

  LazyHubStore(const LazyHubStore&) = delete;
  LazyHubStore& operator=(const LazyHubStore&) = delete;

  /// Parses + verifies the blob on first call; memoized. The pointer stays
  /// valid for this object's lifetime.
  Result<const HubProximityStore*> Get() const;

  /// The materialized store, or an empty poison store after corruption.
  const HubProximityStore& GetOrEmpty() const;

  /// Sticky materialization status (OK before first Get).
  Status status() const;

  bool materialized() const {
    return view_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  std::shared_ptr<MmapShardSource> source_;
  uint32_t num_nodes_;
  // Consumed (moved into the store) by materialization.
  mutable std::vector<uint32_t> hubs_;
  mutable std::vector<uint64_t> offsets_;
  double rounding_omega_;
  uint64_t dropped_entries_;

  mutable std::mutex mu_;
  mutable std::unique_ptr<const HubProximityStore> store_;
  mutable std::unique_ptr<const HubProximityStore> poison_;
  mutable Status status_;
  mutable std::atomic<const HubProximityStore*> view_{nullptr};
};

/// \brief Promote/demote decision of one residency epoch.
struct ResidencyPlan {
  std::vector<uint32_t> promote;
  std::vector<uint32_t> demote;
};

/// \brief Epoch-driven hot/cold placement policy over a mmap-backed
/// storage. Fed by the prune scan's per-shard deep-touch counters
/// (candidates that needed a full row read): a shard touched at least
/// `promote_touches` times since the last epoch is promoted to heap; a
/// clean resident shard idle for `demote_idle_epochs` consecutive epochs
/// is demoted back to the map. Either knob 0 disables that direction.
///
/// Single-threaded by design: Advance runs on the serving engine's
/// publish path (one writer), against the publisher's still-private clone.
class ShardResidencyManager {
 public:
  ShardResidencyManager(uint64_t promote_touches, uint32_t demote_idle_epochs,
                        uint32_t num_shards)
      : promote_touches_(promote_touches),
        demote_idle_epochs_(demote_idle_epochs),
        idle_epochs_(num_shards, 0) {}

  /// Consumes the source's epoch counters and plans against `storage`'s
  /// current residency. The caller applies the plan to its private clone
  /// (EnsureResident / ReleaseShard).
  ResidencyPlan Advance(const IndexStorage& storage);

 private:
  uint64_t promote_touches_;
  uint32_t demote_idle_epochs_;
  std::vector<uint32_t> idle_epochs_;
};

}  // namespace rtk

#endif  // RTK_INDEX_SHARD_BACKING_H_
