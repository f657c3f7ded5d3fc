// LowerBoundIndex: the paper's graph index I = (P_hat, R, W, S, P_H)
// (Section 4.1, Algorithm 1).
//
// For every node u it stores the K largest entries of the partially-run BCA
// approximation p^t_u — guaranteed lower bounds of the true proximities
// (Propositions 1-2) — together with the BCA state (residue r_u, retained
// w_u, hub ink s_u) so the online query can resume refinement exactly where
// indexing stopped, plus the shared rounded hub matrix P_H.
//
// The index is mutable by design: query-time refinement writes back
// (Section 4.2.3), making bounds progressively tighter for future queries.
//
// Storage is sharded and copy-on-write (index_storage.h): the per-node
// arrays live in S contiguous node shards behind shared pointers. Copying
// a LowerBoundIndex is therefore O(S) and shares every shard with the
// source; a write (SetNode / ApplyIfTighter) privatizes only the one shard
// it touches, and that copy shares every row's (immutable) BCA state. This
// is what makes serving-layer snapshot publishes cost O(dirty shards)
// instead of O(n*K). The hub matrix is likewise shared between copies (it
// is immutable once built).

#ifndef RTK_INDEX_LOWER_BOUND_INDEX_H_
#define RTK_INDEX_LOWER_BOUND_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bca/bca.h"
#include "bca/hub_proximity_store.h"
#include "index/index_storage.h"
#include "index/shard_backing.h"

namespace rtk {

/// \brief Aggregate memory/shape statistics of an index (Table 2 inputs).
struct IndexStats {
  uint32_t num_nodes = 0;
  uint32_t capacity_k = 0;
  uint32_t num_hubs = 0;
  uint32_t num_shards = 0;
  uint32_t shard_nodes = 0;          // nodes per shard (last may be short)
  /// Shards with a heap materialization (== num_shards in heap tier). In
  /// mmap tier the byte totals below cover RESIDENT shards only — cold
  /// shards cost page cache, not heap.
  uint32_t resident_shards = 0;
  /// Bytes of the mmap'd index file backing cold shards (0 in heap tier).
  uint64_t mmap_bytes = 0;
  uint64_t topk_bytes = 0;  // the K x n lower-bound matrix P_hat
  /// R, W, S sparse states: per row its state pointer, plus per stored
  /// state its record — 28 header bytes and 12 per entry (bca_state.h).
  /// A state shared with other index copies counts in each; allocator
  /// and reference-count headers are not counted.
  uint64_t state_bytes = 0;
  uint64_t stored_states = 0;  // rows holding a non-empty state
  uint64_t state_entries = 0;  // (id, value) entries across those states
  /// Rounded P_H: 12 bytes per entry, plus per hub its id and offset, plus
  /// the n-entry node-to-hub lookup.
  uint64_t hub_store_bytes = 0;
  uint64_t hub_entries_stored = 0;
  uint64_t hub_entries_dropped = 0;  // removed by rounding
  uint64_t exact_nodes = 0;          // nodes whose BCA fully converged
  /// Per-shard byte totals (topk + residue + state rows of that shard).
  std::vector<uint64_t> shard_bytes;

  uint64_t TotalBytes() const {
    return topk_bytes + state_bytes + hub_store_bytes;
  }
};

/// \brief One node's refined BCA state, captured as a value instead of
/// written into the index. Produced by read-only query evaluation (see
/// QueryOptions::delta_sink) and merged later by a single writer via
/// ApplyIfTighter. Because refinement only tightens bounds (Section 4.2.3),
/// deltas from concurrent queries never conflict: the tighter one wins.
struct IndexDelta {
  uint32_t node = 0;
  /// Descending lower bounds, at most capacity_k entries (short lists are
  /// zero-padded on apply, exactly like SetNode).
  std::vector<double> topk;
  /// The refined state's record (null: the empty state). The log and
  /// ApplyIfTighter pass this pointer on; the record is never copied.
  SharedBcaState state;
  /// |r|_1 of `state`; 0 means `topk` is exact.
  double residue_l1 = 1.0;
};

/// \brief The offline index of Algorithm 1. Constructed by IndexBuilder or
/// loaded from disk by index_io. Copyable, and copying is cheap: copies
/// share storage shards (and the hub store) until one side writes.
///
/// Thread-safety mirrors IndexStorage: concurrent reads are free; a write
/// requires exclusive access to THIS object (other copies sharing shards
/// are never affected — copy-on-write). Builders/loaders writing a freshly
/// constructed index may additionally write distinct shards from distinct
/// threads via MutableShard.
class LowerBoundIndex {
 public:
  /// Creates an empty index shell; used by the builder and the loader.
  /// `shard_nodes` sets the storage shard width (0 = default).
  LowerBoundIndex(uint32_t num_nodes, uint32_t capacity_k,
                  BcaOptions bca_options, HubProximityStore hub_store,
                  uint32_t shard_nodes = 0);

  /// \brief Resharding copy: same contents as `other`, laid out over
  /// `shard_nodes`-wide shards. Copies every row's bounds and residue and
  /// shares its BCA state (no shard is shared; in mmap mode this
  /// materializes every source shard).
  LowerBoundIndex(const LowerBoundIndex& other, uint32_t shard_nodes);

  /// \brief Hub-refresh copy: shares every storage shard with `other`
  /// (copy-on-write, like the plain copy) but serves `hub_store` instead
  /// of other's matrix. The incremental-repair path (dynamic/index_repair)
  /// when some affected node is a hub; with none, the repair takes a plain
  /// copy and keeps sharing other's matrix. Sound when the replacement
  /// store keeps the vectors of every hub whose ink unaffected nodes hold
  /// — which HubProximityStore::Rebuilt guarantees for unaffected hubs.
  LowerBoundIndex(const LowerBoundIndex& other, HubProximityStore hub_store);

  /// \brief Wraps an existing storage (the mmap loader's path: the storage
  /// carries the shape and the backing source; nothing is materialized).
  LowerBoundIndex(BcaOptions bca_options, HubProximityStore hub_store,
                  IndexStorage storage);

  /// \brief Mmap loader's v3 path: the hub store stays cold (LazyHubStore)
  /// until the first query touches hub proximities.
  LowerBoundIndex(BcaOptions bca_options,
                  std::shared_ptr<LazyHubStore> lazy_hubs,
                  IndexStorage storage);

  uint32_t num_nodes() const { return num_nodes_; }

  /// \brief K: the largest k any query may use against this index.
  uint32_t capacity_k() const { return capacity_k_; }

  /// \brief The BCA options (alpha/eta/delta) the index was built with;
  /// refinement must reuse them.
  const BcaOptions& bca_options() const { return bca_options_; }

  /// \brief The hub matrix P_H. With a cold lazy hub section (mmap tier,
  /// v3 files) this materializes it on first call; after a hub-section
  /// corruption it returns an EMPTY store (valid lower bounds, weaker
  /// pruning) — query stages call EnsureHubStore() first so the real
  /// Corruption surfaces instead.
  const HubProximityStore& hub_store() const {
    if (hub_store_ != nullptr) return *hub_store_;
    return lazy_hubs_->GetOrEmpty();
  }

  /// \brief Materializes the lazy hub section if still cold and returns
  /// its verification status (always OK for eagerly-loaded stores; free
  /// after the first call).
  Status EnsureHubStore() const {
    if (lazy_hubs_ == nullptr) return Status::OK();
    return lazy_hubs_->Get().status();
  }

  // ----------------------------------------------------------- shards --

  uint32_t num_shards() const { return storage_.num_shards(); }

  /// \brief Nodes per shard (every shard but possibly the last).
  uint32_t shard_nodes() const { return storage_.shard_nodes(); }

  /// \brief Shard that stores node u.
  uint32_t ShardOf(uint32_t u) const { return storage_.ShardOf(u); }

  /// \brief [first, last) node range of shard s.
  std::pair<uint32_t, uint32_t> ShardNodeRange(uint32_t s) const {
    return storage_.NodeRange(s);
  }

  /// \brief Shard s's slice of the lower-bound matrix: row-major, row
  /// (u - first) starts at (u - first) * capacity_k(). Const-safe view for
  /// the prune stage's shard-aligned scans; invalidated by writes to this
  /// index object (never by writes to copies).
  std::span<const double> ShardLowerBounds(uint32_t s) const {
    return storage_.shard(s).topk_values;
  }

  /// \brief Shard s's |r_u|_1 values, indexed by u - first.
  std::span<const double> ShardResidues(uint32_t s) const {
    return storage_.shard(s).residue_l1;
  }

  /// \brief Direct write access to shard s for builders/loaders (see class
  /// thread-safety note); copy-on-write like SetNode.
  IndexShard& MutableShard(uint32_t s) { return storage_.MutableShard(s); }

  /// \brief Shards this object has privatized (copied) since it was
  /// constructed or copied — the publish-cost observable: a snapshot clone
  /// that applied deltas to d shards reports cow_shard_copies() == d.
  uint64_t cow_shard_copies() const { return storage_.cow_copies(); }

  /// \brief Bytes those privatizations copied: per shard its bound and
  /// residue arrays plus one state pointer per row.
  uint64_t cow_bytes_copied() const { return storage_.cow_bytes(); }

  // ----------------------------------------------------- storage tiers --

  /// \brief Where this index's shard payloads live (index_storage.h).
  StorageTier storage_tier() const { return storage_.tier(); }

  /// \brief True when shard s is heap-resident (always, in heap tier).
  bool ShardResident(uint32_t s) const { return storage_.ShardResident(s); }

  /// \brief Tier-polymorphic scan view of shard s for the prune stage:
  /// heap spans when resident, checksum-verified raw payload when cold.
  /// Never faults the shard to heap.
  ShardScanView ShardScan(uint32_t s) const { return storage_.ScanView(s); }

  /// \brief Feeds the residency manager's per-shard access counters
  /// (no-op in heap tier; thread-safe).
  void RecordShardTouches(uint32_t s, uint64_t touches) const {
    storage_.RecordShardTouches(s, touches);
  }

  /// \brief Promotes shard s to heap / demotes a clean resident shard back
  /// to the map. Write operations (same contract as SetNode).
  void EnsureShardResident(uint32_t s) { storage_.EnsureResident(s); }
  bool ReleaseCleanShard(uint32_t s) { return storage_.ReleaseShard(s); }

  /// \brief Residency + fault statistics of the backing storage.
  StorageResidency residency() const { return storage_.residency(); }

  /// \brief First corruption seen by lazy shard verification (sticky; OK
  /// in heap tier).
  Status storage_status() const { return storage_.backing_status(); }

  /// \brief The shared mmap source (null in heap tier).
  const std::shared_ptr<MmapShardSource>& shard_source() const {
    return storage_.source();
  }

  /// \brief The backing storage itself, read-only (residency planning:
  /// ShardResidencyManager::Advance inspects per-shard residency).
  const IndexStorage& storage() const { return storage_; }

  // ------------------------------------------------------ node access --

  /// \brief Lower bound of the k-th largest proximity from u (k is
  /// 1-based, k <= capacity_k). Zero when fewer than k entries are known —
  /// still a valid lower bound.
  double LowerBound(uint32_t u, uint32_t k) const {
    const IndexShard& shard = storage_.shard(storage_.ShardOf(u));
    return shard.topk_values[static_cast<size_t>(u - shard.begin_node) *
                                 capacity_k_ +
                             (k - 1)];
  }

  /// \brief All K stored lower-bound values of u, descending.
  std::span<const double> LowerBounds(uint32_t u) const {
    const IndexShard& shard = storage_.shard(storage_.ShardOf(u));
    return {shard.topk_values.data() +
                static_cast<size_t>(u - shard.begin_node) * capacity_k_,
            capacity_k_};
  }

  /// \brief Cached |r_u|_1; 0 means the stored bounds are exact.
  double ResidueL1(uint32_t u) const {
    const IndexShard& shard = storage_.shard(storage_.ShardOf(u));
    return shard.residue_l1[u - shard.begin_node];
  }

  /// \brief True when u's stored values are exact top-K proximities.
  bool IsExact(uint32_t u) const { return ResidueL1(u) == 0.0; }

  /// \brief A view of u's stored BCA state (empty lists for exact/hub
  /// nodes). States are immutable and shared between copies: the view
  /// stays valid until this index object replaces u's state (a write of u)
  /// or is destroyed, and outlives both while a copy still holds the state.
  StoredBcaState State(uint32_t u) const {
    const IndexShard& shard = storage_.shard(storage_.ShardOf(u));
    return StateOf(shard.states[u - shard.begin_node]);
  }

  /// \brief Installs new per-node data; used by the builder and by
  /// query-time refinement write-back. `topk` must be descending with
  /// exactly min(capacity_k, available) entries; missing tail is zero.
  /// Copy-on-write: privatizes u's shard iff it is shared, then replaces
  /// u's state pointer (the old state stays with the copies holding it).
  void SetNode(uint32_t u, const std::vector<double>& topk,
               SharedBcaState state, double residue_l1);

  /// \brief Merges a refinement delta, keeping the tighter entry: the delta
  /// is installed iff its residue is strictly smaller than the stored one
  /// (monotone tightening makes |r|_1 a total progress measure — smaller
  /// residue means a further-refined, entrywise-tighter bound). Returns
  /// whether the delta was applied. The rvalue overload moves the delta's
  /// state/topk in (the publisher applies from a drained list it owns).
  bool ApplyIfTighter(const IndexDelta& delta);
  bool ApplyIfTighter(IndexDelta&& delta);

  /// \brief Aggregate statistics (sizes recomputed on call).
  IndexStats ComputeStats() const;

 private:
  uint32_t num_nodes_;
  uint32_t capacity_k_;
  BcaOptions bca_options_;
  // Immutable once built (rounding/refresh produce new stores), so clones
  // share it: copying the index for a serving snapshot duplicates neither
  // the hub matrix nor any clean shard. Exactly one of hub_store_ /
  // lazy_hubs_ is set; the lazy form (v3 mmap loads) is likewise shared,
  // so the whole snapshot chain materializes the hub section at most once.
  std::shared_ptr<const HubProximityStore> hub_store_;
  std::shared_ptr<LazyHubStore> lazy_hubs_;
  IndexStorage storage_;
};

}  // namespace rtk

#endif  // RTK_INDEX_LOWER_BOUND_INDEX_H_
