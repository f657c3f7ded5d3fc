// HubProximityStore: precomputed, rounded proximity vectors of hub nodes
// (the matrix P_H of the paper, with the Section 4.1.3 compression).
//
// Each hub vector is computed exactly by the power method, 16 hubs to one
// fused forward solve (ForEachProximityColumn), and then rounded:
// entries below the threshold omega are dropped. The kept entries live in
// two flat arrays, node ids and values, so an entry costs the 12 bytes
// Table 2 prices it at. Because rounding only removes mass, the
// compressed p^t built from it remains a valid lower bound (the paper's
// key observation in Section 4.1.3). Theorem 1 predicts the storage from
// the power-law shape of proximity vectors; both the prediction and the
// actual footprint are exposed for the Table 2 bench.

#ifndef RTK_BCA_HUB_PROXIMITY_STORE_H_
#define RTK_BCA_HUB_PROXIMITY_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Options for building the hub proximity store.
struct HubStoreOptions {
  /// Power-method settings for the exact hub solves.
  RwrOptions rwr;
  /// Rounding threshold omega; entries < omega are dropped (0 disables
  /// rounding). Paper default 1e-6 (5e-6 for the largest graph).
  double rounding_omega = 1e-6;
};

/// \brief One hub's rounded proximity vector: parallel id and value
/// arrays, sorted by node id.
struct HubVector {
  std::span<const uint32_t> ids;
  std::span<const double> values;

  size_t size() const { return ids.size(); }
};

/// \brief Immutable store of rounded hub proximity vectors.
class HubProximityStore {
 public:
  /// \brief Computes exact hub vectors (lane blocks spread over `pool` when
  /// given; the call waits for its own blocks only, so it is safe from
  /// inside a pool task) and rounds them. `hubs` must be sorted unique node
  /// ids within range.
  static Result<HubProximityStore> Build(const TransitionOperator& op,
                                         std::vector<uint32_t> hubs,
                                         const HubStoreOptions& options = {},
                                         ThreadPool* pool = nullptr);

  /// \brief Constructs an empty store (no hubs) for n nodes.
  static HubProximityStore Empty(uint32_t num_nodes);

  /// \brief Incremental refresh: re-solves only the vectors of
  /// `affected_hubs` (sorted unique, each a hub of `old`) against `op` —
  /// which may wrap an updated graph — and reuses every other vector of
  /// `old` verbatim. The hub set and rounding threshold are inherited.
  ///
  /// DroppedEntries() keeps the old total (the per-hub breakdown is not
  /// stored); it is a Table-2 reporting statistic only and does not affect
  /// correctness.
  ///
  /// Errors: InvalidArgument (unknown hub id / unsorted list / bad solver
  /// options).
  static Result<HubProximityStore> Rebuilt(
      const HubProximityStore& old, const TransitionOperator& op,
      const std::vector<uint32_t>& affected_hubs,
      const RwrOptions& solver = {}, ThreadPool* pool = nullptr);

  uint32_t num_nodes() const { return static_cast<uint32_t>(hub_index_.size()); }
  uint32_t num_hubs() const { return static_cast<uint32_t>(hubs_.size()); }
  const std::vector<uint32_t>& hubs() const { return hubs_; }
  double rounding_omega() const { return rounding_omega_; }

  /// \brief True if v is a hub.
  bool IsHub(uint32_t v) const { return hub_index_[v] != UINT32_MAX; }

  /// \brief Rounded sparse proximity vector of hub h (sorted by node id).
  /// h must be a hub.
  HubVector Vector(uint32_t h) const {
    const uint32_t idx = hub_index_[h];
    const size_t begin = offsets_[idx];
    const size_t count = offsets_[idx + 1] - begin;
    return {{ids_.data() + begin, count}, {values_.data() + begin, count}};
  }

  /// \brief The exact top-K (value-descending) of hub h's vector; exact
  /// because rounding never removes top entries above omega. Used by the
  /// index for hub columns.
  std::vector<std::pair<uint32_t, double>> TopK(uint32_t h, size_t k) const;

  /// \brief Total stored entries across all hub vectors.
  uint64_t TotalEntries() const { return ids_.size(); }

  /// \brief Entries that rounding dropped (for the Table 2 "no rounding"
  /// line: dropped + stored = full).
  uint64_t DroppedEntries() const { return dropped_entries_; }

  /// \brief Heap bytes of the store: 12 per entry, plus per hub its id
  /// and offset, plus the n-entry hub lookup.
  uint64_t MemoryBytes() const {
    return ids_.capacity() * sizeof(uint32_t) +
           values_.capacity() * sizeof(double) +
           offsets_.capacity() * sizeof(uint64_t) +
           hubs_.capacity() * sizeof(uint32_t) +
           hub_index_.capacity() * sizeof(uint32_t);
  }

  /// \brief Theorem 1: predicted stored entries per hub when proximity
  /// values follow a power law p_hat(i) ~ (1-beta) n^(beta-1) i^(-beta):
  /// l* = (1-beta)^(1/beta) * omega^(-1/beta) * n^(1-1/beta).
  static double PredictedEntriesPerHub(uint32_t n, double omega, double beta);

  /// \brief Proposition 3: upper bound on the L1 error of a unit of hub ink
  /// caused by rounding: 1 - ((1-beta)/(omega n))^(1/beta - 1).
  static double RoundingErrorBound(uint32_t n, double omega, double beta);

  // -- Index serialization ---------------------------------------------------
  const std::vector<uint64_t>& offsets() const { return offsets_; }

  /// \brief Every entry in hub order as the index file stores it: packed
  /// 12-byte (u32 id, f64 value) pairs.
  std::string PackedEntries() const;

  /// \brief Rebuilds a store from its file sections. Corruption unless the
  /// hub ids are sorted, unique and below `num_nodes`, the offsets start
  /// at 0, never decrease and end at the packed entry count, and every
  /// entry id is below `num_nodes`.
  static Result<HubProximityStore> FromRaw(uint32_t num_nodes,
                                           std::vector<uint32_t> hubs,
                                           std::vector<uint64_t> offsets,
                                           std::string_view packed_entries,
                                           double rounding_omega,
                                           uint64_t dropped_entries);

 private:
  HubProximityStore() = default;

  /// Sizes the arrays exactly (MemoryBytes then counts 12 bytes per
  /// entry); Append then adds the hubs' vectors in hub order.
  void Reserve(size_t num_hubs, uint64_t num_entries);
  void Append(HubVector vec);

  std::vector<uint32_t> hubs_;        // sorted hub ids
  std::vector<uint32_t> hub_index_;   // node id -> dense hub index or UINT32_MAX
  std::vector<uint64_t> offsets_;     // per-hub slice into ids_ / values_
  std::vector<uint32_t> ids_;         // node ids, sorted within each hub
  std::vector<double> values_;        // values, parallel to ids_
  double rounding_omega_ = 0.0;
  uint64_t dropped_entries_ = 0;
};

}  // namespace rtk

#endif  // RTK_BCA_HUB_PROXIMITY_STORE_H_
