#include "bca/hub_proximity_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/top_k.h"

namespace rtk {

namespace {

// One hub's rounded vector while its column is being solved.
struct RoundedVector {
  std::vector<uint32_t> ids;
  std::vector<double> values;
};

}  // namespace

void HubProximityStore::Reserve(size_t num_hubs, uint64_t num_entries) {
  offsets_.reserve(num_hubs + 1);
  offsets_.assign(1, 0);
  ids_.reserve(num_entries);
  values_.reserve(num_entries);
}

void HubProximityStore::Append(HubVector vec) {
  ids_.insert(ids_.end(), vec.ids.begin(), vec.ids.end());
  values_.insert(values_.end(), vec.values.begin(), vec.values.end());
  offsets_.push_back(ids_.size());
}

Result<HubProximityStore> HubProximityStore::Build(
    const TransitionOperator& op, std::vector<uint32_t> hubs,
    const HubStoreOptions& options, ThreadPool* pool) {
  const uint32_t n = op.num_nodes();
  if (!std::is_sorted(hubs.begin(), hubs.end()) ||
      std::adjacent_find(hubs.begin(), hubs.end()) != hubs.end()) {
    return Status::InvalidArgument("hub ids must be sorted and unique");
  }
  if (!hubs.empty() && hubs.back() >= n) {
    return Status::InvalidArgument("hub id out of range");
  }
  if (options.rounding_omega < 0.0) {
    return Status::InvalidArgument("rounding_omega must be >= 0");
  }

  HubProximityStore store;
  store.rounding_omega_ = options.rounding_omega;
  store.hubs_ = std::move(hubs);
  store.hub_index_.assign(n, UINT32_MAX);
  for (uint32_t i = 0; i < store.hubs_.size(); ++i) {
    store.hub_index_[store.hubs_[i]] = i;
  }

  const size_t h = store.hubs_.size();
  std::vector<RoundedVector> rounded(h);
  std::vector<uint64_t> dropped(h, 0);
  RTK_RETURN_NOT_OK(ForEachProximityColumn(
      op, store.hubs_, options.rwr, pool,
      [&](size_t i, const std::vector<double>& v) {
        for (uint32_t node = 0; node < n; ++node) {
          if (v[node] >= options.rounding_omega && v[node] > 0.0) {
            rounded[i].ids.push_back(node);
            rounded[i].values.push_back(v[node]);
          } else if (v[node] > 0.0) {
            ++dropped[i];
          }
        }
      }));
  uint64_t total = 0;
  for (size_t i = 0; i < h; ++i) {
    total += rounded[i].ids.size();
    store.dropped_entries_ += dropped[i];
  }
  store.Reserve(h, total);
  for (RoundedVector& vec : rounded) {
    store.Append({vec.ids, vec.values});
    vec = {};  // freed as it is copied, as the arrays fill
  }
  return store;
}

Result<HubProximityStore> HubProximityStore::Rebuilt(
    const HubProximityStore& old, const TransitionOperator& op,
    const std::vector<uint32_t>& affected_hubs, const RwrOptions& solver,
    ThreadPool* pool) {
  if (!std::is_sorted(affected_hubs.begin(), affected_hubs.end()) ||
      std::adjacent_find(affected_hubs.begin(), affected_hubs.end()) !=
          affected_hubs.end()) {
    return Status::InvalidArgument("affected hubs must be sorted and unique");
  }
  for (uint32_t h : affected_hubs) {
    if (h >= op.num_nodes() || !old.IsHub(h)) {
      return Status::InvalidArgument("affected node " + std::to_string(h) +
                                     " is not a hub of the store");
    }
  }

  const uint32_t n = op.num_nodes();
  std::vector<RoundedVector> fresh(affected_hubs.size());
  RTK_RETURN_NOT_OK(ForEachProximityColumn(
      op, affected_hubs, solver, pool,
      [&](size_t i, const std::vector<double>& v) {
        for (uint32_t node = 0; node < n; ++node) {
          if (v[node] >= old.rounding_omega_ && v[node] > 0.0) {
            fresh[i].ids.push_back(node);
            fresh[i].values.push_back(v[node]);
          }
        }
      }));

  // Splice: fresh vectors for affected hubs, old slices otherwise.
  std::vector<size_t> fresh_of(old.hubs_.size(), SIZE_MAX);
  for (size_t j = 0; j < affected_hubs.size(); ++j) {
    fresh_of[old.hub_index_[affected_hubs[j]]] = j;
  }
  const auto vector_of = [&](size_t i) {
    if (fresh_of[i] == SIZE_MAX) return old.Vector(old.hubs_[i]);
    const RoundedVector& vec = fresh[fresh_of[i]];
    return HubVector{vec.ids, vec.values};
  };
  uint64_t total = 0;
  for (size_t i = 0; i < old.hubs_.size(); ++i) total += vector_of(i).size();
  HubProximityStore store;
  store.rounding_omega_ = old.rounding_omega_;
  store.dropped_entries_ = old.dropped_entries_;
  store.hubs_ = old.hubs_;
  store.hub_index_ = old.hub_index_;
  store.Reserve(old.hubs_.size(), total);
  for (size_t i = 0; i < old.hubs_.size(); ++i) store.Append(vector_of(i));
  return store;
}

HubProximityStore HubProximityStore::Empty(uint32_t num_nodes) {
  HubProximityStore store;
  store.hub_index_.assign(num_nodes, UINT32_MAX);
  store.offsets_.assign(1, 0);
  return store;
}

std::vector<std::pair<uint32_t, double>> HubProximityStore::TopK(
    uint32_t h, size_t k) const {
  TopKSelector selector(k);
  const HubVector vec = Vector(h);
  for (size_t i = 0; i < vec.size(); ++i) {
    selector.Offer(vec.ids[i], vec.values[i]);
  }
  return selector.TakeSortedDescending();
}

double HubProximityStore::PredictedEntriesPerHub(uint32_t n, double omega,
                                                 double beta) {
  if (omega <= 0.0 || beta <= 0.0 || beta >= 1.0) return n;
  const double l_star = std::pow(1.0 - beta, 1.0 / beta) *
                        std::pow(omega, -1.0 / beta) *
                        std::pow(static_cast<double>(n), 1.0 - 1.0 / beta);
  return std::min<double>(l_star, n);
}

double HubProximityStore::RoundingErrorBound(uint32_t n, double omega,
                                             double beta) {
  if (omega <= 0.0 || beta <= 0.0 || beta >= 1.0) return 0.0;
  const double base = (1.0 - beta) / (omega * static_cast<double>(n));
  const double bound = 1.0 - std::pow(base, 1.0 / beta - 1.0);
  return std::clamp(bound, 0.0, 1.0);
}

std::string HubProximityStore::PackedEntries() const {
  constexpr size_t kEntryBytes = sizeof(uint32_t) + sizeof(double);
  std::string packed(ids_.size() * kEntryBytes, '\0');
  char* p = packed.data();
  for (size_t i = 0; i < ids_.size(); ++i, p += kEntryBytes) {
    std::memcpy(p, &ids_[i], sizeof(uint32_t));
    std::memcpy(p + sizeof(uint32_t), &values_[i], sizeof(double));
  }
  return packed;
}

Result<HubProximityStore> HubProximityStore::FromRaw(
    uint32_t num_nodes, std::vector<uint32_t> hubs,
    std::vector<uint64_t> offsets, std::string_view packed_entries,
    double rounding_omega, uint64_t dropped_entries) {
  constexpr size_t kEntryBytes = sizeof(uint32_t) + sizeof(double);
  for (size_t i = 0; i < hubs.size(); ++i) {
    if (hubs[i] >= num_nodes || (i > 0 && hubs[i] <= hubs[i - 1])) {
      return Status::Corruption("hub ids not sorted, unique and below n");
    }
  }
  if (offsets.size() != hubs.size() + 1 || offsets.front() != 0 ||
      !std::is_sorted(offsets.begin(), offsets.end()) ||
      packed_entries.size() / kEntryBytes != offsets.back() ||
      packed_entries.size() % kEntryBytes != 0) {
    return Status::Corruption("hub offsets do not match the hub entries");
  }
  HubProximityStore store;
  store.ids_.resize(offsets.back());
  store.values_.resize(offsets.back());
  const char* p = packed_entries.data();
  for (size_t i = 0; i < store.ids_.size(); ++i, p += kEntryBytes) {
    std::memcpy(&store.ids_[i], p, sizeof(uint32_t));
    std::memcpy(&store.values_[i], p + sizeof(uint32_t), sizeof(double));
    if (store.ids_[i] >= num_nodes) {
      return Status::Corruption("hub entry id " +
                                std::to_string(store.ids_[i]) +
                                " out of range for n=" +
                                std::to_string(num_nodes));
    }
  }
  store.hubs_ = std::move(hubs);
  store.hub_index_.assign(num_nodes, UINT32_MAX);
  for (uint32_t i = 0; i < store.hubs_.size(); ++i) {
    store.hub_index_[store.hubs_[i]] = i;
  }
  store.offsets_ = std::move(offsets);
  store.rounding_omega_ = rounding_omega;
  store.dropped_entries_ = dropped_entries;
  return store;
}

}  // namespace rtk
