#include "bca/hub_proximity_store.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/top_k.h"

namespace rtk {

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
  std::vector<std::vector<std::pair<uint32_t, double>>> rounded(h);
  std::vector<uint64_t> dropped(h, 0);
  RTK_RETURN_NOT_OK(ForEachProximityColumn(
      op, store.hubs_, options.rwr, pool,
      [&](size_t i, const std::vector<double>& v) {
        for (uint32_t node = 0; node < n; ++node) {
          if (v[node] >= options.rounding_omega && v[node] > 0.0) {
            rounded[i].emplace_back(node, v[node]);
          } else if (v[node] > 0.0) {
            ++dropped[i];
          }
        }
      }));

  store.offsets_.assign(h + 1, 0);
  for (size_t i = 0; i < h; ++i) {
    store.offsets_[i + 1] = store.offsets_[i] + rounded[i].size();
    store.dropped_entries_ += dropped[i];
  }
  store.entries_.reserve(store.offsets_[h]);
  for (auto& vec : rounded) {
    store.entries_.insert(store.entries_.end(), vec.begin(), vec.end());
    vec.clear();
    vec.shrink_to_fit();
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
  const size_t num_hubs = old.hubs_.size();
  std::vector<std::vector<std::pair<uint32_t, double>>> fresh(
      affected_hubs.size());
  RTK_RETURN_NOT_OK(ForEachProximityColumn(
      op, affected_hubs, solver, pool,
      [&](size_t i, const std::vector<double>& v) {
        for (uint32_t node = 0; node < n; ++node) {
          if (v[node] >= old.rounding_omega_ && v[node] > 0.0) {
            fresh[i].emplace_back(node, v[node]);
          }
        }
      }));

  // Splice: fresh vectors for affected hubs, old slices otherwise.
  HubProximityStore store;
  store.rounding_omega_ = old.rounding_omega_;
  store.dropped_entries_ = old.dropped_entries_;
  store.hubs_ = old.hubs_;
  store.hub_index_ = old.hub_index_;
  store.offsets_.assign(num_hubs + 1, 0);
  size_t next_affected = 0;
  for (size_t i = 0; i < num_hubs; ++i) {
    const uint32_t h = store.hubs_[i];
    if (next_affected < affected_hubs.size() &&
        affected_hubs[next_affected] == h) {
      const auto& vec = fresh[next_affected];
      store.entries_.insert(store.entries_.end(), vec.begin(), vec.end());
      ++next_affected;
    } else {
      const auto span = old.Vector(h);
      store.entries_.insert(store.entries_.end(), span.begin(), span.end());
    }
    store.offsets_[i + 1] = store.entries_.size();
  }
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
  for (const auto& [node, value] : Vector(h)) selector.Offer(node, value);
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

HubProximityStore HubProximityStore::FromRaw(
    uint32_t num_nodes, std::vector<uint32_t> hubs,
    std::vector<uint64_t> offsets,
    std::vector<std::pair<uint32_t, double>> entries, double rounding_omega,
    uint64_t dropped_entries) {
  HubProximityStore store;
  store.hubs_ = std::move(hubs);
  store.hub_index_.assign(num_nodes, UINT32_MAX);
  for (uint32_t i = 0; i < store.hubs_.size(); ++i) {
    store.hub_index_[store.hubs_[i]] = i;
  }
  store.offsets_ = std::move(offsets);
  store.entries_ = std::move(entries);
  store.rounding_omega_ = rounding_omega;
  store.dropped_entries_ = dropped_entries;
  return store;
}

}  // namespace rtk
