#include "bca/bca.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/top_k.h"

namespace rtk {

BcaRunner::BcaRunner(const TransitionOperator& op,
                     const std::vector<uint32_t>& hubs,
                     const BcaOptions& options)
    : op_(&op), options_(options) {
  const uint32_t n = op.num_nodes();
  is_hub_.assign(n, 0);
  for (uint32_t h : hubs) {
    assert(h < n);
    is_hub_[h] = 1;
  }
  residue_.Resize(n);
  retained_.Resize(n);
  hub_ink_.Resize(n);
  approx_.Resize(n);
  dense_.assign(n, 0.0);
}

void BcaRunner::Start(uint32_t u) {
  assert(u < op_->num_nodes());
  residue_.Clear();
  retained_.Clear();
  hub_ink_.Clear();
  iterations_ = 0;
  residue_.Add(u, 1.0);
  residue_l1_ = 1.0;
  tracking_store_ = nullptr;
}

Status BcaRunner::Load(const StoredBcaState& state) {
  const BcaEntryList hub_ink = state.hub_ink();
  for (size_t i = 0; i < hub_ink.size(); ++i) {
    if (!is_hub_[hub_ink.id(i)]) {
      return Status::Corruption("BCA state holds hub ink at non-hub node " +
                                std::to_string(hub_ink.id(i)));
    }
  }
  residue_.Clear();
  retained_.Clear();
  hub_ink_.Clear();
  const auto load = [](const BcaEntryList& list, SparseAccumulator* acc) {
    for (size_t i = 0; i < list.size(); ++i) {
      acc->Add(list.id(i), list.value(i));
    }
  };
  load(state.residue(), &residue_);
  load(state.retained(), &retained_);
  load(hub_ink, &hub_ink_);
  iterations_ = state.iterations();
  residue_l1_ = residue_.Sum();
  tracking_store_ = nullptr;
  return Status::OK();
}

void BcaRunner::BeginApproxTracking(const HubProximityStore& store) {
  tracking_store_ = &store;
  RebuildApprox(store);
}

void BcaRunner::RebuildApprox(const HubProximityStore& store) const {
  approx_.Clear();
  for (uint32_t v : retained_.touched()) {
    const double w = retained_.Get(v);
    if (w > 0.0) approx_.Add(v, w);
  }
  for (uint32_t h : hub_ink_.touched()) {
    const double ink = hub_ink_.Get(h);
    if (ink <= 0.0) continue;
    const HubVector vec = store.Vector(h);
    for (size_t i = 0; i < vec.size(); ++i) {
      approx_.Add(vec.ids[i], ink * vec.values[i]);
    }
  }
}

SharedBcaState BcaRunner::Extract() const {
  const SparseAccumulator* lists[3] = {&residue_, &retained_, &hub_ink_};
  size_t ends[3];
  extract_ids_.clear();
  for (int l = 0; l < 3; ++l) {
    const size_t begin = extract_ids_.size();
    for (uint32_t v : lists[l]->touched()) {
      if (lists[l]->Get(v) > 0.0) extract_ids_.push_back(v);
    }
    std::sort(extract_ids_.begin() + begin, extract_ids_.end());
    ends[l] = extract_ids_.size();
  }
  if (extract_ids_.empty() && iterations_ == 0) return nullptr;
  BcaStateWriter writer(iterations_, extract_ids_.size());
  size_t i = 0;
  for (int l = 0; l < 3; ++l) {
    writer.BeginList(ends[l] - i);
    for (; i < ends[l]; ++i) {
      writer.Add(extract_ids_[i], lists[l]->Get(extract_ids_[i]));
    }
  }
  return std::move(writer).Finish();
}

void BcaRunner::PushNodes(const std::vector<uint32_t>& nodes) {
  const double alpha = options_.alpha;
  // Snapshot-and-zero first: Eq. (9) removes all selected residues before
  // distributing, so ink sent between two pushed nodes in the same batch
  // stays for the next iteration.
  static thread_local std::vector<double> amounts;
  amounts.clear();
  amounts.reserve(nodes.size());
  for (uint32_t v : nodes) {
    amounts.push_back(residue_.Get(v));
    residue_.Set(v, 0.0);
  }
  const Graph& graph = op_->graph();
  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    const uint32_t v = nodes[idx];
    const double ink = amounts[idx];
    if (ink <= 0.0) continue;
    retained_.Add(v, alpha * ink);  // Eq. (8)
    if (tracking_store_ != nullptr) approx_.Add(v, alpha * ink);
    const double spread = (1.0 - alpha) * ink;
    auto nbrs = graph.OutNeighbors(v);
    auto weights = graph.OutWeights(v);
    const double inv_w = 1.0 / graph.OutWeightSum(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      // Eq. (9): all targets receive residue ink — including hubs, whose
      // ink is only moved to s at the start of the next iteration (Eq. 6).
      const double amount =
          spread * (weights.empty() ? inv_w : weights[i] * inv_w);
      residue_.Add(nbrs[i], amount);
    }
  }
  residue_l1_ = residue_.Sum();
}

size_t BcaRunner::AbsorbHubResidue() {
  size_t absorbed = 0;
  for (uint32_t v : residue_.touched()) {
    if (!is_hub_[v]) continue;
    const double ink = residue_.Get(v);
    if (ink <= 0.0) continue;
    hub_ink_.Add(v, ink);  // Eq. (6)
    residue_.Set(v, 0.0);
    if (tracking_store_ != nullptr) {
      const HubVector vec = tracking_store_->Vector(v);
      for (size_t i = 0; i < vec.size(); ++i) {
        approx_.Add(vec.ids[i], ink * vec.values[i]);
      }
    }
    ++absorbed;
  }
  if (absorbed > 0) residue_l1_ = residue_.Sum();
  return absorbed;
}

size_t BcaRunner::Step(PushStrategy strategy) {
  // Eq. (6): hub residue accumulated during the previous iteration moves to
  // s before any selection, so it is never pushed.
  const size_t absorbed = AbsorbHubResidue();
  push_list_.clear();
  switch (strategy) {
    case PushStrategy::kBatch: {
      for (uint32_t v : residue_.touched()) {
        if (residue_.Get(v) >= options_.eta) push_list_.push_back(v);
      }
      break;
    }
    case PushStrategy::kSingleMax: {
      uint32_t best = UINT32_MAX;
      double best_val = 0.0;
      for (uint32_t v : residue_.touched()) {
        const double r = residue_.Get(v);
        if (r > best_val || (r == best_val && r > 0.0 && v < best)) {
          best_val = r;
          best = v;
        }
      }
      if (best != UINT32_MAX && best_val > 0.0) push_list_.push_back(best);
      break;
    }
    case PushStrategy::kThresholdQueue: {
      // FIFO over touch order: the first touched node above eta.
      for (uint32_t v : residue_.touched()) {
        if (residue_.Get(v) >= options_.eta) {
          push_list_.push_back(v);
          break;
        }
      }
      break;
    }
  }
  if (!push_list_.empty()) PushNodes(push_list_);
  last_step_pushed_ = push_list_.size();
  if (push_list_.empty() && absorbed == 0) return 0;
  ++iterations_;
  return push_list_.size() + absorbed;
}

int BcaRunner::RunToTermination(PushStrategy strategy) {
  int steps = 0;
  while (residue_l1_ > options_.delta && steps < options_.max_iterations) {
    if (Step(strategy) == 0) break;  // nothing above eta left
    ++steps;
  }
  return steps;
}

void BcaRunner::MaterializeApprox(const HubProximityStore& store,
                                  std::vector<double>* out) const {
  const uint32_t n = op_->num_nodes();
  out->assign(n, 0.0);
  for (uint32_t v : retained_.touched()) (*out)[v] += retained_.Get(v);
  for (uint32_t h : hub_ink_.touched()) {
    const double ink = hub_ink_.Get(h);
    if (ink <= 0.0) continue;
    const HubVector vec = store.Vector(h);
    for (size_t i = 0; i < vec.size(); ++i) {
      (*out)[vec.ids[i]] += ink * vec.values[i];
    }
  }
}

std::vector<std::pair<uint32_t, double>> BcaRunner::TopKApprox(
    const HubProximityStore& store, size_t k) const {
  // Mixing stores on one runner would corrupt the tracked accumulator.
  assert(tracking_store_ == nullptr || tracking_store_ == &store);
  TopKSelector selector(k);
  if (tracking_store_ == &store) {
    for (uint32_t v : approx_.touched()) {
      const double p = approx_.Get(v);
      if (p > 0.0) selector.Offer(v, p);
    }
    return selector.TakeSortedDescending();
  }
  // Untracked: scatter p^t = w + P_H s into the dense workspace, adding
  // RebuildApprox's terms in RebuildApprox's order, so every entry has the
  // tracked accumulator's bits.
  double* p = dense_.data();
  size_t adds = 0;
  for (uint32_t v : retained_.touched()) {
    const double w = retained_.Get(v);
    if (w > 0.0) p[v] += w;
  }
  adds += retained_.touched().size();
  for (uint32_t h : hub_ink_.touched()) {
    const double ink = hub_ink_.Get(h);
    if (ink <= 0.0) continue;
    const HubVector vec = store.Vector(h);
    for (size_t i = 0; i < vec.size(); ++i) {
      p[vec.ids[i]] += ink * vec.values[i];
    }
    adds += vec.size();
  }
  // Offer each positive entry once and re-zero the workspace. The selector
  // orders by (value, id), so its result does not depend on offer order:
  // sweep the whole workspace when the adds covered it anyway, else revisit
  // the scattered ids (an entry is zeroed on its first visit).
  const auto take = [&](uint32_t v) {
    if (p[v] > 0.0) selector.Offer(v, p[v]);
    p[v] = 0.0;
  };
  if (adds >= dense_.size()) {
    for (uint32_t v = 0; v < dense_.size(); ++v) take(v);
  } else {
    for (uint32_t v : retained_.touched()) take(v);
    for (uint32_t h : hub_ink_.touched()) {
      if (hub_ink_.Get(h) <= 0.0) continue;
      for (uint32_t v : store.Vector(h).ids) take(v);
    }
  }
  return selector.TakeSortedDescending();
}

}  // namespace rtk
