#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace rtk {

uint32_t Graph::MaxOutDegree() const {
  uint32_t best = 0;
  for (uint32_t u = 0; u < num_nodes_; ++u) best = std::max(best, OutDegree(u));
  return best;
}

uint32_t Graph::MaxInDegree() const {
  uint32_t best = 0;
  for (uint32_t u = 0; u < num_nodes_; ++u) best = std::max(best, InDegree(u));
  return best;
}

uint64_t Graph::MemoryBytes() const {
  uint64_t bytes = 0;
  bytes += out_offsets_.capacity() * sizeof(uint64_t);
  bytes += out_targets_.capacity() * sizeof(uint32_t);
  bytes += out_weights_.capacity() * sizeof(double);
  bytes += out_weight_sums_.capacity() * sizeof(double);
  bytes += in_offsets_.capacity() * sizeof(uint64_t);
  bytes += in_sources_.capacity() * sizeof(uint32_t);
  bytes += in_weights_.capacity() * sizeof(double);
  bytes += original_ids_.capacity() * sizeof(uint32_t);
  return bytes;
}

Graph Graph::SpliceOutRows(const Graph& base, std::span<const OutRow> rows) {
  const uint32_t n = base.num_nodes_;
  // Visits [0, n) in node order as runs [lo, hi) of untouched nodes
  // interleaved with the replacement rows.
  const auto walk = [&](auto&& untouched, auto&& replaced) {
    uint32_t next = 0;
    for (const OutRow& row : rows) {
      assert(row.node >= next && row.node < n && !row.targets.empty() &&
             row.weights.size() == row.targets.size());
      if (next < row.node) untouched(next, row.node);
      replaced(row);
      next = row.node + 1;
    }
    if (next < n) untouched(next, n);
  };
  const auto non_unit = [](double w) { return w != 1.0; };

  bool weighted = false;
  uint64_t num_edges = base.num_edges();
  for (const OutRow& row : rows) {
    weighted = weighted ||
               std::any_of(row.weights.begin(), row.weights.end(), non_unit);
    num_edges = num_edges + row.targets.size() - base.OutDegree(row.node);
  }
  if (!weighted && base.is_weighted()) {
    const double* weights = base.out_weights_.data();
    walk(
        [&](uint32_t lo, uint32_t hi) {
          weighted = weighted ||
                     std::any_of(weights + base.out_offsets_[lo],
                                 weights + base.out_offsets_[hi], non_unit);
        },
        [](const OutRow&) {});
  }

  Graph g;
  g.num_nodes_ = n;
  g.out_offsets_.resize(static_cast<size_t>(n) + 1);
  g.out_targets_.reserve(num_edges);
  if (weighted) {
    g.out_weights_.reserve(num_edges);
    g.out_weight_sums_.resize(n);
  }
  walk(
      [&](uint32_t lo, uint32_t hi) {
        const uint64_t first = base.out_offsets_[lo];
        const uint64_t last = base.out_offsets_[hi];
        const uint64_t start = g.out_targets_.size();
        for (uint32_t u = lo; u < hi; ++u) {
          g.out_offsets_[u + 1] = base.out_offsets_[u + 1] - first + start;
        }
        const uint32_t* targets = base.out_targets_.data();
        g.out_targets_.insert(g.out_targets_.end(), targets + first,
                              targets + last);
        if (!weighted) return;
        if (base.is_weighted()) {
          const double* weights = base.out_weights_.data();
          g.out_weights_.insert(g.out_weights_.end(), weights + first,
                                weights + last);
          std::copy(base.out_weight_sums_.begin() + lo,
                    base.out_weight_sums_.begin() + hi,
                    g.out_weight_sums_.begin() + lo);
        } else {
          // Unit weights materialized: each sum is the degree, exactly
          // what summing the ones gives.
          g.out_weights_.insert(g.out_weights_.end(), last - first, 1.0);
          for (uint32_t u = lo; u < hi; ++u) {
            g.out_weight_sums_[u] = static_cast<double>(base.OutDegree(u));
          }
        }
      },
      [&](const OutRow& row) {
        g.out_targets_.insert(g.out_targets_.end(), row.targets.begin(),
                              row.targets.end());
        g.out_offsets_[row.node + 1] = g.out_targets_.size();
        if (!weighted) return;
        g.out_weights_.insert(g.out_weights_.end(), row.weights.begin(),
                              row.weights.end());
        // Summed in dst order from 0, as GraphBuilder does.
        double sum = 0.0;
        for (double w : row.weights) sum += w;
        g.out_weight_sums_[row.node] = sum;
      });
  g.BuildInCsr();
  return g;
}

void Graph::BuildInCsr() {
  const uint32_t n = num_nodes_;
  in_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (uint32_t v : out_targets_) ++in_offsets_[v + 1];
  for (uint32_t v = 0; v < n; ++v) in_offsets_[v + 1] += in_offsets_[v];
  in_sources_.resize(out_targets_.size());
  const bool weighted = !out_weights_.empty();
  in_weights_.resize(weighted ? out_targets_.size() : 0);
  std::vector<uint64_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint64_t e = out_offsets_[u]; e < out_offsets_[u + 1]; ++e) {
      const uint64_t slot = cursor[out_targets_[e]]++;
      in_sources_[slot] = u;
      if (weighted) in_weights_[slot] = out_weights_[e];
    }
  }
}

std::string Graph::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "Graph(n=%u, m=%llu, weighted=%s)",
                num_nodes_, static_cast<unsigned long long>(num_edges()),
                is_weighted() ? "yes" : "no");
  return buf;
}

}  // namespace rtk
