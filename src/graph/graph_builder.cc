#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

namespace rtk {

namespace {

struct FinalEdge {
  uint32_t src;
  uint32_t dst;
  double weight;
};

// Sorts `edges` by (src, dst) and fills the out-CSR arrays from them.
void FillCsr(uint32_t n, std::vector<FinalEdge>& edges, bool weighted,
             std::vector<uint64_t>* out_offsets,
             std::vector<uint32_t>* out_targets,
             std::vector<double>* out_weights,
             std::vector<double>* out_weight_sums) {
  std::sort(edges.begin(), edges.end(),
            [](const FinalEdge& a, const FinalEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  out_offsets->assign(n + 1, 0);
  for (const auto& e : edges) ++(*out_offsets)[e.src + 1];
  for (uint32_t u = 0; u < n; ++u) (*out_offsets)[u + 1] += (*out_offsets)[u];
  out_targets->resize(edges.size());
  if (weighted) {
    out_weights->resize(edges.size());
    out_weight_sums->assign(n, 0.0);
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    (*out_targets)[i] = edges[i].dst;
    if (weighted) {
      (*out_weights)[i] = edges[i].weight;
      (*out_weight_sums)[edges[i].src] += edges[i].weight;
    }
  }
}

}  // namespace

Result<Graph> GraphBuilder::Build(const GraphBuilderOptions& options) const {
  // -- Validation pass ------------------------------------------------------
  for (const Edge& e : edges_) {
    if (e.src >= num_nodes_ || e.dst >= num_nodes_) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.src) + " -> " + std::to_string(e.dst) +
          ") out of range for num_nodes=" + std::to_string(num_nodes_));
    }
    if (!(e.weight > 0.0) || !std::isfinite(e.weight)) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.src) + " -> " + std::to_string(e.dst) +
          ") has non-positive or non-finite weight");
    }
    if (e.src == e.dst && !options.allow_self_loops) {
      return Status::InvalidArgument("self-loop at node " +
                                     std::to_string(e.src) +
                                     " (set allow_self_loops to permit)");
    }
  }

  // -- Merge or reject parallel edges --------------------------------------
  std::vector<FinalEdge> edges;
  edges.reserve(edges_.size());
  for (const Edge& e : edges_) edges.push_back({e.src, e.dst, e.weight});
  std::sort(edges.begin(), edges.end(),
            [](const FinalEdge& a, const FinalEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  std::vector<FinalEdge> merged;
  merged.reserve(edges.size());
  for (const auto& e : edges) {
    if (!merged.empty() && merged.back().src == e.src &&
        merged.back().dst == e.dst) {
      switch (options.parallel_edges) {
        case ParallelEdgePolicy::kError:
          return Status::InvalidArgument(
              "duplicate edge (" + std::to_string(e.src) + " -> " +
              std::to_string(e.dst) + ") and policy is kError");
        case ParallelEdgePolicy::kSumWeights:
          merged.back().weight += e.weight;
          break;
        case ParallelEdgePolicy::kKeepFirst:
          break;
      }
    } else {
      merged.push_back(e);
    }
  }

  // -- Dangling-node policy -------------------------------------------------
  uint32_t n = num_nodes_;
  std::optional<uint32_t> sink;
  std::vector<uint32_t> original_ids;

  std::vector<uint32_t> out_degree(n, 0);
  for (const auto& e : merged) ++out_degree[e.src];

  bool has_dangling = false;
  for (uint32_t u = 0; u < n; ++u) {
    if (out_degree[u] == 0) {
      has_dangling = true;
      break;
    }
  }

  if (has_dangling) {
    switch (options.dangling_policy) {
      case DanglingPolicy::kError: {
        for (uint32_t u = 0; u < n; ++u) {
          if (out_degree[u] == 0) {
            return Status::InvalidArgument(
                "node " + std::to_string(u) +
                " is dangling (out-degree 0) and policy is kError");
          }
        }
        break;
      }
      case DanglingPolicy::kSelfLoop: {
        for (uint32_t u = 0; u < n; ++u) {
          if (out_degree[u] == 0) merged.push_back({u, u, 1.0});
        }
        break;
      }
      case DanglingPolicy::kAddSink: {
        sink = n;
        n += 1;
        for (uint32_t u = 0; u + 1 < n; ++u) {
          if (out_degree[u] == 0) merged.push_back({u, *sink, 1.0});
        }
        merged.push_back({*sink, *sink, 1.0});
        break;
      }
      case DanglingPolicy::kRemove: {
        // Iterative removal: deleting a dangling node can strand its
        // predecessors, so propagate with a worklist over the in-adjacency.
        std::vector<std::vector<uint32_t>> in_adj(n);
        for (const auto& e : merged) {
          if (e.src != e.dst) in_adj[e.dst].push_back(e.src);
        }
        // A self-loop keeps a node alive, so degrees here must not count a
        // node's self-loop once everything else is gone? No: a self-loop IS
        // an out-edge; such a node never dangles. Plain out-degrees suffice.
        std::vector<uint8_t> removed(n, 0);
        std::deque<uint32_t> queue;
        std::vector<uint32_t> od = out_degree;
        for (uint32_t u = 0; u < n; ++u) {
          if (od[u] == 0) queue.push_back(u);
        }
        while (!queue.empty()) {
          const uint32_t x = queue.front();
          queue.pop_front();
          if (removed[x]) continue;
          removed[x] = 1;
          for (uint32_t s : in_adj[x]) {
            if (!removed[s] && --od[s] == 0) queue.push_back(s);
          }
        }
        // Compact surviving ids.
        std::vector<uint32_t> remap(n, UINT32_MAX);
        uint32_t next = 0;
        for (uint32_t u = 0; u < n; ++u) {
          if (!removed[u]) {
            remap[u] = next++;
            original_ids.push_back(u);
          }
        }
        std::vector<FinalEdge> kept;
        kept.reserve(merged.size());
        for (const auto& e : merged) {
          if (!removed[e.src] && !removed[e.dst]) {
            kept.push_back({remap[e.src], remap[e.dst], e.weight});
          }
        }
        merged.swap(kept);
        n = next;
        break;
      }
    }
  }

  // -- Decide weightedness ---------------------------------------------------
  bool weighted = false;
  for (const auto& e : merged) {
    if (e.weight != 1.0) {
      weighted = true;
      break;
    }
  }

  // -- Assemble CSR ----------------------------------------------------------
  Graph g;
  g.num_nodes_ = n;
  g.sink_node_ = sink;
  g.original_ids_ = std::move(original_ids);
  FillCsr(n, merged, weighted, &g.out_offsets_, &g.out_targets_,
          &g.out_weights_, &g.out_weight_sums_);
  g.BuildInCsr();
  return g;
}

}  // namespace rtk
