#include "dynamic/graph_updates.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

namespace rtk {

namespace {

std::string EdgeName(uint32_t src, uint32_t dst) {
  return std::to_string(src) + " -> " + std::to_string(dst);
}

bool HasEdge(const Graph& graph, uint32_t src, uint32_t dst) {
  const auto targets = graph.OutNeighbors(src);
  return std::binary_search(targets.begin(), targets.end(), dst);
}

Status SelfLoopError(uint32_t u) {
  return Status::InvalidArgument("self-loop at node " + std::to_string(u) +
                                 " (set allow_self_loops to permit)");
}

// GraphBuilder::Build's per-edge checks over the final edge set: the first
// failing edge in (src, dst) order decides the error. Untouched rows hold
// the base graph's already-validated weights, so only a self-loop can fail
// there.
Status ValidateFinalEdges(const Graph& base, const std::vector<OutRow>& rows,
                          bool allow_self_loops) {
  auto row = rows.begin();
  for (uint32_t u = 0; u < base.num_nodes(); ++u) {
    if (row == rows.end() || row->node != u) {
      if (!allow_self_loops && HasEdge(base, u, u)) return SelfLoopError(u);
      continue;
    }
    for (size_t i = 0; i < row->targets.size(); ++i) {
      const double weight = row->weights[i];
      if (!(weight > 0.0) || !std::isfinite(weight)) {
        return Status::InvalidArgument(
            "edge (" + EdgeName(u, row->targets[i]) +
            ") has non-positive or non-finite weight");
      }
      if (row->targets[i] == u && !allow_self_loops) return SelfLoopError(u);
    }
    ++row;
  }
  return Status::OK();
}

}  // namespace

Result<Graph> ApplyEdgeUpdates(const Graph& graph,
                               const std::vector<EdgeUpdate>& updates,
                               const GraphBuilderOptions& options) {
  if (options.dangling_policy != DanglingPolicy::kError &&
      options.dangling_policy != DanglingPolicy::kSelfLoop) {
    return Status::InvalidArgument(
        "ApplyEdgeUpdates: dangling policy must preserve node ids "
        "(kError or kSelfLoop)");
  }
  const uint32_t n = graph.num_nodes();

  // Materialize the out-rows of the in-range modified sources (weights
  // included, unit ones for an unweighted graph), in node order.
  std::vector<uint32_t> sources = ModifiedSources(updates);
  sources.erase(std::lower_bound(sources.begin(), sources.end(), n),
                sources.end());
  std::vector<OutRow> rows(sources.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    OutRow& row = rows[r];
    row.node = sources[r];
    const auto targets = graph.OutNeighbors(row.node);
    const auto weights = graph.OutWeights(row.node);
    row.targets.assign(targets.begin(), targets.end());
    if (weights.empty()) {
      row.weights.assign(targets.size(), 1.0);
    } else {
      row.weights.assign(weights.begin(), weights.end());
    }
  }

  // Fold the updates into their rows in batch order.
  for (const EdgeUpdate& update : updates) {
    if (update.src >= n || update.dst >= n) {
      return Status::InvalidArgument("ApplyEdgeUpdates: endpoint out of range: " +
                                     EdgeName(update.src, update.dst));
    }
    OutRow& row = rows[std::lower_bound(sources.begin(), sources.end(),
                                        update.src) -
                       sources.begin()];
    const auto it = std::lower_bound(row.targets.begin(), row.targets.end(),
                                     update.dst);
    const auto i = it - row.targets.begin();
    const bool present = it != row.targets.end() && *it == update.dst;
    switch (update.kind) {
      case EdgeUpdate::Kind::kInsert: {
        if (!(update.weight > 0.0)) {
          return Status::InvalidArgument(
              "ApplyEdgeUpdates: insert weight must be > 0 for " +
              EdgeName(update.src, update.dst));
        }
        if (present) {
          return Status::InvalidArgument("ApplyEdgeUpdates: edge exists: " +
                                         EdgeName(update.src, update.dst));
        }
        row.targets.insert(it, update.dst);
        row.weights.insert(row.weights.begin() + i, update.weight);
        break;
      }
      case EdgeUpdate::Kind::kDelete: {
        if (!present) {
          return Status::NotFound("ApplyEdgeUpdates: no such edge: " +
                                  EdgeName(update.src, update.dst));
        }
        row.targets.erase(it);
        row.weights.erase(row.weights.begin() + i);
        break;
      }
      case EdgeUpdate::Kind::kSetWeight: {
        if (!(update.weight > 0.0)) {
          return Status::InvalidArgument(
              "ApplyEdgeUpdates: weight must be > 0 for " +
              EdgeName(update.src, update.dst));
        }
        if (!present) {
          return Status::NotFound("ApplyEdgeUpdates: no such edge: " +
                                  EdgeName(update.src, update.dst));
        }
        row.weights[i] = update.weight;
        break;
      }
    }
  }

  RTK_RETURN_NOT_OK(
      ValidateFinalEdges(graph, rows, options.allow_self_loops));
  // Only a touched row can be empty: every row of a Graph has an out-edge.
  for (OutRow& row : rows) {
    if (!row.targets.empty()) continue;
    if (options.dangling_policy == DanglingPolicy::kError) {
      return Status::InvalidArgument(
          "node " + std::to_string(row.node) +
          " is dangling (out-degree 0) and policy is kError");
    }
    row.targets = {row.node};
    row.weights = {1.0};
  }
  return Graph::SpliceOutRows(graph, rows);
}

std::vector<uint32_t> ModifiedSources(const std::vector<EdgeUpdate>& updates) {
  std::vector<uint32_t> sources;
  sources.reserve(updates.size());
  for (const EdgeUpdate& update : updates) sources.push_back(update.src);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

ReverseReachability ReverseReachableFrom(const Graph& graph,
                                         const std::vector<uint32_t>& seeds,
                                         uint32_t max_nodes) {
  ReverseReachability out;
  const uint32_t n = graph.num_nodes();
  std::vector<bool> visited(n, false);
  std::deque<uint32_t> frontier;
  for (uint32_t s : seeds) {
    if (s < n && !visited[s]) {
      visited[s] = true;
      out.nodes.push_back(s);
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    if (max_nodes != 0 && out.nodes.size() > max_nodes) {
      out.truncated = true;
      break;
    }
    const uint32_t v = frontier.front();
    frontier.pop_front();
    for (uint32_t u : graph.InNeighbors(v)) {
      if (!visited[u]) {
        visited[u] = true;
        out.nodes.push_back(u);
        frontier.push_back(u);
      }
    }
  }
  std::sort(out.nodes.begin(), out.nodes.end());
  return out;
}

}  // namespace rtk
