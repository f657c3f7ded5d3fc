// Immutable directed graph in CSR (compressed sparse row) form.
//
// This is the storage substrate every other module builds on. Both the
// out-adjacency (the PMPN gather, BCA pushes, walks) and the in-adjacency
// with its edge weights (the forward RWR gather, hub selection, analysis
// tools) are materialized. Graphs may carry positive
// edge weights; the RWR transition probability from u to its out-neighbor v
// is weight(u,v) / total out-weight of u (uniform 1/OD(u) when unweighted),
// matching the paper's Section 2.1 and the weighted variant of Section 5.4.

#ifndef RTK_GRAPH_GRAPH_H_
#define RTK_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rtk {

/// \brief One replacement out-row for Graph::SpliceOutRows.
struct OutRow {
  uint32_t node = 0;
  /// Ascending, unique, non-empty.
  std::vector<uint32_t> targets;
  /// Aligned with `targets`; each finite and > 0.
  std::vector<double> weights;
};

/// \brief Immutable directed (optionally weighted) graph in CSR form.
///
/// Node ids are dense integers [0, num_nodes). Construction goes through
/// GraphBuilder, which validates input and applies a dangling-node policy so
/// that every node of a Graph has at least one out-edge — the invariant the
/// RWR theory requires (column-stochastic transition matrix). SpliceOutRows
/// derives a graph from another by replacing out-rows; its caller keeps
/// the invariant.
class Graph {
 public:
  Graph() = default;

  /// \brief Number of nodes n = |V|.
  uint32_t num_nodes() const { return num_nodes_; }

  /// \brief Number of directed edges m = |E|.
  uint64_t num_edges() const { return static_cast<uint64_t>(out_targets_.size()); }

  /// \brief True when edges carry non-uniform weights.
  bool is_weighted() const { return !out_weights_.empty(); }

  /// \brief Out-degree of node u.
  uint32_t OutDegree(uint32_t u) const {
    return static_cast<uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }

  /// \brief In-degree of node u.
  uint32_t InDegree(uint32_t u) const {
    return static_cast<uint32_t>(in_offsets_[u + 1] - in_offsets_[u]);
  }

  /// \brief Targets of u's out-edges, sorted ascending.
  std::span<const uint32_t> OutNeighbors(uint32_t u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// \brief Sources of u's in-edges, sorted ascending.
  std::span<const uint32_t> InNeighbors(uint32_t u) const {
    return {in_sources_.data() + in_offsets_[u],
            in_sources_.data() + in_offsets_[u + 1]};
  }

  /// \brief Weights aligned with OutNeighbors(u); empty when unweighted.
  std::span<const double> OutWeights(uint32_t u) const {
    if (out_weights_.empty()) return {};
    return {out_weights_.data() + out_offsets_[u],
            out_weights_.data() + out_offsets_[u + 1]};
  }

  /// \brief Weights aligned with InNeighbors(v): entry i is the weight of
  /// the edge InNeighbors(v)[i] -> v. Empty when unweighted.
  std::span<const double> InWeights(uint32_t v) const {
    if (in_weights_.empty()) return {};
    return {in_weights_.data() + in_offsets_[v],
            in_weights_.data() + in_offsets_[v + 1]};
  }

  /// \brief Total out-weight of u (equals OutDegree(u) when unweighted).
  /// This is the normalizer of u's transition probabilities.
  double OutWeightSum(uint32_t u) const {
    return out_weights_.empty() ? static_cast<double>(OutDegree(u))
                                : out_weight_sums_[u];
  }

  /// \brief The artificial sink node added by DanglingPolicy::kAddSink, if
  /// any. The sink has a self-loop and absorbs walks from former dangling
  /// nodes (paper Section 2.1, footnote 1).
  std::optional<uint32_t> sink_node() const { return sink_node_; }

  /// \brief Mapping internal id -> id in the input edge list, non-empty only
  /// when DanglingPolicy::kRemove compacted ids.
  const std::vector<uint32_t>& original_ids() const { return original_ids_; }

  /// \brief Largest out-degree over all nodes (0 for the empty graph).
  uint32_t MaxOutDegree() const;

  /// \brief Largest in-degree over all nodes (0 for the empty graph).
  uint32_t MaxInDegree() const;

  /// \brief Heap bytes used by the CSR arrays.
  uint64_t MemoryBytes() const;

  /// \brief One-line summary, e.g. "Graph(n=9914, m=36854, weighted=no)".
  std::string ToString() const;

  /// \brief The graph equal to `base` except that each row of `rows`
  /// replaces the out-row of its node. Untouched out-rows are copied
  /// whole and the in-CSR is rebuilt, so the cost is O(n + m) copying with
  /// no sort. The result is weighted iff some edge weight differs from 1
  /// (GraphBuilder's rule), and records no sink node and no original ids.
  ///
  /// Unvalidated: `rows` must be sorted by node, unique, in range, and
  /// each row must satisfy OutRow's contract.
  static Graph SpliceOutRows(const Graph& base,
                             std::span<const OutRow> rows);

 private:
  friend class GraphBuilder;

  // Counting transpose of the out-CSR into in_offsets_ / in_sources_ /
  // in_weights_ (sources ascending within each in-row; weights only when
  // the graph is weighted).
  void BuildInCsr();

  uint32_t num_nodes_ = 0;
  std::vector<uint64_t> out_offsets_{0};
  std::vector<uint32_t> out_targets_;
  std::vector<double> out_weights_;      // empty when unweighted
  std::vector<double> out_weight_sums_;  // empty when unweighted
  std::vector<uint64_t> in_offsets_{0};
  std::vector<uint32_t> in_sources_;
  std::vector<double> in_weights_;  // empty when unweighted
  std::optional<uint32_t> sink_node_;
  std::vector<uint32_t> original_ids_;
};

}  // namespace rtk

#endif  // RTK_GRAPH_GRAPH_H_
