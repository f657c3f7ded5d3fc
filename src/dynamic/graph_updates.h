// Edge-level updates for evolving graphs (the paper's Section 7 future
// work: "extend our method to do reverse top-k search on evolving graphs.
// The key challenge is how to maintain the index incrementally").
//
// This module provides the graph-side primitives: applying a batch of edge
// insertions / deletions / re-weightings to an immutable CSR graph (by
// splicing the modified sources' out-rows into a copy of the CSR, see
// ApplyEdgeUpdates), and computing which proximity columns an update batch
// can affect.
//
// Affected-set soundness. p_u can change only if a walk from u traverses
// the out-distribution of a node whose out-edges changed ("modified
// source"; note that inserting, deleting, or re-weighting any out-edge of s
// renormalizes ALL of s's transition probabilities). Take any changed walk
// and its first modified traversal, at node s: the walk prefix u -> ... ->
// s uses only edges present in both the old and new graph, so u reaches s
// in the NEW graph. Hence
//
//     { u : p_u changes }  is a subset of
//     ReverseReachableFrom(new graph, modified sources),
//
// which is what the mutation drain repairs; everything outside the set
// keeps its index state verbatim (its residue and hub ink live only on
// nodes it can reach, all unaffected).

#ifndef RTK_DYNAMIC_GRAPH_UPDATES_H_
#define RTK_DYNAMIC_GRAPH_UPDATES_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace rtk {

/// \brief One edge mutation.
struct EdgeUpdate {
  enum class Kind {
    /// Add edge src -> dst (InvalidArgument if it already exists).
    kInsert,
    /// Remove edge src -> dst (NotFound if absent).
    kDelete,
    /// Change the weight of existing edge src -> dst (NotFound if absent).
    kSetWeight,
  };

  Kind kind = Kind::kInsert;
  uint32_t src = 0;
  uint32_t dst = 0;
  /// Weight for kInsert / kSetWeight (must be > 0); ignored for kDelete.
  double weight = 1.0;

  static EdgeUpdate Insert(uint32_t src, uint32_t dst, double weight = 1.0) {
    return {Kind::kInsert, src, dst, weight};
  }
  static EdgeUpdate Delete(uint32_t src, uint32_t dst) {
    return {Kind::kDelete, src, dst, 0.0};
  }
  static EdgeUpdate SetWeight(uint32_t src, uint32_t dst, double weight) {
    return {Kind::kSetWeight, src, dst, weight};
  }
};

/// \brief Applies a batch of updates to `graph` by splicing CSR rows.
///
/// Only the out-rows of modified sources are materialized; the updates
/// fold into them in batch order, so e.g. delete-then-insert of the same
/// edge is legal within one batch. Graph::SpliceOutRows then copies every
/// untouched out-row whole and rebuilds the in-CSR: O(n + m) copying with
/// no sort, plus O(degree) per update. The result equals a GraphBuilder
/// rebuild of the final edge set, array for array: the graph is weighted
/// iff some final weight differs from 1, and it records no sink node and
/// no original ids.
///
/// The node set is fixed: endpoints must be in range, and the dangling
/// policy must preserve ids (kError or kSelfLoop — kRemove renumbers and
/// kAddSink grows n, both of which would desynchronize any index built on
/// the old graph; they are rejected). `options.parallel_edges` is ignored:
/// an insert of an existing edge is an error whatever the policy.
///
/// Errors, first match wins: InvalidArgument for the dangling policy;
/// then per update in batch order InvalidArgument (endpoint range,
/// weight <= 0 or NaN, insert of an existing edge) or NotFound (delete or
/// re-weight of a missing edge); then GraphBuilder::Build's checks on the
/// final edge set in (src, dst) order (a +inf weight, a self-loop when
/// !allow_self_loops — old ones included); then the first row left empty
/// under kError.
Result<Graph> ApplyEdgeUpdates(const Graph& graph,
                               const std::vector<EdgeUpdate>& updates,
                               const GraphBuilderOptions& options = {
                                   .dangling_policy = DanglingPolicy::kSelfLoop,
                                   .parallel_edges = ParallelEdgePolicy::kError,
                                   .allow_self_loops = true});

/// \brief Sorted unique sources whose out-distribution an update batch
/// modifies. Includes nodes made dangling by deletions (their self-loop fix
/// also changes their distribution) automatically, since they are sources
/// of deleted edges.
std::vector<uint32_t> ModifiedSources(const std::vector<EdgeUpdate>& updates);

/// \brief Result of a (possibly truncated) reverse reachability sweep.
struct ReverseReachability {
  /// Sorted node ids that can reach at least one seed (seeds included).
  std::vector<uint32_t> nodes;
  /// True when the sweep stopped early because `max_nodes` was hit; the
  /// node list is then a subset and the caller must fall back to treating
  /// every node as affected.
  bool truncated = false;
};

/// \brief BFS over in-edges from `seeds` (sorted unique ids): every node
/// that can reach a seed. Stops early once more than `max_nodes` nodes are
/// found (0 = unlimited).
ReverseReachability ReverseReachableFrom(const Graph& graph,
                                         const std::vector<uint32_t>& seeds,
                                         uint32_t max_nodes = 0);

}  // namespace rtk

#endif  // RTK_DYNAMIC_GRAPH_UPDATES_H_
