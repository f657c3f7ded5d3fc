// Bookmark Coloring Algorithm (Berkhin [7]) with hubs, including the
// paper's batched propagation strategy (Section 4.1.2, Eq. 8-9).
//
// BCA models RWR as ink propagation: a unit of ink injected at u; every
// node retains an alpha fraction of arriving ink and forwards the rest
// along its out-edges. Three vectors track a partially-run BCA from u:
//   r (residue)  - ink waiting to be propagated (may include ink parked at
//                  hubs that has not been absorbed yet),
//   w (retained) - ink permanently retained at non-hub nodes,
//   s (hub ink)  - ink absorbed by hubs, distributed at materialization
//                  time through the precomputed hub vectors (Eq. 7).
// Following the paper's Eq. (6) exactly, ink that arrives at a hub stays in
// the residue until the START of the next iteration, when it is moved to s;
// it therefore counts toward |r|_1 for the termination test, and a run may
// end with unabsorbed hub ink (Figure 2's |r_4| = 0.36 is such leftover).
// Invariant (no dangling nodes): |w| + |s| + |r| = 1 at every step, and the
// approximation p^t = w + P_H s is an entrywise monotone lower bound of p_u
// (Propositions 1-2), which is what makes the index sound.

#ifndef RTK_BCA_BCA_H_
#define RTK_BCA_BCA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "bca/bca_state.h"
#include "bca/hub_proximity_store.h"
#include "common/result.h"
#include "common/sparse_accumulator.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Knobs of a BCA run (paper defaults from Section 5.2).
struct BcaOptions {
  /// Restart probability.
  double alpha = 0.15;
  /// Propagation threshold eta: only nodes with residue >= eta are pushed.
  double eta = 1e-4;
  /// Residue threshold delta: the run stops once |r|_1 <= delta.
  double delta = 0.1;
  /// Safety cap on iterations.
  int max_iterations = 100000;
};

/// \brief Ink propagation strategy (ablation axis).
enum class PushStrategy {
  /// Paper Section 4.1.2: push every node with residue >= eta per iteration.
  kBatch,
  /// Berkhin [7]: push only the single node with the largest residue.
  kSingleMax,
  /// Andersen et al. [2]: push one node with residue >= eta (FIFO order).
  kThresholdQueue,
};

/// \brief Runs (and resumes) BCA for one node at a time over a fixed graph
/// and hub set. Holds O(n) workspaces, so construct once and reuse across
/// nodes; not thread-safe (use one runner per thread).
class BcaRunner {
 public:
  /// `hubs` must be sorted unique node ids. The operator must outlive the
  /// runner.
  BcaRunner(const TransitionOperator& op, const std::vector<uint32_t>& hubs,
            const BcaOptions& options);

  const BcaOptions& options() const { return options_; }

  /// \brief True if v is a hub.
  bool IsHub(uint32_t v) const { return is_hub_[v]; }

  /// \brief Resets the workspace to the initial state for source node u:
  /// unit residue ink at u (even when u is a hub; the first Step absorbs it).
  void Start(uint32_t u);

  /// \brief Loads a previously extracted state (e.g. from the index) so it
  /// can be refined further. Corruption, loading nothing, when a hub-ink
  /// entry names a node that is not a hub: the state does not belong to
  /// this hub set (a stored record's ids are only checked against n).
  Status Load(const StoredBcaState& state);

  /// \brief Snapshots the workspace into one state record (bca_state.h):
  /// each list keeps its positive entries in ascending id order. Null for
  /// the empty state.
  SharedBcaState Extract() const;

  /// \brief Executes one propagation iteration with the given strategy:
  /// first moves all residue parked at hubs into s (Eq. 6), then pushes the
  /// strategy's selection of non-hub nodes (Eq. 8-9). Returns the number of
  /// nodes pushed plus hubs absorbed; 0 means the iteration could make no
  /// progress (kSingleMax pushes the max-residue node even below eta, so 0
  /// there means the residue is exhausted).
  size_t Step(PushStrategy strategy = PushStrategy::kBatch);

  /// \brief Number of non-hub nodes pushed by the most recent Step()
  /// (absorptions excluded). Zero for an absorption-only iteration — the
  /// signal the online query's stall cut-over watches, since such
  /// iterations cannot recur indefinitely yet keep Step()'s return
  /// positive.
  size_t last_step_pushed() const { return last_step_pushed_; }

  /// \brief Steps until |r|_1 <= delta, no pushable node remains, or
  /// max_iterations is hit. Returns the number of iterations executed.
  int RunToTermination(PushStrategy strategy = PushStrategy::kBatch);

  /// \brief Current |r|_1 (exactly 0 when the run is complete).
  double ResidueL1() const { return residue_l1_; }

  /// \brief Iterations executed since Start()/Load() origin (cumulative).
  uint32_t iterations() const { return iterations_; }

  /// \brief Materializes the lower-bound approximation
  /// p^t = w + P_H s (Eq. 7) as a dense vector.
  void MaterializeApprox(const HubProximityStore& store,
                         std::vector<double>* out) const;

  /// \brief The K largest entries of p^t in descending value order (ties
  /// toward smaller ids). O(nnz(w) + sum of hub vector sizes) per call —
  /// or O(nnz(p^t)) when approx tracking is on. Untracked calls scatter
  /// into a dense workspace: each entry sums the same terms in the same
  /// order as the tracked accumulator, so both modes agree bit for bit.
  std::vector<std::pair<uint32_t, double>> TopKApprox(
      const HubProximityStore& store, size_t k) const;

  /// \brief Switches to incremental materialization: p^t is kept up to
  /// date across Step() calls (pushes add retained ink, absorptions expand
  /// the hub's vector once), so repeated TopKApprox calls during query
  /// refinement avoid re-expanding every hub vector. The store must
  /// outlive tracking; tracking ends on Start()/Load().
  void BeginApproxTracking(const HubProximityStore& store);

 private:
  void PushNodes(const std::vector<uint32_t>& nodes);
  size_t AbsorbHubResidue();
  void RebuildApprox(const HubProximityStore& store) const;

  const TransitionOperator* op_;
  BcaOptions options_;
  std::vector<uint8_t> is_hub_;
  SparseAccumulator residue_;
  SparseAccumulator retained_;
  SparseAccumulator hub_ink_;
  double residue_l1_ = 0.0;
  uint32_t iterations_ = 0;
  size_t last_step_pushed_ = 0;
  // Scratch reused by Step to collect the push set.
  std::vector<uint32_t> push_list_;
  // Scratch reused by Extract: the three lists' ids, segment by segment.
  mutable std::vector<uint32_t> extract_ids_;
  // Authoritative p^t while tracking_store_ is set.
  mutable SparseAccumulator approx_;
  // All-zero between calls; the untracked TopKApprox scatters p^t here.
  mutable std::vector<double> dense_;
  const HubProximityStore* tracking_store_ = nullptr;
};

}  // namespace rtk

#endif  // RTK_BCA_BCA_H_
