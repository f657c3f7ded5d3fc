// ProximityStage — stage 1 of the query pipeline (Algorithm 4 line 1):
// compute p_{q,*}, the proximity from every node to the query node q.
//
// The stage is a seam: ProximityBackend abstracts HOW the row is obtained.
// The exact backend is PMPN (the paper's Algorithm 2, PmpnProximityBackend
// in exec/proximity_backends.h), whose one fused solver serves a single
// query as its B = 1 lane and a batch as one blocked-SpMM pass per
// iteration. Approximate backends (Monte-Carlo walks, reverse local push,
// same header) return the row together with an additive error
// certificate, which the prune stage uses to widen its bound comparisons:
// every node whose classification is not certain under the reported error
// interval is flagged instead of silently misclassified, and the pipeline
// either escalates to PMPN (exact tier) or drops it (hits-only tier). The
// refine stage always consumes an exact row.

#ifndef RTK_EXEC_PROXIMITY_STAGE_H_
#define RTK_EXEC_PROXIMITY_STAGE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "rwr/transition.h"

namespace rtk {

/// \brief Stage-1 output: the proximity row plus its error certificate and
/// the backend's work counters.
///
/// The certificate is an additive interval around every entry: the true
/// proximity p_u(q) satisfies
///
///     values[u] - eps_below(u)  <=  p_u(q)  <=  values[u] + eps_above(u)
///
/// where eps_below(u)/eps_above(u) are the scalar bounds unless the
/// optional per-node vector is present (then eps_node[u] bounds both sides
/// and is typically much tighter for entries the backend estimated as 0).
/// Exact backends report zero error; one-sided estimators (local push
/// produces lower bounds) report eps_below = 0 with a positive eps_above.
struct ProximityRow {
  /// Element u estimates p_u(q), the proximity from u to q.
  std::vector<double> values;
  /// Uniform additive bounds: p_u(q) >= values[u] - eps_below and
  /// p_u(q) <= values[u] + eps_above for every u. 0/0 asserts exactness.
  double eps_below = 0.0;
  double eps_above = 0.0;
  /// Optional symmetric per-node bound |p_u(q) - values[u]| <= eps_node[u];
  /// when non-empty it overrides the scalars (which then report the max).
  std::vector<double> eps_node;
  /// True when the bounds are deterministic guarantees (PMPN, local push);
  /// false when they hold with high probability only (Monte-Carlo).
  bool certified = true;
  /// Backend work counters (whichever apply): PMPN iterations, Monte-Carlo
  /// walks simulated, local-push node pushes.
  int iterations = 0;
  uint64_t walks = 0;
  uint64_t pushes = 0;

  /// \brief An exact row needs no widened comparisons anywhere.
  bool exact() const {
    return eps_below == 0.0 && eps_above == 0.0 && eps_node.empty();
  }
};

/// \brief One query of a multi-query (batched) stage-1 call: the query
/// node plus an optional abort control (null = never aborts). Fused
/// backends poll the control between iterations; the default sequential
/// fallback polls it before each lane's solve.
struct ProximityLaneSpec {
  uint32_t query = 0;
  const ExecControl* control = nullptr;
};

/// \brief One lane's outcome of a multi-query stage-1 call. `status` is OK
/// when `row` is a complete result (then it obeys the same certificate
/// contract as Compute), or the per-lane failure/abort code — a tripped
/// lane never disturbs its siblings.
struct ProximityLaneOutcome {
  Status status;
  ProximityRow row;
};

/// \brief Strategy interface producing the to-q proximity row. Backends
/// must be stateless w.r.t. queries (safe to reuse across calls from one
/// pipeline; the pipeline serializes calls on itself).
class ProximityBackend {
 public:
  virtual ~ProximityBackend() = default;

  /// \brief Computes the row p_{*,q} (element u is the proximity from u to
  /// q) with its error certificate. `options.alpha` is the index's restart
  /// probability and binds every backend; the remaining RwrOptions fields
  /// only concern iterative exact solvers. `pool` may be used for
  /// intra-call parallelism (null = serial); implementations must return
  /// identical values at every thread count.
  virtual Result<ProximityRow> Compute(uint32_t q, const RwrOptions& options,
                                       ThreadPool* pool,
                                       int max_parallelism) const = 0;

  /// \brief Computes rows for several queries in one call. The default is
  /// a sequential loop of Compute — correct for every backend, amortizing
  /// nothing; backends that can fuse the work across lanes (one graph pass
  /// feeding every query, see PmpnProximityBackend) override it and
  /// report fused_multi() == true so the serving batch former knows
  /// gathering a batch actually pays. Each lane's row must be IDENTICAL to
  /// what Compute(lane.query, ...) would return; a lane whose control trips
  /// reports the abort in its own slot and leaves its siblings untouched.
  virtual std::vector<ProximityLaneOutcome> ComputeMulti(
      const std::vector<ProximityLaneSpec>& lanes, const RwrOptions& options,
      ThreadPool* pool, int max_parallelism) const {
    std::vector<ProximityLaneOutcome> out(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
      const ExecControl* control = lanes[i].control;
      if (control != nullptr && control->active()) {
        if (Status tripped = control->Check(); !tripped.ok()) {
          out[i].status = std::move(tripped);
          continue;
        }
      }
      Result<ProximityRow> row =
          Compute(lanes[i].query, options, pool, max_parallelism);
      if (row.ok()) {
        out[i].row = std::move(row).value();
      } else {
        out[i].status = row.status();
      }
    }
    return out;
  }

  /// \brief True when ComputeMulti amortizes graph traversal across lanes
  /// instead of looping Compute. Batching only helps for such backends.
  virtual bool fused_multi() const { return false; }

  /// \brief Whether every row this backend produces is exact. Approximate
  /// backends trade Problem 1's exactness guarantee for speed; the
  /// pipeline keys its certify-or-escalate logic off the per-row
  /// certificate (ProximityRow::exact()), not this flag.
  virtual bool exact() const = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace rtk

#endif  // RTK_EXEC_PROXIMITY_STAGE_H_
