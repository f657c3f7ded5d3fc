// Tiered proximity backends: the pluggable stage-1 estimators behind the
// ProximityBackend seam (exec/proximity_stage.h), plus the name-keyed
// factory that pipelines, the serving layer, benches and the CLI use to
// construct them from configuration.
//
// Registered backends:
//   "pmpn"        exact (Algorithm 2); zero error, the refinement anchor.
//                 ComputeMulti solves a batch in one graph pass per
//                 iteration; Compute is its B = 1 lane. "batched-pmpn" is
//                 an alias that builds this same backend
//   "monte-carlo" endpoint walks from every source node; per-entry
//                 empirical-Bernstein error bounds that hold w.h.p. —
//                 statistically weak for whole-column estimation (the
//                 Section 6.1 argument), shipped as the related-work
//                 baseline the benches quantify
//   "local-push"  reverse residue push (Section 4.2.1 related work [1]);
//                 deterministic one-sided certificate: estimates are LOWER
//                 bounds with p_u(q) <= estimate + eps where
//                 eps = min(max_residual, residual_l1) / alpha
//
// The error certificates are what make an approximate row safe to serve:
// the prune stage widens its bound comparisons by them, producing a
// CERTIFIED superset of the exact candidate set — nodes whose
// classification is not determined by the interval come back as
// "undecided", and the pipeline escalates to PMPN (exact tier) or drops
// them (hits-only tier). See exec/query_pipeline.h for the escalation
// contract.

#ifndef RTK_EXEC_PROXIMITY_BACKENDS_H_
#define RTK_EXEC_PROXIMITY_BACKENDS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/proximity_stage.h"
#include "rwr/monte_carlo.h"
#include "rwr/local_push.h"
#include "rwr/reverse_adjacency.h"
#include "rwr/transition.h"

namespace rtk {

inline constexpr std::string_view kPmpnBackendName = "pmpn";
inline constexpr std::string_view kBatchedPmpnBackendName = "batched-pmpn";
inline constexpr std::string_view kMonteCarloBackendName = "monte-carlo";
inline constexpr std::string_view kLocalPushBackendName = "local-push";

/// \brief Backend knobs are the estimators' own option structs — one
/// source of truth for fields and defaults. The `alpha` member of each is
/// IGNORED here: every Compute call overwrites it with the index's restart
/// probability (via the per-call RwrOptions), so a config can never
/// diverge from the stored bounds.
using MonteCarloBackendOptions = MonteCarloColumnOptions;
using LocalPushBackendOptions = LocalPushOptions;

/// \brief Name-keyed backend selection, carried by QueryOptions and the
/// serving layer's per-tier configuration. An empty name means "the
/// pipeline's default backend" (PMPN unless overridden).
struct ProximityBackendConfig {
  std::string name;
  MonteCarloBackendOptions monte_carlo;
  LocalPushBackendOptions local_push;
  bool operator==(const ProximityBackendConfig&) const = default;
};

/// \brief Backend names, in registration order (each appears once; the
/// "batched-pmpn" alias is accepted by the factory but not listed).
std::vector<std::string_view> RegisteredProximityBackendNames();

/// \brief Whether `name` selects the exact PMPN backend: "" (the default),
/// "pmpn", or its alias "batched-pmpn". The one place the alias is mapped.
bool IsPmpnBackendName(std::string_view name);

/// \brief Per-operator memo of the O(n+m) reverse-adjacency view. Returns
/// the live view for `op` if any backend still holds it, else builds one.
/// Thread-safe. Sound under the library-wide contract that an operator
/// outlives every backend built on it: an expired slot can never alias a
/// dead operator's view.
std::shared_ptr<const ReverseTransitionView> SharedReverseTransitionView(
    const TransitionOperator& op);

/// \brief Constructs the backend `config.name` refers to ("" and
/// "batched-pmpn" = "pmpn"). Returns InvalidArgument (listing the
/// registered names) for unknown names. The operator must outlive the
/// backend.
Result<std::unique_ptr<ProximityBackend>> MakeProximityBackend(
    const TransitionOperator& op, const ProximityBackendConfig& config);

/// \brief Process-wide count of MakeProximityBackend calls (monotone;
/// regression observable: engines must parse/construct each configured
/// backend once at setup, not once per pooled searcher on the hot path —
/// tests snapshot the counter around construction and traffic).
uint64_t ProximityBackendBuildCount();

/// \brief An immutable, engine-owned catalog of backends constructed once
/// from the serving tier configs, shared read-only by every pooled
/// searcher's pipeline (Compute is const and stateless, so concurrent use
/// is safe). A pipeline consults it in ResolveBackend before building a
/// private cache entry; a config that no catalog entry matches exactly
/// (e.g. a controller-scaled Monte-Carlo budget) falls back to the
/// per-pipeline cache as before.
struct SharedProximityBackends {
  struct Entry {
    ProximityBackendConfig config;
    std::unique_ptr<ProximityBackend> backend;
  };
  std::vector<Entry> entries;

  /// Exact-config match, or null. (unique_ptr::get() through const access
  /// intentionally yields a usable ProximityBackend*.)
  ProximityBackend* Find(const ProximityBackendConfig& config) const {
    for (const Entry& entry : entries) {
      if (entry.config == config) return entry.backend.get();
    }
    return nullptr;
  }
};

/// \brief The exact backend: PMPN (Algorithm 2) through the fused solver
/// (rwr/pmpn_multi.h). ComputeMulti runs ALL lanes through one
/// blocked-SpMM iteration — one CSR pass per iteration feeds every lane's
/// accumulator, which is where batched serving throughput comes from —
/// and Compute is the same solver's B = 1 lane. Every lane's row,
/// iteration count and convergence behavior are bitwise identical to a
/// solo Compute, so batching is purely a scheduling decision: results,
/// certificates and refinement write-backs cannot differ from an
/// unbatched run.
class PmpnProximityBackend final : public ProximityBackend {
 public:
  /// The operator must outlive the backend.
  explicit PmpnProximityBackend(const TransitionOperator& op) : op_(&op) {}

  Result<ProximityRow> Compute(uint32_t q, const RwrOptions& options,
                               ThreadPool* pool,
                               int max_parallelism) const override;

  std::vector<ProximityLaneOutcome> ComputeMulti(
      const std::vector<ProximityLaneSpec>& lanes, const RwrOptions& options,
      ThreadPool* pool, int max_parallelism) const override;

  bool fused_multi() const override { return true; }
  bool exact() const override { return true; }
  std::string_view name() const override { return kPmpnBackendName; }

 private:
  const TransitionOperator* op_;
};

/// \brief Monte-Carlo adapter over MonteCarloProximityColumn(): per-source
/// endpoint walks with per-entry empirical-Bernstein bounds (w.h.p., so
/// ProximityRow::certified is false). Deterministic for a fixed seed at
/// every thread count.
class MonteCarloProximityBackend final : public ProximityBackend {
 public:
  MonteCarloProximityBackend(const TransitionOperator& op,
                             const MonteCarloBackendOptions& options)
      : op_(&op), options_(options) {}

  Result<ProximityRow> Compute(uint32_t q, const RwrOptions& options,
                               ThreadPool* pool,
                               int max_parallelism) const override;

  bool exact() const override { return false; }
  std::string_view name() const override { return kMonteCarloBackendName; }
  const MonteCarloBackendOptions& options() const { return options_; }

 private:
  const TransitionOperator* op_;
  MonteCarloBackendOptions options_;
};

/// \brief Local-push adapter over ApproximateContributions(): reverse
/// residue push whose estimates are deterministic LOWER bounds of the true
/// proximities with a certified one-sided gap (eps_below = 0,
/// eps_above = min(max_residual, residual_l1) / alpha — both follow from
/// the nonnegative inverse with row/entry sums bounded by 1/alpha, see
/// rwr/local_push.h). Work is local to nodes that can reach q, so this is
/// the fast tier of choice. Serial per call (the push frontier is
/// inherently sequential). The ReverseTransitionView costs one O(m) pass
/// but depends only on the operator, so instances share it through a
/// per-operator memo (SharedReverseTransitionView) — serving searcher
/// pools that rebuild their backends every epoch do not re-pay it.
class LocalPushProximityBackend final : public ProximityBackend {
 public:
  LocalPushProximityBackend(const TransitionOperator& op,
                            const LocalPushBackendOptions& options)
      : view_(SharedReverseTransitionView(op)), options_(options) {}

  Result<ProximityRow> Compute(uint32_t q, const RwrOptions& options,
                               ThreadPool* pool,
                               int max_parallelism) const override;

  bool exact() const override { return false; }
  std::string_view name() const override { return kLocalPushBackendName; }
  const LocalPushBackendOptions& options() const { return options_; }

 private:
  std::shared_ptr<const ReverseTransitionView> view_;
  LocalPushBackendOptions options_;
};

}  // namespace rtk

#endif  // RTK_EXEC_PROXIMITY_BACKENDS_H_
