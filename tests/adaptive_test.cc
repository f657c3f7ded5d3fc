// Self-tuning approximation (PR 10): partial escalation, the feedback
// budget controller, and bound-targeted epsilon.
//
//   * BudgetController unit behaviour: AIMD rule, clamp, decay, reset.
//   * Partial escalation is byte-identical — results AND post-query index
//     state — to both the pure PMPN pipeline and the full-escalation
//     path, at every thread count and for every approximate backend.
//     Exactness is load-bearing: targeted settles only ever CERTIFY
//     verdicts the exact pipeline would reach, never replace them.
//   * The serving engine's adaptive loop learns a budget scale from
//     escalation feedback and resets it on a mutation publish.
//   * Regression: engine construction parses each backend config exactly
//     once (shared catalog); serving traffic never re-parses, and PMPN
//     tiers (batched or not) never build a backend at all.
// Part of the ci.sh TSan and ASan legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "exec/proximity_backends.h"
#include "graph/generators.h"
#include "serving/budget_controller.h"
#include "serving/mutation_log.h"
#include "serving/serving_engine.h"

namespace rtk {
namespace {

// Coarse BCA options leave fat residues in the index, so queries refine
// and escalations actually fire (matches proximity_backend_test.cc).
EngineOptions CoarseOptions() {
  EngineOptions opts;
  opts.capacity_k = 20;
  opts.hub_selection.degree_budget_b = 5;
  opts.bca.delta = 0.5;
  opts.num_threads = 2;
  opts.shard_nodes = 32;
  return opts;
}

Result<std::unique_ptr<ReverseTopkEngine>> BuildTestEngine(uint64_t seed) {
  Rng rng(seed);
  auto graph = BarabasiAlbert(250, 3, &rng);
  if (!graph.ok()) return graph.status();
  return ReverseTopkEngine::Build(std::move(*graph), CoarseOptions());
}

void ExpectIndexStateIdentical(const LowerBoundIndex& a,
                               const LowerBoundIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (uint32_t s = 0; s < a.num_shards(); ++s) {
    const auto bounds_a = a.ShardLowerBounds(s);
    const auto bounds_b = b.ShardLowerBounds(s);
    ASSERT_EQ(bounds_a.size(), bounds_b.size());
    EXPECT_EQ(0, std::memcmp(bounds_a.data(), bounds_b.data(),
                             bounds_a.size() * sizeof(double)))
        << "lower-bound shard " << s << " diverged";
    const auto residues_a = a.ShardResidues(s);
    const auto residues_b = b.ShardResidues(s);
    ASSERT_EQ(residues_a.size(), residues_b.size());
    EXPECT_EQ(0, std::memcmp(residues_a.data(), residues_b.data(),
                             residues_a.size() * sizeof(double)))
        << "residue shard " << s << " diverged";
  }
  for (uint32_t u = 0; u < a.num_nodes(); ++u) {
    const StoredBcaState& state_a = a.State(u);
    const StoredBcaState& state_b = b.State(u);
    ASSERT_EQ(state_a.residue().ToPairs(),
              state_b.residue().ToPairs())
        << "u=" << u;
    ASSERT_EQ(state_a.retained().ToPairs(),
              state_b.retained().ToPairs())
        << "u=" << u;
    ASSERT_EQ(state_a.hub_ink().ToPairs(),
              state_b.hub_ink().ToPairs())
        << "u=" << u;
  }
}

// ---------------------------------------------------------------------------
// BudgetController: the feedback rule itself

// The rule's constants (budget_controller.cc): x2 on a full escalation,
// x1.25 on a partial one, decay 0.98 of the excess per certified answer,
// clamp at 64.
TEST(BudgetControllerTest, AimdRuleScalesClampsAndDecays) {
  BudgetController controller;

  // Unknown backend: neutral scale.
  EXPECT_DOUBLE_EQ(controller.ScaleFor("local-push"), 1.0);

  // Full escalations double the scale up to the clamp.
  controller.Record("local-push", EscalationMode::kFull);
  EXPECT_DOUBLE_EQ(controller.ScaleFor("local-push"), 2.0);
  controller.Record("local-push", EscalationMode::kFull);
  EXPECT_DOUBLE_EQ(controller.ScaleFor("local-push"), 4.0);
  for (int i = 0; i < 5; ++i) {
    controller.Record("local-push", EscalationMode::kFull);
  }
  EXPECT_DOUBLE_EQ(controller.ScaleFor("local-push"), 64.0);  // clamped

  // Partial escalation: gentle nudge, still clamped.
  controller.Record("monte-carlo", EscalationMode::kPartial);
  EXPECT_DOUBLE_EQ(controller.ScaleFor("monte-carlo"), 1.25);

  // Certified answers decay the EXCESS over 1.0, never below 1.0:
  // 63 * 0.98^1001 is about 1e-7.
  controller.Record("local-push", EscalationMode::kNone);
  EXPECT_DOUBLE_EQ(controller.ScaleFor("local-push"), 1.0 + 63.0 * 0.98);
  for (int i = 0; i < 1000; ++i) {
    controller.Record("local-push", EscalationMode::kNone);
  }
  EXPECT_GE(controller.ScaleFor("local-push"), 1.0);
  EXPECT_LT(controller.ScaleFor("local-push"), 1.0 + 1e-6);

  // Per-backend isolation: monte-carlo never saw local-push's feedback.
  EXPECT_DOUBLE_EQ(controller.ScaleFor("monte-carlo"), 1.25);

  const auto snapshot = controller.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].backend, "local-push");
  EXPECT_EQ(snapshot[0].full_escalations, 7u);
  EXPECT_EQ(snapshot[0].certified, 1001u);
  EXPECT_EQ(snapshot[1].backend, "monte-carlo");
  EXPECT_EQ(snapshot[1].partial_escalations, 1u);

  // Reset: state gone, scale neutral (the serving engine counts resets in
  // rtk_serving_adaptive_budget_resets_total).
  controller.Reset();
  EXPECT_TRUE(controller.Snapshot().empty());
  EXPECT_DOUBLE_EQ(controller.ScaleFor("local-push"), 1.0);
}

// ---------------------------------------------------------------------------
// Partial escalation: byte-identity against PMPN and full escalation

// Runs the same (query, thread-count) sequence through three engines —
// pure PMPN baseline, partial escalation (+ bound-targeted epsilon), and
// forced full escalation — and demands identical results at every step
// plus identical final index state.
void ExpectPartialEscalationByteIdentical(const ProximityBackendConfig& config,
                                          EscalationMode expected_mode) {
  auto baseline_engine = BuildTestEngine(71);
  auto partial_engine = BuildTestEngine(71);
  auto full_engine = BuildTestEngine(71);
  ASSERT_TRUE(baseline_engine.ok() && partial_engine.ok() && full_engine.ok());

  QueryOptions exact_opts;
  exact_opts.k = 5;

  QueryOptions partial_opts = exact_opts;
  partial_opts.proximity = config;
  partial_opts.partial_escalation = true;
  partial_opts.bound_targeted_epsilon = true;

  QueryOptions full_opts = exact_opts;
  full_opts.proximity = config;
  full_opts.partial_escalation = false;

  uint64_t partial_modes = 0;
  uint64_t full_modes = 0;
  for (uint32_t q = 0; q < 36; ++q) {
    for (int threads : {1, 2, 8}) {
      exact_opts.num_threads = threads;
      partial_opts.num_threads = threads;
      full_opts.num_threads = threads;
      QueryStats partial_stats;
      QueryStats full_stats;
      auto expected = (*baseline_engine)->QueryWithOptions(q, exact_opts);
      auto partial = (*partial_engine)
                         ->QueryWithOptions(q, partial_opts, &partial_stats);
      auto full = (*full_engine)->QueryWithOptions(q, full_opts, &full_stats);
      ASSERT_TRUE(expected.ok() && partial.ok() && full.ok())
          << "q=" << q << " threads=" << threads;
      EXPECT_EQ(*expected, *partial) << "q=" << q << " threads=" << threads;
      EXPECT_EQ(*expected, *full) << "q=" << q << " threads=" << threads;
      partial_modes +=
          partial_stats.escalation_mode == EscalationMode::kPartial ? 1 : 0;
      full_modes +=
          full_stats.escalation_mode == EscalationMode::kFull ? 1 : 0;
      // (escalated_nodes can differ between the two tiered engines: the
      // partial engine's bound-targeted epsilon reshapes the uncertain
      // set. Byte-identity of results and index state is the contract.)
      if (partial_stats.escalation_mode == EscalationMode::kPartial) {
        EXPECT_GT(partial_stats.escalated_nodes, 0u);
        // settle_pushes can legitimately be 0: the reachability fast path
        // decides sign-only nodes without any bracket pushes.
        EXPECT_FALSE(partial_stats.escalated);  // full escalations only
        EXPECT_EQ(partial_stats.backend, config.name);
      }
    }
  }
  // The sweep must actually exercise the mode under test, or the
  // byte-identity claim is vacuous.
  if (expected_mode == EscalationMode::kPartial) EXPECT_GT(partial_modes, 0u);
  EXPECT_GT(full_modes, 0u);

  ExpectIndexStateIdentical((*baseline_engine)->index(),
                            (*partial_engine)->index());
  ExpectIndexStateIdentical((*baseline_engine)->index(),
                            (*full_engine)->index());
}

TEST(PartialEscalationTest, LocalPushByteIdenticalAcrossThreadCounts) {
  ProximityBackendConfig config;
  config.name = std::string(kLocalPushBackendName);
  // Sloppy certificate: plenty of uncertain nodes for targeted settles.
  config.local_push.epsilon = 1e-2;
  ExpectPartialEscalationByteIdentical(config, EscalationMode::kPartial);
}

TEST(PartialEscalationTest, MonteCarloAlwaysFullEscalates) {
  ProximityBackendConfig config;
  config.name = std::string(kMonteCarloBackendName);
  config.monte_carlo.walks_per_node = 64;
  // Monte-Carlo rows carry probabilistic (uncertified) bounds, so partial
  // escalation must refuse them and fall through to the full exact re-run.
  ExpectPartialEscalationByteIdentical(config, EscalationMode::kFull);
}

TEST(PartialEscalationTest, SettlePushCountIsThreadInvariant) {
  auto engine = BuildTestEngine(72);
  ASSERT_TRUE(engine.ok());
  QueryOptions opts;
  opts.k = 5;
  opts.update_index = false;  // frozen index: runs are comparable
  opts.proximity.name = std::string(kLocalPushBackendName);
  opts.proximity.local_push.epsilon = 1e-2;

  for (uint32_t q : {2u, 19u, 44u}) {
    uint64_t reference_pushes = 0;
    EscalationMode reference_mode = EscalationMode::kNone;
    for (int threads : {1, 2, 8}) {
      opts.num_threads = threads;
      QueryStats stats;
      auto result = (*engine)->QueryWithOptions(q, opts, &stats);
      ASSERT_TRUE(result.ok()) << "q=" << q << " threads=" << threads;
      if (threads == 1) {
        reference_pushes = stats.settle_pushes;
        reference_mode = stats.escalation_mode;
      } else {
        EXPECT_EQ(stats.settle_pushes, reference_pushes)
            << "q=" << q << " threads=" << threads;
        EXPECT_EQ(stats.escalation_mode, reference_mode)
            << "q=" << q << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serving: the adaptive loop end to end

TEST(AdaptiveServingTest, ControllerLearnsFromEscalationFeedback) {
  auto engine = BuildTestEngine(81);
  ASSERT_TRUE(engine.ok());

  ServingOptions opts;
  opts.num_threads = 2;
  opts.adaptive = true;
  opts.exact_tier_backend.name = std::string(kLocalPushBackendName);
  opts.exact_tier_backend.local_push.epsilon = 1e-2;  // escalates at first
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());

  for (uint32_t q = 0; q < 30; ++q) {
    QueryRequest request;
    request.query = q * 7 % 250;
    request.k = 5;
    request.bypass_cache = true;
    QueryResponse response = (*serving)->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << "q=" << q;
  }

  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.backend_escalations,
            stats.partial_escalations + stats.full_escalations);
  ASSERT_FALSE(stats.adaptive_budgets.empty());
  const BackendBudgetState& state = stats.adaptive_budgets[0];
  EXPECT_EQ(state.backend, kLocalPushBackendName);
  EXPECT_EQ(state.certified + state.partial_escalations +
                state.full_escalations,
            30u);
  // With a 1e-2 epsilon the first queries escalate, so feedback must have
  // pushed the budget scale off neutral.
  EXPECT_GT(stats.backend_escalations, 0u);
  EXPECT_GT(state.scale, 1.0);
}

TEST(AdaptiveServingTest, AdaptiveEscalatesNoMoreThanFixedBudget) {
  auto run = [](bool adaptive) -> uint64_t {
    auto engine = BuildTestEngine(82);
    EXPECT_TRUE(engine.ok());
    ServingOptions opts;
    opts.num_threads = 2;
    opts.adaptive = adaptive;
    opts.exact_tier_backend.name = std::string(kLocalPushBackendName);
    opts.exact_tier_backend.local_push.epsilon = 1e-2;
    auto serving = ServingEngine::Create(**engine, opts);
    EXPECT_TRUE(serving.ok());
    for (uint32_t q = 0; q < 40; ++q) {
      QueryRequest request;
      request.query = q * 11 % 250;
      request.k = 5;
      request.bypass_cache = true;
      QueryResponse response = (*serving)->Submit(std::move(request)).get();
      EXPECT_TRUE(response.ok());
    }
    return (*serving)->stats().backend_escalations;
  };
  const uint64_t fixed = run(false);
  const uint64_t adaptive = run(true);
  // The controller tightens the budget after early escalations; it can
  // only match or beat a fixed budget on this workload, never lose.
  EXPECT_LE(adaptive, fixed);
}

// Inserts of three edges absent from the served graph (one per source).
GraphUpdateBatch ThreeNewEdges(const ServingEngine& serving) {
  const Graph& graph = serving.snapshot()->graph_version()->graph();
  GraphUpdateBatch batch;
  for (uint32_t u = 0; u < graph.num_nodes() && batch.size() < 3; ++u) {
    for (uint32_t v = 1; v < graph.num_nodes(); ++v) {
      if (u == v) continue;
      const auto nbrs = graph.OutNeighbors(u);
      if (std::binary_search(nbrs.begin(), nbrs.end(), v)) continue;
      batch.push_back(EdgeUpdate::Insert(u, v));
      break;
    }
  }
  return batch;
}

TEST(AdaptiveServingTest, MutationPublishResetsTheController) {
  auto engine = BuildTestEngine(83);
  ASSERT_TRUE(engine.ok());

  ServingOptions opts;
  opts.num_threads = 2;
  opts.adaptive = true;
  opts.exact_tier_backend.name = std::string(kLocalPushBackendName);
  opts.exact_tier_backend.local_push.epsilon = 1e-2;
  opts.mutation_repair_fraction = 1.0;
  opts.mutation_rebuild_fraction = 1.0;
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());

  // Warm the controller with real feedback.
  for (uint32_t q = 0; q < 20; ++q) {
    QueryRequest request;
    request.query = q * 13 % 250;
    request.k = 5;
    request.bypass_cache = true;
    QueryResponse response = (*serving)->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok());
  }
  ASSERT_FALSE((*serving)->stats().adaptive_budgets.empty());

  // Mutation publish: the measured feedback described the old graph
  // version, so the controller must start over.
  GraphUpdateBatch batch = ThreeNewEdges(**serving);
  ASSERT_EQ(batch.size(), 3u);
  MutationResult result = (*serving)->ApplyUpdates(std::move(batch)).get();
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  const ServingStats after = (*serving)->stats();
  EXPECT_GE(after.adaptive_resets, 1u);
  EXPECT_TRUE(after.adaptive_budgets.empty());

  // The fresh controller keeps serving correct answers on the new graph.
  QueryRequest request;
  request.query = 9;
  request.k = 5;
  request.bypass_cache = true;
  QueryResponse response = (*serving)->Submit(std::move(request)).get();
  EXPECT_TRUE(response.ok());
}

// ---------------------------------------------------------------------------
// Regression: backend configs parse once, at engine construction

TEST(SharedBackendCatalogTest, ConstructionParsesEachConfigExactlyOnce) {
  auto engine = BuildTestEngine(91);
  ASSERT_TRUE(engine.ok());

  ServingOptions opts;
  opts.num_threads = 4;
  opts.exact_tier_backend.name = std::string(kLocalPushBackendName);
  opts.exact_tier_backend.local_push.epsilon = 1e-5;
  opts.approximate_tier_backend.name = std::string(kMonteCarloBackendName);
  opts.approximate_tier_backend.monte_carlo.walks_per_node = 128;

  const uint64_t before_create = ProximityBackendBuildCount();
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());
  const uint64_t built_at_construction =
      ProximityBackendBuildCount() - before_create;
  // One build per distinct non-builtin config: local-push + monte-carlo.
  EXPECT_EQ(built_at_construction, 2u);

  // Traffic across every pooled searcher must hit the shared catalog —
  // zero re-parses, where each searcher previously built its own copy.
  const uint64_t before_traffic = ProximityBackendBuildCount();
  for (uint32_t q = 0; q < 12; ++q) {
    QueryRequest request;
    request.query = q * 17 % 250;
    request.k = 5;
    request.bypass_cache = true;
    if (q % 3 == 2) request.tier = AccuracyTier::kApproximateHitsOnly;
    QueryResponse response = (*serving)->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << "q=" << q;
  }
  EXPECT_EQ(ProximityBackendBuildCount() - before_traffic, 0u);
}

TEST(SharedBackendCatalogTest, PmpnTiersBuildNothingAtCreateOrPublish) {
  auto engine = BuildTestEngine(92);
  ASSERT_TRUE(engine.ok());

  ServingOptions opts;
  opts.num_threads = 2;
  opts.max_batch = 16;
  opts.mutation_repair_fraction = 1.0;
  opts.mutation_rebuild_fraction = 1.0;

  // Both tiers run the pipelines' built-in PMPN backend, which fuses: no
  // factory build at construction, on a mutation publish, or when the
  // batch former fuses a group.
  const uint64_t before = ProximityBackendBuildCount();
  auto serving = ServingEngine::Create(**engine, opts);
  ASSERT_TRUE(serving.ok());
  EXPECT_EQ(ProximityBackendBuildCount() - before, 0u);

  GraphUpdateBatch batch = ThreeNewEdges(**serving);
  ASSERT_EQ(batch.size(), 3u);
  MutationResult result = (*serving)->ApplyUpdates(std::move(batch)).get();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(ProximityBackendBuildCount() - before, 0u);

  (*serving)->Pause();
  std::vector<std::future<QueryResponse>> futures;
  for (uint32_t q = 0; q < 8; ++q) {
    QueryRequest request;
    request.query = q * 31 % 250;
    request.k = 5;
    request.bypass_cache = true;
    futures.push_back((*serving)->Submit(std::move(request)));
  }
  (*serving)->Resume();
  for (auto& future : futures) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(response.backend, kPmpnBackendName);
  }
  EXPECT_GT((*serving)->stats().batches, 0u);
  EXPECT_EQ(ProximityBackendBuildCount() - before, 0u);
}

}  // namespace
}  // namespace rtk
