// Tiered proximity backends (exec/proximity_backends.h): the name-keyed
// factory, fixed-seed Monte-Carlo determinism across thread counts, the
// local-push error certificate, and the load-bearing equivalence
// guarantees of error-certified pruning —
//   * exact tier + ANY backend: results AND post-query index state are
//     byte-identical to the pure PMPN pipeline (certified prune superset +
//     exact refinement, escalating to PMPN when the certificate is too
//     wide);
//   * hits-only tier + ANY backend: results are a certified subset of the
//     exact answer, with no refinement and no escalation.
// Part of the ci.sh TSan and ASan legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "bca/hub_selection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "exec/proximity_backends.h"
#include "exec/query_pipeline.h"
#include "graph/generators.h"
#include "index/index_builder.h"
#include "rwr/monte_carlo.h"
#include "rwr/pmpn.h"
#include "rwr/transition.h"
#include "serving/refinement_log.h"
#include "serving/serving_engine.h"

namespace rtk {
namespace {

// Coarse BCA options leave fat residues in the index, so queries actually
// refine: the byte-identity assertions below then cover write-back too.
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
    ASSERT_EQ(state_a.residue, state_b.residue) << "u=" << u;
    ASSERT_EQ(state_a.retained, state_b.retained) << "u=" << u;
    ASSERT_EQ(state_a.hub_ink, state_b.hub_ink) << "u=" << u;
  }
}

// ---------------------------------------------------------------------------
// Factory

TEST(ProximityBackendFactoryTest, ConstructsEveryRegisteredBackend) {
  Rng rng(11);
  auto graph = BarabasiAlbert(60, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionOperator op(*graph);
  const auto names = RegisteredProximityBackendNames();
  EXPECT_EQ(names.size(), 3u);
  for (std::string_view name : names) {
    ProximityBackendConfig config;
    config.name = std::string(name);
    auto backend = MakeProximityBackend(op, config);
    ASSERT_TRUE(backend.ok()) << name;
    EXPECT_EQ((*backend)->name(), name);
    EXPECT_EQ((*backend)->exact(), name == kPmpnBackendName);
    // Only PMPN amortizes multi-query solves.
    EXPECT_EQ((*backend)->fused_multi(), name == kPmpnBackendName);
  }
  // Empty name falls back to the exact default.
  auto fallback = MakeProximityBackend(op, {});
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ((*fallback)->name(), kPmpnBackendName);
  // The unlisted "batched-pmpn" alias builds the one PMPN backend.
  ProximityBackendConfig alias;
  alias.name = std::string(kBatchedPmpnBackendName);
  auto aliased = MakeProximityBackend(op, alias);
  ASSERT_TRUE(aliased.ok());
  EXPECT_EQ((*aliased)->name(), kPmpnBackendName);
  EXPECT_TRUE((*aliased)->fused_multi());
}

TEST(ProximityBackendFactoryTest, PipelineResolvesEveryPmpnNameToItsBuiltin) {
  auto engine = BuildTestEngine(14);
  ASSERT_TRUE(engine.ok());
  QueryPipeline pipeline((*engine)->transition(), (*engine)->index());
  const uint64_t builds_before = ProximityBackendBuildCount();
  const ProximityBackend* builtin = &pipeline.proximity_backend();
  for (std::string_view name :
       {std::string_view(), kPmpnBackendName, kBatchedPmpnBackendName}) {
    ProximityBackendConfig config;
    config.name = std::string(name);
    Result<ProximityBackend*> resolved = pipeline.ResolveBackend(config);
    ASSERT_TRUE(resolved.ok()) << name;
    EXPECT_EQ(*resolved, builtin) << name;
  }
  EXPECT_EQ(ProximityBackendBuildCount(), builds_before);
}

TEST(ProximityBackendFactoryTest, UnknownNameListsRegisteredBackends) {
  Rng rng(12);
  auto graph = BarabasiAlbert(40, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionOperator op(*graph);
  ProximityBackendConfig config;
  config.name = "quantum-oracle";
  auto backend = MakeProximityBackend(op, config);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(backend.status().ToString().find("monte-carlo"), std::string::npos);
}

TEST(ProximityBackendFactoryTest, UnknownNameInQueryOptionsFailsTheQuery) {
  auto engine = BuildTestEngine(21);
  ASSERT_TRUE(engine.ok());
  QueryOptions opts;
  opts.k = 5;
  opts.proximity.name = "no-such-backend";
  auto result = (*engine)->QueryWithOptions(3, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Monte-Carlo column estimator

TEST(MonteCarloColumnTest, DeterministicAcrossThreadCounts) {
  Rng rng(31);
  auto graph = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionOperator op(*graph);
  MonteCarloColumnOptions options;
  options.walks_per_node = 128;
  options.seed = 1234;

  ThreadPool pool(8);
  auto serial = MonteCarloProximityColumn(op, 7, options, nullptr, 1);
  ASSERT_TRUE(serial.ok());
  for (int threads : {1, 2, 8}) {
    auto parallel = MonteCarloProximityColumn(op, 7, options, &pool, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(0, std::memcmp(serial->estimates.data(),
                             parallel->estimates.data(),
                             serial->estimates.size() * sizeof(double)))
        << "estimates diverged at " << threads << " threads";
    EXPECT_EQ(0, std::memcmp(serial->eps_node.data(), parallel->eps_node.data(),
                             serial->eps_node.size() * sizeof(double)))
        << "bounds diverged at " << threads << " threads";
    EXPECT_EQ(serial->total_steps, parallel->total_steps);
    EXPECT_EQ(serial->total_walks, parallel->total_walks);
  }
  EXPECT_EQ(serial->total_walks, 300u * 128u);
  EXPECT_GT(serial->eps_uniform, 0.0);
}

TEST(MonteCarloColumnTest, SeedChangesTheEstimate) {
  Rng rng(32);
  auto graph = BarabasiAlbert(120, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionOperator op(*graph);
  MonteCarloColumnOptions options;
  options.walks_per_node = 64;
  options.seed = 1;
  auto a = MonteCarloProximityColumn(op, 0, options);
  options.seed = 2;
  auto b = MonteCarloProximityColumn(op, 0, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->estimates, b->estimates);
}

TEST(MonteCarloColumnTest, BoundsCoverTheExactColumnOnTestGraph) {
  Rng rng(33);
  auto graph = BarabasiAlbert(150, 3, &rng);
  ASSERT_TRUE(graph.ok());
  TransitionOperator op(*graph);
  const uint32_t q = 5;
  auto exact = ComputeProximityToNode(op, q);
  ASSERT_TRUE(exact.ok());
  MonteCarloColumnOptions options;
  options.walks_per_node = 2048;
  auto mc = MonteCarloProximityColumn(op, q, options);
  ASSERT_TRUE(mc.ok());
  // The per-entry bound holds w.h.p.; for this fixed seed it must hold
  // outright (a deterministic assertion once the seed is pinned).
  for (uint32_t u = 0; u < op.num_nodes(); ++u) {
    EXPECT_LE(std::abs(mc->estimates[u] - (*exact)[u]),
              mc->eps_node[u] + 1e-9)
        << "u=" << u;
    EXPECT_LE(mc->eps_node[u], mc->eps_uniform);
  }
}

// ---------------------------------------------------------------------------
// Local-push certificate

TEST(LocalPushBackendTest, RowIsCertifiedLowerBoundOfExact) {
  auto engine = BuildTestEngine(41);
  ASSERT_TRUE(engine.ok());
  const TransitionOperator& op = (*engine)->transition();
  ProximityBackendConfig config;
  config.name = std::string(kLocalPushBackendName);
  config.local_push.epsilon = 1e-6;
  auto backend = MakeProximityBackend(op, config);
  ASSERT_TRUE(backend.ok());

  RwrOptions rwr;
  rwr.alpha = (*engine)->options().bca.alpha;
  for (uint32_t q : {0u, 17u, 123u}) {
    auto row = (*backend)->Compute(q, rwr, nullptr, 1);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->eps_below, 0.0);  // one-sided: estimates are lower bounds
    EXPECT_GE(row->eps_above, 0.0);
    EXPECT_GT(row->pushes, 0u);
    auto exact = ComputeProximityToNode(op, q, rwr);
    ASSERT_TRUE(exact.ok());
    for (uint32_t u = 0; u < op.num_nodes(); ++u) {
      // PMPN itself converges to ~1e-10; allow that much slack.
      EXPECT_LE(row->values[u], (*exact)[u] + 1e-8) << "q=" << q << " u=" << u;
      EXPECT_GE(row->values[u] + row->eps_above + 1e-8, (*exact)[u])
          << "q=" << q << " u=" << u;
    }
  }
}

// ---------------------------------------------------------------------------
// Error-certified pruning: equivalence and subset guarantees

// Exact tier with an approximate backend must be byte-identical — results
// AND post-query index state — to the pure PMPN pipeline, query by query.
void ExpectExactTierByteIdentical(const ProximityBackendConfig& config,
                                  bool expect_some_escalation) {
  auto baseline_engine = BuildTestEngine(51);
  auto tiered_engine = BuildTestEngine(51);
  ASSERT_TRUE(baseline_engine.ok() && tiered_engine.ok());

  QueryOptions exact_opts;
  exact_opts.k = 5;
  QueryOptions tiered_opts = exact_opts;
  tiered_opts.proximity = config;

  uint64_t escalations = 0;
  for (uint32_t q = 0; q < 60; ++q) {
    QueryStats tiered_stats;
    auto expected = (*baseline_engine)->QueryWithOptions(q, exact_opts);
    auto actual =
        (*tiered_engine)->QueryWithOptions(q, tiered_opts, &tiered_stats);
    ASSERT_TRUE(expected.ok() && actual.ok()) << "q=" << q;
    EXPECT_EQ(*expected, *actual) << "q=" << q;
    EXPECT_EQ(tiered_stats.backend, config.name);
    escalations +=
        tiered_stats.escalation_mode != EscalationMode::kNone ? 1 : 0;
  }
  ExpectIndexStateIdentical((*baseline_engine)->index(),
                            (*tiered_engine)->index());
  if (expect_some_escalation) EXPECT_GT(escalations, 0u);
}

TEST(CertifiedPruneTest, LocalPushExactTierIsByteIdentical) {
  ProximityBackendConfig config;
  config.name = std::string(kLocalPushBackendName);
  config.local_push.epsilon = 1e-6;
  ExpectExactTierByteIdentical(config, /*expect_some_escalation=*/false);
}

TEST(CertifiedPruneTest, CoarseLocalPushEscalatesAndStaysByteIdentical) {
  ProximityBackendConfig config;
  config.name = std::string(kLocalPushBackendName);
  // A deliberately sloppy certificate: the widened prune cannot certify
  // near-threshold candidates, forcing the PMPN escalation path.
  config.local_push.epsilon = 1e-2;
  ExpectExactTierByteIdentical(config, /*expect_some_escalation=*/true);
}

TEST(CertifiedPruneTest, MonteCarloExactTierIsByteIdentical) {
  ProximityBackendConfig config;
  config.name = std::string(kMonteCarloBackendName);
  config.monte_carlo.walks_per_node = 64;  // wide bounds: escalates a lot
  ExpectExactTierByteIdentical(config, /*expect_some_escalation=*/true);
}

TEST(CertifiedPruneTest, HitsOnlyTierIsSubsetWithoutRefinement) {
  auto exact_engine = BuildTestEngine(52);
  auto approx_engine = BuildTestEngine(52);
  ASSERT_TRUE(exact_engine.ok() && approx_engine.ok());

  for (const std::string_view name :
       {kPmpnBackendName, kLocalPushBackendName, kMonteCarloBackendName}) {
    QueryOptions exact_opts;
    exact_opts.k = 5;
    exact_opts.update_index = false;
    QueryOptions approx_opts = exact_opts;
    approx_opts.approximate_hits_only = true;
    approx_opts.proximity.name = std::string(name);
    approx_opts.proximity.monte_carlo.walks_per_node = 256;

    for (uint32_t q = 0; q < 40; ++q) {
      QueryStats stats;
      auto exact = (*exact_engine)->QueryWithOptions(q, exact_opts);
      auto approx = (*approx_engine)->QueryWithOptions(q, approx_opts, &stats);
      ASSERT_TRUE(exact.ok() && approx.ok()) << name << " q=" << q;
      const std::set<uint32_t> exact_set(exact->begin(), exact->end());
      for (uint32_t u : *approx) {
        EXPECT_TRUE(exact_set.count(u))
            << name << ": non-member " << u << " reported for q=" << q;
      }
      EXPECT_EQ(stats.refined_nodes, 0u);  // the fast tier never refines
      EXPECT_FALSE(stats.escalated);       // ... and never escalates
    }
  }
}

TEST(CertifiedPruneTest, EscalationIsObservableInStats) {
  auto engine = BuildTestEngine(53);
  ASSERT_TRUE(engine.ok());
  QueryOptions opts;
  opts.k = 5;
  opts.proximity.name = std::string(kMonteCarloBackendName);
  opts.proximity.monte_carlo.walks_per_node = 8;  // hopelessly wide bounds
  QueryStats stats;
  auto result = (*engine)->QueryWithOptions(2, opts, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats.escalated);
  EXPECT_EQ(stats.backend, kMonteCarloBackendName);
  EXPECT_GT(stats.prox_walks, 0u);
  EXPECT_GT(stats.prox_eps_above, 0.0);
  EXPECT_GT(stats.pmpn_iterations, 0);  // the PMPN re-run reported its work
}

// Pipeline-level determinism: one MC-backed query must return identical
// results at every intra-query thread count (per-source seeding makes the
// row itself bitwise thread-invariant).
TEST(CertifiedPruneTest, MonteCarloQueryDeterministicAcrossThreadCounts) {
  auto engine = BuildTestEngine(54);
  ASSERT_TRUE(engine.ok());
  QueryOptions opts;
  opts.k = 5;
  opts.update_index = false;
  opts.proximity.name = std::string(kMonteCarloBackendName);
  opts.proximity.monte_carlo.walks_per_node = 128;

  std::vector<uint32_t> reference;
  for (int threads : {1, 2, 8}) {
    opts.num_threads = threads;
    auto result = (*engine)->QueryWithOptions(9, opts);
    ASSERT_TRUE(result.ok()) << threads;
    if (threads == 1) {
      reference = *result;
    } else {
      EXPECT_EQ(reference, *result) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Serving-layer tier routing

TEST(ServingBackendTest, RoutesTiersToConfiguredBackends) {
  auto engine = BuildTestEngine(61);
  ASSERT_TRUE(engine.ok());

  ServingOptions serving_opts;
  serving_opts.num_threads = 2;
  serving_opts.exact_tier_backend.name = std::string(kLocalPushBackendName);
  serving_opts.exact_tier_backend.local_push.epsilon = 1e-2;  // escalates
  serving_opts.approximate_tier_backend.name =
      std::string(kLocalPushBackendName);
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  // Exact tier: identical to the engine's own exact answer; the response
  // reports which backend finally served the row.
  for (uint32_t q : {3u, 40u, 77u}) {
    QueryRequest request;
    request.query = q;
    request.k = 5;
    request.bypass_cache = true;
    request.update_index = false;
    QueryResponse response = (*serving)->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok());
    auto expected = (*engine)->QueryWithOptions(
        q, [] { QueryOptions o; o.k = 5; o.update_index = false; return o; }());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(response.results, *expected);
    EXPECT_EQ(response.backend, response.stats.escalated
                                    ? kPmpnBackendName
                                    : kLocalPushBackendName);
  }

  // Hits-only tier: subset served by the approximate-tier backend.
  {
    QueryRequest request;
    request.query = 3;
    request.k = 5;
    request.tier = AccuracyTier::kApproximateHitsOnly;
    request.update_index = false;
    QueryResponse response = (*serving)->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.backend, kLocalPushBackendName);
    EXPECT_FALSE(response.stats.escalated);
    auto expected = (*engine)->QueryWithOptions(
        3, [] { QueryOptions o; o.k = 5; o.update_index = false; return o; }());
    ASSERT_TRUE(expected.ok());
    const std::set<uint32_t> exact_set(expected->begin(), expected->end());
    for (uint32_t u : response.results) EXPECT_TRUE(exact_set.count(u));
  }

  const ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.exact_tier_queries, 3u);
  EXPECT_EQ(stats.approximate_tier_queries, 1u);
  EXPECT_GT(stats.backend_escalations, 0u);
}

TEST(ServingBackendTest, CreateRejectsUnknownTierBackend) {
  auto engine = BuildTestEngine(62);
  ASSERT_TRUE(engine.ok());
  for (bool approximate : {false, true}) {
    ServingOptions serving_opts;
    serving_opts.num_threads = 1;
    (approximate ? serving_opts.approximate_tier_backend
                 : serving_opts.exact_tier_backend)
        .name = "quantum-oracle";
    auto serving = ServingEngine::Create(**engine, serving_opts);
    ASSERT_FALSE(serving.ok()) << "approximate=" << approximate;
    EXPECT_EQ(serving.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(serving.status().ToString().find("quantum-oracle"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Per-shard publish batching

TEST(RefinementLogTest, DrainByShardHonorsPerShardThreshold) {
  RefinementLog log;
  auto delta_for = [](uint32_t node) {
    IndexDelta delta;
    delta.node = node;
    delta.residue_l1 = 0.5;
    return delta;
  };
  // Shard 0 (nodes 0-255): 3 deltas. Shard 2 (512-767): 1 delta.
  std::vector<IndexDelta> deltas;
  deltas.push_back(delta_for(10));
  deltas.push_back(delta_for(20));
  deltas.push_back(delta_for(30));
  deltas.push_back(delta_for(600));
  log.Append(std::move(deltas));

  // Thresholded drain: the hot shard publishes, the cold one accumulates.
  auto groups = log.DrainByShard(/*shard_nodes=*/256, /*min_shard_pending=*/2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].shard, 0u);
  EXPECT_EQ(groups[0].deltas.size(), 3u);
  EXPECT_EQ(log.pending(), 1u);
  EXPECT_EQ(log.stats().deferred, 1u);

  // More deltas push the cold shard over the threshold.
  deltas.clear();
  deltas.push_back(delta_for(700));
  log.Append(std::move(deltas));
  groups = log.DrainByShard(256, 2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].shard, 2u);
  ASSERT_EQ(groups[0].deltas.size(), 2u);
  EXPECT_EQ(groups[0].deltas[0].node, 600u);  // ascending node order
  EXPECT_EQ(groups[0].deltas[1].node, 700u);
  EXPECT_EQ(log.pending(), 0u);

  // An unthresholded drain flushes singleton shards (the explicit-publish
  // path).
  deltas.clear();
  deltas.push_back(delta_for(5));
  log.Append(std::move(deltas));
  groups = log.DrainByShard(256);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(log.pending(), 0u);
}

TEST(ServingBackendTest, ShardPublishThresholdNeverStrandsOrSpins) {
  auto engine = BuildTestEngine(62);
  ASSERT_TRUE(engine.ok());
  ServingOptions serving_opts;
  serving_opts.num_threads = 2;
  serving_opts.publish_threshold = 1;  // eager: publish on every delta...
  // ...but with an unreachable per-shard floor, so automatic publishes
  // must defer (and must not spin) while explicit PublishPending flushes.
  serving_opts.shard_publish_threshold = 1u << 20;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  ASSERT_TRUE(serving.ok());

  for (uint32_t q = 0; q < 30; ++q) {
    auto result = (*serving)->Query(q, 5);
    ASSERT_TRUE(result.ok()) << q;
  }
  ServingStats stats = (*serving)->stats();
  EXPECT_EQ(stats.epochs_published, 0u);  // every auto publish deferred
  EXPECT_GT(stats.log.deferred, 0u);
  EXPECT_GT(stats.pending_deltas, 0u);

  // The explicit flush drains everything the coarse index accumulated.
  const uint64_t applied = (*serving)->PublishPending();
  EXPECT_GT(applied, 0u);
  stats = (*serving)->stats();
  EXPECT_EQ(stats.pending_deltas, 0u);
  EXPECT_EQ(stats.epochs_published, 1u);
}

}  // namespace
}  // namespace rtk
