// Tests for src/bca: hub selection, hub proximity store + rounding, and the
// BCA propagation engine including the paper's Propositions 1-2 and the ink
// conservation invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <string_view>

#include "bca/bca.h"
#include "bca/bca_state.h"
#include "bca/hub_proximity_store.h"
#include "bca/hub_selection.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/toy_graphs.h"
#include "rwr/power_method.h"
#include "rwr/transition.h"

namespace rtk {
namespace {

double InkTotal(const BcaRunner& runner, const StoredBcaState& state) {
  (void)runner;
  double total = state.ResidueL1();
  for (const auto& [id, v] : state.retained().ToPairs()) total += v;
  for (const auto& [id, v] : state.hub_ink().ToPairs()) total += v;
  return total;
}

// ----------------------------------------------------------- HubSelection --

TEST(HubSelectionTest, DegreePicksHighDegreeNodes) {
  Graph g = PaperToyGraph();
  HubSelectionOptions opts;
  opts.degree_budget_b = 1;
  Result<std::vector<uint32_t>> hubs = SelectHubs(g, opts);
  ASSERT_TRUE(hubs.ok());
  // Node 0 has max out-degree (3), node 1 max in-degree (5).
  EXPECT_EQ(*hubs, (std::vector<uint32_t>{0, 1}));
}

TEST(HubSelectionTest, DegreeUnionDeduplicates) {
  // Star center has both max in- and out-degree: |H| = 2B - overlap.
  Graph g = StarGraph(10);
  HubSelectionOptions opts;
  opts.degree_budget_b = 1;
  Result<std::vector<uint32_t>> hubs = SelectHubs(g, opts);
  ASSERT_TRUE(hubs.ok());
  EXPECT_EQ(hubs->size(), 1u);
  EXPECT_EQ((*hubs)[0], 0u);
}

TEST(HubSelectionTest, BudgetLargerThanGraphIsClamped) {
  Graph g = CycleGraph(5);
  HubSelectionOptions opts;
  opts.degree_budget_b = 100;
  Result<std::vector<uint32_t>> hubs = SelectHubs(g, opts);
  ASSERT_TRUE(hubs.ok());
  EXPECT_EQ(hubs->size(), 5u);
}

TEST(HubSelectionTest, RandomIsDeterministicPerSeed) {
  Rng rng(3);
  Result<Graph> g = ErdosRenyi(200, 1000, &rng);
  ASSERT_TRUE(g.ok());
  HubSelectionOptions opts;
  opts.strategy = HubSelectionStrategy::kRandom;
  opts.num_hubs = 20;
  opts.seed = 99;
  Result<std::vector<uint32_t>> a = SelectHubs(*g, opts);
  Result<std::vector<uint32_t>> b = SelectHubs(*g, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), 20u);
  EXPECT_TRUE(std::is_sorted(a->begin(), a->end()));
}

TEST(HubSelectionTest, GreedyBcaFindsCentralNodes) {
  // In a two-community graph every node is symmetric-ish, but greedy should
  // still return the requested count of distinct sorted hubs.
  Rng rng(5);
  Result<Graph> g = BarabasiAlbert(300, 3, &rng);
  ASSERT_TRUE(g.ok());
  HubSelectionOptions opts;
  opts.strategy = HubSelectionStrategy::kGreedyBca;
  opts.num_hubs = 10;
  Result<std::vector<uint32_t>> hubs = SelectHubs(*g, opts);
  ASSERT_TRUE(hubs.ok());
  EXPECT_EQ(hubs->size(), 10u);
  EXPECT_TRUE(std::is_sorted(hubs->begin(), hubs->end()));
  std::set<uint32_t> uniq(hubs->begin(), hubs->end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(HubSelectionTest, GreedyPrefersTheHubOfAStar) {
  // The star center retains by far the most ink on probes from leaves.
  Graph g = StarGraph(30);
  HubSelectionOptions opts;
  opts.strategy = HubSelectionStrategy::kGreedyBca;
  opts.num_hubs = 1;
  opts.seed = 4;
  Result<std::vector<uint32_t>> hubs = SelectHubs(g, opts);
  ASSERT_TRUE(hubs.ok());
  ASSERT_EQ(hubs->size(), 1u);
  EXPECT_EQ((*hubs)[0], 0u);
}

TEST(HubSelectionTest, RejectsBadOptions) {
  Graph g = CycleGraph(4);
  HubSelectionOptions opts;
  opts.degree_budget_b = 0;
  EXPECT_FALSE(SelectHubs(g, opts).ok());
  opts.strategy = HubSelectionStrategy::kRandom;
  opts.num_hubs = 0;
  EXPECT_FALSE(SelectHubs(g, opts).ok());
}

// ------------------------------------------------------ HubProximityStore --

TEST(HubProximityStoreTest, StoresExactVectorsUnrounded) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  HubStoreOptions opts;
  opts.rounding_omega = 0.0;  // no rounding
  Result<HubProximityStore> store =
      HubProximityStore::Build(op, {0, 1}, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_hubs(), 2u);
  EXPECT_TRUE(store->IsHub(0));
  EXPECT_TRUE(store->IsHub(1));
  EXPECT_FALSE(store->IsHub(2));
  Result<std::vector<double>> exact = ComputeProximityColumn(op, 0);
  ASSERT_TRUE(exact.ok());
  const HubVector vec = store->Vector(0);
  for (size_t i = 0; i < vec.size(); ++i) {
    EXPECT_NEAR(vec.values[i], (*exact)[vec.ids[i]], 1e-9);
  }
  EXPECT_EQ(store->Vector(0).size(), 6u);
  EXPECT_EQ(store->DroppedEntries(), 0u);
}

TEST(HubProximityStoreTest, RoundingDropsSmallEntries) {
  // ER graphs at this density are strongly connected, so hub vectors are
  // positive almost everywhere and rounding has something to drop. (A
  // citation-style BA graph would not do: old nodes reach only the seed.)
  Rng rng(7);
  Result<Graph> g = ErdosRenyi(400, 4000, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  HubStoreOptions coarse;
  coarse.rounding_omega = 1e-3;
  HubStoreOptions fine;
  fine.rounding_omega = 0.0;
  Result<HubProximityStore> a = HubProximityStore::Build(op, {0, 1, 2}, coarse);
  Result<HubProximityStore> b = HubProximityStore::Build(op, {0, 1, 2}, fine);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->TotalEntries(), b->TotalEntries());
  EXPECT_GT(a->DroppedEntries(), 0u);
  // Every surviving entry is >= omega and matches the unrounded value.
  for (double value : a->Vector(1).values) {
    EXPECT_GE(value, 1e-3);
  }
}

TEST(HubProximityStoreTest, TopKIsDescendingAndExact) {
  Graph g = PaperToyGraph();
  TransitionOperator op(g);
  Result<HubProximityStore> store = HubProximityStore::Build(op, {1}, {});
  ASSERT_TRUE(store.ok());
  auto top = store->TopK(1, 3);
  ASSERT_EQ(top.size(), 3u);
  // p_2 (1-based) = [0.24, 0.39, 0.17, ...]: top-3 = 0.39, 0.24, 0.17.
  EXPECT_NEAR(top[0].second, 0.39, 0.005);
  EXPECT_NEAR(top[1].second, 0.24, 0.005);
  EXPECT_NEAR(top[2].second, 0.17, 0.005);
  EXPECT_TRUE(std::is_sorted(
      top.begin(), top.end(),
      [](const auto& x, const auto& y) { return x.second > y.second; }));
}

TEST(HubProximityStoreTest, EmptyStoreHasNoHubs) {
  HubProximityStore store = HubProximityStore::Empty(10);
  EXPECT_EQ(store.num_hubs(), 0u);
  for (uint32_t v = 0; v < 10; ++v) EXPECT_FALSE(store.IsHub(v));
}

TEST(HubProximityStoreTest, RejectsUnsortedHubs) {
  Graph g = CycleGraph(4);
  TransitionOperator op(g);
  EXPECT_FALSE(HubProximityStore::Build(op, {2, 1}, {}).ok());
  EXPECT_FALSE(HubProximityStore::Build(op, {1, 1}, {}).ok());
  EXPECT_FALSE(HubProximityStore::Build(op, {9}, {}).ok());
}

TEST(HubProximityStoreTest, Theorem1PredictionIsMonotone) {
  // Smaller omega => more entries predicted; larger n => more entries.
  const double a = HubProximityStore::PredictedEntriesPerHub(10000, 1e-6, 0.76);
  const double b = HubProximityStore::PredictedEntriesPerHub(10000, 1e-4, 0.76);
  EXPECT_GT(a, b);
  const double c = HubProximityStore::PredictedEntriesPerHub(100000, 1e-6, 0.76);
  EXPECT_GT(c, a);
  EXPECT_LE(a, 10000.0);  // clamped at n
}

TEST(HubProximityStoreTest, Proposition3BoundShrinksWithOmega) {
  const double coarse = HubProximityStore::RoundingErrorBound(10000, 1e-3, 0.76);
  const double fine = HubProximityStore::RoundingErrorBound(10000, 1e-7, 0.76);
  EXPECT_GE(coarse, fine);
  EXPECT_GE(fine, 0.0);
  EXPECT_LE(coarse, 1.0);
}

TEST(HubProximityStoreTest, RoundingErrorWithinProposition3Bound) {
  // Actual L1 mass dropped from one hub vector <= Prop 3 bound (with the
  // empirical beta = 0.76 from [4] the bound is loose; just verify order).
  Rng rng(11);
  Result<Graph> g = BarabasiAlbert(500, 4, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  const double omega = 1e-4;
  HubStoreOptions opts;
  opts.rounding_omega = omega;
  Result<HubProximityStore> store = HubProximityStore::Build(op, {0}, opts);
  ASSERT_TRUE(store.ok());
  Result<std::vector<double>> exact = ComputeProximityColumn(op, 0);
  ASSERT_TRUE(exact.ok());
  double kept = 0.0;
  for (double value : store->Vector(0).values) kept += value;
  const double dropped_mass = 1.0 - kept;
  EXPECT_GE(dropped_mass, 0.0);
  // Trivial sanity: dropped mass < omega * n.
  EXPECT_LE(dropped_mass, omega * g->num_nodes());
}

// -------------------------------------------------------------- BcaRunner --

class BcaToyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = PaperToyGraph();
    op_ = std::make_unique<TransitionOperator>(graph_);
    Result<HubProximityStore> store =
        HubProximityStore::Build(*op_, {0, 1}, {});
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<HubProximityStore>(std::move(store).value());
  }
  BcaOptions PaperOptions() const {
    BcaOptions o;
    o.eta = 1e-4;
    o.delta = 0.8;
    return o;
  }
  Graph graph_;
  std::unique_ptr<TransitionOperator> op_;
  std::unique_ptr<HubProximityStore> store_;
};

TEST_F(BcaToyTest, ReproducesFigure2StateForNode4) {
  // 1-based node 4 = 0-based 3: two iterations under delta=0.8, ending with
  // w={4:.15, 5:.064}, s={2:.425}, r={2:.361}.
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  runner.Start(3);
  runner.RunToTermination(PushStrategy::kBatch);
  EXPECT_NEAR(runner.ResidueL1(), 0.361, 0.001);
  const SharedBcaState extracted = runner.Extract();
  const StoredBcaState state = StateOf(extracted);
  ASSERT_EQ(state.hub_ink().size(), 1u);
  EXPECT_EQ(state.hub_ink().id(0), 1u);  // hub node 2 (0-based 1)
  EXPECT_NEAR(state.hub_ink().value(0), 0.425, 1e-9);
  ASSERT_EQ(state.retained().size(), 2u);
  EXPECT_NEAR(state.retained().value(0), 0.15, 1e-9);     // node 4 itself
  EXPECT_NEAR(state.retained().value(1), 0.063750, 1e-6);  // node 5
}

TEST_F(BcaToyTest, ReproducesFigure2ApproxVectors) {
  // Check all four non-hub columns of Figure 2 to the printed 2 decimals.
  const double expected[4][6] = {
      {0.24, 0.29, 0.27, 0.10, 0.04, 0.07},  // p^t3 (node 3, 0-based 2)
      {0.10, 0.17, 0.07, 0.19, 0.08, 0.03},  // p^t4
      {0.20, 0.33, 0.14, 0.08, 0.18, 0.06},  // p^t5
      {0.10, 0.17, 0.07, 0.10, 0.02, 0.18},  // p^t6
  };
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  for (uint32_t u = 2; u < 6; ++u) {
    runner.Start(u);
    runner.RunToTermination(PushStrategy::kBatch);
    std::vector<double> approx;
    runner.MaterializeApprox(*store_, &approx);
    for (uint32_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(approx[i], expected[u - 2][i], 0.005)
          << "node " << u << " entry " << i;
    }
  }
}

TEST_F(BcaToyTest, NodesWithOnlyHubNeighborsConvergeToZeroResidue) {
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  runner.Start(2);  // node 3: out-edges {1, 2} are both hubs
  runner.RunToTermination(PushStrategy::kBatch);
  EXPECT_EQ(runner.ResidueL1(), 0.0);
}

TEST_F(BcaToyTest, InkConservationThroughoutRun) {
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  runner.Start(5);
  for (int step = 0; step < 30; ++step) {
    const SharedBcaState extracted = runner.Extract();
    const StoredBcaState state = StateOf(extracted);
    EXPECT_NEAR(InkTotal(runner, state), 1.0, 1e-12) << "step " << step;
    if (runner.Step(PushStrategy::kBatch) == 0) break;
  }
}

TEST_F(BcaToyTest, Proposition1MonotoneLowerBounds) {
  // Every entry of p^t is non-decreasing across iterations and bounded by
  // the exact proximity.
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  Result<std::vector<double>> exact = ComputeProximityColumn(*op_, 5);
  ASSERT_TRUE(exact.ok());
  runner.Start(5);
  std::vector<double> prev(6, 0.0), cur(6);
  for (int step = 0; step < 50; ++step) {
    if (runner.Step(PushStrategy::kBatch) == 0) break;
    runner.MaterializeApprox(*store_, &cur);
    for (uint32_t i = 0; i < 6; ++i) {
      EXPECT_GE(cur[i], prev[i] - 1e-12) << "entry " << i;
      EXPECT_LE(cur[i], (*exact)[i] + 1e-9) << "entry " << i;
    }
    prev = cur;
  }
}

TEST_F(BcaToyTest, Proposition2KthLargestIsLowerBound) {
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  Result<std::vector<double>> exact = ComputeProximityColumn(*op_, 3);
  ASSERT_TRUE(exact.ok());
  std::vector<double> sorted = *exact;
  std::sort(sorted.rbegin(), sorted.rend());
  runner.Start(3);
  for (int step = 0; step < 50; ++step) {
    if (runner.Step(PushStrategy::kBatch) == 0) break;
    auto top = runner.TopKApprox(*store_, 3);
    for (size_t k = 0; k < top.size(); ++k) {
      EXPECT_LE(top[k].second, sorted[k] + 1e-9);
    }
  }
}

TEST_F(BcaToyTest, ConvergesToExactProximityWhenRunToZero) {
  BcaOptions opts = PaperOptions();
  opts.delta = 0.0;
  opts.eta = 1e-14;
  BcaRunner runner(*op_, {0, 1}, opts);
  runner.Start(5);
  for (int i = 0; i < 100000 && runner.ResidueL1() > 1e-12; ++i) {
    if (runner.Step(PushStrategy::kBatch) == 0) break;
  }
  std::vector<double> approx;
  runner.MaterializeApprox(*store_, &approx);
  Result<std::vector<double>> exact = ComputeProximityColumn(*op_, 5);
  ASSERT_TRUE(exact.ok());
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(approx[i], (*exact)[i], 1e-8);
  }
}

TEST_F(BcaToyTest, ExtractLoadRoundTripResumes) {
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  runner.Start(3);
  runner.Step(PushStrategy::kBatch);
  const SharedBcaState snapshot_blob = runner.Extract();
  const StoredBcaState snapshot = StateOf(snapshot_blob);
  const double residue_at_snapshot = runner.ResidueL1();

  // Continue in a fresh runner from the snapshot.
  BcaRunner other(*op_, {0, 1}, PaperOptions());
  ASSERT_TRUE(other.Load(snapshot).ok());
  EXPECT_NEAR(other.ResidueL1(), residue_at_snapshot, 1e-12);
  EXPECT_EQ(other.iterations(), snapshot.iterations());
  other.Step(PushStrategy::kBatch);

  // And in the original runner; both must agree exactly.
  runner.Step(PushStrategy::kBatch);
  const SharedBcaState a_blob = runner.Extract();
  const SharedBcaState b_blob = other.Extract();
  const StoredBcaState a = StateOf(a_blob);
  const StoredBcaState b = StateOf(b_blob);
  EXPECT_EQ(a.residue().ToPairs(), b.residue().ToPairs());
  EXPECT_EQ(a.retained().ToPairs(), b.retained().ToPairs());
  EXPECT_EQ(a.hub_ink().ToPairs(), b.hub_ink().ToPairs());
}

// Extract writes one record in the index file's layout; a runner that
// loads its view holds the same lists, so it extracts the same bytes, and
// the loaders' validator and PackBcaState reproduce them too.
TEST_F(BcaToyTest, ExtractedRecordRoundTripsThroughViewAndLoad) {
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  runner.Start(5);
  runner.Step(PushStrategy::kBatch);
  runner.Step(PushStrategy::kBatch);
  const SharedBcaState blob = runner.Extract();
  ASSERT_NE(blob, nullptr);
  const StoredBcaState view = StateOf(blob);
  EXPECT_EQ(view.iterations(), runner.iterations());
  EXPECT_NEAR(view.ResidueL1(), runner.ResidueL1(), 1e-15);
  size_t entries = 0;
  for (const BcaEntryList& list :
       {view.residue(), view.retained(), view.hub_ink()}) {
    entries += list.size();
    for (size_t i = 0; i < list.size(); ++i) {
      EXPECT_GT(list.value(i), 0.0);
      if (i > 0) {
        EXPECT_LT(list.id(i - 1), list.id(i));
      }
    }
  }
  ASSERT_GT(view.hub_ink().size(), 0u);
  EXPECT_EQ(view.bytes().size(),
            kBcaRecordHeaderBytes + entries * kBcaEntryBytes);

  BcaRunner other(*op_, {0, 1}, PaperOptions());
  ASSERT_TRUE(other.Load(view).ok());
  EXPECT_EQ(other.iterations(), runner.iterations());
  const SharedBcaState again = other.Extract();
  EXPECT_EQ(StateOf(again).bytes(), view.bytes());
  // Loaded, the lists give the same approximation as the original run.
  EXPECT_EQ(other.TopKApprox(*store_, 6), runner.TopKApprox(*store_, 6));

  std::string_view record = view.bytes();
  SharedBcaState copy;
  ASSERT_TRUE(ReadBcaStateRecord(&record, 6, &copy).ok());
  EXPECT_TRUE(record.empty());
  EXPECT_EQ(StateOf(copy).bytes(), view.bytes());
  const SharedBcaState packed =
      PackBcaState(view.iterations(), view.residue().ToPairs(),
                   view.retained().ToPairs(), view.hub_ink().ToPairs());
  EXPECT_EQ(StateOf(packed).bytes(), view.bytes());
}

// A stored record's ids are checked against n only; hub ink at a node the
// runner's hub set does not hold would index P_H out of bounds, so Load
// refuses the state and keeps the runner's own.
TEST_F(BcaToyTest, LoadRejectsHubInkAtNonHub) {
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  runner.Start(3);
  const SharedBcaState bad = PackBcaState(1, {}, {}, {{0, 0.25}, {4, 0.5}});
  const Status st = runner.Load(StateOf(bad));
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(runner.ResidueL1(), 1.0);  // still the Start(3) state
  const SharedBcaState good = PackBcaState(1, {{2, 0.25}}, {}, {{1, 0.75}});
  EXPECT_TRUE(runner.Load(StateOf(good)).ok());
}

TEST(BcaStateRecordTest, EmptyStateIsNullAndReadsAsZeroRecord) {
  EXPECT_EQ(PackBcaState(0, {}), nullptr);
  const StoredBcaState empty = StateOf(nullptr);
  EXPECT_EQ(empty.bytes(), std::string(kBcaRecordHeaderBytes, '\0'));
  EXPECT_EQ(empty.iterations(), 0u);
  EXPECT_TRUE(empty.residue().empty() && empty.retained().empty() &&
              empty.hub_ink().empty());
  // Iterations alone make a state non-empty.
  EXPECT_NE(PackBcaState(3, {}), nullptr);

  std::string_view bytes = empty.bytes();
  SharedBcaState read = PackBcaState(1, {{0, 1.0}});
  ASSERT_TRUE(ReadBcaStateRecord(&bytes, 5, &read).ok());
  EXPECT_EQ(read, nullptr);
  EXPECT_TRUE(bytes.empty());
}

TEST(BcaStateRecordTest, ValidatorRejectsMalformedRecords) {
  const SharedBcaState good =
      PackBcaState(7, {{1, 0.25}, {4, 0.125}}, {{0, 0.5}}, {{2, 0.125}});
  const std::string record(StateOf(good).bytes());
  // Two records back to back: the first read stops at the boundary.
  const std::string records = record + record;
  std::string_view rest = records;
  SharedBcaState state;
  ASSERT_TRUE(ReadBcaStateRecord(&rest, 5, &state).ok());
  EXPECT_EQ(rest.size(), record.size());
  EXPECT_EQ(StateOf(state).retained().ToPairs(),
            (std::vector<std::pair<uint32_t, double>>{{0, 0.5}}));

  const auto rejects = [](const std::string& bytes, uint32_t n) {
    std::string_view view = bytes;
    SharedBcaState out;
    const Status st = ReadBcaStateRecord(&view, n, &out);
    return st.code() == StatusCode::kCorruption;
  };
  // Id 4 is out of range for n = 4.
  EXPECT_TRUE(rejects(record, 4));
  // Every truncation, including inside the header.
  for (size_t cut = 0; cut < record.size(); ++cut) {
    EXPECT_TRUE(rejects(record.substr(0, cut), 5)) << "cut " << cut;
  }
  // A count that runs past the bytes: the hub-ink count (after the
  // iterations, two counts and three entries) claims one entry too many.
  std::string overrun = record;
  const uint64_t two = 2;
  std::memcpy(overrun.data() + sizeof(uint32_t) + 2 * sizeof(uint64_t) +
                  3 * kBcaEntryBytes,
              &two, sizeof(two));
  EXPECT_TRUE(rejects(overrun, 5));
  // A residue count above n, with bytes enough behind it.
  std::string above = record;
  const uint64_t many = 6;
  std::memcpy(above.data() + sizeof(uint32_t), &many, sizeof(many));
  EXPECT_TRUE(rejects(above + std::string(100, '\0'), 5));
}

TEST(HubProximityStoreTest, FromRawRoundTripsAndRejectsBadSections) {
  Rng rng(11);
  Result<Graph> g = ErdosRenyi(50, 300, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  Result<HubProximityStore> store = HubProximityStore::Build(op, {3, 9, 20});
  ASSERT_TRUE(store.ok());
  const std::string packed = store->PackedEntries();
  ASSERT_EQ(packed.size(), store->TotalEntries() * kBcaEntryBytes);
  // 12 bytes per entry, plus per hub its id and offset, plus the lookup.
  EXPECT_EQ(store->MemoryBytes(),
            store->TotalEntries() * kBcaEntryBytes + 3 * sizeof(uint32_t) +
                4 * sizeof(uint64_t) + 50 * sizeof(uint32_t));

  const auto from = [&](std::vector<uint32_t> hubs,
                        std::vector<uint64_t> offsets,
                        const std::string& entries) {
    return HubProximityStore::FromRaw(50, std::move(hubs), std::move(offsets),
                                      entries, store->rounding_omega(),
                                      store->DroppedEntries());
  };
  Result<HubProximityStore> copy =
      from(store->hubs(), store->offsets(), packed);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  for (uint32_t h : store->hubs()) {
    const HubVector a = store->Vector(h);
    const HubVector b = copy->Vector(h);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.ids.begin(), a.ids.end(), b.ids.begin()));
    EXPECT_TRUE(std::equal(a.values.begin(), a.values.end(), b.values.begin()));
  }
  EXPECT_EQ(copy->PackedEntries(), packed);

  const auto corrupt = [](const Result<HubProximityStore>& r) {
    return r.status().code() == StatusCode::kCorruption;
  };
  EXPECT_TRUE(corrupt(from({3, 9, 50}, store->offsets(), packed)));  // id >= n
  EXPECT_TRUE(corrupt(from({9, 3, 20}, store->offsets(), packed)));  // order
  EXPECT_TRUE(corrupt(from({3, 3, 20}, store->offsets(), packed)));  // dup
  std::vector<uint64_t> offsets = store->offsets();
  offsets[1] = offsets[3] + 1;  // no longer ascending
  EXPECT_TRUE(corrupt(from(store->hubs(), offsets, packed)));
  offsets = store->offsets();
  offsets[0] = 1;
  EXPECT_TRUE(corrupt(from(store->hubs(), offsets, packed)));
  EXPECT_TRUE(corrupt(from(store->hubs(), store->offsets(),
                           packed.substr(0, packed.size() - 1))));
  std::string bad_entry = packed;
  const uint32_t bad_id = 50;
  std::memcpy(bad_entry.data() + kBcaEntryBytes, &bad_id, sizeof(bad_id));
  EXPECT_TRUE(corrupt(from(store->hubs(), store->offsets(), bad_entry)));
}

// The untracked TopKApprox (dense scatter, index build and repair) and the
// tracked one (refinement) agree bit for bit, on both of the untracked
// path's collection branches: hub vectors dense enough that the adds cover
// the workspace (omega 0), and sparse ones (a coarse omega).
TEST(BcaTopKTest, UntrackedMatchesTrackedBitForBit) {
  Rng rng(23);
  Result<Graph> g = Rmat(9, 3000, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  const std::vector<uint32_t> hubs = {0, 1, 2, 5, 8, 13, 21, 34};
  for (double omega : {0.0, 2e-2}) {
    HubStoreOptions opts;
    opts.rounding_omega = omega;
    Result<HubProximityStore> store = HubProximityStore::Build(op, hubs, opts);
    ASSERT_TRUE(store.ok());
    BcaOptions bca;
    bca.delta = 0.2;
    BcaRunner runner(op, hubs, bca);
    for (uint32_t u = 40; u < g->num_nodes(); u += 7) {
      for (size_t k : {1, 10, 600}) {
        runner.Start(u);
        runner.RunToTermination();
        const auto untracked = runner.TopKApprox(*store, k);
        // A second call finds the dense workspace zeroed again.
        const auto repeat = runner.TopKApprox(*store, k);
        runner.BeginApproxTracking(*store);
        const auto tracked = runner.TopKApprox(*store, k);
        ASSERT_EQ(untracked, tracked) << "omega " << omega << " u " << u;
        ASSERT_EQ(repeat, tracked) << "omega " << omega << " u " << u;
      }
    }
  }
}

TEST_F(BcaToyTest, StartFromHubAbsorbsInOneStep) {
  BcaRunner runner(*op_, {0, 1}, PaperOptions());
  runner.Start(1);  // hub
  EXPECT_EQ(runner.ResidueL1(), 1.0);
  EXPECT_GT(runner.Step(PushStrategy::kBatch), 0u);
  EXPECT_EQ(runner.ResidueL1(), 0.0);
  std::vector<double> approx;
  runner.MaterializeApprox(*store_, &approx);
  Result<std::vector<double>> exact = ComputeProximityColumn(*op_, 1);
  ASSERT_TRUE(exact.ok());
  for (uint32_t i = 0; i < 6; ++i) EXPECT_NEAR(approx[i], (*exact)[i], 1e-9);
}

// Push strategies compared on random graphs.
class PushStrategyTest : public ::testing::TestWithParam<PushStrategy> {};

TEST_P(PushStrategyTest, AllStrategiesConservInkAndLowerBound) {
  Rng rng(13);
  Result<Graph> g = ErdosRenyi(60, 400, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  Result<HubProximityStore> store = HubProximityStore::Build(op, {0, 1, 2}, {});
  ASSERT_TRUE(store.ok());
  BcaOptions opts;
  opts.delta = 0.05;
  BcaRunner runner(op, {0, 1, 2}, opts);
  Result<std::vector<double>> exact = ComputeProximityColumn(op, 30);
  ASSERT_TRUE(exact.ok());

  runner.Start(30);
  runner.RunToTermination(GetParam());
  const SharedBcaState extracted = runner.Extract();
  const StoredBcaState state = StateOf(extracted);
  EXPECT_NEAR(InkTotal(runner, state), 1.0, 1e-10);
  EXPECT_LE(runner.ResidueL1(), 0.05 + 1e-12);
  std::vector<double> approx;
  runner.MaterializeApprox(*store, &approx);
  for (uint32_t i = 0; i < g->num_nodes(); ++i) {
    EXPECT_LE(approx[i], (*exact)[i] + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PushStrategyTest,
                         ::testing::Values(PushStrategy::kBatch,
                                           PushStrategy::kSingleMax,
                                           PushStrategy::kThresholdQueue),
                         [](const auto& info) {
                           switch (info.param) {
                             case PushStrategy::kBatch:
                               return "Batch";
                             case PushStrategy::kSingleMax:
                               return "SingleMax";
                             case PushStrategy::kThresholdQueue:
                               return "ThresholdQueue";
                           }
                           return "Unknown";
                         });

TEST(BcaStrategyComparisonTest, BatchNeedsFewerIterationsThanSingle) {
  // On a well-mixed graph the batch strategy drains residue geometrically
  // per iteration, while single-max removes only alpha * r_max at a time.
  Rng rng(17);
  Result<Graph> g = ErdosRenyi(300, 2400, &rng);
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  BcaOptions opts;
  opts.delta = 0.05;
  BcaRunner batch(op, {}, opts), single(op, {}, opts);
  batch.Start(50);
  single.Start(50);
  const int batch_iters = batch.RunToTermination(PushStrategy::kBatch);
  const int single_iters = single.RunToTermination(PushStrategy::kSingleMax);
  // This is the paper's Section 4.1.2 claim: batching slashes iterations.
  EXPECT_LT(batch_iters * 5, single_iters);
}

TEST(BcaWeightedTest, RespectsEdgeWeights) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 3.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  Result<Graph> g = b.Build({.dangling_policy = DanglingPolicy::kError});
  ASSERT_TRUE(g.ok());
  TransitionOperator op(*g);
  BcaOptions opts;
  BcaRunner runner(op, {}, opts);
  runner.Start(0);
  runner.Step(PushStrategy::kBatch);  // push node 0 once
  const SharedBcaState extracted = runner.Extract();
  const StoredBcaState state = StateOf(extracted);
  // 0.85 split 3:1 between nodes 1 and 2.
  ASSERT_EQ(state.residue().size(), 2u);
  EXPECT_NEAR(state.residue().value(0), 0.6375, 1e-12);
  EXPECT_NEAR(state.residue().value(1), 0.2125, 1e-12);
}

}  // namespace
}  // namespace rtk
