// Fault-injection framework tests: determinism of the injector, sub-seed
// isolation between fault layers, crash-stop monotonicity, graph-fault
// structure, blast-radius geometry, and the byte-identical-report
// regression that the whole campaign layer promises.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/orientation.hpp"
#include "faults/campaign.hpp"
#include "faults/fault_plan.hpp"
#include "faults/robust.hpp"
#include "graph/generators.hpp"

namespace lad::faults {
namespace {

FaultPlan small_mixed_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.advice.node_fraction = 0.05;
  plan.advice.kinds = {AdviceFaultKind::kBitFlip, AdviceFaultKind::kErasure,
                       AdviceFaultKind::kByzantine, AdviceFaultKind::kTruncate};
  plan.engine.message_drop_prob = 0.02;
  plan.engine.message_corrupt_prob = 0.02;
  plan.engine.crash_fraction = 0.02;
  plan.graph.edge_delete_fraction = 0.01;
  return plan;
}

std::string events_digest(const std::vector<FaultEvent>& events) {
  std::string s;
  for (const auto& e : events) {
    s += to_string(e.layer);
    s += '/';
    s += to_string(e.advice_kind);
    s += '/';
    s += std::to_string(e.node);
    s += '/';
    s += std::to_string(e.other);
    s += '/';
    s += e.detail;
    s += '\n';
  }
  return s;
}

TEST(FaultInjector, SamePlanSameFaults) {
  const Graph g = make_cycle(300, IdMode::kRandomDense, 1);
  const auto enc = encode_orientation_advice(g);

  FaultInjector a(small_mixed_plan(7));
  FaultInjector b(small_mixed_plan(7));
  auto bits_a = enc.bits;
  auto bits_b = enc.bits;
  a.corrupt_bits(g, bits_a);
  b.corrupt_bits(g, bits_b);
  EXPECT_EQ(bits_a, bits_b);
  EXPECT_EQ(events_digest(a.events()), events_digest(b.events()));
  EXPECT_EQ(a.fault_site_nodes(g), b.fault_site_nodes(g));
  EXPECT_FALSE(a.events().empty());
}

TEST(FaultInjector, DifferentSeedDifferentFaults) {
  const Graph g = make_cycle(300, IdMode::kRandomDense, 1);
  const auto enc = encode_orientation_advice(g);

  FaultInjector a(small_mixed_plan(7));
  FaultInjector b(small_mixed_plan(8));
  auto bits_a = enc.bits;
  auto bits_b = enc.bits;
  a.corrupt_bits(g, bits_a);
  b.corrupt_bits(g, bits_b);
  EXPECT_NE(events_digest(a.events()), events_digest(b.events()));
}

TEST(FaultInjector, LayersDrawFromIsolatedSubSeeds) {
  // Turning the engine and graph layers on or off must not change which
  // advice bits get attacked: each layer hashes its own sub-seed.
  const Graph g = make_cycle(300, IdMode::kRandomDense, 2);
  const auto enc = encode_orientation_advice(g);

  FaultPlan advice_only;
  advice_only.seed = 11;
  advice_only.advice.node_fraction = 0.05;
  advice_only.advice.kinds = {AdviceFaultKind::kBitFlip};

  FaultPlan all_layers = advice_only;
  all_layers.engine.message_drop_prob = 0.5;
  all_layers.engine.crash_fraction = 0.3;
  all_layers.graph.edge_delete_fraction = 0.2;

  FaultInjector a((advice_only));
  FaultInjector b((all_layers));
  auto bits_a = enc.bits;
  auto bits_b = enc.bits;
  a.corrupt_bits(g, bits_a);
  b.corrupt_bits(g, bits_b);
  EXPECT_EQ(bits_a, bits_b);
}

TEST(HashedEngineFaultsTest, CrashIsMonotoneInRound) {
  EngineFaultSpec spec;
  spec.crash_fraction = 0.3;
  spec.crash_round_window = 4;
  const HashedEngineFaults model(99, spec);
  int victims = 0;
  for (int v = 0; v < 200; ++v) {
    if (model.crash_selected(v)) ++victims;
    bool seen = false;
    for (int r = 1; r <= 8; ++r) {
      const bool c = model.crashed(r, v);
      EXPECT_TRUE(!seen || c) << "node " << v << " un-crashed at round " << r;
      seen = seen || c;
    }
    EXPECT_EQ(seen, model.crash_selected(v));
  }
  EXPECT_GT(victims, 0);
  EXPECT_LT(victims, 200);
}

TEST(HashedEngineFaultsTest, CorruptionChangesPayloadDeterministically) {
  EngineFaultSpec spec;
  spec.message_corrupt_prob = 1.0;
  const HashedEngineFaults model(5, spec);
  std::string p1 = "hello";
  std::string p2 = "hello";
  EXPECT_TRUE(model.corrupt_message(3, 1, 2, p1));
  EXPECT_TRUE(model.corrupt_message(3, 1, 2, p2));
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, "hello");
}

TEST(FaultInjector, GraphFaultsPreserveNodesAndDeleteEdges) {
  const Graph g = make_grid(12, 12, IdMode::kRandomDense, 3);
  FaultPlan plan;
  plan.seed = 21;
  plan.graph.edge_delete_fraction = 0.1;
  FaultInjector inj(plan);
  const Graph gd = inj.apply_graph_faults(g);
  EXPECT_EQ(gd.n(), g.n());
  EXPECT_LT(gd.m(), g.m());
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(gd.id(v), g.id(v));
  // Every recorded graph fault names an edge of the original graph.
  for (const auto& e : inj.events()) {
    ASSERT_EQ(e.layer, FaultLayer::kGraph);
    EXPECT_GE(g.edge_between(e.node, e.other), 0);
    EXPECT_LT(gd.edge_between(e.node, e.other), 0);
  }
  EXPECT_EQ(static_cast<int>(inj.events().size()), g.m() - gd.m());
}

TEST(BlastRadius, MeasuresDistanceFromFaultSites) {
  const Graph g = make_cycle(20, IdMode::kSequential, 0);
  // make_cycle builds edges in index order, so indices i and i+1 (mod 20)
  // are adjacent regardless of the ID mode.
  EXPECT_EQ(robust::blast_radius(g, {0}, {0}), 0);
  EXPECT_EQ(robust::blast_radius(g, {0}, {3}), 3);
  EXPECT_EQ(robust::blast_radius(g, {0}, {19}), 1);
  EXPECT_EQ(robust::blast_radius(g, {0, 10}, {5, 14}), 5);
  EXPECT_EQ(robust::blast_radius(g, {}, {5}), 0);
  EXPECT_EQ(robust::blast_radius(g, {0}, {}), 0);
}

// ---------------------------------------------------------------------------
// The determinism regression (the campaign promise): same seed, same
// config => byte-identical reports, down to every per-trial rendering.

TEST(CampaignDeterminism, SameSeedByteIdenticalReports) {
  CampaignConfig cfg;
  cfg.decoder = PipelineId::kOrientation;
  cfg.family = GraphFamily::kCycle;
  cfg.n = 120;
  cfg.trials = 12;
  cfg.seed = 42;

  const auto s1 = run_fault_campaign(cfg);
  const auto s2 = run_fault_campaign(cfg);
  EXPECT_EQ(s1.to_string(), s2.to_string());
  ASSERT_EQ(s1.reports.size(), s2.reports.size());
  for (std::size_t i = 0; i < s1.reports.size(); ++i) {
    EXPECT_EQ(s1.reports[i].to_string(), s2.reports[i].to_string()) << "trial " << i;
  }
}

TEST(CampaignDeterminism, DifferentSeedDifferentFaultPattern) {
  CampaignConfig cfg;
  cfg.decoder = PipelineId::kThreeColoring;
  cfg.family = GraphFamily::kCycle;
  cfg.n = 120;
  cfg.trials = 8;
  cfg.seed = 1;
  const auto s1 = run_fault_campaign(cfg);
  cfg.seed = 2;
  const auto s2 = run_fault_campaign(cfg);
  std::string r1;
  std::string r2;
  for (const auto& r : s1.reports) r1 += r.to_string();
  for (const auto& r : s2.reports) r2 += r.to_string();
  EXPECT_NE(r1, r2);
}

TEST(CampaignDeterminism, NoFaultPlanMeansCleanRun) {
  CampaignConfig cfg;
  cfg.decoder = PipelineId::kSplitting;
  cfg.family = GraphFamily::kCycle;
  cfg.n = 120;
  cfg.trials = 5;
  cfg.seed = 3;
  cfg.plan = FaultPlan{};  // adversary disabled at every layer
  const auto s = run_fault_campaign(cfg);
  EXPECT_EQ(s.faults_injected, 0);
  EXPECT_EQ(s.trials_degraded, 0);
  EXPECT_EQ(s.trials_output_valid, s.trials);
  EXPECT_EQ(s.silent_corruptions, 0);
  EXPECT_EQ(s.max_blast_radius, 0);
}

}  // namespace
}  // namespace lad::faults
