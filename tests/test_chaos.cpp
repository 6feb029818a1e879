// Chaos-matrix layer (faults/chaos.hpp) and the degradation framework it
// exercises:
//
//   * the report is byte-deterministic — same config, any thread count,
//     identical markdown and JSON;
//   * the fallback ladder takes exactly the rung its policy allows
//     (retry/backoff exhaustion, node budget, round deadline, advice-free
//     component recompute, flag);
//   * finalize_degradation puts every node in exactly one bucket with the
//     documented precedence;
//   * the crash-recovery engine path stays byte-identical across thread
//     counts;
//   * adversarial advice targeting is deterministic and hits its exact
//     victim budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "faults/chaos.hpp"
#include "faults/fault_plan.hpp"
#include "faults/robust.hpp"
#include "graph/generators.hpp"
#include "lcl/problems.hpp"

namespace lad::faults {
namespace {

// A proper 3-coloring of the sequential cycle (n divisible by 3).
Labeling cycle_three_coloring(const Graph& g) {
  Labeling lab = Labeling::empty(g);
  for (int v = 0; v < g.n(); ++v) lab.node_labels[static_cast<std::size_t>(v)] = v % 3 + 1;
  return lab;
}

ChaosConfig small_chaos() {
  ChaosConfig cfg;
  cfg.pipelines = {PipelineId::kOrientation};
  cfg.families = {GraphFamily::kCycle};
  cfg.models = {"mixed", "churn"};
  cfg.policies = {"strict", "backoff"};
  cfg.n = 48;
  cfg.trials = 2;
  cfg.seed = 11;
  return cfg;
}

TEST(ChaosReport, ByteDeterministicAcrossRunsAndThreads) {
  ChaosConfig cfg = small_chaos();
  const auto a = run_chaos_campaign(cfg);
  const auto b = run_chaos_campaign(cfg);
  cfg.threads = 4;
  const auto c = run_chaos_campaign(cfg);

  EXPECT_EQ(a.to_markdown(), b.to_markdown());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_markdown(), c.to_markdown()) << "thread count leaked into the report";
  EXPECT_EQ(a.to_json(), c.to_json());
}

TEST(ChaosReport, EveryCellHoldsTheLayerGuarantee) {
  const auto rep = run_chaos_campaign(small_chaos());
  ASSERT_EQ(rep.cells.size(), 4u);  // 1 pipeline x 1 family x 2 models x 2 policies
  for (const auto& c : rep.cells) {
    EXPECT_EQ(c.summary.silent_corruptions, 0) << c.model << "/" << c.policy;
    EXPECT_TRUE(c.summary.all_nodes_accounted) << c.model << "/" << c.policy;
    // Buckets cover the whole matrix cell: n nodes per trial, every trial.
    EXPECT_EQ(c.verified + c.repaired + c.degraded + c.flagged,
              static_cast<long long>(rep.n) * rep.trials)
        << c.model << "/" << c.policy;
    EXPECT_GT(c.summary.faults_injected, 0) << "adversary never fired; cell is vacuous";
  }
  EXPECT_TRUE(rep.pass());
}

TEST(ChaosRegistry, NamedModelsAndPoliciesResolveUnknownsDoNot) {
  for (const auto& name : chaos_model_names()) {
    FaultPlan plan;
    EXPECT_TRUE(chaos_fault_model(name, plan)) << name;
    EXPECT_TRUE(plan.any_advice_faults() || plan.any_engine_faults() ||
                plan.any_graph_faults())
        << name << " is a no-op adversary";
  }
  for (const auto& name : chaos_policy_names()) {
    robust::RepairPolicy policy;
    EXPECT_TRUE(chaos_repair_policy(name, policy)) << name;
  }
  FaultPlan plan;
  robust::RepairPolicy policy;
  EXPECT_FALSE(chaos_fault_model("bogus", plan));
  EXPECT_FALSE(chaos_repair_policy("bogus", policy));
}

TEST(ChaosRegistry, ScalePlanScalesProbabilitiesOnly) {
  FaultPlan plan;
  chaos_fault_model("churn", plan);
  const FaultPlan same = scale_plan(plan, 100);
  EXPECT_EQ(same.engine.crash_fraction, plan.engine.crash_fraction);
  EXPECT_EQ(same.engine.message_delay_prob, plan.engine.message_delay_prob);

  const FaultPlan half = scale_plan(plan, 50);
  EXPECT_DOUBLE_EQ(half.engine.crash_fraction, plan.engine.crash_fraction * 0.5);
  EXPECT_DOUBLE_EQ(half.engine.message_duplicate_prob,
                   plan.engine.message_duplicate_prob * 0.5);
  // Structural knobs are not rates and stay untouched.
  EXPECT_EQ(half.engine.crash_recovery_rounds, plan.engine.crash_recovery_rounds);
  EXPECT_EQ(half.engine.max_delay_rounds, plan.engine.max_delay_rounds);

  const FaultPlan extreme = scale_plan(plan, 1000000);
  EXPECT_DOUBLE_EQ(extreme.engine.crash_fraction, 0.9);  // clamp, never >= 1
}

// --------------------------------------------------------------------------
// Fallback ladder, rung by rung, through repair_labeling_locally.

TEST(FallbackLadder, LocalRepairSucceedsWithinPolicy) {
  const Graph g = make_cycle(30);
  const VertexColoringLcl p(3);
  Labeling lab = cycle_three_coloring(g);
  robust::RobustnessReport rep;
  robust::repair_labeling_locally(g, p, lab, {5}, robust::RepairPolicy{}, rep);
  // The whole re-solved region (the radius-2 ball) counts as repaired.
  EXPECT_TRUE(std::find(rep.repaired_nodes.begin(), rep.repaired_nodes.end(), 5) !=
              rep.repaired_nodes.end());
  EXPECT_EQ(rep.repaired_nodes.size(), 5u);
  EXPECT_TRUE(rep.flagged_nodes.empty());
  EXPECT_TRUE(rep.degraded_nodes.empty());
  EXPECT_EQ(rep.degradation.retries, 0);
  EXPECT_TRUE(is_valid_labeling(g, p, lab));
}

TEST(FallbackLadder, NodeBudgetExhaustionFlagsWithoutFallback) {
  const Graph g = make_cycle(30);
  const VertexColoringLcl p(3);
  Labeling lab = cycle_three_coloring(g);
  robust::RepairPolicy policy;
  policy.repair_node_budget = 1;  // any radius-2 region exceeds this
  robust::RobustnessReport rep;
  robust::repair_labeling_locally(g, p, lab, {5}, policy, rep);
  EXPECT_EQ(rep.degradation.budget_exhausted, 1);
  EXPECT_EQ(rep.degradation.retries, 0);  // abandoned before any attempt
  ASSERT_FALSE(rep.flagged_nodes.empty());
  EXPECT_EQ(rep.flagged_nodes[0], 5);
  EXPECT_TRUE(rep.repaired_nodes.empty());
}

TEST(FallbackLadder, RoundDeadlineExhaustionFlagsWithoutFallback) {
  const Graph g = make_cycle(30);
  const VertexColoringLcl p(3);
  Labeling lab = cycle_three_coloring(g);
  robust::RepairPolicy policy;
  policy.repair_round_deadline = 1;  // first attempt costs repair_radius = 2
  robust::RobustnessReport rep;
  robust::repair_labeling_locally(g, p, lab, {5}, policy, rep);
  EXPECT_EQ(rep.degradation.deadline_exhausted, 1);
  ASSERT_FALSE(rep.flagged_nodes.empty());
  EXPECT_EQ(rep.flagged_nodes[0], 5);
}

TEST(FallbackLadder, AdviceFreeRungRecomputesTheComponentAsDegraded) {
  const Graph g = make_cycle(30);
  const VertexColoringLcl p(3);
  Labeling lab = cycle_three_coloring(g);
  robust::RepairPolicy policy;
  policy.repair_node_budget = 1;      // force local repair to be abandoned...
  policy.advice_free_fallback = true;  // ...and take the rung below instead
  robust::RobustnessReport rep;
  robust::repair_labeling_locally(g, p, lab, {5}, policy, rep);
  EXPECT_EQ(rep.degradation.budget_exhausted, 1);
  EXPECT_TRUE(rep.flagged_nodes.empty());
  // The whole connected component is re-solved and marked degraded:
  // correct output, locality lost.
  EXPECT_EQ(rep.degraded_nodes.size(), static_cast<std::size_t>(g.n()));
  EXPECT_TRUE(is_valid_labeling(g, p, lab));
  ASSERT_EQ(rep.regions.size(), 1u);
  EXPECT_TRUE(rep.regions[0].degraded);
  EXPECT_FALSE(rep.regions[0].repaired);
}

TEST(FallbackLadder, RetryBackoffCountsAttemptsAndFlagsTheInfeasible) {
  // 2-coloring an odd cycle is globally infeasible: every local re-solve
  // fails, so the exponential schedule runs to its cap. With max_retries=2
  // and backoff 2 the radii are 2, 4, 8 — exactly two retries.
  const Graph g = make_cycle(31);
  const VertexColoringLcl p(2);
  Labeling lab = Labeling::empty(g);
  for (int v = 0; v < g.n(); ++v) lab.node_labels[static_cast<std::size_t>(v)] = v % 2 + 1;
  robust::RepairPolicy policy;
  policy.max_retries = 2;
  robust::RobustnessReport rep;
  robust::repair_labeling_locally(g, p, lab, {0}, policy, rep);
  EXPECT_EQ(rep.degradation.retries, 2);
  EXPECT_EQ(rep.degradation.budget_exhausted, 0);
  EXPECT_EQ(rep.degradation.deadline_exhausted, 0);
  ASSERT_FALSE(rep.flagged_nodes.empty());
  EXPECT_EQ(rep.flagged_nodes[0], 0);
}

TEST(Degradation, FinalizePutsEveryNodeInExactlyOneBucket) {
  robust::RobustnessReport rep;
  rep.rejecting_nodes = {1, 2, 3};
  rep.repaired_nodes = {2};   // repair resolves the rejection
  rep.degraded_nodes = {3};   // ladder rung below repair wins over both
  rep.flagged_nodes = {4};
  rep.finalize_degradation(10);

  ASSERT_EQ(rep.node_status.size(), 10u);
  using robust::DegradeStatus;
  EXPECT_EQ(rep.node_status[0], DegradeStatus::kVerified);
  EXPECT_EQ(rep.node_status[1], DegradeStatus::kDegraded);  // rejected, never repaired
  EXPECT_EQ(rep.node_status[2], DegradeStatus::kRepaired);
  EXPECT_EQ(rep.node_status[3], DegradeStatus::kDegraded);
  EXPECT_EQ(rep.node_status[4], DegradeStatus::kFlagged);
  EXPECT_EQ(rep.degradation.verified, 6);
  EXPECT_EQ(rep.degradation.repaired, 1);
  EXPECT_EQ(rep.degradation.degraded, 2);
  EXPECT_EQ(rep.degradation.flagged, 1);
  EXPECT_TRUE(rep.degradation.accounted(10));

  rep.finalize_degradation(10);  // idempotent
  EXPECT_EQ(rep.degradation.total(), 10);
}

// --------------------------------------------------------------------------
// Crash-recovery engine determinism and adversarial targeting.

TEST(ChaosDeterminism, ChurnCampaignByteIdenticalAcrossThreadCounts) {
  CampaignConfig cfg;
  cfg.decoder = PipelineId::kThreeColoring;
  cfg.family = GraphFamily::kCycle;
  cfg.n = 96;
  cfg.trials = 6;
  cfg.seed = 5;
  ASSERT_TRUE(chaos_fault_model("churn", cfg.plan));

  cfg.threads = 1;
  const auto s1 = run_fault_campaign(cfg);
  cfg.threads = 2;
  const auto s2 = run_fault_campaign(cfg);
  cfg.threads = 8;
  const auto s8 = run_fault_campaign(cfg);

  EXPECT_EQ(s1.to_string(), s2.to_string());
  EXPECT_EQ(s1.to_string(), s8.to_string());
  ASSERT_EQ(s1.reports.size(), s8.reports.size());
  for (std::size_t t = 0; t < s1.reports.size(); ++t) {
    EXPECT_EQ(s1.reports[t].to_string(), s8.reports[t].to_string()) << "trial " << t;
  }
  // The churn adversary actually crashed and recovered somebody, so the
  // byte-identity above covered the recovery path.
  long long crashed = 0, recovered = 0;
  for (const auto& r : s1.reports) {
    crashed += r.engine_crashed;
    recovered += r.engine_recovered;
  }
  EXPECT_GT(crashed, 0);
  EXPECT_GT(recovered, 0);
}

TEST(Targeting, MasksAreDeterministicAndHitTheExactBudget) {
  const Graph g = make_star(50, IdMode::kRandomDense, 3);
  FaultPlan plan;
  plan.seed = 9;
  plan.advice.node_fraction = 0.1;

  for (const auto targeting : {AdviceTargeting::kUniform, AdviceTargeting::kHighDegree,
                               AdviceTargeting::kRegionBoundary}) {
    plan.advice.targeting = targeting;
    const FaultInjector a(plan);
    const FaultInjector b(plan);
    EXPECT_EQ(a.advice_target_mask(g), b.advice_target_mask(g))
        << to_string(targeting) << " mask is nondeterministic";
  }

  // Targeted modes pick exactly round(fraction * n) victims; the uniform
  // mode is per-node independent and has no exact budget.
  plan.advice.targeting = AdviceTargeting::kHighDegree;
  const auto mask = FaultInjector(plan).advice_target_mask(g);
  const long long expected = std::llround(0.1 * g.n());
  EXPECT_EQ(std::count(mask.begin(), mask.end(), char{1}), expected);
  // The hub is the highest-degree node — under high-degree targeting it is
  // always a victim.
  int hub = 0;
  for (int v = 1; v < g.n(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  EXPECT_EQ(mask[static_cast<std::size_t>(hub)], 1);

  plan.advice.targeting = AdviceTargeting::kRegionBoundary;
  const auto bmask = FaultInjector(plan).advice_target_mask(g);
  EXPECT_EQ(std::count(bmask.begin(), bmask.end(), char{1}), expected);
}

}  // namespace
}  // namespace lad::faults
