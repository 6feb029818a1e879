// R1 — robustness under the deterministic fault adversary.
//
// Two questions, per decoder:
//
//   * detection: under each fault layer separately (advice / graph /
//     engine) and under the mixed adversary, how many faults are injected,
//     how many are detected or repaired, and does any trial end in silent
//     corruption? (The layer's contract: silent_corruptions == 0, always.)
//
//   * blast radius: faults of constant radius must cause repairs of
//     constant radius — max dist(fault site -> repaired/flagged node) must
//     not grow with n. Reported on the cycle and grid families at doubling
//     sizes.
//
// Δ-coloring on a cycle is the one excluded pair: an even cycle's
// Δ-coloring is a 2-coloring, whose parity constraint is global, so a
// local fault legitimately needs Ω(n) reach (that is the paper's point
// about Δ-coloring being the hard case). The grid family (Δ = 4, slack
// colors) shows the constant blast radius for it.
#include <benchmark/benchmark.h>

#include <string>

#include "faults/campaign.hpp"

namespace lad::faults {
namespace {

void report_summary(benchmark::State& state, const CampaignSummary& s) {
  state.counters["trials"] = s.trials;
  state.counters["faults_injected"] = static_cast<double>(s.faults_injected);
  state.counters["detected"] = static_cast<double>(s.total_detected);
  state.counters["repaired_nodes"] = static_cast<double>(s.total_repaired_nodes);
  state.counters["flagged_nodes"] = static_cast<double>(s.total_flagged_nodes);
  state.counters["trials_output_valid"] = s.trials_output_valid;
  state.counters["trials_degraded"] = s.trials_degraded;
  state.counters["residual"] = s.trials_residual;
  state.counters["silent_corruptions"] = s.silent_corruptions;  // must be 0
  state.counters["max_blast_radius"] = s.max_blast_radius;
}

CampaignConfig base_config(PipelineId decoder, GraphFamily family, int n, int trials) {
  CampaignConfig cfg;
  cfg.decoder = decoder;
  cfg.family = family;
  cfg.n = n;
  cfg.trials = trials;
  cfg.seed = 7;
  if (decoder == PipelineId::kSubexpLcl) cfg.subexp.x = 60;
  return cfg;
}

// --- detection per fault layer -------------------------------------------

enum class Layer : int { kAdviceOnly, kGraphOnly, kEngineOnly, kMixed };

FaultPlan plan_for(Layer layer) {
  FaultPlan mixed = default_mixed_plan();
  FaultPlan plan;
  switch (layer) {
    case Layer::kAdviceOnly:
      plan.advice = mixed.advice;
      break;
    case Layer::kGraphOnly:
      plan.graph = mixed.graph;
      break;
    case Layer::kEngineOnly:
      plan.engine = mixed.engine;
      break;
    case Layer::kMixed:
      plan = mixed;
      break;
  }
  return plan;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kAdviceOnly:
      return "advice";
    case Layer::kGraphOnly:
      return "graph";
    case Layer::kEngineOnly:
      return "engine";
    case Layer::kMixed:
      return "mixed";
  }
  return "?";
}

void BM_FaultDetection(benchmark::State& state) {
  const auto decoder = static_cast<PipelineId>(state.range(0));
  const auto layer = static_cast<Layer>(state.range(1));
  auto cfg = base_config(decoder, GraphFamily::kCycle, 200, 20);
  if (decoder == PipelineId::kSubexpLcl) cfg.n = 128;
  cfg.plan = plan_for(layer);

  CampaignSummary s;
  for (auto _ : state) {
    s = run_fault_campaign(cfg);
  }
  report_summary(state, s);
  state.SetLabel(std::string(pipeline(decoder).name()) + " / " + layer_name(layer) + " faults");
}

// --- blast radius vs n ----------------------------------------------------

void BM_BlastRadiusCycle(benchmark::State& state) {
  const auto decoder = static_cast<PipelineId>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  auto cfg = base_config(decoder, GraphFamily::kCycle, n, 10);
  // x is the §4 feasibility knob: the phase-code path budget y grows with
  // x, and the number of phase colors grows with n, so x must scale up
  // alongside n for the encode to exist at all.
  if (decoder == PipelineId::kSubexpLcl) cfg.subexp.x = n >= 512 ? 150 : 60;

  CampaignSummary s;
  for (auto _ : state) {
    s = run_fault_campaign(cfg);
  }
  report_summary(state, s);
  state.SetLabel(std::string(pipeline(decoder).name()) + " cycle: blast radius must not grow with n");
}

void BM_BlastRadiusGrid(benchmark::State& state) {
  const auto decoder = static_cast<PipelineId>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  auto cfg = base_config(decoder, GraphFamily::kGrid, n, 10);
  // Splitting substitutes a torus (it needs even degrees); its exact-solver
  // repair over degree-4 edge-labeled regions is the expensive case, so it
  // runs with a reduced backtracking budget — exhaustion flags, never lies.
  if (decoder == PipelineId::kSplitting) {
    cfg.trials = 3;
    cfg.policy.solver_budget = 100'000;
  }

  CampaignSummary s;
  for (auto _ : state) {
    s = run_fault_campaign(cfg);
  }
  report_summary(state, s);
  state.SetLabel(std::string(pipeline(decoder).name()) + " grid: blast radius must not grow with n");
}

void DetectionArgs(benchmark::internal::Benchmark* b) {
  for (const Pipeline* p : pipelines()) {
    const PipelineId decoder = p->id();
    for (const auto layer :
         {Layer::kAdviceOnly, Layer::kGraphOnly, Layer::kEngineOnly, Layer::kMixed}) {
      b->Args({static_cast<long>(decoder), static_cast<long>(layer)});
    }
  }
}

void CycleArgs(benchmark::internal::Benchmark* b) {
  for (const Pipeline* p : pipelines()) {
    const PipelineId decoder = p->id();
    if (decoder == PipelineId::kDeltaColoring) continue;  // global parity; see header
    const int base = decoder == PipelineId::kSubexpLcl ? 128 : 200;
    b->Args({static_cast<long>(decoder), base});
    b->Args({static_cast<long>(decoder), 4 * base});
  }
}

void GridArgs(benchmark::internal::Benchmark* b) {
  for (const Pipeline* p : pipelines()) {
    const PipelineId decoder = p->id();
    if (decoder == PipelineId::kSubexpLcl) continue;  // §4 clusters want cycle-scale x
    // Splitting's exact-solver repair makes big tori minutes-per-trial;
    // 64 -> 256 still quadruples n (blast radius stays put regardless).
    const int base = decoder == PipelineId::kSplitting ? 64 : 256;
    b->Args({static_cast<long>(decoder), base});
    b->Args({static_cast<long>(decoder), 4 * base});
  }
}

BENCHMARK(BM_FaultDetection)->Apply(DetectionArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlastRadiusCycle)->Apply(CycleArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlastRadiusGrid)->Apply(GridArgs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lad::faults
