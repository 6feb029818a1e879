// The chaos matrix: pipelines × families × fault-models × rates × policies
// run as one campaign cross-product (ROADMAP item 5; the fault-tolerance /
// self-stabilization story of Rozhoň's "Invitation to Local Algorithms").
//
// Every cell runs a full fault campaign (faults/campaign.hpp) under a named
// adversary scaled by a rate, decoded under a named repair policy, and is
// judged on the layer's two hard guarantees:
//
//   * silent_corruptions == 0 — detected failure or valid output, never a
//     silently wrong answer;
//   * every node is accounted for in a DegradeStatus bucket — overload
//     produces explicit partial service (verified / repaired / degraded /
//     flagged), never an unbounded escalation loop.
//
// The report is byte-deterministic: cell seeds derive from (seed, cell
// index), all numbers are integers (rates are percents), and the thread
// count never appears — two runs of the same matrix, at any thread counts,
// render byte-identical markdown and JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/campaign.hpp"

namespace lad::faults {

/// Named adversaries of the chaos matrix. Each is a FaultPlan template
/// (seed ignored; campaigns derive per-trial seeds):
///   * "mixed"       — the default_mixed_plan oblivious adversary;
///   * "adversarial" — targeted advice corruption (high-degree victims,
///     byzantine-heavy kinds) plus burst graph faults;
///   * "churn"       — crash-recovery churn with message duplication and
///     bounded delay.
std::vector<std::string> chaos_model_names();
/// The plan for a named model; returns false for an unknown name.
bool chaos_fault_model(const std::string& name, FaultPlan& out);

/// Named repair policies of the chaos matrix:
///   * "strict"   — legacy unbounded linear escalation, flag on failure;
///   * "backoff"  — 3 retries with exponential radius backoff, advice-free
///     component fallback below local repair;
///   * "budgeted" — backoff plus a global repair node budget and a per-run
///     round deadline, so overload degrades instead of escalating.
std::vector<std::string> chaos_policy_names();
/// The policy for a named entry; returns false for an unknown name.
bool chaos_repair_policy(const std::string& name, robust::RepairPolicy& out);

/// Scales every probability/fraction of the plan by rate_percent/100
/// (clamped to [0, 0.9]); structural knobs (burst counts, windows, recovery
/// rounds) are left alone. 100 returns the plan unchanged.
FaultPlan scale_plan(FaultPlan plan, int rate_percent);

struct ChaosConfig {
  std::vector<PipelineId> pipelines;   // default: orientation,
                                        // three_coloring, subexp_lcl
  std::vector<GraphFamily> families;    // default: cycle, grid, torus
  std::vector<std::string> models;      // default: all named models
  std::vector<int> rate_percents;       // default: {100}
  std::vector<std::string> policies;    // default: all named policies
  int n = 120;
  int trials = 5;
  std::uint64_t seed = 1;
  /// Per-cell campaign thread count. Influences wall time only — the
  /// report is byte-identical at any value and never mentions it.
  int threads = 1;
};

/// One matrix cell: its coordinates plus the campaign outcome and the
/// DegradeStatus buckets summed over the cell's trials.
struct ChaosCell {
  PipelineId decoder = PipelineId::kOrientation;
  GraphFamily family = GraphFamily::kCycle;  // family actually used
  std::string model;
  int rate_percent = 100;
  std::string policy;
  CampaignSummary summary;
  long long verified = 0;
  long long repaired = 0;
  long long degraded = 0;
  long long flagged = 0;

  bool ok() const {
    return summary.silent_corruptions == 0 && summary.all_nodes_accounted;
  }
};

struct ChaosReport {
  int n = 0;
  int trials = 0;
  std::uint64_t seed = 0;
  std::vector<ChaosCell> cells;

  /// The layer guarantee over the whole matrix: zero silent corruptions and
  /// complete DegradeStatus accounting in every cell.
  bool pass() const;

  /// ROBUSTNESS-generated.md — byte-deterministic markdown (integers only).
  std::string to_markdown() const;
  /// Machine-readable twin of the markdown report.
  std::string to_json() const;
};

/// Runs the full cross-product. Cells run in declaration order (pipelines
/// outermost, policies innermost); each cell's campaign seed derives from
/// (config.seed, cell index), so inserting a cell re-seeds only the cells
/// after it.
ChaosReport run_chaos_campaign(const ChaosConfig& config);

}  // namespace lad::faults
