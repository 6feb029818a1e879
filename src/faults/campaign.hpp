// Seeded fault campaigns: the experiment harness of the robustness layer.
//
// A campaign fixes a decoder, a graph family, and a FaultPlan template, and
// runs `trials` independent decodes, each under a per-trial derived fault
// seed mixing all three fault layers:
//
//   encode on the pristine graph
//     -> graph faults   (edge deletions: the advice is now stale)
//     -> advice faults  (bit flips / erasure / byzantine / truncation)
//     -> guarded decode + local repair   (src/faults/robust.hpp)
//     -> engine faults  (a distributed verification echo runs under the
//        HashedEngineFaults model; nodes that crash or miss messages
//        cannot certify and are counted as rejecting)
//     -> central ground-truth check (silent-corruption verdict)
//
// Everything is a pure function of (config, trial index): re-running a
// campaign reproduces every report byte-for-byte, which the determinism
// regression test and the CLI golden test rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "faults/robust.hpp"
#include "graph/graph.hpp"
#include "obs/profile.hpp"

namespace lad {
class EngineFaultModel;  // local/engine.hpp
class ThreadPool;        // util/thread_pool.hpp
}

namespace lad::faults {

enum class GraphFamily { kCycle, kGrid, kTorus };

const char* to_string(GraphFamily family);
std::optional<GraphFamily> parse_family(std::string_view name);

/// The standard mixed adversary: a little of every fault layer. The plan's
/// seed field is ignored by campaigns (each trial derives its own).
FaultPlan default_mixed_plan();

/// Rounds of the engine-layer verification echo (>= 2 so that a single
/// corrupted copy is caught by cross-round comparison).
inline constexpr int kEchoRounds = 3;

struct CampaignConfig {
  /// The pipeline under attack (registry id, core/pipeline.hpp).
  PipelineId decoder = PipelineId::kOrientation;
  GraphFamily family = GraphFamily::kCycle;
  int n = 400;       // target node count (rounded to the family's grid)
  int trials = 100;
  std::uint64_t seed = 1;
  FaultPlan plan = default_mixed_plan();
  robust::RepairPolicy policy;
  /// Trials run on a ThreadPool of this many workers (1 = serial). Every
  /// trial is a pure function of (config, trial index) and reports are
  /// folded in trial order, so the summary is byte-identical at any count.
  int threads = 1;
};

struct CampaignSummary {
  PipelineId decoder = PipelineId::kOrientation;
  /// Family actually used (splitting substitutes torus for grid: it needs
  /// even degrees).
  GraphFamily family = GraphFamily::kCycle;
  int n = 0;
  int m = 0;
  int trials = 0;

  long long faults_injected = 0;
  int trials_degraded = 0;     // at least one detection / repair / flag
  int trials_output_valid = 0; // final output passed the independent check
  int trials_flagged = 0;      // at least one node flagged unservable
  int trials_residual = 0;     // violations outside the flagged scope
  int silent_corruptions = 0;  // MUST stay 0: the guarantee of the layer
  int max_blast_radius = 0;
  long long total_detected = 0;
  long long total_repaired_nodes = 0;
  long long total_flagged_nodes = 0;

  // Degradation aggregates (DESIGN.md §11), folded from the per-trial
  // DegradationSummary. Not part of to_string() — the chaos layer renders
  // them; the legacy aggregate rendering (and its goldens) is unchanged.
  long long total_degraded_nodes = 0;
  long long total_repair_retries = 0;
  long long total_budget_exhausted = 0;
  long long total_deadline_exhausted = 0;
  /// True iff every trial's DegradeStatus buckets sum to n — the
  /// "every non-verified node is accounted for" acceptance criterion.
  bool all_nodes_accounted = true;

  /// Per-trial reports, in trial order (trial i used fault seed
  /// hash2(config.seed, i)).
  std::vector<robust::RobustnessReport> reports;

  /// Deterministic aggregate rendering (reports excluded).
  std::string to_string() const;
};

/// Runs the campaign described by `config`. Deterministic.
CampaignSummary run_fault_campaign(const CampaignConfig& config);

/// The family instance a campaign uses for (decoder, family, n) — exposed
/// so benchmarks exercise the exact graphs the campaigns exercise.
/// `family` is passed by reference because splitting substitutes torus for
/// grid (it needs even degrees).
Graph build_campaign_graph(PipelineId decoder, GraphFamily& family, int n);

/// Outcome of a distributed verification echo (digest broadcast +
/// cross-round comparison; see campaign.cpp's EchoVerify).
struct EchoResult {
  /// Nodes that could not certify their neighbors' digests, ascending.
  std::vector<int> unverified_nodes;
  long long messages = 0;
  long long bytes = 0;
  int rounds = 0;
  long long dropped = 0;
  long long corrupted = 0;
  long long duplicated = 0;
  long long delayed = 0;
  int crashed = 0;
  int recovered = 0;
};

/// Runs the verification echo on g: every node broadcasts its digest for
/// `echo_rounds` rounds and certifies only if every neighbor copy arrived
/// intact. `faults` optionally subjects the echo to an engine fault model.
/// This is the campaign's engine-fault stage and the observed run's source
/// of genuine message/bit traffic (the decoders themselves do not push
/// bytes through the engine). `pool` optionally fans the echo's compute
/// phase over a thread pool (byte-identical results per the §8 contract).
EchoResult run_verification_echo(const Graph& g, const std::vector<std::string>& digests,
                                 int echo_rounds, const EngineFaultModel* faults = nullptr,
                                 ThreadPool* pool = nullptr);

/// One observed run (DESIGN.md §13), the single driver behind `lad
/// profile` and tests/test_profile.cpp. Telemetry is on for its duration.
/// Per listed thread count: profile_warmup_runs(reps) discarded passes,
/// then `reps` timed passes of encode -> decode -> verify -> node_digests
/// -> 3-round verification echo (pooled when the count is > 1), each after
/// obs::reset_instruments(). total_ms is the min over reps; the record is
/// read from the last rep. The instruments are left holding the last rep
/// at the last count, so exports taken afterwards describe that rep.
/// Throws std::runtime_error if the deterministic slice diverges across
/// thread counts (a §8 violation).
obs::RunReport observe_run(const Pipeline& p, const Graph& g, const std::string& source,
                           const PipelineConfig& cfg, const std::vector<int>& thread_counts,
                           int reps);

}  // namespace lad::faults
