// Proof-guarded decoders with local repair.
//
// The §1.2 corollary makes every advice schema locally checkable: corrupted
// advice is rejected by some node inspecting a constant-radius ball. This
// layer turns local *checkability* into local *repair*. Each guarded
// decoder:
//
//   1. runs the underlying paper decoder in a containment mode (the
//      tolerant decode variants, or per-trail marker consensus) so that a
//      locally-detected inconsistency poisons only its natural scope — a
//      trail segment, a cluster, a G_{2,3} component — never the run;
//   2. re-verifies the output with an independent radius-r local checker
//      and collects the rejecting nodes;
//   3. repairs every rejecting region *locally*: the region is re-solved
//      advice-free with the exact LCL solver under a pinned boundary, at
//      escalating radius, exactly like the §6 repair machinery; regions
//      that stay infeasible at the maximum radius are *flagged*, never
//      silently guessed.
//
// The resulting guarantee, stated per decoder in the RobustnessReport:
// every run ends in a checker-valid output, or every unservable node is
// explicitly listed as flagged — detected failure or valid output, never
// silent corruption. `lad bench r1` measures the blast radius (the farthest
// repaired or flagged node from a fault site) at two sizes 4x apart: on
// grids it moves by at most 3, but on cycles it grows with n for the
// trail-based decoders (orientation 0 -> 33, splitting 21 -> 95, decompress
// 10 -> 20 from n = 200 to 800), so repairs are not constant-radius in
// general.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/graph.hpp"
#include "lcl/lcl.hpp"

namespace lad::robust {

/// Repair policy framework (DESIGN.md §11.2). Repair first re-solves a
/// region at radius 2 and escalates to at most radius 8; a region still
/// infeasible there is flagged. The fields bound the work repair may do and
/// select the fallback-ladder rung taken when those bounds are hit. Every
/// default reproduces the legacy behavior exactly (linear escalation, no
/// budgets, flag on failure), so existing goldens are unaffected.
struct RepairPolicy {
  /// Backtracking budget per region re-solve.
  std::int64_t solver_budget = 2'000'000;
  /// Retry cap per region beyond the first attempt. 0 = legacy linear
  /// escalation (radius 2, 3, ..., 8). k > 0 = at most k retries with the
  /// radius doubling each time (2, 4, 8).
  int max_retries = 0;
  /// Global repair budget: total region nodes one run may re-solve across
  /// all attempts (0 = unlimited). Exhausted regions skip local repair and
  /// fall down the ladder.
  long long repair_node_budget = 0;
  /// Per-run repair deadline in radius units: the attempted region radii
  /// summed over the run may not exceed this (0 = unlimited). The radius of
  /// a local re-solve is its round cost in the LOCAL model, so this is a
  /// round budget for the repair phase.
  long long repair_round_deadline = 0;
  /// Fallback-ladder rung below local repair: re-solve the whole connected
  /// component advice-free (correct output, locality lost — the component's
  /// nodes are *degraded*, not repaired) instead of flagging outright.
  bool advice_free_fallback = false;
};

/// One locally re-solved (or flagged) region.
struct RepairRegion {
  std::vector<int> nodes;  // sorted node indices
  int radius = 0;          // ball radius that succeeded (or was given up at)
  bool repaired = false;   // false = degraded or flagged
  bool degraded = false;   // advice-free fallback rung succeeded (non-local)
};

/// Per-node service level after a guarded decode, ordered worst-first:
/// flagged > degraded > repaired > verified. A node's final status is the
/// worst that applies (the status lattice of DESIGN.md §11).
enum class DegradeStatus {
  kVerified,  // untouched by faults, passed the independent check
  kRepaired,  // output re-derived locally; full guarantee restored
  kDegraded,  // served by a ladder rung below local repair (correct but
              // non-local, or rejected-yet-unrepaired output)
  kFlagged,   // unservable; surfaced, never guessed
};

const char* to_string(DegradeStatus status);

/// Bucket counts plus the policy-exhaustion events that caused them.
/// total() == n iff every node is accounted for — the acceptance criterion
/// the chaos campaign checks.
struct DegradationSummary {
  int verified = 0;
  int repaired = 0;
  int degraded = 0;
  int flagged = 0;
  long long retries = 0;       // repair attempts beyond the first, summed
  int budget_exhausted = 0;    // regions abandoned to repair_node_budget
  int deadline_exhausted = 0;  // regions abandoned to repair_round_deadline
  int total() const { return verified + repaired + degraded + flagged; }
  bool accounted(int n) const { return total() == n; }
};

/// Per-run accounting of one guarded decode. The decoder-facing fields are
/// filled by the guarded decoders; the campaign layer adds the fault
/// bookkeeping (injected counts, blast radius, silent-corruption verdict)
/// before rendering. to_string() is byte-deterministic for a fixed input —
/// no pointers, timings, or float formatting — which is what the
/// determinism regression test and the CLI golden test pin down.
struct RobustnessReport {
  std::string decoder;

  // Faults (campaign layer).
  long long advice_faults = 0;
  long long graph_faults = 0;
  long long engine_dropped = 0;
  long long engine_corrupted = 0;
  long long engine_duplicated = 0;
  long long engine_delayed = 0;
  int engine_crashed = 0;
  int engine_recovered = 0;
  long long faults_injected() const {
    return advice_faults + graph_faults + engine_dropped + engine_corrupted +
           engine_duplicated + engine_delayed + static_cast<long long>(engine_crashed);
  }

  // Detection (guarded decoder).
  long long detected_violations = 0;  // contract violations caught / contained
  std::vector<int> rejecting_nodes;   // nodes failing the independent local check

  // Repair (guarded decoder).
  std::vector<int> repaired_nodes;  // output re-derived locally, now valid
  std::vector<int> degraded_nodes;  // served by a sub-repair ladder rung
  std::vector<int> flagged_nodes;   // repair impossible; surfaced, not guessed
  std::vector<RepairRegion> regions;

  // Degradation accounting (DESIGN.md §11). node_status and the summary's
  // bucket counts are filled by finalize_degradation; the summary's
  // exhaustion counters accumulate during repair.
  std::vector<DegradeStatus> node_status;
  DegradationSummary degradation;

  /// Assigns every node its final DegradeStatus (worst applicable wins:
  /// flagged > degraded > repaired > verified; a rejecting node that was
  /// never repaired or flagged counts as degraded) and fills the summary's
  /// bucket counts. Call once the rejecting/repaired/degraded/flagged sets
  /// are final; idempotent.
  void finalize_degradation(int n);

  // Outcome.
  bool output_valid = false;  // final independent check (flagged scope excluded)
  int residual_violations = 0;  // rejecting nodes that remain outside flagged scope
  int blast_radius = 0;  // max dist(fault site -> repaired/flagged node); campaign layer
  bool silent_corruption = false;  // invalid output with zero detection — must never happen
  int rounds = 0;

  bool degraded() const {
    return detected_violations > 0 || !rejecting_nodes.empty() || !repaired_nodes.empty() ||
           !degraded_nodes.empty() || !flagged_nodes.empty();
  }

  std::string to_string() const;
};

/// Max distance from any node of `touched` to the nearest node of `sites`
/// (multi-source BFS from the fault sites). 0 when either set is empty;
/// unreachable pairs (fault in another component) are skipped.
int blast_radius(const Graph& g, const std::vector<int>& sites,
                 const std::vector<int>& touched);

/// Local repair: clusters `bad_nodes`, re-solves the ball around each
/// cluster with `p` under a pinned boundary at escalating radius, and
/// applies successful completions to `lab`. Nodes of regions that stay
/// infeasible at the maximum radius (8) keep their labels cleared and are
/// flagged. Appends to report.regions / repaired_nodes / flagged_nodes.
void repair_labeling_locally(const Graph& g, const LclProblem& p, Labeling& lab,
                             const std::vector<int>& bad_nodes, const RepairPolicy& policy,
                             RobustnessReport& report);

/// A guarded decode's result: the registry's uniform output plus the run's
/// accounting.
struct GuardedOutcome {
  PipelineOutput output;
  RobustnessReport report;
};

/// The guarded prover: p's encode, except that §1.5 appends a 16-bit
/// integrity guard to every label (a hash of node ID, orientation bit,
/// out-neighbor IDs and membership bits). Membership bits carry zero
/// redundancy, so without the guard a byzantine rewrite of them would be
/// undetectable.
PipelineAdvice guarded_encode(const Pipeline& p, const Graph& g, const PipelineConfig& cfg);

/// Proof-guarded decode with local repair, for any registry pipeline. Never
/// throws on corrupted advice: what it cannot repair it flags in the report.
/// The trail decoders (orientation, splitting) read the strict decoders'
/// trail_schema and take marker consensus per long trail (16 sampled votes),
/// reading each position's own ±walk_limit decode from one whole-trail
/// decode (decode_trail_marks); three_coloring and subexp_lcl run their
/// tolerant decodes; delta_coloring drops malformed schema entries stage by
/// stage; decompress verifies every label's guard (guarded_encode) and flags
/// the edges of a label that fails it. Every output except decompress's is
/// then checked by an independent local checker and repaired with
/// repair_labeling_locally.
GuardedOutcome guarded_decode(const Pipeline& p, const Graph& g, const PipelineAdvice& adv,
                              const PipelineConfig& cfg, const RepairPolicy& policy = {});

}  // namespace lad::robust
