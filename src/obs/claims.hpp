// Claims observatory: machine-readable paper claims per pipeline, and the
// n-sweep conformance check behind `lad verify-claims` / `lad report`
// (DESIGN.md §9.6).
//
// The paper's results are asymptotic statements — "T(Δ) decode rounds
// independent of n", "1 bit of advice per node", "arbitrarily sparse
// advice" — that until this layer lived only in prose (EXPERIMENTS.md
// tables read by a human). The observatory closes that loop:
//
//   * every Pipeline declares its claims through Pipeline::claims()
//     (growth classes of rounds / bits-per-node / ones-ratio versus n,
//     plus optional absolute ceilings), so registering a pipeline
//     registers its claims — the claim registry is assembled from
//     pipelines() and cannot drift from it;
//   * run_claim_sweep() drives the real encode → decode → verify stack
//     over an n-sweep of make_instance() graphs and records the measured
//     series;
//   * check_pipeline_claims() classifies each series with the scaling-law
//     fitter (obs/fit.hpp) and compares against the declared class, plus
//     pointwise bound checks; verify() failing at any sweep point fails
//     the claim outright.
//
// Lives in lad_claims (needs the Pipeline registry, which lad_obs must not
// depend on); fit/benchdiff stay stdlib-only in lad_obs underneath.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/source.hpp"
#include "obs/fit.hpp"

namespace lad::obs {

/// One measured point of a pipeline n-sweep (the real stack, not a model):
/// instance size, decode rounds, and Definition 2/3 advice accounting.
struct SweepPoint {
  int n = 0;
  int m = 0;
  int rounds = 0;
  double bits_per_node = 0;
  long long total_bits = 0;
  /// Definition 3 sparsity (ones / n); only meaningful for kUniformBits.
  double ones_ratio = 0;
  bool verified = false;
};

/// One checked claim: a measured series against its declared growth class
/// or absolute bound.
struct ClaimCheck {
  std::string metric;       // "rounds", "bits_per_node", "ones_ratio", ...
  std::string expected;     // declared class or bound, printable
  std::string observed;     // FitResult::to_string() or worst observed value
  bool pass = false;
  FitResult fit;            // populated for growth-class checks
};

struct PipelineClaimReport {
  std::string name;
  std::string section;
  std::string statement;
  std::vector<SweepPoint> points;
  std::vector<ClaimCheck> checks;

  bool pass() const;
};

struct ClaimsReport {
  std::string git_commit;
  std::string timestamp;
  std::vector<double> sweep_ns;
  std::vector<PipelineClaimReport> pipelines;

  bool pass() const;
  std::string to_text() const;
  std::string to_json() const;
  /// EXPERIMENTS-generated.md: the `lad report` body — per-pipeline claim
  /// tables with PASS/FAIL verdicts, regenerable from source.
  std::string to_markdown() const;
};

/// The default sweep: large enough that linear/sqrt escapes would be
/// unmistakable, small enough that the full six-pipeline sweep stays in
/// smoke-test territory.
std::vector<int> default_sweep_ns();

/// Runs one pipeline's real encode/decode/verify over the sweep.
/// Instance configs come from Pipeline::sweep_config(n), the sweep's pinned
/// overrides, with cfg.seed derived from `seed` so the sweep is deterministic.
std::vector<SweepPoint> run_claim_sweep(const Pipeline& p, const std::vector<int>& ns,
                                        std::uint64_t seed = 1);

/// Like run_claim_sweep, but the sweep points are explicit GraphSources
/// (generated families, .ladg files, or edge lists) instead of
/// make_instance sizes — the path by which imported graphs feed the
/// scaling-law fitter. A graph p does not admit throws InadmissibleInput;
/// as with generated sweeps, verify() is the gate that catches mismatches.
std::vector<SweepPoint> run_claim_sweep_sources(const Pipeline& p,
                                                const std::vector<GraphSource>& sources,
                                                std::uint64_t seed = 1);

/// Fits the measured series and checks them against p.claims().
PipelineClaimReport check_pipeline_claims(const Pipeline& p, const std::vector<SweepPoint>& points,
                                          const FitOptions& opts = {});

/// The whole observatory: sweep + check for every registered pipeline
/// (or only `family`, by registry name, when non-empty). With
/// `extend_sweeps` set (the no---ns CLI default), each pipeline may grow
/// the base sweep through Pipeline::sweep_ns so its fits span more
/// decades of n; with explicit sizes the caller's list is used verbatim.
ClaimsReport verify_claims(const std::vector<int>& ns, const std::string& family = "",
                           std::uint64_t seed = 1, bool extend_sweeps = false);

/// The observatory over explicit graph sources (`lad verify-claims
/// --graphs`): one sweep point per source, checked against the claims of
/// the single pipeline named by `family` (required — arbitrary imported
/// graphs cannot satisfy every pipeline's instance preconditions).
/// Needs at least 3 sources, the fitter's minimum.
ClaimsReport verify_claims_sources(const std::vector<GraphSource>& sources,
                                   const std::string& family, std::uint64_t seed = 1);

}  // namespace lad::obs
