// §6 — Δ-coloring Δ-colorable graphs with advice, in T(Δ) rounds.
//
// Three-stage pipeline, mirroring the paper:
//   1. O(Δ^2)-coloring with advice (Lemma 6.3): an (r, r)-ruling-set
//      clustering; the advice gives every cluster center the color of its
//      cluster in a proper coloring of the cluster graph. Combined with a
//      canonical intra-cluster (Δ+1)-coloring this yields a proper coloring
//      with (Δ+1)·K colors, then Linial's reduction brings it to O(Δ^2).
//   2. Reduction to Δ+1 colors by iterating over color classes (the
//      O(√(Δ log Δ))-round list-coloring black box of Theorem 6.8 is
//      substituted by the classical O(Δ^2)-round class iteration; both are
//      functions of Δ only — see DESIGN.md §2).
//   3. Δ+1 -> Δ (Lemma 6.6): uncolor the class Δ+1 and repair each
//      uncolored region with advice that pins the final colors of the
//      recolored nodes (the paper's relay vertices likewise "encode the
//      color in the resulting coloring"). Repair regions are pairwise
//      separated so all repairs apply concurrently in O(R) rounds.
//
// The advice is a variable-length schema (Definition 2, type 3): cluster
// centers hold their cluster color, repair anchors hold the recoloring
// patch. With params.uniform_one_bit the schema is additionally converted
// to a uniform 1-bit-per-node assignment via the path encoding of
// advice/sparsify.hpp (requires enough room: anchor separation and
// eccentricity, both checked — see DESIGN.md).
#pragma once

#include <vector>

#include "advice/schema.hpp"
#include "advice/sparsify.hpp"
#include "graph/graph.hpp"

namespace lad {

struct DeltaColoringParams {
  /// Ruling-set distance of the stage-1 clustering.
  int cluster_spacing = 12;
  /// Initial and maximal radius of stage-3 repair regions; a maximal
  /// radius of 0 = delta_repair_cap(Δ).
  int repair_radius = 2;
  int max_repair_radius = 0;
  /// Advice-free local-fix passes (stage 2.5) before stage-3 repairs.
  int local_fix_passes = 6;
  /// Also produce a uniform 1-bit encoding of the composed schema.
  bool uniform_one_bit = false;
};

/// The repair cap for max_repair_radius = 0, from Δ (which every node
/// knows): 6, or 20 when Δ <= 2, where recoloring a parity defect on a
/// cycle can legitimately need a long repair reach.
int delta_repair_cap(int max_degree);

struct DeltaColoringEncoding {
  /// Variable-length schema: storage node -> tagged payload entries.
  /// Schema id 0 = cluster color (anchor = center), 1 = repair patch.
  VarAdvice advice;
  /// Uniform 1-bit form (only when params.uniform_one_bit).
  std::vector<char> uniform_bits;
  int uniform_max_payload_bits = 0;
  int num_clusters = 0;
  int num_repairs = 0;
};

/// Centralized prover. `witness` must be a proper Δ-coloring of g (e.g. the
/// planted one; finding it is NP-hard and Definition 2 allows an unbounded
/// prover).
DeltaColoringEncoding encode_delta_coloring_advice(const Graph& g,
                                                   const std::vector<int>& witness,
                                                   const DeltaColoringParams& params = {});

struct DeltaColoringDecodeResult {
  std::vector<int> coloring;  // proper Δ-coloring, values 1..Δ
  int rounds = 0;
};

/// LOCAL decoder from the variable-length schema.
DeltaColoringDecodeResult decode_delta_coloring(const Graph& g, const VarAdvice& advice,
                                                const DeltaColoringParams& params = {});

/// LOCAL decoder from the uniform 1-bit form.
DeltaColoringDecodeResult decode_delta_coloring_one_bit(const Graph& g,
                                                        const std::vector<char>& bits,
                                                        int max_payload_bits,
                                                        const DeltaColoringParams& params = {});

}  // namespace lad
