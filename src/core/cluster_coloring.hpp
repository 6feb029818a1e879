// Lemma 6.3 as a standalone schema — O(Δ^2)-coloring with advice.
//
// Stage 1 of the §6 pipeline, exposed on its own because the paper states
// it as a separate composable schema: an (r, r)-ruling-set clustering whose
// centers learn the color of their cluster in a proper coloring of the
// cluster graph; combining (intra-cluster color, cluster color) and running
// Linial's reduction yields a proper O(Δ^2)-coloring in rounds that depend
// only on Δ and the spacing parameter.
#pragma once

#include <vector>

#include "advice/schema.hpp"
#include "graph/graph.hpp"

namespace lad {

struct ClusterColoringParams {
  int cluster_spacing = 12;  // (r, r)-ruling-set distance
  /// Schema id used when composing with other schemas.
  int schema_id = 0;
};

struct ClusterColoringEncoding {
  VarAdvice advice;  // one entry per cluster center (its cluster color)
  int num_clusters = 0;
  int num_cluster_colors = 0;
};

/// Centralized prover.
ClusterColoringEncoding encode_cluster_coloring_advice(const Graph& g,
                                                       const ClusterColoringParams& params = {});

struct ClusterColoringDecodeResult {
  std::vector<int> coloring;  // proper, O(Δ^2) colors
  int num_colors = 0;
  int rounds = 0;
};

/// LOCAL decoder: recover clustering from the advice anchors, broadcast
/// cluster colors, flatten, reduce with Linial.
ClusterColoringDecodeResult decode_cluster_coloring(const Graph& g, const VarAdvice& advice,
                                                    const ClusterColoringParams& params = {});

}  // namespace lad
