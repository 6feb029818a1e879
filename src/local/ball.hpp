// Radius-t views ("balls") — the information-theoretic content of t rounds
// in the LOCAL model.
//
// A classical fact about the LOCAL model with unbounded messages: a T-round
// algorithm is exactly a function mapping each node's radius-T ball
// (topology + IDs + inputs within distance T) to an output. The heavy
// decoders in this library are written against this view API; the message
// engine in engine.hpp provides the operational semantics, and the test
// suite cross-validates the two (gather-by-flooding reconstructs the same
// ball).
#pragma once

#include <vector>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace lad {

struct Ball {
  /// Induced subgraph on N_<=radius(center); nodes keep their original IDs.
  Graph graph;
  /// Index of the center within `graph`.
  int center = 0;
  /// Ball index -> index in the parent graph.
  std::vector<int> to_parent;
  /// Ball index -> distance from the center.
  std::vector<int> dist;
  int radius = 0;

  /// Parent index -> ball index lookup (linear; balls are small).
  int from_parent(int parent_ix) const {
    for (std::size_t i = 0; i < to_parent.size(); ++i) {
      if (to_parent[i] == parent_ix) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Extracts the radius-t ball around `center`, optionally restricted to a
/// masked subgraph.
Ball extract_ball(const Graph& g, int center, int radius, const NodeMask& mask = {});

}  // namespace lad
