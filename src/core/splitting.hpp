// §5 extensions — degree splitting on bipartite even-degree graphs, and
// Δ-edge-coloring of bipartite Δ-regular graphs (Δ a power of two) by
// recursive splitting.
//
// Splitting = red/blue edge coloring with equal counts at every node. Given
// an almost-balanced orientation and the bipartition 2-coloring, color every
// edge by its tail's color: outgoing edges of v all get v's color (d/2 of
// them), incoming edges all get the neighbors' (opposite) color — a perfect
// split. The advice is the orientation trail-marking of §5 where each
// marker's payload additionally carries the 2-color of the marker's start
// node (still one bit per node in total); nodes recover their own color by
// walking to a marker and counting parity. The trails, marker code and walk
// radius are trail_schema(g, {}, 1) (core/orientation.hpp): the orientation
// schema's defaults with a 1-bit payload.
#pragma once

#include <vector>

#include "core/orientation.hpp"
#include "graph/graph.hpp"

namespace lad {

struct SplittingEncoding {
  std::vector<char> bits;  // uniform 1-bit advice
  int num_marked_trails = 0;
};

/// Centralized prover. Requires: every degree even, graph bipartite.
SplittingEncoding encode_splitting_advice(const Graph& g);

struct SplittingDecodeResult {
  std::vector<int> edge_color;  // 1 = red, 2 = blue
  std::vector<int> node_color;  // recovered 2-coloring, values 1/2
  int rounds = 0;
};

/// LOCAL decoder: orientation + marker color payloads + parity propagation.
SplittingDecodeResult decode_splitting(const Graph& g, const std::vector<char>& bits);

/// decode_splitting's parity propagation. Every node still uncolored (0) in
/// `node_color` takes the color of the nearest colored node of its
/// component, flipped once per hop (the graph is bipartite). A component
/// with no colored node is gathered whole and colored by BFS parity from its
/// smallest-ID node; the members of each such component deeper than the
/// gather bound (1000) are appended to `too_deep`, one list per component.
/// Returns the rounds charged: walk_limit plus the distance for a
/// propagated node, twice the depth for a gathered component.
int propagate_splitting_colors(const Graph& g, std::vector<int>& node_color, int walk_limit,
                               std::vector<std::vector<int>>& too_deep);

/// Δ-edge-coloring of a bipartite Δ-regular graph, Δ = 2^k, by recursive
/// splitting (each color class of Π_i is split again, log Δ levels). This is
/// the *composable* schema of the paper's corollary: advice is a stack of
/// log Δ splitting levels, so a node holds one bit per subgraph it appears
/// in (≤ Δ-1 bits in total; see DESIGN.md on why we report this
/// variable-length form).
struct EdgeColoringResult {
  std::vector<int> edge_color;      // proper Δ-edge-coloring, colors 1..Δ
  std::vector<int> bits_per_node;   // total advice bits per node, all levels
  int levels = 0;
  int rounds = 0;  // sum of per-level decode rounds
};

EdgeColoringResult edge_color_bipartite_regular(const Graph& g);

}  // namespace lad
