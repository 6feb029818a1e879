// §3.5's running example, end to end — the composability framework on the
// smallest natural problem.
//
//   Π:  given a bipartite graph with all degrees even, 2-color the edges
//       red/blue so every node has equally many red and blue edges.
//
// The paper decomposes Π into
//   Π_v — 2-coloring the nodes            (advice needed: global problem),
//   Π_o — balanced orientation            (advice needed: global problem),
//   Π_e — red := out-edges of white nodes (trivial given Π_v and Π_o).
//
// This module wires the two sub-schemas through the generic composition
// (advice/schema.hpp + advice/uniform.hpp): each sub-schema contributes
// variable-length entries under its own schema id; compose_schemas merges
// the storage nodes; the Lemma 2 conversion turns the result into one bit
// per node. The faster production path for the same problem is
// core/splitting.hpp (which fuses the two sub-schemas into the trail
// markers); this module exists to demonstrate the modular route of §3.5 on
// roomy graphs.
#pragma once

#include <vector>

#include "advice/schema.hpp"
#include "graph/graph.hpp"

namespace lad {

struct RunningExampleParams {
  /// Sub-schema Π_v: one color hint every `color_anchor_spacing` nodes.
  int color_anchor_spacing = 64;
  /// Sub-schema Π_o: one direction hint per orientation segment.
  int orientation_anchor_spacing = 64;
  /// Also produce the uniform 1-bit form (requires a roomy graph).
  bool uniform_one_bit = false;
};

struct RunningExampleEncoding {
  VarAdvice advice;               // composed Π_v (id 0) + Π_o (id 1) entries
  std::vector<char> uniform_bits;  // set when uniform_one_bit
  int uniform_max_payload_bits = 0;
};

/// Prover for Π. Requires: bipartite, all degrees even, connected enough
/// that every node reaches an anchor (checked).
RunningExampleEncoding encode_running_example(const Graph& g,
                                              const RunningExampleParams& params = {});

struct RunningExampleDecodeResult {
  std::vector<int> edge_color;  // 1 = red, 2 = blue (a valid splitting)
  std::vector<int> node_color;  // decoded Π_v
  int rounds = 0;
};

RunningExampleDecodeResult decode_running_example(const Graph& g, const VarAdvice& advice,
                                                  const RunningExampleParams& params = {});

RunningExampleDecodeResult decode_running_example_one_bit(const Graph& g,
                                                          const std::vector<char>& bits,
                                                          int max_payload_bits,
                                                          const RunningExampleParams& params = {});

}  // namespace lad
