// §7 — 3-coloring 3-colorable graphs with 1 bit of advice per node.
//
// Encoding (Theorem 7.1): fix a *greedy* 3-coloring φ (every node of color
// c has neighbors of all colors < c). Then:
//   * every color-1 node gets bit 1 ("type-1 bits");
//   * in every large component C of G_{2,3} (the graph induced by colors 2
//     and 3), sparse *groups* of additional 1-bits ("type-23 bits") pin down
//     which of the two 2-colorings of C the schema chose.
//
// The two bit kinds are distinguished exactly as in the paper: a 1-bit at v
// is of type 1 iff v has at most one neighbor carrying a 1-bit. Greedy-ness
// guarantees every group member sees >= 2 one-bit neighbors (its partner
// and/or its color-1 neighbors), while a constructive selection (the
// paper's LLL step) keeps every color-1 node at <= 1 group neighbor.
//
// A group is S_v ∪ S'_v where each half is either a single node w with two
// color-1 neighbors or an adjacent pair {x, y} with no common color-1
// neighbor (Lemma 7.2). Let s be the smallest-ID node of the union: if
// φ(s) = 2 only s's half is written (the group decodes as ONE connected
// component), if φ(s) = 3 both halves are written (TWO components). A
// decoder counts components, learns φ(s), and 2-colors its component of
// G_{2,3} by parity from s. Small components carry no advice and are
// 2-colored canonically.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace lad {

struct ThreeColoringEncoding {
  std::vector<char> bits;        // uniform 1-bit advice
  std::vector<int> greedy_phi;   // the greedy witness coloring (diagnostics)
  int num_groups = 0;
};

/// Centralized prover. `witness` must be a proper 3-coloring of g (the
/// encoder normalizes it to a greedy one); pass the planted coloring from
/// the generator, or any coloring found offline — 3-coloring is NP-hard, and
/// Definition 2 places no bound on the prover.
ThreeColoringEncoding encode_three_coloring_advice(const Graph& g,
                                                   const std::vector<int>& witness);

struct ThreeColoringDecodeResult {
  std::vector<int> coloring;  // proper 3-coloring, values 1..3
  int rounds = 0;
};

/// LOCAL decoder (poly(Δ) rounds). Throws ContractViolation on advice that
/// is locally detectably inconsistent.
ThreeColoringDecodeResult decode_three_coloring(const Graph& g, const std::vector<char>& bits);

/// Fault-tolerant decoder: inconsistencies are contained to their natural
/// scope (the component for canonical 2-coloring, the node for parity
/// lookup) instead of aborting the run. Affected nodes stay uncolored (0)
/// and are marked in `failed` (resized to n) for a later repair pass; a
/// wrong-sized bit vector still throws, as no per-node containment exists.
ThreeColoringDecodeResult decode_three_coloring_tolerant(const Graph& g,
                                                         const std::vector<char>& bits,
                                                         std::vector<char>& failed);

/// Rewrites a proper coloring into a greedy one (colors only decrease).
std::vector<int> normalize_to_greedy(const Graph& g, std::vector<int> coloring);

}  // namespace lad
