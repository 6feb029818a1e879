// Centralized exact LCL solver (backtracking with incremental local
// constraint checks).
//
// Used by (a) encoders, which per Definition 2 are centralized and may
// compute any witness, and (b) the §4 decoder, where each cluster completes
// the pinned border labeling by brute force inside its own ball.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lcl/lcl.hpp"

namespace lad {

/// Searches, in place, for labels of `free_nodes`/`free_edges` extending
/// `lab` (entries -1 are unassigned; the free labels count as unassigned
/// whatever they hold) such that valid_at holds for every node of
/// `check_nodes` whose constraint region becomes fully labeled. Every check
/// node's region must be fully labeled once the search finishes. Returns
/// true with the completion written into `lab`, or false if no completion
/// exists. A step-budget exhaustion throws instead (a usage error). On false
/// or a throw the free labels get back the values they held on entry.
/// The search touches only the free variables and the balls around them,
/// so a region solve costs O(region), not O(n).
bool solve_lcl(const Graph& g, const LclProblem& p, Labeling& lab,
               const std::vector<int>& free_nodes, const std::vector<int>& free_edges,
               const std::vector<int>& check_nodes, std::int64_t max_steps = 50'000'000);

/// Whole-graph witness search: all labels free, all constraints checked.
/// nullopt if no labeling exists or the step budget runs out first — a
/// witness search treats both as "no witness" (DESIGN.md §8.5).
std::optional<Labeling> solve_lcl(const Graph& g, const LclProblem& p,
                                  std::int64_t max_steps = 50'000'000);

}  // namespace lad
