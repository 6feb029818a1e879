// Reference canonical trail direction, kept verbatim as the oracle
// tests/test_euler.cpp compares the library against: it builds the trail's
// ID sequence and its reverse, then every rotation of each (O(L^2) time,
// several allocations per call), as canonical_trail_direction did before
// the least rotation was found by a linear scan read in place.
// Test-only: nothing under src/ may include this file.
#pragma once

#include <vector>

#include "graph/euler.hpp"
#include "graph/graph.hpp"

namespace lad::reference {

inline std::vector<NodeId> id_sequence(const Graph& g, const std::vector<int>& nodes) {
  std::vector<NodeId> ids;
  ids.reserve(nodes.size());
  for (const int v : nodes) ids.push_back(g.id(v));
  return ids;
}

// Lexicographically smallest rotation of a cyclic sequence (O(L^2)).
inline std::vector<NodeId> min_rotation(const std::vector<NodeId>& seq) {
  std::vector<NodeId> best = seq;
  const std::size_t L = seq.size();
  std::vector<NodeId> rot(L);
  for (std::size_t s = 1; s < L; ++s) {
    for (std::size_t i = 0; i < L; ++i) rot[i] = seq[(s + i) % L];
    if (rot < best) best = rot;
  }
  return best;
}

inline bool canonical_trail_direction(const Graph& g, const Trail& t) {
  if (!t.closed) {
    return g.id(t.nodes.front()) < g.id(t.nodes.back());
  }
  const auto fwd = id_sequence(g, t.nodes);
  std::vector<NodeId> bwd(fwd.rbegin(), fwd.rend());
  return min_rotation(fwd) <= min_rotation(bwd);
}

}  // namespace lad::reference
