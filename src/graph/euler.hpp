// Euler partition — the "virtual graph G'" of §5.
//
// Each node of degree d pairs its incident edges (taken in ID-sorted port
// order) as (0,1), (2,3), ...; a node of odd degree leaves its last port
// unpaired. Following partner edges decomposes E(G) into edge-disjoint
// trails: closed trails (the cycles of G') and open trails (paths whose ends
// are odd-degree nodes). This pairing is locally computable: it depends only
// on a node's own neighbor IDs, exactly as in the paper.
#pragma once

#include <vector>

#include "graph/checkers.hpp"
#include "graph/graph.hpp"

namespace lad {

struct Trail {
  bool closed = false;
  /// Node sequence. Closed: edges[i] joins nodes[i] and nodes[(i+1) % L]
  /// where L = edges.size() == nodes.size(). Open: edges[i] joins nodes[i]
  /// and nodes[i+1], with nodes.size() == edges.size() + 1.
  std::vector<int> nodes;
  std::vector<int> edges;

  int length() const { return static_cast<int>(edges.size()); }
  /// Node positions: L on a closed trail, L + 1 on an open one.
  int positions() const { return static_cast<int>(nodes.size()); }
  /// Node at trail position `pos`: wrapped modulo L on a closed trail, -1
  /// outside [0, positions()) on an open one.
  int node_at(int pos) const {
    if (closed) {
      const int L = length();
      return nodes[static_cast<std::size_t>(((pos % L) + L) % L)];
    }
    if (pos < 0 || pos >= positions()) return -1;
    return nodes[static_cast<std::size_t>(pos)];
  }
};

/// Port of the partner edge of port p at a node of degree d, or -1.
inline int partner_port(int p, int d) {
  const int q = p ^ 1;
  return q < d ? q : -1;
}

/// Decomposes g into trails per the local pairing above. Every edge of g
/// appears in exactly one trail, exactly once.
std::vector<Trail> euler_partition(const Graph& g);

/// Validates the trail decomposition against g (used by tests).
bool is_valid_euler_partition(const Graph& g, const std::vector<Trail>& trails);

/// Canonical advice-free direction of a trail: true means "traverse in the
/// as-given direction". Open trails orient from the smaller-ID endpoint;
/// closed trails pick the direction whose ID sequence has the
/// lexicographically smallest rotation. Depends only on the ID sequence, so
/// any node that sees the whole trail computes the same answer.
bool canonical_trail_direction(const Graph& g, const Trail& t);

/// Orients every edge of t along its node order (direction > 0) or against
/// it (direction < 0). Edges of other trails are left as they are.
void orient_trail(const Graph& g, const Trail& t, int direction, Orientation& o);

}  // namespace lad
