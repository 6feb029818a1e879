#include "graph/euler.hpp"

#include <algorithm>

namespace lad {
namespace {

// Walks forward from node `v` leaving through edge `e`, appending nodes and
// edges until the trail ends (unpaired port) or returns to the starting
// directed edge. Returns true if the walk closed on itself.
bool walk(const Graph& g, int v, int e, std::vector<char>& used, Trail& t) {
  const int start_v = v;
  const int start_e = e;
  t.nodes.push_back(v);
  while (true) {
    used[e] = 1;
    t.edges.push_back(e);
    const int u = g.other_endpoint(e, v);
    const int p = [&] {
      const auto inc = g.incident_edges(u);
      for (std::size_t i = 0; i < inc.size(); ++i)
        if (inc[i] == e) return static_cast<int>(i);
      return -1;
    }();
    LAD_CHECK(p >= 0);
    const int q = partner_port(p, g.degree(u));
    if (q < 0) {
      t.nodes.push_back(u);
      return false;  // open trail ends at u
    }
    const int next_e = g.incident_edges(u)[q];
    if (u == start_v && next_e == start_e) return true;  // closed
    if (used[next_e]) {
      // Closed trail completes when we are about to re-traverse; the only
      // way to hit a used edge is returning to the start.
      LAD_CHECK(u == start_v && next_e == start_e);
      return true;
    }
    t.nodes.push_back(u);
    v = u;
    e = next_e;
  }
}

}  // namespace

std::vector<Trail> euler_partition(const Graph& g) {
  std::vector<Trail> trails;
  std::vector<char> used(static_cast<std::size_t>(g.m()), 0);

  // Open trails start at odd-degree nodes through their unpaired last port.
  for (int v = 0; v < g.n(); ++v) {
    const int d = g.degree(v);
    if (d % 2 == 0) continue;
    const int e = g.incident_edges(v)[d - 1];
    if (used[e]) continue;
    Trail t;
    const bool closed = walk(g, v, e, used, t);
    LAD_CHECK(!closed);
    t.closed = false;
    trails.push_back(std::move(t));
  }

  // Remaining edges lie on closed trails.
  for (int e = 0; e < g.m(); ++e) {
    if (used[e]) continue;
    Trail t;
    const bool closed = walk(g, g.edge_u(e), e, used, t);
    LAD_CHECK(closed);
    t.closed = true;
    trails.push_back(std::move(t));
  }
  return trails;
}

namespace {

std::vector<NodeId> id_sequence(const Graph& g, const std::vector<int>& nodes) {
  std::vector<NodeId> ids;
  ids.reserve(nodes.size());
  for (const int v : nodes) ids.push_back(g.id(v));
  return ids;
}

// Lexicographically smallest rotation of a cyclic sequence (O(L^2); only
// called on short trails).
std::vector<NodeId> min_rotation(const std::vector<NodeId>& seq) {
  std::vector<NodeId> best = seq;
  const std::size_t L = seq.size();
  std::vector<NodeId> rot(L);
  for (std::size_t s = 1; s < L; ++s) {
    for (std::size_t i = 0; i < L; ++i) rot[i] = seq[(s + i) % L];
    if (rot < best) best = rot;
  }
  return best;
}

}  // namespace

bool canonical_trail_direction(const Graph& g, const Trail& t) {
  if (!t.closed) {
    return g.id(t.nodes.front()) < g.id(t.nodes.back());
  }
  const auto fwd = id_sequence(g, t.nodes);
  std::vector<NodeId> bwd(fwd.rbegin(), fwd.rend());
  return min_rotation(fwd) <= min_rotation(bwd);
}

void orient_trail(const Graph& g, const Trail& t, int direction, Orientation& o) {
  const int L = t.length();
  for (int i = 0; i < L; ++i) {
    const int a = t.nodes[static_cast<std::size_t>(i)];
    // Position i + 1 wraps to 0 only on a closed trail, where positions() == L.
    const int b = t.nodes[static_cast<std::size_t>(i + 1 < t.positions() ? i + 1 : 0)];
    const int e = t.edges[static_cast<std::size_t>(i)];
    const int from = direction > 0 ? a : b;
    o[static_cast<std::size_t>(e)] = g.edge_u(e) == from ? EdgeDir::kForward : EdgeDir::kBackward;
  }
}

bool is_valid_euler_partition(const Graph& g, const std::vector<Trail>& trails) {
  std::vector<int> seen(static_cast<std::size_t>(g.m()), 0);
  for (const auto& t : trails) {
    const int L = t.length();
    if (t.closed) {
      if (static_cast<int>(t.nodes.size()) != L || L < 3) return false;
    } else {
      if (static_cast<int>(t.nodes.size()) != L + 1 || L < 1) return false;
    }
    for (int i = 0; i < L; ++i) {
      const int a = t.nodes[static_cast<std::size_t>(i)];
      const int b = t.closed ? t.nodes[static_cast<std::size_t>((i + 1) % L)]
                             : t.nodes[static_cast<std::size_t>(i + 1)];
      const int e = t.edges[static_cast<std::size_t>(i)];
      if (e < 0 || e >= g.m()) return false;
      ++seen[e];
      const int eu = g.edge_u(e), ev = g.edge_v(e);
      if (!((eu == a && ev == b) || (eu == b && ev == a))) return false;
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](int c) { return c == 1; });
}

}  // namespace lad
