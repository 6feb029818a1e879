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

// Start of the lexicographically least rotation of the cyclic sequence
// at(0), ..., at(L - 1), L >= 1: the two-pointer scan. Candidates i and j
// agree on their first k entries; when entry k differs, the candidate with
// the larger entry cannot start a least rotation, and neither can the k
// positions after it, so it jumps past them. O(L) steps, no allocation.
template <typename At>
std::size_t least_rotation(std::size_t L, const At& at) {
  const auto wrap = [L](std::size_t x) { return x < L ? x : x - L; };
  std::size_t i = 0;
  std::size_t j = 1;
  std::size_t k = 0;
  while (i < L && j < L && k < L) {
    const NodeId a = at(wrap(i + k));
    const NodeId b = at(wrap(j + k));
    if (a == b) {
      ++k;
      continue;
    }
    (a > b ? i : j) += k + 1;
    if (i == j) ++j;
    k = 0;
  }
  return std::min(i, j);
}

}  // namespace

bool canonical_trail_direction(const Graph& g, const Trail& t) {
  if (!t.closed) {
    return g.id(t.nodes.front()) < g.id(t.nodes.back());
  }
  // Compare the least rotation of the trail's ID sequence with that of the
  // reversed sequence, both read in place; ties (a trail that reads the
  // same both ways) go to the as-given direction. O(L) on any trail.
  const std::size_t L = t.nodes.size();
  if (L == 0) return true;
  const auto fwd = [&](std::size_t x) { return g.id(t.nodes[x]); };
  const auto bwd = [&](std::size_t x) { return g.id(t.nodes[L - 1 - x]); };
  const std::size_t f = least_rotation(L, fwd);
  const std::size_t b = least_rotation(L, bwd);
  for (std::size_t x = 0; x < L; ++x) {
    const NodeId a = fwd(f + x < L ? f + x : f + x - L);
    const NodeId c = bwd(b + x < L ? b + x : b + x - L);
    if (a != c) return a < c;
  }
  return true;
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
