#include "graph/checkers.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <set>

namespace lad {

bool is_proper_coloring(const Graph& g, const std::vector<int>& colors, int k,
                        const NodeMask& mask) {
  if (static_cast<int>(colors.size()) != g.n()) return false;
  const auto checked = [&](int v) { return mask.empty() || mask[v]; };
  for (int v = 0; v < g.n(); ++v) {
    if (checked(v) && (colors[v] <= 0 || (k > 0 && colors[v] > k))) return false;
  }
  for (int e = 0; e < g.m(); ++e) {
    const int u = g.edge_u(e);
    const int w = g.edge_v(e);
    if (colors[u] == colors[w] && checked(u) && checked(w)) return false;
  }
  return true;
}

bool is_independent_set(const Graph& g, const std::vector<char>& in_set) {
  if (static_cast<int>(in_set.size()) != g.n()) return false;
  for (int e = 0; e < g.m(); ++e) {
    if (in_set[g.edge_u(e)] && in_set[g.edge_v(e)]) return false;
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g, const std::vector<char>& in_set) {
  if (!is_independent_set(g, in_set)) return false;
  for (int v = 0; v < g.n(); ++v) {
    if (in_set[v]) continue;
    bool dominated = false;
    for (const int u : g.neighbors(v)) {
      if (in_set[u]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

bool is_matching(const Graph& g, const std::vector<char>& in_matching) {
  if (static_cast<int>(in_matching.size()) != g.m()) return false;
  std::vector<int> hits(static_cast<std::size_t>(g.n()), 0);
  for (int e = 0; e < g.m(); ++e) {
    if (!in_matching[e]) continue;
    if (++hits[g.edge_u(e)] > 1) return false;
    if (++hits[g.edge_v(e)] > 1) return false;
  }
  return true;
}

bool is_maximal_matching(const Graph& g, const std::vector<char>& in_matching) {
  if (!is_matching(g, in_matching)) return false;
  std::vector<char> covered(static_cast<std::size_t>(g.n()), 0);
  for (int e = 0; e < g.m(); ++e) {
    if (in_matching[e]) covered[g.edge_u(e)] = covered[g.edge_v(e)] = 1;
  }
  for (int e = 0; e < g.m(); ++e) {
    if (!covered[g.edge_u(e)] && !covered[g.edge_v(e)]) return false;
  }
  return true;
}

int out_degree(const Graph& g, const Orientation& o, int v) {
  int d = 0;
  for (const int e : g.incident_edges(v)) {
    if (o[e] == EdgeDir::kForward && g.edge_u(e) == v) ++d;
    if (o[e] == EdgeDir::kBackward && g.edge_v(e) == v) ++d;
  }
  return d;
}

int in_degree(const Graph& g, const Orientation& o, int v) {
  int d = 0;
  for (const int e : g.incident_edges(v)) {
    if (o[e] == EdgeDir::kForward && g.edge_v(e) == v) ++d;
    if (o[e] == EdgeDir::kBackward && g.edge_u(e) == v) ++d;
  }
  return d;
}

bool is_balanced_orientation(const Graph& g, const Orientation& o, int tolerance) {
  if (static_cast<int>(o.size()) != g.m()) return false;
  for (int e = 0; e < g.m(); ++e) {
    if (o[e] == EdgeDir::kUnset) return false;
  }
  for (int v = 0; v < g.n(); ++v) {
    if (std::abs(out_degree(g, o, v) - in_degree(g, o, v)) > tolerance) return false;
  }
  return true;
}

bool is_sinkless_orientation(const Graph& g, const Orientation& o) {
  if (static_cast<int>(o.size()) != g.m()) return false;
  for (int v = 0; v < g.n(); ++v) {
    if (g.degree(v) >= 1 && out_degree(g, o, v) == 0) return false;
  }
  return true;
}

bool is_splitting(const Graph& g, const std::vector<int>& edge_color) {
  if (static_cast<int>(edge_color.size()) != g.m()) return false;
  for (int v = 0; v < g.n(); ++v) {
    int red = 0, blue = 0;
    for (const int e : g.incident_edges(v)) {
      if (edge_color[e] == 1)
        ++red;
      else if (edge_color[e] == 2)
        ++blue;
      else
        return false;
    }
    if (red != blue) return false;
  }
  return true;
}

bool is_proper_edge_coloring(const Graph& g, const std::vector<int>& edge_color, int k) {
  if (static_cast<int>(edge_color.size()) != g.m()) return false;
  for (int e = 0; e < g.m(); ++e) {
    if (edge_color[e] <= 0 || edge_color[e] > k) return false;
  }
  for (int v = 0; v < g.n(); ++v) {
    std::set<int> seen;
    for (const int e : g.incident_edges(v)) {
      if (!seen.insert(edge_color[e]).second) return false;
    }
  }
  return true;
}

bool is_bipartite(const Graph& g, const NodeMask& mask) {
  std::vector<int> side(static_cast<std::size_t>(g.n()), -1);
  for (int s = 0; s < g.n(); ++s) {
    if (!mask.empty() && !mask[s]) continue;
    if (side[s] != -1) continue;
    side[s] = 0;
    std::deque<int> q = {s};
    while (!q.empty()) {
      const int v = q.front();
      q.pop_front();
      for (const int u : g.neighbors(v)) {
        if (!mask.empty() && !mask[u]) continue;
        if (side[u] == -1) {
          side[u] = side[v] ^ 1;
          q.push_back(u);
        } else if (side[u] == side[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

bool is_greedy_coloring(const Graph& g, const std::vector<int>& colors) {
  if (!is_proper_coloring(g, colors)) return false;
  for (int v = 0; v < g.n(); ++v) {
    std::vector<char> seen(static_cast<std::size_t>(colors[v]) + 1, 0);
    for (const int u : g.neighbors(v)) {
      if (colors[u] < colors[v]) seen[colors[u]] = 1;
    }
    for (int c = 1; c < colors[v]; ++c) {
      if (!seen[c]) return false;
    }
  }
  return true;
}

}  // namespace lad
