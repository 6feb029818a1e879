// Reference graph kernels: the Θ(n)-per-call BFS, ball, distance, diameter,
// component, bipartiteness and distance-coloring routines as they were
// before the ball-local kernels replaced them, kept verbatim as the oracle
// tests/test_kernel_oracle.cpp compares the new kernels against (calls are
// qualified with reference:: so argument-dependent lookup cannot pick the
// new kernels). Test-only: nothing under src/ may include this file.
#pragma once

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "graph/components.hpp"
#include "graph/distance.hpp"

namespace lad::reference {

inline bool in_mask(const NodeMask& mask, int v) { return mask.empty() || mask[v]; }

inline std::vector<int> bfs_distances_multi(const Graph& g, const std::vector<int>& sources,
                                            const NodeMask& mask = {}, int max_dist = -1) {
  std::vector<int> dist(static_cast<std::size_t>(g.n()), kUnreachable);
  std::deque<int> q;
  for (const int s : sources) {
    LAD_CHECK(s >= 0 && s < g.n());
    LAD_CHECK_MSG(in_mask(mask, s), "BFS source excluded by mask");
    if (dist[s] != 0) {
      dist[s] = 0;
      q.push_back(s);
    }
  }
  while (!q.empty()) {
    const int v = q.front();
    q.pop_front();
    if (max_dist >= 0 && dist[v] >= max_dist) continue;
    for (const int u : g.neighbors(v)) {
      if (!in_mask(mask, u) || dist[u] != kUnreachable) continue;
      dist[u] = dist[v] + 1;
      q.push_back(u);
    }
  }
  return dist;
}

inline std::vector<int> bfs_distances(const Graph& g, int source, const NodeMask& mask = {},
                                      int max_dist = -1) {
  return reference::bfs_distances_multi(g, {source}, mask, max_dist);
}

inline std::vector<int> ball_nodes(const Graph& g, int v, int radius, const NodeMask& mask = {}) {
  const auto dist = reference::bfs_distances(g, v, mask, radius);
  std::vector<int> out;
  // BFS order: collect by distance layers.
  std::vector<std::vector<int>> layers(static_cast<std::size_t>(radius) + 1);
  for (int u = 0; u < g.n(); ++u) {
    if (dist[u] != kUnreachable) layers[static_cast<std::size_t>(dist[u])].push_back(u);
  }
  for (const auto& layer : layers)
    for (const int u : layer) out.push_back(u);
  return out;
}

inline int distance(const Graph& g, int u, int v, const NodeMask& mask = {}) {
  const auto dist = reference::bfs_distances(g, u, mask);
  return dist[v];
}

inline std::vector<int> shortest_path(const Graph& g, int u, int v, const NodeMask& mask = {}) {
  const auto dist = reference::bfs_distances(g, u, mask);
  if (dist[v] == kUnreachable) return {};
  std::vector<int> path = {v};
  int cur = v;
  while (cur != u) {
    for (const int w : g.neighbors(cur)) {
      if ((mask.empty() || mask[w]) && dist[w] == dist[cur] - 1) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

inline int eccentricity(const Graph& g, int v, const NodeMask& mask = {}) {
  const auto dist = reference::bfs_distances(g, v, mask);
  int ecc = 0;
  for (const int d : dist) ecc = std::max(ecc, d);
  return ecc;
}

inline int component_diameter(const Graph& g, int v, const NodeMask& mask = {}) {
  const auto comp = reference::ball_nodes(g, v, g.n(), mask);
  int diam = 0;
  for (const int u : comp) diam = std::max(diam, reference::eccentricity(g, u, mask));
  return diam;
}

inline NodeMask component_mask(const Graph& g, const Components& comps, int c) {
  NodeMask mask(static_cast<std::size_t>(g.n()), 0);
  for (const int v : comps.members[c]) mask[v] = 1;
  return mask;
}

inline bool is_bipartite(const Graph& g, const NodeMask& mask = {}) {
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

inline std::vector<int> distance_coloring(const Graph& g, int d, const NodeMask& mask = {}) {
  LAD_CHECK(d >= 1);
  std::vector<int> colors(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> order;
  for (int v = 0; v < g.n(); ++v) {
    if (mask.empty() || mask[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) { return g.id(a) < g.id(b); });

  for (const int v : order) {
    std::set<int> used;
    for (const int u : reference::ball_nodes(g, v, d, mask)) {
      if (u != v && colors[u] > 0) used.insert(colors[u]);
    }
    int c = 1;
    while (used.count(c)) ++c;
    colors[v] = c;
  }
  return colors;
}

}  // namespace lad::reference
