#include "graph/distance_coloring.hpp"

#include <algorithm>
#include <cstdint>

namespace lad {

std::vector<int> distance_coloring(const Graph& g, int d, const NodeMask& mask) {
  LAD_CHECK(d >= 1);
  std::vector<int> colors(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> order;
  for (int v = 0; v < g.n(); ++v) {
    if (mask.empty() || mask[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) { return g.id(a) < g.id(b); });

  // used[c] == stamp marks color c as taken in the current node's ball. A
  // greedy color never exceeds the ball size, so the array stays that small.
  std::vector<std::uint32_t> used;
  std::uint32_t stamp = 0;
  for (const int v : order) {
    ++stamp;
    const LocalBfs ball(g, v, d, mask);
    for (const int u : ball.nodes()) {
      const auto used_color = static_cast<std::size_t>(colors[u]);
      if (used_color == 0) continue;
      if (used_color >= used.size()) used.resize(used_color + 1, 0);
      used[used_color] = stamp;
    }
    std::size_t c = 1;
    while (c < used.size() && used[c] == stamp) ++c;
    colors[v] = static_cast<int>(c);
  }
  return colors;
}

bool is_distance_coloring(const Graph& g, const std::vector<int>& colors, int d,
                          const NodeMask& mask) {
  for (int v = 0; v < g.n(); ++v) {
    if (!mask.empty() && !mask[v]) continue;
    if (colors[v] <= 0) return false;
    const LocalBfs ball(g, v, d, mask);
    for (const int u : ball.nodes()) {
      if (u != v && colors[u] == colors[v]) return false;
    }
  }
  return true;
}

int num_colors(const std::vector<int>& colors) {
  int mx = 0;
  for (const int c : colors) mx = std::max(mx, c);
  return mx;
}

}  // namespace lad
