#include "graph/components.hpp"

#include <deque>

namespace lad {

Components connected_components(const Graph& g, const NodeMask& mask) {
  Components out;
  out.comp_of.assign(static_cast<std::size_t>(g.n()), -1);
  for (int s = 0; s < g.n(); ++s) {
    if (!mask.empty() && !mask[s]) continue;
    if (out.comp_of[s] != -1) continue;
    const int c = out.count();
    out.members.emplace_back();
    std::deque<int> q = {s};
    out.comp_of[s] = c;
    while (!q.empty()) {
      const int v = q.front();
      q.pop_front();
      out.members[c].push_back(v);
      for (const int u : g.neighbors(v)) {
        if (!mask.empty() && !mask[u]) continue;
        if (out.comp_of[u] == -1) {
          out.comp_of[u] = c;
          q.push_back(u);
        }
      }
    }
  }
  return out;
}

namespace {

template <typename Order>
std::optional<std::vector<int>> two_coloring_in(const Graph& g, const Order& order) {
  std::vector<int> color(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> queue(static_cast<std::size_t>(g.n()));
  std::size_t head = 0, tail = 0;
  for (const int root : order) {
    if (color[static_cast<std::size_t>(root)] != 0) continue;
    color[static_cast<std::size_t>(root)] = 1;
    queue[tail++] = root;
    while (head < tail) {
      const int v = queue[head++];
      const int cv = color[static_cast<std::size_t>(v)];
      for (const int u : g.neighbors(v)) {
        int& cu = color[static_cast<std::size_t>(u)];
        if (cu == 0) {
          cu = 3 - cv;
          queue[tail++] = u;
        } else if (cu == cv) {
          return std::nullopt;
        }
      }
    }
  }
  return color;
}

}  // namespace

std::optional<std::vector<int>> two_coloring(const Graph& g, std::span<const int> order) {
  return two_coloring_in(g, order);
}

std::optional<std::vector<int>> two_coloring(const Graph& g, Graph::NodeRange order) {
  return two_coloring_in(g, order);
}

NodeMask component_mask(const Graph& g, const Components& comps, int c) {
  NodeMask mask(static_cast<std::size_t>(g.n()), 0);
  for (const int v : comps.members[c]) mask[v] = 1;
  return mask;
}

}  // namespace lad
