#include "graph/ruling_set.hpp"

#include <algorithm>

namespace lad {

std::vector<int> ruling_set(const Graph& g, int alpha, std::span<const int> candidates,
                            const NodeMask& mask) {
  LAD_CHECK(alpha >= 1);
  std::vector<int> order(candidates.begin(), candidates.end());
  std::sort(order.begin(), order.end(), [&](int a, int b) { return g.id(a) < g.id(b); });

  std::vector<int> chosen;
  // Holds every v within distance < alpha of a chosen node.
  NodeMap blocked(g);
  for (const int v : order) {
    LAD_CHECK_MSG(mask.empty() || mask[v], "ruling-set candidate outside mask");
    if (blocked.contains(v)) continue;
    chosen.push_back(v);
    const LocalBfs near(g, v, alpha - 1, mask);
    for (const int u : near.nodes()) blocked.insert(u);
  }
  return chosen;
}

bool is_ruling_set(const Graph& g, const std::vector<int>& s, int alpha, int beta,
                   std::span<const int> candidates, const NodeMask& mask) {
  NodeMap count(g);  // how often each node occurs in s
  for (const int v : s) count.set(v, count.get(v, 0) + 1);
  for (const int v : s) {
    const LocalBfs near(g, v, alpha - 1, mask);
    for (const int u : near.nodes()) {
      if (count.get(u, 0) > (u == v ? 1 : 0)) return false;
    }
  }
  if (s.empty()) return candidates.empty();
  const LocalBfs dom(g, s, beta, mask);
  for (const int v : candidates) {
    if (!dom.reached(v)) return false;
  }
  return true;
}

}  // namespace lad
