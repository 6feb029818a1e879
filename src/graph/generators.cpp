#include "graph/generators.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace lad {
namespace {

Graph from_edges(int n, const std::vector<std::pair<int, int>>& edges, IdMode mode,
                 std::uint64_t seed) {
  Rng rng(seed);
  const auto ids = assign_ids(n, mode, rng);
  Graph::Builder b;
  b.reserve(ids.size(), edges.size());
  for (const NodeId id : ids) b.add_node(id);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return std::move(b).build();
}

}  // namespace

std::vector<NodeId> assign_ids(int n, IdMode mode, Rng& rng) {
  std::vector<NodeId> ids(static_cast<std::size_t>(n));
  switch (mode) {
    case IdMode::kSequential:
      for (int i = 0; i < n; ++i) ids[i] = i + 1;
      break;
    case IdMode::kRandomDense: {
      const auto perm = rng.permutation(n);
      for (int i = 0; i < n; ++i) ids[i] = perm[i] + 1;
      break;
    }
    case IdMode::kRandomSparse: {
      const std::int64_t hi = std::max<std::int64_t>(8, static_cast<std::int64_t>(n) *
                                                            static_cast<std::int64_t>(n) * n);
      std::unordered_set<std::int64_t> used;
      for (int i = 0; i < n; ++i) {
        std::int64_t id;
        do {
          id = rng.uniform(1, hi);
        } while (!used.insert(id).second);
        ids[i] = id;
      }
      break;
    }
  }
  return ids;
}

Graph make_path(int n, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(n >= 1);
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  return from_edges(n, e, mode, seed);
}

Graph make_cycle(int n, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(n >= 3);
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return from_edges(n, e, mode, seed);
}

Graph make_grid(int w, int h, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(w >= 1 && h >= 1);
  auto at = [w](int x, int y) { return y * w + x; };
  std::vector<std::pair<int, int>> e;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) e.emplace_back(at(x, y), at(x + 1, y));
      if (y + 1 < h) e.emplace_back(at(x, y), at(x, y + 1));
    }
  }
  return from_edges(w * h, e, mode, seed);
}

Graph make_torus(int w, int h, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(w >= 3 && h >= 3);
  // With both sides >= 3 the 2wh edges are distinct; the builder orders them.
  auto at = [w](int x, int y) { return y * w + x; };
  std::vector<std::pair<int, int>> e;
  e.reserve(2 * static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      e.emplace_back(at(x, y), at((x + 1) % w, y));
      e.emplace_back(at(x, y), at(x, (y + 1) % h));
    }
  }
  return from_edges(w * h, e, mode, seed);
}

Graph make_complete(int n, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(n >= 1);
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) e.emplace_back(i, j);
  return from_edges(n, e, mode, seed);
}

Graph make_star(int n, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(n >= 1);
  std::vector<std::pair<int, int>> e;
  for (int i = 1; i < n; ++i) e.emplace_back(0, i);
  return from_edges(n, e, mode, seed);
}

Graph make_hypercube(int d, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(d >= 0 && d <= 20);
  const int n = 1 << d;
  std::vector<std::pair<int, int>> e;
  for (int v = 0; v < n; ++v)
    for (int b = 0; b < d; ++b)
      if (!(v & (1 << b))) e.emplace_back(v, v | (1 << b));
  return from_edges(n, e, mode, seed);
}

Graph make_circular_ladder(int m, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(m >= 3);
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i < m; ++i) {
    e.emplace_back(i, (i + 1) % m);          // outer cycle
    e.emplace_back(m + i, m + (i + 1) % m);  // inner cycle
    e.emplace_back(i, m + i);                // rungs
  }
  return from_edges(2 * m, e, mode, seed);
}

PlantedColoring make_planted_caterpillar(int spine, std::uint64_t seed, IdMode mode) {
  LAD_CHECK(spine >= 2);
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i + 1 < spine; ++i) e.emplace_back(i, i + 1);
  for (int i = 0; i < spine; ++i) e.emplace_back(i, spine + i);  // pendant leaves
  PlantedColoring out;
  out.graph = from_edges(2 * spine, e, mode, seed);
  out.coloring.assign(static_cast<std::size_t>(2 * spine), 0);
  for (int i = 0; i < spine; ++i) {
    out.coloring[static_cast<std::size_t>(i)] = 2 + i % 2;
    out.coloring[static_cast<std::size_t>(spine + i)] = 1;
  }
  return out;
}

Graph make_complete_bipartite(int a, int b, IdMode mode, std::uint64_t seed) {
  LAD_CHECK(a >= 1 && b >= 1);
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i < a; ++i)
    for (int j = 0; j < b; ++j) e.emplace_back(i, a + j);
  return from_edges(a + b, e, mode, seed);
}

Graph make_banded_random(int n, int band, double avg_deg, int max_deg, std::uint64_t seed,
                         IdMode mode) {
  // Offsets are drawn from [2, band]; band < n keeps them off 0 mod n.
  LAD_CHECK(n >= 3 && band >= 2 && band < n && max_deg >= 1);
  Rng rng(seed);
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  std::set<std::pair<int, int>> e;
  // A ring backbone keeps the graph connected with a large diameter.
  for (int i = 0; i < n; ++i) {
    e.insert({std::min(i, (i + 1) % n), std::max(i, (i + 1) % n)});
    ++deg[i];
    ++deg[(i + 1) % n];
  }
  const std::int64_t target_edges =
      std::min<std::int64_t>(static_cast<std::int64_t>(avg_deg * n / 2.0),
                             static_cast<std::int64_t>(n) * max_deg / 2);
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(e.size()) < target_edges && attempts < 80 * target_edges + 100) {
    ++attempts;
    const int a = static_cast<int>(rng.uniform(0, n - 1));
    const int off = static_cast<int>(rng.uniform(2, band));
    const int b = (a + off) % n;
    if (deg[a] >= max_deg || deg[b] >= max_deg) continue;
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    if (!e.insert(key).second) continue;
    ++deg[a];
    ++deg[b];
  }
  return from_edges(n, {e.begin(), e.end()}, mode, seed ^ 0x1234abcd);
}

Graph make_bounded_degree_tree(int n, int max_deg, std::uint64_t seed, IdMode mode) {
  LAD_CHECK(n >= 1 && max_deg >= 2);
  Rng rng(seed);
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<int, int>> e;
  std::vector<int> eligible = {0};
  for (int v = 1; v < n; ++v) {
    const int pick = static_cast<int>(rng.uniform(0, static_cast<int>(eligible.size()) - 1));
    const int parent = eligible[pick];
    e.emplace_back(parent, v);
    ++deg[parent];
    ++deg[v];
    if (deg[parent] >= max_deg) {
      eligible[pick] = eligible.back();
      eligible.pop_back();
    }
    if (deg[v] < max_deg) eligible.push_back(v);
    LAD_CHECK_MSG(!eligible.empty() || v == n - 1, "degree cap too tight for tree size");
  }
  return from_edges(n, e, mode, seed ^ 0x5bd1e995);
}

Graph make_random_regular(int n, int d, std::uint64_t seed, IdMode mode) {
  LAD_CHECK(n >= 2 && d >= 1 && d < n);
  LAD_CHECK_MSG((static_cast<std::int64_t>(n) * d) % 2 == 0, "n*d must be even");
  Rng rng(seed);
  // Configuration model followed by edge-swap repair: a self-loop or
  // parallel edge is fixed by a random double edge swap, which preserves
  // all degrees.
  std::vector<int> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (int v = 0; v < n; ++v)
    for (int k = 0; k < d; ++k) stubs.push_back(v);
  rng.shuffle(stubs);
  const int m = static_cast<int>(stubs.size() / 2);
  std::vector<std::pair<int, int>> edges(static_cast<std::size_t>(m));
  for (int e = 0; e < m; ++e) edges[e] = {stubs[2 * e], stubs[2 * e + 1]};

  auto count_multiplicity = [&]() {
    std::set<std::pair<int, int>> seen;
    std::vector<int> bad;
    for (int e = 0; e < m; ++e) {
      auto [a, b] = edges[e];
      if (a == b || !seen.insert({std::min(a, b), std::max(a, b)}).second) bad.push_back(e);
    }
    return bad;
  };

  for (int round = 0; round < 200000; ++round) {
    const auto bad = count_multiplicity();
    if (bad.empty()) {
      return from_edges(n, edges, mode, seed ^ 0xabcdef);
    }
    for (const int e : bad) {
      const int f = static_cast<int>(rng.uniform(0, m - 1));
      if (f == e) continue;
      // Swap one endpoint of e with one endpoint of f.
      std::swap(edges[e].second, edges[f].second);
    }
  }
  throw ContractViolation("make_random_regular: edge-swap repair did not converge");
}

Graph make_bipartite_regular(int side, int d, std::uint64_t seed, IdMode mode) {
  LAD_CHECK(side >= 1 && d >= 1 && d <= side);
  Rng rng(seed);
  const auto perm = rng.permutation(side);
  std::vector<std::pair<int, int>> e;
  // Left nodes are 0..side-1, right nodes are side..2*side-1. Matching k
  // connects left j to right perm[(j + k) mod side]; distinct shifts give
  // each left node d distinct right partners, so the graph is simple.
  for (int k = 0; k < d; ++k)
    for (int j = 0; j < side; ++j) e.emplace_back(j, side + perm[(j + k) % side]);
  return from_edges(2 * side, e, mode, seed ^ 0x2545f491);
}

Graph make_random_bounded_degree(int n, double avg_deg, int max_deg, std::uint64_t seed,
                                 IdMode mode) {
  LAD_CHECK(n >= 1 && max_deg >= 1 && avg_deg >= 0.0);
  Rng rng(seed);
  const std::int64_t target_edges =
      std::min<std::int64_t>(static_cast<std::int64_t>(avg_deg * n / 2.0),
                             static_cast<std::int64_t>(n) * max_deg / 2);
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  std::set<std::pair<int, int>> e;
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(e.size()) < target_edges && attempts < 50 * target_edges + 100) {
    ++attempts;
    int a = static_cast<int>(rng.uniform(0, n - 1));
    int b = static_cast<int>(rng.uniform(0, n - 1));
    if (a == b) continue;
    if (deg[a] >= max_deg || deg[b] >= max_deg) continue;
    if (a > b) std::swap(a, b);
    if (!e.insert({a, b}).second) continue;
    ++deg[a];
    ++deg[b];
  }
  return from_edges(n, {e.begin(), e.end()}, mode, seed ^ 0x94d049bb);
}

PlantedColoring make_planted_colorable(int n, int k, double avg_deg, int max_deg,
                                       std::uint64_t seed, bool connect, IdMode mode) {
  LAD_CHECK(n >= 1 && k >= 2 && max_deg >= 1);
  Rng rng(seed);
  std::vector<int> color(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) color[v] = 1 + (v % k);
  rng.shuffle(color);

  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  std::set<std::pair<int, int>> e;
  auto try_add = [&](int a, int b) {
    if (a == b || color[a] == color[b]) return false;
    if (deg[a] >= max_deg || deg[b] >= max_deg) return false;
    if (a > b) std::swap(a, b);
    if (!e.insert({a, b}).second) return false;
    ++deg[a];
    ++deg[b];
    return true;
  };

  if (connect) {
    // Chain nodes in a random order, skipping same-color / saturated pairs.
    auto order = rng.permutation(n);
    int prev = order[0];
    for (int i = 1; i < n; ++i) {
      if (try_add(prev, order[i])) prev = order[i];
      // If the pair was invalid we still advance with probability 1/2 so the
      // structure stays path-like rather than star-like.
      else if (rng.flip(0.5))
        prev = order[i];
    }
  }

  const std::int64_t target_edges =
      std::min<std::int64_t>(static_cast<std::int64_t>(avg_deg * n / 2.0),
                             static_cast<std::int64_t>(n) * max_deg / 2);
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(e.size()) < target_edges && attempts < 80 * target_edges + 200) {
    ++attempts;
    try_add(static_cast<int>(rng.uniform(0, n - 1)), static_cast<int>(rng.uniform(0, n - 1)));
  }

  PlantedColoring out;
  out.graph = from_edges(n, {e.begin(), e.end()}, mode, seed ^ 0xbf58476d);
  out.coloring = std::move(color);
  return out;
}

Graph make_even_degree_graph(int n, int target_deg, std::uint64_t seed, IdMode mode) {
  LAD_CHECK(n >= 3 && target_deg >= 2 && target_deg % 2 == 0);
  Rng rng(seed);
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  std::set<std::pair<int, int>> e;
  auto can = [&](int a, int b) {
    if (a == b) return false;
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    return deg[a] < target_deg && deg[b] < target_deg && !e.count(key);
  };
  auto add = [&](int a, int b) {
    e.insert({std::min(a, b), std::max(a, b)});
    ++deg[a];
    ++deg[b];
  };
  // Repeatedly lay down random simple cycles over nodes that still have
  // spare even capacity; every closed cycle adds degree exactly 2 to each
  // of its nodes, so all degrees stay even.
  for (int round = 0; round < 4 * target_deg; ++round) {
    std::vector<int> avail;
    for (int v = 0; v < n; ++v)
      if (deg[v] + 2 <= target_deg) avail.push_back(v);
    if (static_cast<int>(avail.size()) < 3) break;
    rng.shuffle(avail);
    // Greedily walk through `avail`, keeping only nodes that can chain.
    std::vector<int> cyc;
    for (const int v : avail) {
      if (cyc.empty() || can(cyc.back(), v)) cyc.push_back(v);
    }
    while (cyc.size() >= 3 && !can(cyc.back(), cyc.front())) cyc.pop_back();
    if (cyc.size() < 3) continue;
    for (std::size_t i = 0; i < cyc.size(); ++i) add(cyc[i], cyc[(i + 1) % cyc.size()]);
  }
  return from_edges(n, {e.begin(), e.end()}, mode, seed ^ 0xd6e8feb8);
}

Graph disjoint_union(const std::vector<Graph>& parts, IdMode mode, std::uint64_t seed) {
  int n = 0;
  for (const auto& g : parts) n += g.n();
  std::vector<std::pair<int, int>> e;
  int base = 0;
  for (const auto& g : parts) {
    for (int idx = 0; idx < g.m(); ++idx) e.emplace_back(base + g.edge_u(idx), base + g.edge_v(idx));
    base += g.n();
  }
  return from_edges(n, e, mode, seed);
}

}  // namespace lad
