// Differential oracle for the ball-local graph kernels (graph/distance.hpp):
// every kernel must agree exactly with the Θ(n) reference routines in
// reference_kernels.hpp — ball_nodes including its order — over random
// regular graphs, grids, tori, trees, twocycles and graphs with isolated
// nodes; with no mask, random masks and component masks; at every radius
// from 0 to diameter + 1. Nested scratch use, concurrent use from the pool
// and the scratch epoch's wraparound are checked against the same oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/checkers.hpp"
#include "graph/components.hpp"
#include "graph/distance.hpp"
#include "graph/distance_coloring.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "graph/source.hpp"
#include "reference_kernels.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

struct Instance {
  std::string name;
  Graph g;
};

std::vector<Instance> instances() {
  std::string err;
  auto twocycles = load_graph_source("twocycles:40x9@1", &err);
  EXPECT_TRUE(twocycles.has_value()) << err;
  return {
      {"random_regular_3", make_random_regular(60, 3, 7)},
      {"random_regular_4", make_random_regular(48, 4, 11)},
      {"grid", make_grid(9, 7, IdMode::kRandomDense, 3)},
      {"torus", make_torus(8, 6, IdMode::kRandomDense, 4)},
      {"tree", make_bounded_degree_tree(70, 4, 5)},
      {"twocycles", std::move(twocycles->graph)},
      {"isolated", disjoint_union({make_grid(4, 4), make_path(1), make_cycle(5), make_path(1)},
                                  IdMode::kRandomDense, 6)},
  };
}

/// No mask, a random mask, and the component masks of the random mask's
/// three largest components.
std::vector<NodeMask> masks_for(const Graph& g, std::uint64_t seed) {
  std::vector<NodeMask> masks = {{}};
  Rng rng(seed);
  NodeMask random(static_cast<std::size_t>(g.n()), 0);
  for (auto& b : random) b = rng.flip(0.7) ? 1 : 0;
  masks.push_back(random);
  const auto comps = connected_components(g, random);
  std::vector<int> by_size(static_cast<std::size_t>(comps.count()));
  for (int c = 0; c < comps.count(); ++c) by_size[static_cast<std::size_t>(c)] = c;
  std::stable_sort(by_size.begin(), by_size.end(), [&](int a, int b) {
    return comps.members[a].size() > comps.members[b].size();
  });
  for (std::size_t i = 0; i < by_size.size() && i < 3; ++i) {
    const auto mask = component_mask(g, comps, by_size[i]);
    EXPECT_EQ(mask, reference::component_mask(g, comps, by_size[i]));
    masks.push_back(mask);
  }
  return masks;
}

bool in(const NodeMask& mask, int v) { return mask.empty() || mask[v] != 0; }

/// Largest eccentricity over the masked nodes: the top radius swept is this + 1.
int max_eccentricity(const Graph& g, const NodeMask& mask) {
  int diam = 0;
  for (int v = 0; v < g.n(); ++v) {
    if (in(mask, v)) diam = std::max(diam, reference::eccentricity(g, v, mask));
  }
  return diam;
}

TEST(KernelOracle, BallsDistancesAndDiametersMatchReference) {
  for (const auto& inst : instances()) {
    const Graph& g = inst.g;
    const auto masks = masks_for(g, 17);
    for (std::size_t mi = 0; mi < masks.size(); ++mi) {
      SCOPED_TRACE(inst.name + " mask " + std::to_string(mi));
      const NodeMask& mask = masks[mi];
      const int top = max_eccentricity(g, mask) + 1;
      for (int v = 0; v < g.n(); ++v) {
        if (!in(mask, v)) continue;
        for (int r = 0; r <= top; ++r) {
          ASSERT_EQ(ball_nodes(g, v, r, mask), reference::ball_nodes(g, v, r, mask))
              << "v=" << v << " r=" << r;
        }
        EXPECT_EQ(eccentricity(g, v, mask), reference::eccentricity(g, v, mask));
        const int diam = reference::component_diameter(g, v, mask);
        for (int bound = 0; bound <= diam + 1; ++bound) {
          EXPECT_EQ(diameter_at_most(g, v, bound, mask), diam <= bound)
              << "v=" << v << " bound=" << bound;
        }
        for (int u = 0; u < g.n(); ++u) {
          EXPECT_EQ(distance(g, v, u, mask), reference::distance(g, v, u, mask));
          EXPECT_EQ(shortest_path(g, v, u, mask), reference::shortest_path(g, v, u, mask));
        }
      }
    }
  }
}

TEST(KernelOracle, MultiSourceBfsMatchesReference) {
  for (const auto& inst : instances()) {
    const Graph& g = inst.g;
    const auto masks = masks_for(g, 23);
    Rng rng(29);
    for (std::size_t mi = 0; mi < masks.size(); ++mi) {
      SCOPED_TRACE(inst.name + " mask " + std::to_string(mi));
      const NodeMask& mask = masks[mi];
      std::vector<int> pool;
      for (int v = 0; v < g.n(); ++v) {
        if (in(mask, v)) pool.push_back(v);
      }
      const int top = max_eccentricity(g, mask) + 1;
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<int> sources;
        for (int k = 0; k < 1 + trial % 3 && !pool.empty(); ++k) {
          sources.push_back(pool[static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))]);
        }
        for (int r = -1; r <= top; ++r) {
          const auto ref = reference::bfs_distances_multi(g, sources, mask, r);
          EXPECT_EQ(bfs_distances_multi(g, sources, mask, r), ref);
          const LocalBfs bfs(g, sources, r, mask);
          int reached = 0;
          for (int v = 0; v < g.n(); ++v) {
            EXPECT_EQ(bfs.dist(v), ref[static_cast<std::size_t>(v)]);
            reached += ref[static_cast<std::size_t>(v)] != kUnreachable ? 1 : 0;
          }
          ASSERT_EQ(static_cast<int>(bfs.nodes().size()), reached);
          for (std::size_t i = 1; i < bfs.nodes().size(); ++i) {
            EXPECT_LE(bfs.dist(bfs.nodes()[i - 1]), bfs.dist(bfs.nodes()[i]));
          }
        }
        // stop_at: the BFS may stop early, but only once every listed node
        // is reached, and every distance it holds is exact.
        const auto ref = reference::bfs_distances_multi(g, sources, mask);
        std::vector<int> targets;
        for (int k = 0; k < 3; ++k) {
          targets.push_back(static_cast<int>(rng.uniform(0, g.n() - 1)));
        }
        const LocalBfs stopped(g, sources, -1, mask, targets);
        for (const int t : targets) EXPECT_EQ(stopped.dist(t), ref[static_cast<std::size_t>(t)]);
        for (const int v : stopped.nodes()) {
          EXPECT_EQ(stopped.dist(v), ref[static_cast<std::size_t>(v)]);
        }
      }
    }
  }
}

TEST(KernelOracle, BipartitenessAndColoringsMatchReference) {
  for (const auto& inst : instances()) {
    const Graph& g = inst.g;
    const auto masks = masks_for(g, 31);
    for (std::size_t mi = 0; mi < masks.size(); ++mi) {
      SCOPED_TRACE(inst.name + " mask " + std::to_string(mi));
      const NodeMask& mask = masks[mi];
      EXPECT_EQ(is_bipartite(g, mask), reference::is_bipartite(g, mask));
      // The per-component test the 3-coloring decoder uses: a component is
      // bipartite iff no edge joins two nodes of one BFS layer.
      const auto comps = connected_components(g, mask);
      for (int c = 0; c < comps.count(); ++c) {
        const LocalBfs bfs(g, comps.members[c].front(), -1, mask);
        bool layered_bipartite = true;
        for (const int v : bfs.nodes()) {
          for (const int u : g.neighbors(v)) {
            if (in(mask, u) && bfs.dist(u) == bfs.dist(v)) layered_bipartite = false;
          }
        }
        EXPECT_EQ(layered_bipartite,
                  reference::is_bipartite(g, reference::component_mask(g, comps, c)));
      }
      for (int d = 1; d <= 3; ++d) {
        EXPECT_EQ(distance_coloring(g, d, mask), reference::distance_coloring(g, d, mask));
      }
    }
  }
}

TEST(KernelOracle, BallOrderOnBothOrderingPaths) {
  // Small balls in a large graph take the per-layer sort, balls covering a
  // large share of n the counting pass; both must give ball_nodes order.
  const Graph grid = make_grid(40, 40, IdMode::kRandomDense, 8);
  const Graph regular = make_random_regular(2000, 3, 9);
  for (const Graph* g : {&grid, &regular}) {
    for (int k = 0; k < 12; ++k) {
      const int v = (k * 977) % g->n();
      for (int r = 0; r <= 12; ++r) {
        ASSERT_EQ(ball_nodes(*g, v, r), reference::ball_nodes(*g, v, r)) << "r=" << r;
      }
    }
  }
}

TEST(KernelOracle, NegativeRadiusMeansUncapped) {
  // ball_nodes(g, v, -1) once indexed an empty layer vector; a negative
  // radius now means uncapped, as bfs_distances' max_dist does.
  const Graph cycle = make_cycle(8);
  EXPECT_EQ(ball_nodes(cycle, 0, -1), reference::ball_nodes(cycle, 0, cycle.n()));
  EXPECT_EQ(ball_nodes(cycle, 0, -1).size(), 8u);
  for (const auto& inst : instances()) {
    for (const auto& mask : masks_for(inst.g, 37)) {
      for (int v = 0; v < inst.g.n(); ++v) {
        if (!in(mask, v)) continue;
        EXPECT_EQ(ball_nodes(inst.g, v, -5, mask),
                  reference::ball_nodes(inst.g, v, inst.g.n(), mask));
      }
    }
  }
}

TEST(KernelOracle, NestedQueriesDoNotAlias) {
  // A held BFS (like 3-coloring's ruling-node ball while select_half runs,
  // or a component loop calling eccentricity) must survive nested queries.
  const Graph g = make_torus(9, 7, IdMode::kRandomDense, 12);
  const LocalBfs outer(g, 0);
  const std::vector<int> outer_nodes(outer.nodes().begin(), outer.nodes().end());
  const auto ref = reference::bfs_distances(g, 0);
  for (const int v : outer_nodes) {
    NodeMap marks(g);
    marks.set(v, 7);
    const LocalBfs inner(g, v, 2);
    EXPECT_EQ(ball_nodes(g, v, 3), reference::ball_nodes(g, v, 3));
    EXPECT_EQ(eccentricity(g, v), reference::eccentricity(g, v));
    EXPECT_EQ(diameter_at_most(g, v, 6), reference::component_diameter(g, v) <= 6);
    EXPECT_EQ(marks.get(v), 7);
    for (const int u : inner.nodes()) {
      EXPECT_EQ(inner.dist(u), reference::bfs_distances(g, v)[static_cast<std::size_t>(u)]);
    }
  }
  EXPECT_EQ(std::vector<int>(outer.nodes().begin(), outer.nodes().end()), outer_nodes);
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(outer.dist(v), ref[static_cast<std::size_t>(v)]);
}

TEST(KernelOracle, ConcurrentQueriesMatchSerial) {
  const Graph g = make_random_regular(600, 3, 13);
  struct Answer {
    std::vector<int> ball;
    int ecc = 0;
    int dist = 0;
    std::vector<int> path;
    bool operator==(const Answer&) const = default;
  };
  const auto answer = [&](int v) {
    const int target = (v * 7 + 3) % g.n();
    const LocalBfs held(g, v, 1);  // nests every query below
    return Answer{ball_nodes(g, v, 4), eccentricity(g, v), distance(g, v, target),
                  shortest_path(g, v, target)};
  };
  std::vector<Answer> serial(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) serial[static_cast<std::size_t>(v)] = answer(v);
  for (int v = 0; v < g.n(); v += 37) {
    EXPECT_EQ(serial[static_cast<std::size_t>(v)].ball, reference::ball_nodes(g, v, 4));
  }
  std::vector<Answer> parallel(static_cast<std::size_t>(g.n()));
  ThreadPool pool(8);
  pool.for_each(g.n(), [&](int v) { parallel[static_cast<std::size_t>(v)] = answer(v); });
  EXPECT_TRUE(parallel == serial);
  EXPECT_EQ(distance_coloring(g, 2), reference::distance_coloring(g, 2));
}

TEST(KernelOracle, EpochWraparound) {
  const Graph g = make_grid(7, 6, IdMode::kRandomDense, 14);
  // Stamp every node of g with epoch 1 in the two slots the loop below uses
  // (restarting at epoch 0 is safe only because each slot's first query
  // overwrites every stamp g can read). After the wraparound the epoch is 1
  // again, so these stamps would read as set unless the wrap clears them.
  detail::set_scratch_epoch_for_testing(0);
  {
    const LocalBfs a(g, 0);
    const LocalBfs b(g, 0);
  }
  detail::set_scratch_epoch_for_testing(std::numeric_limits<std::uint32_t>::max() - 3);
  for (int round = 0; round < 4; ++round) {
    for (int v = 0; v < g.n(); ++v) {
      const LocalBfs held(g, v, 1);
      ASSERT_EQ(ball_nodes(g, v, 2), reference::ball_nodes(g, v, 2))
          << "round " << round << " v=" << v;
      ASSERT_EQ(held.nodes().size(), reference::ball_nodes(g, v, 1).size());
    }
  }
}

}  // namespace
}  // namespace lad
