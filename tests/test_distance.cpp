#include <gtest/gtest.h>

#include "graph/distance.hpp"
#include "graph/generators.hpp"

namespace lad {
namespace {

TEST(Distance, PathDistances) {
  const Graph g = make_path(10);
  const auto d = bfs_distances(g, 0);
  for (int v = 0; v < 10; ++v) EXPECT_EQ(d[v], v);
}

TEST(Distance, CycleDistances) {
  const Graph g = make_cycle(10);
  const auto d = bfs_distances(g, 0);
  int max_d = 0;
  for (const int x : d) max_d = std::max(max_d, x);
  EXPECT_EQ(max_d, 5);
}

TEST(Distance, MaxDistCap) {
  const Graph g = make_path(10);
  const auto d = bfs_distances(g, 0, {}, 3);
  EXPECT_EQ(d[3], 3);
  EXPECT_EQ(d[4], kUnreachable);
}

TEST(Distance, MaskRestriction) {
  const Graph g = make_cycle(10);
  NodeMask mask(10, 1);
  mask[5] = 0;  // cut the cycle at node 5
  const auto d = bfs_distances(g, 0, mask);
  EXPECT_EQ(d[5], kUnreachable);
  // Node 6 must be reached the long way around (0-9-8-7-6).
  EXPECT_EQ(d[6], 4);
}

TEST(Distance, MultiSource) {
  const Graph g = make_path(11);
  const auto d = bfs_distances_multi(g, {0, 10});
  EXPECT_EQ(d[5], 5);
  EXPECT_EQ(d[8], 2);
}

TEST(Distance, BallNodes) {
  const Graph g = make_grid(5, 5);
  const auto ball = ball_nodes(g, g.find_index(13).value(), 1);
  EXPECT_EQ(ball.size(), 5u);  // center + 4 neighbors
  EXPECT_EQ(ball_nodes(g, g.find_index(13).value(), 0).size(), 1u);
}

TEST(Distance, ShortestPathEndpoints) {
  const Graph g = make_grid(6, 6);
  const auto p = shortest_path(g, 0, g.n() - 1);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), g.n() - 1);
  EXPECT_EQ(static_cast<int>(p.size()) - 1, distance(g, 0, g.n() - 1));
  for (std::size_t i = 0; i + 1 < p.size(); ++i) EXPECT_TRUE(g.adjacent(p[i], p[i + 1]));
}

TEST(Distance, ShortestPathDisconnected) {
  const Graph g = disjoint_union({make_path(3), make_path(3)});
  EXPECT_TRUE(shortest_path(g, 0, 5).empty());
  EXPECT_EQ(distance(g, 0, 5), kUnreachable);
}

TEST(Distance, Eccentricity) {
  const Graph g = make_path(9);
  EXPECT_EQ(eccentricity(g, 0), 8);
  EXPECT_EQ(eccentricity(g, 4), 4);
}

TEST(Distance, DiameterAtMost) {
  // Path 7 from its middle: ecc 3, so the double sweep is undecided at 5.
  EXPECT_TRUE(diameter_at_most(make_path(7), 3, 6));
  EXPECT_FALSE(diameter_at_most(make_path(7), 3, 5));
  EXPECT_TRUE(diameter_at_most(make_cycle(8), 0, 4));
  EXPECT_FALSE(diameter_at_most(make_cycle(8), 0, 3));
}

TEST(Distance, BallInBfsOrder) {
  const Graph g = make_path(9);
  const auto ball = ball_nodes(g, 4, 2);
  const auto d = bfs_distances(g, 4);
  for (std::size_t i = 0; i + 1 < ball.size(); ++i) {
    EXPECT_LE(d[ball[i]], d[ball[i + 1]]);
  }
}

TEST(Distance, TriangleInequalitySampled) {
  const Graph g = make_banded_random(200, 6, 3.0, 6, 44);
  const int probes[] = {0, 17, 63, 120, 199};
  for (const int a : probes) {
    const auto da = bfs_distances(g, a);
    for (const int b : probes) {
      const auto db = bfs_distances(g, b);
      for (const int c : probes) {
        if (da[b] == kUnreachable || db[c] == kUnreachable) continue;
        ASSERT_NE(da[c], kUnreachable);
        EXPECT_LE(da[c], da[b] + db[c]);
      }
    }
  }
}

TEST(Distance, BallMonotoneInRadius) {
  const Graph g = make_grid(9, 9);
  const int v = g.n() / 2;
  int prev = 0;
  for (int r = 0; r <= 8; ++r) {
    const int size = static_cast<int>(ball_nodes(g, v, r).size());
    EXPECT_GE(size, prev);
    prev = size;
  }
  EXPECT_EQ(prev, g.n());  // radius 8 >= eccentricity of the center
}

}  // namespace
}  // namespace lad
