#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "graph/generators.hpp"

namespace lad {
namespace {

TEST(Components, SingleComponent) {
  const Graph g = make_cycle(8);
  const auto c = connected_components(g);
  EXPECT_EQ(c.count(), 1);
  EXPECT_EQ(c.members[0].size(), 8u);
}

TEST(Components, Multiple) {
  const Graph g = disjoint_union({make_path(3), make_cycle(4), make_path(1)});
  const auto c = connected_components(g);
  EXPECT_EQ(c.count(), 3);
  int total = 0;
  for (const auto& m : c.members) total += static_cast<int>(m.size());
  EXPECT_EQ(total, 8);
}

TEST(Components, Masked) {
  const Graph g = make_path(7);
  NodeMask mask(7, 1);
  mask[3] = 0;
  const auto c = connected_components(g, mask);
  EXPECT_EQ(c.count(), 2);
  EXPECT_EQ(c.comp_of[3], -1);
  EXPECT_NE(c.comp_of[2], c.comp_of[4]);
}

TEST(Components, ComponentMask) {
  const Graph g = disjoint_union({make_path(3), make_path(2)});
  const auto c = connected_components(g);
  const auto mask = component_mask(g, c, 0);
  int covered = 0;
  for (const char b : mask) covered += b ? 1 : 0;
  EXPECT_EQ(covered, static_cast<int>(c.members[0].size()));
}

TEST(Components, TwoColoringIsProperOnBipartiteFamilies) {
  // The coloring pipelines' witness on bipartite instances: one sweep that
  // yields colors 1/2, proper on every edge, or nullopt on an odd cycle.
  for (const Graph& g : {make_grid(6, 8, IdMode::kRandomDense, 4),
                         disjoint_union({make_cycle(10), make_path(5)})}) {
    const auto col = two_coloring(g, g.nodes());
    ASSERT_TRUE(col.has_value());
    for (const int c : *col) EXPECT_TRUE(c == 1 || c == 2);
    for (int e = 0; e < g.m(); ++e) {
      EXPECT_NE((*col)[static_cast<std::size_t>(g.edge_u(e))],
                (*col)[static_cast<std::size_t>(g.edge_v(e))]);
    }
  }
  const Graph odd = make_cycle(9);
  EXPECT_FALSE(two_coloring(odd, odd.nodes()).has_value());
}

}  // namespace
}  // namespace lad
