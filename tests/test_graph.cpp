#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace lad {
namespace {

TEST(Graph, BuildBasics) {
  Graph::Builder b;
  const int a = b.add_node(10);
  const int c = b.add_node(5);
  const int d = b.add_node(7);
  b.add_edge(a, c);
  b.add_edge(c, d);
  const Graph g = std::move(b).build();

  EXPECT_EQ(g.n(), 3);
  EXPECT_EQ(g.m(), 2);
  EXPECT_EQ(g.id(a), 10);
  EXPECT_EQ(g.find_index(5), c);
  EXPECT_TRUE(g.find_index(7).has_value());
  EXPECT_FALSE(g.find_index(99).has_value());
  EXPECT_EQ(g.degree(c), 2);
  EXPECT_EQ(g.degree(a), 1);
  EXPECT_TRUE(g.adjacent(a, c));
  EXPECT_FALSE(g.adjacent(a, d));
}

TEST(Graph, NeighborsSortedById) {
  // Node 0 (ID 100) adjacent to IDs 50, 10, 70 — ports must be ID-sorted.
  Graph g = make_graph({100, 50, 10, 70}, {{100, 50}, {100, 10}, {100, 70}});
  const int v = *g.find_index(100);
  const auto nb = g.neighbors(v);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(g.id(nb[0]), 10);
  EXPECT_EQ(g.id(nb[1]), 50);
  EXPECT_EQ(g.id(nb[2]), 70);
  EXPECT_EQ(g.port_of(v, *g.find_index(50)), 1);
}

TEST(Graph, IncidentEdgesAligned) {
  Graph g = make_graph({1, 2, 3}, {{1, 2}, {1, 3}, {2, 3}});
  for (int v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    const auto inc = g.incident_edges(v);
    ASSERT_EQ(nb.size(), inc.size());
    for (std::size_t p = 0; p < nb.size(); ++p) {
      EXPECT_EQ(g.other_endpoint(inc[p], v), nb[p]);
    }
  }
}

TEST(Graph, EdgeBetween) {
  Graph g = make_graph({1, 2, 3, 4}, {{1, 2}, {2, 3}});
  EXPECT_GE(g.edge_between(*g.find_index(1), *g.find_index(2)), 0);
  EXPECT_EQ(g.edge_between(*g.find_index(1), *g.find_index(3)), -1);
  EXPECT_EQ(g.edge_between(*g.find_index(1), *g.find_index(4)), -1);
}

TEST(Graph, RejectsDuplicateIds) {
  Graph::Builder b;
  b.add_node(1);
  b.add_node(1);
  EXPECT_THROW(std::move(b).build(), ContractViolation);
}

TEST(Graph, RejectsSelfLoop) {
  Graph::Builder b;
  b.add_node(1);
  EXPECT_THROW(b.add_edge(0, 0), ContractViolation);
}

TEST(Graph, RejectsParallelEdges) {
  Graph::Builder b;
  b.add_node(1);
  b.add_node(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  EXPECT_THROW(std::move(b).build(), ContractViolation);
}

TEST(Graph, RejectsNonPositiveIds) {
  Graph::Builder b;
  EXPECT_THROW(b.add_node(0), ContractViolation);
  EXPECT_THROW(b.add_node(-5), ContractViolation);
}

TEST(Graph, FindIndexOfUnknownIdIsNullopt) {
  Graph g = make_graph({1}, {});
  EXPECT_EQ(g.find_index(2), std::nullopt);
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.n(), 0);
  EXPECT_EQ(g.m(), 0);
}

TEST(Graph, MaxDegree) {
  Graph g = make_graph({1, 2, 3, 4}, {{1, 2}, {1, 3}, {1, 4}});
  EXPECT_EQ(g.max_degree(), 3);
}

}  // namespace
}  // namespace lad
