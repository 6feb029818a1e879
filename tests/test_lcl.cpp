#include <gtest/gtest.h>

#include "graph/checkers.hpp"
#include "graph/generators.hpp"
#include "lcl/checker.hpp"
#include "lcl/problems.hpp"
#include "lcl/solver.hpp"

namespace lad {
namespace {

TEST(Lcl, ColoringSolvableOnCycle) {
  const Graph g = make_cycle(9);
  VertexColoringLcl p(3);
  const auto sol = solve_lcl(g, p);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(is_valid_labeling(g, p, *sol));
  EXPECT_TRUE(is_proper_coloring(g, sol->node_labels, 3));
}

TEST(Lcl, TwoColoringOddCycleUnsolvable) {
  const Graph g = make_cycle(7);
  VertexColoringLcl p(2);
  EXPECT_FALSE(solve_lcl(g, p).has_value());
}

TEST(Lcl, TwoColoringEvenCycleSolvable) {
  const Graph g = make_cycle(8);
  VertexColoringLcl p(2);
  ASSERT_TRUE(solve_lcl(g, p).has_value());
}

TEST(Lcl, MisOnGrid) {
  const Graph g = make_grid(5, 5);
  MisLcl p;
  const auto sol = solve_lcl(g, p);
  ASSERT_TRUE(sol.has_value());
  std::vector<char> in_set(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) in_set[v] = sol->node_labels[v] == 2;
  EXPECT_TRUE(is_maximal_independent_set(g, in_set));
}

TEST(Lcl, MaximalMatchingOnCycle) {
  const Graph g = make_cycle(10);
  MaximalMatchingLcl p;
  const auto sol = solve_lcl(g, p);
  ASSERT_TRUE(sol.has_value());
  std::vector<char> in_m(static_cast<std::size_t>(g.m()));
  for (int e = 0; e < g.m(); ++e) in_m[e] = sol->edge_labels[e] == 2;
  EXPECT_TRUE(is_maximal_matching(g, in_m));
}

TEST(Lcl, EdgeColoringOnPath) {
  const Graph g = make_path(9);
  EdgeColoringLcl p(2);
  const auto sol = solve_lcl(g, p);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(is_proper_edge_coloring(g, sol->edge_labels, 2));
}

TEST(Lcl, SinklessOrientationOnFourRegular) {
  const Graph g = make_torus(4, 4);
  SinklessOrientationLcl p;
  const auto sol = solve_lcl(g, p);
  ASSERT_TRUE(sol.has_value());
  Orientation o(static_cast<std::size_t>(g.m()));
  for (int e = 0; e < g.m(); ++e) {
    o[static_cast<std::size_t>(e)] =
        sol->edge_labels[e] == 1 ? EdgeDir::kForward : EdgeDir::kBackward;
  }
  EXPECT_TRUE(is_sinkless_orientation(g, o));
}

TEST(Lcl, PinnedCompletion) {
  const Graph g = make_path(6);
  VertexColoringLcl p(3);
  Labeling pinned = Labeling::empty(g);
  pinned.node_labels[0] = 1;
  pinned.node_labels[5] = 1;
  std::vector<int> free_nodes = {1, 2, 3, 4};
  const std::vector<int> all(g.nodes().begin(), g.nodes().end());
  ASSERT_TRUE(solve_lcl(g, p, pinned, free_nodes, {}, all));
  EXPECT_EQ(pinned.node_labels[0], 1);
  EXPECT_EQ(pinned.node_labels[5], 1);
  EXPECT_TRUE(is_proper_coloring(g, pinned.node_labels, 3));
}

TEST(Lcl, PinnedContradictionUnsolvable) {
  const Graph g = make_path(3);
  VertexColoringLcl p(2);
  Labeling pinned = Labeling::empty(g);
  pinned.node_labels[0] = 1;
  pinned.node_labels[2] = 2;  // forces node 1 to clash with one end
  const std::vector<int> all(g.nodes().begin(), g.nodes().end());
  const Labeling before = pinned;
  EXPECT_FALSE(solve_lcl(g, p, pinned, {1}, {}, all));
  EXPECT_EQ(pinned.node_labels, before.node_labels);  // a failed solve changes nothing
}

TEST(Lcl, CheckSubsetOnly) {
  const Graph g = make_path(5);
  VertexColoringLcl p(3);
  Labeling pinned = Labeling::empty(g);
  pinned.node_labels[3] = 1;
  pinned.node_labels[4] = 1;  // invalid pair, but not in the check set
  ASSERT_TRUE(solve_lcl(g, p, pinned, {0, 1, 2}, {}, {0, 1}));
}

TEST(Lcl, BudgetExhaustionThrows) {
  const Graph g = make_cycle(30);
  VertexColoringLcl p(3);
  const std::vector<int> all(g.nodes().begin(), g.nodes().end());
  Labeling lab = Labeling::empty(g);
  EXPECT_THROW(solve_lcl(g, p, lab, all, {}, all, 3), ContractViolation);
  EXPECT_EQ(lab.node_labels, Labeling::empty(g).node_labels);  // unwound on the throw
}

TEST(Lcl, FreeLabelsCountAsUnassignedAndComeBackOnFailure) {
  const Graph g = make_path(3);
  VertexColoringLcl p(2);
  const std::vector<int> all(g.nodes().begin(), g.nodes().end());
  Labeling lab = Labeling::empty(g);
  lab.node_labels = {1, 1, 1};  // node 1's held label is wrong but free
  ASSERT_TRUE(solve_lcl(g, p, lab, {1}, {}, all));
  EXPECT_EQ(lab.node_labels, (std::vector<int>{1, 2, 1}));

  lab.node_labels = {1, 2, 2};  // no label for node 1 fits between 1 and 2
  EXPECT_FALSE(solve_lcl(g, p, lab, {1}, {}, all));
  EXPECT_EQ(lab.node_labels, (std::vector<int>{1, 2, 2}));

  lab.node_labels = {2, 2, 2};
  EXPECT_THROW(solve_lcl(g, p, lab, {1, 1}, {}, all), ContractViolation);  // listed twice
  EXPECT_EQ(lab.node_labels, (std::vector<int>{2, 2, 2}));

  const Graph c = make_cycle(30);
  const std::vector<int> every(c.nodes().begin(), c.nodes().end());
  Labeling held = Labeling::empty(c);
  for (int v = 0; v < c.n(); ++v) held.node_labels[static_cast<std::size_t>(v)] = 1 + v % 3;
  const auto before = held.node_labels;
  EXPECT_THROW(solve_lcl(c, VertexColoringLcl(3), held, every, {}, every, 3), ContractViolation);
  EXPECT_EQ(held.node_labels, before);  // the held labels, not -1, after the throw
}

TEST(Lcl, DistributedChecker) {
  const Graph g = make_cycle(6);
  VertexColoringLcl p(2);
  Labeling lab = Labeling::empty(g);
  for (int v = 0; v < 6; ++v) lab.node_labels[v] = 1 + v % 2;
  auto res = check_distributed(g, p, lab);
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(res.rounds, 1);
  lab.node_labels[0] = 2;  // create a conflict
  res = check_distributed(g, p, lab);
  EXPECT_FALSE(res.accepted);
  int rejecting = 0;
  for (const char r : res.rejecting) rejecting += r ? 1 : 0;
  EXPECT_GE(rejecting, 2);  // both endpoints of the bad edge notice
}

TEST(Lcl, WeakColoringOnStar) {
  // A star is weakly 2-colorable: center one color, leaves the other.
  const Graph g = make_star(8);
  WeakColoringLcl p(2);
  const auto sol = solve_lcl(g, p);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(is_valid_labeling(g, p, *sol));
}

TEST(Lcl, WeakColoringAllowsImproperEdges) {
  const Graph g = make_path(4);
  WeakColoringLcl p(2);
  Labeling lab = Labeling::empty(g);
  // 1-2-2-1 is an improper 2-coloring (middle edge) but weakly valid.
  lab.node_labels = {1, 2, 2, 1};
  EXPECT_TRUE(is_valid_labeling(g, p, lab));
  // The all-ones labeling is not.
  lab.node_labels = {1, 1, 1, 1};
  EXPECT_FALSE(is_valid_labeling(g, p, lab));
}

TEST(Lcl, WeakColoringIsolatedNodeAlwaysValid) {
  const Graph g = make_graph({1}, {});
  WeakColoringLcl p(2);
  Labeling lab = Labeling::empty(g);
  lab.node_labels = {1};
  EXPECT_TRUE(is_valid_labeling(g, p, lab));
}

TEST(Lcl, ProblemNames) {
  EXPECT_EQ(VertexColoringLcl(3).name(), "vertex-3-coloring");
  EXPECT_EQ(EdgeColoringLcl(4).name(), "edge-4-coloring");
  EXPECT_EQ(MisLcl().name(), "mis");
  EXPECT_EQ(WeakColoringLcl(2).name(), "weak-2-coloring");
}

}  // namespace
}  // namespace lad
