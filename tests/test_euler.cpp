#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/euler.hpp"
#include "graph/generators.hpp"
#include "graph/source.hpp"
#include "reference_euler.hpp"

namespace lad {
namespace {

TEST(Euler, CycleIsOneClosedTrail) {
  const Graph g = make_cycle(9);
  const auto trails = euler_partition(g);
  ASSERT_EQ(trails.size(), 1u);
  EXPECT_TRUE(trails[0].closed);
  EXPECT_EQ(trails[0].length(), 9);
  EXPECT_TRUE(is_valid_euler_partition(g, trails));
}

TEST(Euler, PathIsOneOpenTrail) {
  const Graph g = make_path(8);
  const auto trails = euler_partition(g);
  ASSERT_EQ(trails.size(), 1u);
  EXPECT_FALSE(trails[0].closed);
  EXPECT_EQ(trails[0].length(), 7);
  EXPECT_TRUE(is_valid_euler_partition(g, trails));
}

TEST(Euler, EvenDegreeGivesOnlyClosedTrails) {
  const Graph g = make_even_degree_graph(80, 4, 21);
  const auto trails = euler_partition(g);
  EXPECT_TRUE(is_valid_euler_partition(g, trails));
  for (const auto& t : trails) EXPECT_TRUE(t.closed);
}

TEST(Euler, OpenTrailEndpointsAreOddNodes) {
  const Graph g = make_bounded_degree_tree(60, 4, 5);
  const auto trails = euler_partition(g);
  EXPECT_TRUE(is_valid_euler_partition(g, trails));
  int odd_nodes = 0;
  for (int v = 0; v < g.n(); ++v) odd_nodes += g.degree(v) % 2;
  int endpoints = 0;
  for (const auto& t : trails) {
    if (!t.closed) {
      EXPECT_EQ(g.degree(t.nodes.front()) % 2, 1);
      EXPECT_EQ(g.degree(t.nodes.back()) % 2, 1);
      endpoints += 2;
    }
  }
  EXPECT_EQ(endpoints, odd_nodes);
}

class EulerSweep : public ::testing::TestWithParam<int> {};

TEST_P(EulerSweep, PartitionValidOnRandomRegular) {
  const int d = GetParam();
  const Graph g = make_random_regular(50, d, 100 + d);
  const auto trails = euler_partition(g);
  EXPECT_TRUE(is_valid_euler_partition(g, trails));
  // A node of degree d appears ceil(d/2) times across all trails.
  std::vector<int> occurrences(static_cast<std::size_t>(g.n()), 0);
  for (const auto& t : trails) {
    const std::size_t upto = t.closed ? t.nodes.size() : t.nodes.size();
    for (std::size_t i = 0; i < upto; ++i) ++occurrences[t.nodes[i]];
  }
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_EQ(occurrences[v], (d + 1) / 2) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, EulerSweep, ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(Euler, GridPartitionValid) {
  const Graph g = make_grid(7, 6, IdMode::kRandomDense, 13);
  EXPECT_TRUE(is_valid_euler_partition(g, euler_partition(g)));
}

TEST(Euler, PartnerPort) {
  EXPECT_EQ(partner_port(0, 4), 1);
  EXPECT_EQ(partner_port(1, 4), 0);
  EXPECT_EQ(partner_port(2, 4), 3);
  EXPECT_EQ(partner_port(4, 5), -1);  // unpaired last port of odd degree
}

TEST(Euler, CanonicalDirectionInvariantUnderObserver) {
  // The canonical rule depends only on the trail, not on which node looks
  // at it: rotating a closed trail's representation keeps the decision.
  const Graph g = make_cycle(11, IdMode::kRandomDense, 77);
  const auto trails = euler_partition(g);
  ASSERT_EQ(trails.size(), 1u);
  const Trail& t = trails[0];
  const bool dir = canonical_trail_direction(g, t);

  Trail rotated = t;
  const int L = t.length();
  for (int i = 0; i < L; ++i) {
    rotated.nodes[static_cast<std::size_t>(i)] = t.nodes[static_cast<std::size_t>((i + 3) % L)];
    rotated.edges[static_cast<std::size_t>(i)] = t.edges[static_cast<std::size_t>((i + 3) % L)];
  }
  EXPECT_EQ(canonical_trail_direction(g, rotated), dir);
}

TEST(Euler, CanonicalDirectionFlipsOnReversal) {
  const Graph g = make_path(9, IdMode::kRandomDense, 3);
  const auto trails = euler_partition(g);
  ASSERT_EQ(trails.size(), 1u);
  Trail rev = trails[0];
  std::reverse(rev.nodes.begin(), rev.nodes.end());
  std::reverse(rev.edges.begin(), rev.edges.end());
  EXPECT_NE(canonical_trail_direction(g, rev), canonical_trail_direction(g, trails[0]));
}

// The linear least-rotation scan against the frozen O(L^2) rule, on every
// trail of every GraphSource family (three seeds each, random IDs) and of
// longer cycles and tori, each trail as given and reversed.
TEST(Euler, CanonicalDirectionMatchesReferenceOnEveryFamilyTrail) {
  std::vector<std::string> specs;
  for (const auto& family : graph_source_families()) {
    for (const char* seed : {"@1", "@2", "@3"}) specs.push_back(family + seed);
  }
  for (const char* spec : {"cycle:1000@4", "torus:24x24@5", "regular:600x6@6", "grid:30x20@7"}) {
    specs.emplace_back(spec);
  }
  int trails_checked = 0;
  for (const auto& spec : specs) {
    const auto src = parse_graph_source(spec, nullptr);
    ASSERT_TRUE(src.has_value()) << spec;
    const Graph g = load_graph_source(*src).graph;
    for (const Trail& t : euler_partition(g)) {
      Trail rev = t;
      std::reverse(rev.nodes.begin(), rev.nodes.end());
      std::reverse(rev.edges.begin(), rev.edges.end());
      EXPECT_EQ(canonical_trail_direction(g, t), reference::canonical_trail_direction(g, t))
          << spec << " trail of " << t.positions();
      EXPECT_EQ(canonical_trail_direction(g, rev), reference::canonical_trail_direction(g, rev))
          << spec << " reversed trail of " << t.positions();
      ++trails_checked;
    }
  }
  EXPECT_GT(trails_checked, 1000);
}

// Every closed ID sequence over {1, 2, 3} of length 1 to 9: periodic ones
// such as 1212, palindromic ones such as 12321, and sequences that read the
// same both ways, where the tie must go to the as-given direction.
TEST(Euler, CanonicalDirectionMatchesReferenceOnEveryShortSequence) {
  const Graph g = make_path(3, IdMode::kSequential);
  int ties = 0;
  for (int len = 1; len <= 9; ++len) {
    int count = 1;
    for (int i = 0; i < len; ++i) count *= 3;
    for (int code = 0; code < count; ++code) {
      Trail t;
      t.closed = true;
      for (int i = 0, c = code; i < len; ++i, c /= 3) t.nodes.push_back(c % 3);
      const bool want = reference::canonical_trail_direction(g, t);
      ASSERT_EQ(canonical_trail_direction(g, t), want) << "length " << len << " code " << code;
      Trail rev = t;
      std::reverse(rev.nodes.begin(), rev.nodes.end());
      if (want && reference::canonical_trail_direction(g, rev)) ++ties;
    }
  }
  EXPECT_GT(ties, 100);  // the <= tie is exercised, not just reachable
}

TEST(Euler, CanonicalDirectionOnPeriodicLongTrail) {
  // A period-3 sequence and a palindromic period-4 one, each repeated 300
  // times: the rotations tie in many places, and the reversal of the
  // second reads the same as the original.
  const Graph g = make_path(4, IdMode::kRandomDense, 9);
  for (const std::vector<int>& period : {std::vector<int>{0, 1, 2}, std::vector<int>{0, 1, 2, 1}}) {
    Trail t;
    t.closed = true;
    for (int r = 0; r < 300; ++r) t.nodes.insert(t.nodes.end(), period.begin(), period.end());
    EXPECT_EQ(canonical_trail_direction(g, t), reference::canonical_trail_direction(g, t));
    Trail rev = t;
    std::reverse(rev.nodes.begin(), rev.nodes.end());
    EXPECT_EQ(canonical_trail_direction(g, rev), reference::canonical_trail_direction(g, rev));
  }
}

}  // namespace
}  // namespace lad
